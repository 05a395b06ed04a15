"""Two-layer (Bi)LSTM with dropout and a dense output head, plus exact BPTT.

Gate blocks in every 4H-sized tensor are ordered [input, forget, cell
candidate, output]. The same ordering is used in checkpoints, so weight
transfer between models is well defined. All math is float64; parameter
values are kept on the float32 grid so checkpoints round-trip bit-exactly.

Gate activations: each step applies one expression, ``(1 - k) + k *
tanh(k * z)``, to its whole 4H pre-activation ``z``, with ``k = 1/2`` on the
input, forget and output blocks and ``k = 1`` on the cell block. Because
``sigmoid(z) = 1/2 + 1/2 tanh(z/2)``, that is the sigmoid on three blocks and
tanh on the fourth, and it cannot overflow at any ``z``. k is a power of two,
so scaling by it is exact and commutes with every product and sum: the input
pre-activations and a per-call copy of the recurrent weight are scaled by k
before the time loop, and a step takes the tanh of its sum directly. Backward
turns the activations into the pre-activation gradient with one slope,
``(1 - a) * (a + 2k - 1)``.

Batch layout: a minibatch runs time-major as (T_max, B, ·) arrays, each
utterance front-aligned and zero-padded after its own T_b frames. A layer's
directions are independent, so they share one time loop with a direction
axis of size n (1 for the LSTM, 2 for the BiLSTM), and a step's operands are
contiguous blocks, written in place:

* forward keeps the activations as one (T, 4, n, B, H) array, so each of a
  step's gate blocks [i, f, g, o] is a contiguous (n, B, H) block. At B > 1
  the k-scaled recurrent weight is laid out once per call as (4, n, H, H)
  blocks, so a step's product writes its four gate blocks. At B = 1
  (``evaluate``, ``ctcx decode``) the product is a matrix-vector one, which a
  laid-out copy would round differently for no gain, so there a step
  multiplies by the transposed view and adds the (n, 1, 4H) result through a
  block view;
* backward keeps each direction's dz as (T, B, 4H) rows in [i, f, g, o]
  order: a step's rows are one contiguous block per direction for the
  product with ``w_recurrent``, and all T * B rows one block for the weight
  gradients after the loop. Its per-step factors stay in the gates' layout,
  so a step writes its dz into the rows through a block view.

Where the matrix kernel rounds a laid-out weight's product as it rounds the
view's (at H=16 for every B tried, at H=128 for B >= 3, and at B = 1 for
every H tried), outputs are bit-identical to a per-direction loop over the
view; at other shapes (a trailing batch of 2 at H=128, H=37) training may
move in the last bits.

The backward direction's input is each utterance reversed within its own
length (``reverse_within``), which keeps the padding after the valid steps
there too; its output is reversed back before the two are concatenated.
Padding needs no mask: a padded step comes after every valid step of
its utterance in both directions, so it never feeds one, and backward
starts it with ``dh_out = 0`` (CTC gives padded rows zero gradient), so its
``dz`` is exactly 0 and it adds nothing to the weight gradients, which are
one product over all T * B rows. ``forward`` runs one utterance as a batch
of one through ``forward_batch``, whose cache keeps every recurrent layer's
output for backward and for transfer verification.

Parameter layout: all of a model's tensors live in one contiguous float64
vector, back to back in ``tensor_spec`` order, and each name maps to a
writable view of its slice. The recurrent ``layer*`` tensors form a prefix
of the vector and the dense head (``dense.w``, ``dense.b``) comes last, so
gradient sums, clipping and optimizer steps are single vector operations,
a checkpoint payload is the vector cast to float32, and transfer is a copy
over the recurrent prefix. There each layer's n directions sit back to back
as equal [w_input, w_recurrent, bias] blocks, so ``ModelParams.layer`` gives
them, with no copy, as (n, 4H, D), (n, 4H, H) and (n, 4H) views that each
layer product and weight gradient spans in one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int
    num_classes: int
    hidden: int = 128
    num_layers: int = 2
    bidirectional: bool = False
    dropout_keep: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden <= 0 or self.num_layers <= 0:
            raise ValueError("hidden and num_layers must be positive")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError(f"dropout_keep {self.dropout_keep} outside (0, 1]")
        if self.feature_dim <= 0 or self.num_classes < 2:
            raise ValueError("bad feature_dim / num_classes")

    @property
    def direction_names(self) -> tuple[str, ...]:
        return ("fwd", "bwd") if self.bidirectional else ("fwd",)

    @property
    def directions(self) -> int:
        return len(self.direction_names)

    @property
    def layer_output_dim(self) -> int:
        return self.hidden * self.directions

    def layer_input_dim(self, layer_index: int) -> int:
        return self.feature_dim if layer_index == 0 else self.layer_output_dim


# the ModelConfig fields that fix a model's tensor shapes, in checkpoint header order
GEOMETRY = ("hidden", "num_layers", "bidirectional", "feature_dim", "num_classes")


def tensor_spec(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list for every tensor of a model."""
    spec = []
    h = cfg.hidden
    for li in range(cfg.num_layers):
        d = cfg.layer_input_dim(li)
        for direction in cfg.direction_names:
            prefix = f"layer{li + 1}.{direction}"
            spec.append((f"{prefix}.w_input", (4 * h, d)))
            spec.append((f"{prefix}.w_recurrent", (4 * h, h)))
            spec.append((f"{prefix}.bias", (4 * h,)))
    spec.append(("dense.w", (cfg.num_classes, cfg.layer_output_dim)))
    spec.append(("dense.b", (cfg.num_classes,)))
    return spec


def tensor_views(spec, flat: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """Split a flat array into the tensors of ``spec``, back to back, as views."""
    sizes = [math.prod(shape) for _, shape in spec]
    if flat.shape != (sum(sizes),):
        raise ValueError(f"flat array of shape {flat.shape} does not hold {sum(sizes)} values")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return [(name, part.reshape(shape)) for (name, shape), part in zip(spec, parts)]


@dataclass
class ModelParams:
    """Every tensor of a model as a named view into one float64 vector."""

    spec: list[tuple[str, tuple[int, ...]]]
    vector: np.ndarray
    tensors: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.tensors = dict(tensor_views(self.spec, self.vector))

    @property
    def dense_w(self) -> np.ndarray:  # (C, R)
        return self.tensors["dense.w"]

    @property
    def dense_b(self) -> np.ndarray:  # (C,)
        return self.tensors["dense.b"]

    def layer(self, layer_index: int, cfg: ModelConfig) -> tuple[np.ndarray, ...]:
        """Views (w_input (n, 4H, D), w_recurrent (n, 4H, H), bias (n, 4H)) of one
        layer's n directions; slice d of each is a tensor of direction d (0 = fwd)."""
        h, n, d_in = cfg.hidden, cfg.directions, cfg.layer_input_dim(layer_index)
        start = n * sum(4 * h * (cfg.layer_input_dim(li) + h + 1) for li in range(layer_index))
        rows = self.vector[start : start + n * 4 * h * (d_in + h + 1)].reshape(n, -1)
        w_input, w_recurrent, bias = np.split(rows, [4 * h * d_in, 4 * h * (d_in + h)], axis=1)
        return w_input.reshape(n, 4 * h, d_in), w_recurrent.reshape(n, 4 * h, h), bias


def validate_params(params: ModelParams, cfg: ModelConfig) -> None:
    spec = tensor_spec(cfg)
    if params.spec != spec:
        drift = sorted(set(params.spec) ^ set(spec))
        raise ValueError(f"params/config tensor mismatch: {drift}")


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams(params.spec, np.zeros_like(params.vector))


def _f32_grid(a: np.ndarray) -> np.ndarray:
    # keep values exactly representable in float32 so checkpoints round-trip
    return a.astype(np.float32).astype(np.float64)


def init_params(cfg: ModelConfig) -> ModelParams:
    """Glorot-uniform weights, zero biases except forget gate bias of 1.

    Tensors are drawn in ``tensor_spec`` order from one generator seeded by
    ``cfg.seed``.
    """
    rng = np.random.default_rng(cfg.seed)
    h = cfg.hidden
    spec = tensor_spec(cfg)
    params = ModelParams(spec, np.zeros(sum(math.prod(shape) for _, shape in spec)))
    for name, view in params.tensors.items():
        if view.ndim == 2:  # (fan_out, fan_in)
            limit = np.sqrt(6.0 / (view.shape[1] + view.shape[0]))
            view[...] = _f32_grid(rng.uniform(-limit, limit, size=view.shape))
        elif name.endswith(".bias"):
            view[h : 2 * h] = 1.0  # forget gate
    return params


# k of the gate activation ``(1 - k) + k * tanh(k * z)`` on the blocks [i, f, g, o]:
# sigmoid(z) = 1/2 + 1/2 tanh(z/2) on i, f and o, tanh(z) on the cell candidate g
_GATE_K = (0.5, 0.5, 1.0, 0.5)


def _gate_scales(h_dim: int) -> np.ndarray:
    """Per-column k of the gate activation ``(1 - k) + k * tanh(k * z)``."""
    return np.repeat(_GATE_K, h_dim)


def pad_batch(arrays) -> np.ndarray:
    """Stack (T_b, ...) arrays time-major into one zero-padded (T_max, B, ...) array."""
    t_max = max(len(a) for a in arrays)
    out = np.zeros((t_max, len(arrays)) + arrays[0].shape[1:])
    for b, a in enumerate(arrays):
        out[: len(a), b] = a
    return out


def reverse_within(lengths: np.ndarray, size: int) -> np.ndarray:
    """(size, B) row index that reverses column b within its first ``lengths[b]``
    rows and leaves the padding after them in place; it is its own inverse."""
    pos = np.arange(size)[:, None]
    return np.where(pos < lengths, lengths - 1 - pos, pos)


def _reversed(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """A (T, B, ...) batch with each utterance reversed within its own length;
    a view when none is padded, as for a batch of one."""
    if np.all(lengths == len(x)):
        return x[::-1]
    return x[reverse_within(lengths, len(x)), np.arange(len(lengths))]


@dataclass
class _LayerCache:
    """Activations of one layer's n directions over a batch, each direction in
    its own time order."""

    x: np.ndarray        # (n, T, B, D) input as seen by each direction
    gates: np.ndarray    # (T, 4, n, B, H) activations, blocks [i, f, g, o]
    c: np.ndarray        # (T + 1, n, B, H) cell states; row 0 is the zero initial state
    tanh_c: np.ndarray   # (T, n, B, H) tanh of c[1:]
    h: np.ndarray        # (T + 1, n, B, H) hidden states; row 0 is the zero initial state


def _layer_forward(
    layer: tuple[np.ndarray, ...], x: np.ndarray
) -> tuple[np.ndarray, _LayerCache]:
    """Run the n directions of ``layer``, the stacked views of ``ModelParams.layer``,
    over their (n, T, B, D) inputs ``x``; returns the (T, n, B, H) hidden outputs."""
    w_input, w_recurrent, bias = layer
    n_dir, t_len, n_batch, d_in = x.shape
    h_dim = w_recurrent.shape[2]
    k = _gate_scales(h_dim)
    # gates start as k times the input pre-activations; each step adds k times the
    # recurrent part. k is 1/2 or 1, so scaling by it is exact and commutes with sums.
    z_in = np.matmul(x.reshape(n_dir, -1, d_in), w_input.transpose(0, 2, 1))
    z_in += bias[:, None]
    z_in *= k
    gates = np.empty((t_len, 4, n_dir, n_batch, h_dim))
    np.copyto(gates, z_in.reshape(n_dir, t_len, n_batch, 4, h_dim).transpose(1, 3, 0, 2, 4))
    w_rec = w_recurrent * k[:, None]
    if n_batch > 1:
        # laid out once per call as (4, n, H, H): block j of direction d is
        # k_j w_recurrent[d, jH:(j+1)H].T, so a step's product writes its gate blocks
        w_rec = np.ascontiguousarray(w_rec.reshape(n_dir, 4, h_dim, h_dim).transpose(1, 0, 3, 2))
        rec = rec_blocks = np.empty(gates.shape[1:])
    else:
        # a (1, H) row takes a matrix-vector product, which rounds as before only
        # through the transposed view
        w_rec = w_rec.transpose(0, 2, 1)
        rec = np.empty((n_dir, 1, 4 * h_dim))
        rec_blocks = rec.reshape(n_dir, 1, 4, h_dim).transpose(2, 0, 1, 3)

    c = np.zeros((t_len + 1, n_dir, n_batch, h_dim))
    tanh_c = np.empty((t_len, n_dir, n_batch, h_dim))
    h = np.zeros((t_len + 1, n_dir, n_batch, h_dim))
    # step-sized: at H=16 a broadcast row made each of these two ops 2.5 times slower
    scale = np.broadcast_to(k.reshape(4, 1, 1, h_dim), gates.shape[1:]).copy()
    offset = 1.0 - scale
    ig = np.empty((n_dir, n_batch, h_dim))
    # zip hands out each step's views for less than indexing them
    steps = zip(gates, *gates.transpose(1, 0, 2, 3, 4), c[:-1], c[1:], tanh_c, h[:-1], h[1:])
    for a, i, f, g, o, c_prev, c_t, tanh_c_t, h_prev, h_t in steps:
        np.matmul(h_prev, w_rec, out=rec)
        a += rec_blocks
        np.tanh(a, out=a)
        a *= scale
        a += offset
        np.multiply(f, c_prev, out=c_t)
        np.multiply(i, g, out=ig)
        c_t += ig
        np.tanh(c_t, out=tanh_c_t)
        np.multiply(o, tanh_c_t, out=h_t)

    return h[1:], _LayerCache(x, gates, c, tanh_c, h)


def _layer_backward(
    layer: tuple[np.ndarray, ...],
    grads: tuple[np.ndarray, ...],
    cache: _LayerCache,
    dh_out: np.ndarray,
) -> np.ndarray:
    """Backpropagate the (T, n, B, H) output gradients ``dh_out``, each in its
    direction's time order. Writes the batch-summed gradients into ``grads``,
    stacked like ``layer``; returns the (n, T, B, D) input gradients."""
    n_dir, t_len, n_batch, d_in = cache.x.shape
    h_dim = dh_out.shape[3]
    i, f, g, o = cache.gates.transpose(1, 0, 2, 3, 4)
    # dz_t = local_t * u_t with u_t = [dc, dc, dc, dh]: local holds d c_t / d [i, f, g]
    # and d h_t / d o times the slope d a / d z = (1 - a)(a + 2k - 1) of each gate,
    # block by block in the gates' layout
    local = np.empty(cache.gates.shape)
    shifted = np.empty(f.shape)
    factors = (g, cache.c[:-1], i, cache.tanh_c)
    blocks = local.transpose(1, 0, 2, 3, 4)
    for a, k, factor, block in zip((i, f, g, o), _GATE_K, factors, blocks):
        np.subtract(1.0, a, out=block)
        block *= np.add(a, 2.0 * k - 1.0, out=shifted)
        block *= factor
    # dc_t = dh_t dc_dh_t + dc_{t+1} f_{t+1}, where dc_dh_t = d c_t / d h_t = o_t (1 - tanh(c_t)^2)
    dc_dh = np.square(cache.tanh_c)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o

    w_input, w_recurrent, _ = layer
    # dz is kept as each direction's (T, B, 4H) rows, so a step's rows are one block per
    # direction for the product with w_recurrent, and all T * B rows one block after the loop
    dz = np.empty((n_dir, t_len, n_batch, 4 * h_dim))
    dz_blocks = dz.reshape(n_dir, t_len, n_batch, 4, h_dim).transpose(1, 3, 0, 2, 4)
    u = np.empty((4, n_dir, n_batch, h_dim))
    dc, dh = u[0], u[3]
    carry = np.zeros((n_dir, n_batch, h_dim))  # dc_{t+1} f_{t+1}
    dh_next = np.zeros((n_dir, n_batch, h_dim))
    steps = zip(dh_out[::-1], dc_dh[::-1], f[::-1], local[::-1], dz_blocks[::-1],
                dz.transpose(1, 0, 2, 3)[::-1])
    for dh_out_t, dc_dh_t, f_t, local_t, dz_t, dz_rows in steps:
        np.add(dh_out_t, dh_next, out=dh)
        np.multiply(dh, dc_dh_t, out=dc)
        dc += carry
        np.multiply(dc, f_t, out=carry)
        u[1:3] = dc
        np.multiply(local_t, u, out=dz_t)
        np.matmul(dz_rows, w_recurrent, out=dh_next)

    # one product over all T * B rows of a direction sums the batch
    g_input, g_recurrent, g_bias = grads
    dz = dz.reshape(n_dir, -1, 4 * h_dim)
    h_prev = cache.h[:-1].transpose(1, 0, 2, 3).reshape(n_dir, -1, h_dim)
    np.matmul(dz.transpose(0, 2, 1), cache.x.reshape(n_dir, -1, d_in), out=g_input)
    np.matmul(dz.transpose(0, 2, 1), h_prev, out=g_recurrent)
    dz.sum(axis=1, out=g_bias)
    return np.matmul(dz, w_input).reshape(cache.x.shape)


@dataclass
class ForwardCache:
    cfg: ModelConfig
    lengths: np.ndarray  # (B,) frames of each utterance
    layers: list[_LayerCache]
    masks: list[np.ndarray | None]  # per layer (T, B, R), zero on padding
    outputs: list[np.ndarray]  # per layer (T, B, R), after dropout


def forward_batch(
    params: ModelParams,
    cfg: ModelConfig,
    features: list[np.ndarray],
    dropout_seeds: list[int] | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass over a batch of (T_b, F) feature matrices.

    Returns (T_max, B, C) logits, whose rows past each utterance's length are
    padding, and the cache for ``backward_batch``, whose ``outputs`` are the
    recurrent layers' outputs. ``dropout_seeds`` holds one seed per
    utterance in training mode; ``None`` is eval mode.
    """
    if not features:
        raise ValueError("empty batch")
    for values in features:
        if values.ndim != 2 or values.shape[1] != cfg.feature_dim:
            raise ValueError(
                f"feature dim mismatch: features of shape {values.shape}, "
                f"model feature_dim {cfg.feature_dim}"
            )
        if values.shape[0] < 1:
            raise ValueError("need at least one frame")
    validate_params(params, cfg)

    lengths = np.array([len(values) for values in features])
    x = pad_batch(features)
    dropout = dropout_seeds is not None and cfg.dropout_keep < 1.0
    # one generator per utterance, drawn layer by layer, as in a batch of one
    rngs = [np.random.default_rng(seed) for seed in dropout_seeds] if dropout else []
    layer_caches, masks, outputs = [], [], []
    for li in range(cfg.num_layers):
        xs = [x, _reversed(x, lengths)] if cfg.bidirectional else [x]
        h_dirs, layer_cache = _layer_forward(params.layer(li, cfg), np.stack(xs))
        out = h_dirs[:, 0]
        if cfg.bidirectional:
            out = np.concatenate([out, _reversed(h_dirs[:, 1], lengths)], axis=2)
        layer_caches.append(layer_cache)
        mask = None
        if dropout:
            keep = [rng.random((n, out.shape[2])) < cfg.dropout_keep
                    for rng, n in zip(rngs, lengths)]
            mask = pad_batch(keep) / cfg.dropout_keep
            out = out * mask
        masks.append(mask)
        outputs.append(out)
        x = out
    logits = x.reshape(-1, x.shape[2]) @ params.dense_w.T + params.dense_b
    cache = ForwardCache(cfg, lengths, layer_caches, masks, outputs)
    return logits.reshape(x.shape[:2] + (cfg.num_classes,)), cache


def forward(
    params: ModelParams,
    cfg: ModelConfig,
    features: np.ndarray,
    train_mode: bool = False,
    dropout_seed: int = 0,
) -> tuple[np.ndarray, ForwardCache]:
    """Per-utterance forward pass; returns (T x C logits, cache for ``backward_batch``)."""
    seeds = [dropout_seed] if train_mode else None
    logits, cache = forward_batch(params, cfg, [np.asarray(features, dtype=np.float64)], seeds)
    return logits[:, 0], cache


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max subtraction."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def backward_batch(params: ModelParams, cache: ForwardCache, dlogits: np.ndarray) -> ModelParams:
    """Exact gradients, summed over the batch, of the loss whose (T_max, B, C)
    logit gradient is ``dlogits`` (zero on padding rows), under ``cache.cfg``.

    Returns a zeroed ModelParams with every gradient written into its view.
    """
    cfg = cache.cfg
    validate_params(params, cfg)
    hidden = cache.outputs[-1]
    if dlogits.shape != hidden.shape[:2] + (cfg.num_classes,):
        raise ValueError(f"dlogits shape {dlogits.shape} does not match the forward pass")

    h = cfg.hidden
    grads = zeros_like_params(params)
    flat = dlogits.reshape(-1, cfg.num_classes)
    grads.dense_w[...] = flat.T @ hidden.reshape(len(flat), -1)
    grads.dense_b[...] = flat.sum(axis=0)

    dx = (flat @ params.dense_w).reshape(hidden.shape)
    for li in range(cfg.num_layers - 1, -1, -1):
        mask = cache.masks[li]
        if mask is not None:
            dx = dx * mask
        dh = [dx[:, :, :h], _reversed(dx[:, :, h:], cache.lengths)] if cfg.bidirectional else [dx]
        dxs = _layer_backward(
            params.layer(li, cfg), grads.layer(li, cfg), cache.layers[li], np.stack(dh, axis=1)
        )
        dx = dxs[0]
        if cfg.bidirectional:
            dx = dx + _reversed(dxs[1], cache.lengths)
    return grads

