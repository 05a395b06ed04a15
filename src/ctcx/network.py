"""Two-layer (Bi)LSTM with dropout and a dense output head, plus exact BPTT.

Gate blocks in every 4H-sized tensor are ordered [input, forget, cell
candidate, output]. The same ordering is used in checkpoints, so weight
transfer between models is well defined. All math is float64; parameter
values are kept on the float32 grid so checkpoints round-trip bit-exactly.

Gate activations: each step applies one expression, ``(1 - k) + k *
tanh(k * z)``, to its whole 4H pre-activation ``z``, with ``k = 1/2`` on the
input, forget and output blocks and ``k = 1`` on the cell block. Because
``sigmoid(z) = 1/2 + 1/2 tanh(z/2)``, that is the sigmoid on three blocks and
tanh on the fourth, and it cannot overflow at any ``z``. A direction keeps its
activations as one (T, B, 4H) array in the same [i, f, g, o] order, and
backward turns it into the pre-activation gradient with one slope,
``(1 - a) * (a + 2k - 1)``.

Batch layout: a minibatch runs time-major as (T_max, B, ·) arrays, each
utterance front-aligned and zero-padded after its own T_b frames, so every
recurrent step is one (B, H) @ (H, 4H) product written into preallocated
rows. The backward direction reverses each utterance within its own length
(``reverse_within``), which keeps the padding after the valid steps there
too. Padding needs no mask: a padded step comes after every valid step of
its utterance in both directions, so it never feeds one, and backward
starts it with ``dh_out = 0`` (CTC gives padded rows zero gradient), so its
``dz`` is exactly 0 and it adds nothing to the weight gradients, which are
one product over all T * B rows. ``forward``, ``backward`` and
``recurrent_hidden_outputs`` take one utterance and run it as a batch of
one.

Parameter layout: all of a model's tensors live in one contiguous float64
vector, back to back in ``tensor_spec`` order, and each name maps to a
writable view of its slice. The recurrent ``layer*`` tensors form a prefix
of the vector and the dense head (``dense.w``, ``dense.b``) comes last, so
gradient sums, clipping and optimizer steps are single vector operations,
a checkpoint payload is the vector cast to float32, and transfer is a copy
over the recurrent prefix.
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
    def directions(self) -> int:
        return 2 if self.bidirectional else 1

    @property
    def layer_output_dim(self) -> int:
        return self.hidden * self.directions

    def layer_input_dim(self, layer_index: int) -> int:
        return self.feature_dim if layer_index == 0 else self.layer_output_dim


def tensor_spec(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list for every tensor of a model."""
    spec = []
    h = cfg.hidden
    for li in range(cfg.num_layers):
        d = cfg.layer_input_dim(li)
        dirs = ("fwd", "bwd") if cfg.bidirectional else ("fwd",)
        for direction in dirs:
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

    def direction(self, layer_index: int, direction: str) -> tuple[np.ndarray, ...]:
        """(w_input 4H x D, w_recurrent 4H x H, bias 4H) of one direction of one layer."""
        prefix = f"layer{layer_index + 1}.{direction}"
        kinds = ("w_input", "w_recurrent", "bias")
        return tuple(self.tensors[f"{prefix}.{kind}"] for kind in kinds)


def validate_params(params: ModelParams, cfg: ModelConfig) -> None:
    spec = tensor_spec(cfg)
    if params.spec != spec:
        drift = sorted(set(params.spec) ^ set(spec))
        raise ValueError(f"params/config tensor mismatch: {drift}")


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams(params.spec, np.zeros_like(params.vector))


def copy_params(params: ModelParams) -> ModelParams:
    return ModelParams(params.spec, params.vector.copy())


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


def _gate_scales(h_dim: int) -> np.ndarray:
    """Per-column k of the gate activation ``(1 - k) + k * tanh(k * z)``."""
    k = np.full(4 * h_dim, 0.5)  # sigmoid(z) = 1/2 + 1/2 tanh(z/2) on i, f, o
    k[2 * h_dim : 3 * h_dim] = 1.0  # tanh(z) on the cell candidate g
    return k


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
class _DirectionCache:
    """Activations of one direction over a batch, in its own time order."""

    x: np.ndarray        # (T, B, D) input as seen by this direction
    gates: np.ndarray    # (T, B, 4H) activations [i, f, g, o]
    c: np.ndarray        # (T + 1, B, H) cell states; row 0 is the zero initial state
    tanh_c: np.ndarray   # (T, B, H) tanh of c[1:]
    h: np.ndarray        # (T + 1, B, H) hidden states; row 0 is the zero initial state


def _direction_forward(
    lp: tuple[np.ndarray, ...], x: np.ndarray
) -> tuple[np.ndarray, _DirectionCache]:
    w_input, w_recurrent, bias = lp
    t_len, n_batch, d_in = x.shape
    h_dim = w_recurrent.shape[1]
    k = _gate_scales(h_dim)
    offset = 1.0 - k
    z_in = (x.reshape(-1, d_in) @ w_input.T + bias).reshape(t_len, n_batch, 4 * h_dim)
    w_rec_t = w_recurrent.T

    gates = np.empty((t_len, n_batch, 4 * h_dim))
    c = np.zeros((t_len + 1, n_batch, h_dim))
    tanh_c = np.empty((t_len, n_batch, h_dim))
    h = np.zeros((t_len + 1, n_batch, h_dim))
    i, f, g, o = (gates[:, :, j * h_dim : (j + 1) * h_dim] for j in range(4))
    ig = np.empty((n_batch, h_dim))
    # every step writes into preallocated rows, so B=1 costs no more than a vector step
    for t in range(t_len):
        a = gates[t]
        np.matmul(h[t], w_rec_t, out=a)
        a += z_in[t]
        a *= k
        np.tanh(a, out=a)
        a *= k
        a += offset
        np.multiply(f[t], c[t], out=c[t + 1])
        np.multiply(i[t], g[t], out=ig)
        c[t + 1] += ig
        np.tanh(c[t + 1], out=tanh_c[t])
        np.multiply(o[t], tanh_c[t], out=h[t + 1])

    return h[1:], _DirectionCache(x, gates, c, tanh_c, h)


def _direction_backward(
    lp: tuple[np.ndarray, ...],
    grad: tuple[np.ndarray, ...],
    cache: _DirectionCache,
    dh_out: np.ndarray,
) -> np.ndarray:
    """Writes the direction's batch-summed gradients into ``grad``; returns the
    (T, B, D) input gradient."""
    w_input, w_rec, _ = lp
    t_len, n_batch, h_dim = dh_out.shape
    gates, tanh_c = cache.gates, cache.tanh_c
    i, f, g, o = np.split(gates, 4, axis=2)
    # d gate / d z of (1 - k) + k tanh(k z), written in the activation a
    slope = (1.0 - gates) * (gates + (2.0 * _gate_scales(h_dim) - 1.0))
    # dz_t = u_t * local_t with u_t = [dc, dc, dc, dh]: d c_t / d [i, f, g] and d h_t / d o
    local = np.concatenate([g, cache.c[:-1], i, tanh_c], axis=2) * slope
    # u_t = dh_t * m_t + v_{t+1} with m_t = [dc/dh, dc/dh, dc/dh, 1], and the
    # carry v_t = u_t * [f, f, f, 0] = [dc_next, dc_next, dc_next, 0]
    m = np.concatenate([np.tile(o * (1.0 - tanh_c**2), 3), np.ones_like(tanh_c)], axis=2)
    carry = np.concatenate([np.tile(f, 3), np.zeros_like(f)], axis=2)
    dz = np.empty((t_len, n_batch, 4 * h_dim))
    dh = np.empty((n_batch, 1, h_dim))
    u = np.empty((n_batch, 4 * h_dim))
    v = np.zeros((n_batch, 4 * h_dim))
    dh_next = np.zeros((n_batch, h_dim))
    u4, dh_out4 = u.reshape(n_batch, 4, h_dim), dh_out.reshape(t_len, n_batch, 1, h_dim)
    m4 = m.reshape(t_len, n_batch, 4, h_dim)

    for t in range(t_len - 1, -1, -1):
        np.add(dh_out4[t], dh_next[:, None], out=dh)
        np.multiply(dh, m4[t], out=u4)
        u += v
        np.multiply(u, local[t], out=dz[t])
        np.matmul(dz[t], w_rec, out=dh_next)
        np.multiply(u, carry[t], out=v)

    # one product over all T * B rows sums the batch
    dz = dz.reshape(-1, 4 * h_dim)
    g_input, g_recurrent, g_bias = grad
    g_input[...] = dz.T @ cache.x.reshape(-1, w_input.shape[1])
    g_recurrent[...] = dz.T @ cache.h[:-1].reshape(-1, h_dim)
    g_bias[...] = dz.sum(axis=0)
    return (dz @ w_input).reshape(t_len, n_batch, -1)


@dataclass
class ForwardCache:
    cfg: ModelConfig
    lengths: np.ndarray  # (B,) frames of each utterance
    dir_caches: list[tuple[_DirectionCache, _DirectionCache | None]]
    masks: list[np.ndarray | None]  # per layer (T, B, R), zero on padding
    final_hidden: np.ndarray  # (T, B, R)


def _stack_forward(
    params: ModelParams,
    cfg: ModelConfig,
    features: list[np.ndarray],
    dropout_seeds: list[int] | None,
) -> tuple[list[np.ndarray], ForwardCache]:
    """Run the recurrent stack over a batch; returns per-layer (post-dropout)
    (T_max, B, R) outputs."""
    if not features:
        raise ValueError("empty batch")
    for values in features:
        if values.ndim != 2 or values.shape[1] != cfg.feature_dim:
            raise ValueError(
                f"features shape {values.shape} incompatible with feature_dim {cfg.feature_dim}"
            )
        if values.shape[0] < 1:
            raise ValueError("need at least one frame")
    validate_params(params, cfg)

    lengths = np.array([len(values) for values in features])
    x = pad_batch(features)
    dropout = dropout_seeds is not None and cfg.dropout_keep < 1.0
    # one generator per utterance, drawn layer by layer, as in a batch of one
    rngs = [np.random.default_rng(seed) for seed in dropout_seeds] if dropout else []
    dir_caches, masks = [], []
    outputs = []
    for li in range(cfg.num_layers):
        out, c_fwd = _direction_forward(params.direction(li, "fwd"), x)
        c_bwd = None
        if cfg.bidirectional:
            x_rev = _reversed(x, lengths)
            h_bwd_rev, c_bwd = _direction_forward(params.direction(li, "bwd"), x_rev)
            out = np.concatenate([out, _reversed(h_bwd_rev, lengths)], axis=2)
        dir_caches.append((c_fwd, c_bwd))
        mask = None
        if dropout:
            keep = [rng.random((n, out.shape[2])) < cfg.dropout_keep
                    for rng, n in zip(rngs, lengths)]
            mask = pad_batch(keep) / cfg.dropout_keep
            out = out * mask
        masks.append(mask)
        outputs.append(out)
        x = out
    return outputs, ForwardCache(cfg, lengths, dir_caches, masks, x)


def forward_batch(
    params: ModelParams,
    cfg: ModelConfig,
    features: list[np.ndarray],
    dropout_seeds: list[int] | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass over a batch of (T_b, F) feature matrices.

    Returns (T_max, B, C) logits, whose rows past each utterance's length are
    padding, and the cache for ``backward_batch``. ``dropout_seeds`` holds one
    seed per utterance in training mode; ``None`` is eval mode.
    """
    outputs, cache = _stack_forward(params, cfg, features, dropout_seeds)
    hidden = outputs[-1]
    logits = hidden.reshape(-1, hidden.shape[2]) @ params.dense_w.T + params.dense_b
    return logits.reshape(hidden.shape[:2] + (cfg.num_classes,)), cache


def forward(
    params: ModelParams,
    cfg: ModelConfig,
    features: np.ndarray,
    train_mode: bool = False,
    dropout_seed: int = 0,
) -> tuple[np.ndarray, ForwardCache]:
    """Per-utterance forward pass; returns (T x C logits, cache for backward)."""
    seeds = [dropout_seed] if train_mode else None
    logits, cache = forward_batch(params, cfg, [np.asarray(features, dtype=np.float64)], seeds)
    return logits[:, 0], cache


def recurrent_hidden_outputs(
    params: ModelParams, cfg: ModelConfig, features: np.ndarray
) -> list[np.ndarray]:
    """Eval-mode hidden output of every recurrent layer (no dense head)."""
    outputs, _ = _stack_forward(params, cfg, [np.asarray(features, dtype=np.float64)], None)
    return [out[:, 0] for out in outputs]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max subtraction."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def backward_batch(
    params: ModelParams, cfg: ModelConfig, cache: ForwardCache, dlogits: np.ndarray
) -> ModelParams:
    """Exact gradients, summed over the batch, of the loss whose (T_max, B, C)
    logit gradient is ``dlogits``; its padding rows must be zero.

    Returns a zeroed ModelParams with every gradient written into its view.
    """
    if cache.cfg != cfg:
        raise ValueError("cache was produced under a different model config")
    if dlogits.shape != cache.final_hidden.shape[:2] + (cfg.num_classes,):
        raise ValueError(f"dlogits shape {dlogits.shape} does not match the forward pass")

    h = cfg.hidden
    grads = zeros_like_params(params)
    flat = dlogits.reshape(-1, cfg.num_classes)
    grads.dense_w[...] = flat.T @ cache.final_hidden.reshape(len(flat), -1)
    grads.dense_b[...] = flat.sum(axis=0)

    dx = (flat @ params.dense_w).reshape(cache.final_hidden.shape)
    for li in range(cfg.num_layers - 1, -1, -1):
        mask = cache.masks[li]
        if mask is not None:
            dx = dx * mask
        c_fwd, c_bwd = cache.dir_caches[li]
        dx_f = _direction_backward(
            params.direction(li, "fwd"), grads.direction(li, "fwd"), c_fwd, dx[:, :, :h]
        )
        if cfg.bidirectional:
            dx_b_rev = _direction_backward(
                params.direction(li, "bwd"), grads.direction(li, "bwd"), c_bwd,
                _reversed(dx[:, :, h:], cache.lengths),
            )
            dx_f = dx_f + _reversed(dx_b_rev, cache.lengths)
        dx = dx_f
    return grads


def backward(
    params: ModelParams, cfg: ModelConfig, cache: ForwardCache, dlogits: np.ndarray
) -> ModelParams:
    """Exact gradients of a batch-of-one forward pass for its (T, C) ``dlogits``."""
    return backward_batch(params, cfg, cache, np.asarray(dlogits)[:, None])
