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
activations as one (T, 4H) matrix in the same [i, f, g, o] order, and
backward turns it into the pre-activation gradient with one slope,
``(1 - a) * (a + 2k - 1)``.

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


@dataclass
class _DirectionCache:
    """Activations of one direction, in its own time order."""

    x: np.ndarray        # (T, D) input as seen by this direction
    gates: np.ndarray    # (T, 4H) activations [i, f, g, o]
    c: np.ndarray        # (T + 1, H) cell states; row 0 is the zero initial state
    tanh_c: np.ndarray   # (T, H) tanh of c[1:]
    h: np.ndarray        # (T + 1, H) hidden states; row 0 is the zero initial state


def _direction_forward(
    lp: tuple[np.ndarray, ...], x: np.ndarray
) -> tuple[np.ndarray, _DirectionCache]:
    w_input, w_recurrent, bias = lp
    t_len = x.shape[0]
    h_dim = w_recurrent.shape[1]
    k = _gate_scales(h_dim)
    offset = 1.0 - k
    z_in = x @ w_input.T + bias  # (T, 4H)

    gates = np.empty((t_len, 4 * h_dim))
    c = np.zeros((t_len + 1, h_dim))
    tanh_c = np.empty((t_len, h_dim))
    h = np.zeros((t_len + 1, h_dim))
    w_rec_t = w_recurrent.T
    for t in range(t_len):
        gates[t] = offset + k * np.tanh(k * (z_in[t] + h[t] @ w_rec_t))
        i, f, g, o = gates[t].reshape(4, h_dim)
        c[t + 1] = f * c[t] + i * g
        tanh_c[t] = np.tanh(c[t + 1])
        h[t + 1] = o * tanh_c[t]

    return h[1:], _DirectionCache(x, gates, c, tanh_c, h)


def _direction_backward(
    lp: tuple[np.ndarray, ...],
    grad: tuple[np.ndarray, ...],
    cache: _DirectionCache,
    dh_out: np.ndarray,
) -> np.ndarray:
    """Writes the direction's gradients into ``grad``; returns the input gradient."""
    w_input, w_rec, _ = lp
    t_len, h_dim = dh_out.shape
    gates, tanh_c = cache.gates, cache.tanh_c
    i, f, g, o = np.split(gates, 4, axis=1)
    # d gate / d z of (1 - k) + k tanh(k z), written in the activation a
    slope = (1.0 - gates) * (gates + (2.0 * _gate_scales(h_dim) - 1.0))
    # dz_t = [dc, dc, dc, dh] * local_t: d c_t / d [i, f, g] and d h_t / d o
    local = np.hstack([g, cache.c[:-1], i, tanh_c]) * slope
    dc_dh = o * (1.0 - tanh_c**2)
    dz = np.empty((t_len, 4 * h_dim))
    dh_next = np.zeros(h_dim)
    dc_next = np.zeros(h_dim)

    for t in range(t_len - 1, -1, -1):
        dh = dh_out[t] + dh_next
        dc = dh * dc_dh[t] + dc_next
        dz[t] = np.concatenate([dc, dc, dc, dh]) * local[t]
        dh_next = dz[t] @ w_rec
        dc_next = dc * f[t]

    g_input, g_recurrent, g_bias = grad
    g_input[...] = dz.T @ cache.x
    g_recurrent[...] = dz.T @ cache.h[:-1]
    g_bias[...] = dz.sum(axis=0)
    return dz @ w_input


@dataclass
class ForwardCache:
    cfg: ModelConfig
    dir_caches: list[tuple[_DirectionCache, _DirectionCache | None]]
    masks: list[np.ndarray | None]
    final_hidden: np.ndarray


def _stack_forward(
    params: ModelParams,
    cfg: ModelConfig,
    features: np.ndarray,
    train_mode: bool,
    dropout_seed: int,
) -> tuple[list[np.ndarray], ForwardCache]:
    """Run the recurrent stack; returns per-layer (post-dropout) outputs."""
    if features.ndim != 2 or features.shape[1] != cfg.feature_dim:
        raise ValueError(
            f"features shape {features.shape} incompatible with feature_dim {cfg.feature_dim}"
        )
    if features.shape[0] < 1:
        raise ValueError("need at least one frame")
    validate_params(params, cfg)

    rng = np.random.default_rng(dropout_seed) if train_mode else None
    dir_caches, masks = [], []
    x = np.asarray(features, dtype=np.float64)
    outputs = []
    for li in range(cfg.num_layers):
        out, c_fwd = _direction_forward(params.direction(li, "fwd"), x)
        c_bwd = None
        if cfg.bidirectional:
            h_bwd_rev, c_bwd = _direction_forward(params.direction(li, "bwd"), x[::-1])
            out = np.hstack([out, h_bwd_rev[::-1]])
        dir_caches.append((c_fwd, c_bwd))
        mask = None
        if train_mode and cfg.dropout_keep < 1.0:
            mask = (rng.random(out.shape) < cfg.dropout_keep) / cfg.dropout_keep
            out = out * mask
        masks.append(mask)
        outputs.append(out)
        x = out
    return outputs, ForwardCache(cfg, dir_caches, masks, x)


def forward(
    params: ModelParams,
    cfg: ModelConfig,
    features: np.ndarray,
    train_mode: bool = False,
    dropout_seed: int = 0,
) -> tuple[np.ndarray, ForwardCache]:
    """Per-utterance forward pass; returns (T x C logits, cache for backward)."""
    outputs, cache = _stack_forward(params, cfg, features, train_mode, dropout_seed)
    logits = outputs[-1] @ params.dense_w.T + params.dense_b
    return logits, cache


def recurrent_hidden_outputs(
    params: ModelParams, cfg: ModelConfig, features: np.ndarray
) -> list[np.ndarray]:
    """Eval-mode hidden output of every recurrent layer (no dense head)."""
    outputs, _ = _stack_forward(params, cfg, features, train_mode=False, dropout_seed=0)
    return outputs


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max subtraction."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def backward(
    params: ModelParams, cfg: ModelConfig, cache: ForwardCache, dlogits: np.ndarray
) -> ModelParams:
    """Exact gradients for the loss whose logit gradient is ``dlogits``.

    Returns a zeroed ModelParams with every gradient written into its view.
    """
    if cache.cfg != cfg:
        raise ValueError("cache was produced under a different model config")
    if dlogits.shape != (cache.final_hidden.shape[0], cfg.num_classes):
        raise ValueError(f"dlogits shape {dlogits.shape} does not match the forward pass")

    h = cfg.hidden
    grads = zeros_like_params(params)
    grads.dense_w[...] = dlogits.T @ cache.final_hidden
    grads.dense_b[...] = dlogits.sum(axis=0)

    dx = dlogits @ params.dense_w
    for li in range(cfg.num_layers - 1, -1, -1):
        mask = cache.masks[li]
        if mask is not None:
            dx = dx * mask
        c_fwd, c_bwd = cache.dir_caches[li]
        dx_f = _direction_backward(
            params.direction(li, "fwd"), grads.direction(li, "fwd"), c_fwd, dx[:, :h]
        )
        if cfg.bidirectional:
            dx_b_rev = _direction_backward(
                params.direction(li, "bwd"), grads.direction(li, "bwd"), c_bwd, dx[:, h:][::-1]
            )
            dx_f = dx_f + dx_b_rev[::-1]
        dx = dx_f
    return grads
