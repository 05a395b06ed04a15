"""Two-layer (Bi)LSTM with dropout and a dense output head, plus exact BPTT.

Gate blocks in every 4H-sized tensor are ordered [input, forget, cell
candidate, output]. The same ordering is used in checkpoints, so weight
transfer between models is well defined. All math is float64; parameter
values are kept on the float32 grid so checkpoints round-trip bit-exactly.

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


def named_tensors(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Tensors in canonical checkpoint order; arrays are live views."""
    return list(params.tensors.items())


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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class _DirectionCache:
    """Activations of one direction, in its own time order."""

    x: np.ndarray        # (T, D) input as seen by this direction
    i: np.ndarray        # (T, H) gate activations
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray        # (T, H) cell states
    tanh_c: np.ndarray
    h: np.ndarray


def _direction_forward(
    lp: tuple[np.ndarray, ...], x: np.ndarray
) -> tuple[np.ndarray, _DirectionCache]:
    w_input, w_recurrent, bias = lp
    t_len = x.shape[0]
    h_dim = w_recurrent.shape[1]
    z_in = x @ w_input.T + bias  # (T, 4H)

    i = np.empty((t_len, h_dim))
    f = np.empty((t_len, h_dim))
    g = np.empty((t_len, h_dim))
    o = np.empty((t_len, h_dim))
    c = np.empty((t_len, h_dim))
    tanh_c = np.empty((t_len, h_dim))
    h = np.empty((t_len, h_dim))

    h_prev = np.zeros(h_dim)
    c_prev = np.zeros(h_dim)
    w_rec_t = w_recurrent.T
    for t in range(t_len):
        z = z_in[t] + h_prev @ w_rec_t
        i[t] = _sigmoid(z[:h_dim])
        f[t] = _sigmoid(z[h_dim : 2 * h_dim])
        g[t] = np.tanh(z[2 * h_dim : 3 * h_dim])
        o[t] = _sigmoid(z[3 * h_dim :])
        c[t] = f[t] * c_prev + i[t] * g[t]
        tanh_c[t] = np.tanh(c[t])
        h[t] = o[t] * tanh_c[t]
        h_prev = h[t]
        c_prev = c[t]

    return h, _DirectionCache(x, i, f, g, o, c, tanh_c, h)


def _direction_backward(
    lp: tuple[np.ndarray, ...],
    grad: tuple[np.ndarray, ...],
    cache: _DirectionCache,
    dh_out: np.ndarray,
) -> np.ndarray:
    """Writes the direction's gradients into ``grad``; returns the input gradient."""
    w_input, w_rec, _ = lp
    t_len, h_dim = dh_out.shape
    dz = np.empty((t_len, 4 * h_dim))
    dh_next = np.zeros(h_dim)
    dc_next = np.zeros(h_dim)

    i, f, g, o = cache.i, cache.f, cache.g, cache.o
    tanh_c = cache.tanh_c
    for t in range(t_len - 1, -1, -1):
        dh = dh_out[t] + dh_next
        do = dh * tanh_c[t]
        dc = dh * o[t] * (1.0 - tanh_c[t] ** 2) + dc_next
        c_prev = cache.c[t - 1] if t > 0 else 0.0
        di = dc * g[t]
        df = dc * c_prev
        dg = dc * i[t]
        dz_t = dz[t]
        dz_t[:h_dim] = di * i[t] * (1.0 - i[t])
        dz_t[h_dim : 2 * h_dim] = df * f[t] * (1.0 - f[t])
        dz_t[2 * h_dim : 3 * h_dim] = dg * (1.0 - g[t] ** 2)
        dz_t[3 * h_dim :] = do * o[t] * (1.0 - o[t])
        dh_next = dz_t @ w_rec
        dc_next = dc * f[t]

    h_prev = np.vstack([np.zeros((1, h_dim)), cache.h[:-1]])
    g_input, g_recurrent, g_bias = grad
    g_input[...] = dz.T @ cache.x
    g_recurrent[...] = dz.T @ h_prev
    g_bias[...] = dz.sum(axis=0)
    return dz @ w_input


@dataclass
class ForwardCache:
    cfg: ModelConfig
    train_mode: bool
    layer_inputs: list[np.ndarray]
    dir_caches: list[tuple[_DirectionCache, _DirectionCache | None]]
    masks: list[np.ndarray | None]
    final_hidden: np.ndarray = field(default=None)  # type: ignore[assignment]


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
    cache = ForwardCache(cfg, train_mode, [], [], [])
    x = np.asarray(features, dtype=np.float64)
    outputs = []
    for li in range(cfg.num_layers):
        cache.layer_inputs.append(x)
        out, c_fwd = _direction_forward(params.direction(li, "fwd"), x)
        c_bwd = None
        if cfg.bidirectional:
            h_bwd_rev, c_bwd = _direction_forward(params.direction(li, "bwd"), x[::-1])
            out = np.hstack([out, h_bwd_rev[::-1]])
        cache.dir_caches.append((c_fwd, c_bwd))
        if train_mode and cfg.dropout_keep < 1.0:
            mask = (rng.random(out.shape) < cfg.dropout_keep) / cfg.dropout_keep
            out = out * mask
            cache.masks.append(mask)
        else:
            cache.masks.append(None)
        outputs.append(out)
        x = out
    cache.final_hidden = x
    return outputs, cache


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
