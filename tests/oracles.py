"""Independent reference implementations the tests compare against.

These are deliberately written with different algorithms than the package
(recursive memoized edit distance, exhaustive path enumeration, a beam
search with one dict entry per prefix, a resampler that evaluates its
kernel once per output sample, an LSTM that runs one direction at a time)
so that a shared bug cannot hide in both sides of an assertion.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ctcx import AudioClip, corpus_ler, forward, greedy_decode, log_softmax
from ctcx.frontend import _KAISER_BETA, _ZERO_CROSSINGS, resampled_length
from ctcx.network import _gate_scales, backward_batch, zeros_like_params
from ctcx.trainer import _dropout_seed, _epoch_order, momentum_step

NEG_INF = -np.inf


def oracle_edit_distance(ref, hyp) -> int:
    """Levenshtein distance via memoized recursion."""
    ref = tuple(ref)
    hyp = tuple(hyp)

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        if ref[i] == hyp[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    return go(0, 0)


def oracle_collapse(path, blank: int) -> tuple[int, ...]:
    out = []
    prev = None
    for k in path:
        if k != blank and k != prev:
            out.append(k)
        prev = k
    return tuple(out)


def oracle_label_masses(log_probs: np.ndarray) -> dict[tuple[int, ...], float]:
    """Log probability mass of every collapsed label sequence, by enumeration."""
    t_len, c = log_probs.shape
    blank = c - 1
    masses: dict[tuple[int, ...], float] = {}
    for path in itertools.product(range(c), repeat=t_len):
        lp = float(sum(log_probs[t, k] for t, k in enumerate(path)))
        key = oracle_collapse(path, blank)
        masses[key] = np.logaddexp(masses[key], lp) if key in masses else lp
    return masses


def oracle_map_decode(log_probs: np.ndarray) -> tuple[int, ...]:
    """Most probable collapsed sequence; ties broken toward the smaller one."""
    masses = oracle_label_masses(log_probs)
    return min(masses.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def oracle_beam_search(log_probs: np.ndarray, beam_width: int) -> tuple[int, ...]:
    """Prefix beam search with one dict entry per prefix and a full sort
    of every candidate each frame; the reference ``beam_search_decode``
    must equal exactly.

    Per prefix two masses are tracked: alignments ending in blank and in
    the final label. Paths collapsing to the same prefix merge. Ties break
    toward the lexicographically smaller prefix.
    """
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    log_probs = np.asarray(log_probs, dtype=np.float64)
    t_len, n_classes = log_probs.shape
    blank = n_classes - 1

    # prefix -> [log P(ends in blank), log P(ends in its last label)]
    beams: dict[tuple[int, ...], list[float]] = {(): [0.0, NEG_INF]}
    for t in range(t_len):
        lp = log_probs[t]
        nxt: dict[tuple[int, ...], list[float]] = {}

        def slot(prefix):
            entry = nxt.get(prefix)
            if entry is None:
                entry = [NEG_INF, NEG_INF]
                nxt[prefix] = entry
            return entry

        for prefix, (p_b, p_nb) in beams.items():
            total = np.logaddexp(p_b, p_nb)
            entry = slot(prefix)
            entry[0] = np.logaddexp(entry[0], total + lp[blank])
            if prefix:
                # same label again without an intervening blank: merges
                entry[1] = np.logaddexp(entry[1], p_nb + lp[prefix[-1]])
            for c in range(blank):
                if prefix and c == prefix[-1]:
                    mass = p_b + lp[c]
                else:
                    mass = total + lp[c]
                grown = slot(prefix + (c,))
                grown[1] = np.logaddexp(grown[1], mass)

        ranked = sorted(
            nxt.items(), key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0])
        )
        beams = dict(ranked[:beam_width])

    best = min(beams.items(), key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0]))
    return best[0]


def ctc_loss_of_logits(logits: np.ndarray, labels) -> float:
    return oracle_ctc_forward_backward(log_softmax(logits), labels)[0]


def network_fd_grads(params, cfg, feats, labels, train_mode: bool,
                     dropout_seed: int, eps: float = 1e-5):
    """Central finite differences of the CTC loss for every parameter."""

    def loss() -> float:
        logits, _ = forward(params, cfg, feats, train_mode=train_mode,
                            dropout_seed=dropout_seed)
        return ctc_loss_of_logits(logits, labels)

    out = []
    for name, theta in params.tensors.items():
        grad = np.zeros_like(theta)
        flat = theta.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss()
            flat[i] = orig - eps
            lo = loss()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
        out.append((name, grad))
    return out


def max_relative_error(analytic, numeric, floor: float = 1e-6) -> float:
    """Worst elementwise |a-n| / max(|a|, |n|, floor) over tensor pairs.

    Central differences at eps=1e-5 carry O(eps^2)=1e-10 truncation noise,
    so entries below floor = 1e-10 / 1e-4 cannot meet a pure relative bound
    regardless of implementation correctness; the floor absorbs only those.
    """
    worst = 0.0
    for (_, a), (_, n) in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def oracle_train_epoch(params, model_cfg, data, cfg, state, epoch):
    """``train_epoch`` one utterance at a time: forward, the oracle CTC and a
    batch-of-one backward per utterance, gradients summed in visiting order,
    then one momentum step per minibatch."""
    order = _epoch_order(cfg, epoch, len(data))
    total_cost = 0.0
    decoded = []
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        grads = zeros_like_params(params)
        for offset, idx in enumerate(batch):
            utt = data[idx]
            logits, cache = forward(params, model_cfg, utt.features, train_mode=True,
                                    dropout_seed=_dropout_seed(cfg, epoch, start + offset))
            log_probs = log_softmax(logits)
            nll, dlogits, _, _ = oracle_ctc_forward_backward(log_probs, utt.labels)
            total_cost += nll
            decoded.append((utt.labels, greedy_decode(log_probs)))
            grads.vector += backward_batch(params, cache, dlogits[:, None]).vector
        grads.vector *= 1.0 / len(batch)
        momentum_step(params, grads, state, cfg)
    return total_cost / len(data), corpus_ler(decoded)


def oracle_ctc_forward_backward(log_probs: np.ndarray, labels):
    """CTC for one utterance with its own log-space recursion per frame:
    returns (neg log-likelihood, dlogits, log_alpha, log_beta).

    Same arithmetic as the batched lattice walk, one (T, S) lattice at a
    time, so the results must be equal, not close.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    blank = log_probs.shape[1] - 1
    ext = np.full(2 * len(labels) + 1, blank, dtype=np.int64)
    ext[1::2] = list(labels)
    skip_ok = (ext[2:] != blank) & (ext[2:] != ext[:-2])
    ly = log_probs[:, ext]

    def step(prev, skip):
        acc = prev.copy()
        acc[1:] = np.logaddexp(acc[1:], prev[:-1])
        acc[2:] = np.logaddexp(acc[2:], np.where(skip, prev[:-2], NEG_INF))
        return acc

    alpha = np.full(ly.shape, NEG_INF)
    alpha[0, :2] = ly[0, :2]
    for t in range(1, len(ly)):
        alpha[t] = ly[t] + step(alpha[t - 1], skip_ok)
    log_p = float(np.logaddexp.reduce(alpha[-1, -2:]))
    ly_rev, skip_rev = ly[::-1, ::-1].copy(), skip_ok[::-1].copy()
    beta = np.full(ly.shape, NEG_INF)
    beta[0, :2] = 0.0
    for u in range(1, len(ly)):
        beta[u] = step(beta[u - 1] + ly_rev[u - 1], skip_rev)
    beta = beta[::-1, ::-1]
    if log_p == NEG_INF:
        return np.inf, np.zeros_like(log_probs), alpha, beta
    gamma = alpha + beta
    log_q = np.full(log_probs.shape, NEG_INF)
    for k in np.unique(ext):
        log_q[:, k] = np.logaddexp.reduce(gamma[:, ext == k], axis=1)
    return -log_p, np.exp(log_probs) - np.exp(log_q - log_p), alpha, beta


@dataclass
class OracleDirectionCache:
    """Activations of one direction over a batch, in its own time order, as
    ``oracle_direction_forward`` keeps them."""

    x: np.ndarray        # (T, B, D) input as seen by this direction
    gates: np.ndarray    # (T, B, 4H) activations [i, f, g, o]
    c: np.ndarray        # (T + 1, B, H) cell states; row 0 is the zero initial state
    tanh_c: np.ndarray   # (T, B, H) tanh of c[1:]
    h: np.ndarray        # (T + 1, B, H) hidden states; row 0 is the zero initial state


def oracle_direction_forward(
    lp: tuple[np.ndarray, ...], x: np.ndarray
) -> tuple[np.ndarray, OracleDirectionCache]:
    """One LSTM direction over a (T, B, D) batch, one (B, H) @ (H, 4H)
    product per step; the stacked ``network._layer_forward`` must equal it
    exactly, direction by direction."""
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

    return h[1:], OracleDirectionCache(x, gates, c, tanh_c, h)


def oracle_direction_backward(
    lp: tuple[np.ndarray, ...],
    grad: tuple[np.ndarray, ...],
    cache: OracleDirectionCache,
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


def oracle_resample(clip: AudioClip, target_hz: int) -> AudioClip:
    """``resample`` with the Kaiser-windowed sinc evaluated again for every
    output sample and the taps gathered through an index matrix.

    The package builds one kernel row per distinct fractional position and
    the same elementwise floats, so the outputs must be equal, not close.
    """
    if target_hz <= 0:
        raise ValueError(f"bad target rate {target_hz}")
    if target_hz == clip.sample_rate_hz:
        return clip

    x = clip.samples
    ratio = target_hz / clip.sample_rate_hz
    n_out = resampled_length(len(x), clip.sample_rate_hz, target_hz)
    scale = min(1.0, ratio)  # lowpass cutoff when decimating
    support = _ZERO_CROSSINGS / scale
    half_taps = int(np.floor(support)) + 1
    n_taps = 2 * half_taps + 1

    pad = np.concatenate([np.zeros(half_taps + 1), x, np.zeros(half_taps + 2)])
    out = np.empty(n_out)
    offsets = np.arange(n_taps) - half_taps

    chunk = 8192
    denom = np.i0(_KAISER_BETA)
    for start in range(0, n_out, chunk):
        j = np.arange(start, min(start + chunk, n_out))
        pos = j / ratio  # position in source samples
        k0 = np.floor(pos).astype(np.int64)
        frac = pos - k0
        # tap m covers source index k0 + offsets[m]
        t = offsets[None, :] - frac[:, None]
        u = t / support
        window = np.where(np.abs(u) <= 1.0, np.i0(_KAISER_BETA * np.sqrt(np.maximum(0.0, 1.0 - u * u))) / denom, 0.0)
        kernel = scale * np.sinc(scale * t) * window
        idx = k0[:, None] + offsets[None, :] + half_taps + 1
        out[j] = np.einsum("ij,ij->i", kernel, pad[idx])

    np.clip(out, -1.0, 1.0, out=out)
    return AudioClip(out, target_hz)
