"""Independent reference implementations the tests compare against.

These are deliberately written with different algorithms than the package
(recursive memoized edit distance, exhaustive path enumeration, a beam
search with one dict entry per prefix) so that a shared bug cannot hide in
both sides of an assertion.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from ctcx import ctc_forward_backward, forward, log_softmax

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
    return ctc_forward_backward(log_softmax(logits), labels).neg_log_likelihood


def network_fd_grads(params, cfg, feats, labels, train_mode: bool,
                     dropout_seed: int, eps: float = 1e-5):
    """Central finite differences of the CTC loss for every parameter."""

    def loss() -> float:
        logits, _ = forward(params, cfg, feats, train_mode=train_mode,
                            dropout_seed=dropout_seed)
        return ctc_forward_backward(log_softmax(logits), labels).neg_log_likelihood

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
