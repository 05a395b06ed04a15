"""CTC loss, logit gradients, greedy and prefix beam-search decoding, LER.

Conventions, fixed across the toolkit:

* Blank is the last class, index C - 1.
* ``alpha[t][s]`` is the total probability of all length-(t+1) alignment
  prefixes that sit at extended-label position ``s`` at frame ``t``,
  including the emission at ``t``.
* ``beta[t][s]`` is the total probability of completing the label sequence
  over frames ``t+1 .. T-1`` starting from position ``s``, excluding the
  emission at ``t``. With that split,
  ``logsumexp_s(alpha[t][s] + beta[t][s])`` equals the total log-likelihood
  at every frame, which the tests check directly.

All recursions run in log space.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, product

import numpy as np

NEG_INF = -np.inf

_ROW_NORM_TOL = 1e-6
_BRUTEFORCE_LIMIT = 10**6


def _check_log_dist(log_probs: np.ndarray) -> np.ndarray:
    log_probs = np.asarray(log_probs, dtype=np.float64)
    if log_probs.ndim != 2:
        raise ValueError(f"expected a T x C matrix, got shape {log_probs.shape}")
    row_lse = np.logaddexp.reduce(log_probs, axis=1)
    if not np.all(np.abs(row_lse) <= _ROW_NORM_TOL):
        bad = int(np.argmax(np.abs(row_lse)))
        raise ValueError(f"row {bad} is not a normalized log-distribution")
    return log_probs


def extend_with_blanks(labels, blank: int) -> np.ndarray:
    """Interleave blanks around every label: [b, l1, b, l2, ..., b]."""
    ext = np.full(2 * len(labels) + 1, blank, dtype=np.int64)
    ext[1::2] = list(labels)
    return ext


def collapse_path(path, blank: int) -> tuple[int, ...]:
    """Merge adjacent repeats, then drop blanks."""
    return tuple(k for k, _ in groupby(path) if k != blank)


@dataclass
class CtcResult:
    neg_log_likelihood: float
    dlogits: np.ndarray
    feasible: bool
    log_alpha: np.ndarray
    log_beta: np.ndarray
    log_likelihood: float


def _lattice(log_probs: np.ndarray, labels) -> tuple[np.ndarray, ...]:
    """Checked log_probs, the blank-extended labels ``ext``, their T x S
    emission log-probs, and ``skip_ok[s]``: whether a path may skip from
    ``s`` to ``s + 2``, true only between two different labels."""
    log_probs = _check_log_dist(log_probs)
    blank = log_probs.shape[1] - 1
    labels = tuple(int(x) for x in labels)
    if any(not 0 <= x < blank for x in labels):
        raise ValueError(f"labels must lie in [0, {blank}), got {labels}")
    ext = extend_with_blanks(labels, blank)
    skip_ok = (ext[2:] != blank) & (ext[2:] != ext[:-2])
    return log_probs, ext, log_probs[:, ext], skip_ok


def _lattice_step(prev: np.ndarray, skip_ok: np.ndarray) -> np.ndarray:
    """Log-mass reaching each position from ``prev`` in one frame: stay,
    advance one, or skip two where ``skip_ok`` allows."""
    acc = prev.copy()
    acc[1:] = np.logaddexp(acc[1:], prev[:-1])
    acc[2:] = np.logaddexp(acc[2:], np.where(skip_ok, prev[:-2], NEG_INF))
    return acc


def _log_alpha(ly: np.ndarray, skip_ok: np.ndarray) -> tuple[np.ndarray, float]:
    """Forward lattice and the total log-likelihood (-inf when infeasible)."""
    alpha = np.full(ly.shape, NEG_INF)
    alpha[0, :2] = ly[0, :2]
    for t in range(1, len(ly)):
        alpha[t] = ly[t] + _lattice_step(alpha[t - 1], skip_ok)
    return alpha, float(np.logaddexp.reduce(alpha[-1, -2:]))


def ctc_loss(log_probs: np.ndarray, labels) -> float:
    """CTC loss from the forward recursion alone; +inf when infeasible.

    Equals ``ctc_forward_backward(log_probs, labels).neg_log_likelihood``
    without the backward recursion or the gradient.
    """
    _, _, ly, skip_ok = _lattice(log_probs, labels)
    return -_log_alpha(ly, skip_ok)[1]


def ctc_forward_backward(log_probs: np.ndarray, labels) -> CtcResult:
    """Forward-backward CTC loss and its gradient with respect to logits.

    ``log_probs`` must hold normalized log-distributions (one row per
    frame); ``labels`` are symbol ids without blanks. When no alignment of
    the labels fits into T frames the loss is +inf, the gradient is zero,
    and the result is flagged infeasible.
    """
    log_probs, ext, ly, skip_ok = _lattice(log_probs, labels)
    alpha, log_p = _log_alpha(ly, skip_ok)
    # beta is the same lattice walked from the end: time and positions reversed
    ly_rev, skip_rev = ly[::-1, ::-1].copy(), skip_ok[::-1].copy()
    beta = np.full(ly.shape, NEG_INF)
    beta[0, :2] = 0.0
    for u in range(1, len(ly)):
        beta[u] = _lattice_step(beta[u - 1] + ly_rev[u - 1], skip_rev)
    beta = beta[::-1, ::-1]

    if log_p == NEG_INF:
        return CtcResult(np.inf, np.zeros_like(log_probs), False, alpha, beta, log_p)

    gamma = alpha + beta  # (T, S)
    log_q = np.full(log_probs.shape, NEG_INF)
    for k in np.unique(ext):
        log_q[:, k] = np.logaddexp.reduce(gamma[:, ext == k], axis=1)
    dlogits = np.exp(log_probs) - np.exp(log_q - log_p)
    return CtcResult(-log_p, dlogits, True, alpha, beta, log_p)


def ctc_loss_bruteforce(log_probs: np.ndarray, labels) -> float:
    """Loss by exhaustive path enumeration; the independent test oracle.

    Sums the probability of every length-T path whose collapse equals the
    labels. Only viable for C**T up to 1e6.
    """
    log_probs = _check_log_dist(log_probs)
    t_len, n_classes = log_probs.shape
    if n_classes**t_len > _BRUTEFORCE_LIMIT:
        raise ValueError(f"instance too large: {n_classes}^{t_len} paths")
    blank = n_classes - 1
    target = tuple(int(x) for x in labels)

    total = NEG_INF
    for path in product(range(n_classes), repeat=t_len):
        if collapse_path(path, blank) == target:
            lp = sum(log_probs[t, k] for t, k in enumerate(path))
            total = np.logaddexp(total, lp)
    return float(-total)


def greedy_decode(log_probs: np.ndarray) -> tuple[int, ...]:
    """Per-frame argmax (ties to the lowest class index), then collapse."""
    log_probs = np.asarray(log_probs)
    blank = log_probs.shape[1] - 1
    path = np.argmax(log_probs, axis=1)
    return collapse_path(path.tolist(), blank)


def beam_search_decode(log_probs: np.ndarray, beam_width: int) -> tuple[int, ...]:
    """Prefix beam search over collapsed label prefixes (Hannun et al. 2014).

    The beam holds at most W prefixes and three arrays over them: ``p_b``,
    the log mass of alignments ending in blank, ``p_nb``, of those ending
    in the prefix's last label, and ``last``, that label (-1 for the empty
    prefix). Each frame fills one W x C candidate matrix with array ops:

    * column ``c < blank`` grows every prefix by ``c`` at ``total + lp[c]``,
      where ``total = logaddexp(p_b, p_nb)``; repeating the last label needs
      a blank in between, so that column takes ``p_b + lp[last]``;
    * column ``blank`` keeps every prefix as itself: blank mass
      ``total + lp[blank]``, non-blank mass ``p_nb + lp[last]``;
    * a growth that equals a prefix already in the beam (found by a
      prefix -> row dict, at most W lookups) is folded into that prefix's
      non-blank mass and masked out of the candidates.

    ``np.partition`` finds the W-th best score; only candidates at or above
    it become prefix tuples, sorted by score and then toward the
    lexicographically smaller prefix. Every slot sums at most two terms and
    ``np.logaddexp`` is commutative with ``logaddexp(-inf, x) == x``, so for
    ``log_probs`` without NaN or +inf the scores and the result are
    bit-identical to the per-prefix dict search kept as
    ``oracle_beam_search`` in ``tests/oracles.py``.
    """
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    log_probs = np.asarray(log_probs, dtype=np.float64)
    _, n_classes = log_probs.shape
    blank = n_classes - 1

    def grown(k: int) -> tuple[int, ...]:
        """The prefix of flat candidate ``k`` of the current beam."""
        i, c = divmod(k, n_classes)
        return prefixes[i] if c == blank else prefixes[i] + (c,)

    prefixes: tuple[tuple[int, ...], ...] = ((),)
    p_b = np.zeros(1)
    p_nb = np.full(1, NEG_INF)
    last = np.full(1, -1)
    total = np.zeros(1)  # logaddexp(p_b, p_nb)
    for lp in log_probs:
        # cand[i, c]: prefix i grown by label c, or kept as itself at c = blank
        cand = total[:, None] + lp
        rows = np.flatnonzero(last >= 0)
        cand[rows, last[rows]] = p_b[rows] + lp[last[rows]]
        keep_b = cand[:, blank].copy()
        keep_nb = np.where(last >= 0, p_nb + lp[last], NEG_INF)

        # fold q + (c,) into the keep slot of that prefix when it is in the beam
        live = np.ones(cand.shape, dtype=bool)
        row_of = {p: i for i, p in enumerate(prefixes)}
        fold = [(j, row_of[prefixes[j][:-1]]) for j in rows if prefixes[j][:-1] in row_of]
        if fold:
            js, parents = np.array(fold).T
            keep_nb[js] = np.logaddexp(keep_nb[js], cand[parents, last[js]])
            live[parents, last[js]] = False
        cand[:, blank] = np.logaddexp(keep_b, keep_nb)

        flat = cand.ravel()
        picks = np.flatnonzero(live)
        neg = -flat[picks]
        if len(picks) > beam_width:
            top = neg <= np.partition(neg, beam_width - 1)[beam_width - 1]
            picks, neg = picks[top], neg[top]
        ranked = sorted(zip(neg.tolist(), map(grown, picks.tolist()), picks.tolist()))
        _, prefixes, ks = zip(*ranked[:beam_width])
        ks = np.array(ks)
        row, col = np.divmod(ks, n_classes)
        kept = col == blank
        total = flat[ks]
        p_b = np.where(kept, keep_b[row], NEG_INF)
        p_nb = np.where(kept, keep_nb[row], total)
        last = np.where(kept, last[row], col)

    return prefixes[0]


def edit_distance(ref, hyp) -> int:
    """Levenshtein distance with unit costs, iterative DP."""
    ref = tuple(ref)
    hyp = tuple(hyp)
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (r != h),
            )
        prev = cur
    return prev[-1]


def label_error_rate(ref, hyp) -> float:
    """Edit distance divided by the reference length."""
    ref = tuple(ref)
    if not ref:
        raise ValueError("empty reference; use corpus_ler for aggregates")
    return edit_distance(ref, hyp) / len(ref)


def corpus_ler(pairs) -> float:
    """Total edit distance over total reference length across (ref, hyp) pairs."""
    dist = 0
    ref_len = 0
    for ref, hyp in pairs:
        dist += edit_distance(ref, hyp)
        ref_len += len(tuple(ref))
    if ref_len == 0:
        raise ValueError("total reference length is zero")
    return dist / ref_len
