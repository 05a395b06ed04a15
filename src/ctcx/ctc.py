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

All recursions run in log space, over a time-major (T_max, B, ·) batch
padded after each utterance's frames and extended labels (see
``ctc_forward_backward_batch``); ``ctc_loss`` runs one utterance as a batch
of one. Beta is the alpha recursion over each lattice reversed, so
``ctc_forward_backward_batch`` gets both from one walk over 2B columns: the
B lattices, then the B reversed ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .network import reverse_within

NEG_INF = -np.inf

_ROW_NORM_TOL = 1e-6


def _check_log_dist(log_probs: np.ndarray, valid: np.ndarray) -> None:
    """Every ``valid`` row of the last axis must be a normalized log-distribution."""
    row_lse = np.logaddexp.reduce(log_probs, axis=-1)
    bad = ~(np.abs(row_lse) <= _ROW_NORM_TOL) & valid
    if bad.any():
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"row {where} is not a normalized log-distribution")


def extend_with_blanks(labels, blank: int) -> np.ndarray:
    """Interleave blanks around every label: [b, l1, b, l2, ..., b]."""
    ext = np.full(2 * len(labels) + 1, blank, dtype=np.int64)
    ext[1::2] = list(labels)
    return ext


def collapse_path(path, blank: int) -> tuple[int, ...]:
    """Merge adjacent repeats, then drop blanks."""
    return tuple(k for k, _ in groupby(path) if k != blank)


@dataclass
class _Lattice:
    """A batch of CTC lattices, padded time-major to (T_max, B, S_max)."""

    lengths: np.ndarray   # (B,) frames T_b
    valid_t: np.ndarray   # (T_max, B) frame t < T_b
    ext: np.ndarray       # (B, S_max) blank-extended labels, padded with blank
    ext_len: np.ndarray   # (B,) positions S_b = 2 L_b + 1


def _lattice(log_probs: np.ndarray, lengths, labels) -> _Lattice:
    """Check a (T_max, B, C) batch whose utterance b has ``lengths[b]``
    frames and the symbol ids ``labels[b]``, and lay out its lattices."""
    t_max, n_batch, n_classes = log_probs.shape
    blank = n_classes - 1
    lengths = np.asarray(lengths, dtype=np.int64)
    labels = [tuple(int(x) for x in seq) for seq in labels]
    if lengths.shape != (n_batch,) or len(labels) != n_batch:
        raise ValueError(f"{len(lengths)} lengths and {len(labels)} label sequences "
                         f"for a batch of {n_batch}")
    if not np.all((lengths >= 1) & (lengths <= t_max)):
        raise ValueError(f"lengths {lengths.tolist()} outside [1, {t_max}]")
    valid_t = np.arange(t_max)[:, None] < lengths
    _check_log_dist(log_probs, valid_t)
    for seq in labels:
        if any(not 0 <= x < blank for x in seq):
            raise ValueError(f"labels must lie in [0, {blank}), got {seq}")
    ext_len = np.array([2 * len(seq) + 1 for seq in labels])
    ext = np.full((n_batch, ext_len.max()), blank, dtype=np.int64)
    for b, seq in enumerate(labels):
        ext[b, : ext_len[b]] = extend_with_blanks(seq, blank)
    return _Lattice(lengths, valid_t, ext, ext_len)


def _walk(ly: np.ndarray, ext: np.ndarray, blank: int) -> tuple[np.ndarray, np.ndarray]:
    """The lattice recursion over (T, B, S) emission log-probs ``ly`` of the
    (B, S) extended labels ``ext``.

    Returns ``(pre, post)``: ``pre[t, b, s]`` is the log-mass reaching
    position s at frame t before its emission (0 on the first two positions
    at t = 0), ``post[t] = pre[t] + ly[t]`` after it. Each frame a path
    stays, advances one position, or skips a blank, which it may do only
    between two different labels. ``post`` carries two -inf columns left of
    position 0, so all three moves are one expression at every position.
    """
    t_len, n_batch, n_pos = ly.shape
    skip = np.full((n_batch, n_pos), NEG_INF)
    skip[:, 2:][(ext[:, 2:] != blank) & (ext[:, 2:] != ext[:, :-2])] = 0.0
    pre = np.full(ly.shape, NEG_INF)
    pre[0, :, :2] = 0.0
    post = np.full((t_len, n_batch, n_pos + 2), NEG_INF)
    stay, advance, jump_from = post[:, :, 2:], post[:, :, 1:-1], post[:, :, :-2]
    np.add(pre[0], ly[0], out=stay[0])
    jump = np.empty((n_batch, n_pos))
    for t in range(1, t_len):
        np.logaddexp(stay[t - 1], advance[t - 1], out=pre[t])
        np.add(jump_from[t - 1], skip, out=jump)
        np.logaddexp(pre[t], jump, out=pre[t])
        np.add(pre[t], ly[t], out=stay[t])
    return pre, stay


def _log_likelihood(alpha: np.ndarray, lat: _Lattice) -> np.ndarray:
    """Each utterance's log-likelihood (-inf when infeasible), read out of its
    forward lattice at ``(T_b - 1, S_b - 2 : S_b)``."""
    cols = np.arange(len(lat.lengths))
    end = alpha[lat.lengths - 1, cols]  # (B, S_max)
    last = end[cols, lat.ext_len - 1]
    pair = np.logaddexp(end[cols, np.maximum(lat.ext_len - 2, 0)], last)
    return np.where(lat.ext_len > 1, pair, last)


def ctc_loss(log_probs: np.ndarray, labels) -> float:
    """CTC loss from the forward recursion alone; +inf when infeasible.

    Equals the negated log-likelihood of ``ctc_forward_backward_batch`` on a
    batch of one, without the backward recursion or the gradient.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    if log_probs.ndim != 2:
        raise ValueError(f"expected a T x C matrix, got shape {log_probs.shape}")
    batch = log_probs[:, None]
    lat = _lattice(batch, [len(log_probs)], [labels])
    ly = np.take_along_axis(batch, lat.ext[None], axis=2)
    _, alpha = _walk(ly, lat.ext, batch.shape[2] - 1)
    return -float(_log_likelihood(alpha, lat)[0])


def ctc_forward_backward_batch(
    log_probs: np.ndarray, lengths, labels
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward-backward CTC over a time-major (T_max, B, C) batch.

    Utterance b owns rows ``[:lengths[b], b]`` of ``log_probs``, which must
    be normalized log-distributions, and the symbol ids ``labels[b]``
    (without blanks). Returns ``(log_likelihood, dlogits, log_alpha,
    log_beta)``: the (B,) log-likelihoods, -inf where no alignment fits;
    the (T_max, B, C) logit gradients, zero on padding rows and for
    infeasible utterances; and the (T_max, B, S_max) lattices, meaningful
    within each utterance's ``(T_b, S_b)``.

    Padding sits after each utterance's frames and positions, and lattice
    mass only moves forward in time and toward higher positions, so padding
    never reaches a valid cell and each utterance's results are
    bit-identical to a batch of one. Beta is the same walk over each
    utterance reversed within its own ``T_b`` and ``S_b``, read before the
    emission; the walk treats each column on its own, so both come from
    one walk over the B lattices and then the B reversed ones.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    if log_probs.ndim != 3:
        raise ValueError(f"expected a T x B x C array, got shape {log_probs.shape}")
    blank = log_probs.shape[2] - 1
    lat = _lattice(log_probs, lengths, labels)
    n_batch, n_pos = lat.ext.shape
    t_rev, cols = reverse_within(lat.lengths, len(log_probs)), np.arange(n_batch)
    s_rev = reverse_within(lat.ext_len, n_pos).T
    ext_rev = np.take_along_axis(lat.ext, s_rev, axis=1)
    ly = np.take_along_axis(log_probs, lat.ext[None], axis=2)
    # columns [0, B) walk the lattices, columns [B, 2B) the reversed ones
    ly_both = np.concatenate([ly, ly[t_rev[:, :, None], cols[:, None], s_rev]], axis=1)
    pre, post = _walk(ly_both, np.concatenate([lat.ext, ext_rev]), blank)
    alpha = post[:, :n_batch]
    beta = pre[t_rev[:, :, None], n_batch + cols[:, None], s_rev]
    log_p = _log_likelihood(alpha, lat)

    # log_q[t, b, k] sums gamma = alpha + beta over the valid s with ext[b, s] == k, in
    # order of s: a stable sort of the (b, k) keys of the valid positions groups each
    # sum and keeps that order, so one reduceat adds them as one at a time would
    valid_s = np.arange(n_pos) < lat.ext_len[:, None]
    keys = (cols[:, None] * (blank + 1) + lat.ext)[valid_s]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    gamma = (alpha + beta)[:, valid_s][:, order]
    log_q = np.full((len(gamma), n_batch * (blank + 1)), NEG_INF)
    log_q[:, keys[starts]] = np.logaddexp.reduceat(gamma, starts, axis=1)
    log_q = log_q.reshape(log_probs.shape)

    feasible = log_p > NEG_INF
    with np.errstate(invalid="ignore"):  # padding and infeasible rows are dropped below
        dlogits = np.exp(log_probs) - np.exp(log_q - np.where(feasible, log_p, 0.0)[:, None])
    dlogits = np.where((lat.valid_t & feasible)[:, :, None], dlogits, 0.0)
    return log_p, dlogits, alpha, beta


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
