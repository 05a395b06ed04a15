"""The batched training path against per-utterance calls (batches of one).

``forward_batch``, ``ctc_forward_backward_batch`` and ``backward_batch`` run
a ragged minibatch time-major as (T_max, B, ·), padded after each
utterance's frames. Padding must never leak into a valid result: CTC is
bit-identical per utterance, gradients agree with the per-utterance sum to
rounding, and padded rows carry exactly zero gradient.
"""
from dataclasses import replace

import numpy as np
import pytest

from ctcx import (
    ModelConfig,
    OptimizerState,
    TrainConfig,
    backward,
    ctc_forward_backward,
    forward,
    init_params,
    log_softmax,
    train_epoch,
)
from ctcx.ctc import ctc_forward_backward_batch
from ctcx.network import (
    _direction_backward,
    backward_batch,
    copy_params,
    forward_batch,
    pad_batch,
    reverse_within,
    zeros_like_params,
)
from ctcx.trainer import _dropout_seed
from conftest import corpus_utterances
from oracles import oracle_ctc_forward_backward, oracle_train_epoch

GRAD_REL_TOL = 1e-12


def model_cfg(bidirectional, dropout_keep=1.0, num_classes=6):
    return ModelConfig(feature_dim=5, num_classes=num_classes, hidden=7, num_layers=2,
                       bidirectional=bidirectional, dropout_keep=dropout_keep, seed=3)


def ragged_batch(rng, lengths, num_classes):
    feats = [rng.standard_normal((t, 5)) for t in lengths]
    labels = [tuple(int(x) for x in rng.integers(0, num_classes - 1, size=max(1, t // 4)))
              for t in lengths]
    return feats, labels


def per_utterance(params, cfg, feats, labels, seeds):
    """Summed gradient, NLLs and logits of one forward/CTC/backward per utterance."""
    total = zeros_like_params(params).vector
    nlls, logits = [], []
    for x, y, seed in zip(feats, labels, seeds):
        out, cache = forward(params, cfg, x, train_mode=seeds is not None, dropout_seed=seed)
        res = ctc_forward_backward(log_softmax(out), y)
        total += backward(params, cfg, cache, res.dlogits).vector
        nlls.append(res.neg_log_likelihood)
        logits.append(out)
    return total, nlls, logits


def batched(params, cfg, feats, labels, seeds):
    logits, cache = forward_batch(params, cfg, feats, seeds)
    log_p, dlogits, _, _ = ctc_forward_backward_batch(
        log_softmax(logits), cache.lengths, labels
    )
    return backward_batch(params, cfg, cache, dlogits).vector, -log_p, logits, dlogits, cache


@pytest.mark.parametrize("bidirectional", [False, True], ids=["lstm", "bilstm"])
@pytest.mark.parametrize("lengths", [
    (17,),                        # B = 1
    (12, 30, 9),                  # a short final batch of a batch-size-4 epoch
    (3, 80, 41, 5, 62),           # T_b from 3 to 80 in one batch
], ids=["b1", "short-final", "ragged-3-to-80"])
@pytest.mark.parametrize("dropout_keep", [1.0, 0.8], ids=["keep1", "keep0.8"])
def test_batched_gradients_match_per_utterance_sum(bidirectional, lengths, dropout_keep):
    rng = np.random.default_rng(len(lengths) * 10 + bidirectional)
    cfg = model_cfg(bidirectional, dropout_keep)
    params = init_params(cfg)
    feats, labels = ragged_batch(rng, lengths, cfg.num_classes)
    seeds = [101 + b for b in range(len(lengths))]

    want, want_nll, want_logits = per_utterance(params, cfg, feats, labels, seeds)
    got, got_nll, got_logits, _, _ = batched(params, cfg, feats, labels, seeds)

    assert np.abs(got - want).max() <= GRAD_REL_TOL * np.abs(want).max()
    np.testing.assert_allclose(got_nll, want_nll, rtol=1e-12)
    for b, logits in enumerate(want_logits):
        np.testing.assert_allclose(got_logits[: len(logits), b], logits, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bidirectional", [False, True], ids=["lstm", "bilstm"])
def test_dropout_masks_equal_per_utterance_masks(bidirectional):
    rng = np.random.default_rng(5)
    cfg = model_cfg(bidirectional, dropout_keep=0.8)
    params = init_params(cfg)
    lengths = (6, 25, 13, 4)
    feats, _ = ragged_batch(rng, lengths, cfg.num_classes)
    tc = TrainConfig(dropout_keep=0.8, seed=11)
    seeds = [_dropout_seed(tc, 3, 8 + b) for b in range(len(lengths))]

    _, cache = forward_batch(params, cfg, feats, seeds)
    for b, (x, seed) in enumerate(zip(feats, seeds)):
        _, alone = forward(params, cfg, x, train_mode=True, dropout_seed=seed)
        for mask, own in zip(cache.masks, alone.masks):
            np.testing.assert_array_equal(mask[: len(x), b], own[:, 0])
            assert not mask[len(x):, b].any()


def test_batched_ctc_is_bit_identical_per_utterance():
    """NLL and dlogits equal (==) a batch of one, whatever sits in the padding,
    and a batch of one equals the per-utterance recursion."""
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(150):
        n_classes = int(rng.integers(2, 12))
        n_batch = int(rng.integers(1, 6))
        log_probs, labels = [], []
        for _ in range(n_batch):
            t_len = int(rng.integers(1, 25))
            n_labels = int(rng.integers(0, 9))  # past (T+1)/2 some are infeasible
            seq = tuple(int(x) for x in rng.integers(0, n_classes - 1, size=n_labels))
            if n_labels > 1 and rng.random() < 0.3:
                seq = (seq[0],) * n_labels  # repeats need a blank in between
            log_probs.append(log_softmax(rng.standard_normal((t_len, n_classes)) * 3))
            labels.append(seq)
        lengths = [len(lp) for lp in log_probs]
        padded = log_softmax(rng.standard_normal((max(lengths), n_batch, n_classes)) * 3)
        for b, lp in enumerate(log_probs):
            padded[: len(lp), b] = lp  # padding rows stay other, valid distributions

        log_p, dlogits, _, _ = ctc_forward_backward_batch(padded, lengths, labels)
        for b, (lp, seq) in enumerate(zip(log_probs, labels)):
            alone = ctc_forward_backward(lp, seq)
            assert -log_p[b] == alone.neg_log_likelihood
            assert np.array_equal(dlogits[: len(lp), b], alone.dlogits)
            assert not dlogits[len(lp):, b].any()

            nll, grad, alpha, beta = oracle_ctc_forward_backward(lp, seq)
            assert alone.neg_log_likelihood == nll
            assert np.array_equal(alone.dlogits, grad)
            assert np.array_equal(alone.log_alpha, alpha)
            assert np.array_equal(alone.log_beta, beta)
            checked += 1
    assert checked > 300


@pytest.mark.parametrize("bidirectional", [False, True], ids=["lstm", "bilstm"])
def test_padded_rows_carry_exactly_zero_gradient(bidirectional):
    rng = np.random.default_rng(9)
    cfg = model_cfg(bidirectional)
    params = init_params(cfg)
    lengths = (4, 31, 11)
    feats, labels = ragged_batch(rng, lengths, cfg.num_classes)
    _, _, _, dlogits, cache = batched(params, cfg, feats, labels, None)
    padding = np.arange(len(dlogits))[:, None] >= np.array(lengths)  # (T_max, B)
    assert np.all(dlogits[padding] == 0.0)

    # padded steps get dz = 0: their input gradient is 0, and garbage in the
    # padded inputs leaves the weight gradients bit-identical
    for li, pair in enumerate(cache.dir_caches):
        for direction, c_dir in zip(("fwd", "bwd"), pair):
            if c_dir is None:
                continue
            lp = params.direction(li, direction)
            dh_out = np.where(padding[:, :, None], 0.0, rng.standard_normal(c_dir.h[1:].shape))
            noisy_x = c_dir.x.copy()
            noisy_x[padding] = 1e3 * rng.standard_normal(noisy_x[padding].shape)
            clean, noisy = (zeros_like_params(params).direction(li, direction) for _ in range(2))
            dx = _direction_backward(lp, clean, c_dir, dh_out)
            _direction_backward(lp, noisy, replace(c_dir, x=noisy_x), dh_out)
            assert np.all(dx[padding] == 0.0)
            for a, b in zip(clean, noisy):
                np.testing.assert_array_equal(a, b)


def test_reverse_within_is_its_own_inverse():
    lengths = np.array([3, 1, 5])
    rev = reverse_within(lengths, 5)
    assert rev[:, 0].tolist() == [2, 1, 0, 3, 4]
    assert rev[:, 1].tolist() == [0, 1, 2, 3, 4]
    assert rev[:, 2].tolist() == [4, 3, 2, 1, 0]
    x = pad_batch([np.arange(n, dtype=float)[:, None] for n in lengths])
    cols = np.arange(len(lengths))
    np.testing.assert_array_equal(x[rev, cols][rev, cols], x)


@pytest.mark.parametrize("bidirectional", [False, True], ids=["lstm", "bilstm"])
def test_train_epoch_matches_per_utterance_epoch(kk, bidirectional):
    """7 utterances at batch size 3 (a short final batch), dropout on."""
    data = corpus_utterances(kk, 7, seed=4)
    cfg = ModelConfig(feature_dim=13, num_classes=kk.num_classes, hidden=5, num_layers=2,
                      bidirectional=bidirectional, dropout_keep=0.8)
    tc = TrainConfig(learning_rate=0.01, batch_size=3, dropout_keep=0.8, seed=6)
    params = init_params(cfg)
    ref_params = copy_params(params)
    state = OptimizerState(zeros_like_params(params))
    ref_state = OptimizerState(zeros_like_params(params))

    for epoch in (1, 2):
        cost, ler = train_epoch(params, cfg, data, tc, state, epoch)
        ref_cost, ref_ler = oracle_train_epoch(ref_params, cfg, data, tc, ref_state, epoch)
        assert cost == pytest.approx(ref_cost, rel=1e-12)
        assert ler == ref_ler
    scale = np.abs(ref_params.vector).max()
    assert np.abs(params.vector - ref_params.vector).max() <= GRAD_REL_TOL * scale
