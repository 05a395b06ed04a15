"""The batched training path against per-utterance calls (batches of one).

``forward_batch``, ``ctc_forward_backward_batch`` and ``backward_batch`` run
a ragged minibatch time-major as (T_max, B, ·), padded after each
utterance's frames. Padding must never leak into a valid result: CTC is
bit-identical to the per-utterance oracle recursion, gradients agree with
the per-utterance sum to rounding, and padded rows carry exactly zero
gradient.
"""
from dataclasses import replace

import numpy as np
import pytest

from ctcx import (
    ModelConfig,
    ModelParams,
    OptimizerState,
    TrainConfig,
    forward,
    init_params,
    log_softmax,
    train_epoch,
)
from ctcx.ctc import ctc_forward_backward_batch
from ctcx.network import (
    _layer_backward,
    _layer_forward,
    _reversed,
    backward_batch,
    forward_batch,
    pad_batch,
    reverse_within,
    zeros_like_params,
)
from ctcx.trainer import _dropout_seed
from helpers import corpus_utterances
from oracles import (
    oracle_ctc_forward_backward,
    oracle_direction_backward,
    oracle_direction_forward,
    oracle_train_epoch,
)

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
    """Summed gradient, NLLs and logits of one forward, oracle CTC and backward
    per utterance."""
    total = zeros_like_params(params).vector
    nlls, logits = [], []
    for x, y, seed in zip(feats, labels, seeds):
        out, cache = forward(params, cfg, x, train_mode=seeds is not None, dropout_seed=seed)
        nll, dlogits, _, _ = oracle_ctc_forward_backward(log_softmax(out), y)
        total += backward_batch(params, cfg, cache, dlogits[:, None]).vector
        nlls.append(nll)
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
    """NLL, dlogits, alpha and beta of every utterance equal (==) the
    per-utterance oracle recursion within its own (T_b, S_b), whatever sits
    in the padding."""
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

        log_p, dlogits, log_alpha, log_beta = ctc_forward_backward_batch(padded, lengths, labels)
        for b, (lp, seq) in enumerate(zip(log_probs, labels)):
            nll, grad, alpha, beta = oracle_ctc_forward_backward(lp, seq)
            t_len, n_pos = alpha.shape
            assert -log_p[b] == nll
            assert np.array_equal(dlogits[:t_len, b], grad)
            assert not dlogits[t_len:, b].any()
            assert np.array_equal(log_alpha[:t_len, b, :n_pos], alpha)
            assert np.array_equal(log_beta[:t_len, b, :n_pos], beta)
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
    # padded inputs leaves the weight gradients bit-identical, in every
    # direction slot (each direction keeps the padding after its valid steps)
    for li, layer in enumerate(cache.layers):
        lps = params.layer(li, cfg)
        assert len(layer.x) == cfg.directions
        dh_out = np.where(padding[:, None, :, None], 0.0, rng.standard_normal(layer.h[1:].shape))
        noisy_x = layer.x.copy()
        noisy_x[:, padding] = 1e3 * rng.standard_normal(noisy_x[:, padding].shape)
        clean, noisy = (zeros_like_params(params).layer(li, cfg) for _ in range(2))
        dx = _layer_backward(lps, clean, layer, dh_out)
        _layer_backward(lps, noisy, replace(layer, x=noisy_x), dh_out)
        for d in range(cfg.directions):
            assert np.all(dx[d][padding] == 0.0)
            for a, b in zip(clean[d], noisy[d]):
                np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("bidirectional", [False, True], ids=["lstm", "bilstm"])
@pytest.mark.parametrize("hidden", [7, 16, 128])
@pytest.mark.parametrize("lengths", [(23,), (23, 9, 31), (23, 9, 31, 17)],
                         ids=["b1", "b3", "b4"])
def test_stacked_layer_equals_per_direction_oracle(bidirectional, hidden, lengths):
    """``_layer_forward`` and ``_layer_backward`` run a layer's directions in
    one loop; each direction equals (==) the one-direction-at-a-time oracle:
    hidden outputs, gates and cell states, the three weight gradients and
    the input gradient."""
    rng = np.random.default_rng([hidden, len(lengths), bidirectional])
    cfg = ModelConfig(feature_dim=5, num_classes=6, hidden=hidden, num_layers=2,
                      bidirectional=bidirectional, seed=hidden)
    params = init_params(cfg)
    lengths = np.array(lengths)
    for li in range(cfg.num_layers):
        x = pad_batch([rng.standard_normal((t, cfg.layer_input_dim(li))) for t in lengths])
        xs = [x, _reversed(x, lengths)][: cfg.directions]
        lps = params.layer(li, cfg)
        h_dirs, cache = _layer_forward(lps, np.stack(xs))
        dh_out = rng.standard_normal(h_dirs.shape)
        grads = zeros_like_params(params).layer(li, cfg)
        dx = _layer_backward(lps, grads, cache, dh_out)
        for d, name in enumerate(cfg.direction_names):
            want_h, want = oracle_direction_forward(lps[d], xs[d])
            assert np.array_equal(h_dirs[:, d], want_h)
            assert np.array_equal(cache.gates[:, d], want.gates)
            assert np.array_equal(cache.c[:, d], want.c)
            assert np.array_equal(cache.tanh_c[:, d], want.tanh_c)
            want_grads = zeros_like_params(params).direction(li, name)
            want_dx = oracle_direction_backward(lps[d], want_grads, want, dh_out[:, d])
            assert np.array_equal(dx[d], want_dx)
            for got_g, want_g in zip(grads[d], want_grads):
                assert np.array_equal(got_g, want_g)


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
    ref_params = ModelParams(params.spec, params.vector.copy())
    state = OptimizerState(zeros_like_params(params))
    ref_state = OptimizerState(zeros_like_params(params))

    for epoch in (1, 2):
        cost, ler = train_epoch(params, cfg, data, tc, state, epoch)
        ref_cost, ref_ler = oracle_train_epoch(ref_params, cfg, data, tc, ref_state, epoch)
        assert cost == pytest.approx(ref_cost, rel=1e-12)
        assert ler == ref_ler
    scale = np.abs(ref_params.vector).max()
    assert np.abs(params.vector - ref_params.vector).max() <= GRAD_REL_TOL * scale
