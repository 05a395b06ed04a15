"""End-to-end acceptance gate: one test per shipped guarantee.

Each test pins the tolerance it enforces. The two desk-scale training tests
(overfit, transfer benefit) are the slow ones; everything else is seconds.
"""
import json
import time

import numpy as np
import pytest

from ctcx import (
    Alphabet,
    ModelConfig,
    TrainConfig,
    beam_search_decode,
    builtin_alphabet,
    checkpoint_from_params,
    corpus_ler,
    evaluate,
    forward,
    frame_count,
    greedy_decode,
    init_params,
    log_softmax,
    mfcc,
    params_from_checkpoint,
    read_checkpoint,
    save_checkpoint,
    train,
    transfer_weights,
    verify_transfer,
    write_corpus,
    write_manifest,
)
from ctcx.cli import main as cli_main
from ctcx.frontend import AudioClip, FeatureConfig, dct_matrix, mel_filterbank
from ctcx.text_labels import KAZAKH_LETTERS
from ctcx.trainer import OptimizerState, train_epoch
from ctcx.network import backward_batch, zeros_like_params
from helpers import corpus_utterances, ctc_one
from oracles import (
    ctc_loss_of_logits,
    max_relative_error,
    network_fd_grads,
    oracle_edit_distance,
    oracle_label_masses,
    oracle_map_decode,
)


def random_ctc_instances(count, rng, max_t=6, max_c=3, max_len=3):
    """Small random instances; infeasible ones (2L+1 > T) are included."""
    for _ in range(count):
        t = int(rng.integers(1, max_t + 1))
        c = int(rng.integers(2, max_c + 1))
        length = int(rng.integers(0, max_len + 1))
        labels = tuple(int(k) for k in rng.integers(0, c - 1, size=length))
        log_probs = log_softmax(rng.standard_normal((t, c)) * 2.0)
        yield log_probs, labels


def feasible_logits_instances(count, rng, max_t=6, max_c=4, max_len=2):
    for _ in range(count):
        c = int(rng.integers(2, max_c + 1))
        length = int(rng.integers(0, max_len + 1))
        t = int(rng.integers(2 * length + 1, max_t + 1))
        labels = tuple(int(k) for k in rng.integers(0, c - 1, size=length))
        # no repeated adjacent labels, so 2L+1 frames always suffice
        yield rng.standard_normal((t, c)) * 2.0, labels


def test_01_loss_matches_exhaustive_path_sum():
    """1000 random instances (T<=6, C<=3, |l|<=3): |fast - exhaustive| <= 1e-9."""
    rng = np.random.default_rng(101)
    started = time.monotonic()
    checked = 0
    for log_probs, labels in random_ctc_instances(1000, rng):
        fast = ctc_one(log_probs, labels)[0]
        slow = -oracle_label_masses(log_probs).get(labels, -np.inf)
        if np.isinf(slow):
            assert np.isinf(fast)
        else:
            assert abs(fast - slow) <= 1e-9, (labels, log_probs.shape)
            checked += 1
    elapsed = time.monotonic() - started
    assert checked > 500
    assert elapsed < 10.0, f"loss sweep took {elapsed:.1f} s"


def test_02_loss_gradient_matches_finite_differences():
    """100 instances, central differences at eps=1e-5: relative error <= 1e-4."""
    rng = np.random.default_rng(202)
    eps = 1e-5
    worst = 0.0
    for logits, labels in feasible_logits_instances(100, rng):
        analytic = ctc_one(log_softmax(logits), labels)[1]
        numeric = np.zeros_like(logits)
        flat, nflat = logits.reshape(-1), numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = ctc_loss_of_logits(logits, labels)
            flat[i] = orig - eps
            lo = ctc_loss_of_logits(logits, labels)
            flat[i] = orig
            nflat[i] = (hi - lo) / (2.0 * eps)
        worst = max(worst, max_relative_error([("d", analytic)], [("d", numeric)]))
    assert worst <= 1e-4, f"worst relative gradient error {worst:g}"


def test_03_alpha_beta_recombination_is_constant():
    """Per-frame alpha+beta mass equals the total likelihood within 1e-6."""
    rng = np.random.default_rng(101)  # same instance population as the loss sweep
    for log_probs, labels in random_ctc_instances(1000, rng):
        nll, _, log_alpha, log_beta = ctc_one(log_probs, labels)
        if nll == np.inf:
            continue
        per_t = []
        for t in range(log_probs.shape[0]):
            row = log_alpha[t] + log_beta[t]
            per_t.append(np.logaddexp.reduce(row[np.isfinite(row)]))
        per_t = np.array(per_t)
        assert np.max(np.abs(per_t + nll)) <= 1e-6
        assert per_t.max() - per_t.min() <= 1e-6


@pytest.mark.parametrize("bidirectional", [False, True], ids=["lstm", "bilstm"])
def test_04_network_gradients_match_finite_differences(bidirectional):
    """Full BPTT vs central differences on T=5, F=3, H=4, C=4: rel err <= 1e-4."""
    cfg = ModelConfig(
        feature_dim=3, num_classes=4, hidden=4, num_layers=2,
        bidirectional=bidirectional, dropout_keep=0.8, seed=3,
    )
    rng = np.random.default_rng(404)
    params = init_params(cfg)
    feats = rng.standard_normal((5, 3))
    labels = (0, 2)
    logits, cache = forward(params, cfg, feats, train_mode=True, dropout_seed=11)
    dlogits = ctc_one(log_softmax(logits), labels)[1]
    analytic = list(backward_batch(params, cache, dlogits[:, None]).tensors.items())
    numeric = network_fd_grads(params, cfg, feats, labels, train_mode=True, dropout_seed=11)
    worst = max_relative_error(analytic, numeric)
    assert worst <= 1e-4, f"worst relative BPTT error {worst:g}"


def test_05_beam_search_is_exact_at_full_width():
    """Beam width >= #collapse classes reproduces exhaustive MAP decoding."""
    rng = np.random.default_rng(505)
    for _ in range(300):
        t = int(rng.integers(1, 6))
        c = int(rng.integers(2, 4))
        log_probs = log_softmax(rng.standard_normal((t, c)) * 1.5)
        masses = oracle_label_masses(log_probs)
        assert beam_search_decode(log_probs, len(masses)) == oracle_map_decode(log_probs)

    # greedy follows the collapse rule on hand-built argmax paths
    peak = np.log(np.array([
        [0.8, 0.1, 0.1],   # a
        [0.8, 0.1, 0.1],   # a
        [0.1, 0.1, 0.8],   # blank
        [0.8, 0.1, 0.1],   # a
        [0.1, 0.8, 0.1],   # b
    ]))
    assert greedy_decode(peak) == (0, 0, 1)
    assert greedy_decode(np.log(np.array([[0.2, 0.2, 0.6]] * 3))) == ()


def test_06_label_error_rate_matches_dp_oracle():
    """1000 random pairs, lengths <= 20, against memoized-recursion distances."""
    rng = np.random.default_rng(606)
    for _ in range(1000):
        ref = tuple(int(x) for x in rng.integers(0, 4, size=int(rng.integers(1, 21))))
        hyp = tuple(int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 21))))
        assert corpus_ler([(ref, hyp)]) == oracle_edit_distance(ref, hyp) / len(ref)


@pytest.mark.parametrize("bidirectional", [False, True], ids=["lstm", "bilstm"])
def test_07_transfer_preserves_recurrent_stack_bit_for_bit(bidirectional):
    """50 random probes per architecture: zero deviation, clean report split."""
    ru, kk = builtin_alphabet("ru"), builtin_alphabet("kk")
    src_cfg = ModelConfig(feature_dim=13, num_classes=ru.num_classes, hidden=16,
                          num_layers=2, bidirectional=bidirectional, seed=1)
    tgt_cfg = ModelConfig(feature_dim=13, num_classes=kk.num_classes, hidden=16,
                          num_layers=2, bidirectional=bidirectional)
    src_params = init_params(src_cfg)
    ckpt = checkpoint_from_params(src_params, src_cfg, ru)
    moved, report = transfer_weights(ckpt, tgt_cfg, kk, seed=9)

    rng = np.random.default_rng(707)
    probes = [rng.standard_normal((int(rng.integers(5, 40)), 13)) for _ in range(50)]
    verdict = verify_transfer(src_params, moved, src_cfg, probes)
    assert verdict.ok and verdict.max_abs_deviation == 0.0

    names = set(moved.tensors)
    assert set(report.copied) | set(report.reinitialized) == names
    assert not set(report.copied) & set(report.reinitialized)


def test_08_checkpoints_round_trip_bit_identical(tmp_path):
    """20 random models, BiLSTM included, survive save->load exactly."""
    rng = np.random.default_rng(808)
    letters = KAZAKH_LETTERS
    for i in range(20):
        n_letters = int(rng.integers(2, len(letters) + 1))
        alphabet = Alphabet(f"a{i}", tuple(letters[:n_letters]) + (" ",))
        cfg = ModelConfig(
            feature_dim=int(rng.integers(1, 14)),
            num_classes=alphabet.num_classes,
            hidden=int(rng.integers(1, 13)),
            num_layers=int(rng.integers(1, 4)),
            bidirectional=(i % 2 == 1),
            seed=i,
        )
        params = init_params(cfg)
        path = tmp_path / f"m{i}.ckpt"
        save_checkpoint(params, cfg, alphabet, path)
        ckpt = read_checkpoint(path)
        loaded = params_from_checkpoint(ckpt)
        loaded_cfg, name = ckpt.model_config, ckpt.alphabet_name
        assert name == alphabet.name
        assert (loaded_cfg.hidden, loaded_cfg.bidirectional) == (cfg.hidden, cfg.bidirectional)
        for (n1, a), (n2, b) in zip(params.tensors.items(), loaded.tensors.items()):
            assert n1 == n2
            np.testing.assert_array_equal(a, b, err_msg=f"model {i} tensor {n1}")


@pytest.mark.slow
def test_09_small_corpus_overfits_quickly():
    """10 synthetic kk utterances, BiLSTM H=16: LER < 0.05 within 300 epochs, < 5 min."""
    kk = builtin_alphabet("kk")
    data = corpus_utterances(kk, 10, seed=42)
    cfg = ModelConfig(feature_dim=13, num_classes=kk.num_classes, hidden=16,
                      num_layers=2, bidirectional=True, dropout_keep=1.0, seed=0)
    tc = TrainConfig(learning_rate=0.01, momentum=0.9, batch_size=4, epochs=300,
                     dropout_keep=1.0, seed=0)
    params = init_params(cfg)
    state = OptimizerState(zeros_like_params(params))
    started = time.monotonic()
    reached = None
    for epoch in range(1, tc.epochs + 1):
        train_epoch(params, cfg, data, tc, state, epoch)
        _, ler = evaluate(params, cfg, data)
        if ler < 0.05:
            reached = epoch
            break
    elapsed = time.monotonic() - started
    assert reached is not None, "train LER never dropped below 0.05 in 300 epochs"
    assert elapsed < 300.0, f"overfit run took {elapsed:.0f} s"


@pytest.mark.slow
def test_10_transfer_init_beats_random_init_at_desk_scale():
    """Median over 3 seeds: lower cost at epoch 100, no worse LER at epoch 200."""
    started = time.monotonic()
    source_alphabet = Alphabet("source", tuple(KAZAKH_LETTERS[:9]) + (" ",))
    target_alphabet = Alphabet("target", tuple(KAZAKH_LETTERS[:13]) + (" ",))
    source_data = corpus_utterances(source_alphabet, 40, seed=100)
    target_data = corpus_utterances(target_alphabet, 12, seed=200)

    seeds = (0, 1, 2)
    for bidirectional in (False, True):
        src_cfg = ModelConfig(feature_dim=13, num_classes=source_alphabet.num_classes,
                              hidden=16, num_layers=2, bidirectional=bidirectional,
                              dropout_keep=1.0)
        src_tc = TrainConfig(learning_rate=0.01, momentum=0.9, batch_size=4,
                             epochs=150, dropout_keep=1.0, seed=7)
        src_params, _ = train(source_data, [], source_alphabet, src_cfg, src_tc)
        source_ckpt = checkpoint_from_params(
            src_params, ModelConfig(**{**src_cfg.__dict__, "seed": src_tc.seed}),
            source_alphabet,
        )

        tgt_cfg = ModelConfig(feature_dim=13, num_classes=target_alphabet.num_classes,
                              hidden=16, num_layers=2, bidirectional=bidirectional,
                              dropout_keep=1.0)
        cost_at_100 = {"random": [], "transfer": []}
        ler_at_200 = {"random": [], "transfer": []}
        for seed in seeds:
            tc = TrainConfig(learning_rate=0.01, momentum=0.9, batch_size=4,
                             epochs=200, dropout_keep=1.0, seed=seed)
            for init in ("random", "transfer"):
                warm = None
                if init == "transfer":
                    warm, _ = transfer_weights(source_ckpt, tgt_cfg, target_alphabet, seed)
                _, rows = train(target_data, [], target_alphabet, tgt_cfg, tc, warm)
                cost_at_100[init].append(rows[99].train_cost)
                ler_at_200[init].append(rows[199].train_ler)

        arch = "BiLSTM" if bidirectional else "LSTM"
        assert np.median(cost_at_100["transfer"]) < np.median(cost_at_100["random"]), (
            f"{arch}: transfer cost@100 {cost_at_100['transfer']} "
            f"not below baseline {cost_at_100['random']}"
        )
        assert np.median(ler_at_200["transfer"]) <= np.median(ler_at_200["random"]), (
            f"{arch}: transfer LER@200 {ler_at_200['transfer']} "
            f"worse than baseline {ler_at_200['random']}"
        )
    elapsed = time.monotonic() - started
    assert elapsed < 900.0, f"benchmark took {elapsed:.0f} s"


def test_11_experiment_command_is_byte_deterministic(tmp_path):
    """Two identical experiment invocations write byte-identical metrics CSVs."""
    kk = builtin_alphabet("kk")
    rows = write_corpus(tmp_path / "features", kk, 12, seed=5)
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(rows, manifest)
    sources = []
    for arch, bidi in (("lstm", False), ("bilstm", True)):
        cfg = ModelConfig(feature_dim=13, num_classes=kk.num_classes, hidden=4,
                          num_layers=2, bidirectional=bidi, seed=17)
        path = tmp_path / f"{arch}-src.ckpt"
        save_checkpoint(init_params(cfg), cfg, kk, path)
        sources += ["--source-checkpoint", str(path)]

    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        code = cli_main([
            "experiment", "--manifest", str(manifest), "--alphabet", "kk",
            "--out", str(out), "--hidden", "4", "--epochs", "2",
            "--learning-rate", "0.005", "--dropout-keep", "0.8", "--seed", "3",
            *sources,
        ])
        assert code == 0
        outputs.append(out)

    names = ["lstm-random.csv", "lstm-transfer.csv",
             "bilstm-random.csv", "bilstm-transfer.csv", "summary.json"]
    for name in names:
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    # sanity: the summary carried all four scenarios
    summary = json.loads((outputs[0] / "summary.json").read_text())
    assert len(summary["scenarios"]) == 4


def test_12_feature_pipeline_sanity():
    """Frame formula exact on 50 lengths; tone hits the nearest mel filter; DCT orthonormal."""
    cfg = FeatureConfig()
    rng = np.random.default_rng(1212)

    for _ in range(50):
        n = int(rng.integers(cfg.window_samples, 16001))
        clip = AudioClip(rng.uniform(-0.5, 0.5, size=n), cfg.sample_rate_hz)
        assert mfcc(clip, cfg).values.shape[0] == frame_count(n, cfg) == 1 + (n - 400) // 160

    weights, centers = mel_filterbank(cfg)
    t = np.arange(8000) / cfg.sample_rate_hz
    x = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
    x = np.append(x[0], x[1:] - cfg.preemphasis * x[:-1])
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.window_samples)[:: cfg.hop_samples]
    power = np.abs(np.fft.rfft(frames * np.hamming(cfg.window_samples), cfg.fft_size)) ** 2
    energies = (power @ weights.T).mean(axis=0)
    assert int(np.argmax(energies)) == int(np.argmin(np.abs(centers - 1000.0)))

    d = dct_matrix(cfg.n_mels)
    np.testing.assert_allclose(d @ d.T, np.eye(cfg.n_mels), atol=1e-10)
