import logging
import math

import numpy as np
import pytest

from ctcx import (
    Alphabet,
    AudioClip,
    ManifestRow,
    ModelConfig,
    OptimizerState,
    SynthConfig,
    TrainConfig,
    checkpoint_from_params,
    evaluate,
    init_params,
    load_dataset,
    momentum_step,
    run_experiment_matrix,
    save_wav,
    split_dataset,
    train,
    train_epoch,
    write_corpus,
    write_feature_cache,
)
from ctcx import trainer
from ctcx.network import ModelParams, zeros_like_params
from ctcx.trainer import (
    METRICS_HEADER,
    clip_gradients,
    global_grad_norm,
    min_frames_rule,
)
from helpers import corpus_utterances


@pytest.fixture(scope="module")
def toy():
    return Alphabet("toy", ("а", "б", "в", " "))


def toy_model_cfg(toy, **kw):
    base = dict(feature_dim=13, num_classes=toy.num_classes, hidden=4, num_layers=2)
    base.update(kw)
    return ModelConfig(**base)


def tiny_params():
    cfg = ModelConfig(feature_dim=2, num_classes=3, hidden=2, num_layers=1, seed=0)
    return init_params(cfg), cfg


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.0005
        assert cfg.momentum == 0.9
        assert cfg.batch_size == 4
        assert cfg.epochs == 500
        assert cfg.dropout_keep == 0.5
        assert cfg.split == (0.8, 0.1, 0.1)
        assert cfg.grad_clip_norm == 5.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(learning_rate=-0.1),
            dict(momentum=1.0),
            dict(momentum=-0.1),
            dict(batch_size=0),
            dict(epochs=0),
            dict(dropout_keep=0.0),
            dict(dropout_keep=1.5),
            dict(split=(0.5, 0.5, 0.5)),
            dict(split=(1.0, 0.0)),
            dict(split=(float("nan"), 0.5, 0.5)),
            dict(grad_clip_norm=0.0),
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(grad_clip_norm=float("nan")),
            dict(grad_clip_norm=float("inf")),
            dict(seed=-1),
            dict(eval_decoder="viterbi"),
            dict(beam_width=0),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    def test_zero_learning_rate_allowed(self):
        TrainConfig(learning_rate=0.0)

    def test_clip_may_be_disabled(self):
        assert TrainConfig(grad_clip_norm=None).grad_clip_norm is None


class TestSynthConfig:
    @pytest.mark.parametrize("kw", [
        dict(noise_scale=-0.1), dict(noise_scale=float("nan")), dict(noise_scale=float("inf")),
        dict(proto_seed=-1),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            SynthConfig(**kw)


class TestSplitDataset:
    def test_100_items_split_80_10_10(self):
        tr, va, te = split_dataset(list(range(100)), (0.8, 0.1, 0.1), seed=0)
        assert (len(tr), len(va), len(te)) == (80, 10, 10)

    def test_12_items_remainder_goes_to_train(self):
        tr, va, te = split_dataset(list(range(12)), (0.8, 0.1, 0.1), seed=0)
        assert (len(tr), len(va), len(te)) == (10, 1, 1)

    def test_partition_is_exact(self):
        items = list(range(57))
        tr, va, te = split_dataset(items, (0.8, 0.1, 0.1), seed=3)
        assert sorted(tr + va + te) == items

    def test_same_seed_same_split(self):
        a = split_dataset(list(range(40)), (0.8, 0.1, 0.1), seed=7)
        b = split_dataset(list(range(40)), (0.8, 0.1, 0.1), seed=7)
        assert a == b

    def test_different_seed_different_order(self):
        a = split_dataset(list(range(40)), (0.8, 0.1, 0.1), seed=1)
        b = split_dataset(list(range(40)), (0.8, 0.1, 0.1), seed=2)
        assert a != b

    def test_too_few_items_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            split_dataset(list(range(9)), (0.8, 0.1, 0.1), seed=0)

    def test_bad_proportions_rejected(self):
        with pytest.raises(ValueError, match="split"):
            split_dataset(list(range(20)), (0.5, 0.1, 0.1), seed=0)


class TestGradientClipping:
    def test_large_gradients_scaled_to_max_norm(self):
        grads, _ = tiny_params()
        for _, g in grads.tensors.items():
            g += 100.0
        pre = clip_gradients(grads, 5.0)
        assert pre > 5.0
        assert global_grad_norm(grads) == pytest.approx(5.0, rel=1e-12)

    def test_small_gradients_untouched(self):
        grads, _ = tiny_params()
        for _, g in grads.tensors.items():
            g[...] = 0.001
        before = ModelParams(grads.spec, grads.vector.copy())
        clip_gradients(grads, 5.0)
        for (_, a), (_, b) in zip(before.tensors.items(), grads.tensors.items()):
            np.testing.assert_array_equal(a, b)


class TestMomentumStep:
    def test_plain_sgd_step_reaches_zero(self):
        # lr 1, no momentum, gradient equal to the weights themselves
        params, _ = tiny_params()
        grads = ModelParams(params.spec, params.vector.copy())
        state = OptimizerState(zeros_like_params(params))
        cfg = TrainConfig(learning_rate=1.0, momentum=0.0, grad_clip_norm=None)
        assert momentum_step(params, grads, state, cfg)
        for _, theta in params.tensors.items():
            np.testing.assert_array_equal(theta, np.zeros_like(theta))

    def test_zero_gradient_is_a_noop(self):
        params, _ = tiny_params()
        before = ModelParams(params.spec, params.vector.copy())
        state = OptimizerState(zeros_like_params(params))
        momentum_step(params, zeros_like_params(params), state, TrainConfig())
        for (_, a), (_, b) in zip(before.tensors.items(), params.tensors.items()):
            np.testing.assert_array_equal(a, b)

    def test_velocity_accumulates_over_steps(self):
        # constant gradient g, mu=0.9: after two steps theta moved by
        # -lr*(g + (0.9*g + g)) = -2.9*lr*g
        params, _ = tiny_params()
        before = ModelParams(params.spec, params.vector.copy())
        state = OptimizerState(zeros_like_params(params))
        cfg = TrainConfig(learning_rate=0.01, momentum=0.9, grad_clip_norm=None)
        g_value = 0.125  # exact in binary, keeps the check tight
        for _ in range(2):
            grads = zeros_like_params(params)
            for _, g in grads.tensors.items():
                g[...] = g_value
            momentum_step(params, grads, state, cfg)
        expected_delta = -cfg.learning_rate * (g_value + (0.9 * g_value + g_value))
        for (_, a), (_, b) in zip(before.tensors.items(), params.tensors.items()):
            np.testing.assert_allclose(b - a, expected_delta, rtol=1e-12)

    def test_non_finite_gradient_skips_step(self, caplog):
        params, _ = tiny_params()
        before = ModelParams(params.spec, params.vector.copy())
        grads = zeros_like_params(params)
        grads.dense_w[0, 0] = np.nan
        state = OptimizerState(zeros_like_params(params))
        with caplog.at_level(logging.WARNING, logger="ctcx.trainer"):
            ok = momentum_step(params, grads, state, TrainConfig())
        assert not ok
        assert "non-finite" in caplog.text and "dense.w" in caplog.text
        for (_, a), (_, b) in zip(before.tensors.items(), params.tensors.items()):
            np.testing.assert_array_equal(a, b)

    def test_clipping_applied_before_update(self):
        params, _ = tiny_params()
        before = ModelParams(params.spec, params.vector.copy())
        grads = zeros_like_params(params)
        for _, g in grads.tensors.items():
            g += 1000.0
        state = OptimizerState(zeros_like_params(params))
        cfg = TrainConfig(learning_rate=1.0, momentum=0.0)
        momentum_step(params, grads, state, cfg)
        moved = 0.0
        for (_, a), (_, b) in zip(before.tensors.items(), params.tensors.items()):
            moved += float(np.sum((a - b) ** 2))
        assert math.sqrt(moved) == pytest.approx(5.0, rel=1e-9)


class TestTrainEpoch:
    def data(self, toy, count=4, seed=0):
        return corpus_utterances(toy, count, seed)

    def test_updates_params_and_returns_finite_metrics(self, toy):
        data = self.data(toy)
        cfg = toy_model_cfg(toy, dropout_keep=1.0)
        params = init_params(cfg)
        before = ModelParams(params.spec, params.vector.copy())
        state = OptimizerState(zeros_like_params(params))
        cost, ler = train_epoch(params, cfg, data, TrainConfig(dropout_keep=1.0), state, 1)
        assert math.isfinite(cost) and cost > 0
        assert 0.0 <= ler
        changed = any(
            not np.array_equal(a, b)
            for (_, a), (_, b) in zip(before.tensors.items(), params.tensors.items())
        )
        assert changed

    def test_deterministic_given_seed(self, toy):
        data = self.data(toy)
        cfg = toy_model_cfg(toy, dropout_keep=0.8)
        results = []
        for _ in range(2):
            params = init_params(cfg)
            state = OptimizerState(zeros_like_params(params))
            tc = TrainConfig(dropout_keep=0.8, seed=5)
            results.append((train_epoch(params, cfg, data, tc, state, 1), params))
        assert results[0][0] == results[1][0]
        for (_, a), (_, b) in zip(results[0][1].tensors.items(), results[1][1].tensors.items()):
            np.testing.assert_array_equal(a, b)

    def test_short_final_batch_uses_actual_size(self, toy):
        # 5 utterances, batch 4: the last batch holds one utterance and must
        # not be divided by 4
        data = self.data(toy, count=5)
        cfg = toy_model_cfg(toy, dropout_keep=1.0)
        params = init_params(cfg)
        state = OptimizerState(zeros_like_params(params))
        cost, _ = train_epoch(
            params, cfg, data, TrainConfig(dropout_keep=1.0, batch_size=4), state, 1
        )
        assert math.isfinite(cost)

    def test_zero_learning_rate_freezes_params(self, toy):
        data = self.data(toy)
        cfg = toy_model_cfg(toy, dropout_keep=1.0)
        params = init_params(cfg)
        before = ModelParams(params.spec, params.vector.copy())
        state = OptimizerState(zeros_like_params(params))
        tc = TrainConfig(learning_rate=0.0, dropout_keep=1.0)
        train_epoch(params, cfg, data, tc, state, 1)
        for (_, a), (_, b) in zip(before.tensors.items(), params.tensors.items()):
            np.testing.assert_array_equal(a, b)

    def test_empty_dataset_rejected(self, toy):
        cfg = toy_model_cfg(toy)
        params = init_params(cfg)
        with pytest.raises(ValueError, match="empty"):
            train_epoch(params, cfg, [], TrainConfig(), OptimizerState(zeros_like_params(params)), 1)

    @pytest.mark.parametrize("keep", [1.0, 0.8])
    def test_dropout_seeds_drawn_only_when_dropout_is_on(self, toy, monkeypatch, keep):
        def no_seed(*args):
            raise AssertionError("dropout seed drawn")

        monkeypatch.setattr(trainer, "_dropout_seed", no_seed)
        cfg = toy_model_cfg(toy, dropout_keep=keep)
        params = init_params(cfg)
        state = OptimizerState(zeros_like_params(params))

        def epoch():
            train_epoch(params, cfg, self.data(toy), TrainConfig(dropout_keep=keep), state, 1)

        if keep == 1.0:
            epoch()
        else:
            with pytest.raises(AssertionError, match="dropout seed drawn"):
                epoch()


class TestEvaluate:
    def test_deterministic(self, toy):
        data = corpus_utterances(toy, 3, 1)
        cfg = toy_model_cfg(toy)
        params = init_params(cfg)
        assert evaluate(params, cfg, data) == evaluate(params, cfg, data)

    def test_untrained_model_has_high_error(self, kk):
        # on a 44-class output a random model rarely matches a label
        data = corpus_utterances(kk, 5, 2)
        cfg = ModelConfig(feature_dim=13, num_classes=kk.num_classes, hidden=4, num_layers=2)
        _, ler = evaluate(init_params(cfg), cfg, data)
        assert ler >= 0.9

    def test_beam_decoder_runs(self, toy):
        data = corpus_utterances(toy, 2, 3)
        cfg = toy_model_cfg(toy)
        cost_g, _ = evaluate(init_params(cfg), cfg, data, decoder="greedy")
        cost_b, _ = evaluate(init_params(cfg), cfg, data, decoder="beam", beam_width=4)
        assert cost_g == cost_b  # cost does not depend on the decoder

    def test_unknown_decoder_rejected(self, toy):
        cfg = toy_model_cfg(toy)
        with pytest.raises(ValueError, match="decoder"):
            evaluate(init_params(cfg), cfg, corpus_utterances(toy, 1, 0), decoder="best")

    def test_empty_set_rejected(self, toy):
        cfg = toy_model_cfg(toy)
        with pytest.raises(ValueError, match="empty"):
            evaluate(init_params(cfg), cfg, [])


class TestLoadDataset:
    def test_cache_rows_load_normalized(self, tmp_path, toy):
        rows = write_corpus(tmp_path, toy, 4, seed=0)
        kept, dropped = load_dataset(rows, toy)
        assert len(kept) == 4 and not dropped
        for utt in kept:
            assert utt.features.shape[1] == 13
            np.testing.assert_allclose(utt.features.mean(axis=0), 0, atol=1e-9)
            assert utt.labels == tuple(toy.symbols.index(ch) for ch in utt.text)

    def test_unreadable_audio_dropped_with_reason(self, tmp_path, toy):
        rows = [ManifestRow(str(tmp_path / "missing.mfcc"), "аб в")]
        kept, dropped = load_dataset(rows, toy)
        assert not kept
        assert len(dropped) == 1 and "unreadable audio" in dropped[0][1]

    def test_non_finite_cache_dropped_as_unreadable(self, tmp_path, toy, rng):
        values = rng.standard_normal((30, 13))
        values[3, 7] = np.nan
        path = tmp_path / "nan.mfcc"
        write_feature_cache(values, path)
        kept, dropped = load_dataset([ManifestRow(str(path), "аб в")], toy)
        assert not kept
        assert len(dropped) == 1 and "unreadable audio" in dropped[0][1]
        assert "non-finite" in dropped[0][1]

    def test_empty_transcript_dropped(self, tmp_path, toy, rng):
        path = tmp_path / "u.mfcc"
        write_feature_cache(rng.standard_normal((30, 13)), path)
        kept, dropped = load_dataset([ManifestRow(str(path), "12345!")], toy)
        assert not kept
        assert "empty transcript" in dropped[0][1]

    def test_label_sequence_longer_than_frames_dropped(self, tmp_path, toy, rng):
        path = tmp_path / "short.mfcc"
        write_feature_cache(rng.standard_normal((5, 13)), path)
        text = "абвабв абвабв"  # 13 labels need 27 frames
        assert min_frames_rule(13) == 27
        kept, dropped = load_dataset([ManifestRow(str(path), text)], toy)
        assert not kept
        assert "27 frames" in dropped[0][1]

    def test_wav_rows_go_through_frontend(self, tmp_path, toy):
        t = np.arange(8000) / 16000.0
        clip = AudioClip(0.3 * np.sin(2 * np.pi * 440.0 * t), 16000)
        path = tmp_path / "tone.wav"
        save_wav(clip, path)
        kept, dropped = load_dataset([ManifestRow(str(path), "аб в")], toy)
        assert not dropped
        assert kept[0].features.shape == (48, 13)

    def test_wav_at_other_rate_is_resampled(self, tmp_path, toy):
        t = np.arange(4000) / 8000.0
        clip = AudioClip(0.3 * np.sin(2 * np.pi * 440.0 * t), 8000)
        path = tmp_path / "tone8k.wav"
        save_wav(clip, path)
        kept, dropped = load_dataset([ManifestRow(str(path), "аб в")], toy)
        assert not dropped
        assert kept[0].features.shape == (48, 13)  # 0.5 s at the target rate

    def test_mixed_feature_dims_raise_at_the_first_differing_kept_row(self, tmp_path, toy, rng,
                                                                       caplog):
        def cache(name, dim):
            write_feature_cache(rng.standard_normal((30, dim)), tmp_path / name)
            return str(tmp_path / name)

        rows = [
            ManifestRow(cache("dropped_wide.mfcc", 15), "12345!"),  # dropped: not the first kept
            ManifestRow(cache("first.mfcc", 13), "аб в"),
            ManifestRow(str(tmp_path / "missing.mfcc"), "аб в"),
            ManifestRow(cache("wide.mfcc", 15), "аб в"),
            ManifestRow(cache("wider.mfcc", 17), "аб в"),
        ]
        caplog.set_level(logging.WARNING, logger="ctcx.trainer")
        with pytest.raises(ValueError) as exc:
            load_dataset(rows, toy)
        assert str(exc.value) == f"{rows[3].audio}: feature dim 15, but {rows[1].audio} has 13"
        # the rows dropped before the refusal are logged all the same
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            f"dropped {rows[0].audio}", f"dropped {rows[2].audio}"]


class TestTrain:
    def run(self, toy, tmp_path, name, epochs=3, val=True, seed=0):
        data = corpus_utterances(toy, 6, 11)
        cfg = toy_model_cfg(toy)
        tc = TrainConfig(
            learning_rate=0.005, epochs=epochs, dropout_keep=1.0, batch_size=2, seed=seed
        )
        path = tmp_path / name
        params, rows = train(
            data[:4], data[4:] if val else [], toy, cfg, tc, metrics_path=path
        )
        return params, rows, path

    def test_metrics_csv_layout(self, toy, tmp_path):
        _, rows, path = self.run(toy, tmp_path, "m.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == METRICS_HEADER == "epoch,train_cost,train_ler,val_cost,val_ler"
        assert len(lines) == 1 + 3
        assert len(rows) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == rows[0].train_cost

    def test_metrics_are_byte_deterministic(self, toy, tmp_path):
        _, _, a = self.run(toy, tmp_path, "a.csv")
        _, _, b = self.run(toy, tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_no_val_set_records_nan_columns(self, toy, tmp_path):
        _, rows, path = self.run(toy, tmp_path, "noval.csv", val=False)
        assert all(math.isnan(r.val_cost) and math.isnan(r.val_ler) for r in rows)
        assert path.read_text().splitlines()[1].endswith("nan,nan")

    def test_training_reduces_cost(self, toy, tmp_path):
        _, rows, _ = self.run(toy, tmp_path, "learn.csv", epochs=10)
        assert rows[-1].train_cost < rows[0].train_cost

    def test_warm_start_params_are_used(self, toy, tmp_path):
        data = corpus_utterances(toy, 4, 11)
        cfg = toy_model_cfg(toy)
        warm = init_params(ModelConfig(**{**cfg.__dict__, "seed": 123}))
        expected_first = evaluate(warm, cfg, data)[0]
        tc = TrainConfig(learning_rate=0.0, epochs=1, dropout_keep=1.0)
        _, rows = train(data, [], toy, cfg, tc, params=ModelParams(warm.spec, warm.vector.copy()))
        # lr 0 and no dropout: the recorded cost is the warm model's own
        assert rows[0].train_cost == pytest.approx(expected_first, rel=1e-12)

    def test_alphabet_class_count_checked(self, toy, kk, tmp_path):
        data = corpus_utterances(toy, 4, 11)
        cfg = toy_model_cfg(toy)
        with pytest.raises(ValueError, match="classes"):
            train(data, [], kk, cfg, TrainConfig(epochs=1))


class TestExperimentMatrix:
    def corpus(self, toy):
        return corpus_utterances(toy, 12, 21)

    def tc(self):
        return TrainConfig(
            learning_rate=0.005, epochs=2, dropout_keep=1.0, batch_size=4, seed=1
        )

    def test_without_sources_runs_baselines_only(self, toy):
        result = run_experiment_matrix(self.corpus(toy), toy, self.tc(), hidden=4)
        assert [s.name for s in result.scenarios] == ["LSTM", "BiLSTM"]
        assert len(result.warnings) == 2
        assert all("transfer row skipped" in w for w in result.warnings)
        assert result.improvements_percent == {}

    def test_with_sources_runs_full_matrix(self, toy, tmp_path):
        sources = {}
        for arch, bidi in (("lstm", False), ("bilstm", True)):
            cfg = toy_model_cfg(toy, bidirectional=bidi, seed=9)
            sources[arch] = checkpoint_from_params(init_params(cfg), cfg, toy)
        result = run_experiment_matrix(
            self.corpus(toy), toy, self.tc(), hidden=4,
            source_checkpoints=sources, metrics_dir=tmp_path,
        )
        assert [s.name for s in result.scenarios] == [
            "LSTM",
            "LSTM with toy model",
            "BiLSTM",
            "BiLSTM with toy model",
        ]
        assert not result.warnings
        assert set(result.improvements_percent) == {"lstm", "bilstm"}
        for metrics in result.improvements_percent.values():
            assert set(metrics) == {"train_cost", "train_ler", "val_cost", "val_ler"}
        for arch in ("lstm", "bilstm"):
            for init in ("random", "transfer"):
                lines = (tmp_path / f"{arch}-{init}.csv").read_text().splitlines()
                assert lines[0] == METRICS_HEADER
                assert len(lines) == 3

    def test_scenarios_share_the_split(self, toy):
        # both baselines see the same 10-utterance training set; with equal
        # seeds the two LSTM rows across two calls match exactly
        r1 = run_experiment_matrix(self.corpus(toy), toy, self.tc(), hidden=4)
        r2 = run_experiment_matrix(self.corpus(toy), toy, self.tc(), hidden=4)
        assert r1.scenarios[0].final == r2.scenarios[0].final
