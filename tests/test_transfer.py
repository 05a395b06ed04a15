import hashlib
import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from ctcx import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    ModelConfig,
    TransferError,
    TransferVerificationError,
    checkpoint_from_params,
    forward,
    init_params,
    params_from_checkpoint,
    read_checkpoint,
    save_checkpoint,
    tensor_spec,
    transfer_weights,
    verify_transfer,
    write_checkpoint,
)
from ctcx.cli import main as cli_main
from helpers import Raw, fail_writes_halfway, hidden_outputs, rewrite_header


def small_cfg(**kw):
    base = dict(feature_dim=5, num_classes=7, hidden=6, num_layers=2, bidirectional=False)
    base.update(kw)
    return ModelConfig(**base)


def checkpoint_for(cfg, alphabet, path, seed=0):
    params = init_params(ModelConfig(**{**cfg.__dict__, "seed": seed}))
    save_checkpoint(params, cfg, alphabet, path)
    return params


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_params_survive_bit_exact(self, tmp_path, ru, bidirectional):
        cfg = small_cfg(num_classes=ru.num_classes, bidirectional=bidirectional, seed=3)
        params = init_params(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, ru, path)
        ckpt = read_checkpoint(path)
        loaded = params_from_checkpoint(ckpt)
        loaded_cfg, name = ckpt.model_config, ckpt.alphabet_name
        assert loaded_cfg == ModelConfig(
            feature_dim=cfg.feature_dim,
            num_classes=cfg.num_classes,
            hidden=cfg.hidden,
            num_layers=cfg.num_layers,
            bidirectional=cfg.bidirectional,
        )
        assert name == "ru"
        for (n1, a), (n2, b) in zip(params.tensors.items(), loaded.tensors.items()):
            assert n1 == n2
            np.testing.assert_array_equal(a, b, err_msg=n1)

    def test_payload_must_fill_the_config(self, tmp_path, ru):
        cfg = small_cfg(num_classes=ru.num_classes)
        ckpt = checkpoint_from_params(init_params(cfg), cfg, ru)
        with pytest.raises(ValueError, match="does not hold"):
            write_checkpoint(replace(ckpt, payload=ckpt.payload[:-1]), tmp_path / "m.ckpt")
        assert not (tmp_path / "m.ckpt").exists()

    def test_alphabet_symbols_embedded(self, tmp_path, kk):
        cfg = small_cfg(num_classes=kk.num_classes)
        checkpoint_for(cfg, kk, tmp_path / "m.ckpt")
        ckpt = read_checkpoint(tmp_path / "m.ckpt")
        assert ckpt.alphabet_symbols == "".join(kk.symbols)
        assert ckpt.alphabet.symbols == kk.symbols

    def test_tensor_count_by_architecture(self, tmp_path, ru):
        for bidi, count in ((False, 8), (True, 14)):
            cfg = small_cfg(num_classes=ru.num_classes, bidirectional=bidi)
            path = tmp_path / f"m{bidi}.ckpt"
            checkpoint_for(cfg, ru, path)
            assert len(read_checkpoint(path).tensors) == count

    def test_golden_bytes(self, tmp_path, kk):
        # pins the file layout, the tensor order and the init draw order; the
        # bytes depend only on numpy's PCG64 stream and float32 rounding
        cfg = ModelConfig(feature_dim=13, num_classes=kk.num_classes, hidden=4, num_layers=2,
                          bidirectional=True, seed=7)
        path = tmp_path / "golden.ckpt"
        save_checkpoint(init_params(cfg), cfg, kk, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "649779ac879304a6060b414f2a871d665f3a1ddab77ee64764fa5f9d1374358c"
        )

    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path, ru, monkeypatch):
        cfg = small_cfg(num_classes=ru.num_classes)
        path = tmp_path / "m.ckpt"
        params = checkpoint_for(cfg, ru, path)
        before = path.read_bytes()

        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(init_params(replace(cfg, seed=5)), cfg, ru, path)
        monkeypatch.undo()

        assert path.read_bytes() == before
        np.testing.assert_array_equal(read_checkpoint(path).payload, params.vector)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_file_starts_with_magic_and_version(self, tmp_path, ru):
        cfg = small_cfg(num_classes=ru.num_classes)
        checkpoint_for(cfg, ru, tmp_path / "m.ckpt")
        raw = (tmp_path / "m.ckpt").read_bytes()
        assert raw[:4] == CHECKPOINT_MAGIC == b"CTCX"
        version, header_len = struct.unpack_from("<II", raw, 4)
        assert version == 1
        header = json.loads(raw[12 : 12 + header_len])
        assert header["alphabet_name"] == "ru"
        # payload starts on a 64-byte boundary
        assert (12 + header_len + (-(12 + header_len)) % 64) % 64 == 0


def edit_entry(header, index, **fields):
    """The header with tensor entry ``index`` updated; a field set to None is removed."""
    entry = header["tensors"][index]
    for key, value in fields.items():
        if value is None:
            entry.pop(key)
        else:
            entry[key] = value
    return header


IN_TABLE = "differs from the written form in 'tensors'"
IN_ENCODING = "differs from the written form in its encoding"

# (id, header mutation, expected CheckpointError message)
MALFORMED_HEADERS = [
    ("header-list", lambda h: [h], "header is not a JSON object"),
    ("config-list", lambda h: {**h, "config": list(h["config"].values())},
     "config is not a JSON object"),
    ("config-non-integer", lambda h: {**h, "config": {**h["config"], "hidden": [6]}},
     "bad header config"),
    ("config-infinite", lambda h: {**h, "config": {**h["config"], "hidden": float("inf")}},
     "bad header config: hidden is inf"),
    ("config-fractional", lambda h: {**h, "config": {**h["config"], "num_layers": 2.5}},
     "bad header config: num_layers is 2.5"),
    ("config-string-integer", lambda h: {**h, "config": {**h["config"], "feature_dim": "5"}},
     "bad header config: feature_dim is '5'"),
    ("config-string-bool", lambda h: {**h, "config": {**h["config"], "bidirectional": "true"}},
     "bad header config: bidirectional is 'true'"),
    ("table-of-names", lambda h: {**h, "tensors": [e["name"] for e in h["tensors"]]},
     IN_TABLE),
    ("missing-name", lambda h: edit_entry(h, 0, name=None), IN_TABLE),
    ("missing-shape", lambda h: edit_entry(h, 0, shape=None), IN_TABLE),
    ("non-integer-shape", lambda h: edit_entry(h, 0, shape=["24", 5]), IN_TABLE),
    ("missing-offset", lambda h: edit_entry(h, 0, offset=None), IN_TABLE),
    ("non-integer-offset", lambda h: edit_entry(h, 0, offset=0.0), IN_ENCODING),
    ("negative-offset", lambda h: edit_entry(h, 0, offset=-64), IN_TABLE),
    ("overlapping-offset", lambda h: edit_entry(h, 1, offset=0), IN_TABLE),
    ("table-extra-key", lambda h: edit_entry(h, 0, dtype="<f4"), IN_TABLE),
    ("extra-key", lambda h: {**h, "note": "ru model"}, "in 'note'"),
    ("config-extra-key", lambda h: {**h, "config": {**h["config"], "dropout_keep": 0.5}},
     "in 'config'"),
    ("config-reordered", lambda h: {**h, "config": dict(reversed(h["config"].items()))},
     IN_ENCODING),
    ("compact-separators",
     lambda h: Raw(json.dumps(h, ensure_ascii=False, separators=(",", ":"))), IN_ENCODING),
    ("non-zero-padding", lambda h: Raw(json.dumps(h, ensure_ascii=False), fill=b"!"),
     IN_ENCODING),
    ("alphabet-too-short", lambda h: {**h, "alphabet_symbols": "абвгд "},
     "has 7 classes, config says 35"),
    ("alphabet-list", lambda h: {**h, "alphabet_symbols": list(h["alphabet_symbols"])},
     "string alphabet_name and alphabet_symbols"),
    ("alphabet-missing", lambda h: {k: v for k, v in h.items() if k != "alphabet_symbols"},
     "string alphabet_name and alphabet_symbols"),
    ("deep-nesting", lambda h: Raw("[" * 100_000), "unreadable header"),
    ("alphabet-duplicate", lambda h: {**h, "alphabet_symbols": "б" + h["alphabet_symbols"][1:]},
     "duplicate symbols"),
]


class TestCheckpointErrors:
    def write_valid(self, tmp_path, ru):
        cfg = small_cfg(num_classes=ru.num_classes)
        path = tmp_path / "m.ckpt"
        checkpoint_for(cfg, ru, path)
        return path, cfg

    @pytest.mark.parametrize(
        "mutate,match", [case[1:] for case in MALFORMED_HEADERS],
        ids=[case[0] for case in MALFORMED_HEADERS],
    )
    def test_malformed_header_field(self, tmp_path, ru, mutate, match):
        path, _ = self.write_valid(tmp_path, ru)
        rewrite_header(path, mutate)
        with pytest.raises(CheckpointError, match=match):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "mutate", [case[1] for case in MALFORMED_HEADERS],
        ids=[case[0] for case in MALFORMED_HEADERS],
    )
    def test_malformed_header_is_a_cli_data_error(self, tmp_path, ru, capsys, mutate):
        path, _ = self.write_valid(tmp_path, ru)
        rewrite_header(path, mutate)
        code = cli_main(["transfer", "--source", str(path), "--target-alphabet", "kk",
                         "--out", str(tmp_path / "out.ckpt")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_magic(self, tmp_path, ru):
        path, _ = self.write_valid(tmp_path, ru)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="bad magic"):
            read_checkpoint(path)

    def test_unsupported_version(self, tmp_path, ru):
        path, _ = self.write_valid(tmp_path, ru)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 4, 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unsupported version 99"):
            read_checkpoint(path)

    def test_truncated_header(self, tmp_path, ru):
        path, _ = self.write_valid(tmp_path, ru)
        path.write_bytes(path.read_bytes()[:8])
        with pytest.raises(CheckpointError, match="truncated header"):
            read_checkpoint(path)

    def test_unreadable_header(self, tmp_path, ru):
        path, _ = self.write_valid(tmp_path, ru)
        raw = bytearray(path.read_bytes())
        raw[12] = 0xFF  # corrupt the JSON
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unreadable header"):
            read_checkpoint(path)

    def test_truncated_payload_names_tensor(self, tmp_path, ru):
        path, _ = self.write_valid(tmp_path, ru)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError, match=f"has {size - 16} bytes, the header needs {size}"):
            read_checkpoint(path)

    @pytest.mark.parametrize("tail", [b"\0", b"garbage!" * 100], ids=["1-byte", "800-bytes"])
    def test_bytes_after_last_tensor(self, tmp_path, ru, capsys, tail):
        path, _ = self.write_valid(tmp_path, ru)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + tail)
        message = f"has {size + len(tail)} bytes, the header needs {size}"
        with pytest.raises(CheckpointError, match=message):
            read_checkpoint(path)
        code = cli_main(["transfer", "--source", str(path), "--target-alphabet", "kk",
                         "--out", str(tmp_path / "out.ckpt")])
        assert code == 2
        assert message in capsys.readouterr().err

    def poke(self, path, cfg, name, value):
        """Overwrite the first payload value of tensor ``name`` in place."""
        raw = bytearray(path.read_bytes())
        names = [n for n, _ in tensor_spec(cfg)]
        sizes = [math.prod(shape) for _, shape in tensor_spec(cfg)]
        # the payload ends the file: `name` and the tensors after it fill its last bytes
        struct.pack_into("<f", raw, len(raw) - 4 * sum(sizes[names.index(name):]), value)
        path.write_bytes(bytes(raw))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_payload_names_first_tensor(self, tmp_path, ru, value):
        path, cfg = self.write_valid(tmp_path, ru)
        self.poke(path, cfg, "dense.b", value)
        with pytest.raises(CheckpointError, match="tensor dense.b holds non-finite values"):
            read_checkpoint(path)
        self.poke(path, cfg, "layer2.fwd.w_recurrent", value)
        with pytest.raises(CheckpointError, match="tensor layer2.fwd.w_recurrent holds"):
            read_checkpoint(path)

    def test_non_finite_payload_is_never_written(self, tmp_path, ru):
        path, cfg = self.write_valid(tmp_path, ru)
        before = path.read_bytes()
        ckpt = read_checkpoint(path)
        payload = ckpt.payload.copy()
        payload[-1] = np.nan
        with pytest.raises(CheckpointError, match="tensor dense.b holds non-finite values"):
            write_checkpoint(replace(ckpt, payload=payload), path)
        with pytest.raises(CheckpointError, match="dense.b"):
            write_checkpoint(replace(ckpt, payload=payload), tmp_path / "new.ckpt")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_shape_mismatch_names_tensor(self, tmp_path, ru):
        path, _ = self.write_valid(tmp_path, ru)
        rewrite_header(path, lambda h: edit_entry(h, 0, shape=[1, 1]))
        with pytest.raises(CheckpointError, match=IN_TABLE):
            read_checkpoint(path)


class TestTransferWeights:
    def setup_pair(self, ru, kk, bidirectional=False, hidden=6):
        src_cfg = small_cfg(
            num_classes=ru.num_classes, bidirectional=bidirectional, hidden=hidden, seed=1
        )
        tgt_cfg = small_cfg(
            num_classes=kk.num_classes, bidirectional=bidirectional, hidden=hidden
        )
        src_params = init_params(src_cfg)
        ckpt = checkpoint_from_params(src_params, src_cfg, ru)
        return src_params, ckpt, tgt_cfg

    def test_recurrent_tensors_copied_verbatim(self, ru, kk):
        src_params, ckpt, tgt_cfg = self.setup_pair(ru, kk, bidirectional=True)
        params, report = transfer_weights(ckpt, tgt_cfg, kk, seed=5)
        assert len(report.copied) == 12
        src = src_params.tensors
        tgt = params.tensors
        for name in report.copied:
            np.testing.assert_array_equal(src[name], tgt[name], err_msg=name)

    def test_report_partitions_tensor_set(self, ru, kk):
        _, ckpt, tgt_cfg = self.setup_pair(ru, kk)
        params, report = transfer_weights(ckpt, tgt_cfg, kk, seed=5)
        all_names = set(params.tensors)
        assert set(report.copied) | set(report.reinitialized) == all_names
        assert not set(report.copied) & set(report.reinitialized)
        assert set(report.skipped_reason) == {"dense.w", "dense.b"}
        assert "output dimension mismatch" in report.skipped_reason["dense.w"]
        assert str(ckpt.model_config.num_classes) in report.skipped_reason["dense.w"]

    def test_dense_head_matches_fresh_init_with_target_seed(self, ru, kk):
        _, ckpt, tgt_cfg = self.setup_pair(ru, kk)
        params, _ = transfer_weights(ckpt, tgt_cfg, kk, seed=11)
        fresh = init_params(ModelConfig(**{**tgt_cfg.__dict__, "seed": 11}))
        np.testing.assert_array_equal(params.dense_w, fresh.dense_w)
        np.testing.assert_array_equal(params.dense_b, fresh.dense_b)

    def test_source_dense_values_never_consulted(self, ru, kk):
        _, ckpt, tgt_cfg = self.setup_pair(ru, kk)
        baseline, _ = transfer_weights(ckpt, tgt_cfg, kk, seed=2)
        # scribble over the source head and transfer again
        mangled = ckpt.payload.copy()
        dense = ckpt.model_config.num_classes * (ckpt.model_config.layer_output_dim + 1)
        mangled[-dense:] = 9.0
        ckpt2 = replace(ckpt, payload=mangled)
        again, _ = transfer_weights(ckpt2, tgt_cfg, kk, seed=2)
        for (n1, a), (n2, b) in zip(baseline.tensors.items(), again.tensors.items()):
            np.testing.assert_array_equal(a, b, err_msg=n1)

    @pytest.mark.parametrize(
        "field,value",
        [("hidden", 8), ("num_layers", 1), ("bidirectional", True), ("feature_dim", 4)],
    )
    def test_geometry_mismatch_rejected(self, ru, kk, field, value):
        _, ckpt, tgt_cfg = self.setup_pair(ru, kk)
        bad = ModelConfig(**{**tgt_cfg.__dict__, field: value})
        with pytest.raises(TransferError, match=field):
            transfer_weights(ckpt, bad, kk, seed=0)

    def test_alphabet_class_count_must_match_config(self, ru, kk):
        _, ckpt, tgt_cfg = self.setup_pair(ru, kk)
        with pytest.raises(TransferError, match="classes"):
            transfer_weights(ckpt, tgt_cfg, ru, seed=0)  # ru is 35 classes, cfg says 44

    def test_same_alphabet_transfer_preserves_hidden_activations(self, ru, rng):
        cfg = small_cfg(num_classes=ru.num_classes, seed=4)
        params = init_params(cfg)
        ckpt = checkpoint_from_params(params, cfg, ru)
        moved, _ = transfer_weights(ckpt, cfg, ru, seed=99)
        feats = rng.standard_normal((9, cfg.feature_dim))
        np.testing.assert_array_equal(
            hidden_outputs(params, cfg, feats)[-1],
            hidden_outputs(moved, cfg, feats)[-1],
        )


class TestVerifyTransfer:
    def build(self, ru, kk, bidirectional=False):
        src_cfg = small_cfg(num_classes=ru.num_classes, bidirectional=bidirectional, seed=1)
        src_params = init_params(src_cfg)
        ckpt = checkpoint_from_params(src_params, src_cfg, ru)
        tgt_cfg = small_cfg(num_classes=kk.num_classes, bidirectional=bidirectional)
        moved, _ = transfer_weights(ckpt, tgt_cfg, kk, seed=8)
        # reload the source through the f32 file format so both sides sit on
        # the same grid
        return init_params(src_cfg), moved, src_cfg

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_clean_transfer_has_zero_deviation(self, ru, kk, rng, bidirectional):
        src, moved, cfg = self.build(ru, kk, bidirectional)
        probes = [rng.standard_normal((7, cfg.feature_dim)) for _ in range(5)]
        report = verify_transfer(src, moved, cfg, probes)
        assert report.ok
        assert report.max_abs_deviation == 0.0
        assert report.first_divergence is None

    def test_perturbation_is_detected_and_located(self, ru, kk, rng):
        src, moved, cfg = self.build(ru, kk)
        moved.tensors["layer2.fwd.w_recurrent"][0, 0] += 1e-3
        probes = [rng.standard_normal((7, cfg.feature_dim))]
        with pytest.raises(TransferVerificationError, match="layer2"):
            verify_transfer(src, moved, cfg, probes)

    def test_non_finite_probe_is_refused(self, rng):
        # a NaN reaches every output, so no deviation compares greater than zero
        cfg = small_cfg()
        models = [init_params(replace(cfg, seed=seed)) for seed in (0, 1)]
        probes = [rng.standard_normal((7, cfg.feature_dim)) for _ in range(2)]
        for value in (np.nan, np.inf):
            probes[1][3, 2] = value
            with pytest.raises(ValueError, match="probe 1 holds non-finite values"):
                verify_transfer(*models, cfg, probes)
        probes[1][3, 2] = 0.0
        with pytest.raises(TransferVerificationError, match="layer1"):
            verify_transfer(*models, cfg, probes)

    def test_differing_dense_heads_are_ignored(self, ru, kk, rng):
        # the two models disagree on num_classes; only the stacks are compared
        src, moved, cfg = self.build(ru, kk)
        assert src.dense_b.shape != moved.dense_b.shape
        report = verify_transfer(src, moved, cfg, rng.standard_normal((6, cfg.feature_dim)))
        assert report.ok


class TestEndToEnd:
    def test_disk_round_trip_then_transfer(self, tmp_path, ru, kk, rng):
        cfg = small_cfg(num_classes=ru.num_classes, bidirectional=True, seed=6)
        params = init_params(cfg)
        path = tmp_path / "ru.ckpt"
        save_checkpoint(params, cfg, ru, path)
        ckpt = read_checkpoint(path)
        tgt_cfg = small_cfg(num_classes=kk.num_classes, bidirectional=True)
        moved, report = transfer_weights(ckpt, tgt_cfg, kk, seed=0)
        assert len(report.copied) == 12
        feats = rng.standard_normal((8, cfg.feature_dim))
        verify_transfer(params, moved, cfg, feats)
        # the transferred model runs end to end with the larger head
        logits, _ = forward(moved, tgt_cfg, feats, train_mode=False)
        assert logits.shape == (8, kk.num_classes)
