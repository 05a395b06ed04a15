import json
import math
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from ctcx import (
    Alphabet,
    AudioClip,
    FeatureConfig,
    ManifestRow,
    MetricsRow,
    ModelConfig,
    SynthConfig,
    TrainConfig,
    corpus_ler,
    decode,
    feature_normalize,
    forward,
    greedy_decode,
    init_params,
    load_dataset,
    load_wav,
    log_softmax,
    mfcc,
    params_from_checkpoint,
    read_checkpoint,
    read_feature_cache,
    read_manifest,
    recognize,
    save_alphabet,
    save_checkpoint,
    save_wav,
    write_corpus,
    write_feature_cache,
    write_manifest,
)
from ctcx import cli
from ctcx.cli import _train_config_from_args, build_parser, main
from ctcx.frontend import wav_features
from oracles import oracle_beam_search, oracle_resample


TOY = Alphabet("toy", ("а", "б", "в", " "))


@pytest.fixture(scope="module")
def toy_env(tmp_path_factory):
    """Alphabet file plus a 12-utterance synthetic manifest, built once."""
    root = tmp_path_factory.mktemp("toyenv")
    alphabet_path = root / "toy.txt"
    save_alphabet(TOY, alphabet_path)
    rows = write_corpus(root / "features", TOY, 12, seed=21)
    manifest = root / "manifest.jsonl"
    write_manifest(rows, manifest)
    return {"alphabet": str(alphabet_path), "manifest": str(manifest), "root": root}


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def strict_json(text):
    """Parse ``text`` as RFC 8259 JSON, which has no NaN or Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def toy_checkpoint(path, bidirectional=False, hidden=4, feature_dim=13, seed=0):
    cfg = ModelConfig(
        feature_dim=feature_dim, num_classes=TOY.num_classes, hidden=hidden,
        num_layers=2, bidirectional=bidirectional, seed=seed,
    )
    save_checkpoint(init_params(cfg), cfg, TOY, path)
    return cfg


def toy_log_probs(ckpt_path, features):
    ckpt = read_checkpoint(ckpt_path)
    logits, _ = forward(params_from_checkpoint(ckpt), ckpt.model_config, features,
                        train_mode=False)
    return log_softmax(logits)


def sine_wav(path, seconds=0.5, rate=16000):
    t = np.arange(int(seconds * rate)) / rate
    save_wav(AudioClip(0.3 * np.sin(2 * np.pi * 440.0 * t), rate), path)


def python_env():
    """The environment for a child Python that imports this checkout's ctcx."""
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


class TestParserBasics:
    def test_no_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_zero_beam_width_is_a_usage_error(self, toy_env):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--manifest", toy_env["manifest"],
                  "--alphabet", toy_env["alphabet"], "--out", "x",
                  "--beam-width", "0"])
        assert exc.value.code == 1

    def test_bad_momentum_is_a_usage_error(self, tmp_path, toy_env):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--manifest", toy_env["manifest"],
                  "--alphabet", toy_env["alphabet"], "--out", str(tmp_path),
                  "--momentum", "1.0"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("flag,value", [
        ("--learning-rate", "nan"), ("--learning-rate", "inf"),
        ("--grad-clip-norm", "nan"), ("--grad-clip-norm", "inf"), ("--split", "nan,0.5,0.5"),
    ])
    def test_non_finite_training_flag_is_a_usage_error(self, tmp_path, toy_env, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--manifest", toy_env["manifest"],
                  "--alphabet", toy_env["alphabet"], "--out", str(tmp_path / "run"),
                  "--epochs", "1", "--hidden", "2", flag, value])
        assert exc.value.code == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--manifest", "m", "--alphabet", "kk", "--out", "o", "--seed", "-1"],
        ["experiment", "--manifest", "m", "--alphabet", "kk", "--out", "o", "--seed", "-1"],
        ["transfer", "--source", "s", "--target-alphabet", "kk", "--out", "o", "--seed", "-1"],
        ["prepare", "--alphabet", "kk", "--out", "o", "--synthetic", "3", "--seed", "-1"],
        ["prepare", "--alphabet", "kk", "--out", "o", "--synthetic", "3", "--proto-seed", "-1"],
    ])
    def test_negative_seed_is_a_usage_error_naming_the_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"argument {argv[-2]}: expected a non-negative integer" in capsys.readouterr().err

    def test_one_process_answers_like_fresh_ones(self, tmp_path, toy_env, capsys, monkeypatch):
        # main() reuses one parser: no call, a usage error included, may change a later one
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap alike in both
        ckpt = tmp_path / "m.ckpt"
        toy_checkpoint(ckpt)
        wav = tmp_path / "in.wav"
        sine_wav(wav)
        argvs = [
            ["decode", "--checkpoint", str(ckpt), "--wav", str(wav), "--json"],
            ["decode", "--checkpoint", str(ckpt), "--wav", str(wav), "--beam-width", "0"],
            ["evaluate", "--checkpoint", str(ckpt), "--manifest", toy_env["manifest"], "--json"],
            ["evaluate", "--checkpoint", str(ckpt)],
        ]
        fresh = []
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-m", "ctcx.cli", *argv], env=python_env(),
                                  capture_output=True, text=True, timeout=120)
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        ours = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            captured = capsys.readouterr()
            ours.append((code, captured.out, captured.err))
        assert [code for code, _, _ in fresh] == [0, 1, 0, 1]
        assert ours == fresh

    def test_each_call_logs_to_the_stderr_it_is_given(self, tmp_path):
        # a fresh process: pytest's own root handlers make basicConfig a no-op here
        ckpt = tmp_path / "m.ckpt"
        toy_checkpoint(ckpt)
        wav = tmp_path / "in.wav"
        sine_wav(wav, rate=22050)
        script = (
            "import contextlib, io, json, sys\n"
            "from ctcx.cli import main\n"
            "errs = []\n"
            "for _ in range(3):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        main(['decode', '--checkpoint', sys.argv[1], '--wav', sys.argv[2]])\n"
            "    errs.append(err.getvalue())\n"
            "print(json.dumps(errs))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, str(ckpt), str(wav)],
                              env=python_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == [f"INFO ctcx: resampled {wav} to 16000 Hz\n"] * 3

    def test_command_replaced_after_the_first_call_is_the_one_run(self, capsys, monkeypatch):
        # a tracer wraps cmd_* on the module after the one parser may exist
        with pytest.raises(SystemExit):
            main(["decode", "--checkpoint", "c", "--wav", "w", "--beam-width", "0"])
        seen = []
        monkeypatch.setattr(cli, "cmd_decode", lambda args: seen.append(args.wav) or 0)
        assert main(["decode", "--checkpoint", "c", "--wav", "w"]) == 0
        assert seen == ["w"]

    def test_transfer_init_requires_source(self, tmp_path, toy_env):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--manifest", toy_env["manifest"],
                  "--alphabet", toy_env["alphabet"], "--out", str(tmp_path),
                  "--init", "transfer"])
        assert exc.value.code == 1

    def test_source_checkpoint_requires_transfer_init(self, tmp_path, toy_env, capsys):
        # the checkpoint is never opened: random init would otherwise ignore it
        with pytest.raises(SystemExit) as exc:
            main(["train", "--manifest", toy_env["manifest"],
                  "--alphabet", toy_env["alphabet"], "--out", str(tmp_path / "run"),
                  "--source-checkpoint", str(tmp_path / "nonexistent.ckpt")])
        assert exc.value.code == 1
        assert "--init transfer and --source-checkpoint go together" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_flag_defaults_are_the_config_defaults(self):
        parser = build_parser()
        for command in ("train", "experiment"):
            argv = [command, "--manifest", "m", "--alphabet", "kk", "--out", "o"]
            args = parser.parse_args(argv)
            assert _train_config_from_args(args) == TrainConfig()
            assert args.hidden == ModelConfig.hidden
            strict = _train_config_from_args(parser.parse_args(argv + ["--strict-paper"]))
            assert strict == replace(TrainConfig(), grad_clip_norm=None)
        for argv in (["evaluate", "--checkpoint", "c", "--manifest", "m"],
                     ["decode", "--checkpoint", "c", "--wav", "w"]):
            args = parser.parse_args(argv)
            assert args.decoder == TrainConfig().eval_decoder
            assert args.beam_width == TrainConfig().beam_width
        args = parser.parse_args(["prepare", "--alphabet", "kk", "--out", "o"])
        assert (args.noise_scale, args.proto_seed) == (SynthConfig().noise_scale,
                                                       SynthConfig().proto_seed)

    @pytest.mark.parametrize("command", ["train", "experiment"])
    @pytest.mark.parametrize("flags", [["--strict-paper", "--grad-clip-norm", "3"],
                                       ["--grad-clip-norm", "3", "--strict-paper"]])
    def test_strict_paper_excludes_grad_clip_norm(self, tmp_path, toy_env, capsys, command,
                                                  flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--manifest", toy_env["manifest"], "--alphabet", toy_env["alphabet"],
                  "--out", str(tmp_path / "run"), "--epochs", "1", "--hidden", "2", *flags])
        assert exc.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_json_writes_undefined_numbers_as_null(self, tmp_path, capsys):
        doc = {"a": [1.5, math.inf, (-math.inf, math.nan)], "b": {"c": np.float64("nan")}}
        expected = ('{\n  "a": [\n    1.5,\n    null,\n    [\n      null,\n      null\n'
                    '    ]\n  ],\n  "b": {\n    "c": null\n  }\n}\n')
        cli._write_json(doc, tmp_path / "doc.json")
        cli._write_json(doc)
        assert (tmp_path / "doc.json").read_text(encoding="utf-8") == expected
        assert capsys.readouterr().out == expected

    def test_console_script_is_installed(self):
        exe = shutil.which("ctcx")
        assert exe, "editable install should provide the ctcx entry point"
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "prepare" in proc.stdout and "experiment" in proc.stdout


class TestPrepare:
    def test_synthetic_corpus_written(self, tmp_path, capsys):
        out = tmp_path / "clean.jsonl"
        code, payload = run_json(capsys, [
            "prepare", "--alphabet", "kk", "--synthetic", "5",
            "--out", str(out), "--feature-dir", str(tmp_path / "feat"), "--seed", "0",
        ])
        assert code == 0
        assert payload["kept"] == 5
        rows = read_manifest(out)
        assert len(rows) == 5
        for row in rows:
            assert row.audio.endswith(".mfcc")
            assert (tmp_path / "feat" / row.audio.split("/")[-1]).exists()

    def test_transcripts_normalized_and_bad_rows_dropped(self, tmp_path, capsys, ru):
        src_rows = write_corpus(tmp_path / "f", ru, 2, seed=3)
        truncated = tmp_path / "truncated.mfcc"
        truncated.write_bytes(Path(src_rows[1].audio).read_bytes()[:-4])
        rows = [
            src_rows[0],
            ManifestRow(src_rows[0].audio, "Абай!", src_rows[0].duration_s),
            ManifestRow(src_rows[1].audio, "12345", src_rows[1].duration_s),
            ManifestRow(src_rows[1].audio, src_rows[1].text, 16.0),
            ManifestRow(str(tmp_path / "gone.mfcc"), "привет мир", 1.0),
            ManifestRow(str(truncated), src_rows[1].text, src_rows[1].duration_s),
        ]
        manifest = tmp_path / "raw.jsonl"
        write_manifest(rows, manifest)
        out = tmp_path / "clean.jsonl"
        code, payload = run_json(capsys, [
            "prepare", "--manifest", str(manifest), "--alphabet", "ru", "--out", str(out),
        ])
        assert code == 0
        assert payload["kept"] == 2
        assert payload["dropped"] == {
            "empty transcript": 1, "duration": 1, "unreadable audio": 2,
        }
        cleaned = read_manifest(out)
        assert cleaned[1].text == "абай"

    def test_frame_and_duration_boundaries(self, tmp_path, capsys):
        # a transcript of L symbols needs T >= 2L+1 frames; 15.0 s is kept
        text = "сәлем"  # L = 5
        rows = []
        for name, frames, seconds in (("t11", 11, 1.0), ("t10", 10, 1.0),
                                      ("d15", 40, 15.0), ("d1501", 40, 15.01)):
            path = tmp_path / f"{name}.mfcc"
            write_feature_cache(np.zeros((frames, 13)), path)
            rows.append(ManifestRow(str(path), text, seconds))
        # 22.05 kHz clips one sample either side of 11 frames after resampling:
        # the frame count prepare predicts must be the one extraction gives
        noise = np.random.default_rng(0).uniform(-0.5, 0.5, 2756)
        for name, samples, frames in (("w11", 2756, 11), ("w10", 2755, 10)):
            path = tmp_path / f"{name}.wav"
            save_wav(AudioClip(noise[:samples], 22050), path)
            assert wav_features(path, FeatureConfig())[0].shape[0] == frames
            rows.append(ManifestRow(str(path), text, None))
        manifest = tmp_path / "raw.jsonl"
        write_manifest(rows, manifest)
        out = tmp_path / "clean.jsonl"
        code, payload = run_json(capsys, [
            "prepare", "--manifest", str(manifest), "--alphabet", "kk", "--out", str(out),
        ])
        assert code == 0
        assert payload["dropped"] == {"transcript too long for frame count": 2, "duration": 1}
        kept = [r.audio.rsplit("/", 1)[-1] for r in read_manifest(out)]
        assert kept == ["t11.mfcc", "d15.mfcc", "w11.wav"]

    @pytest.mark.parametrize(
        "line", [
            "5",
            '{"audio": "a.wav", "text": "x", "duration_s": [1]}',
            '{"audio": "a.wav", "text": "x", "duration_s": true}',
            '{"audio": "a.wav", "text": "x", "duration_s": "12"}',
            '{"audio": "a.wav", "text": "x", "duration_s": -3}',
            '{"audio": "a.wav", "text": "x", "duration_s": NaN}',
            '{"audio": "a.wav", "text": "x", "duration_s": Infinity}',
            '{"audio": "a.wav", "text": ["аб"]}',
            "[" * 100_000,
        ],
        ids=["non-object-row", "non-numeric-duration", "bool-duration", "string-duration",
             "negative-duration", "nan-duration", "infinite-duration", "list-text",
             "deep-nesting"],
    )
    def test_malformed_manifest_row_is_a_data_error(self, tmp_path, capsys, line):
        manifest = tmp_path / "raw.jsonl"
        manifest.write_text(line + "\n", encoding="utf-8")
        code = main(["prepare", "--manifest", str(manifest), "--alphabet", "kk",
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "raw.jsonl:1" in capsys.readouterr().err

    def test_creates_missing_out_directory(self, tmp_path, capsys, kk):
        manifest = tmp_path / "in.jsonl"
        write_manifest(write_corpus(tmp_path / "f", kk, 2, seed=3), manifest)
        out = tmp_path / "new" / "dir" / "clean.jsonl"
        code, payload = run_json(capsys, [
            "prepare", "--alphabet", "kk", "--manifest", str(manifest), "--out", str(out),
        ])
        assert code == 0
        assert payload["kept"] == 2
        assert len(read_manifest(out)) == 2

    @pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
    def test_bad_noise_scale_is_a_usage_error(self, tmp_path, noise):
        with pytest.raises(SystemExit) as exc:
            main(["prepare", "--alphabet", "kk", "--synthetic", "3", "--noise-scale", noise,
                  "--out", str(tmp_path / "clean.jsonl"), "--feature-dir", str(tmp_path / "feat")])
        assert exc.value.code == 1
        assert not (tmp_path / "feat").exists()

    def test_no_input_source_is_a_data_error(self, tmp_path, capsys):
        code = main(["prepare", "--alphabet", "ru", "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_manifest_and_synthetic_together_is_a_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        write_manifest(write_corpus(tmp_path / "src", TOY, 2, seed=1), manifest)
        out = tmp_path / "o.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["prepare", "--alphabet", "kk", "--manifest", str(manifest),
                  "--synthetic", "3", "--out", str(out), "--feature-dir", str(tmp_path / "feat")])
        assert exc.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "feat").exists()

    def test_feature_dir_without_synthetic_is_a_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        write_manifest(write_corpus(tmp_path / "src", TOY, 2, seed=1), manifest)
        out = tmp_path / "o.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["prepare", "--alphabet", "kk", "--manifest", str(manifest), "--out", str(out),
                  "--feature-dir", str(tmp_path / "feat")])
        assert exc.value.code == 1
        assert "--feature-dir is only for --synthetic" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "feat").exists()

    def test_missing_manifest_is_a_data_error(self, tmp_path):
        code = main(["prepare", "--alphabet", "ru", "--out", str(tmp_path / "o.jsonl"),
                     "--manifest", str(tmp_path / "none.jsonl")])
        assert code == 2

    def test_out_under_a_regular_file_is_a_data_error(self, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("x")
        code = main(["prepare", "--alphabet", "kk", "--synthetic", "12",
                     "--out", str(blocker / "x.jsonl")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_unknown_alphabet_is_a_data_error(self, tmp_path, capsys):
        code = main(["prepare", "--alphabet", "xx", "--synthetic", "2",
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "neither built in" in capsys.readouterr().err


class TestFeatures:
    def build_wav_manifest(self, tmp_path, n=2):
        rows = []
        for i in range(n):
            path = tmp_path / f"utt{i}.wav"
            sine_wav(path)
            rows.append(ManifestRow(str(path), "аб в"))
        manifest = tmp_path / "wavs.jsonl"
        write_manifest(rows, manifest)
        return manifest

    def test_extracts_then_skips_cached(self, tmp_path, capsys):
        manifest = self.build_wav_manifest(tmp_path)
        out_dir = tmp_path / "feat"
        argv = ["features", "--manifest", str(manifest), "--out-dir", str(out_dir)]
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert payload["written"] == 2 and payload["skipped"] == 0
        assert (out_dir / "utt0.mfcc").exists()
        rewritten = read_manifest(out_dir / "manifest.jsonl")
        assert all(r.audio.endswith(".mfcc") for r in rewritten)

        code, payload = run_json(capsys, argv)
        assert code == 0
        assert payload["written"] == 0 and payload["skipped"] == 2

    def test_truncated_cache_is_rebuilt(self, tmp_path, capsys):
        manifest = self.build_wav_manifest(tmp_path, n=1)
        argv = ["features", "--manifest", str(manifest), "--out-dir", str(tmp_path / "feat")]
        run_json(capsys, argv)
        cache = tmp_path / "feat" / "utt0.mfcc"
        good = cache.read_bytes()
        cache.write_bytes(good[:50])  # newer than the WAV, but unreadable
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert payload["written"] == 1 and payload["skipped"] == 0
        assert cache.read_bytes() == good
        assert read_feature_cache(cache).shape[1] == FeatureConfig().n_mfcc

    def test_non_finite_cache_is_dropped_then_rebuilt(self, tmp_path, capsys):
        manifest = self.build_wav_manifest(tmp_path, n=1)
        argv = ["features", "--manifest", str(manifest), "--out-dir", str(tmp_path / "feat")]
        run_json(capsys, argv)
        cache = tmp_path / "feat" / "utt0.mfcc"
        good = cache.read_bytes()
        raw = bytearray(good)
        raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # header and size still match
        cache.write_bytes(bytes(raw))
        code = main(["prepare", "--manifest", str(tmp_path / "feat" / "manifest.jsonl"),
                     "--alphabet", "kk", "--out", str(tmp_path / "clean.jsonl")])
        assert code == 2
        assert "no usable rows (1 dropped: {'unreadable audio': 1})" in capsys.readouterr().err
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert payload["written"] == 1 and payload["skipped"] == 0
        assert cache.read_bytes() == good

    def test_refused_cache_row_is_reported_failed(self, tmp_path, capsys):
        # a row that already names a cache is checked, not passed through unread
        good, bad = tmp_path / "good.mfcc", tmp_path / "bad.mfcc"
        write_feature_cache(np.zeros((30, 13)), good)
        write_feature_cache(np.zeros((30, 13)), bad)
        raw = bytearray(bad.read_bytes())
        raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        bad.write_bytes(bytes(raw))
        write_manifest([ManifestRow(str(good), "аб"), ManifestRow(str(bad), "аб")],
                       tmp_path / "m.jsonl")
        code, payload = run_json(capsys, ["features", "--manifest", str(tmp_path / "m.jsonl"),
                                          "--out-dir", str(tmp_path / "feat")])
        assert code == 2
        assert payload["written"] == 0 and payload["skipped"] == 1
        assert [f["audio"] for f in payload["failed"]] == [str(bad)]
        assert "non-finite" in payload["failed"][0]["error"]

    def test_out_dir_at_a_regular_file_is_a_data_error(self, tmp_path, capsys):
        manifest = self.build_wav_manifest(tmp_path, n=1)
        blocker = tmp_path / "afile"
        blocker.write_text("x")
        code = main(["features", "--manifest", str(manifest), "--out-dir", str(blocker)])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_same_stem_in_two_folders_is_a_data_error(self, tmp_path, capsys):
        rows = []
        for speaker, seconds in (("spk1", 0.5), ("spk2", 1.0)):
            (tmp_path / speaker).mkdir()
            sine_wav(tmp_path / speaker / "001.wav", seconds=seconds)
            rows.append(ManifestRow(str(tmp_path / speaker / "001.wav"), "аб"))
        write_manifest(rows, tmp_path / "m.jsonl")
        out_dir = tmp_path / "feat"
        code = main(["features", "--manifest", str(tmp_path / "m.jsonl"),
                     "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(tmp_path / "spk1" / "001.wav") in err
        assert str(tmp_path / "spk2" / "001.wav") in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("spelling", ["feat/001.mfcc", "feat/../feat/001.mfcc"])
    def test_listed_cache_a_wav_would_overwrite_is_a_data_error(self, tmp_path, capsys,
                                                                 spelling):
        # spk1's cache is listed; extracting spk2's newer 001.wav into the same
        # out-dir would overwrite it and label spk2's audio with spk1's text
        out_dir = tmp_path / "feat"
        out_dir.mkdir()
        for speaker, seconds in (("spk1", 1.0), ("spk2", 0.5)):
            (tmp_path / speaker).mkdir()
            sine_wav(tmp_path / speaker / "001.wav", seconds=seconds)
        cache = out_dir / "001.mfcc"
        write_feature_cache(wav_features(tmp_path / "spk1" / "001.wav", FeatureConfig())[0], cache)
        newer = cache.stat().st_mtime + 10
        os.utime(tmp_path / "spk2" / "001.wav", (newer, newer))
        before = cache.read_bytes()
        write_manifest([ManifestRow(str(tmp_path / spelling), "аб"),
                        ManifestRow(str(tmp_path / "spk2" / "001.wav"), "ба")],
                       tmp_path / "m.jsonl")
        code = main(["features", "--manifest", str(tmp_path / "m.jsonl"),
                     "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(tmp_path / spelling) in err and str(tmp_path / "spk2" / "001.wav") in err
        assert cache.read_bytes() == before
        assert not (out_dir / "manifest.jsonl").exists()

    def test_cache_listed_twice_is_checked_and_counted_once(self, tmp_path, capsys, monkeypatch):
        reads = []

        def recorded(path):
            reads.append(path)
            return read_feature_cache(path)

        monkeypatch.setattr(cli, "read_feature_cache", recorded)
        (tmp_path / "a").mkdir()
        write_feature_cache(np.zeros((30, 13)), tmp_path / "a" / "u.mfcc")
        rows = [ManifestRow(str(tmp_path / "a" / "u.mfcc"), "аб"),
                ManifestRow(str(tmp_path / "a" / ".." / "a" / "u.mfcc"), "ба")]
        write_manifest(rows, tmp_path / "m.jsonl")
        out_dir = tmp_path / "feat"
        code, payload = run_json(capsys, ["features", "--manifest", str(tmp_path / "m.jsonl"),
                                          "--out-dir", str(out_dir)])
        assert code == 0
        assert payload["written"] == 0 and payload["skipped"] == 1
        assert len(reads) == 1
        assert read_manifest(out_dir / "manifest.jsonl") == rows

    def test_same_wav_listed_twice_is_not_a_conflict(self, tmp_path, capsys):
        wav = tmp_path / "a.wav"
        sine_wav(wav)
        write_manifest([ManifestRow(str(wav), "аб"), ManifestRow(str(wav), "ба")],
                       tmp_path / "m.jsonl")
        out_dir = tmp_path / "feat"
        code, payload = run_json(capsys, ["features", "--manifest", str(tmp_path / "m.jsonl"),
                                          "--out-dir", str(out_dir)])
        assert code == 0
        assert payload["written"] == 1 and payload["skipped"] == 0
        rows = read_manifest(out_dir / "manifest.jsonl")
        assert [r.audio for r in rows] == [str(out_dir / "a.mfcc")] * 2

    @pytest.mark.parametrize("samples,rate,problem", [
        (None, None, "not a RIFF/WAVE file"),
        (1, 44100, "shorter than one analysis window at 16000 Hz (0 samples, need 400)"),
        (100, 16000, "shorter than one analysis window at 16000 Hz (100 samples, need 400)"),
    ], ids=["not-riff", "one-sample-44k", "100-samples-16k"])
    def test_unusable_wav_reported_per_file(self, tmp_path, capsys, samples, rate, problem):
        bad = tmp_path / "bad.wav"
        if samples:
            save_wav(AudioClip(np.full(samples, 0.25), rate), bad)
        else:
            bad.write_text("this is not audio")
        write_manifest([ManifestRow(str(bad), "аб")], tmp_path / "m.jsonl")
        code = main(["features", "--manifest", str(tmp_path / "m.jsonl"),
                     "--out-dir", str(tmp_path / "feat")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"ctcx: failed {bad}: " in err and f"Error: {bad}: {problem}" in err

    def test_extracts_in_the_calling_thread_in_manifest_order(self, tmp_path, capsys,
                                                              monkeypatch):
        threads = []

        def recorded(path, cfg):
            threads.append(threading.current_thread())
            return wav_features(path, cfg)

        monkeypatch.setattr(cli, "wav_features", recorded)
        wavs = []
        for i in reversed(range(6)):  # not in file-name order
            path = tmp_path / f"utt{i}.wav"
            if i % 2:
                path.write_text("this is not audio")
            else:
                sine_wav(path)
            wavs.append(path)
        good, refused = tmp_path / "good.mfcc", tmp_path / "refused.mfcc"
        write_feature_cache(np.zeros((30, 13)), good)
        refused.write_text("this is not a feature cache")
        paths = [wavs[0], refused, *wavs[1:3], good, *wavs[3:]]
        write_manifest([ManifestRow(str(p), "аб") for p in paths], tmp_path / "m.jsonl")
        code = main(["features", "--manifest", str(tmp_path / "m.jsonl"),
                     "--out-dir", str(tmp_path / "feat"), "--json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert threads == [threading.current_thread()] * 6
        bad = [str(p) for p in (wavs[0], refused, wavs[2], wavs[4])]  # manifest order
        payload = json.loads(out)
        assert payload["written"] == 3 and payload["skipped"] == 1
        assert [f["audio"] for f in payload["failed"]] == bad
        assert [line.split(": ")[1] for line in err.splitlines()] == [f"failed {p}" for p in bad]

    def test_out_manifest_parent_is_created(self, tmp_path, capsys):
        manifest = self.build_wav_manifest(tmp_path, n=1)
        out_manifest = tmp_path / "newdir" / "m.jsonl"
        code, payload = run_json(capsys, ["features", "--manifest", str(manifest),
                                          "--out-dir", str(tmp_path / "feat"),
                                          "--out-manifest", str(out_manifest)])
        assert code == 0
        assert payload["manifest"] == str(out_manifest)
        rows = read_manifest(out_manifest)
        assert [r.audio for r in rows] == [str(tmp_path / "feat" / "utt0.mfcc")]

    def test_features_and_decode_match_the_oracle_resampler(self, tmp_path, capsys):
        # the per-sample resampler is the reference: caches and decode output
        # at every common rate must come out as if it had been used
        ckpt = tmp_path / "m.ckpt"
        toy_checkpoint(ckpt)
        rng = np.random.default_rng(44100)
        rows = []
        for rate in (8000, 16000, 22050, 44100):
            path = tmp_path / f"r{rate}.wav"
            t = np.arange(int(0.9 * rate)) / rate
            tone = 0.3 * np.sin(2 * np.pi * (300.0 + 900.0 * t) * t)
            save_wav(AudioClip(tone + 0.05 * rng.standard_normal(len(t)), rate), path)
            rows.append(ManifestRow(str(path), "аб в"))
        write_manifest(rows, tmp_path / "wavs.jsonl")
        out_dir = tmp_path / "feat"
        code, _ = run_json(capsys, ["features", "--manifest", str(tmp_path / "wavs.jsonl"),
                                    "--out-dir", str(out_dir)])
        assert code == 0
        for row in rows:
            values = mfcc(oracle_resample(load_wav(row.audio), 16000)).values
            expected = tmp_path / "expected.mfcc"
            write_feature_cache(values, expected)
            cache = out_dir / (Path(row.audio).stem + ".mfcc")
            assert cache.read_bytes() == expected.read_bytes(), row.audio

            code, decoded = run_json(capsys, ["decode", "--checkpoint", str(ckpt),
                                              "--wav", row.audio])
            assert code == 0
            features = feature_normalize(values)
            transcript = decode(greedy_decode(toy_log_probs(ckpt, features)), TOY)
            assert decoded["transcript"] == transcript
            assert decoded["frames"] == features.shape[0]
            assert decoded["resampled"] is (row.audio != str(tmp_path / "r16000.wav"))

    def test_every_command_extracts_the_same_frames(self, tmp_path, capsys):
        # features, decode and load_dataset share one feature recipe
        ckpt = tmp_path / "m.ckpt"
        toy_checkpoint(ckpt)
        rows = []
        for rate in (16000, 22050):
            path = tmp_path / f"r{rate}.wav"
            sine_wav(path, seconds=0.73, rate=rate)
            rows.append(ManifestRow(str(path), "аб в"))
        manifest = tmp_path / "wavs.jsonl"
        write_manifest(rows, manifest)
        out_dir = tmp_path / "feat"
        code, _ = run_json(capsys, ["features", "--manifest", str(manifest),
                                    "--out-dir", str(out_dir)])
        assert code == 0
        utterances, dropped = load_dataset(rows, TOY)
        assert dropped == []
        for row, utt in zip(rows, utterances):
            cached = read_feature_cache(out_dir / (Path(row.audio).stem + ".mfcc"))
            code, decoded = run_json(capsys, ["decode", "--checkpoint", str(ckpt),
                                              "--wav", row.audio])
            assert code == 0
            assert cached.shape[0] == decoded["frames"] == utt.features.shape[0]


def train_argv(toy_env, out_dir, *extra):
    return [
        "train", "--manifest", toy_env["manifest"], "--alphabet", toy_env["alphabet"],
        "--out", str(out_dir), "--hidden", "4", "--epochs", "2",
        "--learning-rate", "0.005", "--dropout-keep", "1.0", "--seed", "1",
        *extra,
    ]


class TestTrain:
    def test_writes_checkpoint_and_metrics(self, tmp_path, toy_env, capsys):
        out = tmp_path / "run"
        code, payload = run_json(capsys, train_argv(toy_env, out))
        assert code == 0
        assert (out / "model.ckpt").exists()
        assert (out / "metrics.csv").exists()
        assert payload["train_utterances"] == 10
        assert payload["val_utterances"] == 1
        assert payload["final"]["epoch"] == 2

    def test_same_seed_gives_identical_metrics(self, tmp_path, toy_env, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_argv(toy_env, a)) == 0
        assert main(train_argv(toy_env, b)) == 0
        capsys.readouterr()
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_no_split_uses_all_utterances(self, tmp_path, toy_env, capsys):
        code, payload = run_json(
            capsys, train_argv(toy_env, tmp_path / "full", "--no-split")
        )
        assert code == 0
        assert payload["train_utterances"] == 12
        assert payload["val_utterances"] == 0

    def test_no_split_val_metrics_are_json_null(self, tmp_path, toy_env, capsys):
        out = tmp_path / "full"
        assert main(train_argv(toy_env, out, "--no-split", "--json")) == 0
        final = strict_json(capsys.readouterr().out)["final"]
        assert final["val_cost"] is None and final["val_ler"] is None
        assert (out / "metrics.csv").read_text().splitlines()[-1].endswith(",nan,nan")

    @pytest.mark.parametrize("flags", [["--no-split", "--split", "0.5,0.25,0.25"],
                                       ["--split", "0.5,0.25,0.25", "--no-split"]])
    def test_no_split_excludes_split(self, tmp_path, toy_env, capsys, flags):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(train_argv(toy_env, out, *flags))
        assert exc.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_transfer_init_from_matching_checkpoint(self, tmp_path, toy_env, capsys):
        src = tmp_path / "src.ckpt"
        toy_checkpoint(src, hidden=4)
        code, payload = run_json(capsys, train_argv(
            toy_env, tmp_path / "warm", "--arch", "lstm",
            "--init", "transfer", "--source-checkpoint", str(src),
        ))
        assert code == 0
        assert payload["final"]["epoch"] == 2

    def test_out_at_a_regular_file_is_a_data_error(self, tmp_path, toy_env, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("x")
        code = main(train_argv(toy_env, blocker))
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_transfer_init_geometry_mismatch_is_a_data_error(self, tmp_path, toy_env, capsys):
        src = tmp_path / "src.ckpt"
        toy_checkpoint(src, hidden=8)  # train asks for hidden 4
        code = main(train_argv(
            toy_env, tmp_path / "warm", "--arch", "lstm",
            "--init", "transfer", "--source-checkpoint", str(src),
        ))
        assert code == 2
        assert "incompatible" in capsys.readouterr().err


class TestTransferCommand:
    def test_ru_to_kk_transfer_report(self, tmp_path, capsys, ru):
        src_path = tmp_path / "ru.ckpt"
        cfg = ModelConfig(feature_dim=13, num_classes=ru.num_classes, hidden=8,
                          num_layers=2, bidirectional=True, seed=2)
        save_checkpoint(init_params(cfg), cfg, ru, src_path)
        out = tmp_path / "kk.ckpt"
        code, payload = run_json(capsys, [
            "transfer", "--source", str(src_path), "--target-alphabet", "kk",
            "--out", str(out),
        ])
        assert code == 0
        assert len(payload["report"]["copied"]) == 12
        assert payload["report"]["reinitialized"] == ["dense.w", "dense.b"]
        assert payload["verify"]["ok"] is True
        assert payload["verify"]["max_abs_deviation"] == 0.0
        assert out.exists()
        report_path = tmp_path / "kk.report.json"
        assert json.loads(report_path.read_text())["target_alphabet"] == "kk"

    def test_creates_missing_out_and_report_directories(self, tmp_path, capsys, ru):
        src_path = tmp_path / "ru.ckpt"
        cfg = ModelConfig(feature_dim=13, num_classes=ru.num_classes, hidden=4,
                          num_layers=2, bidirectional=False, seed=2)
        save_checkpoint(init_params(cfg), cfg, ru, src_path)
        out = tmp_path / "models" / "kk.ckpt"
        report = tmp_path / "reports" / "kk.json"
        code, _ = run_json(capsys, [
            "transfer", "--source", str(src_path), "--target-alphabet", "kk",
            "--out", str(out), "--report", str(report),
        ])
        assert code == 0
        assert read_checkpoint(out).alphabet_name == "kk"
        assert json.loads(report.read_text())["out"] == str(out)

    @pytest.mark.parametrize("clash", ["out", "source"])
    def test_report_on_out_or_source_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                       clash):
        src_path = tmp_path / "toy.ckpt"
        toy_checkpoint(src_path)
        source_bytes = src_path.read_bytes()
        out = tmp_path / "kk.ckpt"
        monkeypatch.chdir(tmp_path)  # a relative --report names the same file
        report = {"out": "kk.ckpt", "source": "toy.ckpt"}[clash]
        with pytest.raises(SystemExit) as exc:
            main(["transfer", "--source", str(src_path), "--target-alphabet", "kk",
                  "--out", str(out), "--report", report])
        assert exc.value.code == 1
        assert f"same file as --{clash}" in capsys.readouterr().err
        assert not out.exists()
        assert src_path.read_bytes() == source_bytes

    def test_missing_source_is_a_data_error(self, tmp_path, capsys):
        code = main(["transfer", "--source", str(tmp_path / "none.ckpt"),
                     "--target-alphabet", "kk", "--out", str(tmp_path / "o.ckpt")])
        assert code == 2


class TestEvaluateCommand:
    def test_reports_cost_and_ler(self, tmp_path, toy_env, capsys):
        ckpt = tmp_path / "m.ckpt"
        toy_checkpoint(ckpt)
        code, payload = run_json(capsys, [
            "evaluate", "--checkpoint", str(ckpt), "--manifest", toy_env["manifest"],
        ])
        assert code == 0
        assert payload["utterances"] == 12
        assert payload["ler"] > 0.0
        assert np.isfinite(payload["avg_cost"])

    def test_beam_ler_matches_oracle_hypotheses(self, tmp_path, toy_env, capsys):
        ckpt = tmp_path / "m.ckpt"
        toy_checkpoint(ckpt)
        code, payload = run_json(capsys, [
            "evaluate", "--checkpoint", str(ckpt), "--manifest", toy_env["manifest"],
            "--decoder", "beam", "--beam-width", "8",
        ])
        assert code == 0
        assert payload["decoder"] == "beam"
        utterances, _ = load_dataset(read_manifest(toy_env["manifest"]), TOY)
        pairs = [(u.labels, oracle_beam_search(toy_log_probs(ckpt, u.features), 8))
                 for u in utterances]
        assert payload["ler"] == corpus_ler(pairs)

    def test_non_finite_feature_cache_is_a_data_error(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        toy_checkpoint(ckpt)
        values = np.ones((30, 13))
        values[5, 2] = np.nan
        write_feature_cache(values, tmp_path / "nan.mfcc")
        write_manifest([ManifestRow(str(tmp_path / "nan.mfcc"), "аб")], tmp_path / "m.jsonl")
        code = main(["evaluate", "--checkpoint", str(ckpt),
                     "--manifest", str(tmp_path / "m.jsonl")])
        assert code == 2
        assert "no loadable utterances (1 dropped)" in capsys.readouterr().err

    def test_feature_dim_mismatch_is_a_data_error(self, tmp_path, toy_env, capsys):
        ckpt = tmp_path / "m.ckpt"
        toy_checkpoint(ckpt, feature_dim=5)
        code = main(["evaluate", "--checkpoint", str(ckpt),
                     "--manifest", toy_env["manifest"]])
        assert code == 2
        assert "feature dim" in capsys.readouterr().err


class TestDecodeCommand:
    def test_decodes_wav_with_json_output(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        toy_checkpoint(ckpt)
        wav = tmp_path / "in.wav"
        sine_wav(wav)
        code, payload = run_json(capsys, [
            "decode", "--checkpoint", str(ckpt), "--wav", str(wav),
        ])
        assert code == 0
        assert payload["resampled"] is False
        assert payload["frames"] == 48
        assert isinstance(payload["transcript"], str)

    def test_beam_transcript_matches_oracle(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        toy_checkpoint(ckpt)
        wav = tmp_path / "in.wav"
        sine_wav(wav, seconds=1.0)
        code, payload = run_json(capsys, [
            "decode", "--checkpoint", str(ckpt), "--wav", str(wav),
            "--decoder", "beam", "--beam-width", "8",
        ])
        assert code == 0
        features = feature_normalize(wav_features(wav, FeatureConfig())[0])
        expected = decode(oracle_beam_search(toy_log_probs(ckpt, features), 8), TOY)
        assert expected
        assert payload["transcript"] == expected

    @pytest.mark.parametrize("decoder", ["greedy", "beam"])
    def test_transcript_is_the_recognized_ids(self, tmp_path, capsys, decoder):
        ckpt = tmp_path / "m.ckpt"
        cfg = toy_checkpoint(ckpt, bidirectional=True)
        wav = tmp_path / "in.wav"
        sine_wav(wav, seconds=1.0)
        code, payload = run_json(capsys, [
            "decode", "--checkpoint", str(ckpt), "--wav", str(wav),
            "--decoder", decoder, "--beam-width", "4",
        ])
        assert code == 0
        features = feature_normalize(wav_features(wav, FeatureConfig())[0])
        params = params_from_checkpoint(read_checkpoint(ckpt))
        _, ids = recognize(params, cfg, features, decoder, 4)
        assert ids
        assert payload["transcript"] == decode(ids, TOY)

    def test_other_rate_sets_resampled_flag(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        toy_checkpoint(ckpt)
        wav = tmp_path / "in8k.wav"
        sine_wav(wav, rate=8000)
        code, payload = run_json(capsys, [
            "decode", "--checkpoint", str(ckpt), "--wav", str(wav),
        ])
        assert code == 0
        assert payload["resampled"] is True

    def test_feature_dim_mismatch_is_a_data_error(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        toy_checkpoint(ckpt, feature_dim=5)
        wav = tmp_path / "in.wav"
        sine_wav(wav)
        code = main(["decode", "--checkpoint", str(ckpt), "--wav", str(wav)])
        assert code == 2
        assert "feature dim mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("samples,rate,problem", [
        (None, None, "No such file"),
        (1, 44100, "shorter than one analysis window at 16000 Hz (0 samples, need 400)"),
        (100, 16000, "shorter than one analysis window at 16000 Hz (100 samples, need 400)"),
    ], ids=["missing", "one-sample-44k", "100-samples-16k"])
    def test_unusable_wav_is_a_data_error_naming_it(self, tmp_path, capsys, samples, rate,
                                                     problem):
        ckpt = tmp_path / "m.ckpt"
        toy_checkpoint(ckpt)
        wav = tmp_path / "in.wav"
        if samples:
            save_wav(AudioClip(np.full(samples, 0.25), rate), wav)
        code = main(["decode", "--checkpoint", str(ckpt), "--wav", str(wav)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(wav) in err and problem in err

    @pytest.mark.parametrize("decoder", ["greedy", "beam"])
    def test_non_finite_checkpoint_is_a_data_error(self, tmp_path, capsys, decoder):
        ckpt = tmp_path / "m.ckpt"
        toy_checkpoint(ckpt)
        raw = bytearray(ckpt.read_bytes())
        raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # the last value of dense.b
        ckpt.write_bytes(bytes(raw))
        wav = tmp_path / "in.wav"
        sine_wav(wav)
        code = main(["decode", "--checkpoint", str(ckpt), "--wav", str(wav),
                     "--decoder", decoder, "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert "tensor dense.b holds non-finite values" in captured.err


def experiment_argv(toy_env, out_dir, *extra):
    return [
        "experiment", "--manifest", toy_env["manifest"],
        "--alphabet", toy_env["alphabet"], "--out", str(out_dir),
        "--hidden", "4", "--epochs", "2", "--learning-rate", "0.005",
        "--dropout-keep", "1.0", "--seed", "1", *extra,
    ]


class TestExperimentCommand:
    def test_full_matrix_with_sources(self, tmp_path, toy_env, capsys):
        lstm_src = tmp_path / "lstm.ckpt"
        bilstm_src = tmp_path / "bilstm.ckpt"
        toy_checkpoint(lstm_src, bidirectional=False)
        toy_checkpoint(bilstm_src, bidirectional=True)
        out = tmp_path / "exp"
        code, payload = run_json(capsys, experiment_argv(
            toy_env, out,
            "--source-checkpoint", str(lstm_src),
            "--source-checkpoint", str(bilstm_src),
        ))
        assert code == 0
        assert [s["name"] for s in payload["scenarios"]] == [
            "LSTM", "LSTM with toy model", "BiLSTM", "BiLSTM with toy model",
        ]
        assert payload["columns"] == [
            "RNN type", "Training cost", "Training LER",
            "Validation cost", "Validation LER", "Epochs",
        ]
        assert set(payload["improvements_percent"]) == {"lstm", "bilstm"}
        assert (out / "summary.json").exists()
        for name in ("lstm-random", "lstm-transfer", "bilstm-random", "bilstm-transfer"):
            assert (out / f"{name}.csv").exists()

    def test_human_output_is_a_pipe_table(self, tmp_path, toy_env, capsys):
        code = main(experiment_argv(toy_env, tmp_path / "exp"))
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        header = "RNN type | Training cost | Training LER | Validation cost | Validation LER | Epochs"
        assert lines[0] == header
        assert lines[1].startswith("LSTM | ")
        assert lines[2].startswith("BiLSTM | ")
        assert any(w.startswith("warning: no source checkpoint") for w in lines)

    def test_misfit_source_fails_before_any_training(self, tmp_path, toy_env, capsys):
        src = tmp_path / "lstm.ckpt"
        toy_checkpoint(src, hidden=8)  # the run trains at --hidden 4
        out = tmp_path / "exp"
        code = main(experiment_argv(toy_env, out, "--source-checkpoint", str(src)))
        assert code == 2
        assert "hidden=8" in capsys.readouterr().err
        assert list(out.glob("*.csv")) == []

    def test_out_at_a_regular_file_is_a_data_error(self, tmp_path, toy_env, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("x")
        code = main(experiment_argv(toy_env, blocker))
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_duplicate_arch_sources_rejected(self, tmp_path, toy_env, capsys):
        src = tmp_path / "lstm.ckpt"
        toy_checkpoint(src, bidirectional=False)
        code = main(experiment_argv(
            toy_env, tmp_path / "exp",
            "--source-checkpoint", str(src), "--source-checkpoint", str(src),
        ))
        assert code == 2
        assert "two source checkpoints" in capsys.readouterr().err

    def test_summary_record_layout(self, tmp_path, toy_env, capsys):
        src = tmp_path / "lstm.ckpt"
        toy_checkpoint(src)
        out = tmp_path / "exp"
        assert main(experiment_argv(toy_env, out, "--source-checkpoint", str(src), "--json")) == 0
        payload = strict_json(capsys.readouterr().out)
        summary = strict_json((out / "summary.json").read_text(encoding="utf-8"))
        assert list(summary) == ["scenarios", "improvements_percent", "warnings"]
        assert list(payload) == [*summary, "columns", "summary"]
        assert {key: payload[key] for key in summary} == summary
        metric_names = [f.name for f in fields(MetricsRow)]
        for entry in summary["scenarios"]:
            assert list(entry) == ["name", "arch", "init", "epochs", "final"]
            assert list(entry["final"]) == metric_names
            assert entry["epochs"] == entry["final"]["epoch"] == 2
        assert [(s["arch"], s["init"]) for s in summary["scenarios"]] == [
            ("lstm", "random"), ("lstm", "transfer"), ("bilstm", "random"),
        ]
        assert list(summary["improvements_percent"]) == ["lstm"]
        assert list(summary["improvements_percent"]["lstm"]) == metric_names[1:]

    def test_no_validation_set_writes_null_not_nan(self, tmp_path, toy_env, capsys):
        src = tmp_path / "lstm.ckpt"
        toy_checkpoint(src)
        out = tmp_path / "exp"
        argv = experiment_argv(toy_env, out, "--split", "1,0,0", "--source-checkpoint", str(src))
        assert main([*argv, "--json"]) == 0
        for text in (capsys.readouterr().out, (out / "summary.json").read_text(encoding="utf-8")):
            doc = strict_json(text)
            assert all(s["final"]["val_cost"] is None for s in doc["scenarios"])
            assert doc["improvements_percent"]["lstm"]["val_ler"] is None


@pytest.mark.parametrize("argv", [train_argv, experiment_argv], ids=["train", "experiment"])
def test_mixed_feature_dims_are_a_data_error_before_any_output(tmp_path, toy_env, capsys,
                                                                argv):
    rows = read_manifest(toy_env["manifest"])[:3]
    wide = tmp_path / "wide.mfcc"
    write_feature_cache(np.random.default_rng(0).standard_normal((40, 15)), wide)
    rows.insert(2, ManifestRow(str(wide), "аб"))
    manifest = tmp_path / "mixed.jsonl"
    write_manifest(rows + rows[:2], manifest)
    out = tmp_path / "run"
    code = main(argv({**toy_env, "manifest": str(manifest)}, out))
    assert code == 2
    assert f"{wide}: feature dim 15, but {rows[0].audio} has 13" in capsys.readouterr().err
    assert not out.exists()
