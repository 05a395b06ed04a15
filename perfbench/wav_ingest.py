"""wav-ingest: WAV files through ``ctcx prepare``, ``features`` and ``decode``.

Set-up writes PCM16 WAVs at 8, 16, 22.05 and 44.1 kHz: an ingest set of
eight clips of 1 to 15 s, two rows past the 15 s limit, three malformed
files, and 32 short clips for ``decode``, eight at each rate, plus an
untrained Kazakh BiLSTM checkpoint at decode-kk's geometry (H=128, the
library default). Durations, rates and file order are a fixed grid and the
seed draws the signals, the transcripts and which malformed kinds appear,
so every seed asks for the same amount of resampling. One measured cycle
runs ``prepare`` and a cold ``features`` pass into a fresh directory, then
a warm pass over the same directory that must write nothing, then ``ctcx
decode`` on a quarter of the short clips, two at each rate, and on every
malformed file; four cycles decode every clip once. This is the only
workload that runs the audio frontend and the CLI; it mixes cache writes
with cache hits, rejected input with good input, and 16 kHz clips that skip
resampling.
"""
from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from ctcx import frontend, network, transfer
from ctcx.text_labels import KAZAKH_LETTERS, builtin_alphabet
from common import run_cli, timed
from decode_kk import HIDDEN
from stats import median

KK = builtin_alphabet("kk")
RATES = (44100, 22050, 8000, 16000)
# (seconds, rate) of the clips prepare keeps; each rate gets short and long clips
INGEST_CLIPS = tuple(zip((1.0, 1.5, 2.2, 3.3, 5.0, 7.0, 10.0, 14.5), RATES * 2))
OVERLONG_CLIPS = ((16.0, 16000), (19.0, 8000))
# short clips for decode, the same number at each rate
DECODE_CLIPS_PER_RATE = 8
# cycle i decodes the clips at positions i % DECODE_SUBSETS + k * DECODE_SUBSETS
DECODE_SUBSETS = 4
DECODE_SECONDS = (1.0, 1.3)
MALFORMED_KINDS = ("truncated", "stereo", "8-bit", "not-riff", "float")
MALFORMED_COUNT = 3


def _signal(rng, seconds: float, rate: int) -> frontend.AudioClip:
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    tones = rng.uniform(120.0, 3500.0, size=3)
    x = sum(0.2 * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi)) for f in tones)
    x = x * (0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(1.0, 4.0) * t))
    x = x + 0.02 * rng.standard_normal(n)
    return frontend.AudioClip(np.clip(x, -1.0, 1.0), rate)


def _transcript(rng) -> str:
    words = [
        "".join(rng.choice(list(KAZAKH_LETTERS), size=int(rng.integers(3, 7))))
        for _ in range(int(rng.integers(1, 3)))
    ]
    return " ".join(words)


def _malformed_bytes(kind: str, good: bytes) -> bytes:
    raw = bytearray(good)
    if kind == "truncated":
        return bytes(raw[: len(raw) // 2])
    if kind == "stereo":
        struct.pack_into("<H", raw, 22, 2)
    elif kind == "8-bit":
        struct.pack_into("<H", raw, 34, 8)
    elif kind == "not-riff":
        raw[0:4] = b"JUNK"
    elif kind == "float":
        struct.pack_into("<H", raw, 20, 3)
    return bytes(raw)


def _expected_samples(seconds: float, rate: int, target: int) -> int:
    n = int(round(seconds * rate))
    return n if rate == target else int(round(n * target / rate))


def setup(ctx, base) -> dict:
    """Write this workload's inputs under the fresh directory base."""
    wavs = base / "wav"
    wavs.mkdir(parents=True)
    rng = ctx.rng(1)
    rows, good, overlong, malformed = [], [], [], []
    for i, (seconds, rate) in enumerate(INGEST_CLIPS):
        path = wavs / f"clip{i:02d}.wav"
        frontend.save_wav(_signal(rng, seconds, rate), path)
        rows.append(frontend.ManifestRow(str(path), _transcript(rng)))
        good.append((str(path), seconds, rate))
    for i, (seconds, rate) in enumerate(OVERLONG_CLIPS):
        path = wavs / f"long{i}.wav"
        frontend.save_wav(_signal(rng, seconds, rate), path)
        rows.append(frontend.ManifestRow(str(path), _transcript(rng)))
        overlong.append(str(path))
    template = Path(good[0][0]).read_bytes()
    for kind in rng.choice(MALFORMED_KINDS, size=MALFORMED_COUNT, replace=False):
        path = wavs / f"bad-{kind}.wav"
        path.write_bytes(_malformed_bytes(str(kind), template))
        rows.append(frontend.ManifestRow(str(path), _transcript(rng)))
        malformed.append(str(path))
    manifest = base / "raw.jsonl"
    frontend.write_manifest(rows, manifest)
    # features sees the good rows plus the malformed ones, as a raw file list would
    listing = base / "features.jsonl"
    frontend.write_manifest([r for r in rows if r.audio not in overlong], listing)

    decode = []
    for rate in RATES:
        for seconds in np.linspace(*DECODE_SECONDS, DECODE_CLIPS_PER_RATE):
            path = wavs / f"short{len(decode):02d}.wav"
            frontend.save_wav(_signal(rng, float(seconds), rate), path)
            decode.append((str(path), float(seconds), rate))

    cfg = network.ModelConfig(feature_dim=13, num_classes=KK.num_classes, hidden=HIDDEN,
                              num_layers=2, bidirectional=True, seed=ctx.subseed(2))
    checkpoint = base / "kk.ckpt"
    transfer.save_checkpoint(network.init_params(cfg), cfg, KK, checkpoint)
    return {"dir": base, "manifest": manifest, "listing": listing, "good": good,
            "overlong": overlong, "malformed": malformed, "decode": decode,
            "checkpoint": checkpoint}


def _features(listing, out_dir) -> tuple[int, dict]:
    """One ``ctcx features`` call; returns (exit code, its JSON report)."""
    code, out = run_cli(["features", "--json", "--manifest", listing, "--out-dir", out_dir])
    return code, json.loads(out) if out.strip() else {}


def _prepare_and_extract(state, prepared, out_dir):
    """The timed part of an ingest pass: ``prepare``, then a cold ``features`` pass."""
    prepare = run_cli(["prepare", "--json", "--manifest", state["manifest"], "--alphabet", "kk",
                       "--out", prepared])
    return prepare, _features(state["listing"], out_dir)


def _cache_path(out_dir, wav: str):
    return out_dir / (os.path.splitext(os.path.basename(wav))[0] + ".mfcc")


def _check_caches(ctx, state, out_dirs) -> None:
    """Frame counts against the resampled length; values against the extractor.

    The first pass is checked against a fresh extraction; every later pass
    must have written byte-identical files.
    """
    cfg = frontend.FeatureConfig()
    first = out_dirs[0]
    for path, seconds, rate in state["good"]:
        values = frontend.read_feature_cache(_cache_path(first, path))
        n = _expected_samples(seconds, rate, cfg.sample_rate_hz)
        ctx.tally.check(values.shape == (frontend.frame_count(n, cfg), cfg.n_mfcc),
                        "cache frame count matches the resampled length")
        clip = frontend.load_wav(path)
        if clip.sample_rate_hz != cfg.sample_rate_hz:
            clip = frontend.resample(clip, cfg.sample_rate_hz)
        expected = frontend.mfcc(clip, cfg).values.astype(np.float32).astype(np.float64)
        ctx.tally.check(np.array_equal(values, expected),
                        "cache reads back as the extractor output in float32")
        data = _cache_path(first, path).read_bytes()
        for other in out_dirs[1:]:
            ctx.tally.check(_cache_path(other, path).read_bytes() == data,
                            "every cold pass writes the same cache bytes")


def _ingest_pass(ctx, state, base) -> float:
    """prepare + cold features + warm features into base.

    Returns the seconds of prepare and the cold pass; the warm pass is
    checked, not timed.
    """
    base.mkdir()
    prepared = base / "prepared.jsonl"
    out_dir = base / "features"
    ((code, out), (cold_code, cold)), seconds = timed(_prepare_and_extract, state, prepared,
                                                      out_dir)
    report = json.loads(out) if code == 0 else {}
    kept_rows = frontend.read_manifest(prepared) if code == 0 else []
    ctx.tally.check(code == 0, "prepare exits 0")
    ctx.tally.check({r.audio for r in kept_rows} == {p for p, _, _ in state["good"]},
                    "prepare keeps the good clips")
    ctx.tally.check(report.get("dropped") == {"unreadable audio": len(state["malformed"]),
                                              "duration": len(state["overlong"])},
                    "prepare drops malformed and overlong rows with their reasons")
    rows = len(state["good"]) + len(state["overlong"]) + len(state["malformed"])
    ctx.layer_values["cli.prepare.kept_ratio"] = report.get("kept", 0) / rows

    bad = set(state["malformed"])
    ctx.tally.check(cold_code == 2, "cold features exits 2 on malformed input")
    ctx.tally.check({f["audio"] for f in cold.get("failed", [])} == bad,
                    "cold features reports exactly the malformed files")
    ctx.tally.check(cold.get("written") == len(state["good"]), "cold features writes every cache")

    stamps = {p.name: p.stat().st_mtime_ns for p in out_dir.glob("*.mfcc")}
    code, warm = _features(state["listing"], out_dir)
    ctx.tally.check(code == 2, "warm features exits 2 on malformed input")
    ctx.tally.check(warm.get("written") == 0, "warm features writes no file")
    ctx.tally.check({p.name: p.stat().st_mtime_ns for p in out_dir.glob("*.mfcc")} == stamps,
                    "warm features leaves every cache untouched")
    ctx.tally.check({f["audio"] for f in warm.get("failed", [])} == bad,
                    "warm features reports exactly the malformed files")
    hits = warm.get("skipped", 0) / max(1, cold.get("written", 0))
    ctx.layer_values["cli.features.cache_hit_ratio"] = hits
    return seconds


def _decode_cycle(ctx, state, subset: int, latencies: list) -> None:
    """``ctcx decode`` on one subset of the short clips, then on every malformed file."""
    cfg = frontend.FeatureConfig()
    clips = list(enumerate(state["decode"]))[subset::DECODE_SUBSETS]
    for i, (path, seconds, rate) in clips:
        (code, out), took = timed(run_cli, ["decode", "--json", "--checkpoint",
                                            state["checkpoint"], "--wav", path])
        latencies[i].append(took)
        doc = json.loads(out) if code == 0 else {}
        n = _expected_samples(seconds, rate, cfg.sample_rate_hz)
        ctx.tally.check(code == 0 and doc.get("frames") == frontend.frame_count(n, cfg)
                        and doc.get("resampled") == (rate != cfg.sample_rate_hz)
                        and set(doc.get("transcript", "")) <= set(KK.symbols),
                        "decode transcribes a good clip")
    for path in state["malformed"]:
        code, _ = run_cli(["decode", "--json", "--checkpoint", state["checkpoint"],
                           "--wav", path])
        ctx.tally.check(code == 2, "decode exits 2 on a malformed file")


def measure(ctx, state) -> dict:
    passes = []  # seconds of prepare + cold features in each cycle
    out_dirs = []
    latencies = [[] for _ in state["decode"]]  # seconds of each clip's decode calls

    def cycle(index: int) -> None:
        base = state["dir"] / f"pass{index}"
        passes.append(_ingest_pass(ctx, state, base))
        out_dirs.append(base / "features")
        _decode_cycle(ctx, state, index % DECODE_SUBSETS, latencies)

    cycles = {"cycle": ctx.closed_loop(cycle)}
    # clips of subsets that no cycle reached (a run of fewer than four cycles)
    for subset in range(len(cycles["cycle"]), DECODE_SUBSETS):
        _decode_cycle(ctx, state, subset, latencies)
    _check_caches(ctx, state, out_dirs)

    audio = sum(seconds for _, seconds, _ in state["good"])
    # per clip, the median of its cycles
    clip_ms = [1000.0 * median(seconds) for seconds in latencies]
    ctx.add_latency_figures("cli_decode_ms", clip_ms)
    return {"audio_s_per_s": audio / median(passes), "utt_ms": sum(clip_ms) / len(clip_ms),
            "cycles": cycles}
