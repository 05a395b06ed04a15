"""Command-line pipeline: prepare, features, train, transfer, evaluate, decode, experiment.

Exit codes: 0 success, 1 usage error, 2 data error (bad or incompatible
inputs), 3 unexpected runtime error. Every nonzero exit prints a diagnostic
to stderr. With --json, stdout carries a single JSON document and nothing
else; human-readable chatter goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import asdict, fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from .frontend import (
    FeatureConfig,
    ManifestRow,
    feature_normalize,
    frame_count,
    load_wav,
    read_feature_cache,
    read_manifest,
    resample,  # unused here; perfbench/tests/test_tracing.py checks ctcx.cli.resample is traced
    resampled_length,
    wav_features,
    within_max_duration,
    write_atomic,
    write_feature_cache,
    write_manifest,
)
from .network import ModelConfig
from .synthetic import SynthConfig, write_corpus
from .text_labels import Alphabet, builtin_alphabet, decode, load_alphabet, normalize_transcript
from .trainer import (
    ARCH_NAMES,
    DECODERS,
    TrainConfig,
    arch_config,
    evaluate,
    load_dataset,
    min_frames_rule,
    recognize,
    run_experiment_matrix,
    split_dataset,
    train,
)
from .transfer import (
    TransferError,
    params_from_checkpoint,
    read_checkpoint,
    save_checkpoint,
    transfer_weights,
    verify_transfer,
)

logger = logging.getLogger("ctcx")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

EXPERIMENT_COLUMNS = (
    "RNN type",
    "Training cost",
    "Training LER",
    "Validation cost",
    "Validation LER",
    "Epochs",
)


class DataError(Exception):
    """Bad or incompatible input data; maps to exit code 2."""


class UsageError(Exception):
    """Structurally valid flags with impossible values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this toolkit reserves 2 for data
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _seed_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _split_arg(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated fractions, got {text!r}")
    return (parts[0], parts[1], parts[2])


def _alphabet_arg(spec: str) -> Alphabet:
    if spec in ("ru", "kk"):
        return builtin_alphabet(spec)
    path = Path(spec)
    if not path.exists():
        raise DataError(f"alphabet {spec!r} is neither built in (ru, kk) nor a readable file")
    return load_alphabet(path)


def _finite(doc):
    """``doc`` with each NaN and infinity replaced by None (JSON null): JSON has no such numbers."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {key: _finite(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(value) for value in doc]
    return doc


def _write_json(doc: dict, path=None) -> None:
    """Write ``doc`` as indented UTF-8 JSON and a final newline, to ``path`` or else stdout."""
    text = json.dumps(_finite(doc), ensure_ascii=False, indent=2, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        write_atomic(path, text.encode("utf-8"))


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is then: each ``main`` call logs to its own."""

    def __init__(self):
        logging.Handler.__init__(self)  # no stream of its own

    @property
    def stream(self):
        return sys.stderr


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        _write_json(payload)
    elif human:
        print(human)


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def _frame_count_for_row(row: ManifestRow, cfg: FeatureConfig) -> tuple[int, float]:
    """(frames, duration seconds) for a manifest row, from its checked cache or WAV file."""
    path = Path(row.audio)
    if path.suffix == ".mfcc":
        t = len(read_feature_cache(path))
        duration = row.duration_s if row.duration_s is not None else t * cfg.hop_ms / 1000.0
        return t, duration
    clip = load_wav(path)
    n = resampled_length(len(clip.samples), clip.sample_rate_hz, cfg.sample_rate_hz)
    return frame_count(n, cfg), clip.duration_s


def cmd_prepare(args) -> int:
    if args.feature_dir and args.synthetic is None:
        raise UsageError("--feature-dir is only for --synthetic")
    alphabet = _alphabet_arg(args.alphabet)
    cfg = FeatureConfig()

    if args.synthetic is not None:
        feature_dir = Path(args.feature_dir) if args.feature_dir else Path(args.out).parent / "features"
        try:
            synth_cfg = SynthConfig(noise_scale=args.noise_scale, proto_seed=args.proto_seed)
        except ValueError as e:
            raise UsageError(str(e)) from None
        rows = write_corpus(feature_dir, alphabet, args.synthetic, args.seed, synth_cfg)
    else:
        if args.manifest is None:
            raise DataError("either --manifest or --synthetic is required")
        rows = read_manifest(args.manifest)

    kept = []
    dropped: dict[str, int] = {}

    def drop(reason: str) -> None:
        dropped[reason] = dropped.get(reason, 0) + 1

    for row in rows:
        text = normalize_transcript(row.text, alphabet)
        if not text:
            drop("empty transcript")
            continue
        try:
            frames, duration = _frame_count_for_row(row, cfg)
        except (OSError, ValueError) as e:
            logger.warning("dropping %s: %s", row.audio, e)
            drop("unreadable audio")
            continue
        if not within_max_duration(duration):
            drop("duration")
            continue
        if min_frames_rule(len(text)) > frames:
            drop("transcript too long for frame count")
            continue
        kept.append(ManifestRow(row.audio, text, round(duration, 6)))

    if not kept:
        raise DataError(f"no usable rows ({sum(dropped.values())} dropped: {dropped})")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_manifest(kept, args.out)

    human = [f"kept {len(kept)} rows -> {args.out}"]
    for reason, count in sorted(dropped.items()):
        human.append(f"dropped {count} (reason: {reason})")
    _emit(args, {"kept": len(kept), "dropped": dropped, "out": str(args.out)}, "\n".join(human))
    return EXIT_OK


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


def cmd_features(args) -> int:
    cfg = FeatureConfig()
    rows = read_manifest(args.manifest)
    out_dir = Path(args.out_dir)

    # every feature file the output manifest names -> (its path, the one file
    # it comes from): a cache row names itself, a WAV its cache in out_dir
    table = {}
    out_rows = []
    for row in rows:
        src = Path(row.audio)
        cache = src if src.suffix == ".mfcc" else out_dir / (src.stem + ".mfcc")
        _, other = table.setdefault(cache.resolve(), (cache, src))
        if other.resolve() != src.resolve():
            raise DataError(f"{other} and {src} would both be cached as {cache}")
        out_rows.append(row if cache == src else replace(row, audio=str(cache)))

    out_dir.mkdir(parents=True, exist_ok=True)
    written = skipped = 0
    failures = []
    # one file at a time, in this thread: each MFCC's matrix products already
    # run on BLAS threads, and extraction threads on top oversubscribe the CPUs
    for cache, src in table.values():
        try:
            if cache == src:
                read_feature_cache(cache)
                skipped += 1
            elif _cache_is_fresh(cache, src):
                skipped += 1
            else:
                values, _ = wav_features(src, cfg)
                write_feature_cache(values, cache)
                written += 1
        except Exception as e:  # collected per file, reported in bulk
            failures.append({"audio": str(src), "error": f"{type(e).__name__}: {e}"})

    out_manifest = args.out_manifest or str(out_dir / "manifest.jsonl")
    Path(out_manifest).parent.mkdir(parents=True, exist_ok=True)
    write_manifest(out_rows, out_manifest)

    payload = {
        "written": written,
        "skipped": skipped,
        "failed": failures,
        "manifest": out_manifest,
    }
    _emit(args, payload, f"wrote {written} feature files, skipped {skipped} cached")
    if failures:
        for f in failures:
            print(f"ctcx: failed {f['audio']}: {f['error']}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _cache_is_fresh(cache: Path, src: Path) -> bool:
    """A cache ``read_feature_cache`` accepts that is not older than its WAV."""
    try:
        read_feature_cache(cache)
        return cache.stat().st_mtime >= src.stat().st_mtime
    except (OSError, ValueError):  # missing or unreadable: extract again
        return False


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _train_config_from_args(args) -> TrainConfig:
    """``TrainConfig`` from the parsed flags; each training flag's dest is a field name."""
    values = {f.name: getattr(args, f.name) for f in fields(TrainConfig)}
    if args.strict_paper:
        values["grad_clip_norm"] = None
    try:
        return TrainConfig(**values)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _load_utterances(manifest_path, alphabet: Alphabet):
    rows = read_manifest(manifest_path)
    if not rows:
        raise DataError(f"{manifest_path}: empty manifest")
    utterances, dropped = load_dataset(rows, alphabet)
    if not utterances:
        raise DataError(f"{manifest_path}: no loadable utterances ({len(dropped)} dropped)")
    return utterances


def cmd_train(args) -> int:
    alphabet = _alphabet_arg(args.alphabet)
    cfg = _train_config_from_args(args)
    utterances = _load_utterances(args.manifest, alphabet)

    model_cfg = arch_config(args.arch, utterances[0].features.shape[1], alphabet, args.hidden)

    params = None
    if args.init == "transfer":
        source = read_checkpoint(args.source_checkpoint)
        try:
            params, report = transfer_weights(source, model_cfg, alphabet, cfg.seed)
        except TransferError as e:
            raise DataError(f"source checkpoint incompatible: {e}") from None
        logger.info(
            "transfer: copied %d tensors, reinitialized %s",
            len(report.copied), ", ".join(report.reinitialized),
        )

    if args.no_split:
        train_set, val_set = utterances, []
    else:
        train_set, val_set, _ = split_dataset(utterances, cfg.split, cfg.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    params, rows = train(train_set, val_set, alphabet, model_cfg, cfg, params, metrics_path)

    checkpoint_path = out_dir / "model.ckpt"
    save_checkpoint(params, model_cfg, alphabet, checkpoint_path)

    final = rows[-1]
    payload = {
        "checkpoint": str(checkpoint_path),
        "metrics": str(metrics_path),
        "train_utterances": len(train_set),
        "val_utterances": len(val_set),
        "final": asdict(final),
    }
    human = (
        f"trained {args.arch} ({args.init} init) for {cfg.epochs} epochs\n"
        f"final {final.summary(6)}\n"
        f"checkpoint: {checkpoint_path}\nmetrics: {metrics_path}"
    )
    _emit(args, payload, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------


def cmd_transfer(args) -> int:
    report_path = args.report or str(Path(args.out).with_suffix(".report.json"))
    for flag, other in (("--out", args.out), ("--source", args.source)):
        if Path(report_path).resolve() == Path(other).resolve():
            raise UsageError(f"report {report_path} is the same file as {flag} {other}")
    source = read_checkpoint(args.source)
    target_alphabet = _alphabet_arg(args.target_alphabet)
    src_cfg = source.model_config
    target_cfg = replace(src_cfg, num_classes=target_alphabet.num_classes)

    params, report = transfer_weights(source, target_cfg, target_alphabet, args.seed)

    rng = np.random.default_rng(args.seed)
    probes = [rng.standard_normal((20, src_cfg.feature_dim)) for _ in range(args.verify_probes)]
    verify = verify_transfer(params_from_checkpoint(source), params, target_cfg, probes)

    for path in (args.out, report_path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, target_cfg, target_alphabet, args.out)
    report_doc = {
        "source": str(args.source),
        "target_alphabet": target_alphabet.name,
        "out": str(args.out),
        "report": asdict(report),
        "verify": asdict(verify),
    }
    _write_json(report_doc, report_path)

    human = (
        f"copied {len(report.copied)} recurrent tensors, "
        f"reinitialized {len(report.reinitialized)} (dense head)\n"
        f"verify max abs deviation: {verify.max_abs_deviation:g}\n"
        f"target checkpoint: {args.out}\nreport: {report_path}"
    )
    _emit(args, report_doc, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate / decode
# ---------------------------------------------------------------------------


def cmd_evaluate(args) -> int:
    ckpt = read_checkpoint(args.checkpoint)
    params = params_from_checkpoint(ckpt)
    utterances = _load_utterances(args.manifest, ckpt.alphabet)
    cost, ler = evaluate(params, ckpt.model_config, utterances, args.decoder, args.beam_width)
    payload = {
        "utterances": len(utterances),
        "avg_cost": cost,
        "ler": ler,
        "decoder": args.decoder,
    }
    _emit(args, payload, f"utterances: {len(utterances)}\navg cost: {cost:.6f}\nLER: {ler:.6f}")
    return EXIT_OK


def cmd_decode(args) -> int:
    ckpt = read_checkpoint(args.checkpoint)
    params = params_from_checkpoint(ckpt)
    cfg = FeatureConfig()

    raw, resampled = wav_features(args.wav, cfg)
    if resampled:
        logger.info("resampled %s to %d Hz", args.wav, cfg.sample_rate_hz)
    values = feature_normalize(raw)
    _, ids = recognize(params, ckpt.model_config, values, args.decoder, args.beam_width)
    transcript = decode(ids, ckpt.alphabet)

    _emit(args, {"transcript": transcript, "resampled": resampled, "frames": int(values.shape[0])},
          transcript)
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def cmd_experiment(args) -> int:
    alphabet = _alphabet_arg(args.alphabet)
    cfg = _train_config_from_args(args)
    utterances = _load_utterances(args.manifest, alphabet)

    sources = {}
    for path in args.source_checkpoint or []:
        ckpt = read_checkpoint(path)
        arch = "bilstm" if ckpt.model_config.bidirectional else "lstm"
        if arch in sources:
            raise DataError(f"two source checkpoints for {arch}: {path}")
        sources[arch] = ckpt

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_experiment_matrix(
        utterances, alphabet, cfg, hidden=args.hidden,
        source_checkpoints=sources, metrics_dir=out_dir,
    )

    summary_path = out_dir / "summary.json"
    summary = asdict(result)
    _write_json(summary, summary_path)

    lines = [" | ".join(EXPERIMENT_COLUMNS)]
    for s in result.scenarios:
        values = map(repr, s.final.metrics().values())
        lines.append(" | ".join([s.name, *values, str(s.epochs)]))
    # the table's metric columns are in MetricsRow order, as are the improvements
    labels = [column[0].lower() + column[1:] for column in EXPERIMENT_COLUMNS[1:-1]]
    for arch, imp in result.improvements_percent.items():
        gains = ", ".join(f"{label} {value:.1f}%" for label, value in zip(labels, imp.values()))
        lines.append(f"{arch} transfer improvement: {gains}")
    for w in result.warnings:
        lines.append(f"warning: {w}")

    payload = {**summary, "columns": list(EXPERIMENT_COLUMNS), "summary": str(summary_path)}
    _emit(args, payload, "\n".join(lines))
    if not args.json:
        print(f"summary: {summary_path}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _add_train_flags(p: _Parser):
    """Add the ``TrainConfig`` flags and ``--hidden``; returns the group that holds ``--split``."""
    defaults = TrainConfig()
    p.add_argument("--learning-rate", type=float, default=defaults.learning_rate)
    p.add_argument("--momentum", type=float, default=defaults.momentum)
    p.add_argument("--batch-size", type=_positive_int, default=defaults.batch_size)
    p.add_argument("--epochs", type=_positive_int, default=defaults.epochs)
    p.add_argument("--dropout-keep", type=float, default=defaults.dropout_keep)
    splitting = p.add_mutually_exclusive_group()
    splitting.add_argument("--split", type=_split_arg, default=defaults.split,
                           help="train,val,test fractions "
                                f"(default {','.join(map(str, defaults.split))})")
    clipping = p.add_mutually_exclusive_group()
    clipping.add_argument("--grad-clip-norm", type=float, default=defaults.grad_clip_norm)
    clipping.add_argument("--strict-paper", action="store_true",
                          help="disable gradient clipping; train with the bare defaults")
    p.add_argument("--seed", type=_seed_arg, default=defaults.seed)
    p.add_argument("--eval-decoder", choices=DECODERS, default=defaults.eval_decoder)
    p.add_argument("--beam-width", type=_positive_int, default=defaults.beam_width)
    p.add_argument("--hidden", type=_positive_int, default=ModelConfig.hidden)
    return splitting


@cache
def build_parser() -> _Parser:
    """The ``ctcx`` parser, built once per process; callers only parse with it.

    It names the subcommand in ``args.command``, and ``main`` looks up its
    ``cmd_*`` function on every call, so a function replaced on this module
    after the first call (as a tracer does) is the one that runs.
    """
    parser = _Parser(prog="ctcx", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output on stdout")
        return p

    p = add("prepare", "normalize transcripts and filter a manifest")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--manifest", help="input manifest (JSON lines)")
    p.add_argument("--alphabet", required=True, help="ru, kk, or an alphabet file")
    p.add_argument("--out", required=True, help="cleaned manifest path")
    source.add_argument("--synthetic", type=_positive_int, default=None,
                        help="generate N synthetic utterances instead of reading --manifest")
    p.add_argument("--feature-dir", help="where synthetic feature files go")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--noise-scale", type=float, default=SynthConfig.noise_scale)
    p.add_argument("--proto-seed", type=_seed_arg, default=SynthConfig.proto_seed)

    p = add("features", "extract MFCC cache files for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--out-manifest", help="rewritten manifest path (default: out-dir/manifest.jsonl)")

    p = add("train", "train a recognizer")
    p.add_argument("--manifest", required=True)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--arch", choices=tuple(ARCH_NAMES), default="bilstm")
    p.add_argument("--init", choices=("random", "transfer"), default="random")
    p.add_argument("--source-checkpoint", help="required with --init transfer, refused without")
    p.add_argument("--out", required=True, help="output directory")
    _add_train_flags(p).add_argument("--no-split", action="store_true",
                                     help="train on every utterance; no validation split")

    p = add("transfer", "copy recurrent weights to a new alphabet")
    p.add_argument("--source", required=True, help="source checkpoint")
    p.add_argument("--target-alphabet", required=True)
    p.add_argument("--out", required=True, help="target checkpoint path")
    p.add_argument("--report", help="report JSON path (default: out with .report.json)")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--verify-probes", type=_positive_int, default=3)

    p = add("evaluate", "cost and label error rate on a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--decoder", choices=DECODERS, default=TrainConfig.eval_decoder)
    p.add_argument("--beam-width", type=_positive_int, default=TrainConfig.beam_width)

    p = add("decode", "transcribe one WAV file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--decoder", choices=DECODERS, default=TrainConfig.eval_decoder)
    p.add_argument("--beam-width", type=_positive_int, default=TrainConfig.beam_width)

    p = add("experiment", "run the 4-scenario training matrix")
    p.add_argument("--manifest", required=True)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--source-checkpoint", action="append",
                   help="source checkpoint; repeat for the second architecture")
    p.add_argument("--out", required=True, help="directory for metrics CSVs and summary JSON")
    _add_train_flags(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, handlers=[_StderrHandler()],
                        format="%(levelname)s %(name)s: %(message)s")

    if getattr(args, "init", None) and (args.init == "transfer") != bool(args.source_checkpoint):
        parser.error("--init transfer and --source-checkpoint go together")

    try:
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as e:
        parser.error(str(e))  # exits with EXIT_USAGE
        raise AssertionError("unreachable")
    except (DataError, OSError, ValueError) as e:
        print(f"ctcx: data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # anything unexpected
        print(f"ctcx: runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
