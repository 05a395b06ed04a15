"""Benchmark for ctcx: three closed-loop workloads, end-to-end and per-layer metrics.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload transfer-desk --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps every layer function and reports the per-layer metrics.
``--report`` runs every workload untraced and traced and prints every metric
by name with its unit, the expected-outcome failures and the tracing overhead.

The program is imported from ``src/`` next to this directory; generated
inputs, outputs and traces go to ``.perfbench/`` there.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("transfer-desk", "decode-kk", "wav-ingest")
# set-up is repeated at least SETUP_REPEATS times and for SETUP_MIN_S seconds
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 50
# claims made with other seeds must also hold on this one
HELD_OUT_SEED = 90210


def _limit_threads() -> None:
    """Pin every thread pool to the CPUs this process may run on."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > cores:
            os.environ[var] = str(cores)
    # ctcx's own pool defaults to min(8, cpu_count()), which ignores affinity
    os.environ["CTCX_THREADS"] = str(cores)


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "ctcx" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ctcx sources under {src}")
    sys.path.insert(0, str(src))
    import ctcx

    if Path(ctcx.__file__).resolve().parent != (src / "ctcx").resolve():
        raise SystemExit(f"perfbench: ctcx imported from {ctcx.__file__}, not from {src}")


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    from tracing import LAYER_FUNCTIONS

    names = []
    for _, _, span, _ in LAYER_FUNCTIONS:
        if span == "trainer.clip_gradients":
            continue
        per = "setup" if span in SETUP_LAYERS else "cycle"
        names += [(f"{span}.calls", f"calls/{per}", "lower"),
                  (f"{span}.self_s", f"s/{per}", "lower"), (f"{span}.ms_per_call", "ms", "lower")]
    return names + [(n, u, b) for n, u, b in EXTRA_LAYER_METRICS]


# layers that run only in set-up: their calls and times are those of one set-up
SETUP_LAYERS = ("synthetic.make_corpus", "frontend.read_feature_cache")

EXTRA_LAYER_METRICS = (
    ("network.forward.frames_per_s", "1/s", "higher"),
    ("network.backward.frames_per_s", "1/s", "higher"),
    ("ctc.ctc_forward_backward.frames_per_s", "1/s", "higher"),
    ("ctc.beam_search_decode.frames_per_s", "1/s", "higher"),
    ("trainer.clipped_steps", "steps/cycle", "lower"),
    ("trainer.skipped_steps", "steps/cycle", "lower"),
    ("transfer.read_checkpoint.mb_per_s", "MB/s", "higher"),
    ("transfer.write_checkpoint.mb_per_s", "MB/s", "higher"),
    ("transfer.verify_transfer.max_abs_deviation", "abs", "lower"),
    ("frontend.resample.audio_s_per_s", "s/s", "higher"),
    ("frontend.mfcc.audio_s_per_s", "s/s", "higher"),
    ("frontend.load_wav.audio_s_per_s", "s/s", "higher"),
    ("cli.features.parallel_efficiency", "ratio", "higher"),
    ("cli.features.cache_hit_ratio", "ratio", "higher"),
    ("cli.prepare.kept_ratio", "ratio", "higher"),
    ("trainer.transfer_gain_pct", "%", "higher"),
    ("ctc.beam_ler", "ratio", "lower"),
)

END_TO_END = (
    ("setup_s", "s"),
    ("audio_s_per_s", "s/s"),
    ("utt_ms", "ms"),
)


def _layer_metrics(spans: dict, measured: dict, workers: int, cycles: int) -> dict:
    """Per-layer values from the spans of one set-up and ``cycles`` measured cycles.

    ``spans`` maps a phase ("setup", "cycle") to its spans. Calls, self
    seconds and step counts are per cycle (per set-up for SETUP_LAYERS), so
    for unchanged code the counts repeat exactly however many cycles fit in
    the run; every other figure comes from the cycles alone.
    """
    from tracing import summarize, worker_busy

    rows = summarize(spans.get("cycle", []))
    setup_rows = summarize(spans.get("setup", []))
    values = {}
    for name, _, _ in per_layer_names():
        span, _, field = name.rpartition(".")
        row, per = (setup_rows.get(span), 1) if span in SETUP_LAYERS else (rows.get(span), cycles)
        if field in ("calls", "self_s", "ms_per_call"):
            if row is None or not row["calls"]:
                values[name] = 0.0
            elif field == "calls":
                values[name] = row["calls"] / per
            elif field == "self_s":
                values[name] = row["self_s"] / per
            else:
                values[name] = 1000.0 * row["total_s"] / row["calls"]

    def rate(span, key, scale=1.0):
        row = rows.get(span)
        if row is None or not row["total_s"]:
            return 0.0
        return row["work"].get(key, 0.0) * scale / row["total_s"]

    for span in ("network.forward", "network.backward", "ctc.ctc_forward_backward",
                 "ctc.beam_search_decode"):
        values[f"{span}.frames_per_s"] = rate(span, "frames")
    for span in ("transfer.read_checkpoint", "transfer.write_checkpoint"):
        values[f"{span}.mb_per_s"] = rate(span, "bytes", 1e-6)
    for span in ("frontend.resample", "frontend.mfcc", "frontend.load_wav"):
        values[f"{span}.audio_s_per_s"] = rate(span, "audio_s")
    step = rows.get("trainer.momentum_step")
    clip = rows.get("trainer.clip_gradients")
    values["trainer.skipped_steps"] = step["work"].get("skipped", 0.0) / cycles if step else 0.0
    values["trainer.clipped_steps"] = clip["work"].get("clipped", 0.0) / cycles if clip else 0.0
    verify = rows.get("transfer.verify_transfer")
    values["transfer.verify_transfer.max_abs_deviation"] = (
        verify["work"].get("deviation", 0.0) if verify else 0.0)
    busy, wall = worker_busy(spans.get("cycle", []), "cli.features")
    values["cli.features.parallel_efficiency"] = busy / (wall * workers) if wall else 0.0
    for name in ("cli.features.cache_hit_ratio", "cli.prepare.kept_ratio",
                 "trainer.transfer_gain_pct", "ctc.beam_ler"):
        values[name] = float(measured.get(name, 0.0))
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up several times, measure once; returns every figure of the run."""
    import common
    import decode_kk
    import transfer_desk
    import wav_ingest
    from reference import kernel_ms
    from stats import median
    from tracing import Tracer

    module = {"transfer-desk": transfer_desk, "decode-kk": decode_kk,
              "wav-ingest": wav_ingest}[name]
    workdir = ROOT / ".perfbench" / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    load_before = os.getloadavg()
    reference_before = kernel_ms()
    # records only the first set-up and the measured cycles
    tracer = Tracer().install() if trace else None
    ctx = common.Context(seed=seed, seconds=seconds, workdir=workdir, tally=common.Tally(),
                         tracer=tracer)
    try:
        setups = []
        while len(setups) < SETUP_MAX_REPEATS and (
                len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S):
            base = workdir / f"setup{len(setups)}"
            if setups:  # only the last set-up's inputs are measured
                shutil.rmtree(workdir / f"setup{len(setups) - 1}")
            # only the first set-up is traced
            with tracer.recording("setup") if trace and not setups else contextlib.nullcontext():
                state, took = common.timed(module.setup, ctx, base)
            setups.append(took)
        result, measure_s = common.timed(module.measure, ctx, state)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    reference_after = kernel_ms()

    end_to_end = {
        "setup_s": median(setups),
        "audio_s_per_s": result["audio_s_per_s"],
        "utt_ms": result["utt_ms"],
    }
    run = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "end_to_end": end_to_end,
        "figures": ctx.figures,
        "attempted": ctx.tally.attempted, "failed": ctx.tally.failed,
        "failures": ctx.tally.failures,
        "cycles": {k: len(v) for k, v in result["cycles"].items()},
        "setups": len(setups),
        "measure_s": measure_s,
        "provenance": dict(common.provenance(ROOT),
                           loadavg_before=load_before, loadavg_after=os.getloadavg(),
                           reference_ms_before=reference_before,
                           reference_ms_after=reference_after),
    }
    if trace:
        workers = int(os.environ["CTCX_THREADS"])
        run["per_layer"] = _layer_metrics(tracer.spans, ctx.layer_values, workers, ctx.cycles)
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        run["trace_file"] = str(traces / f"{name}-seed{seed}.json")
        tracer.dump(run["trace_file"], {k: run[k] for k in ("workload", "seed", "provenance")})
    return run


def _print_human(run: dict, out=sys.stdout) -> None:
    print(f"# {run['workload']} seed={run['seed']} seconds={run['seconds']} "
          f"trace={int(run['trace'])} cycles={run['cycles']} setups={run['setups']}", file=out)
    print("# provenance " + json.dumps(run["provenance"], sort_keys=True), file=out)
    ratio = run["failed"] / run["attempted"]
    print(f"# failed_ops_ratio {ratio:.6g} ({run['failed']}/{run['attempted']})", file=out)
    for failure in run["failures"]:
        print(f"# FAILED: {failure}", file=out)
    for name, (value, unit) in sorted(run["figures"].items()):
        print(f"# figure {name} = {value:.6g} {unit}", file=out)


def _result_line(run: dict) -> str:
    if run["trace"]:
        units = {n: u for n, u, _ in per_layer_names()}
        metrics = {n: {"value": v, "unit": units[n]} for n, v in run["per_layer"].items()}
    else:
        units = dict(END_TO_END)
        metrics = {n: {"value": v, "unit": units[n]} for n, v in run["end_to_end"].items()}
    return json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": metrics})


def report(seed: int, seconds: float) -> int:
    """Every workload untraced then traced; every metric with its unit."""
    ok = True
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, trace=False)
        traced = run_workload(name, seed, seconds, trace=True)
        _print_human(plain)
        for metric, unit in END_TO_END:
            print(f"{name}  {metric} = {plain['end_to_end'][metric]:.6g} {unit}")
        for metric, unit, _ in per_layer_names():
            value = traced["per_layer"][metric]
            if value:
                print(f"{name}  [traced] {metric} = {value:.6g} {unit}")
        # raw wall times of two runs: host drift between them shows up here too,
        # see the reference kernel times in each run's provenance
        utt = traced["end_to_end"]["utt_ms"] - plain["end_to_end"]["utt_ms"]
        per_audio = plain["end_to_end"]["audio_s_per_s"] / traced["end_to_end"]["audio_s_per_s"]
        print(f"{name}  tracing overhead = {utt:+.3f} ms per utterance "
              f"({100 * utt / plain['end_to_end']['utt_ms']:+.1f}% of utt_ms), "
              f"{100 * (per_audio - 1):+.1f}% time per audio second; "
              f"measured for {plain['measure_s']:.1f} s untraced, {traced['measure_s']:.1f} s "
              f"traced; trace written to {traced['trace_file']}")
        print(f"{name}  failed_ops_ratio = {plain['failed'] / plain['attempted']:.6g} untraced, "
              f"{traced['failed'] / traced['attempted']:.6g} traced")
        ok = ok and plain["failed"] == 0 and traced["failed"] == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced and print all metrics")
    args = parser.parse_args(argv)
    if not args.report and args.workload is None:
        parser.error("--workload is required unless --report is given")

    _limit_threads()
    _import_program()
    import logging

    # the CLI's own basicConfig then keeps library chatter off the result stream
    logging.basicConfig(level=logging.ERROR, stream=sys.stderr)
    if args.report:
        return report(args.seed, args.seconds)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_human(run)
    print(_result_line(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
