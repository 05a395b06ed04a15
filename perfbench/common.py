"""Pieces shared by the workloads: run context, outcome tally, timing loop."""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stats import percentile, tail_percentile


class Tally:
    """Operations attempted and those whose outcome differed from the expected one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: Path
    tally: Tally
    tracer: object | None = None
    cycles: int = 0  # measured cycles run so far
    figures: dict = field(default_factory=dict)  # name -> (value, unit), human report only
    layer_values: dict = field(default_factory=dict)  # per-layer values the workload measures

    def rng(self, *key) -> np.random.Generator:
        """A generator that depends only on the run seed and a fixed key."""
        return np.random.default_rng(np.random.SeedSequence((self.seed, *key)))

    def subseed(self, *key) -> int:
        return int(np.random.SeedSequence((self.seed, *key)).generate_state(1)[0])

    def untraced(self):
        """Context in which calls stay out of the trace (the benchmark's own checks)."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def closed_loop(self, cycle) -> list[float]:
        """Measured cycles for the run's seconds; only these are traced."""

        def measured(index: int) -> None:
            with self.tracer.recording() if self.tracer is not None else contextlib.nullcontext():
                cycle(index)
            self.cycles += 1

        return closed_loop(self.seconds, measured)

    def add_latency_figures(self, name: str, values_ms) -> None:
        tail = tail_percentile(len(values_ms))
        self.figures[f"{name}.p50"] = (percentile(values_ms, 50), "ms")
        self.figures[f"{name}.p{tail}"] = (percentile(values_ms, tail), "ms")


def closed_loop(seconds: float, cycle) -> list[float]:
    """Run cycle(i) back to back while the next one is expected to end in time.

    One caller, no overlap: the next cycle starts when the previous one has
    returned. Returns each cycle's wall time.
    """
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cycle(len(durations))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        mean = sum(durations) / len(durations)
        if elapsed + mean > seconds:
            return durations


def timed(fn, *args, **kwargs):
    """Call fn; returns (its result, the wall seconds it took)."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def train_timed(data, alphabet, model_cfg, train_cfg, params=None):
    """``ctcx.trainer.train`` with no val set and each ``train_epoch`` call timed.

    The epoch function is rebound in ``ctcx.trainer`` for the call, the same
    way the tracer wraps it, and put back after. Returns (params, seconds of
    every epoch, train cost of every epoch).
    """
    from ctcx import trainer

    inner = trainer.train_epoch
    seconds = []

    def train_epoch(*args, **kwargs):
        result, took = timed(inner, *args, **kwargs)
        seconds.append(took)
        return result

    trainer.train_epoch = train_epoch
    try:
        params, rows = trainer.train(data, [], alphabet, model_cfg, train_cfg, params)
    finally:
        trainer.train_epoch = inner
    return params, seconds, [row.train_cost for row in rows]


def run_cli(argv) -> tuple[int, str]:
    """Call ``ctcx.cli.main`` in this process; returns (exit code, stdout)."""
    from ctcx import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_info() -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = deps.get("name", "unknown")
        info["version"] = deps.get("version", "unknown")
    except (TypeError, KeyError, AttributeError):
        pass
    libs = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                path = line.split()[-1]
                if "blas" in path.lower() and ".so" in path:
                    libs.add(path)
    except OSError:
        pass
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def provenance(root: Path) -> dict:
    return {
        "commit": _git_commit(root),
        "source_digest": _source_digest(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "ctcx_threads": os.environ.get("CTCX_THREADS"),
        "machine": platform.machine(),
        "argv": sys.argv[1:],
    }
