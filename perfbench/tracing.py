"""In-memory spans around the calls into each ctcx layer.

``Tracer.install`` replaces a public function by a recording wrapper under
every name a loaded ``ctcx`` module binds it to (``ctcx.trainer.forward``,
``ctcx.cli.resample`` and so on), so calls made inside the library are seen
as well as calls made by the benchmark. Nothing under ``src/`` is edited;
``uninstall`` puts the original objects back.

A span records its name, its parent span, its thread, start and end, and a
few work counts taken at the same boundary (frames, bytes, audio seconds).
A call made on a worker thread with no open span of its own is parented to
the innermost open span of the installing thread, which is the call that
started the pool. Spans stay in memory and are written out by ``dump``.

An installed tracer records only inside ``recording(phase)``, and files each
span under that phase: the benchmark records its first set-up as "setup"
and each measured cycle as "cycle", so the other set-ups and its own work
between cycles stay out of the trace, and ``paused()`` keeps its own checks
out of it inside a cycle.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

from stats import interval_union


def _frames(arg_index):
    def hook(args, kwargs, result):
        return {"frames": int(args[arg_index].shape[0])}
    return hook


def _audio_in(args, kwargs, result):
    return {"audio_s": float(args[0].duration_s)}


def _audio_out(args, kwargs, result):
    return {"audio_s": float(result.duration_s)}


def _bytes_at(arg_index):
    def hook(args, kwargs, result):
        return {"bytes": os.path.getsize(args[arg_index])}
    return hook


def _step_outcome(args, kwargs, result):
    return {"skipped": int(result is False)}


def _clip_outcome(args, kwargs, result):
    return {"clipped": int(result > args[1])}


def _deviation(args, kwargs, result):
    return {"deviation": float(result.max_abs_deviation)}


# (ctcx module, function, span name, work hook). Order is report order.
LAYER_FUNCTIONS = [
    ("network", "forward", "network.forward", _frames(2)),
    ("network", "backward", "network.backward", _frames(3)),
    ("network", "log_softmax", "network.log_softmax", None),
    ("ctc", "ctc_forward_backward", "ctc.ctc_forward_backward", _frames(0)),
    ("ctc", "greedy_decode", "ctc.greedy_decode", None),
    ("ctc", "beam_search_decode", "ctc.beam_search_decode", _frames(0)),
    ("ctc", "edit_distance", "ctc.edit_distance", None),
    ("trainer", "train_epoch", "trainer.train_epoch", None),
    ("trainer", "evaluate", "trainer.evaluate", None),
    ("trainer", "momentum_step", "trainer.momentum_step", _step_outcome),
    ("trainer", "clip_gradients", "trainer.clip_gradients", _clip_outcome),
    ("transfer", "write_checkpoint", "transfer.write_checkpoint", _bytes_at(1)),
    ("transfer", "read_checkpoint", "transfer.read_checkpoint", _bytes_at(0)),
    ("transfer", "transfer_weights", "transfer.transfer_weights", None),
    ("transfer", "verify_transfer", "transfer.verify_transfer", _deviation),
    ("frontend", "load_wav", "frontend.load_wav", _audio_out),
    ("frontend", "resample", "frontend.resample", _audio_in),
    ("frontend", "mfcc", "frontend.mfcc", _audio_in),
    ("frontend", "write_feature_cache", "frontend.write_feature_cache", None),
    ("frontend", "read_feature_cache", "frontend.read_feature_cache", None),
    ("synthetic", "make_corpus", "synthetic.make_corpus", None),
    ("cli", "cmd_prepare", "cli.prepare", None),
    ("cli", "cmd_features", "cli.features", None),
    ("cli", "cmd_decode", "cli.decode", None),
]


class Tracer:
    def __init__(self):
        # phase -> [(id, parent, name, thread, start, end, work or None)]
        self.spans = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack = None
        self._patched = []  # (module, attribute, original)
        self._phase = None  # the phase being recorded, or None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = tracer._phase
            if phase is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._owner_stack
                parent = owner[-1] if owner else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[phase].append((sid, parent, name, threading.get_ident(), start,
                                            end, {"errors": 1}))
                raise
            end = time.perf_counter()
            stack.pop()
            work = None
            if hook is not None:
                try:
                    work = hook(args, kwargs, result)
                except (AttributeError, IndexError, OSError, TypeError):
                    work = None  # signature changed; the span still counts
            tracer.spans[phase].append((sid, parent, name, threading.get_ident(), start, end,
                                        work))
            return result

        return traced

    def install(self):
        """Wrap every layer function under every ctcx binding of it."""
        for module_name in {m for m, _, _, _ in LAYER_FUNCTIONS}:
            importlib.import_module(f"ctcx.{module_name}")  # ctcx does not import cli itself
        self._owner_stack = self._stack()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ctcx" or n.startswith("ctcx."))]
        for module_name, func_name, span_name, hook in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"ctcx.{module_name}"], func_name, None)
            if original is None or not callable(original):
                continue  # not present in this version of the library
            wrapper = self._wrap(original, span_name, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def _set_phase(self, phase):
        before = self._phase
        self._phase = phase
        try:
            yield
        finally:
            self._phase = before

    def recording(self, phase: str = "cycle"):
        """Calls made inside are traced under phase."""
        return self._set_phase(phase)

    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        return self._set_phase(None)

    def dump(self, path, meta: dict) -> None:
        doc = dict(meta)
        doc["span_fields"] = ["id", "parent", "name", "thread", "start_s", "end_s", "work"]
        doc["spans"] = {phase: [list(s) for s in spans] for phase, spans in self.spans.items()}
        with open(path, "w", encoding="utf-8") as out:
            json.dump(doc, out)


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its child spans cover."""
    bounds = {s[0]: (s[4], s[5]) for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] in bounds:
            children[s[1]].append(s)
    result = {}
    for sid, (start, end) in bounds.items():
        covered = interval_union(
            (max(c[4], start), min(c[5], end))
            for c in children.get(sid, ()) if c[5] > start and c[4] < end
        )
        result[sid] = (end - start) - covered
    return result


def summarize(spans) -> dict:
    """Per span name: calls, inclusive and self seconds, summed work counts."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "work": defaultdict(float)})
    for s in spans:
        row = out[s[2]]
        row["calls"] += 1
        row["total_s"] += s[5] - s[4]
        row["self_s"] += own[s[0]]
        if s[6]:
            for key, value in s[6].items():
                if key == "deviation":
                    row["work"][key] = max(row["work"][key], value)
                else:
                    row["work"][key] += value
    return out


def worker_busy(spans, parent_name: str) -> tuple[float, float]:
    """(summed time of spans run on other threads under parent_name, parent wall)."""
    parents = {s[0]: s for s in spans if s[2] == parent_name}
    busy = sum(s[5] - s[4] for s in spans if s[1] in parents and s[3] != parents[s[1]][3])
    wall = sum(p[5] - p[4] for p in parents.values())
    return busy, wall
