"""Host-speed diagnostic: a fixed kernel timed before set-up and after the run.

The shared host this benchmark was written on ran the same code up to a
third slower for tens of seconds at a time. The registered metrics are raw
wall times and are not corrected for that; instead each run reports how
long this kernel took just before set-up and just after the measured loop,
so a reader can tell a slow host from a slow program. The kernel is timed
in its own slot after a short settling pause, never next to a unit of work.

The kernel mixes the kinds of work ctcx does: small matrix-vector steps in
a Python loop (the LSTM recurrence and CTC recursions), a BLAS matmul
(H=128 layers), an FFT (MFCC), windowed-sinc taps over a gathered signal
block (resampling) and dict and sort work (beam search). It calls no ctcx
code, so no change to the program can move it except through the host.
"""
from __future__ import annotations

import gc
import statistics
import time

import numpy as np

SAMPLES = 15
SETTLE_S = 0.05

_rng = np.random.default_rng(20030410)
_W = 0.1 * _rng.standard_normal((16, 64))
_Z = _rng.standard_normal((40, 64))
_B = _rng.standard_normal((160, 160))
_X = _rng.standard_normal((32, 512))
_T = _rng.uniform(-8.0, 8.0, size=(160, 33))
_SIGNAL = _rng.standard_normal(40000)
_GATHER = _rng.integers(0, 40000, size=(160, 33))


def kernel() -> float:
    """The fixed reference work; returns a value so nothing is skipped."""
    h = np.zeros(16)
    c = np.zeros(16)
    for z_in in _Z:
        z = z_in + h @ _W
        gates = 0.5 * (1.0 + np.tanh(0.5 * z[:48]))
        c = gates[16:32] * c + gates[:16] * np.tanh(z[48:])
        h = gates[32:48] * np.tanh(c)
    blas = float((_B @ _B)[0, 0])
    spectrum = float(np.abs(np.fft.rfft(_X, axis=1)).sum())
    taps = np.sinc(_T) * np.i0(4.0 * np.sqrt(np.maximum(0.0, 1.0 - (_T / 8.0) ** 2)))
    filtered = float(np.einsum("ij,ij->i", taps, _SIGNAL[_GATHER]).sum())
    scores: dict = {}
    for i in range(400):
        key = (i % 41, i % 13)
        scores[key] = max(scores.get(key, -1e30), float(h[i % 16]) * (i % 7))
    best = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
    return float(h.sum()) + blas + spectrum + filtered + best[0][1]


def kernel_ms(samples: int = SAMPLES) -> float:
    """Median milliseconds of one kernel run, after a settling pause, GC off."""
    time.sleep(SETTLE_S)
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(samples):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return 1000.0 * statistics.median(times)
