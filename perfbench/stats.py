"""Order statistics used by every workload.

A timing is reported as its median plus a tail percentile. The tail is the
highest whole percentile that still has at least ``MIN_BEYOND`` samples above
it, so a small sample never claims a tail it cannot support.
"""
from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
TAIL_CAP = 99


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least MIN_BEYOND of n samples above it."""
    if n < 2 * MIN_BEYOND:
        raise ValueError(f"{n} samples cannot support a tail beyond the median")
    return min(TAIL_CAP, math.floor(100.0 * (1.0 - MIN_BEYOND / n)))


def median(values) -> float:
    return statistics.median(values)


def group_median_cost(samples) -> dict:
    """Median seconds per audio second in each group.

    ``samples`` holds (group, seconds, audio seconds); units of one group are
    expected to cost the same per audio second. A median, unlike a minimum,
    does not drift with the number of samples a run happens to take.
    """
    ratios: dict = {}
    for group, seconds, audio in samples:
        ratios.setdefault(group, []).append(seconds / audio)
    return {group: statistics.median(values) for group, values in ratios.items()}


def interval_union(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered
