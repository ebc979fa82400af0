"""Small, dependency-free helpers: percentiles, open-loop timing, self time.

Kept apart from the workloads so ``perfbench/test_helpers.py`` can pin
their arithmetic without running a benchmark.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Tail percentiles considered for reporting, lowest first.
TAILS = (Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000))

#: A tail is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def _rank(n: int, q: Fraction) -> int:
    """``ceil(q * n)`` in exact integer arithmetic."""
    return -(-q.numerator * n // q.denominator)


def nearest_rank(sorted_values: Sequence[float], q: Fraction) -> float:
    """The ``q`` percentile by nearest rank: the ``ceil(q*n)``-th value."""
    return sorted_values[max(_rank(len(sorted_values), q), 1) - 1]


def supported_tail(n: int) -> Optional[Fraction]:
    """The highest tail in :data:`TAILS` with ``MIN_BEYOND`` samples
    beyond its nearest rank, or None when ``n`` supports none."""
    best = None
    for q in TAILS:
        if n - _rank(n, q) >= MIN_BEYOND:
            best = q
    return best


def summarize(values: Iterable[float]) -> Dict[str, object]:
    """Median, sample count and the highest supported tail of ``values``.

    ``tail`` is ``(label, value)`` such as ``("p99", 3.2)``, or None.
    """
    ordered = sorted(values)
    if not ordered:
        return {"n": 0, "p50": None, "tail": None}
    q = supported_tail(len(ordered))
    tail = None
    if q is not None:
        label = f"p{float(q * 100):g}"
        tail = (label, nearest_rank(ordered, q))
    return {"n": len(ordered), "p50": statistics.median(ordered), "tail": tail}


class OpenLoop:
    """A fixed-rate schedule of operations that does not wait for replies.

    Operation ``i`` is due at ``start + (i + 1) * period``.  Its latency
    is timed from when it was *due*, not from when it was sent, so a
    stall that delays later sends is charged to every operation it
    delayed; :attr:`late` keeps how late each send left.
    """

    def __init__(self, start: float, period: float) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.start = start
        self.period = period
        self.latency: List[float] = []
        self.late: List[float] = []

    def due(self, index: int) -> float:
        return self.start + (index + 1) * self.period

    def record(self, index: int, sent: float, done: float) -> None:
        """Account operation ``index``, sent at ``sent``, answered at
        ``done`` (all on the same clock as ``start``)."""
        due = self.due(index)
        self.late.append(max(0.0, sent - due))
        self.latency.append(done - due)


def covered(
    start: float, end: float, intervals: Iterable[Tuple[float, float]]
) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for lo, hi in intervals
        if hi > start and lo < end
    )
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        elif hi > run_hi:
            run_hi = hi
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_time(
    start: float,
    end: float,
    children: Iterable[Tuple[float, float]],
    leaf_time: float = 0.0,
) -> float:
    """A span's duration minus the part of it its children cover.

    ``children`` are recorded child intervals (possibly overlapping,
    possibly from other threads); ``leaf_time`` is the summed duration
    of unrecorded children, which run nested on the span's own thread
    and so never overlap each other or a recorded child.
    """
    return (end - start) - covered(start, end, children) - leaf_time
