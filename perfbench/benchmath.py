"""The benchmark's own arithmetic: percentiles, spreads, rates, self time.

Pure Python with no dependency on the partitioner, so the tests in
``perfbench/tests`` pin every rule here without building a workload.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie strictly beyond a percentile before it is reported.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie beyond the nearest-rank
    ``q``-th percentile (``0 < q < 1``)."""
    if n < 1:
        return 0
    return n - math.ceil(q * n)


def min_samples_for(q: float) -> int:
    """Fewest samples for which ``q`` has :data:`MIN_BEYOND` beyond it."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples`` (``0 < q < 1``)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(samples, q: float) -> float:
    """The ``q`` percentile when the samples support it, else the median.

    A tail read from fewer than :data:`MIN_BEYOND` samples beyond it is
    noise, so a run with too few operations reports its median in place
    of the tail instead of inventing one.
    """
    if samples_beyond(len(samples), q) >= MIN_BEYOND:
        return percentile(samples, q)
    return statistics.median(samples)


def quartile_spread(values) -> "tuple[float, float, float, float]":
    """``(median, q1, q3, (q3 - q1) / median)`` as the acceptance rule
    computes it, with :func:`statistics.quantiles` ``n=4``."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / abs(med)) if med else math.inf


def success_rate(attempted: int, failed: int) -> float:
    """Operations that passed the gate over operations attempted."""
    if attempted < 1:
        raise ValueError("success_rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return (attempted - failed) / attempted


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part its children cover.

    Children may nest, overlap one another or spill past the parent;
    each instant of the parent is subtracted at most once.
    """
    return (end - start) - covered(child_intervals, start, end)
