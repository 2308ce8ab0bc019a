"""Arithmetic shared by the benchmark's workloads (stdlib only).

Percentiles follow the nearest-rank rule, and a tail percentile is only
reported when at least ``MIN_BEYOND`` samples lie beyond it, so a p90
needs 100 samples.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def beyond(values: list[float], q: float) -> int:
    """How many samples lie beyond the nearest-rank ``q``-th percentile."""
    return len(values) - math.ceil(q / 100.0 * len(values))


def tail_percentile(values: list[float], min_beyond: int = MIN_BEYOND) -> int:
    """Highest whole percentile with at least ``min_beyond`` samples beyond.

    Returns 0 when there are too few samples for any tail percentile.
    """
    best = 0
    for q in range(1, 100):
        if beyond(values, q) >= min_beyond:
            best = q
    return best


def p_or_tail(values: list[float], q: int) -> tuple[float, int]:
    """``(value, percentile)``: the ``q``-th percentile when enough samples
    lie beyond it, else the highest percentile that has them (or the
    median when even that is undefined)."""
    if beyond(values, q) >= MIN_BEYOND:
        return percentile(values, q), q
    tail = tail_percentile(values) or 50
    return percentile(values, tail), tail


def median(values: list[float]) -> float:
    return float(statistics.median(values))
