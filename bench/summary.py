"""Order statistics used to report latencies."""

from __future__ import annotations

import math
import statistics

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
MIN_FOR_MEDIAN = 20


def nearest_rank(sorted_values: list[float], percentile: float) -> tuple[int, float]:
    """1-based rank ceil(p/100 * n) and the value there."""
    # round() first: 99.9 / 100 * 10000 is 9990.000000000002 in binary.
    rank = max(1, math.ceil(round(percentile / 100.0 * len(sorted_values), 9)))
    return rank, sorted_values[rank - 1]


def tail(values: list[float]) -> dict | None:
    """Highest ladder percentile with at least MIN_BEYOND samples above its rank.

    Returns None when even the median has fewer than MIN_BEYOND beyond it.
    """
    ordered = sorted(values)
    best = None
    for p in TAIL_LADDER:
        rank, value = nearest_rank(ordered, p)
        if len(ordered) - rank >= MIN_BEYOND:
            best = {"value": value, "percentile": p, "rank": rank,
                    "samples": len(ordered)}
    return best


def median_or_none(values: list[float]) -> float | None:
    """Median latency, reported only from MIN_FOR_MEDIAN operations up."""
    return statistics.median(values) if len(values) >= MIN_FOR_MEDIAN else None
