"""Summaries of timing samples: medians and the supported tail."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass

__all__ = ["Tail", "median", "tail"]

# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A latency tail: ``value`` at ``percentile`` over ``n`` samples.

    ``beyond`` is how many samples lie above the reported rank; it is at
    least :data:`MIN_BEYOND` unless the sample is too small to support
    any tail, in which case the maximum is reported with ``beyond=0``.
    """

    percentile: float
    value: float
    n: int
    beyond: int


def tail(samples: Sequence[float], cap: float = 99.0) -> Tail:
    """The highest percentile up to ``cap`` with ten samples beyond it.

    Nearest-rank definition: percentile ``p`` of ``n`` sorted samples is
    the sample at rank ``ceil(p * n / 100)``.  The percentile is floored
    to one decimal so the rank never moves past ``n - 10``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= MIN_BEYOND:
        return Tail(100.0, ordered[-1], n, 0)
    supported = math.floor(1000.0 * (n - MIN_BEYOND) / n) / 10.0
    percentile = min(cap, supported)
    rank = max(1, math.ceil(round(percentile * n / 100.0, 9)))
    return Tail(percentile, ordered[rank - 1], n, n - rank)


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))
