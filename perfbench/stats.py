"""Order statistics for the benchmark's reports.

A timing is reported as a median and as the highest percentile that still
has at least ten samples beyond it, together with the sample count, so a
"p99" drawn from a hundred samples is refused rather than printed.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile q (0 < q < 1) and the sample count.

    The rank is ceil(q * n) (1-based). Raises ValueError when fewer than
    MIN_BEYOND samples lie beyond that rank, since the tail it would
    describe is then a handful of points.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile q must lie in (0, 1), got {q}")
    n = len(values)
    rank = math.ceil(q * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} needs at least {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {max(n - rank, 0)}"
        )
    return nearest_rank(values, q), n


def nearest_rank(values: list[float], q: float) -> float:
    """The ceil(q * n)-th smallest value (1-based), with no tail rule.

    For a gate over repeated units of work rather than a tail report.
    """
    if not values:
        raise ValueError("nearest_rank of no values")
    return sorted(values)[max(math.ceil(q * len(values)), 1) - 1]


def min_samples(q: float) -> int:
    """Smallest sample count for which percentile(values, q) is reportable."""
    n = MIN_BEYOND + 1
    while n - math.ceil(q * n) < MIN_BEYOND:
        n += 1
    return n


def tail(values: list[float], quantiles=(0.99, 0.9)) -> tuple[float, float, int]:
    """The highest of `quantiles` that percentile() reports for these values.

    Returns (q, value, count), so a short run prints p90 instead of failing.
    """
    for q in sorted(quantiles, reverse=True):
        if len(values) >= min_samples(q):
            return (q, *percentile(values, q))
    raise ValueError(f"{len(values)} samples are too few for any of {quantiles}")


def median(values: list[float]) -> float:
    """Middle value (mean of the two middle values for an even count)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
