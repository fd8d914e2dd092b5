"""Order statistics shared by run.py and compare.py."""

from __future__ import annotations

import math
import statistics


def tail_percentile(n: int) -> int:
    """Highest whole percentile (at most 99) with at least ten of ``n`` samples beyond it."""
    p = min(99, 100 * (n - 10) // n)
    if p < 50:
        raise ValueError(f"{n} samples cannot support a tail percentile of 50 or more")
    return p


def nearest_rank(values, p: int) -> float:
    """The ``p``-th percentile by the nearest-rank rule: rank ceil(p n / 100)."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


def summary(values) -> dict:
    """Median, quartiles and quartile spread as a share of the median."""
    values = list(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else math.inf),
    }
