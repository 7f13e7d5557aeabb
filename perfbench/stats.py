"""Order statistics the benchmark reports: every timing is a median with
its quartiles, minimum and sample count, never a mean."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them
    — the same rule the repeatability check uses."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: Sequence[float]) -> Dict[str, float]:
    q1, _, q3 = quartiles(values)
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
        "values": list(values),
    }


def percentile(sorted_values: List[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(p * len(sorted_values)))
    return sorted_values[rank]
