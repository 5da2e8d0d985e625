"""Order statistics the ledger reports: medians, quartiles, percentiles."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, sample count and spread (IQR ÷ median).

    Quartiles are those of ``statistics.quantiles(values, n=4)``, the
    rule the benchmark's acceptance check uses.
    """
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }
