"""Small statistics shared by the workloads."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


class BenchError(RuntimeError):
    """A wrong output or a broken run: the benchmark exits non-zero."""


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return float(ordered[rank - 1])
