"""Sample statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it, so a single outlier cannot set it.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def samples_needed(q: float) -> int:
    """Fewest samples for which percentile ``q`` has ten beyond it."""
    if not 0.0 < q < 100.0:
        raise ValueError("percentile must be in (0, 100)")
    return math.ceil(MIN_SAMPLES_BEYOND * 100.0 / (100.0 - q) - 1e-9)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile ``q``, or None without enough samples.

    The percentile is defined only when at least
    :data:`MIN_SAMPLES_BEYOND` samples lie strictly above its rank:
    p99 needs 1,000 samples, p90 needs 100.
    """
    n = len(values)
    if n < samples_needed(q):
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return ordered[rank - 1]


def failed_ratio(failed: int, attempted: int) -> float:
    """Failed operations over attempted operations."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted

