"""Timing summaries: the median, the highest percentile that still has at
least ten samples beyond it, and the sample count."""

from __future__ import annotations

import math
import statistics

# Candidate tail levels, highest first.
TAIL_LEVELS = (99.999, 99.99, 99.9, 99.0, 90.0, 50.0)
# Samples a tail percentile must leave beyond it.
TAIL_MARGIN = 10


def tail(values):
    """(level, value) of the highest percentile in TAIL_LEVELS with at least
    TAIL_MARGIN samples above its nearest-rank position.  With too few
    samples for any level, the level is 100 and the value the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    for level in TAIL_LEVELS:
        rank = max(1, math.ceil(level / 100.0 * n))
        if n - rank >= TAIL_MARGIN:
            return level, ordered[rank - 1]
    return 100.0, ordered[-1]


def summary(values):
    """{"p50", "tail", "tail_pct", "n"} of a sample; zeros when it is empty."""
    if not values:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    level, value = tail(values)
    return {"p50": statistics.median(values), "tail": value, "tail_pct": level, "n": len(values)}
