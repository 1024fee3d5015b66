"""Order statistics used by the benchmark report (stdlib only)."""

import math
from fractions import Fraction

# Candidate tail percentiles, highest first.  The reported tail is the
# highest one that leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("median of an empty sequence")
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2


def nearest_rank(xs_sorted, q):
    """The q-th percentile by the nearest-rank rule, and its 1-based rank."""
    n = len(xs_sorted)
    # exact arithmetic: 99.9 / 100 * 20000 is 19980.000000000004 in floats
    rank = max(1, math.ceil(Fraction(str(q)) * n / 100))
    return xs_sorted[rank - 1], rank


def tail_percentile(values):
    """(percentile, value, samples beyond) at the highest ladder percentile
    that has at least TAIL_MIN_BEYOND samples beyond it.

    With fewer than TAIL_MIN_BEYOND + 1 samples no percentile qualifies and
    the maximum is returned as percentile 100 with 0 samples beyond.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("tail of an empty sequence")
    for q in TAIL_LADDER:
        value, rank = nearest_rank(xs, q)
        beyond = len(xs) - rank
        if beyond >= TAIL_MIN_BEYOND:
            return q, value, beyond
    return 100.0, xs[-1], 0
