"""Order statistics of per-item times and the rescaling to the reference
speed (standard library only)."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


def nearest_rank(values, q: float) -> float:
    """The q-th percentile (0 < q <= 100) by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def min_samples(q: float, tail: int = MIN_TAIL) -> int:
    """Smallest sample count that leaves ``tail`` samples beyond the q-th percentile."""
    n = 1
    while samples_beyond(n, q) < tail:
        n += 1
    return n


# Kernel time that defines the reference speed (reference.py): rescaled
# times read as wall times on a machine that runs one kernel in this long.
REF_NOMINAL_S = 3.0e-3


def scale(ref_times) -> float:
    """Factor from measured wall time to time at the reference speed, from
    the reference kernel times measured around it."""
    return REF_NOMINAL_S / statistics.median(ref_times)
