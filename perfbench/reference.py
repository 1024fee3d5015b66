"""The reference probe that puts times on a steady scale on a shared host.

The speed of a shared host's CPU drifts by tens of percent over seconds,
as other tenants come and go, and that drift moves every wall-clock
number alike.  The timed phase is therefore cut into windows of about
WINDOW_S seconds, and after each window the probe runs: a fixed,
stdlib-only computation in the style of the library's inner loops
(Fraction arithmetic, tuple keys, dict lookups, slotted objects) that never
calls m2alg.  A window's measured time is multiplied by
REFERENCE_PROBE_S / (mean probe time on either side of it); the result is
in reference seconds, the time the work would take on a host where one
probe takes REFERENCE_PROBE_S.  A change to m2alg cannot move the probe,
so comparisons between two versions of the library keep their meaning.
"""

import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.0015
WINDOW_S = 0.25


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _body():
    table = {}
    acc = Fraction(0)
    for k in range(400):
        key = (k % 31, k % 17)
        cell = table.get(key)
        if cell is None:
            table[key] = _Cell(key, Fraction(k % 7 + 1, k % 5 + 1))
        else:
            cell.value = cell.value * Fraction(k % 3 + 1, 2) + acc
        acc = acc + Fraction(1, k % 11 + 1)
    return len(table)


def probe(clock=time.perf_counter):
    """Median time of three runs of the probe body, in seconds."""
    times = []
    for _ in range(3):
        start = clock()
        _body()
        times.append(clock() - start)
    return sorted(times)[1]


def scale(before, after):
    """Factor from measured to reference seconds for a window between probes."""
    return REFERENCE_PROBE_S / ((before + after) / 2)
