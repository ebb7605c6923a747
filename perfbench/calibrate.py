"""Machine-speed calibration for the benchmark's timings.

Small cloud boxes change speed by up to 2x within seconds (a pure-Python
loop measured on the 2-core development box swung between 1.3 and
2.7 ms).  Medians over one run cannot remove that, so the benchmark
runs a fixed reference loop next to every period and every set-up, and
reports times in *reference time*: the time the work would take on a
machine where :func:`reference_loop` takes exactly 1 ms.  Each period
is scaled by the mean of the samples taken just before and just after
it.  Raw host times are kept next to them in the result file.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: Reference loop repetitions per calibration sample; the minimum is
#: kept, which filters interrupts landing in one repetition.
REPS = 3
#: What :func:`reference_loop` takes on the reference machine.
REFERENCE_S = 1e-3


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = 2 * a

    def total(self) -> int:
        return self.a + self.b


_ITEMS = [_Item(i) for i in range(500)]
_X = np.linspace(0.0, 1.0, 512)
_Y = _X[::-1].copy()


def reference_loop() -> float:
    """Fixed work shaped like the program's hot loops: method calls and
    attribute reads on many small objects, and NumPy operations on
    arrays of a few hundred elements.

    Chosen because its slow-down follows the program's: when the 2-vCPU
    development box slowed down, ``host-dense`` periods and this loop
    both took about 1.6x as long, where a dict-and-string loop took
    1.8-1.9x, and normalising by this loop left the least drift in
    ``host-dense`` and ``cluster-wide`` period times.
    """
    s = 0.0
    for _ in range(12):
        for item in _ITEMS:
            s += item.total()
        s += sum(item.a for item in _ITEMS)
    for _ in range(60):
        c = np.minimum(_X * 0.5 + _Y, 0.9)
        s += float(c.sum()) + np.flatnonzero(c > 0.5).size
    return s


def sample() -> float:
    """Host seconds of one reference loop (best of :data:`REPS`)."""
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def factor(before: float, after: float) -> float:
    """Host seconds -> reference seconds for work bracketed by two
    calibration samples."""
    return REFERENCE_S / ((before + after) / 2)


def factors(samples: List[float]) -> List[float]:
    """One factor per period from the samples taken between periods
    (``len(samples) == periods + 1``)."""
    return [factor(a, b) for a, b in zip(samples, samples[1:])]
