"""Reference work: a fixed piece of computation that tracks machine speed.

The box this benchmark was built on (a 2-vCPU VM on a shared host) ran
the same operation up to 40% slower from one minute to the next, and
every operation in a run moved together.  So each timed sample is scaled
by the speed of the machine at that moment: it is divided by the time
of this reference work, measured just before and just after it, and
multiplied by :data:`REFERENCE_NOMINAL_S`.  Reported times therefore
read as seconds at the reference's nominal speed.  The reference never
calls the program, so a change to the program moves only the sample,
never the scale.  Raw wall-clock values stay in the base record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: median time of :func:`reference_work` on the 2-vCPU Xeon VM the
#: benchmark was built on (Python 3.11.7, numpy 2.4.6).
REFERENCE_NOMINAL_S = 0.010

_CODES = np.random.default_rng(0).integers(0, 8, size=100_000)
_SIGNAL = np.random.default_rng(0).random(1 << 15)


def reference_work() -> float:
    """Time one fixed mix of numpy passes and interpreter work (~10 ms)."""
    start = time.perf_counter()
    for lag in range(1, 9):
        np.bincount(_CODES[:-lag][_CODES[:-lag] == _CODES[lag:]], minlength=8)
    np.fft.irfft(np.abs(np.fft.rfft(_SIGNAL)) ** 2)
    counts: dict[tuple[int, int], int] = {}
    for i, code in enumerate(_CODES[:15_000].tolist()):
        key = (code, i % 97)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda item: -item[1])
    return time.perf_counter() - start


def scale(before: list[float], after: list[float]) -> float:
    """Factor turning a raw time into seconds at nominal speed."""
    return REFERENCE_NOMINAL_S / statistics.median(before + after)
