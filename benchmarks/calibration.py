"""Machine-speed calibration.

On a shared host the machine's speed drifts by tens of percent within
seconds, and the program's times drift with it.  A fixed piece of
pure-Python work, timed next to the program, drifts the same way.  The
in-process times the benchmark reports are multiplied by
REFERENCE_NS / (calibration time), which reads them as they would be on a
machine where the calibration takes REFERENCE_NS.  The calibration uses
nothing that conicmaps or numpy provide, so a change to the program cannot
move it.
"""

import math
from statistics import median
from time import perf_counter_ns

REFERENCE_NS = 1.6e6


def calibration_ns() -> int:
    """Time float math and number formatting."""
    start = perf_counter_ns()
    total = 0.0
    for i in range(8000):
        total += math.sin(i * 1e-3) * 1.0001
    [format(i * 0.37, ".17g") for i in range(800)]
    return perf_counter_ns() - start


def scale(calibrations) -> float:
    """Factor that rescales times measured next to `calibrations` (ns)."""
    return REFERENCE_NS / median(calibrations)
