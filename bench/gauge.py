"""A fixed reference task that gauges how fast the host runs right now.

On a shared host the same call can take twice as long from one minute to
the next, as neighbouring load comes and goes.  The benchmark times this
task just before and just after each timed part of a workload call, and
divides a run's mean call time by the mean time of the task over the same
run, so the result reads in units of the reference task rather than of
the host's speed during that run.

The task is the shape of the load model's hot loop, in the standard
library only: it builds a long tuple of (rate, size) pairs, checks every
pair, and sums and maxes over them with generator expressions.  Of the
tasks tried, a slowed host slowed this one most nearly in proportion to
both workloads (see README.md).  It never calls hiermon: a change to
hiermon moves the ratio by its full effect.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: Pairs per reference task; about 0.04 s on a 2-CPU Xeon VM with Python 3.11.
PAIRS = 150_000


def reference_task(pairs: int = PAIRS) -> float:
    """Check, sum and max a tuple of ``pairs`` identical (rate, size) pairs."""
    inputs = ((2.0, 0.5),) * pairs
    for rate, size in (*inputs, (1.0, 1.0)):
        if rate <= 0 or size <= 0:
            raise ValueError("rates and sizes must be > 0")
    load = sum(rate * (1.5e-4 + 3.75e-4 * size) for rate, size in inputs)
    return load + max(size for _, size in inputs)


class Gauge:
    """Times the reference task each time it is called."""

    def __init__(self) -> None:
        self.seconds: list[float] = []

    def __call__(self) -> None:
        # The task makes no reference cycles.  With the collector off, its
        # time does not depend on how many objects the workload holds.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_task()
            self.seconds.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
