"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the same invocation takes up to 1.8 times as long from
one minute to the next, because of other tenants' load.  Process CPU time
drifts with the wall clock (the slowdown is in the CPU, not in the
scheduler), so it does not help.  The benchmark therefore interleaves this
kernel with the timed work, outside the timed windows, and scales each
timing metric by ``REFERENCE_S`` over the kernel's median time in the same
run.  Scaled values read as seconds on a machine where the kernel takes
``REFERENCE_S``: about its time on a lightly loaded 2-vCPU Intel Xeon VM.

The kernel mixes interpreter-bound integer work with small numpy array
operations, the two kinds of work pcause does.  It calls nothing in
``pcause``, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0015


def kernel_seconds() -> float:
    """Wall time of one run of the kernel (about 1.5 ms)."""
    start = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    values = np.arange(2000.0)
    for _ in range(40):
        values = np.sqrt(values * 1.0001 + 1.0)
    return perf_counter() - start


def run_for(seconds: float) -> list[float]:
    """Run the kernel back to back for about ``seconds`` (at least once);
    return each run's wall time."""
    samples = [kernel_seconds()]
    while sum(samples) < seconds:
        samples.append(kernel_seconds())
    return samples


def scale(samples: list[float]) -> float:
    """Factor that turns seconds measured alongside ``samples`` into
    seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)
