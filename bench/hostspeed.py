"""How fast the host runs right now, from fixed reference kernels.

Shared hosts drift by 25% and more over tens of seconds, and the drift
lasts longer than a pass, so a median over passes does not remove it.  The
runner measures `factor()` before and after each pass and divides the pass
time by their mean.  Different kinds of work slow down differently on a
busy host, so each workload names the kernels of the work that dominates
its profile: an interpreter loop over small arrays (a Metropolis step) or
vectorized numpy over a large array (quadrature).  No kernel calls
coulomblab, so a change to the library cannot move the reference.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# typical median seconds of each kernel on the 2-core Intel Xeon host the
# benchmark was sized on (numpy 2.4); a factor of 1 means that speed
NOMINAL = {"interpreter": 0.012, "numpy": 0.0045}


def _interpreter() -> float:
    z = 1.1 * np.exp(2j * np.pi * np.arange(32) / 32)
    acc = 0.0
    for i in range(2000):
        d = np.abs(z - z[i % 32])
        d[i % 32] = 1.0
        acc += float(np.sum(np.log(d))) + sum(k * 0.5 for k in range(20))
    return acc


_GRID = np.linspace(0.1, 5.0, 100_000) + 0j


def _numpy() -> float:
    return sum(float(np.sum(np.log(np.abs(_GRID * 1.0001)))) for _ in range(9))


KERNELS = {"interpreter": _interpreter, "numpy": _numpy}


def factor(kernels, repeats: int = 5) -> float:
    """Geometric mean over `kernels` of median time / nominal time; 1 when
    `kernels` is empty."""
    if not kernels:
        return 1.0
    logs = []
    for name in kernels:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            KERNELS[name]()
            times.append(time.perf_counter() - t0)
        logs.append(math.log(statistics.median(times) / NOMINAL[name]))
    return math.exp(sum(logs) / len(logs))
