"""Host-speed calibration: a fixed piece of work, timed next to every job.

On a shared virtual machine the speed the benchmark gets drifts by up to a
third over seconds to minutes, as neighbours come and go. A run of 30 s
samples only a few of those phases, so the median pass time of one run
differs from the next by more than any bound worth gating on. The harness
therefore brackets every job with this kernel, which touches no vmfcorr
code, and scales the job's time by REFERENCE_S over the mean of the two
kernel times around it. The scaled time is the job's time at the host speed
on which the kernel takes REFERENCE_S; the raw times are still printed.

The kernel mixes interpreted scalar arithmetic, numpy calls on 3-vectors
and vectorised numpy work, like the workloads, so that each kind of slowdown
shows in it.
"""

import cmath
import math
import time

import numpy as np

# The kernel's median time on the 2-vCPU virtual machine the baseline was
# measured on; fixed, so scaled times of different commits compare.
REFERENCE_S = 0.006

_ARRAY = np.linspace(0.0, 1.0, 1 << 16)
_VECTOR = np.array([0.3, 0.4, 0.5])


def kernel() -> float:
    total = 0.0
    for i in range(1, 8_001):
        total += math.sqrt(i) * 1.0000001
    for i in range(1, 1_001):
        w = complex(1e-3 * i, 0.5)
        total += abs(cmath.sqrt(w)) + float(np.dot(_VECTOR, _VECTOR * i)) + math.sinh(1e-3 * i)
    for _ in range(3):
        total += float(np.sin(_ARRAY).sum())
    return total


def measure() -> float:
    """Seconds the kernel takes now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds`, measured between kernel times `before` and `after`, at the
    reference host speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
