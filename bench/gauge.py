"""Machine-speed gauge: a fixed NumPy and Python kernel timed between operations.

On a shared machine the CPU speed one process gets drifts by tens of percent
over tens of seconds; on a shared 2-vCPU x86-64 virtual machine the same 60
pencil analyses took between 0.39 s and 0.57 s from one minute to the next,
with process CPU time tracking wall time.  Averaging
cannot remove a drift that outlasts a run, so each timing is also scaled by
``REFERENCE_S / (kernel time measured around it)``: it then reads as seconds
at the speed at which the kernel takes ``REFERENCE_S``.  The kernel uses NumPy
and plain Python only, never ``hypereig``, so a change to the package does not
move it.  Raw timings are reported beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median kernel time on that 2-vCPU x86-64 virtual machine.
REFERENCE_S = 0.015

_RNG = np.random.default_rng(0)
_MATS = [_RNG.standard_normal((m, m + 3)) for m in (2, 4, 8, 12)]
_VEC = _RNG.standard_normal(3)


def _kernel() -> float:
    """Small SVDs and least squares, tiny Kronecker products and dict updates:
    the mix of LAPACK calls and interpreter overhead the solver spends its time on."""
    acc = 0.0
    for _ in range(12):
        for m in _MATS:
            acc += float(np.linalg.svd(m, compute_uv=False)[-1])
            acc += float(np.linalg.lstsq(m.T, m[0], rcond=None)[0][0])
        for _ in range(20):
            v = np.kron(np.kron(_VEC, _VEC), _VEC)
            acc += float(v @ v)
        counts: dict[int, int] = {}
        for i in range(300):
            counts[i & 15] = counts.get(i & 15, 0) + i
    return acc


def sample() -> float:
    """Median of three kernel timings, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Scale for timings taken between two samples: REFERENCE_S over their mean."""
    return REFERENCE_S / ((before + after) / 2.0)
