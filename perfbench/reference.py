"""A fixed reference task, timed between iterations to gauge the host's speed.

On a shared host the same iteration can take up to twice as long for minutes
at a time, as other tenants load the cores the benchmark runs on.  The
reference task slows with it, so the ratio of an iteration's wall time to the
reference time around it moves with the program and hardly with the host.

The task uses numpy only, never diraclab, so a change to the program does
not change it: per-mode 4x4 products, FFTs and densities over a 4096-mode
grid, shaped like an evolve step.  Over ten-minute recordings on a 2-vCPU
shared Xeon, this task tracked the host for both workloads more closely than
a scalar Python task did.  Its inputs are fixed, whatever ``--seed`` is.
"""

from __future__ import annotations

import math
import time

import numpy as np

MODES = 4096
STEPS = 80

_rng = np.random.default_rng(20130101)
_PROP = np.linalg.qr(_rng.standard_normal((MODES, 4, 4))
                     + 1j * _rng.standard_normal((MODES, 4, 4)))[0]
_AMP = (_rng.standard_normal((MODES, 4)) + 1j * _rng.standard_normal((MODES, 4))) / math.sqrt(8 * MODES)
_X = np.linspace(0.0, 800.0, MODES, endpoint=False)


def timed() -> float:
    """Wall seconds of one run of the reference task."""
    t0 = time.perf_counter()
    amp = _AMP
    for _ in range(STEPS):
        amp = np.matmul(_PROP, amp[:, :, None])[:, :, 0]
        values = np.fft.ifft(amp, axis=0)
        density = np.sum(np.abs(values) ** 2, axis=1)
        weight = density / np.sum(density)
        float(np.sum(_X * weight))
        float(np.sum((_X - 400.0) ** 2 * weight))
        float(np.sum(np.abs(np.fft.fft(values, axis=0)) ** 2))
    return time.perf_counter() - t0
