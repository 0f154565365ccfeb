"""Host-speed calibration.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by up to 1.8x over tens of seconds.  That drift hits
lightpos and a fixed loop of the same kind of work alike: small numpy calls
and Python arithmetic.  The runner times that loop every half second, from
a signal handler, and scales the time of each piece of work by the mean of
``REFERENCE_S / loop time`` over the passes around it.  The result is
*calibrated seconds*: the time the work would have taken on a host where
the loop takes ``REFERENCE_S``.

The loop is part of the benchmark's definition.  It uses no lightpos code,
so a change to the library cannot move it.  Changing the loop or
``REFERENCE_S`` changes every calibrated figure and needs a new baseline.
"""

import math
import time

import numpy as np

# Median loop time on the host the benchmark was defined on (2-core x86 VM,
# Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_S = 0.020

_ITERATIONS = 400
_A = np.random.default_rng(0).normal(size=(6, 3))
_B = np.random.default_rng(1).normal(size=3)
_SHIFT = np.eye(3) * 3.0


def loop_seconds() -> float:
    """Wall time of one pass of the calibration loop."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(_ITERATIONS):
        v = _A @ _B
        c = np.cross(_A[0], _A[1])
        acc += float(np.linalg.norm(c)) + math.acos(
            min(1.0, abs(v[0]) / (1.0 + abs(v[0]))))
        acc += float(np.linalg.solve(_A[:3] + _SHIFT, _B).sum())
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("calibration loop diverged")
    return elapsed
