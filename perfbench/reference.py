"""A fixed reference computation that measures how fast the machine runs right now.

On a shared host the speed of the same Python code swings by up to 2x over
spells of 10-20 s, as neighbours come and go, while steal time stays near 0.
The benchmark therefore times this computation between ops and reports op
times in reference units (``op seconds / reference seconds``), which cancel
the swing.  The computation does not touch ``nstate``, so a change to the
program cannot move it.  Its kind of work matches the program's: Python loops
over small numpy arrays (an RK4-like complex update, then column rotations
like a Jacobi sweep) and scalar math.
"""

from __future__ import annotations

import math
import time

import numpy as np

REPS = 4000  # about 60-120 ms on a 2.1 GHz Xeon vCPU


def reference_op() -> float:
    """Run the reference computation; return a value that depends on all of it."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal((6, 6))
    w = w + w.T
    energies = np.arange(6.0)
    a = np.zeros(6, complex)
    a[0] = 1.0
    m = rng.standard_normal((8, 8))
    acc = 0.0
    for k in range(REPS):
        v = 0.5 * math.cos(k * 1e-3)
        k1 = -1j * (energies * a + v * (w @ a))
        y = a + 5e-4 * k1
        k2 = -1j * (energies * y + v * (w @ y))
        a = a + 1e-3 * k2
        a /= math.sqrt(float(np.sum(a.real**2 + a.imag**2)))
        p = k % 7
        cp = m[:, p].copy()
        cq = m[:, p + 1].copy()
        m[:, p] = 0.6 * cp - 0.8 * cq
        m[:, p + 1] = 0.8 * cp + 0.6 * cq
        acc += float(a[1].real) + m[p, p + 1]
    return acc


def reference_s() -> float:
    """Seconds the reference computation takes now."""
    start = time.perf_counter()
    reference_op()
    return time.perf_counter() - start
