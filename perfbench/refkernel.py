"""Reference kernel: a fixed computation that measures how fast the machine
runs right now.

The benchmark times this kernel alternately with the program and reports the
program's time in units of the kernel's time.  On a host shared with other
work, both slow down together in a busy spell (lower clock, a busy sibling
hyperthread), so the ratio stays put while either time alone moves by tens
of percent.  The kernel never calls ottofridge, so no change to the program
can move it.  Its mix follows the program's: Python arithmetic, numpy
operations on 3x3 matrices, scalar Bessel functions and an adaptive ODE
solve with a Python right-hand side.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import j0, j1, y0, y1

_A = np.array([[0.90, 0.10, 0.00],
               [0.05, 0.80, 0.10],
               [0.00, 0.20, 0.70]])
_B = np.array([0.1, -0.2, 0.3])


def _rhs(t, y):
    return [-0.3 * y[1] + 0.01 * t, 0.3 * y[0] - 0.1 * y[2], -0.2 * y[2] + 1e-3 * y[0] * y[1]]


def kernel() -> float:
    """One run of the reference computation (about 30 ms on a 2-core Xeon VM)."""
    acc = 0.0
    m = _A
    for i in range(300):
        m = m @ _A + 1e-3
        x = np.linalg.solve(np.eye(3) - 0.5 * m, _B)
        z = 0.05 * (i + 1)
        acc += float(np.linalg.eigvals(m)[0].real) + float(x[0])
        acc += j0(z) + j1(z) + y0(z) + y1(z)
        for k in range(40):
            acc += k * 1e-6
    sol = solve_ivp(_rhs, (0.0, 40.0), [1.0, 0.0, 0.5], rtol=1e-8, atol=1e-10)
    return acc + float(sol.y[0, -1])


def time_kernel(repeats: int) -> float:
    """Seconds taken by ``repeats`` runs of the kernel."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return time.perf_counter() - t0
