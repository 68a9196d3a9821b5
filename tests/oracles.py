"""Reference implementations the closed-form propagators are checked against.

The adiabat equations of motion d/dt (e_h, e_l, e_c) = omega(t) M(mu(t)) v
integrated by an adaptive embedded Runge-Kutta stepper (DOP853), the
direct 3x3 map of an instantaneous frequency jump, and the jump points of a
piecewise-constant schedule.  The propagators here do not go through the
closed-form smooth propagators or the (Q, P) lift of ``ottofridge.dynamics``;
only the piecewise-constant kinds of ``propagate_adiabat_numeric`` reuse
``piecewise_matrix``.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from ottofridge.dynamics import StateVector, piecewise_matrix
from ottofridge.schedules import PIECEWISE_KINDS, Schedule


def _adiabat_rhs(t, y, schedule):
    w, mu = schedule.evaluate(t)
    h, l, c = y[0::3], y[1::3], y[2::3]
    out = np.empty_like(y)
    out[0::3] = w * (mu * h - mu * l)
    out[1::3] = w * (-mu * h + mu * l - 2.0 * c)
    out[2::3] = w * (2.0 * l + mu * c)
    return out


def _rk_solve(schedule: Schedule, y0: np.ndarray, tol: float) -> np.ndarray:
    scale = max(float(np.max(np.abs(y0))), 1e-30)
    sol = solve_ivp(
        _adiabat_rhs, (0.0, schedule.duration), y0, args=(schedule,),
        method="DOP853", rtol=tol, atol=tol * scale * 1e-2, dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"adaptive integration failed: {sol.message}")
    return sol.y[:, -1]


def rk_matrix(schedule: Schedule, tol: float) -> np.ndarray:
    """Fundamental 3x3 matrix of a smooth schedule by adaptive integration."""
    if schedule.duration == 0.0:
        return np.eye(3)
    y = _rk_solve(schedule, np.eye(3).flatten(order="F"), tol)
    return y.reshape(3, 3, order="F")


def propagate_adiabat_numeric(state: StateVector, schedule: Schedule,
                              tol: float = 1e-10) -> StateVector:
    """Propagate through an arbitrary schedule by time-ordered integration.

    Smooth kinds use an adaptive embedded Runge-Kutta stepper (Dormand-Prince
    8(5,3)) with local error control at ``tol``.  Schedules with
    discontinuities are split at the jump points: the holds evolve exactly and
    the jump map is applied between them.
    """
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError("tol must lie in [1e-13, 1e-6]")
    if not math.isclose(state.omega, schedule.omega_start, rel_tol=1e-9):
        raise ValueError("state.omega does not match schedule.omega_start")
    if schedule.kind in PIECEWISE_KINDS:
        v = piecewise_matrix(schedule) @ state.as_array()
        return StateVector.from_array(v, schedule.omega_end)
    if schedule.duration == 0.0:
        return state
    v = _rk_solve(schedule, state.as_array(), tol)
    return StateVector.from_array(v, schedule.omega_end)


def jump_matrix(omega_old: float, omega_new: float) -> np.ndarray:
    """Linear map of an instantaneous frequency jump (continuity of Q, P moments).

    With r = omega_new/omega_old and s = r^2:

        e_h' = (e_h + e_l)/2 + s (e_h - e_l)/2
        e_l' = (e_h + e_l)/2 - s (e_h - e_l)/2
        e_c' = r e_c
    """
    r = omega_new / omega_old
    s = r * r
    return np.array([
        [0.5 * (1.0 + s), 0.5 * (1.0 - s), 0.0],
        [0.5 * (1.0 - s), 0.5 * (1.0 + s), 0.0],
        [0.0, 0.0, r],
    ])


def jumps(schedule: Schedule) -> list[tuple[float, float, float]]:
    """Jump points as (time, omega_before, omega_after); empty for smooth kinds."""
    if schedule.kind not in PIECEWISE_KINDS:
        return []
    out = []
    t = 0.0
    prev = schedule.omega_start
    for w, dt in schedule.segments:
        if w != prev:
            out.append((t, prev, w))
        prev = w
        t += dt
    if prev != schedule.omega_end:
        out.append((t, prev, schedule.omega_end))
    return out
