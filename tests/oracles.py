"""Reference implementations the closed-form propagators are checked against.

The adiabat equations of motion d/dt (e_h, e_l, e_c) = omega(t) M(mu(t)) v
integrated by an adaptive embedded Runge-Kutta stepper (DOP853), the
direct 3x3 map of an instantaneous frequency jump, the jump points of a
piecewise-constant schedule, the closed-form heat ledger of a frictionless
cycle, and the limit cycle by repeated squaring of the cycle map, the
cross-check of ``limit_cycle``'s direct solve.  The propagators here do not
go through the closed-form smooth propagators or the (Q, P) lift of
``ottofridge.dynamics``; only the piecewise-constant kinds of
``propagate_adiabat_numeric`` reuse ``schedule_propagator``.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from ottofridge.dynamics import StateVector, schedule_propagator
from ottofridge.schedules import PIECEWISE_KINDS, Schedule

# Convergence tolerance and cycle cap of the repeated-squaring fixed point.
SQUARING_RTOL = 1e-12
SQUARING_MAX_CYCLES = 100_000


def propagator_matrix(schedule: Schedule) -> np.ndarray:
    """The row-major 9-tuple of ``schedule_propagator`` as a numpy 3x3."""
    return np.reshape(schedule_propagator(schedule), (3, 3))


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
        v = propagator_matrix(schedule) @ state.as_array()
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


def frictionless_ledger(spec) -> tuple[float, float, float, float]:
    """(Q_c, Q_h, W, R_c) of a frictionless cycle's limit cycle in closed form.

    Frictionless adiabats (three-jump, critical const-mu) keep the occupation
    n, so the limit cycle stays on thermal-shaped states (e_l = e_c = 0).
    With d_c = e^(-Gamma_c tau_c), d_h = e^(-Gamma_h tau_h) and
    Dn = n_eq(omega_c, T_c) - n_eq(omega_h, T_h),
    Q_c = omega_c Dn (1 - d_c)(1 - d_h) / (1 - d_c d_h); each quantum taken
    from the cold bath carries omega_h into the hot one, so
    Q_h = (omega_h / omega_c) Q_c and W = Q_h - Q_c.
    """
    def n_eq(omega, bath):
        return 1.0 / math.expm1(omega / bath.temperature)

    g_c = spec.cold_bath.conductance * spec.tau_c
    g_h = spec.hot_bath.conductance * spec.tau_h
    dn = n_eq(spec.omega_c, spec.cold_bath) - n_eq(spec.omega_h, spec.hot_bath)
    q_c = spec.omega_c * dn * math.expm1(-g_c) * math.expm1(-g_h) / -math.expm1(-g_c - g_h)
    q_h = spec.omega_h / spec.omega_c * q_c
    return q_c, q_h, q_h - q_c, q_c / spec.tau_total


def squaring_fixed_point(m, k, v0) -> tuple[np.ndarray, int]:
    """Fixed point of v -> m v + k reached from v0 by repeated squaring.

    m is a 3x3 map (or its row-major 9-tuple), k and v0 3-vectors.  After j
    squarings of the augmented map T = [[m, k], [0, 1]], that is of the pair
    (P, s) -> (P P, P s + s), P v0 + s is the state 2^j cycles on from v0.
    Returns that state and 2^j once two successive squarings agree to
    SQUARING_RTOL; raises RuntimeError when one more squaring would pass
    SQUARING_MAX_CYCLES cycles.
    """
    p, s = np.reshape(np.asarray(m, dtype=float), (3, 3)), np.asarray(k, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    prev, cycles = v0, 1
    while True:
        v = p @ v0 + s
        if np.linalg.norm(v - prev) <= SQUARING_RTOL * max(np.linalg.norm(prev), 1e-300):
            return v, cycles
        if 2 * cycles > SQUARING_MAX_CYCLES:
            raise RuntimeError(
                f"repeated squaring did not converge within {SQUARING_MAX_CYCLES} cycles")
        p, s = p @ p, p @ s + s
        prev, cycles = v, 2 * cycles


def cross_check(record) -> tuple[int, float]:
    """(cycles, agreement) of a ``limit_cycle`` record: the cycles the
    repeated squaring of its map (M, k) covers from the hot thermal state,
    and the relative distance of that fixed point from the record's direct
    solution v_A."""
    spec, _, m, k, _, (v, *_) = record.chain
    start = StateVector.thermal(spec.omega_h, spec.hot_bath).as_array()
    v_squared, cycles = squaring_fixed_point(m, k, start)
    v = np.asarray(v)
    return cycles, float(np.linalg.norm(v_squared - v) / max(np.linalg.norm(v), 1e-300))


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
