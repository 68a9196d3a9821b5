"""Assembly of the four-stroke refrigeration cycle and its limit cycle.

Branch order, starting from point A (end of the hot isochore, omega = omega_h):

    A -> D   expansion adiabat  (omega_h -> omega_c, decoupled)
    D -> C   cold isochore      (contact with the cold bath at omega_c)
    C -> B   compression adiabat (omega_c -> omega_h, decoupled)
    B -> A   hot isochore       (contact with the hot bath at omega_h)

Each branch is an affine map v -> A v + b of the (e_h, e_l, e_c) vector, so
the one-cycle map v -> M v + k is the product of the four branch maps.  Its
unique fixed point (the limit cycle) is found by a direct linear solve and
cross-checked by repeated squaring of the augmented map [[M, k], [0, 1]],
which reaches 2^j cycles from the hot thermal state in j matrix products.
Each adiabat propagator is built once per Schedule instance and kept on it,
so a search that varies only the isochore times reuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import (
    BathSpec,
    PropagationError,
    StateVector,
    equilibrium_state,
    isochore_affine,
    schedule_propagator,
)
from .schedules import Schedule

_BRANCH_NAMES = ("expansion", "cold_isochore", "compression", "hot_isochore")

# Iteration limits / tolerances of the limit-cycle solver.
_MAX_CYCLES = 100_000
_ITER_RTOL = 1e-12
_RHO_LIMIT = 1.0 - 1e-9


class NoContractionError(RuntimeError):
    """The cycle map does not contract; no limit cycle exists."""


class BranchError(RuntimeError):
    """Propagation failed on a specific branch of the cycle."""

    def __init__(self, branch: str, cause: Exception):
        super().__init__(f"propagation failed on branch {branch!r}: {cause}")
        self.branch = branch
        self.cause = cause


# Failures that make a candidate cycle a failed point of a search.  ValueError
# covers ScheduleError and numpy's LinAlgError; any other exception is a bug
# and propagates.
DOMAIN_ERRORS = (NoContractionError, BranchError, PropagationError, ValueError)


@dataclass(frozen=True)
class CycleSpec:
    """Complete definition of one refrigeration cycle."""

    hot_bath: BathSpec
    cold_bath: BathSpec
    omega_h: float
    omega_c: float
    expansion: Schedule
    compression: Schedule
    tau_c: float
    tau_h: float
    # Validated in 1e-13 .. 1e-2 so existing configs still parse; every
    # propagator is a closed form and none reads it.
    ode_tol: float = 1e-9

    def __post_init__(self):
        if not (self.omega_h > 0 and self.omega_c > 0):
            raise ValueError("cycle frequencies must be positive")
        # Equality is tolerated only for degenerate (do-nothing) cycles.
        if self.omega_h < self.omega_c:
            raise ValueError("omega_h must be >= omega_c")
        if self.tau_c < 0 or self.tau_h < 0:
            raise ValueError("isochore durations must be >= 0")
        if not 1e-13 <= self.ode_tol <= 1e-2:
            raise ValueError("ode_tol out of range (1e-13 .. 1e-2)")
        for name, sched, w_from, w_to in (
            ("expansion", self.expansion, self.omega_h, self.omega_c),
            ("compression", self.compression, self.omega_c, self.omega_h),
        ):
            if not (math.isclose(sched.omega_start, w_from, rel_tol=1e-9)
                    and math.isclose(sched.omega_end, w_to, rel_tol=1e-9)):
                raise ValueError(f"{name} schedule endpoints do not match cycle frequencies")

    @property
    def tau_total(self) -> float:
        return self.expansion.duration + self.tau_c + self.compression.duration + self.tau_h


@dataclass(frozen=True)
class BranchRecord:
    name: str
    duration: float
    start: StateVector
    end: StateVector
    delta_e: float


@dataclass(frozen=True)
class CycleRecord:
    """Energy/heat/work ledger of one cycle plus limit-cycle diagnostics.

    Sign conventions: q_c > 0 is heat extracted from the cold bath, q_h > 0 is
    heat rejected into the hot bath, w > 0 is net external work input.  At the
    limit cycle q_c + w - q_h = 0 and the entropy production rate
    sigma = (-q_c/T_c + q_h/T_h) / tau_total is nonnegative.

    ``iterations`` is the number of cycles the cross-check covered: a power
    of two, 1 when one cycle from the hot thermal state already reaches the
    limit cycle (0 for a record of :func:`run_one_cycle`).
    """

    q_c: float
    q_h: float
    w: float
    tau_total: float
    r_c: float
    sigma: float
    cop: float
    # (branch maps, the chain vectors at A, D, C, B, A'); read by ``branches``
    chain: tuple = field(repr=False, compare=False)
    iterations: int = 0
    residual: float = float("nan")
    solver_agreement: float = float("nan")
    spectral_radius: float = float("nan")

    @cached_property
    def branches(self) -> tuple[BranchRecord, ...]:
        """Start and end state of each branch, built on first read."""
        maps, vs = self.chain
        omegas = [maps[-1][2]] + [m[2] for m in maps]
        states = [StateVector.from_array(v, w, check=False) for v, w in zip(vs, omegas)]
        return tuple(
            BranchRecord(name=m[0], duration=m[1], start=states[i], end=states[i + 1],
                         delta_e=states[i + 1].e_h - states[i].e_h)
            for i, m in enumerate(maps)
        )

    def laws(self) -> tuple[float, float]:
        """(first-law closure q_c + w - q_h, entropy production sigma)."""
        return self.q_c + self.w - self.q_h, self.sigma


def adiabat_propagator(schedule: Schedule) -> np.ndarray:
    """The schedule's propagator, built once per Schedule instance.

    The matrix is stored read-only on the instance, so a search that varies
    only the isochore times reuses it; an equal but distinct Schedule builds
    its own.
    """
    a = schedule._propagator
    if a is None:
        a = schedule_propagator(schedule)
        a.setflags(write=False)
        object.__setattr__(schedule, "_propagator", a)
    return a


def branch_affine_maps(spec: CycleSpec):
    """The four branch maps as (name, duration, omega_after, A, b)."""
    try:
        a_exp = adiabat_propagator(spec.expansion)
    except (PropagationError, ValueError) as exc:
        raise BranchError("expansion", exc) from exc
    try:
        a_comp = adiabat_propagator(spec.compression)
    except (PropagationError, ValueError) as exc:
        raise BranchError("compression", exc) from exc
    zero = np.zeros(3)
    a_cold, b_cold = isochore_affine(spec.omega_c, spec.cold_bath, spec.tau_c)
    a_hot, b_hot = isochore_affine(spec.omega_h, spec.hot_bath, spec.tau_h)
    return [
        ("expansion", spec.expansion.duration, spec.omega_c, a_exp, zero),
        ("cold_isochore", spec.tau_c, spec.omega_c, a_cold, b_cold),
        ("compression", spec.compression.duration, spec.omega_h, a_comp, zero),
        ("hot_isochore", spec.tau_h, spec.omega_h, a_hot, b_hot),
    ]


def _ledger(spec: CycleSpec, maps, v: np.ndarray, **diag) -> CycleRecord:
    """Heat/work ledger of one cycle started from v at point A."""
    vs = [v]
    for _, _, _, A, b in maps:
        v = A @ v + b
        vs.append(v)
    e_a, e_d, e_c_pt, e_b, e_a2 = (float(u[0]) for u in vs)
    q_c = e_c_pt - e_d                      # heat absorbed on the cold isochore
    q_h = e_b - e_a2                        # heat rejected on the hot isochore
    w = (e_d - e_a) + (e_b - e_c_pt)        # work input on the two adiabats
    tau = spec.tau_total
    r_c = q_c / tau if tau > 0 else 0.0
    sigma = ((-q_c / spec.cold_bath.temperature + q_h / spec.hot_bath.temperature) / tau
             if tau > 0 else 0.0)
    cop = q_c / w if abs(w) > 1e-300 else float("nan")
    return CycleRecord(q_c=q_c, q_h=q_h, w=w, tau_total=tau, r_c=r_c, sigma=sigma,
                       cop=cop, chain=(maps, tuple(vs)), **diag)


def run_one_cycle(spec: CycleSpec, state: StateVector) -> tuple[StateVector, CycleRecord]:
    """Run a single cycle from state A; returns the new A state and the ledger."""
    if not math.isclose(state.omega, spec.omega_h, rel_tol=1e-9):
        raise ValueError("input state must sit at omega_h (cycle point A)")
    record = _ledger(spec, branch_affine_maps(spec), state.as_array())
    _, vs = record.chain
    return StateVector.from_array(vs[-1], spec.omega_h, check=False), record


def cycle_affine_map(spec: CycleSpec, _maps=None) -> tuple[np.ndarray, np.ndarray]:
    """The one-cycle affine map (M, k) with v_A' = M v_A + k.

    The adiabats are linear (b = 0), so the composition of the four branch
    maps is M = A_hot A_comp A_cold A_exp and k = A_hot (A_comp b_cold) + b_hot.
    """
    maps = branch_affine_maps(spec) if _maps is None else _maps
    a_exp, (a_cold, b_cold), a_comp, (a_hot, b_hot) = (
        maps[0][3], maps[1][3:], maps[2][3], maps[3][3:])
    return a_hot @ a_comp @ a_cold @ a_exp, a_hot @ (a_comp @ b_cold) + b_hot


def _norm(x: np.ndarray) -> float:
    return math.sqrt(x @ x)


def _squaring_fixed_point(M: np.ndarray, k: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Fixed point of v -> M v + k reached from x = (v0, 1) by repeated squaring.

    After j squarings of the augmented map T = [[M, k], [0, 1]], T x is
    (v, 1) with v the state 2^j cycles on from v0.  Returns that state and
    2^j once two successive squarings agree to _ITER_RTOL; raises
    NoContractionError when one more squaring would pass _MAX_CYCLES cycles.
    """
    T = np.zeros((4, 4))
    T[:3, :3] = M
    T[:3, 3] = k
    T[3, 3] = 1.0
    prev, cycles = x[:3], 1
    while True:
        v = T[:3] @ x
        if _norm(v - prev) <= _ITER_RTOL * max(_norm(prev), 1e-300):
            return v, cycles
        if 2 * cycles > _MAX_CYCLES:
            raise NoContractionError(
                f"repeated squaring did not converge within {_MAX_CYCLES} cycles")
        T = T @ T
        prev, cycles = v, 2 * cycles


def limit_cycle(spec: CycleSpec) -> tuple[StateVector, CycleRecord]:
    """Find the periodic steady state of the cycle map.

    The fixed point of v -> M v + k is computed two ways that must agree: a
    direct solve of (I - M) v = k, and repeated squaring of the augmented
    map from the hot equilibrium state (``iterations`` is the number of
    cycles that covered, a power of two).  The spectral radius of M is
    reported and must be < 1.  The ledger is one cycle from the direct
    solution.
    """
    g_c = spec.cold_bath.conductance * spec.tau_c
    g_h = spec.hot_bath.conductance * spec.tau_h
    if g_c == 0.0 and g_h == 0.0:
        raise NoContractionError("both isochores have Gamma*tau = 0; no contraction")

    maps = branch_affine_maps(spec)
    M, k = cycle_affine_map(spec, _maps=maps)
    rho = float(np.max(np.abs(np.linalg.eigvals(M))))
    if rho >= _RHO_LIMIT:
        raise NoContractionError(f"cycle map spectral radius {rho:.12f} >= 1; no limit cycle")

    v_direct = np.linalg.solve(np.eye(3) - M, k)
    _, e_hot = equilibrium_state(spec.omega_h, spec.hot_bath)
    v, cycles = _squaring_fixed_point(M, k, np.array([e_hot, 0.0, 0.0, 1.0]))

    scale = max(_norm(v_direct), 1e-300)
    record = _ledger(spec, maps, v_direct, iterations=cycles,
                     residual=_norm(M @ v_direct + k - v_direct) / scale,
                     solver_agreement=_norm(v_direct - v) / scale,
                     spectral_radius=rho)
    return StateVector.from_array(v_direct, spec.omega_h, check=False), record


def equilibration_bound(spec: CycleSpec) -> float:
    """Heat-capacity bound omega_c (n_c_eq - n_h_eq) on q_c per cycle."""
    n_c, _ = equilibrium_state(spec.omega_c, spec.cold_bath)
    n_h, _ = equilibrium_state(spec.omega_h, spec.hot_bath)
    return spec.omega_c * (n_c - n_h)
