"""Assembly of the four-stroke refrigeration cycle and its limit cycle.

Branch order, starting from point A (end of the hot isochore, omega = omega_h):

    A -> D   expansion adiabat  (omega_h -> omega_c, decoupled)
    D -> C   cold isochore      (contact with the cold bath at omega_c)
    C -> B   compression adiabat (omega_c -> omega_h, decoupled)
    B -> A   hot isochore       (contact with the hot bath at omega_h)

Each branch is an affine map v -> A v + b of the (e_h, e_l, e_c) vector, so
the one-cycle map is affine as well and its unique fixed point (the limit
cycle) can be found by a direct linear solve, cross-checked by fixed-point
iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """

    branches: tuple[BranchRecord, ...]
    q_c: float
    q_h: float
    w: float
    tau_total: float
    r_c: float
    sigma: float
    cop: float
    iterations: int = 0
    residual: float = float("nan")
    solver_agreement: float = float("nan")
    spectral_radius: float = float("nan")

    def laws(self) -> tuple[float, float]:
        """(first-law closure q_c + w - q_h, entropy production sigma)."""
        return self.q_c + self.w - self.q_h, self.sigma


def branch_affine_maps(spec: CycleSpec):
    """The four branch maps as (name, duration, omega_after, A, b)."""
    try:
        a_exp = schedule_propagator(spec.expansion)
    except (PropagationError, ValueError) as exc:
        raise BranchError("expansion", exc) from exc
    try:
        a_comp = schedule_propagator(spec.compression)
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


def _propagate_chain(maps, v: np.ndarray) -> list[np.ndarray]:
    """Apply the branch maps in order; returns [v_A, v_D, v_C, v_B, v_A']."""
    out = [v]
    for _, _, _, A, b in maps:
        v = A @ v + b
        out.append(v)
    return out


def run_one_cycle(spec: CycleSpec, state: StateVector,
                  _maps=None, _diag: dict | None = None) -> tuple[StateVector, CycleRecord]:
    """Run a single cycle from state A; returns the new A state and the ledger."""
    if not math.isclose(state.omega, spec.omega_h, rel_tol=1e-9):
        raise ValueError("input state must sit at omega_h (cycle point A)")
    maps = branch_affine_maps(spec) if _maps is None else _maps
    vs = _propagate_chain(maps, state.as_array())
    omegas = [spec.omega_h] + [m[2] for m in maps]
    states = [StateVector.from_array(v, w, check=False) for v, w in zip(vs, omegas)]

    branches = tuple(
        BranchRecord(name=m[0], duration=m[1], start=states[i], end=states[i + 1],
                     delta_e=states[i + 1].e_h - states[i].e_h)
        for i, m in enumerate(maps)
    )
    e_a, e_d, e_c_pt, e_b, e_a2 = (s.e_h for s in states)
    q_c = e_c_pt - e_d                      # heat absorbed on the cold isochore
    q_h = e_b - e_a2                        # heat rejected on the hot isochore
    w = (e_d - e_a) + (e_b - e_c_pt)        # work input on the two adiabats
    tau = spec.tau_total
    r_c = q_c / tau if tau > 0 else 0.0
    sigma = ((-q_c / spec.cold_bath.temperature + q_h / spec.hot_bath.temperature) / tau
             if tau > 0 else 0.0)
    cop = q_c / w if abs(w) > 1e-300 else float("nan")
    diag = _diag or {}
    record = CycleRecord(
        branches=branches, q_c=q_c, q_h=q_h, w=w, tau_total=tau, r_c=r_c,
        sigma=sigma, cop=cop, **diag,
    )
    return states[-1], record


def cycle_affine_map(spec: CycleSpec, _maps=None) -> tuple[np.ndarray, np.ndarray]:
    """Extract the one-cycle affine map (M, k) with v_A' = M v_A + k.

    k is obtained by propagating the zero vector and the columns of M by
    propagating the three unit basis vectors; the composed map is affine, so
    these four propagations determine it exactly.
    """
    maps = branch_affine_maps(spec) if _maps is None else _maps
    k = _propagate_chain(maps, np.zeros(3))[-1]
    M = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1.0
        M[:, j] = _propagate_chain(maps, e)[-1] - k
    return M, k


def limit_cycle(spec: CycleSpec) -> tuple[StateVector, CycleRecord]:
    """Find the periodic steady state of the cycle map.

    The fixed point of v -> M v + k is computed two ways that must agree:
    a direct solve of (I - M) v = k, and fixed-point iteration from the hot
    equilibrium state.  The spectral radius of M is reported and must be < 1.
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

    v = StateVector.thermal(spec.omega_h, spec.hot_bath).as_array()
    iterations = 0
    for iterations in range(1, _MAX_CYCLES + 1):
        v_next = M @ v + k
        if np.linalg.norm(v_next - v) <= _ITER_RTOL * max(np.linalg.norm(v), 1e-300):
            v = v_next
            break
        v = v_next
    else:
        raise NoContractionError(f"fixed-point iteration did not converge in {_MAX_CYCLES} cycles")

    scale = max(np.linalg.norm(v_direct), 1e-300)
    agreement = float(np.linalg.norm(v_direct - v) / scale)
    residual = float(np.linalg.norm(M @ v_direct + k - v_direct) / scale)

    state = StateVector.from_array(v_direct, spec.omega_h, check=False)
    diag = {"iterations": iterations, "residual": residual,
            "solver_agreement": agreement, "spectral_radius": rho}
    _, record = run_one_cycle(spec, state, _maps=maps, _diag=diag)
    return state, record


def equilibration_bound(spec: CycleSpec) -> float:
    """Heat-capacity bound omega_c (n_c_eq - n_h_eq) on q_c per cycle."""
    n_c, _ = equilibrium_state(spec.omega_c, spec.cold_bath)
    n_h, _ = equilibrium_state(spec.omega_h, spec.hot_bath)
    return spec.omega_c * (n_c - n_h)
