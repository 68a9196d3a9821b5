"""Assembly of the four-stroke refrigeration cycle and its limit cycle.

Branch order, starting from point A (end of the hot isochore, omega = omega_h):

    A -> D   expansion adiabat  (omega_h -> omega_c, decoupled)
    D -> C   cold isochore      (contact with the cold bath at omega_c)
    C -> B   compression adiabat (omega_c -> omega_h, decoupled)
    B -> A   hot isochore       (contact with the hot bath at omega_h)

Each branch is an affine map v -> A v + b of the (e_h, e_l, e_c) vector, so
the one-cycle map v -> M v + k is the product of the four branch maps.  Its
unique fixed point (the limit cycle) is found by one direct linear solve.
Each adiabat propagator is built once per Schedule instance and kept on it,
so a search that varies only the isochore times reuses it.

On maps this small numpy's per-call overhead outweighs the arithmetic, so
the core of limit_cycle (composing M and k, the direct solve and the
ledger) runs on plain Python floats: a 3x3 map is a row-major 9-tuple, as
dynamics.schedule_propagator builds it, a vector a 3-tuple and an isochore
its four scalars plus the bath's equilibrium energy.  Its
inputs must be Python floats too: a numpy scalar frequency or temperature
in a CycleSpec turns every map entry, and so M, the LU factors and the
ledger, into numpy scalars, each operation on which costs several times a
float operation.  The core converts nothing; its callers do, once
(SweepSpec.grid, scaling.build_point, Schedule.piecewise).

The one contraction rule is rho(M) < _RHO_LIMIT.  The bound
rho(M) <= ||M||_inf, the largest absolute row sum of M, certifies it; only
a map that the bound does not certify, or a record whose spectral radius
is read, pays for the eigenvalues of the LAPACK routine dgeev that numpy's
eigvals wraps; scipy.linalg is imported on that first call.  The direct
solve is an unrolled partial-pivot LU of I - M, factored once per cycle.
isochore_time_derivatives differentiates the fixed point twice, and with it
ln R_c, with respect to the two isochore times: the exact gradient and
Hessian, from the branch maps, M and the LU factors that the record's
solve built.  It runs in two stages, the gradient and then the Hessian
from the gradient's parts, so a search can stop after the first.

A search that varies only the isochore times takes its cycles from trials
(_trials): both baths' equilibrium energies (_trial_parts), the adiabat
maps and the constants of the fixed point are built once, and a trial
computes the two isochores and runs the fixed-point solve that limit_cycle
runs (_fixed_point), with its checks.  isochore_trials builds them from a
CycleSpec; a sweep point builds its parts once and a duration step its
maps, with no Schedule or CycleSpec.  A trial returns the solved fixed
point as a plain tuple and builds no CycleSpec or CycleRecord;
trial_record builds them, through the spec builder in the tuple's
constants, for a point a caller reads, bit for bit the record limit_cycle
returns: a search's winner, and one record per sweep point, whose
duration and cold-frequency searches compare tuples.  The derivative
stages read the tuple as it is, and isochore_time_derivatives builds the
same tuple from a record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import (
    BathSpec,
    StateVector,
    _adiabat_flat,
    _affine,
    _frozen,
    _iso_affine,
    _isochore,
    equilibrium_state,
    isochore_scalars,
)
from .schedules import Schedule

# Contraction rule of the limit-cycle solver: rho(M) < _RHO_LIMIT.
_RHO_LIMIT = 1.0 - 1e-9
# Contraction certificate: rho(M) <= ||M||_inf for every matrix, so a map
# whose largest absolute row sum is at most this bound has rho <= 0.99, and
# dgeev, whose eigenvalues of a 3x3 are off by about 1e-15 ||M||, cannot
# reach _RHO_LIMIT on it.  The margin to 1 is that error many times over.
_NORM_CERTIFICATE = 0.99


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
DOMAIN_ERRORS = (NoContractionError, BranchError, ValueError)


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

    def __post_init__(self):
        if not (self.omega_h > 0 and self.omega_c > 0):
            raise ValueError("cycle frequencies must be positive")
        # Equality is tolerated only for degenerate (do-nothing) cycles.
        if self.omega_h < self.omega_c:
            raise ValueError("omega_h must be >= omega_c")
        if self.tau_c < 0 or self.tau_h < 0:
            raise ValueError("isochore durations must be >= 0")
        if not (math.isclose(self.expansion.omega_start, self.omega_h, rel_tol=1e-9)
                and math.isclose(self.expansion.omega_end, self.omega_c, rel_tol=1e-9)):
            raise ValueError("expansion schedule endpoints do not match cycle frequencies")
        if not (math.isclose(self.compression.omega_start, self.omega_c, rel_tol=1e-9)
                and math.isclose(self.compression.omega_end, self.omega_h, rel_tol=1e-9)):
            raise ValueError("compression schedule endpoints do not match cycle frequencies")

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

    The diagnostics are computed from the chain when first read, and are
    not part of the record's repr or equality: ``residual`` is the relative
    residual |M v + k - v| / |v| of the direct solution and
    ``spectral_radius`` the spectral radius of M, from dgeev.  A record of
    :func:`run_one_cycle` has nan for both.
    """

    q_c: float
    q_h: float
    w: float
    tau_total: float
    r_c: float
    sigma: float
    cop: float
    # (the CycleSpec, its float branch maps, the one-cycle map M and k, the
    # LU factors of I - M (None from run_one_cycle), the chain vectors at A,
    # D, C, B, A'); read by the diagnostics, ``branches`` and
    # :func:`isochore_time_derivatives`
    chain: tuple = field(repr=False, compare=False)

    @cached_property
    def spectral_radius(self) -> float:
        """Spectral radius of the cycle map M, computed on first read (a
        limit_cycle that ran dgeev itself stores its value in the record)."""
        _, _, m, _, lu, _ = self.chain
        return float("nan") if lu is None else _spectral_radius(m)

    @cached_property
    def residual(self) -> float:
        """|M v_A + k - v_A| / |v_A| of the direct solution, computed on first read."""
        _, _, m, (k0, k1, k2), lu, (v, *_) = self.chain
        if lu is None:
            return float("nan")
        x, y, z = _affine(m, v)
        return math.dist((x + k0, y + k1, z + k2), v) / max(math.hypot(*v), 1e-300)

    @cached_property
    def branches(self) -> tuple[BranchRecord, ...]:
        """Start and end state of each branch, built on first read."""
        spec, *_, vs = self.chain
        legs = (("expansion", spec.expansion.duration, spec.omega_c),
                ("cold_isochore", spec.tau_c, spec.omega_c),
                ("compression", spec.compression.duration, spec.omega_h),
                ("hot_isochore", spec.tau_h, spec.omega_h))
        omegas = [spec.omega_h] + [omega for _, _, omega in legs]
        states = [_state(v, w) for v, w in zip(vs, omegas)]
        return tuple(
            BranchRecord(name=name, duration=duration, start=states[i], end=states[i + 1],
                         delta_e=states[i + 1].e_h - states[i].e_h)
            for i, (name, duration, _) in enumerate(legs)
        )

    def laws(self) -> tuple[float, float]:
        """(first-law closure q_c + w - q_h, entropy production sigma)."""
        return self.q_c + self.w - self.q_h, self.sigma


# Float maps of the limit-cycle core: a 3x3 map is a row-major 9-tuple, a
# vector a 3-tuple, and an isochore its scalars (d, dc, ds, b0, e_eq) from
# isochore_scalars.  A map applied to a vector (_affine, _iso_affine) and the
# adiabat's cached propagator (_adiabat_flat) come from dynamics, whose
# propagate and propagate_isochore apply the same maps.

def _mul(a, b):
    """The product a b of two 3x3 maps."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
            a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
            a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8)


def _iso_mul(iso, a):
    """The isochore's linear part times a 3x3 map a."""
    d, dc, ds, _, _ = iso
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    return (d * a0, d * a1, d * a2,
            dc * a3 - ds * a6, dc * a4 - ds * a7, dc * a5 - ds * a8,
            ds * a3 + dc * a6, ds * a4 + dc * a7, ds * a5 + dc * a8)


def _adiabat_maps(expansion: Schedule, compression: Schedule) -> list:
    """The float adiabat maps [A_exp, A_comp]; a failed build is a BranchError
    naming its branch."""
    adiabats = []
    for branch, schedule in (("expansion", expansion), ("compression", compression)):
        try:
            adiabats.append(_adiabat_flat(schedule))
        except ValueError as exc:
            raise BranchError(branch, exc) from exc
    return adiabats


def _branch_maps(spec: CycleSpec) -> tuple:
    """The float branch maps (A_exp, cold isochore, A_comp, hot isochore)."""
    a_exp, a_comp = _adiabat_maps(spec.expansion, spec.compression)
    return (a_exp, isochore_scalars(spec.omega_c, spec.cold_bath, spec.tau_c),
            a_comp, isochore_scalars(spec.omega_h, spec.hot_bath, spec.tau_h))


def _compose(maps) -> tuple[tuple, tuple]:
    """The one-cycle map (M, k) of the float branch maps.

    The adiabats are linear (b = 0), so the composition of the four branch
    maps is M = A_hot A_comp A_cold A_exp and k = A_hot (A_comp b_cold) + b_hot.
    """
    a_exp, cold, a_comp, hot = maps
    m = _iso_mul(hot, _mul(a_comp, _iso_mul(cold, a_exp)))
    return m, _iso_affine(hot, _affine(a_comp, (cold[3], 0.0, 0.0)))


def _ledger(spec: CycleSpec, point: tuple) -> CycleRecord:
    """Heat/work ledger of ``spec``'s cycle started from the point's v_A; the
    point's q_c, R_c and tau_total are taken as they are."""
    r_c, q_c, tau, _, _, cold, hot, m, k, lu, v, v_c, rho, consts = point
    a_exp, a_comp = consts[1], consts[2]
    v_d = _affine(a_exp, v)
    v_b = _affine(a_comp, v_c)
    v_a2 = _iso_affine(hot, v_b)
    e_a, e_d, e_c_pt, e_b, e_a2 = v[0], v_d[0], v_c[0], v_b[0], v_a2[0]
    q_h = e_b - e_a2                        # heat rejected on the hot isochore
    w = (e_d - e_a) + (e_b - e_c_pt)        # work input on the two adiabats
    sigma = ((-q_c / spec.cold_bath.temperature + q_h / spec.hot_bath.temperature) / tau
             if tau > 0 else 0.0)
    cop = q_c / w if abs(w) > 1e-300 else float("nan")
    fields = {"q_c": q_c, "q_h": q_h, "w": w, "tau_total": tau, "r_c": r_c, "sigma": sigma,
              "cop": cop, "chain": (spec, (a_exp, cold, a_comp, hot), m, k, lu,
                                    (v, v_d, v_c, v_b, v_a2))}
    if rho is not None:
        fields["spectral_radius"] = rho
    return _frozen(CycleRecord, fields)


def _constants(spec: CycleSpec, a_exp: tuple, a_comp: tuple) -> tuple:
    """The parts of a fixed point of ``spec``'s cycle that do not depend on
    the isochore times (see _fixed_point)."""
    return (_retimed(spec), a_exp, a_comp, spec.omega_c, spec.cold_bath.conductance,
            spec.omega_h, spec.hot_bath.conductance,
            spec.expansion.duration, spec.compression.duration)


def _retimed(base: CycleSpec):
    """The spec builder (see _fixed_point) of ``base``'s cycle: base with a
    point's isochore times."""
    return lambda point: _frozen(CycleSpec, {**vars(base), "tau_c": point[3],
                                             "tau_h": point[4]})


def run_one_cycle(spec: CycleSpec, state: StateVector) -> tuple[StateVector, CycleRecord]:
    """Run a single cycle from state A; returns the new A state and the ledger."""
    if not math.isclose(state.omega, spec.omega_h, rel_tol=1e-9):
        raise ValueError("input state must sit at omega_h (cycle point A)")
    a_exp, cold, a_comp, hot = maps = _branch_maps(spec)
    record = _ledger(spec, _point(_constants(spec, a_exp, a_comp), cold, hot, spec.tau_c,
                                  spec.tau_h, *_compose(maps), None,
                                  (state.e_h, state.e_l, state.e_c), None))
    *_, vs = record.chain
    return _state(vs[-1], spec.omega_h), record


def _state(v: tuple, omega: float) -> StateVector:
    """The unchecked StateVector of a chain vector at frequency omega."""
    return _frozen(StateVector, {"e_h": v[0], "e_l": v[1], "e_c": v[2], "omega": omega})


def _lu(m: tuple) -> tuple:
    """Partial-pivot LU factors (p, l10, l20, l21, u00, u01, u02, u11, u12, u22)
    of I - m as LAPACK's dgetf2 forms them: row p[i] of I - m is row i of L U,
    each pivot the first entry of largest magnitude.  A zero pivot raises
    LinAlgError."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    r0, r1, r2 = (1.0 - m0, -m1, -m2), (-m3, 1.0 - m4, -m5), (-m6, -m7, 1.0 - m8)
    a0, a1, a2 = abs(r0[0]), abs(r1[0]), abs(r2[0])
    if a1 > a0 and a1 >= a2:
        p, r0, r1 = (1, 0, 2), r1, r0
    elif a2 > a0 and a2 > a1:
        p, r0, r2 = (2, 1, 0), r2, r0
    else:
        p = (0, 1, 2)
    u00, u01, u02 = r0
    if u00 == 0.0:
        raise np.linalg.LinAlgError("singular matrix I - M (zero pivot in column 0)")
    inv = 1.0 / u00
    l10, l20 = r1[0] * inv, r2[0] * inv
    u11, u12 = r1[1] - l10 * u01, r1[2] - l10 * u02
    a21, a22 = r2[1] - l20 * u01, r2[2] - l20 * u02
    if abs(a21) > abs(u11):
        p, l10, l20 = (p[0], p[2], p[1]), l20, l10
        u11, u12, a21, a22 = a21, a22, u11, u12
    if u11 == 0.0:
        raise np.linalg.LinAlgError("singular matrix I - M (zero pivot in column 1)")
    l21 = a21 * (1.0 / u11)
    u22 = a22 - l21 * u12
    if u22 == 0.0:
        raise np.linalg.LinAlgError("singular matrix I - M (zero pivot in column 2)")
    return p, l10, l20, l21, u00, u01, u02, u11, u12, u22


def _lu_solve(lu: tuple, b: tuple) -> tuple:
    """x with (I - m) x = b, from the factors _lu(m): L y = P b, then U x = y."""
    (i, j, k), l10, l20, l21, u00, u01, u02, u11, u12, u22 = lu
    y0 = b[i]
    y1 = b[j] - l10 * y0
    y2 = b[k] - l20 * y0 - l21 * y1
    x2 = y2 / u22
    x1 = (y1 - u12 * x2) / u11
    return (y0 - u02 * x2 - u01 * x1) / u00, x1, x2


def _spectral_radius(m: tuple) -> float:
    """Spectral radius of the 3x3 map m from its LAPACK dgeev eigenvalues; a
    dgeev failure raises LinAlgError."""
    from scipy.linalg.lapack import dgeev   # scipy.linalg loads on the first call
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    wr, wi, _, _, info = dgeev(((m0, m1, m2), (m3, m4, m5), (m6, m7, m8)),
                               compute_vl=0, compute_vr=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"eigenvalue computation failed (dgeev info {info})")
    return max(map(math.hypot, wr.tolist(), wi.tolist()))


def _check_contraction(gamma_c: float, tau_c: float, gamma_h: float, tau_h: float) -> None:
    """NoContractionError when both isochores have Gamma tau = 0."""
    if gamma_c * tau_c == 0.0 and gamma_h * tau_h == 0.0:
        raise NoContractionError("both isochores have Gamma*tau = 0; no contraction")


# A solved fixed point, as a search trial returns it: the tuple
#     (r_c, q_c, tau_total, tau_c, tau_h, cold, hot, m, k, lu, v_a, v_c, rho, consts)
# with the isochores' scalars cold and hot, the one-cycle map (m, k), the LU
# factors of I - M, the states at A and C, rho the spectral radius when dgeev
# ran (the max-norm did not certify M), else None, and consts the parts that
# do not depend on the isochore times:
#     (spec_at, a_exp, a_comp, omega_c, Gamma_c, omega_h, Gamma_h,
#      the expansion's and the compression's duration)
# where spec_at(point) builds the point's CycleSpec.  trial_record builds
# the CycleRecord of one; the derivative stages read one as it is.

def _fixed_point(consts: tuple, cold: tuple, hot: tuple, tau_c: float, tau_h: float) -> tuple:
    """The fixed point of the cycle with these isochores (see limit_cycle)."""
    m, k = _compose((consts[1], cold, consts[2], hot))
    if not all(map(math.isfinite, m + k)):
        raise np.linalg.LinAlgError("cycle map must not contain infs or NaNs")
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    rho = None
    if max(abs(m0) + abs(m1) + abs(m2), abs(m3) + abs(m4) + abs(m5),
           abs(m6) + abs(m7) + abs(m8)) > _NORM_CERTIFICATE:   # not certified
        rho = _spectral_radius(m)
        if rho >= _RHO_LIMIT:
            raise NoContractionError(
                f"cycle map spectral radius {rho:.12f} >= {_RHO_LIMIT!r}; no limit cycle")
    lu = _lu(m)
    return _point(consts, cold, hot, tau_c, tau_h, m, k, lu, _lu_solve(lu, k), rho)


def _point(consts: tuple, cold: tuple, hot: tuple, tau_c: float, tau_h: float,
           m: tuple, k: tuple, lu, v: tuple, rho) -> tuple:
    """The fixed-point tuple of the cycle started from v at point A, with
    q_c, R_c and tau_total from one cycle."""
    v_d = _affine(consts[1], v)
    v_c = _iso_affine(cold, v_d)
    q_c = v_c[0] - v_d[0]                   # heat absorbed on the cold isochore
    tau = consts[7] + tau_c + consts[8] + tau_h
    return (q_c / tau if tau > 0 else 0.0, q_c, tau, tau_c, tau_h, cold, hot, m, k, lu, v, v_c,
            rho, consts)


def _solve(spec: CycleSpec) -> CycleRecord:
    """The limit-cycle record of ``spec`` (see limit_cycle)."""
    _check_contraction(spec.cold_bath.conductance, spec.tau_c,
                       spec.hot_bath.conductance, spec.tau_h)
    a_exp, cold, a_comp, hot = _branch_maps(spec)
    return _ledger(spec, _fixed_point(_constants(spec, a_exp, a_comp), cold, hot,
                                      spec.tau_c, spec.tau_h))


def limit_cycle(spec: CycleSpec) -> tuple[StateVector, CycleRecord]:
    """Find the periodic steady state of the cycle map.

    The fixed point of v -> M v + k is the direct solve of (I - M) v = k
    (the LU factors of _lu, kept in the record's chain).  The spectral
    radius of M must be < _RHO_LIMIT: ||M||_inf <= _NORM_CERTIFICATE
    certifies that, and only when it does not are the LAPACK dgeev
    eigenvalues computed here; a radius at or above the limit, or
    Gamma tau = 0 on both isochores, raises NoContractionError.  On a
    certified map the record runs dgeev when its ``spectral_radius`` is
    read.  A non-finite M raises LinAlgError.  The ledger is one cycle from
    the direct solution.  M, k and the ledger are computed on plain floats.
    """
    record = _solve(spec)
    return _state(record.chain[-1][0], spec.omega_h), record


def isochore_trials(base: CycleSpec):
    """The fixed point of ``base`` with its isochore times replaced, as a
    function ``trial(tau_c, tau_h)`` of two times > 0 (see _trials).

    It raises what limit_cycle raises for the CycleSpec with those times, a
    failed adiabat build included.  :func:`trial_record` builds the record,
    bit for bit the one limit_cycle returns.
    """
    return _trials(_trial_parts(_retimed(base), base.omega_c, base.cold_bath,
                                base.omega_h, base.hot_bath),
                   _adiabats(_adiabat_maps, base.expansion, base.compression),
                   base.expansion.duration, base.compression.duration)


def _trial_parts(spec_at, omega_c: float, cold: BathSpec, omega_h: float,
                 hot: BathSpec) -> tuple:
    """The parts of a cycle's trials that do not depend on its adiabats:
    (spec_at, omega_c, Gamma_c, omega_h, Gamma_h, e_eq_c, e_eq_h)."""
    _, e_eq_c = equilibrium_state(omega_c, cold)
    _, e_eq_h = equilibrium_state(omega_h, hot)
    return spec_at, omega_c, cold.conductance, omega_h, hot.conductance, e_eq_c, e_eq_h


def _adiabats(build, *args):
    """The adiabat maps (A_exp, A_comp) of ``build(*args)``, or the
    BranchError of its failure, for each trial to raise (see _trials).  A
    ValueError of a ramp pair builder is the expansion's, built first."""
    try:
        return build(*args)
    except BranchError as exc:
        return exc
    except ValueError as exc:
        return BranchError("expansion", exc)


def _trials(parts: tuple, adiabats, tau_exp: float, tau_comp: float):
    """``trial(tau_c, tau_h)``, for two times > 0, from a cycle's parts
    (_trial_parts), its adiabats (_adiabats) and their durations.

    A trial computes the two isochores and runs limit_cycle's fixed-point
    solve (_fixed_point) with limit_cycle's checks, in its order, and
    returns the tuple; it builds no CycleSpec or CycleRecord.
    """
    spec_at, omega_c, gamma_c, omega_h, gamma_h, e_eq_c, e_eq_h = parts
    failure = adiabats if isinstance(adiabats, BranchError) else None
    a_exp, a_comp = (None, None) if failure else adiabats
    consts = (spec_at, a_exp, a_comp, omega_c, gamma_c, omega_h, gamma_h, tau_exp, tau_comp)

    def trial(tau_c: float, tau_h: float) -> tuple:
        if not (tau_c > 0.0 and tau_h > 0.0):
            raise ValueError(f"trial isochore durations must be > 0, got {tau_c!r}, {tau_h!r}")
        _check_contraction(gamma_c, tau_c, gamma_h, tau_h)
        if failure:
            raise BranchError(failure.branch, failure.cause) from failure.cause
        return _fixed_point(consts, _isochore(omega_c, gamma_c, tau_c, e_eq_c),
                            _isochore(omega_h, gamma_h, tau_h, e_eq_h), tau_c, tau_h)

    return trial


def trial_record(point: tuple) -> CycleRecord:
    """The limit-cycle record of a trial's fixed point (see _trials), bit for
    bit the one limit_cycle returns: its CycleSpec is the one the point's
    spec builder makes."""
    return _ledger(point[-1][0](point), point)


def _generator(omega: float, gamma: float, u: tuple) -> tuple:
    """J u for the linear part J of the isochore generator: decay gamma, rotation 2 omega."""
    x, y, z = u
    return (-gamma * x, -gamma * y - 2.0 * omega * z, -gamma * z + 2.0 * omega * y)


def isochore_time_derivatives(record: CycleRecord) -> tuple[tuple, tuple]:
    """Exact gradient and Hessian of ln |R_c| in (ln tau_c, ln tau_h) at a limit cycle.

    ``record`` is a :func:`limit_cycle` record; its chain holds the spec, the
    branch maps, M, k, the LU factors of I - M and the fixed point v_A with
    the states v_D, v_C after it.
    Returns ((g_c, g_h), ((h_cc, h_ch), (h_ch, h_hh))).

    The isochore flow has the field f(v) = J (v - v_eq), with J its linear
    part and L = e^(J tau) the decayed rotation of isochore_scalars.  The
    cycle map F(v) = M v + k moves with the isochore times as dF/dtau_c =
    L_h A_comp f_c(v_C) and dF/dtau_h = f_h(v_A), so the fixed point moves as
    v_i = (I - M)^-1 dF/dtau_i.  Its second derivatives solve
    (I - M) v_ij = d_ij F + (d_v d_i F) v_j + (d_v d_j F) v_i (the record's LU
    factors serve all five right-hand sides) with

        d_v d_tau_c F = L_h A_comp J_c L_c A_exp,   d_v d_tau_h F = J_h M,
        d_cc F = L_h A_comp J_c f_c(v_C),   d_ch F = J_h dF/dtau_c,
        d_hh F = J_h f_h(v_A).

    Q_c = (d_c - 1) ([A_exp v_A]_0 - e_eq,c) with d_c = e^(-Gamma_c tau_c)
    gives dQ_c/dtau_c = (d_c - 1) [A_exp v_c]_0 + [f_c(v_C)]_0,
    dQ_c/dtau_h = (d_c - 1) [A_exp v_h]_0 and, with d_c' = -Gamma_c d_c,
    Q_ij = (d_c - 1) [A_exp v_ij]_0 plus 2 d_c' [A_exp v_c]_0 - Gamma_c
    [f_c(v_C)]_0 in Q_cc and d_c' [A_exp v_h]_0 in Q_ch.  With tau = tau_total,
    R_i = (Q_i - R_c) / tau and R_ij = (Q_ij - R_i - R_j) / tau; then g_i =
    tau_i R_i / R_c and h_ij = tau_i tau_j R_ij / R_c - g_i g_j + [i = j] g_i.
    For a cycle that heats the cold bath (q_c < 0) these are the derivatives
    of ln |R_c|; q_c = 0 raises ValueError.
    """
    spec, (a_exp, cold, a_comp, hot), m, k, lu, (v_a, _, v_c, _, _) = record.chain
    point = (record.r_c, record.q_c, record.tau_total, spec.tau_c, spec.tau_h, cold, hot,
             m, k, lu, v_a, v_c, None, _constants(spec, a_exp, a_comp))
    g, stage = _time_gradient(point)
    return g, _time_hessian(point, stage)


def _time_gradient(point: tuple) -> tuple[tuple, tuple]:
    """The gradient (g_c, g_h) of isochore_time_derivatives at a fixed point
    (see _fixed_point) and the parts of it that its Hessian stage,
    _time_hessian, reads."""
    r_c, q, _, tau_c, tau_h, cold, hot, _, _, lu, v_a, v_c, _, consts = point
    if q == 0.0:
        raise ValueError("ln |R_c| has no derivatives at q_c = 0")
    _, a_exp, a_comp, omega_c, gamma_c, omega_h, gamma_h, _, _ = consts
    hot_lin = hot[:3] + (0.0, 0.0)      # the hot isochore's linear part L_h
    f_c = _generator(omega_c, gamma_c, (v_c[0] - cold[4], v_c[1], v_c[2]))
    f_h = _generator(omega_h, gamma_h, (v_a[0] - hot[4], v_a[1], v_a[2]))
    b_c = _iso_affine(hot_lin, _affine(a_comp, f_c))
    v_tc, v_th = _lu_solve(lu, b_c), _lu_solve(lu, f_h)
    x_tc, x_th = _affine(a_exp, v_tc), _affine(a_exp, v_th)

    d_c_minus_1 = cold[0] - 1.0
    dq_c = d_c_minus_1 * x_tc[0] + f_c[0]
    dq_h = d_c_minus_1 * x_th[0]
    g = (tau_c * (dq_c - r_c) / q, tau_h * (dq_h - r_c) / q)
    return g, (g, f_c, f_h, b_c, v_tc, v_th, x_tc, x_th, dq_c, dq_h)


def _time_hessian(point: tuple, stage: tuple) -> tuple:
    """The Hessian of isochore_time_derivatives from its gradient stage."""
    r_c, q, tau, tau_c, tau_h, cold, hot, m, _, lu, _, _, _, consts = point
    (g_c, g_h), f_c, f_h, b_c, v_tc, v_th, x_tc, x_th, dq_c, dq_h = stage
    _, a_exp, a_comp, omega_c, gamma_c, omega_h, gamma_h, _, _ = consts
    # the isochores' linear parts L_c, L_h
    cold_lin, hot_lin = cold[:3] + (0.0, 0.0), hot[:3] + (0.0, 0.0)

    w0, w1, w2 = _iso_affine(cold_lin, x_tc)
    r_cc = _iso_affine(hot_lin, _affine(a_comp, _generator(
        omega_c, gamma_c, (f_c[0] + 2.0 * w0, f_c[1] + 2.0 * w1, f_c[2] + 2.0 * w2))))
    w0, w1, w2 = _affine(m, v_tc)
    u0, u1, u2 = _generator(omega_h, gamma_h, (b_c[0] + w0, b_c[1] + w1, b_c[2] + w2))
    w0, w1, w2 = _iso_affine(hot_lin, _affine(a_comp, _generator(
        omega_c, gamma_c, _iso_affine(cold_lin, x_th))))
    r_ch = (u0 + w0, u1 + w1, u2 + w2)
    w0, w1, w2 = _affine(m, v_th)
    r_hh = _generator(omega_h, gamma_h, (f_h[0] + 2.0 * w0, f_h[1] + 2.0 * w1,
                                         f_h[2] + 2.0 * w2))

    d_c = cold[0]
    d_c_minus_1 = d_c - 1.0
    a_c, a_h = x_tc[0], x_th[0]
    q_cc = (d_c_minus_1 * _affine(a_exp, _lu_solve(lu, r_cc))[0] - 2.0 * gamma_c * d_c * a_c
            - gamma_c * f_c[0])
    q_ch = d_c_minus_1 * _affine(a_exp, _lu_solve(lu, r_ch))[0] - gamma_c * d_c * a_h
    q_hh = d_c_minus_1 * _affine(a_exp, _lu_solve(lu, r_hh))[0]

    r_tc, r_th = (dq_c - r_c) / tau, (dq_h - r_c) / tau
    h_ch = tau_c * tau_h * (q_ch - r_tc - r_th) / q - g_c * g_h
    return ((tau_c * tau_c * (q_cc - 2.0 * r_tc) / q - g_c * g_c + g_c, h_ch),
            (h_ch, tau_h * tau_h * (q_hh - 2.0 * r_th) / q - g_h * g_h + g_h))


def equilibration_bound(spec: CycleSpec) -> float:
    """Heat-capacity bound omega_c (n_c_eq - n_h_eq) on q_c per cycle."""
    n_c, _ = equilibrium_state(spec.omega_c, spec.cold_bath)
    n_h, _ = equilibrium_state(spec.omega_h, spec.hot_bath)
    return spec.omega_c * (n_c - n_h)
