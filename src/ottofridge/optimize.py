"""Optimization of the cooling rate: isochore time allocation, cold-frequency
choice, multi-start searches over branch times (a damped Newton step on the
exact gradient and Hessian for the two isochore times, Nelder-Mead
otherwise), and an evolutionary search (scipy's differential evolution) over
piecewise frequency protocols.

The Newton search over the isochore times is one function,
search_isochore_times: optimize_time_allocation runs it once per start, and
a searched sweep point calls it directly from its z-equation allocation.
It builds its cycles' fixed parts once (cycle.isochore_trials), and takes
the Hessian only where it builds a step.  Its loop runs on floats, and its
trials are bare fixed-point tuples keyed by their (tau_c, tau_h): a dict of
free values is built only for the point a search returns, and a
CycleRecord (cycle.trial_record) only for a point a caller reads, a
restart's winner, the z-equation comparison or a sweep point's winner.  A
SearchTally counts what the searches of one call meet, searches that end
held at a face of their box included, keeps the fixed point of each Newton
trial and raises their one warning.  A sweep's duration step only ranks
its duration, so its search pauses once the Newton decrement bounds the
gain left by _SCORE_GAIN and keeps its loop state in its SearchTally; only
the winning duration's search is resumed, by the same loop, to the full
tolerance.

All stochastic searches draw from a seeded PCG64 generator and reduce results
in candidate order, so a fixed seed gives bit-identical output.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cycle import (
    DOMAIN_ERRORS,
    CycleRecord,
    CycleSpec,
    _time_gradient,
    _time_hessian,
    isochore_trials,
    limit_cycle,
    trial_record,
)
from .schedules import Schedule, build_three_jump

FREE_VARS = ("tau_c", "tau_h", "tau_hc", "tau_ch", "omega_c")

# Newton search over the isochore times (ln tau_c, ln tau_h)
_NEWTON_GTOL = 1e-10       # stop at a projected max |d ln R_c / d ln tau| below this
_NEWTON_RTOL = 1e-12       # fall in R_c a smaller gradient may excuse: rounding level
_NEWTON_MAX_ITER = 50      # iterations per start; reaching it is warned about
# gain in ln R_c left below which a search run with ``pause`` pauses: the Newton
# decrement 1/2 g^T (-H)^-1 g with the last iteration's Hessian.  A paused
# search's R_c was within 9.0e-10 relative of its finished search's (the
# exponential and linear searched sweeps, T_c 1e-1 -> 1e-3, on the grid and
# shifted half a step); a gradient-norm rule, max |g| <= 1e-3 alone, was off
# by up to 3.6e-5 where some direction is flat
_SCORE_GAIN = 1e-9

# Nelder-Mead stopping tolerances on x and on -R_c, for the other free sets
_NM_XTOL = 1e-7
_NM_FTOL = 1e-11
_NM_MAX_ITER = 400         # iterations per start; reaching it is warned about


# ---------------------------------------------------------------------------
# Closed-form pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsochoreAllocation:
    z: float
    tau_h: float
    tau_c: float
    degenerate: bool = False


# Taylor coefficients 2 / (2n + 1)! of 2 (sinh z - z) / z^3 in z^2, highest first
_SINH_EXCESS_SERIES = tuple(2.0 / math.factorial(2 * n + 1) for n in range(9, 0, -1))


def _sinh_excess(z: float) -> float:
    """2 (sinh z - z) for z >= 0, as its Taylor series below z = 1, where the
    difference cancels (nine terms leave a relative truncation below 5e-17)."""
    if z >= 1.0:
        return 2.0 * (math.sinh(z) - z)
    w, total = z * z, 0.0
    for c in _SINH_EXCESS_SERIES:
        total = total * w + c
    return total * w * z


def solve_isochore_z(gamma_h: float, gamma_c: float,
                     tau_adiabats: float) -> IsochoreAllocation:
    """Optimal isochore times for given total adiabat time.

    Solves 2 z + Gamma * tau_adiabats = 2 sinh(z) for the unique z > 0 and
    returns tau_h = z / gamma_h, tau_c = z / gamma_c.  The transcendental
    equation is the exact stationarity condition of the cooling rate when the
    two conductances are equal (z = Gamma_h tau_h = Gamma_c tau_c with a
    single Gamma); for gamma_h != gamma_c it is a heuristic (gamma_h is used)
    and a searched optimization is authoritative.

    With a = gamma_h tau_adiabats, Newton's method runs on the residual
    2 (sinh z - z) - a (see _sinh_excess) with the slope 4 sinh^2(z/2).  The
    residual is convex, so from a start right of the root the iterates fall
    monotonically onto it; they stop when a step no longer lowers z.  The
    start is the lower of two bounds: z^3/3 <= 2 (sinh z - z), and the root
    solves z = asinh(a/2 + z) with z < asinh(a/2) + 1.
    """
    if gamma_h <= 0 or gamma_c <= 0:
        raise ValueError("conductances must be positive")
    if tau_adiabats < 0:
        raise ValueError("tau_adiabats must be >= 0")
    if tau_adiabats == 0.0:
        return IsochoreAllocation(0.0, 0.0, 0.0, degenerate=True)
    z = _z_root(gamma_h * tau_adiabats)
    return IsochoreAllocation(z, z / gamma_h, z / gamma_c)


def _z_root(a: float) -> float:
    """The root z > 0 of 2 (sinh z - z) = a for a > 0, by the Newton
    iteration of solve_isochore_z, which checks its inputs; a sweep point's
    z-allocation calls it directly.  Both call it only for tau_adiabats > 0,
    so a = 0 is a product that underflowed, whose Newton start z = 0 has
    slope 0; it raises ValueError, as does a non-finite a."""
    if not math.isfinite(a):
        raise ValueError("gamma_h * tau_adiabats must be finite")
    if a == 0.0:
        raise ValueError("gamma_h * tau_adiabats underflows to 0 with tau_adiabats > 0")
    z = min((3.0 * a) ** (1.0 / 3.0), math.asinh(0.5 * a + math.asinh(0.5 * a) + 1.0))
    while True:
        z_new = z - (_sinh_excess(z) - a) / (4.0 * math.sinh(0.5 * z) ** 2)
        if not z_new < z:
            return z
        z = z_new


_NEG_INV_E = -math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of the product-log: w with w * exp(w) = x, w >= -1.

    Halley iteration from a piecewise initial guess (branch-point series near
    -1/e, log(x) - log(log(x)) for large x, log1p(x) otherwise) converged to
    residual |w e^w - x| <= 1e-14 * max(|x|, 1).
    """
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if x < _NEG_INV_E * (1.0 + 4e-16) - 1e-300:
        raise ValueError(f"lambert_w0 domain is x >= -1/e; got {x}")
    if x <= _NEG_INV_E:
        return -1.0
    if x == 0.0:
        return 0.0
    if x < -0.30:
        p = math.sqrt(2.0 * (1.0 + math.e * x))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    elif x > math.e:
        lx = math.log(x)
        w = lx - math.log(lx)
    else:
        w = math.log1p(x)
    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 1e-15 * max(abs(x), 1.0):
            break
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= 4e-16 * max(abs(w), 1.0):
            break
    if abs(w * math.exp(w) - x) > 1e-14 * max(abs(x), 1.0):
        raise ArithmeticError(f"lambert_w0 failed to converge at x = {x}")
    return w


def optimal_cold_frequency(nu: float, t_c: float) -> tuple[float, float]:
    """Frequency maximizing omega^nu * n_eq(omega, T_c) and the ratio kappa.

    kappa = nu + W0(-nu e^-nu) solves the stationarity condition
    nu (1 - e^(-omega/T)) = omega/T of the full Bose-Einstein occupation.
    The optimum is interior only for nu > 1 (kappa = 0 otherwise).
    Returns (omega_c_star, kappa) with omega_c_star = kappa * T_c.
    """
    if nu <= 0 or t_c <= 0:
        raise ValueError("nu and t_c must be positive")
    kappa = nu + lambert_w0(-nu * math.exp(-nu))
    return kappa * t_c, kappa


# ---------------------------------------------------------------------------
# Multi-start search over branch times / cold frequency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizationSpec:
    """Setup of :func:`optimize_time_allocation` over a CycleSpec template.

    ``free`` names the variables searched (a subset of FREE_VARS) and
    ``bounds`` maps each to a positive (lo, hi) interval; ``seed`` draws the
    random starts among the ``restarts`` starts.
    """

    base: CycleSpec
    free: tuple[str, ...] = ()
    bounds: dict = field(default_factory=dict)
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        if len(set(self.free)) < len(self.free):
            raise ValueError(f"free variables must not repeat: {list(self.free)}")
        for name in self.free:
            if name not in FREE_VARS:
                raise ValueError(f"unknown free variable {name!r}")
            if name not in self.bounds:
                raise ValueError(f"missing bounds for free variable {name!r}")
        for name, (lo, hi) in self.bounds.items():
            if not (0 < lo < hi < math.inf):
                raise ValueError(f"bounds for {name!r} must satisfy 0 < lo < hi < inf")
        for which, sched in (("tau_hc", self.base.expansion), ("tau_ch", self.base.compression)):
            if which in self.free and sched.kind in ("three_jump", "piecewise_const"):
                raise ValueError(f"{which} is derived for {sched.kind} schedules and cannot be freed")
            if "omega_c" in self.free and sched.kind == "piecewise_const":
                raise ValueError("omega_c cannot be freed with a piecewise_const schedule, "
                                 "whose segments are fixed")


@dataclass(frozen=True)
class OptimizationResult:
    best_spec: CycleSpec
    best_record: CycleRecord
    best_values: dict
    restarts: tuple[tuple[dict, float], ...]
    seed: int
    z_comparison: dict | None = None
    failures: int = 0
    evaluations: int = 0            # cycles the search itself solved


@dataclass
class SearchTally:
    """What one or more searches met: their objective evaluations, the failed
    ones with a note on the first, the Newton searches that stopped short of
    their gradient tolerance, the Newton searches that ended with a time
    held at a face of the box by a gradient pointing out, the Nelder-Mead
    searches stopped at their iteration cap, and the fixed point of each
    Newton point solved (a tuple from cycle.isochore_trials), by its
    (tau_c, tau_h).  ``paused`` holds the loop state of a Newton search
    that paused (see search_isochore_times), else None."""

    evaluations: int = 0
    failures: int = 0
    first_failure: str = ""
    unconverged: int = 0
    held: int = 0
    capped: int = 0
    solved: dict = field(default_factory=dict)
    paused: tuple | None = None

    def record(self, tau_c: float, tau_h: float) -> CycleRecord | None:
        """The record of the Newton point solved at (tau_c, tau_h), built now;
        None when no search solved that point."""
        point = self.solved.get((tau_c, tau_h))
        return None if point is None else trial_record(point)

    def failed(self, values: dict, exc: Exception) -> None:
        self.failures += 1
        if self.failures == 1:
            self.first_failure = f"{values}: {type(exc).__name__}: {exc}"

    def warn(self) -> None:
        """One warning for everything that went wrong, if anything did."""
        notes = []
        if self.failures:
            notes.append(f"{self.failures} objective evaluations failed; "
                         f"the first at {self.first_failure}")
        if self.unconverged:
            notes.append(f"{self.unconverged} Newton searches stopped with a projected "
                         f"|grad ln R_c| above {_NEWTON_GTOL:g}")
        if self.held:
            notes.append(f"{self.held} Newton searches ended with a time held at a face "
                         f"of the box by a gradient pointing out")
        if self.capped:
            notes.append(f"{self.capped} Nelder-Mead searches stopped at the "
                         f"{_NM_MAX_ITER}-iteration cap")
        if notes:
            warnings.warn("optimize_time_allocation: " + "; ".join(notes))


def _values_at(x: list, box: list, start) -> dict:
    """The free values at x in the box [(name, lo, hi)] of logs: at the start
    (x, values) its own values, not exp(log) of them; elsewhere exp of x
    clamped to the box."""
    if start is not None and x == start[0]:
        return dict(start[1])
    return {n: math.exp(min(max(v, a), b)) for (n, a, b), v in zip(box, x)}


def _rebuild_schedule(sched: Schedule, omega_start: float, omega_end: float,
                      duration: float | None = None) -> Schedule:
    """Same-kind schedule with new endpoints and/or duration."""
    dur = sched.duration if duration is None else duration
    if sched.kind == "three_jump":
        return build_three_jump(omega_start, omega_end)
    if sched.kind == "linear":
        return Schedule.linear(omega_start, omega_end, dur)
    if sched.kind == "exponential":
        return Schedule.exponential(omega_start, omega_end, dur)
    if sched.kind == "const_mu":
        # duration fixes mu; preserves frictionless criticality only by accident
        mu = (1.0 / dur) * (1.0 / omega_start - 1.0 / omega_end)
        return Schedule.const_mu(omega_start, omega_end, mu)
    raise ValueError(f"cannot rebuild schedule of kind {sched.kind!r}")


def apply_free_values(base: CycleSpec, values: dict) -> CycleSpec:
    """New CycleSpec with the named free variables replaced."""
    tau_c = values.get("tau_c", base.tau_c)
    tau_h = values.get("tau_h", base.tau_h)
    omega_c = values.get("omega_c", base.omega_c)
    expansion, compression = base.expansion, base.compression
    if "omega_c" in values:
        expansion = _rebuild_schedule(expansion, base.omega_h, omega_c)
        compression = _rebuild_schedule(compression, omega_c, base.omega_h)
    if "tau_hc" in values:
        expansion = _rebuild_schedule(expansion, expansion.omega_start,
                                      expansion.omega_end, duration=values["tau_hc"])
    if "tau_ch" in values:
        compression = _rebuild_schedule(compression, compression.omega_start,
                                        compression.omega_end, duration=values["tau_ch"])
    return CycleSpec(base.hot_bath, base.cold_bath, base.omega_h, omega_c, expansion,
                     compression, tau_c=tau_c, tau_h=tau_h)


def _ascent_gradient(point, swapped: bool):
    """(g, stage): g = grad R_c / |R_c| in (ln tau_c, ln tau_h) at a fixed
    point from cycle.isochore_trials, in the search's order (tau_h first
    when ``swapped``), and the stage its Hessian is built from; (None, None)
    where there are no derivatives.  g is grad ln R_c where the cycle cools
    and leads a search that starts without cooling uphill."""
    if point is None or point[1] == 0.0:
        return None, None
    (g0, g1), stage = _time_gradient(point)
    if point[1] < 0.0:              # q_c < 0: grad R_c / |R_c| = -grad ln |R_c|
        g0, g1 = -g0, -g1
    return ([g1, g0] if swapped else [g0, g1]), stage


def _ascent_hessian(point, stage, swapped: bool) -> tuple:
    """The Jacobian of _ascent_gradient's g: the Hessian of ln |R_c| with the
    sign of R_c, in the same order."""
    (h00, h01), (_, h11) = _time_hessian(point, stage)
    if point[1] < 0.0:
        h00, h01, h11 = -h00, -h01, -h11
    return ((h11, h01), (h01, h00)) if swapped else ((h00, h01), (h01, h11))


def search_isochore_times(trial, x: tuple | list, box: list, tally: SearchTally,
                          start, *, pause: bool = False) -> tuple[dict, tuple | None]:
    """Damped Newton ascent of ln R_c over the isochore times of a cycle.

    ``trial(tau_c, tau_h)`` solves the cycle's fixed point at two times
    (:func:`~ottofridge.cycle.isochore_trials`, or a sweep point's trials),
    so its adiabat maps and equilibrium energies are built before the
    search; each point solved is a fixed-point tuple whose R_c is its first
    entry, and a domain failure makes a point a failed evaluation.
    ``box`` is [(name, lo, hi)] for the names tau_c and tau_h in the order
    of the coordinates of x, the logs of the times, and x the first point;
    ``start`` is None or a point (x, values) whose values are used there as
    they are (a base's own times rather than exp of their logs). ``tally``
    counts the evaluations and failures, keeps each solved point's tuple by
    its (tau_c, tau_h), and counts the search as unconverged when it ends
    short of its tolerance and as held when it ends with a time held at a
    face.

    The loop runs on floats: the two coordinates, the projected gradient
    and the step are plain locals, a trial is keyed by its (tau_c, tau_h),
    and the dict of free values is built only for the point returned and
    for a failure note.  The gradient and exact Hessian of
    :func:`_ascent_gradient` and :func:`_ascent_hessian` are taken only
    where the step logic reads them: the gradient at the start and at
    trials that fall by at most _NEWTON_RTOL, the Hessian where a step is
    built.  Rows and columns of a coordinate held at a face of the box by a
    gradient pointing out are dropped.  R_c ripples in tau_h with period
    pi/omega_h, so the curvature can be positive; a Hessian that is not
    negative definite is replaced by -|diag|.  The step is halved until R_c
    does not fall or, with the Hessian unmodified, the projected gradient
    falls while R_c falls by at most _NEWTON_RTOL: near the optimum R_c
    changes only by rounding.  Returns (values, point) of the last accepted
    iterate, which converged when its projected max-norm gradient is at
    most _NEWTON_GTOL; the point is None when the first point failed
    (cycle.trial_record builds its record).

    With ``pause``, a search that only scores a cycle stops early: at the
    top of an iteration where no time is held at a face, none was in the
    last iteration, whose Hessian H was not modified, and the Newton
    decrement 1/2 g^T (-H)^-1 g bounds the gain in ln R_c left by at most
    _SCORE_GAIN (Boyd and Vandenberghe, Convex Optimization, 2004, 9.5.1).
    It returns that iterate, keeps its loop state in ``tally.paused`` and
    counts the search neither unconverged nor held.  Called again with a
    tally holding a paused search (and the same trial, box and start), the
    search resumes from that state, x unread: the paused search and its
    resumption are the uninterrupted search, iterate for iterate and trial
    for trial.
    """
    (name0, lo0, hi0), (name1, lo1, hi1) = box
    swapped = name0 == "tau_h"
    if start is not None:
        (s0, s1), start_values = start
        start_key = start_values["tau_c"], start_values["tau_h"]

    def values(key):
        """The free values of the trial key (tau_c, tau_h), in the box's order."""
        return {name0: key[1], name1: key[0]} if swapped else {name0: key[0], name1: key[1]}

    def evaluate(x0, x1):
        tally.evaluations += 1
        if start is not None and x0 == s0 and x1 == s1:
            key = start_key
        else:
            t0, t1 = math.exp(min(max(x0, lo0), hi0)), math.exp(min(max(x1, lo1), hi1))
            key = (t1, t0) if swapped else (t0, t1)
        try:
            point = tally.solved[key] = trial(*key)
        except DOMAIN_ERRORS as exc:
            tally.failed(values(key), exc)
            return key, None
        return key, point

    if tally.paused is None:
        x0, x1 = x
        key, point = evaluate(x0, x1)
        g, stage = _ascent_gradient(point, swapped)
        if g is None:
            tally.unconverged += point is not None
            return values(key), point
        (g0, g1), first = g, 0
    else:
        x0, x1, key, point, g0, g1, stage, first = tally.paused
        tally.paused = None
    last = None         # the last iteration's (h00, h01, h11, det), unmodified and free
    for iteration in range(first, _NEWTON_MAX_ITER + 1):
        held0 = (x0 <= lo0 and g0 < 0.0) or (x0 >= hi0 and g0 > 0.0)
        held1 = (x1 <= lo1 and g1 < 0.0) or (x1 >= hi1 and g1 > 0.0)
        pg0, pg1 = 0.0 if held0 else g0, 0.0 if held1 else g1
        gnorm = max(abs(pg0), abs(pg1))
        if gnorm <= _NEWTON_GTOL or iteration == _NEWTON_MAX_ITER:
            tally.unconverged += iteration == _NEWTON_MAX_ITER
            tally.held += held0 or held1
            return values(key), point
        if pause and last is not None and not (held0 or held1):
            h00, h01, h11, det = last
            if 0.5 * (g0 * (h01 * g1 - h11 * g0) + g1 * (h01 * g0 - h00 * g1)) / det \
                    <= _SCORE_GAIN:
                tally.paused = x0, x1, key, point, g0, g1, stage, iteration
                return values(key), point
        (h00, h01), (_, h11) = _ascent_hessian(point, stage, swapped)
        if held0:
            h00, h01 = -1.0, 0.0
        if held1:
            h11, h01 = -1.0, 0.0
        modified = not (h00 < 0.0 and h00 * h11 > h01 * h01)
        if modified:
            h00, h11, h01 = -(abs(h00) or 1.0), -(abs(h11) or 1.0), 0.0
        det = h00 * h11 - h01 * h01
        last = None if modified or held0 or held1 else (h00, h01, h11, det)
        p0, p1 = (h01 * pg1 - h11 * pg0) / det, (h01 * pg0 - h00 * pg1) / det
        # the lowest R_c a trial may have and still be accepted
        r_c = point[0]
        floor = r_c if modified else r_c - _NEWTON_RTOL * abs(r_c)
        alpha = 1.0
        while True:
            xt0, xt1 = min(max(x0 + alpha * p0, lo0), hi0), min(max(x1 + alpha * p1, lo1), hi1)
            if xt0 == x0 and xt1 == x1:     # no representable step is accepted
                tally.unconverged += 1
                tally.held += held0 or held1
                return values(key), point
            key_t, point_t = evaluate(xt0, xt1)
            if point_t is not None and point_t[0] >= floor:
                g_t, stage_t = _ascent_gradient(point_t, swapped)
                if g_t is not None:
                    gt0, gt1 = g_t
                    if point_t[0] >= r_c or max(
                            0.0 if (xt0 <= lo0 and gt0 < 0.0) or (xt0 >= hi0 and gt0 > 0.0)
                            else abs(gt0),
                            0.0 if (xt1 <= lo1 and gt1 < 0.0) or (xt1 >= hi1 and gt1 > 0.0)
                            else abs(gt1)) < gnorm:
                        break
            alpha *= 0.5
        x0, x1, key, point, g0, g1, stage = xt0, xt1, key_t, point_t, gt0, gt1, stage_t


def optimize_time_allocation(spec: OptimizationSpec) -> OptimizationResult:
    """Multi-start maximization of the limit-cycle cooling rate.

    The free variables are searched in log space (they span decades near
    T_c -> 0), from the base spec's values when they are positive and lie in
    the box (and evaluated there at exactly those values), the box midpoint
    and seeded random points.  When the free set is exactly {tau_c, tau_h},
    each start runs :func:`search_isochore_times`, a damped Newton ascent on
    the exact gradient and Hessian of
    :func:`~ottofridge.cycle.isochore_time_derivatives`; other free sets run
    Nelder-Mead.  Failed objective evaluations count as -inf fitness; their
    number is ``failures``, and one warning per call reports it together with
    any Newton search that stopped short of its gradient tolerance and any
    Nelder-Mead search that stopped at its iteration cap.  When only
    the isochore times are free and the conductances are equal, the result
    is compared against the analytic z-equation allocation (solved again
    only when the search did not evaluate it) and the comparison is attached
    to the result; the analytic allocation replaces the searched one when it
    lies inside the box and has the higher R_c.
    """
    base = spec.base
    if not spec.free:
        _, record = limit_cycle(base)
        return OptimizationResult(base, record, {}, (), spec.seed)

    names = list(spec.free)
    lo = [math.log(spec.bounds[n][0]) for n in names]
    hi = [math.log(spec.bounds[n][1]) for n in names]
    box = list(zip(names, lo, hi))
    tally = SearchTally()
    newton = set(names) == {"tau_c", "tau_h"}
    base_values = {n: base.expansion.duration if n == "tau_hc" else
                   base.compression.duration if n == "tau_ch" else getattr(base, n)
                   for n in names}
    start = None            # a zero value lies outside every box: not a start
    if all(v > 0.0 for v in base_values.values()):
        current = [math.log(base_values[n]) for n in names]
        if all(a <= c <= b for a, c, b in zip(lo, current, hi)):
            start = current, base_values

    def evaluate(x):
        tally.evaluations += 1
        values = _values_at(x, box, start)
        try:
            _, record = limit_cycle(apply_free_values(base, values))
        except DOMAIN_ERRORS as exc:
            tally.failed(values, exc)
            return values, None
        return values, record

    starts = [[0.5 * (a + b) for a, b in zip(lo, hi)]]
    if start is not None:
        starts.insert(0, start[0])
    if len(starts) < spec.restarts:
        rng = np.random.default_rng(spec.seed)
        starts += [rng.uniform(lo, hi).tolist() for _ in range(spec.restarts - len(starts))]

    # (values, R_c, fixed point of a Newton search or Nelder-Mead record) of
    # each restart's best point
    found = []
    trial = isochore_trials(base) if newton else None
    for x0 in starts[: spec.restarts]:
        if newton:
            values, point = search_isochore_times(trial, x0, box, tally, start)
            found.append((values, -math.inf if point is None else point[0], point))
            continue
        seen = {}

        def objective(x):
            values, record = seen[tuple(x.tolist())] = evaluate(x.tolist())
            return -record.r_c if record is not None else math.inf
        from scipy.optimize import minimize     # not loaded until a search needs it
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxiter": _NM_MAX_ITER, "xatol": _NM_XTOL,
                                "fatol": _NM_FTOL, "adaptive": True})
        tally.capped += not res.success     # with maxiter alone, its one way to fail
        values, record = seen[tuple(res.x.tolist())]
        found.append((values, -math.inf if record is None else record.r_c, record))
    tally.warn()

    results = tuple((values, r_c) for values, r_c, _ in found)
    best = max(range(len(results)), key=lambda i: (results[i][1], -i))
    best_values, _, best_record = found[best]
    if best_record is None:         # every restart failed: raises that failure
        limit_cycle(apply_free_values(base, best_values))
    if newton:                      # the record of the winner's fixed point
        best_record = trial_record(best_record)
    best_spec = best_record.chain[0]

    z_comparison = None
    if newton and math.isclose(
            base.hot_bath.conductance, base.cold_bath.conductance, rel_tol=1e-12):
        alloc = solve_isochore_z(base.hot_bath.conductance, base.cold_bath.conductance,
                                 base.expansion.duration + base.compression.duration)
        z_values = {"tau_c": alloc.tau_c, "tau_h": alloc.tau_h}
        z_record = tally.record(alloc.tau_c, alloc.tau_h)
        if z_record is None:        # not a point the search evaluated
            _, z_record = limit_cycle(apply_free_values(base, z_values))
        gap = abs(z_record.r_c - best_record.r_c) / max(abs(z_record.r_c), 1e-300)
        z_comparison = {
            "z": alloc.z, "tau_c": alloc.tau_c, "tau_h": alloc.tau_h,
            "r_c_z": z_record.r_c, "r_c_searched": best_record.r_c,
            "relative_gap": gap, "agree_1pct": gap <= 0.01,
        }
        if z_record.r_c > best_record.r_c and all(
                spec.bounds[n][0] <= z_values[n] <= spec.bounds[n][1] for n in names):
            # analytic allocation inside the box beat the search; keep it
            best_values, best_spec, best_record = z_values, z_record.chain[0], z_record

    return OptimizationResult(best_spec, best_record, best_values, results, spec.seed,
                              z_comparison, tally.failures, tally.evaluations)


# ---------------------------------------------------------------------------
# Evolutionary search over piecewise-constant schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GAResult:
    schedule: Schedule
    record: CycleRecord
    fitness: float
    history: tuple[float, ...]      # best fitness per generation (non-decreasing)
    seed: int
    evaluations: int


def _ga_candidate_spec(base: CycleSpec, genes: np.ndarray) -> CycleSpec:
    """CycleSpec for one genome [(omega_i, tau_i) ...].

    The expansion is the piecewise schedule given by the genes; the
    compression is its time reverse.  Isochore times follow the z-equation
    for the candidate's own adiabat time, so every genome is scored with its
    optimal heat-exchange allocation.
    """
    segs = [(genes[2 * i], genes[2 * i + 1]) for i in range(len(genes) // 2)]
    expansion = Schedule.piecewise(base.omega_h, base.omega_c, segs)
    compression = Schedule.piecewise(base.omega_c, base.omega_h, segs[::-1])
    alloc = solve_isochore_z(base.hot_bath.conductance, base.cold_bath.conductance,
                             expansion.duration + compression.duration)
    return CycleSpec(base.hot_bath, base.cold_bath, base.omega_h, base.omega_c, expansion,
                     compression, tau_c=max(alloc.tau_c, 1e-12), tau_h=max(alloc.tau_h, 1e-12))


def ga_schedule_search(base: CycleSpec, *, segments: int = 2, population: int = 32,
                       generations: int = 200, seed: int = 0) -> GAResult:
    """Evolutionary search over ``segments``-segment piecewise frequency protocols.

    Genes (omega_i, tau_i) lie in [omega_c, omega_h] x [0, pi / omega_c].  One
    call of scipy's differential evolution (Storn & Price 1997) with its
    default best1bin strategy, mutation and recombination, deferred updating
    and no polish evolves ``population`` uniform draws for ``generations``
    generations (with tol = 0 it stops early only if every cost is equal).
    Fitness is the limit-cycle cooling rate, -inf for a failed candidate;
    greedy selection keeps ``history``, the best fitness of the first
    population and after each generation, from falling.  One seeded PCG64
    generator draws the first population and drives the evolution, and
    candidates are evaluated in index order, so a ``seed`` reproduces a run
    bit for bit.
    """
    if population < 5:
        raise ValueError("differential evolution needs a population of at least 5")
    if segments < 2:
        raise ValueError("at least 2 segments are required")
    from scipy.optimize import differential_evolution
    bounds = [(base.omega_c, base.omega_h), (0.0, math.pi / base.omega_c)] * segments
    costs = []

    def cost(genes: np.ndarray) -> float:
        try:
            _, record = limit_cycle(_ga_candidate_spec(base, genes))
            costs.append(-record.r_c)
        except DOMAIN_ERRORS:
            costs.append(math.inf)
        return costs[-1]

    rng = np.random.default_rng(seed)
    lo, hi = np.array(bounds).T
    history = []
    # a callback with this parameter name gets each generation's OptimizeResult
    res = differential_evolution(
        cost, bounds, maxiter=generations, tol=0.0, polish=False, updating="deferred",
        init=rng.uniform(lo, hi, size=(population, 2 * segments)), rng=rng,
        callback=lambda intermediate_result: history.append(-intermediate_result.fun))
    champ_spec = _ga_candidate_spec(base, res.x)
    _, record = limit_cycle(champ_spec)
    return GAResult(champ_spec.expansion, record, -res.fun,
                    (-min(costs[:population]), *history), seed, len(costs))
