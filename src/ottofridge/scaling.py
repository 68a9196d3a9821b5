"""Temperature sweeps toward T_c -> 0 and power-law exponent extraction.

For each grid temperature the sweep chooses the cold frequency (fixed
kappa * T_c by default), builds the branch schedules for the requested kind,
allocates the isochore times, solves the limit cycle and records the row.
Schedules without a frictionless closed form (linear, exponential) get their
adiabat duration from a per-point search by Brent's method (_brent_max) that
maximizes the limit-cycle cooling rate, as does the cold frequency under
optimize_omega_c; their propagators are exact Bessel-function forms, and a
linear ramp and its time reverse share one Bessel evaluation
(dynamics.linear_ramp_pair).  A searched isochore allocation is one
optimize.search_isochore_times from the z-equation allocation, which it
keeps when that start beats the search, as optimize_time_allocation does.
A duration step only ranks its duration, so its search pauses once the
gain left is below optimize._SCORE_GAIN, and only the winning step's
search is resumed to the full tolerance: a row is bit for bit the
full-tolerance search at its duration.

A point is assembled from parts: what does not depend on the adiabat
duration (the baths, 0 < omega_c < omega_h, a ramp rate that does not
underflow to 0 in the duration bracket, both equilibrium energies) is
checked and built once per point, and a duration step checks its
duration, builds the two ramp maps (dynamics.linear_ramp_pair,
exponential_ramp_pair), allocates its isochore times from the bare
z-equation root (optimize._z_root) and solves its trials (cycle._trials).
Every search passes bare fixed-point tuples (cycle._fixed_point, whose
first entry is R_c): no step builds a Schedule, CycleSpec or CycleRecord,
and a sweep point builds one record, its winner's (cycle.trial_record),
with its two Schedules and one validated CycleSpec.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cycle import (
    DOMAIN_ERRORS,
    CycleRecord,
    CycleSpec,
    _adiabat_maps,
    _adiabats,
    _trial_parts,
    _trials,
    trial_record,
)
from .dynamics import BathSpec, exponential_ramp_pair, linear_ramp_pair
from .optimize import SearchTally, _z_root, optimal_cold_frequency, search_isochore_times
from .schedules import Schedule, ScheduleError, build_three_jump, critical_mu

SWEEP_KINDS = ("three_jump", "const_mu", "linear", "exponential")

# exponent nu of the rate bound omega^nu * n_eq for the frictionless kinds;
# the searched kinds default to the const-mu value.
_KIND_NU = {"three_jump": 1.5, "const_mu": 2.0, "linear": 2.0, "exponential": 2.0}
# each kind's default kappa, solved once rather than on every sweep point
_KIND_KAPPA = {kind: optimal_cold_frequency(nu, 1.0)[1] for kind, nu in _KIND_NU.items()}

# bracket of the linear and exponential kinds' duration parameter (see
# _point_at), and the tolerance of every _brent_max search on its log
# parameter: an offset of 1e-3 in ln tau costs about 2e-6 of R_c at the
# curvature of ln R_c in ln tau (about -2.4 linear, -3.7 exponential), far
# below R_c's ripple in the duration, 2e-4 (linear) to 6e-3 (exponential)
# within +-0.01 in ln tau
_DURATION_BRACKET = (0.02, 10.0)
_XTOL = 1e-3


@dataclass(frozen=True)
class SweepSpec:
    """Setup of one temperature sweep (see module docstring)."""

    kind: str
    omega_h: float = 100.0
    t_hot: float = 1.0
    gamma: float = 1.0
    t_max: float = 1.0
    t_min: float = 1e-4
    points_per_decade: int = 5
    kappa: float | None = None          # None: kind default via optimal_cold_frequency
    optimize_omega_c: bool = False
    allocation: str = "z"               # "z" or "searched"
    tail_decades: float = 1.0

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep schedule kind {self.kind!r}")
        if not (0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        if self.points_per_decade < 1:
            raise ValueError("points_per_decade must be >= 1")
        if self.allocation not in ("z", "searched"):
            raise ValueError("allocation must be 'z' or 'searched'")
        if self.omega_h <= 0 or self.t_hot <= 0 or self.gamma <= 0:
            raise ValueError("omega_h, t_hot and gamma must be positive")
        for name in ("kappa", "tail_decades"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.omega_h / self.t_hot < 30:
            warnings.warn("omega_h / T_h < 30: hot-bath occupation is not negligible")

    @property
    def grid(self) -> tuple[float, ...]:
        """Strictly decreasing log-spaced T_c grid, as Python floats.

        The limit-cycle core runs on plain floats; a numpy scalar T_c would
        reach every branch map through the cold bath and omega_c, and each
        operation on a numpy scalar costs several times a float operation.
        ``tolist()`` keeps np.logspace's values bit for bit.
        """
        decades = math.log10(self.t_max / self.t_min)
        n = int(round(decades * self.points_per_decade)) + 1
        return tuple(np.logspace(math.log10(self.t_max), math.log10(self.t_min), n).tolist())

    def kind_kappa(self) -> float:
        return self.kappa if self.kappa is not None else _KIND_KAPPA[self.kind]


@dataclass(frozen=True)
class SweepRow:
    """One sweep point.  flag: 1 = converged and cooling, 2 = converged but
    q_c <= 0, 0 = failed (error recorded, numeric fields nan)."""

    t_c: float
    omega_c: float
    tau_hc: float
    tau_c: float
    tau_ch: float
    tau_h: float
    tau_total: float
    q_c: float
    q_h: float
    w: float
    r_c: float
    sigma: float
    flag: int
    error: str = ""

    def csv_fields(self) -> tuple:
        return (self.t_c, self.omega_c, self.tau_hc, self.tau_c, self.tau_ch,
                self.tau_h, self.tau_total, self.q_c, self.q_h, self.w,
                self.r_c, self.sigma, self.flag)


@dataclass(frozen=True)
class PowerLawFit:
    delta: float
    prefactor: float
    rms_residual: float
    n_used: int


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]
    fit: PowerLawFit | None
    tail_fit: PowerLawFit | None


def _tail_window(points, tail_decades: float) -> list:
    """The (T, R) points within ``tail_decades`` decades of the smallest T."""
    t_min = min(t for t, _ in points) if points else 0.0
    return [(t, r) for t, r in points if t <= t_min * 10.0 ** tail_decades * (1 + 1e-12)]


def fit_power_law(points, tail_decades: float | None = None) -> PowerLawFit:
    """Least-squares slope of ln R against ln T.

    ``points`` is an iterable of (T, R); rows with R <= 0 are excluded with a
    warning.  With ``tail_decades`` set, only points within that many decades
    of the smallest T are fitted (the asymptotic window).  Fewer than 4
    surviving points is an error.
    """
    pts = [(float(t), float(r)) for t, r in points]
    kept = [(t, r) for t, r in pts if r > 0 and t > 0]
    if len(kept) < len(pts):
        warnings.warn(f"fit_power_law: excluded {len(pts) - len(kept)} non-positive points")
    if tail_decades is not None:
        kept = _tail_window(kept, tail_decades)
    if len(kept) < 4:
        raise ValueError(f"fit_power_law needs >= 4 positive points, got {len(kept)}")
    lt = np.log([t for t, _ in kept])
    lr = np.log([r for _, r in kept])
    slope, intercept = np.polyfit(lt, lr, 1)
    rms = float(np.sqrt(np.mean((lr - (slope * lt + intercept)) ** 2)))
    return PowerLawFit(float(slope), float(math.exp(intercept)), rms, len(kept))


# ---------------------------------------------------------------------------
# Per-point cycle assembly
# ---------------------------------------------------------------------------

def _brent_max(build, lo: float, hi: float) -> tuple:
    """Brent's method on [lo, hi] for the highest R_c (Brent, Algorithms for
    Minimization without Derivatives, 1973: the fmin of Forsythe, Malcolm and
    Moler), deterministic and on plain floats.

    Each step is a parabolic step through the best three points when all
    three scores are finite and the parabola's vertex lies inside the
    bracket, nearer than half the step before last, and a golden-section
    step into the larger part of the bracket otherwise.  With fmin's
    tolerance _XTOL, no step is shorter than _XTOL / 3 and the search stops
    once the best point lies within 2 _XTOL / 3 of both ends of the bracket.

    ``build(x)`` returns a fixed-point tuple (cycle._fixed_point), whose
    first entry is R_c, and a domain failure scores -inf.  The best point's
    tuple is kept, so the winner is returned as solved, not solved (or
    searched) a second time; when the winner's build failed, its error is
    raised.
    """
    def score(x: float) -> tuple:
        try:
            point = build(x)
        except DOMAIN_ERRORS as exc:
            return -math.inf, exc
        return point[0], point

    golden, tol = (3.0 - math.sqrt(5.0)) / 2.0, _XTOL / 3.0
    a, b = lo, hi
    x = w = v = a + golden * (b - a)
    fx, best = score(x)
    fw = fv = fx
    d = e = 0.0                         # the last step and the one before it
    while abs(x - 0.5 * (a + b)) > 2.0 * tol - 0.5 * (b - a):
        parabolic = False
        if abs(e) > tol and math.isfinite(fx) and math.isfinite(fw) and math.isfinite(fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                parabolic = True
                e, d = d, p / q
                if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = math.copysign(tol, 0.5 * (a + b) - x)
        if not parabolic:
            e = (a if x >= 0.5 * (a + b) else b) - x
            d = golden * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu, point = score(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx, best = w, fw, x, fx, u, fu, point
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    if isinstance(best, Exception):
        raise best
    return best


def _allocator(spec: SweepSpec, spec_at, hot: BathSpec, cold: BathSpec, omega_h: float,
               omega_c: float, paused: dict | None = None):
    """``allocate(adiabats, tau_exp, tau_comp)``: the fixed point
    (cycle._fixed_point) of the point's cycle with these adiabats (see
    cycle._adiabats) and its isochore times allocated.  The trials' parts
    are built once (cycle._trial_parts); trial_record builds a point's
    record with ``spec_at``.

    Both times start at the z-equation allocation (optimize._z_root, the
    root of solve_isochore_z with gamma_h = gamma_c = spec.gamma).  A
    searched allocation runs one search_isochore_times from exactly there
    over a box of a decade each way, and keeps that start when its R_c is
    the higher (the z-equation rule of optimize_time_allocation, whose
    warnings it shares).

    With a dict ``paused``, a searched allocation only scores its
    adiabats: its search pauses at a gain of _SCORE_GAIN left, and then
    ``paused[tau_exp]`` is ``finish()``, which resumes the search to its
    full tolerance, warns of what the resumption met and applies the
    z-equation rule to its end: the fixed point allocate returns without
    ``paused``, bit for bit.
    """
    parts = _trial_parts(spec_at, omega_c, cold, omega_h, hot)

    def allocate(adiabats, tau_exp: float, tau_comp: float) -> tuple:
        tau_ad = tau_exp + tau_comp
        tau = max(_z_root(spec.gamma * tau_ad) / spec.gamma, 1e-12) if tau_ad else 1e-12
        trial = _trials(parts, adiabats, tau_exp, tau_comp)
        if spec.allocation == "z":
            return trial(tau, tau)
        x, lo, hi = math.log(tau), math.log(tau / 10.0), math.log(tau * 10.0)
        box = [("tau_c", lo, hi), ("tau_h", lo, hi)]
        start, tally = ((x, x), {"tau_c": tau, "tau_h": tau}), SearchTally()
        _, point = search_isochore_times(trial, (x, x), box, tally, start,
                                         pause=paused is not None)
        tally.warn()
        if point is None:               # the start failed: raises that failure
            trial(tau, tau)
        first, state = tally.solved[tau, tau], tally.paused
        if state is not None:
            def finish() -> tuple:
                rest = SearchTally(paused=state)
                _, end = search_isochore_times(trial, (x, x), box, rest, start)
                rest.warn()
                return first if first[0] > end[0] else end

            paused[tau_exp] = finish
        return first if first[0] > point[0] else point      # compare R_c

    return allocate


def _point_at(spec: SweepSpec, t_c: float, omega_c: float | None) -> tuple:
    """The fixed point of the cycle for one sweep temperature, duration
    search included (see build_point); t_c and omega_c are Python floats.
    What does not depend on the adiabat duration is checked and built once
    per point; a duration step builds no Schedule or CycleSpec (_ramp_step).
    """
    hot = BathSpec(spec.t_hot, spec.gamma)
    cold = BathSpec(t_c, spec.gamma)
    if omega_c is None:
        omega_c = spec.kind_kappa() * t_c
    w_h, w_c = spec.omega_h, omega_c
    if w_c >= w_h:
        raise ValueError("sweep produced omega_c >= omega_h; shrink the grid")
    if not w_c > 0.0 and spec.kind != "three_jump":   # build_three_jump refuses it itself
        raise ScheduleError("schedule frequencies must be positive")

    if spec.kind in ("three_jump", "const_mu"):
        if spec.kind == "three_jump":
            expansion, compression = build_three_jump(w_h, w_c), build_three_jump(w_c, w_h)
        else:
            mu_star, _ = critical_mu(w_h / w_c, omega_h=w_h)
            expansion = Schedule.const_mu(w_h, w_c, mu_star)
            compression = Schedule.const_mu(w_c, w_h, -mu_star)

        def spec_at(point):
            return CycleSpec(hot, cold, w_h, w_c, expansion, compression,
                             tau_c=point[3], tau_h=point[4])

        return _allocator(spec, spec_at, hot, cold, w_h, w_c)(
            _adiabats(_adiabat_maps, expansion, compression),
            expansion.duration, compression.duration)

    # searched adiabat duration for the generic kinds, rise / rate(param);
    # the search runs over the log of param, the peak adiabatic rate |mu| at
    # the cold end of the ramp.
    if spec.kind == "linear":
        rise = w_h - w_c

        def rate(param: float) -> float:
            return param * w_c * w_c
    else:
        rise = math.log(w_h / w_c)

        def rate(param: float) -> float:
            return param * w_c

    lo, hi = _DURATION_BRACKET
    if rate(lo) == 0.0:                 # the smallest rate the search tries
        raise ScheduleError(f"omega_c = {w_c:.6g} is too small: the {spec.kind} ramp's "
                            "rate underflows to 0")
    # a searched allocation's steps only score their durations: the
    # winner's isochore-time search is finished after the duration search
    paused = {} if spec.allocation == "searched" else None
    step = _ramp_step(spec, hot, cold, w_h, w_c, paused)
    point = _brent_max(lambda log_param: step(rise / rate(math.exp(log_param))),
                       math.log(lo), math.log(hi))
    if paused:
        finish = paused.get(point[-1][7])           # by the winner's duration
        if finish is not None:
            point = finish()
    return point


def _ramp_step(spec: SweepSpec, hot: BathSpec, cold: BathSpec, omega_h: float,
               omega_c: float, paused: dict | None = None):
    """``step(tau)``: the fixed point (see _allocator) of a searched kind's
    point with a ramp of duration tau and its reverse as the adiabats; with
    a dict ``paused``, a searched allocation's score, its search paused and
    filed there by tau (see _allocator).

    A step refuses a tau that the kind's Schedule builder refuses, with that
    builder's error, and builds both maps with the kind's pair builder; the
    record of a point builds its two Schedules, with these maps attached,
    and its CycleSpec.
    """
    make = getattr(Schedule, spec.kind)
    pair = linear_ramp_pair if spec.kind == "linear" else exponential_ramp_pair

    def spec_at(point):
        _, a_exp, a_comp, _, _, _, _, tau, _ = point[-1]
        expansion, compression = make(omega_h, omega_c, tau), make(omega_c, omega_h, tau)
        object.__setattr__(expansion, "_propagator", a_exp)
        object.__setattr__(compression, "_propagator", a_comp)
        return CycleSpec(hot, cold, omega_h, omega_c, expansion, compression,
                         tau_c=point[3], tau_h=point[4])

    allocate = _allocator(spec, spec_at, hot, cold, omega_h, omega_c, paused)

    def step(tau: float) -> tuple:
        if not 0.0 < tau < math.inf:    # the builder refuses it, with its error
            make(omega_h, omega_c, tau)
        return allocate(_adiabats(pair, omega_h, omega_c, tau), tau, tau)

    return step


def build_point(spec: SweepSpec, t_c: float,
                omega_c: float | None = None) -> tuple[CycleSpec, CycleRecord]:
    """The cycle for one sweep temperature (duration search included) and its
    record, the one record the point builds.

    ``t_c`` and ``omega_c`` are taken as Python floats, so a numpy scalar
    from a caller's grid does not spread into the limit-cycle core.
    """
    record = trial_record(_point_at(spec, float(t_c),
                                    None if omega_c is None else float(omega_c)))
    return record.chain[0], record


def _evaluate_point(spec: SweepSpec, t_c: float) -> SweepRow:
    nan = float("nan")
    try:
        if spec.optimize_omega_c:
            record = trial_record(_brent_max(
                lambda log_y: _point_at(spec, t_c, math.exp(log_y) * t_c),
                math.log(0.05), math.log(3.0)))
            cycle = record.chain[0]
        else:
            cycle, record = build_point(spec, t_c)
    except DOMAIN_ERRORS as exc:
        return SweepRow(t_c, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan,
                        flag=0, error=f"{type(exc).__name__}: {exc}")
    flag = 1 if record.q_c > 0 else 2
    return SweepRow(
        t_c=t_c, omega_c=cycle.omega_c, tau_hc=cycle.expansion.duration,
        tau_c=cycle.tau_c, tau_ch=cycle.compression.duration, tau_h=cycle.tau_h,
        tau_total=record.tau_total, q_c=record.q_c, q_h=record.q_h, w=record.w,
        r_c=record.r_c, sigma=record.sigma, flag=flag,
    )


def temperature_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Run the sweep over the full grid; failed points are recorded, not dropped.

    With at least 8 cooling points over at least two decades the rows are
    fitted in full and over the last ``tail_decades``; a tail window with
    fewer than 4 cooling points is skipped with a warning (``tail_fit`` None).

    Points are independent; with ``threads`` > 1 they are evaluated in a
    thread pool and reassembled in grid order, so parallel and serial runs
    produce identical output.
    """
    grid = spec.grid
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor   # loaded only for a pool
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda t: _evaluate_point(spec, t), grid))
    else:
        rows = [_evaluate_point(spec, t) for t in grid]

    cooling = [(r.t_c, r.r_c) for r in rows if r.flag == 1]
    fit = tail = None
    decades = math.log10(spec.t_max / spec.t_min)
    if len(cooling) >= 8 and decades >= 2 - 1e-9:
        fit = fit_power_law(cooling)
        window = _tail_window(cooling, spec.tail_decades)
        if len(window) >= 4:
            tail = fit_power_law(window)
        else:
            warnings.warn(f"temperature_sweep: the last {spec.tail_decades:g} decades hold "
                          f"{len(window)} cooling points, fewer than 4; no tail fit")
    elif len(cooling) >= 4:
        fit = fit_power_law(cooling)
    return SweepResult(spec, tuple(rows), fit, tail)
