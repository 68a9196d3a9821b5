"""Temperature sweeps toward T_c -> 0 and power-law exponent extraction.

For each grid temperature the sweep chooses the cold frequency (fixed
kappa * T_c by default), builds the branch schedules for the requested kind,
allocates the isochore times, solves the limit cycle and records the row.
Schedules without a frictionless closed form (linear, exponential) get their
adiabat duration from a per-point search by Brent's method (_brent_max) that
maximizes the limit-cycle cooling rate, as does the cold frequency under
optimize_omega_c; their propagators are exact Bessel-function forms.  A
linear ramp and its time reverse share one Bessel evaluation
(dynamics.linear_ramp_pair), and an exponential pair one per distinct
argument (exponential_ramp_pair).  A searched isochore allocation is one
optimize.search_isochore_times from the z-equation allocation, which
returns that start when it beats the search's end, as it does in
optimize_time_allocation.
A duration step only ranks its duration: optimize.score_tau_h searches
ln tau_h alone, with tau_c held at the z-equation time (one object, so its
trials share one cold half of the cycle map, cycle._cold_half), until the
gain left is below optimize._SCORE_GAIN, and only the winning duration (under
optimize_omega_c, only the cold-frequency winner's) runs the search over
both times: a row is bit for bit that search at its duration.  A point's
scoring searches share one SearchTally, which warns once, when the point's
search ends.

A point is assembled from parts: what does not depend on the adiabat
duration (the baths, 0 < omega_c < omega_h, a ramp rate that does not
underflow to 0 in the duration bracket, both equilibrium energies) is
checked and built once per point, and one step builder (_step) serves all
four kinds.  A step builds the two adiabat maps (a frictionless kind's from
its Schedules, a ramp's with dynamics.linear_ramp_pair or
exponential_ramp_pair), allocates its isochore times from the bare
z-equation root (optimize._z_root) and solves its trials (cycle._trials).
It returns its point with its own finish, None unless it only scored,
and a search over steps returns its winner's pair.  Every search passes
bare fixed-point tuples (cycle._fixed_point, whose first entry is R_c): no
ramp step builds a Schedule, CycleSpec or CycleRecord, and a sweep point
builds one record, its winner's (cycle.trial_record), with its two
Schedules and one validated CycleSpec.
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
from .optimize import (
    SearchTally,
    _z_root,
    optimal_cold_frequency,
    score_tau_h,
    search_isochore_times,
)
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
        for name in ("omega_h", "t_hot", "gamma", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        n = self.points_per_decade
        if isinstance(n, bool) or not (n >= 1 and math.isfinite(n) and n == math.floor(n)):
            raise ValueError(f"points_per_decade must be a whole number >= 1, got {n!r}")
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

        The values are np.logspace's bit for bit, without calling it: the
        exponents follow np.linspace's formula on floats (step = (stop -
        start) / (n - 1), y_i = i * step + start, and the last one is stop
        itself), and one np.power call raises 10 to them, the ufunc
        np.logspace ends in.  np.logspace's array set-up took about a
        twentieth of a cold one-point sweep.
        """
        decades = math.log10(self.t_max / self.t_min)
        n = int(round(decades * self.points_per_decade)) + 1
        start, stop = math.log10(self.t_max), math.log10(self.t_min)
        step = (stop - start) / max(n - 1, 1)
        exponents = [i * step + start for i in range(n)]
        if n > 1:
            exponents[-1] = stop
        return tuple(np.power(10.0, np.array(exponents)).tolist())

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

    ``build(x)`` returns a pair (point, finish) (see _step), ranked by the
    point's first entry, R_c, and a domain failure scores -inf.  The best
    pair is kept, so the winner is returned as solved, not solved (or
    searched) a second time, with its own finish; when the winner's build
    failed, its error is raised.
    """
    def score(x: float) -> tuple:
        try:
            pair = build(x)
        except DOMAIN_ERRORS as exc:
            return -math.inf, exc
        return pair[0][0], pair

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
        fu, pair = score(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx, best = w, fw, x, fx, u, fu, pair
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


def _step(spec: SweepSpec, hot: BathSpec, cold: BathSpec, omega_h: float, omega_c: float,
          tally: SearchTally | None = None):
    """``step(tau)``: the pair (point, finish) of the point's cycle with
    adiabats of duration tau and its isochore times allocated.  ``point`` is
    the fixed point (cycle._fixed_point) and ``finish`` is None unless the
    step only scored its duration.

    The kind's Schedules are chosen here, and the trials' parts are built
    once (cycle._trial_parts).  A frictionless kind's two Schedules (the
    three-jump, or const-mu at the critical mu*) are built once: its step
    takes their own maps and durations (its tau is not read), and its
    record's CycleSpec holds them.  A ramp step refuses a tau that the
    kind's builder (Schedule.linear, exponential) refuses, with the
    builder's error, and builds both maps with the kind's pair builder
    (dynamics.linear_ramp_pair, exponential_ramp_pair) and no Schedule; the
    record of a point (cycle.trial_record) builds its two Schedules, which
    hold no map (the record's point holds them), and its CycleSpec.

    Both isochore times start at the z-equation allocation (optimize._z_root,
    the root of solve_isochore_z with gamma_h = gamma_c = spec.gamma).  A
    searched allocation runs one search_isochore_times from exactly there
    over a box of a decade each way, whose point, the higher of its start
    and its end, is the step's; it warns as optimize_time_allocation does.
    With ``tally`` a searched step only scores its duration: its point is
    optimize.score_tau_h's over the same tau_h box, which counts into
    ``tally`` and warns of nothing, and ``finish()`` is that one search
    over both times: the point of the step without ``tally``, bit for bit.
    """
    if spec.kind == "three_jump":
        fixed = build_three_jump(omega_h, omega_c), build_three_jump(omega_c, omega_h)
    elif spec.kind == "const_mu":
        mu_star, _ = critical_mu(omega_h / omega_c, omega_h=omega_h)
        fixed = Schedule.const_mu(omega_h, omega_c, mu_star), Schedule.const_mu(
            omega_c, omega_h, -mu_star)
    else:
        fixed, make = None, getattr(Schedule, spec.kind)
        pair = linear_ramp_pair if spec.kind == "linear" else exponential_ramp_pair

    def spec_at(point):
        tau = point[-1][7]
        expansion, compression = fixed or (make(omega_h, omega_c, tau),
                                           make(omega_c, omega_h, tau))
        return CycleSpec(hot, cold, omega_h, omega_c, expansion, compression,
                         tau_c=point[3], tau_h=point[4])

    parts = _trial_parts(spec_at, omega_c, cold, omega_h, hot)

    def step(tau: float | None) -> tuple:
        if fixed:
            adiabats = _adiabats(_adiabat_maps, *fixed)
            tau_exp, tau_comp = fixed[0].duration, fixed[1].duration
        else:
            if not 0.0 < tau < math.inf:    # the builder refuses it, with its error
                make(omega_h, omega_c, tau)
            adiabats, tau_exp, tau_comp = _adiabats(pair, omega_h, omega_c, tau), tau, tau
        tau_ad = tau_exp + tau_comp
        tau_z = max(_z_root(spec.gamma * tau_ad) / spec.gamma, 1e-12) if tau_ad else 1e-12
        trial = _trials(parts, adiabats, tau_exp, tau_comp)
        if spec.allocation == "z":
            return trial(tau_z, tau_z), None
        x, lo, hi = math.log(tau_z), math.log(tau_z / 10.0), math.log(tau_z * 10.0)

        def finish() -> tuple:
            own = SearchTally()
            point = search_isochore_times(trial, (x, x), (tau_z, tau_z), (lo, lo), (hi, hi), own)
            own.warn()
            if point is None:           # the start failed: raises that failure
                trial(tau_z, tau_z)
            return point

        if tally is None:
            return finish(), None
        point = score_tau_h(trial, tau_z, tau_z, lo, hi, tally)
        if point is None:               # the start failed: raises that failure
            trial(tau_z, tau_z)
        return point, finish

    return step


def _point_at(spec: SweepSpec, t_c: float, omega_c: float | None, tally: SearchTally) -> tuple:
    """The pair (point, finish) (see _step) of the cycle for one sweep
    temperature, duration search included (see build_point); t_c and
    omega_c are Python floats.  What does not depend on the adiabat
    duration is checked and built once per point.

    A frictionless point is one step that does not score.  A ramp point is
    the winner of the duration search over steps, which under a searched
    allocation only score, into ``tally``; the caller finishes the winner
    (_finished), so the cold-frequency search finishes only its own
    winner's.
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
        return _step(spec, hot, cold, w_h, w_c)(None)   # the schedules fix the duration

    # searched adiabat duration for the ramps, rise / rate(param); the search
    # runs over the log of param, the peak adiabatic rate |mu| at the cold
    # end of the ramp.
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
    step = _step(spec, hot, cold, w_h, w_c, tally)
    return _brent_max(lambda log_param: step(rise / rate(math.exp(log_param))),
                      math.log(lo), math.log(hi))


def _finished(search) -> CycleRecord:
    """The record of the winner of ``search(tally)``, a pair (point, finish)
    (see _step) from a search whose steps score into ``tally``, with its
    finish run.  The tally warns once, when the search ends, also when it
    raises."""
    tally = SearchTally()
    try:
        point, finish = search(tally)
    finally:
        tally.warn()
    return trial_record(point if finish is None else finish())


def build_point(spec: SweepSpec, t_c: float,
                omega_c: float | None = None) -> tuple[CycleSpec, CycleRecord]:
    """The cycle for one sweep temperature (duration search included) and its
    record, the one record the point builds.

    ``t_c`` and ``omega_c`` are taken as Python floats, so a numpy scalar
    from a caller's grid does not spread into the limit-cycle core.
    """
    omega_c = None if omega_c is None else float(omega_c)
    record = _finished(lambda tally: _point_at(spec, float(t_c), omega_c, tally))
    return record.spec, record


def _evaluate_point(spec: SweepSpec, t_c: float) -> SweepRow:
    nan = float("nan")
    try:
        if spec.optimize_omega_c:
            record = _finished(lambda tally: _brent_max(
                lambda log_y: _point_at(spec, t_c, math.exp(log_y) * t_c, tally),
                math.log(0.05), math.log(3.0)))
        else:
            record = build_point(spec, t_c)[1]
    except DOMAIN_ERRORS as exc:
        return SweepRow(t_c, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan,
                        flag=0, error=f"{type(exc).__name__}: {exc}")
    flag, cycle = 1 if record.q_c > 0 else 2, record.spec
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
