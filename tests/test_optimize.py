"""z-equation, product-log, cold-frequency optimum and the searches."""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.optimize
from test_cycle import frictionless_spec, non_float_entries, record_ledgers

import ottofridge.cycle
import ottofridge.optimize
from ottofridge.cycle import (
    DOMAIN_ERRORS,
    CycleSpec,
    NoContractionError,
    isochore_time_derivatives,
    isochore_trials,
    limit_cycle,
    trial_record,
)
from ottofridge.dynamics import BathSpec, equilibrium_state
from ottofridge.optimize import (
    OptimizationSpec,
    SearchTally,
    _ascent_gradient,
    _ascent_hessian,
    _values_at,
    apply_free_values,
    ga_schedule_search,
    lambert_w0,
    optimal_cold_frequency,
    optimize_time_allocation,
    search_isochore_times,
    solve_isochore_z,
)
from ottofridge.schedules import Schedule, build_three_jump, three_jump_times


def z_residual(z, a):
    return 2.0 * math.sinh(z) - 2.0 * z - a


# ---------------------------------------------------------------------------
# z-equation
# ---------------------------------------------------------------------------

def test_z_equation_constructed_root():
    a = 2.0 * (math.sinh(1.0) - 1.0)         # root at z = 1 by construction
    alloc = solve_isochore_z(1.0, 1.0, a)
    assert alloc.z == pytest.approx(1.0, abs=1e-13)
    assert alloc.tau_h == alloc.z and alloc.tau_c == alloc.z


def test_z_equation_small_time_asymptote():
    # sinh z - z ~ z^3/6  =>  z ~ (3 Gamma tau)^(1/3)
    for tau in (1e-6, 1e-4, 1e-2):
        alloc = solve_isochore_z(1.0, 1.0, tau)
        assert alloc.z == pytest.approx((3.0 * tau) ** (1.0 / 3.0), rel=2e-2)


def test_z_equation_residual_grid():
    for a in np.logspace(-6, 3, 40):
        alloc = solve_isochore_z(1.0, 1.0, float(a))
        assert abs(z_residual(alloc.z, a)) <= 1e-12
    # large-argument sanity: residual stays at the contract level
    alloc = solve_isochore_z(1.0, 1.0, 100.0)
    assert abs(z_residual(alloc.z, 100.0)) <= 1e-12


def test_z_equation_matches_mpmath_root():
    # below a ~ 0.1 the difference 2 sinh z - 2 z cancels unless it is summed
    # as a series; 161 log-spaced a from 1e-8 to 1e8 against 50-digit roots
    worst = 0.0
    with mpmath.workdps(50):
        for i in range(161):
            a = 10.0 ** (-8 + i / 10)
            root = mpmath.findroot(lambda z: 2 * (mpmath.sinh(z) - z) - mpmath.mpf(a),
                                   mpmath.asinh(a / 2) + 1 if a > 1 else (3 * a) ** (1 / 3))
            z = solve_isochore_z(1.0, 1.0, a).z
            worst = max(worst, float(abs(z - root) / root))
    assert worst <= 2e-15


def test_z_equation_conductance_scaling_and_degenerate():
    alloc = solve_isochore_z(2.0, 0.5, 1.7)
    assert alloc.tau_h == pytest.approx(alloc.z / 2.0, rel=1e-14)
    assert alloc.tau_c == pytest.approx(alloc.z / 0.5, rel=1e-14)
    degenerate = solve_isochore_z(1.0, 1.0, 0.0)
    assert degenerate.degenerate and degenerate.z == 0.0
    with pytest.raises(ValueError):
        solve_isochore_z(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_isochore_z(1.0, 1.0, -0.5)


def test_z_equation_refuses_a_product_that_underflows():
    # gamma_h * tau_adiabats rounds to 0 with tau_adiabats > 0: the Newton
    # start would be z = 0, where the slope is 0; a product that is tiny but
    # not 0 still has its root, z ~ (3 a)^(1/3)
    with pytest.raises(ValueError, match=r"^gamma_h \* tau_adiabats underflows to 0 with "
                                         r"tau_adiabats > 0$"):
        solve_isochore_z(1e-200, 1e-200, 1e-200)
    assert solve_isochore_z(1e-150, 1e-150, 1e-150).z == pytest.approx(3e-100 ** (1 / 3),
                                                                       rel=1e-15)


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

def test_lambert_w0_fixed_points():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)
    assert lambert_w0(-2.0 * math.exp(-2.0)) == pytest.approx(-0.40637573995995991, rel=1e-12)
    assert lambert_w0(-1.0 / math.e) == -1.0


def test_lambert_w0_residual_grid():
    xs = np.concatenate([
        -1.0 / math.e + np.logspace(-12, -0.5, 25),
        np.logspace(-8, 3, 30),
    ])
    for x in xs:
        w = lambert_w0(float(x))
        assert w >= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-14 * max(abs(x), 1.0)


def test_lambert_w0_domain_error():
    with pytest.raises(ValueError):
        lambert_w0(-0.5)
    with pytest.raises(ValueError):
        lambert_w0(float("nan"))


# ---------------------------------------------------------------------------
# optimal cold frequency
# ---------------------------------------------------------------------------

def test_kappa_reference_values():
    _, kappa2 = optimal_cold_frequency(2.0, 1.0)
    _, kappa32 = optimal_cold_frequency(1.5, 1.0)
    assert kappa2 == pytest.approx(1.5936242600400401, rel=1e-12)
    assert kappa32 == pytest.approx(0.87421746579871708, rel=1e-12)
    omega_star, _ = optimal_cold_frequency(2.0, 0.05)
    assert omega_star == pytest.approx(kappa2 * 0.05, rel=1e-14)


def test_kappa_monotone_and_below_nu():
    prev = 0.0
    for nu in (1.1, 1.3, 1.5, 2.0, 3.0, 5.0):
        _, kappa = optimal_cold_frequency(nu, 1.0)
        assert prev < kappa < nu
        prev = kappa


def golden_max(f, lo, hi, iters=200):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return c if fc >= fd else d


@pytest.mark.parametrize("nu", [1.2, 1.5, 2.0, 3.0])
def test_kappa_against_golden_section_oracle(nu):
    t_c = 1.0

    def objective(omega):
        n_eq, _ = equilibrium_state(omega, BathSpec(t_c, 1.0))
        return omega**nu * n_eq

    omega_best = golden_max(objective, 1e-6, 60.0)
    _, kappa = optimal_cold_frequency(nu, t_c)
    assert omega_best == pytest.approx(kappa, abs=1e-6)


# ---------------------------------------------------------------------------
# time-allocation search
# ---------------------------------------------------------------------------

def make_base(omega_h=10.0, omega_c=1.0, t_h=2.0, t_c=0.5, gamma=1.0,
              tau_c=1.0, tau_h=1.0):
    return CycleSpec(
        BathSpec(t_h, gamma), BathSpec(t_c, gamma), omega_h, omega_c,
        build_three_jump(omega_h, omega_c), build_three_jump(omega_c, omega_h),
        tau_c=tau_c, tau_h=tau_h)


def test_optimize_no_free_variables_returns_input():
    base = make_base()
    result = optimize_time_allocation(OptimizationSpec(base=base))
    assert result.best_spec == base
    _, record = limit_cycle(base)
    assert result.best_record.r_c == record.r_c


def test_optimize_matches_z_equation_allocation():
    base = make_base()
    spec = OptimizationSpec(
        base=base, free=("tau_c", "tau_h"),
        bounds={"tau_c": (1e-2, 50.0), "tau_h": (1e-2, 50.0)},
        seed=7, restarts=3)
    result = optimize_time_allocation(spec)
    assert result.z_comparison is not None
    assert result.z_comparison["agree_1pct"]
    assert result.z_comparison["relative_gap"] <= 1e-2


def test_optimize_cold_frequency_ratio_in_kappa_regime():
    # deep in the low-temperature regime the searched optimal cold frequency
    # approaches kappa(3/2) * T_c for the bang-bang protocol
    t_c = 1e-6
    base = make_base(omega_h=100.0, omega_c=0.9e-6, t_h=1.0, t_c=t_c,
                     tau_c=5.0, tau_h=5.0)
    spec = OptimizationSpec(
        base=base, free=("omega_c",),
        bounds={"omega_c": (0.05 * t_c, 3.0 * t_c)},
        seed=3, restarts=2)
    result = optimize_time_allocation(spec)
    ratio = result.best_spec.omega_c / t_c
    assert 0.8 <= ratio <= 0.95


def test_optimize_deterministic_under_seed():
    base = make_base()
    spec = OptimizationSpec(
        base=base, free=("tau_c", "tau_h"),
        bounds={"tau_c": (1e-2, 50.0), "tau_h": (1e-2, 50.0)},
        seed=11, restarts=3)
    r1 = optimize_time_allocation(spec)
    r2 = optimize_time_allocation(spec)
    assert r1.best_values == r2.best_values
    assert r1.best_record.r_c == r2.best_record.r_c


def ramp_adiabats(kind, omega_h, omega_c):
    """Expansion and compression schedules of a kind with a free duration."""
    if kind == "const_mu":
        return Schedule.const_mu(omega_h, omega_c, -0.7), Schedule.const_mu(omega_c, omega_h, 0.7)
    build = Schedule.linear if kind == "linear" else Schedule.exponential
    return build(omega_h, omega_c, 2.0), build(omega_c, omega_h, 3.0)


@pytest.mark.parametrize("kind", ["linear", "exponential", "const_mu"])
def test_freed_adiabat_durations_rebuild_their_schedules(kind):
    # tau_hc and tau_ch rebuild each adiabat with its kind and endpoints and
    # the requested duration (a const-mu schedule through its mu)
    expansion, compression = ramp_adiabats(kind, 10.0, 1.0)
    base = replace(make_base(), expansion=expansion, compression=compression)
    spec = apply_free_values(base, {"tau_hc": 1.7, "tau_ch": 2.9})
    for new, old, duration in ((spec.expansion, expansion, 1.7),
                               (spec.compression, compression, 2.9)):
        assert new.kind == kind
        assert (new.omega_start, new.omega_end) == (old.omega_start, old.omega_end)
        assert new.duration == pytest.approx(duration, rel=1e-15)
    assert (spec.omega_c, spec.tau_c, spec.tau_h) == (base.omega_c, base.tau_c, base.tau_h)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = optimize_time_allocation(OptimizationSpec(
            base=base, free=("tau_hc", "tau_c"),
            bounds={"tau_hc": (0.5, 5.0), "tau_c": (0.2, 5.0)}, restarts=1))
    # the const-mu search runs into Nelder-Mead's iteration cap and says so
    capped = "optimize_time_allocation: 1 Nelder-Mead searches stopped at the 400-iteration cap"
    assert [str(w.message) for w in caught] == ([capped] if kind == "const_mu" else [])
    if kind == "const_mu":
        assert result.evaluations == 801
    best = result.best_spec
    assert best.expansion.duration == pytest.approx(result.best_values["tau_hc"], rel=1e-15)
    assert best.tau_c == result.best_values["tau_c"]
    assert best.compression is base.compression
    assert result.best_record.r_c >= limit_cycle(base)[1].r_c


def test_optimization_spec_validation():
    base = make_base()
    with pytest.raises(ValueError):
        OptimizationSpec(base=base, free=("voltage",), bounds={"voltage": (1, 2)})
    with pytest.raises(ValueError):
        OptimizationSpec(base=base, free=("tau_c",), bounds={})
    with pytest.raises(ValueError):
        OptimizationSpec(base=base, free=("tau_hc",), bounds={"tau_hc": (0.1, 1.0)})
    piecewise = replace(base, compression=Schedule.piecewise(1.0, 10.0, [(3.0, 0.25)]))
    with pytest.raises(ValueError, match="omega_c cannot be freed"):
        OptimizationSpec(base=piecewise, free=("omega_c",), bounds={"omega_c": (0.5, 2.0)})
    with pytest.raises(ValueError, match="must not repeat"):
        OptimizationSpec(base=base, free=("tau_h", "tau_h"), bounds={"tau_h": (0.1, 10.0)})


# ---------------------------------------------------------------------------
# genetic schedule search
# ---------------------------------------------------------------------------

def three_jump_genes(omega_h, omega_c):
    t1, t2 = three_jump_times(omega_h, omega_c)
    return np.array([omega_c, t1, omega_h, t2])


def test_ga_candidate_spec_scores_the_three_jump_genes():
    # the three-jump genes, with the candidate's own z-allocated isochores,
    # reproduce the z-allocated three-jump cycle's cooling rate
    base = make_base(omega_h=10.0, omega_c=1.0, t_h=2.0, t_c=1.0)
    candidate = ottofridge.optimize._ga_candidate_spec(base, three_jump_genes(10.0, 1.0))
    alloc = solve_isochore_z(1.0, 1.0, 2 * base.expansion.duration)
    ref = replace(base, tau_c=alloc.tau_c, tau_h=alloc.tau_h)
    assert limit_cycle(candidate)[1].r_c == pytest.approx(limit_cycle(ref)[1].r_c, rel=1e-12)


def test_ga_deterministic_and_monotone():
    # differential evolution's greedy selection keeps a trial only when it
    # is no worse than its target, so the best fitness never falls
    base = make_base(omega_h=10.0, omega_c=1.0, t_h=2.0, t_c=1.0)
    r1 = ga_schedule_search(base, population=12, generations=15, seed=42)
    r2 = ga_schedule_search(base, population=12, generations=15, seed=42)
    assert r1.schedule == r2.schedule
    assert r1.fitness == r2.fitness
    diffs = np.diff(r1.history)
    assert np.all(diffs >= -1e-300)
    assert len(r1.history) == 15 + 1
    assert r1.evaluations == 12 * (15 + 1)


@pytest.mark.parametrize("seed", [1, 2])
def test_ga_finds_the_basin_above_the_three_jump_cycle(seed):
    # criterion 10's setup: the search reaches the clipped optimum near the
    # three-jump holds, 1.002523 of the three-jump R_c (120 generations stop
    # at 0.994-0.997)
    _, kappa32 = optimal_cold_frequency(1.5, 1.0)
    base = make_base(omega_h=10.0, omega_c=1.0, t_h=2.0, t_c=1.0 / kappa32)
    alloc = solve_isochore_z(1.0, 1.0, 2 * base.expansion.duration)
    reference = limit_cycle(replace(base, tau_c=alloc.tau_c, tau_h=alloc.tau_h))[1].r_c
    result = ga_schedule_search(base, segments=2, population=32, generations=200, seed=seed)
    assert result.fitness / reference >= 1.0


def test_searches_run_the_kernel_on_python_floats(monkeypatch):
    # Nelder-Mead's numpy vectors and the GA's genes reach the limit-cycle
    # core as Python floats
    records = record_ledgers(monkeypatch)
    base = make_base()
    optimize_time_allocation(OptimizationSpec(
        base=base, free=("tau_c", "omega_c"),
        bounds={"tau_c": (0.1, 10.0), "omega_c": (0.5, 2.0)}, seed=2, restarts=1))
    n_nelder_mead = len(records)
    ga_schedule_search(base, population=8, generations=3, seed=2)
    assert 0 < n_nelder_mead < len(records)
    for record in records:
        assert non_float_entries(record) == []


def test_ga_rejects_tiny_population():
    with pytest.raises(ValueError, match="at least 5"):
        ga_schedule_search(make_base(), population=4)


def test_optimize_reports_failures_in_one_warning(monkeypatch):
    # a search meets many failed evaluations; they are counted and reported
    # once per search, not once per evaluation
    solve = ottofridge.cycle._fixed_point

    def fails_above(consts, cold, hot, tau_c, tau_h):
        if tau_c > 1.3:
            raise NoContractionError("injected")
        return solve(consts, cold, hot, tau_c, tau_h)

    monkeypatch.setattr(ottofridge.cycle, "_fixed_point", fails_above)
    spec = OptimizationSpec(
        base=make_base(), free=("tau_c", "tau_h"),
        bounds={"tau_c": (1e-2, 50.0), "tau_h": (1e-2, 50.0)},
        seed=11, restarts=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = optimize_time_allocation(spec)
    assert result.failures >= 2
    assert result.best_spec.tau_c <= 1.3
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1
    assert f"{result.failures} objective evaluations failed" in messages[0]
    assert "NoContractionError: injected" in messages[0]

    # a Newton start inside the failing region is a failed restart row, not
    # an exception; the midpoint and random starts still search
    spec = replace(spec, base=make_base(tau_c=2.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = optimize_time_allocation(spec)
    (start_values, start_r_c), *others = result.restarts
    assert start_values == {"tau_c": 2.0, "tau_h": 1.0}     # the base's values, exactly
    assert start_r_c == -math.inf
    assert all(r_c > 0.0 for _, r_c in others)
    assert result.best_spec.tau_c <= 1.3
    assert len(caught) == 1 and "NoContractionError: injected" in str(caught[0].message)


def test_on_demand_hessian_is_isochore_time_derivatives():
    # the search's gradient stage and its later Hessian stage are
    # isochore_time_derivatives bit for bit, with the sign of R_c and in
    # either coordinate order, on cooling and heating cycles
    specs = [make_base(tau_c=tau_c, tau_h=tau_h)
             for tau_c, tau_h in ((1.0, 1.0), (0.3, 2.5), (4.0, 0.2))]
    specs.append(frictionless_spec(t_c=0.1, tau_c=0.5, tau_h=2.0))      # q_c < 0
    signs = []
    for spec in specs:
        _, record = limit_cycle(spec)
        (g0, g1), ((h00, h01), (h10, h11)) = isochore_time_derivatives(record)
        sign = 1.0 if record.q_c > 0 else -1.0
        signs.append(sign)
        point = isochore_trials(spec)(spec.tau_c, spec.tau_h)
        for swapped in (False, True):
            g, stage = _ascent_gradient(point, swapped)
            h = _ascent_hessian(point, stage, swapped)
            if swapped:
                assert g == [sign * g1, sign * g0]
                assert h == ((sign * h11, sign * h10), (sign * h01, sign * h00))
            else:
                assert g == [sign * g0, sign * g1]
                assert h == ((sign * h00, sign * h01), (sign * h10, sign * h11))
    assert signs == [1.0, 1.0, 1.0, -1.0]
    assert _ascent_gradient(None, False) == (None, None)


def list_search(base, x, box, tally, start):
    """search_isochore_times as it ran on a list x, a values dict per
    evaluation and a list per projection and step: the reference that the
    float loop must match bit for bit (it counts no searches held at a face)."""
    trial = isochore_trials(base)
    swapped = box[0][0] == "tau_h"
    (_, lo0, hi0), (_, lo1, hi1) = box

    def projected(g, x):
        g0, g1 = g
        if (x[0] <= lo0 and g0 < 0.0) or (x[0] >= hi0 and g0 > 0.0):
            g0 = 0.0
        if (x[1] <= lo1 and g1 < 0.0) or (x[1] >= hi1 and g1 > 0.0):
            g1 = 0.0
        return [g0, g1]

    def evaluate(x):
        tally.evaluations += 1
        values = _values_at(x, box, start)
        key = values["tau_c"], values["tau_h"]
        try:
            point = tally.solved[key] = trial(*key)
        except DOMAIN_ERRORS as exc:
            tally.failed(values, exc)
            return values, None
        return values, point

    values, point = evaluate(x)
    g, stage = _ascent_gradient(point, swapped)
    if g is None:
        tally.unconverged += point is not None
        return values, point
    for _ in range(ottofridge.optimize._NEWTON_MAX_ITER):
        pg = projected(g, x)
        gnorm = max(abs(pg[0]), abs(pg[1]))
        if gnorm <= ottofridge.optimize._NEWTON_GTOL:
            return values, point
        h = _ascent_hessian(point, stage, swapped)
        free0, free1 = pg[0] == g[0], pg[1] == g[1]
        h00 = h[0][0] if free0 else -1.0
        h11 = h[1][1] if free1 else -1.0
        h01 = h[0][1] if free0 and free1 else 0.0
        modified = not (h00 < 0.0 and h00 * h11 > h01 * h01)
        if modified:
            h00, h11, h01 = -(abs(h00) or 1.0), -(abs(h11) or 1.0), 0.0
        det = h00 * h11 - h01 * h01
        p0, p1 = (h01 * pg[1] - h11 * pg[0]) / det, (h01 * pg[0] - h00 * pg[1]) / det
        r_c = point[0]
        floor = r_c if modified else r_c - ottofridge.optimize._NEWTON_RTOL * abs(r_c)
        alpha = 1.0
        while True:
            xt = [min(max(x[0] + alpha * p0, lo0), hi0), min(max(x[1] + alpha * p1, lo1), hi1)]
            if xt == x:
                tally.unconverged += 1
                return values, point
            values_t, point_t = evaluate(xt)
            if point_t is not None and point_t[0] >= floor:
                g_t, stage_t = _ascent_gradient(point_t, swapped)
                if g_t is not None and (point_t[0] >= r_c or max(
                        map(abs, projected(g_t, xt))) < gnorm):
                    break
            alpha *= 0.5
        x, values, point, g, stage = xt, values_t, point_t, g_t, stage_t
    tally.unconverged += 1
    return values, point


@pytest.mark.parametrize("max_iter", [50, 2])
def test_float_search_is_the_list_search(monkeypatch, max_iter):
    # 80 random searches (three-jump and exponential-ramp cycles, boxes of
    # 0.05 to 3 in each log, either coordinate order, with a start or none,
    # first or later, some trials failing; also with the iteration cap at 2):
    # the float loop returns the list loop's values (in the same order) and
    # fixed point, solves the same trials in the same order and counts the
    # same; it counts a search held when it ends at a face with the
    # gradient pointing out
    monkeypatch.setattr(ottofridge.optimize, "_NEWTON_MAX_ITER", max_iter)
    solve, limit = ottofridge.cycle._fixed_point, []

    def fails_above(consts, cold, hot, tau_c, tau_h):
        if limit and tau_c > limit[0]:
            raise NoContractionError("injected")
        return solve(consts, cold, hot, tau_c, tau_h)

    monkeypatch.setattr(ottofridge.cycle, "_fixed_point", fails_above)
    rng = np.random.default_rng(23 + max_iter)
    outcomes = set()
    for case in range(80):
        omega_c = float(rng.uniform(0.5, 2.0))
        base = make_base(omega_h=float(rng.uniform(5.0, 30.0)), omega_c=omega_c,
                         t_c=float(rng.uniform(0.1, 1.0)))
        if case % 2:
            duration = float(rng.uniform(0.5, 5.0))
            base = replace(base, expansion=Schedule.exponential(base.omega_h, omega_c, duration),
                           compression=Schedule.exponential(omega_c, base.omega_h, duration))
        names = ("tau_h", "tau_c") if rng.uniform() < 0.5 else ("tau_c", "tau_h")
        centre, width = rng.uniform(-1.5, 1.5, 2), rng.uniform(0.05, 3.0, 2)
        box = [(name, float(c - w), float(c + w)) for name, c, w in zip(names, centre, width)]
        x = [float(rng.uniform(a, b)) for _, a, b in box]
        start = None
        if rng.uniform() < 0.6:     # a start: its values are not exp of its logs
            values = {name: math.exp(v) * (1.0 + 1e-15) for (name, _, _), v in zip(box, x)}
            start = x, values
            if rng.uniform() < 0.3:     # a start that is not the first point
                x = [0.5 * (a + b) for _, a, b in box]
        limit[:] = [float(np.exp(rng.uniform(-1.0, 1.0)))] if case % 5 == 0 else []
        ref, new = SearchTally(), SearchTally()
        expected = list_search(base, x, box, ref, start)
        got = search_isochore_times(isochore_trials(base), tuple(x), box, new, start)
        assert list(got[0].items()) == list(expected[0].items())
        assert (got[1] is None) == (expected[1] is None)
        if got[1] is not None:
            assert got[1] is new.solved[got[0]["tau_c"], got[0]["tau_h"]]
            assert trial_record(got[1]) == trial_record(expected[1])
        assert list(new.solved) == list(ref.solved)
        assert [p[0].hex() for p in new.solved.values()] == [
            p[0].hex() for p in ref.solved.values()]
        assert (new.evaluations, new.failures, new.first_failure, new.unconverged) == (
            ref.evaluations, ref.failures, ref.first_failure, ref.unconverged)
        held = False
        if got[1] is not None and got[1][1] != 0.0:
            g, _ = _ascent_gradient(got[1], names[0] == "tau_h")
            held = any((got[0][name] == math.exp(lo) and gi < 0.0)
                       or (got[0][name] == math.exp(hi) and gi > 0.0)
                       for (name, lo, hi), gi in zip(box, g))
        assert new.held == held
        outcomes.update({"held" if held else "free", "unconverged" * bool(new.unconverged),
                         "failed" * bool(new.failures), " ".join(names)})
    assert {"held", "free", "unconverged", "failed", "tau_h tau_c", "tau_c tau_h"} <= outcomes


def test_zero_base_time_is_not_a_start():
    # a zero base value lies outside every positive box: the midpoint and
    # the random starts search, by Newton and by Nelder-Mead alike
    bounds = {"tau_c": (1e-2, 50.0), "tau_h": (1e-2, 50.0), "omega_c": (0.3, 3.0)}
    for free in (("tau_c", "tau_h"), ("tau_c", "omega_c")):
        spec = OptimizationSpec(base=make_base(tau_c=0.0), free=free, bounds=bounds,
                                seed=4, restarts=2)
        result = optimize_time_allocation(spec)
        # the same two starts as from a base value below the box
        below = optimize_time_allocation(replace(spec, base=make_base(tau_c=1e-3)))
        assert len(result.restarts) == 2 and result.restarts == below.restarts
        assert result.evaluations == below.evaluations
        assert result.best_record.r_c > 0.0 and result.failures == 0


def test_optimize_reuses_each_restarts_best_record(monkeypatch):
    # no cycle solved beyond the search's own evaluations and the
    # z-equation comparison: each restart keeps its best record
    calls = []
    solve = ottofridge.cycle._fixed_point

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(ottofridge.cycle, "_fixed_point", counting)
    bounds = {"tau_c": (1e-2, 50.0), "tau_h": (1e-2, 50.0), "omega_c": (0.3, 3.0)}
    newton = optimize_time_allocation(OptimizationSpec(
        base=make_base(), free=("tau_c", "tau_h"), bounds=bounds, seed=11, restarts=3))
    assert newton.z_comparison is not None
    assert len(calls) == newton.evaluations + 1
    assert newton.best_record.r_c == max(r_c for _, r_c in newton.restarts)
    assert newton.best_spec is newton.best_record.chain[0]

    # Nelder-Mead: its evaluations are the ones scipy counts
    nfev = []
    minimize = scipy.optimize.minimize

    def counting_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(scipy.optimize, "minimize", counting_minimize)
    calls.clear()
    nelder_mead = optimize_time_allocation(OptimizationSpec(
        base=make_base(), free=("omega_c",), bounds=bounds, seed=11, restarts=2))
    assert nelder_mead.z_comparison is None
    assert len(calls) == nelder_mead.evaluations == sum(nfev)
    assert nelder_mead.best_record.r_c == limit_cycle(nelder_mead.best_spec)[1].r_c


@pytest.mark.parametrize("kind", ["three_jump", "const_mu"])
@pytest.mark.parametrize("omega_h, omega_c, t_h, t_c, tau", [
    (10.0, 1.0, 2.0, 0.5, None),
    (100.0, 0.16, 1.0, 0.1, None),
    (30.0, 2.0, 1.0, 0.3, None),
    (30.0, 2.0, 1.0, 0.3, (0.1, 30.0)),     # optimum far from the start
])
def test_newton_optimum_is_the_z_equation_on_frictionless_kinds(kind, omega_h, omega_c,
                                                                t_h, t_c, tau):
    # with equal conductances the z-equation is the exact optimum of a
    # frictionless cycle; every Newton start (given or z, box midpoint,
    # seeded random) must reach it, with no warning
    z_spec = frictionless_spec(omega_h, omega_c, t_h, t_c, kind=kind)
    base = z_spec if tau is None else replace(z_spec, tau_c=tau[0], tau_h=tau[1])
    spec = OptimizationSpec(base=base, free=("tau_c", "tau_h"),
                            bounds={"tau_c": (1e-2, 50.0), "tau_h": (1e-2, 50.0)},
                            seed=5, restarts=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = optimize_time_allocation(spec)
    assert len(result.restarts) == 3
    for values, _ in result.restarts:
        assert values["tau_c"] == pytest.approx(z_spec.tau_c, rel=1e-9)
        assert values["tau_h"] == pytest.approx(z_spec.tau_h, rel=1e-9)
    assert max(map(abs, isochore_time_derivatives(result.best_record)[0])) <= 1e-10


def test_newton_iteration_cap_is_warned_about(monkeypatch):
    monkeypatch.setattr(ottofridge.optimize, "_NEWTON_MAX_ITER", 1)
    base = frictionless_spec(30.0, 2.0, 1.0, 0.3, tau_c=0.1, tau_h=30.0)
    spec = OptimizationSpec(base=base, free=("tau_c", "tau_h"),
                            bounds={"tau_c": (1e-2, 50.0), "tau_h": (1e-2, 50.0)},
                            seed=5, restarts=2)
    with pytest.warns(UserWarning, match=r"2 Newton searches stopped with a projected "
                                         r"\|grad ln R_c\| above 1e-10"):
        result = optimize_time_allocation(spec)
    assert result.failures == 0


def test_newton_stops_on_a_face_of_the_box():
    # the z-optimal tau_h lies above the box: the search ends on the face
    # tau_h = hi with the gradient pointing out, and stationary in tau_c; its
    # one warning counts the three searches held there and says nothing
    # else; the z-allocation beats it but lies outside the box, so it is
    # reported only
    base = frictionless_spec(30.0, 2.0, 1.0, 0.3)
    hi = 0.5 * base.tau_h
    spec = OptimizationSpec(base=base, free=("tau_c", "tau_h"),
                            bounds={"tau_c": (1e-2, 50.0), "tau_h": (1e-2, hi)},
                            seed=5, restarts=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = optimize_time_allocation(spec)
    assert [str(w.message) for w in caught] == [
        "optimize_time_allocation: 3 Newton searches ended with a time held at a face "
        "of the box by a gradient pointing out"]
    for values, _ in result.restarts:
        assert values["tau_h"] == pytest.approx(hi, rel=1e-15)
        _, record = limit_cycle(replace(base, **values))
        d_tau_c, d_tau_h = isochore_time_derivatives(record)[0]
        assert abs(d_tau_c) <= 1e-10 and d_tau_h > 0.1
    assert result.best_values["tau_h"] == pytest.approx(hi, rel=1e-15)
    assert result.best_spec.tau_h == result.best_values["tau_h"]
    assert result.z_comparison["tau_h"] > hi
    assert result.z_comparison["r_c_z"] > result.best_record.r_c


def test_newton_climbs_out_of_a_start_that_does_not_cool():
    # exponential ramps 10 -> 1 of duration 2: at (tau_c, tau_h) = (0.41,
    # 0.71) the cycle heats the cold bath; the search climbs R_c until it
    # cools and ends at a stationary point of ln R_c
    base = replace(make_base(tau_c=0.41, tau_h=0.71),
                   expansion=Schedule.exponential(10.0, 1.0, 2.0),
                   compression=Schedule.exponential(1.0, 10.0, 2.0))
    assert limit_cycle(base)[1].q_c < 0.0
    spec = OptimizationSpec(base=base, free=("tau_c", "tau_h"),
                            bounds={"tau_c": (1e-2, 50.0), "tau_h": (1e-2, 50.0)},
                            seed=5, restarts=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = optimize_time_allocation(spec)
    ((values, r_c),) = result.restarts
    assert r_c > 0.0
    _, record = limit_cycle(replace(base, **values))
    assert max(map(abs, isochore_time_derivatives(record)[0])) <= 1e-10
