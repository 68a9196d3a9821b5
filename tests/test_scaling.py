"""Temperature sweeps and power-law fitting."""

import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from oracles import cross_check, frictionless_ledger
from test_cycle import non_float_entries, record_ledgers

import ottofridge.cycle
import ottofridge.optimize
import ottofridge.scaling
from ottofridge.cycle import (
    DOMAIN_ERRORS,
    CycleSpec,
    isochore_time_derivatives,
    isochore_trials,
    limit_cycle,
    trial_record,
)
from ottofridge.dynamics import BathSpec, equilibrium_state
from ottofridge.optimize import (
    _SCORE_GAIN,
    OptimizationSpec,
    SearchTally,
    optimal_cold_frequency,
    optimize_time_allocation,
    search_isochore_times,
    solve_isochore_z,
)
from ottofridge.schedules import Schedule, ScheduleError
from ottofridge.scaling import (
    _XTOL,
    SWEEP_KINDS,
    SweepSpec,
    _brent_max,
    _ramp_step,
    build_point,
    fit_power_law,
    temperature_sweep,
)


# ---------------------------------------------------------------------------
# fit_power_law
# ---------------------------------------------------------------------------

def test_fit_exact_power_law():
    t = np.logspace(-3, 0, 12)
    fit = fit_power_law(zip(t, 7.0 * t**2.5))
    assert fit.delta == pytest.approx(2.5, rel=1e-12)
    assert fit.prefactor == pytest.approx(7.0, rel=1e-10)
    assert fit.rms_residual < 1e-12
    assert fit.n_used == 12


def test_fit_tail_window_tracks_asymptote():
    # local slope drifts from 3 at high T to 1.5 at low T; the tail fit must
    # sit below the full-window fit
    t = np.logspace(-4, 0, 24)
    r = t**1.5 + 50.0 * t**3
    full = fit_power_law(zip(t, r))
    tail = fit_power_law(zip(t, r), tail_decades=1.0)
    assert tail.delta < full.delta
    assert tail.delta == pytest.approx(1.5, abs=0.05)


def test_fit_excludes_nonpositive_and_errors_when_starved():
    t = [1.0, 0.5, 0.25, 0.125, 0.0625]
    r = [1.0, 0.5, -1.0, 0.125, 0.0625]
    with pytest.warns(UserWarning):
        fit = fit_power_law(zip(t, r))
    assert fit.n_used == 4
    with pytest.raises(ValueError):
        fit_power_law(zip([1.0, 0.5, 0.25], [1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def small_sweep(kind, **kw):
    args = dict(kind=kind, omega_h=50.0, t_hot=1.0, gamma=1.0,
                t_max=3e-1, t_min=3e-3, points_per_decade=4, tail_decades=1.0)
    args.update(kw)
    return SweepSpec(**args)


def tau_exponent(rows, tail_decades=None):
    pts = [(r.t_c, r.tau_hc) for r in rows if r.flag == 1]
    return fit_power_law(pts, tail_decades=tail_decades).delta


@pytest.mark.parametrize("kind, nu", [("three_jump", 1.5), ("const_mu", 2.0),
                                      ("linear", 2.0), ("exponential", 2.0)])
def test_default_kappa_is_the_kinds_optimal_ratio(kind, nu):
    assert SweepSpec(kind=kind).kind_kappa() == optimal_cold_frequency(nu, 1.0)[1]
    assert SweepSpec(kind=kind, kappa=0.6).kind_kappa() == 0.6


def test_three_jump_sweep_rows_and_tau_scaling():
    res = temperature_sweep(small_sweep("three_jump"))
    assert all(r.flag == 1 for r in res.rows)
    assert all(r.sigma >= 0 for r in res.rows)
    assert all(0 < r.q_c <= r.t_c for r in res.rows)
    assert tau_exponent(res.rows) == pytest.approx(-0.5, abs=0.05)
    # heat per cycle is linear in T_c under the kappa rule: Q_c/T_c drifts
    # only through the slowly-varying equilibration factor
    ratios = [r.q_c / r.t_c for r in res.rows]
    assert max(ratios) / min(ratios) < 1.6


def test_const_mu_sweep_tau_scaling():
    # the duration carries a log(C) correction, so the -1 exponent needs the
    # deeper grid and the tail window (closed-form rows: still cheap)
    res = temperature_sweep(small_sweep("const_mu", omega_h=100.0,
                                        t_max=1e-1, t_min=1e-3))
    assert all(r.flag == 1 for r in res.rows)
    assert tau_exponent(res.rows, tail_decades=1.0) == pytest.approx(-1.0, abs=0.05)


def test_sweep_rows_are_reproducible():
    spec = small_sweep("three_jump")
    r1 = temperature_sweep(spec)
    r2 = temperature_sweep(spec)
    assert r1.rows == r2.rows
    assert r1.fit == r2.fit


def test_sweep_parallel_matches_serial():
    spec = small_sweep("three_jump")
    serial = temperature_sweep(spec, threads=1)
    parallel = temperature_sweep(spec, threads=4)
    assert serial.rows == parallel.rows


def test_sweep_records_failures_and_continues():
    # t_max so large that omega_c = kappa T exceeds omega_h at the hot end
    with pytest.warns(UserWarning):
        spec = SweepSpec(kind="three_jump", omega_h=1.0, t_hot=1.0, gamma=1.0,
                         t_max=10.0, t_min=0.1, points_per_decade=3)
    res = temperature_sweep(spec)
    assert any(r.flag == 0 for r in res.rows)
    assert any(r.flag == 1 for r in res.rows)
    failed = [r for r in res.rows if r.flag == 0]
    assert all(r.error for r in failed)
    assert all(math.isnan(r.r_c) for r in failed)


@pytest.mark.parametrize("kind", ["three_jump", "linear"])
def test_sweep_propagates_non_domain_errors(kind, monkeypatch):
    # only domain failures become flag-0 rows or -inf search scores; a bug
    # in a propagator must surface (every kind here lifts a fundamental matrix)
    def broken(*args):
        raise TypeError("injected")

    monkeypatch.setattr("ottofridge.dynamics._lift", broken)
    with pytest.raises(TypeError, match="injected"):
        temperature_sweep(small_sweep(kind, t_max=1e-1, t_min=5e-2, points_per_decade=1))


def test_non_finite_cycle_map_is_a_domain_failure(monkeypatch):
    # a NaN propagator makes a NaN cycle map: limit_cycle (here inside
    # build_point) refuses it before LAPACK sees it with a LinAlgError (a
    # ValueError), and a sweep records a failed point
    from ottofridge.cycle import DOMAIN_ERRORS

    def nan_propagator(schedule):
        return (math.nan,) * 9

    monkeypatch.setattr("ottofridge.dynamics.schedule_propagator", nan_propagator)
    spec = small_sweep("three_jump", t_max=1e-1, t_min=1e-1 * 10**-0.05, points_per_decade=5)
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs") as err:
        build_point(spec, spec.t_max)
    assert isinstance(err.value, DOMAIN_ERRORS)
    (row,) = temperature_sweep(spec).rows
    assert row.flag == 0 and row.error.startswith("LinAlgError")
    assert math.isnan(row.r_c)


def count_evaluations(monkeypatch) -> list:
    """The evaluation counts of every _brent_max search from here on, one
    entry appended as each search returns or raises (an inner search before
    the outer one it serves)."""
    evaluations = []
    brent = ottofridge.scaling._brent_max

    def counting(build, lo, hi):
        calls = []

        def counted(x):
            calls.append(x)
            return build(x)

        try:
            return brent(counted, lo, hi)
        finally:
            evaluations.append(len(calls))

    monkeypatch.setattr(ottofridge.scaling, "_brent_max", counting)
    return evaluations


def test_failed_duration_search_raises_its_winners_error(monkeypatch):
    # every duration fails: the winner's error surfaces, with no build after
    # the search's own evaluations (a linear ramp's map is a lifted
    # fundamental matrix, and its time reverse is lifted from the same one)
    built = []

    def nan_propagator(*args):
        built.append(args)
        return (math.nan,) * 9

    monkeypatch.setattr("ottofridge.dynamics._lift", nan_propagator)
    evaluations = count_evaluations(monkeypatch)
    spec = small_sweep("linear", t_max=1e-1, t_min=5e-2)
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        build_point(spec, 0.05)
    assert len(evaluations) == 1 and len(built) == 2 * evaluations[0]


@pytest.mark.parametrize("cut", [-1.0, 0.5, 1.5])
def test_duration_search_keeps_the_best_finite_point(cut):
    # a build that fails above ``cut`` (score -inf), which lies above the
    # first point (x = -1.54, 0.382 of the way up the bracket): the search
    # returns the tuple of the best point it built, never builds at NaN or
    # outside its bracket, and ends within its tolerance of the best point
    # that does not fail, at the cut when the peak at x = 1 fails
    lo, hi = math.log(0.02), math.log(10.0)
    calls = []

    def build(x):
        assert lo <= x <= hi and len(calls) < 100
        calls.append(x)
        if x > cut:
            raise ScheduleError(f"x = {x!r} fails")
        return (-(x - 1.0) ** 2, x)

    point = _brent_max(build, lo, hi)
    built = [(-(x - 1.0) ** 2, x) for x in calls if x <= cut]
    assert point == max(built)
    assert abs(point[1] - min(cut, 1.0)) <= _XTOL


def test_duration_search_takes_parabolic_steps_on_a_smooth_peak():
    # on a smooth peak the parabolic steps take over: 9 evaluations reach
    # it within the tolerance, where golden-section steps alone would need
    # about 18 to shrink the bracket that far
    calls = []

    def build(x):
        calls.append(x)
        return (math.exp(-(x - 0.7) ** 2), x)

    point = _brent_max(build, math.log(0.02), math.log(10.0))
    assert abs(point[1] - 0.7) <= _XTOL and len(calls) <= 10


def test_duration_search_with_every_point_failing_raises_the_winners_error():
    # every score is -inf, so each new point ties with the best and takes its
    # place: the last point built is the winner, and its error surfaces
    # after the bracket has shrunk to the tolerance
    raised = []

    def build(x):
        assert len(raised) < 100
        raised.append(ScheduleError(f"x = {x!r} fails"))
        raise raised[-1]

    with pytest.raises(ScheduleError) as err:
        _brent_max(build, math.log(0.02), math.log(10.0))
    assert err.value is raised[-1]


@pytest.mark.parametrize("kind, allocation, tol", [
    ("linear", "z", 2e-3), ("linear", "searched", 2e-3),
    ("exponential", "searched", 2e-3), ("exponential", "z", 1e-2)])
def test_duration_search_is_near_the_best_of_a_dense_scan(kind, allocation, tol):
    # R_c ripples in the adiabat duration (peak to trough up to 0.66% at
    # T_c = 0.01), so a search to 1e-3 in ln tau lands on some ripple peak
    # near the envelope's: every row of the acceptance window is within tol
    # of the best R_c of 81 durations spanning +-0.02 in ln tau around its
    # own (worst measured 2.1e-4, 5.6e-6, 3.9e-4 and 6.4e-3; the golden
    # section's 4.6e-5, 1.2e-6, 1.4e-3 and 3.5e-3)
    spec = SweepSpec(kind=kind, omega_h=100.0, t_hot=1.0, gamma=1.0, t_max=1e-1, t_min=1e-3,
                     points_per_decade=5, allocation=allocation)
    hot = BathSpec(spec.t_hot, spec.gamma)
    for row in temperature_sweep(spec).rows:
        step = _ramp_step(spec, hot, BathSpec(row.t_c, spec.gamma), spec.omega_h, row.omega_c)
        best = max(step(row.tau_hc * math.exp(0.0005 * i))[0] for i in range(-40, 41))
        assert row.flag == 1 and row.r_c >= best * (1.0 - tol)


def test_omega_c_search_reuses_its_winner(monkeypatch):
    # one sweep point solved per evaluation of the omega_c search, none
    # after it
    calls = []
    build, solve = ottofridge.scaling.build_point, ottofridge.scaling._point_at

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(ottofridge.scaling, "_point_at", counting)
    evaluations = count_evaluations(monkeypatch)
    spec = small_sweep("three_jump", t_max=1e-1, t_min=1e-1 * 10**-0.05, points_per_decade=5,
                       optimize_omega_c=True)
    (row,) = temperature_sweep(spec).rows
    assert row.flag == 1
    assert evaluations == [len(calls)]
    assert row.omega_c == build(spec, spec.t_max, row.omega_c)[0].omega_c


def test_searched_point_reuses_the_duration_search_winner(monkeypatch):
    # the winner's record is built from a fixed point the searches
    # themselves solved: one isochore-time search per evaluation of the
    # duration search, paused once it only scores, and after them only the
    # resumption of the winner's own paused search
    searches, resumed = [], []
    search = ottofridge.scaling.search_isochore_times

    def counting(trial, x, box, tally, start, **options):
        state = tally.paused
        result = search(trial, x, box, tally, start, **options)
        if state is None:
            assert options == {"pause": True}
            searches.append((tally.paused, dict(tally.solved)))
        else:
            resumed.append((state, dict(tally.solved)))
        return result

    monkeypatch.setattr(ottofridge.scaling, "search_isochore_times", counting)
    evaluations = count_evaluations(monkeypatch)
    spec = small_sweep("exponential", t_max=1e-1, t_min=5e-2,
                       allocation="searched")
    cycle, record = build_point(spec, 0.05)
    assert evaluations == [len(searches)]
    ((state, finished),) = resumed
    (scored,) = [solved for paused, solved in searches if paused is state]
    assert any(point is state[3] for point in scored.values())
    assert state[3][-1][7] == cycle.expansion.duration
    assert any(record.chain[4] is point[9] and (cycle.tau_c, cycle.tau_h) == times
               for solved in (scored, finished) for times, point in solved.items())
    assert record.chain[0] is cycle


def test_searched_point_solves_no_cycle_beyond_its_searches(monkeypatch):
    # a searched sweep point reuses the fixed points of its isochore-time
    # searches: every cycle it solves is a search's own trial, none in the
    # duration search or for the row, and none twice; each search starts at
    # exactly its z-allocation, the one resumption continues the winner's
    # paused search at the winner's duration, and the point builds at most
    # two CycleRecords a search (it builds one, its winner's), not one per
    # trial
    records = record_ledgers(monkeypatch)
    calls, searches, resumed = [], [], []
    search, solve = ottofridge.scaling.search_isochore_times, ottofridge.cycle._fixed_point

    def counting(consts, cold, hot, tau_c, tau_h):
        calls.append((consts[7] + consts[8], tau_c, tau_h))
        return solve(consts, cold, hot, tau_c, tau_h)

    def recording(trial, x, box, tally, start, **options):
        first, counted, state = len(calls), tally.evaluations, tally.paused
        result = search(trial, x, box, tally, start, **options)
        made = calls[first:]
        assert len(made) == tally.evaluations - counted
        (searches if state is None else resumed).append((state, tally.paused, made))
        return result

    monkeypatch.setattr(ottofridge.cycle, "_fixed_point", counting)
    monkeypatch.setattr(ottofridge.scaling, "search_isochore_times", recording)
    evaluations = count_evaluations(monkeypatch)
    spec = small_sweep("exponential", t_max=1e-1, t_min=1e-1 * 10**-0.05,
                       allocation="searched")
    (row,) = temperature_sweep(spec).rows
    assert row.flag == 1
    assert evaluations == [len(searches)]
    assert len(calls) == len(set(calls)) == sum(
        len(made) for *_, made in searches + resumed)
    for _, _, made in searches:
        adiabats = made[0][0]
        z = solve_isochore_z(spec.gamma, spec.gamma, adiabats)
        assert made[0] == (adiabats, z.tau_c, z.tau_h)
    ((state, paused, made),) = resumed
    assert paused is None and sum(s is state for _, s, _ in searches) == 1
    assert {adiabats for adiabats, *_ in made} == {2.0 * row.tau_hc}
    assert len(records) <= 2 * len(searches) < len(calls)


def chain_bits(record):
    """The numbers of a record's chain, bit for bit: its branch maps, M, k,
    the LU factors and the chain vectors as float.hex strings, and the
    pivot order."""
    _, maps, m, k, lu, vs = record.chain
    numbers = (*(x for branch in maps for x in branch), *m, *k, *lu[1:],
               *(x for v in vs for x in v))
    return [x.hex() for x in numbers] + [lu[0]]


# the searched kinds with each allocation, and with the omega_c search
ROW_OPTIONS = pytest.mark.parametrize("options", [
    *(dict(kind=kind, allocation=allocation)
      for kind in ("linear", "exponential") for allocation in ("z", "searched")),
    dict(kind="linear", allocation="searched", optimize_omega_c=True),
], ids=lambda options: "-".join(v if isinstance(v, str) else k for k, v in options.items()))


def fresh(cycle):
    """``cycle`` with its two ramps built again, as new Schedules that carry
    no map."""
    build = getattr(Schedule, cycle.expansion.kind)
    return replace(cycle, expansion=build(cycle.omega_h, cycle.omega_c, cycle.expansion.duration),
                   compression=build(cycle.omega_c, cycle.omega_h, cycle.compression.duration))


@ROW_OPTIONS
def test_one_record_per_sweep_row(monkeypatch, options):
    # a sweep point builds one CycleRecord, its winner's, however many
    # cycles its duration searches and isochore-time searches solved; that
    # record is limit_cycle's for the row's cycle, float for float, also
    # with the ramps built again (their maps of their own builds, not the
    # maps the sweep attached)
    records = record_ledgers(monkeypatch)
    spec = small_sweep(t_max=1e-1, t_min=1e-2, points_per_decade=1, **options)
    rows = temperature_sweep(spec).rows
    assert len(records) == len(rows) == 2 and all(r.flag == 1 for r in rows)
    for row, record in zip(rows, list(records)):
        cycle = record.chain[0]
        _, expected = limit_cycle(cycle)
        assert record == expected and cycle == expected.chain[0]
        assert chain_bits(record) == chain_bits(expected)
        _, own = limit_cycle(fresh(cycle))
        assert own.chain[0].expansion._propagator is not cycle.expansion._propagator
        assert record == own and chain_bits(record) == chain_bits(own)
        assert (row.omega_c, row.tau_c, row.tau_h, row.r_c) == (
            cycle.omega_c, cycle.tau_c, cycle.tau_h, record.r_c)


@ROW_OPTIONS
def test_one_spec_and_two_schedules_per_sweep_row(monkeypatch, options):
    # a duration step builds no Schedule or CycleSpec: a row builds two
    # Schedules and one validated CycleSpec, its winner's, however many
    # steps its duration searches took
    built = []
    for cls in (CycleSpec, Schedule):
        def counting(self, check=cls.__post_init__):
            built.append(type(self).__name__)
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    spec = small_sweep(t_max=1e-1, t_min=1e-2, points_per_decade=1, **options)
    rows = temperature_sweep(spec).rows
    assert len(rows) == 2 and all(r.flag == 1 for r in rows)
    assert Counter(built) == {"CycleSpec": len(rows), "Schedule": 2 * len(rows)}


def random_ramp_cycles(kind: str):
    """40 random cycles on a ``kind`` ramp and its reverse, each as (spec,
    hot, cold, omega_h, omega_c, duration, base, bounds): a searched
    SweepSpec with the cycle's gamma, the cycle at its z-allocation and the
    box of a decade each way that a searched sweep point searches."""
    rng = np.random.default_rng(20 + len(kind))
    for _ in range(40):
        w_h = float(rng.uniform(5.0, 100.0))
        w_c = w_h / float(rng.uniform(1.5, 60.0))
        gamma, duration = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.05, 5.0))
        hot = BathSpec(float(rng.uniform(0.5, 3.0)), gamma)
        cold = BathSpec(float(rng.uniform(0.01, 1.0)), gamma)
        build = getattr(Schedule, kind)
        expansion, compression = build(w_h, w_c, duration), build(w_c, w_h, duration)
        spec = SweepSpec(kind, gamma=gamma, allocation="searched")  # its gamma and allocation
        tau = solve_isochore_z(gamma, gamma, 2.0 * duration).tau_c
        base = CycleSpec(hot, cold, w_h, w_c, expansion, compression, tau_c=tau, tau_h=tau)
        bounds = {"tau_c": (tau / 10.0, tau * 10.0), "tau_h": (tau / 10.0, tau * 10.0)}
        yield spec, hot, cold, w_h, w_c, duration, base, bounds


@pytest.mark.parametrize("kind", ["exponential", "linear"])
def test_sweep_search_is_optimize_time_allocation(kind):
    # a searched sweep point's allocation is optimize_time_allocation with
    # one restart over the same box, bit for bit, warnings and failures too
    outcomes = set()
    for spec, hot, cold, w_h, w_c, duration, base, bounds in random_ramp_cycles(kind):
        got, expected = [], []
        for run, out in ((lambda: trial_record(_ramp_step(spec, hot, cold, w_h, w_c)(duration)),
                          got),
                         (lambda: optimize_time_allocation(OptimizationSpec(
                             base=base, free=("tau_c", "tau_h"), bounds=bounds, restarts=1)),
                          expected)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out.append(run())
                except DOMAIN_ERRORS as exc:
                    out.append(f"{type(exc).__name__}: {exc}")
            out.append([str(w.message) for w in caught])
        if isinstance(expected[0], str):
            assert got == expected
            outcomes.add("failed")
            continue
        record, result = got[0], expected[0]
        cycle = record.chain[0]
        assert record == result.best_record and record.chain == result.best_record.chain
        assert (cycle.tau_c, cycle.tau_h) == (result.best_spec.tau_c, result.best_spec.tau_h)
        assert got[1] == expected[1]
        outcomes.add("cooling" if record.q_c > 0 else "heating")
    assert {"cooling", "heating"} <= outcomes


SEARCH_COUNTS = ("evaluations", "failures", "first_failure", "unconverged", "held")


@pytest.mark.parametrize("kind", ["exponential", "linear"])
def test_paused_search_resumes_to_the_uninterrupted_search(kind):
    # on the cycles of test_sweep_search_is_optimize_time_allocation, a
    # search paused at a gain of _SCORE_GAIN left and resumed with its tally
    # is the search run through: the same values and point, bit for bit,
    # the same trials in the same order and the same counts.  A paused
    # search is counted neither unconverged nor held, and its R_c is within
    # 2 _SCORE_GAIN of the end's (9.0e-10 the worst of the searched sweeps)
    outcomes = set()
    for *_, base, bounds in random_ramp_cycles(kind):
        trial, tau = isochore_trials(base), base.tau_c
        x = math.log(tau)
        box = [(name, math.log(lo), math.log(hi)) for name, (lo, hi) in bounds.items()]
        start = ((x, x), {"tau_c": tau, "tau_h": tau})
        whole, split = SearchTally(), SearchTally()
        expected = search_isochore_times(trial, (x, x), box, whole, start)
        got = score = search_isochore_times(trial, (x, x), box, split, start, pause=True)
        if split.paused is not None:
            assert (split.unconverged, split.held) == (0, 0)
            got = search_isochore_times(trial, (x, x), box, split, start)
            assert split.paused is None
            assert abs(score[1][0] - got[1][0]) <= 2 * _SCORE_GAIN * abs(got[1][0])
            outcomes.add("paused")
        else:
            outcomes.add("failed" if got[1] is None else "ran through")
        assert list(got[0].items()) == list(expected[0].items())
        assert (got[1] is None) == (expected[1] is None)
        if got[1] is not None:
            assert chain_bits(trial_record(got[1])) == chain_bits(trial_record(expected[1]))
        assert list(split.solved) == list(whole.solved)
        assert [getattr(split, name) for name in SEARCH_COUNTS] == [
            getattr(whole, name) for name in SEARCH_COUNTS]
    assert {"paused", "ran through"} <= outcomes


@pytest.mark.parametrize("kind", ["exponential", "linear"])
def test_searched_rows_are_the_full_tolerance_step(monkeypatch, kind):
    # the duration search ranks its steps by paused isochore-time searches
    # and then finishes the winner's: every row of the acceptance window is
    # the step at its duration searched to the full tolerance, bit for bit
    records = record_ledgers(monkeypatch)
    spec = SweepSpec(kind=kind, omega_h=100.0, t_hot=1.0, gamma=1.0, t_max=1e-1, t_min=1e-3,
                     points_per_decade=5, allocation="searched")
    rows = temperature_sweep(spec).rows
    assert len(records) == len(rows) and all(r.flag == 1 for r in rows)
    hot = BathSpec(spec.t_hot, spec.gamma)
    for row, record in zip(rows, list(records)):
        step = _ramp_step(spec, hot, BathSpec(row.t_c, spec.gamma), spec.omega_h, row.omega_c)
        full = trial_record(step(row.tau_hc))
        assert record == full and chain_bits(record) == chain_bits(full)


@pytest.mark.parametrize("kind", ["exponential", "linear"])
def test_z_allocation_is_solve_isochore_z_bit_for_bit(monkeypatch, kind):
    # a duration step allocates through the bare z-equation root, _z_root,
    # without solve_isochore_z's checks and dataclass: over log-uniform
    # conductances and durations the isochore times its trial is called
    # with are solve_isochore_z's tau_c, bit for bit, whether or not that
    # cycle then solves, and a product gamma tau that is not finite raises
    # solve_isochore_z's error
    called, make = [], ottofridge.scaling._trials

    def spying(*args):
        trial = make(*args)

        def spied(tau_c, tau_h):
            called.append((tau_c, tau_h))
            return trial(tau_c, tau_h)
        return spied

    monkeypatch.setattr(ottofridge.scaling, "_trials", spying)
    rng = np.random.default_rng(27 + len(kind))
    w_h, w_c = 50.0, 0.5
    for _ in range(200):
        gamma, tau = math.exp(rng.uniform(-25.0, 25.0)), math.exp(rng.uniform(-25.0, 25.0))
        hot, cold = BathSpec(1.0, gamma), BathSpec(0.1, gamma)
        try:
            _ramp_step(small_sweep(kind, gamma=gamma), hot, cold, w_h, w_c)(tau)
        except DOMAIN_ERRORS:
            pass
        alloc = solve_isochore_z(gamma, gamma, 2.0 * tau)
        assert called.pop() == (max(alloc.tau_c, 1e-12),) * 2 and not called
    for gamma, tau in ((1e300, 1e10), (1.0, 1.7e308)):
        hot, cold = BathSpec(1.0, gamma), BathSpec(0.1, gamma)
        with pytest.raises(ValueError) as expected:
            solve_isochore_z(gamma, gamma, 2.0 * tau)
        with pytest.raises(ValueError) as err:
            _ramp_step(small_sweep(kind, gamma=gamma), hot, cold, w_h, w_c)(tau)
        assert str(err.value) == str(expected.value) == "gamma_h * tau_adiabats must be finite"
    assert not called


def test_point_whose_z_product_underflows_is_a_failed_row():
    # Gamma = 5e-324 times the three-jump adiabat time at omega_h = 1e4 (both
    # ramps together about 7e-3) rounds to 0: the point's z-allocation
    # refuses it by name, and the sweep records a failed row
    spec = SweepSpec("three_jump", omega_h=1e4, t_hot=100.0, gamma=5e-324,
                     t_max=10.0, t_min=10.0 * 10**-0.05)
    (row,) = temperature_sweep(spec).rows
    assert row.flag == 0 and math.isnan(row.r_c)
    assert row.error == ("ValueError: gamma_h * tau_adiabats underflows to 0 with "
                         "tau_adiabats > 0")


@pytest.mark.parametrize("kind", ["linear", "exponential"])
def test_duration_step_refuses_what_its_schedule_builder_refuses(kind):
    # a duration step builds no Schedule, but refuses a duration that is not
    # finite and > 0 with the error the kind's Schedule builder raises for
    # it; at omega_h = inf the exponential builder's error is its rate's
    # domain error, and a sweep row keeps it
    spec = small_sweep(kind)
    hot, cold = BathSpec(spec.t_hot, spec.gamma), BathSpec(0.05, spec.gamma)
    for w_h, w_c, tau in ((50.0, 0.1, 0.0), (50.0, 0.1, -1.0), (50.0, 0.1, math.inf),
                          (50.0, 0.1, math.nan), (math.inf, 0.1, math.inf)):
        with pytest.raises(ValueError) as expected:
            getattr(Schedule, kind)(w_h, w_c, tau)
        with pytest.raises(type(expected.value)) as err:
            _ramp_step(spec, hot, cold, w_h, w_c)(tau)
        assert str(err.value) == str(expected.value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (row,) = temperature_sweep(small_sweep(kind, omega_h=math.inf, t_max=1e-1,
                                               t_min=1e-1 * 10**-0.05, points_per_decade=5)).rows
    assert row.flag == 0
    assert row.error == ("ValueError: math domain error" if kind == "exponential" else
                         "ScheduleError: schedule duration must be finite and >= 0")


def test_searched_point_keeps_a_z_start_that_beats_its_search(monkeypatch):
    # optimize_time_allocation's z-equation rule: a search that ends below
    # its z-start (here one made to stop at a corner of its box) gives way to
    # that start, in a sweep point as in optimize_time_allocation
    search = ottofridge.optimize.search_isochore_times

    def stops_at_a_corner(trial, x, box, tally, start, **options):
        search(trial, x, box, tally, start, **options)
        values = {"tau_c": math.exp(box[0][1]), "tau_h": math.exp(box[1][2])}
        return values, tally.solved.setdefault(
            (values["tau_c"], values["tau_h"]), trial(values["tau_c"], values["tau_h"]))

    monkeypatch.setattr(ottofridge.scaling, "search_isochore_times", stops_at_a_corner)
    monkeypatch.setattr(ottofridge.optimize, "search_isochore_times", stops_at_a_corner)
    spec = small_sweep("exponential", allocation="searched")
    hot, cold = BathSpec(spec.t_hot, spec.gamma), BathSpec(0.05, spec.gamma)
    w_h, w_c = spec.omega_h, spec.kind_kappa() * 0.05
    duration = math.log(w_h / w_c) / (0.3 * w_c)        # peak rate 0.3 w_c
    record = trial_record(_ramp_step(spec, hot, cold, w_h, w_c)(duration))
    cycle = record.chain[0]
    tau = solve_isochore_z(spec.gamma, spec.gamma, 2.0 * duration).tau_c
    assert (cycle.tau_c, cycle.tau_h) == (tau, tau)
    corner = math.exp(math.log(tau / 10.0)), math.exp(math.log(tau * 10.0))
    assert record.r_c > trial_record(isochore_trials(cycle)(*corner)).r_c
    result = optimize_time_allocation(OptimizationSpec(
        base=cycle, free=("tau_c", "tau_h"), restarts=1,
        bounds={"tau_c": (tau / 10.0, tau * 10.0), "tau_h": (tau / 10.0, tau * 10.0)}))
    assert result.best_record == record and result.best_values == {"tau_c": tau, "tau_h": tau}


def test_searched_point_agrees_with_the_squaring_oracle():
    # the winner of an exponential searched point is the fixed point that
    # repeated squaring of its cycle map reaches from the hot thermal state
    spec = SweepSpec("exponential", omega_h=100.0, t_hot=1.0, gamma=1.0,
                     t_max=1e-1, t_min=1e-3, allocation="searched")
    _, record = build_point(spec, 0.01)
    cycles, agreement = cross_check(record)
    assert cycles & (cycles - 1) == 0
    assert agreement <= 1e-10


def test_searched_allocations_are_verified_local_optima(monkeypatch):
    # every isochore-time search of the exponential acceptance window ends,
    # or once resumed ends, at a stationary point of ln R_c in the box, no
    # worse than its z-start, with no iteration cap reached (that would
    # warn, here an error); a search paused to score its duration stopped
    # within 2 _SCORE_GAIN of that end.  At most one resumption a row, and
    # at most 8 evaluations a search on average, resumptions included (5.3
    # measured; 6.3 before the pause, 16 with forward-difference probes);
    # one search per duration step, at most 16 steps a point on average
    # (15.2 measured; the golden section took 22)
    scoring, resumed = [], []
    search = ottofridge.scaling.search_isochore_times

    def recording(trial, x, box, tally, start, **options):
        state, counted = tally.paused, tally.evaluations
        values, point = search(trial, x, box, tally, start, **options)
        made = tally.evaluations - counted
        if state is None:
            scoring.append((start, point, tally.paused, made, (trial, x, box)))
        else:
            resumed.append(made)
        return values, point

    monkeypatch.setattr(ottofridge.scaling, "search_isochore_times", recording)
    evaluations = count_evaluations(monkeypatch)
    spec = SweepSpec(kind="exponential", omega_h=100.0, t_hot=1.0, gamma=1.0, t_max=1e-1,
                     t_min=1e-3, points_per_decade=5, allocation="searched")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = temperature_sweep(spec).rows
    assert all(r.flag == 1 for r in rows)
    assert len(evaluations) == len(rows) and sum(evaluations) == len(scoring)
    assert len(scoring) <= 16 * len(rows) and len(resumed) <= len(rows)
    assert sum(resumed) + sum(entry[3] for entry in scoring) <= 8 * len(scoring)
    for start, point, state, _, (trial, x, box) in scoring:
        end = point
        if state is not None:
            _, end = search(trial, x, box, SearchTally(paused=state), start)
            assert abs(point[0] - end[0]) <= 2 * _SCORE_GAIN * abs(end[0])
        record, z_times = trial_record(end), start[1]
        for name, g in zip(("tau_c", "tau_h"), isochore_time_derivatives(record)[0]):
            lo, hi = z_times[name] / 10.0, z_times[name] * 10.0
            tau = getattr(record.chain[0], name)
            held = (tau <= lo * (1 + 1e-15) and g < 0) or (tau >= hi * (1 - 1e-15) and g > 0)
            assert held or abs(g) <= 1e-10
        assert record.r_c >= limit_cycle(replace(record.chain[0], **z_times))[1].r_c


@pytest.mark.parametrize("points_per_decade, n_tail", [(1, 2), (2, 3)])
def test_coarse_sweep_keeps_its_rows_without_a_tail_fit(points_per_decade, n_tail):
    # eight decades at one or two points a decade leave fewer than 4 points
    # in the last decade: every row and the full fit survive, the tail fit
    # is skipped with a warning
    spec = SweepSpec(kind="three_jump", omega_h=100.0, t_max=1e-1, t_min=1e-9,
                     points_per_decade=points_per_decade)
    with pytest.warns(UserWarning, match=f"hold {n_tail} cooling points"):
        res = temperature_sweep(spec)
    assert len(res.rows) == 8 * points_per_decade + 1
    assert all(r.flag == 1 for r in res.rows)
    assert res.fit.n_used == len(res.rows)
    assert res.tail_fit is None


def test_sweep_fit_needs_enough_points():
    spec = small_sweep("three_jump", t_max=1e-1, t_min=3e-2, points_per_decade=8)
    res = temperature_sweep(spec)
    assert res.tail_fit is None          # under two decades: no tail fit
    assert res.fit is not None           # but enough points for a plain fit


def test_searched_kind_small_sweep():
    # exponential ramps on a cheap grid: cooling rows with a sane exponent
    spec = small_sweep("exponential", t_max=2e-1, t_min=2e-2)
    res = temperature_sweep(spec)
    assert all(r.flag == 1 for r in res.rows)
    assert res.fit is not None and 1.8 < res.fit.delta < 2.6
    assert all(r.sigma >= 0 for r in res.rows)


def test_three_jump_exponent_reaches_asymptote_at_deep_temperatures():
    # The z-equation isochore time grows like log(tau_adiabat) while the
    # bang-bang adiabat time grows as T^(-1/2), so the cooling-rate exponent
    # approaches 3/2 from below and only settles once the adiabats dominate
    # the period: at omega_h = 100, Gamma = 1 that happens below T ~ 1e-5.
    local = []
    for t_max, t_min in ((1e-1, 1e-3), (1e-3, 1e-5), (1e-5, 1e-7)):
        spec = SweepSpec(kind="three_jump", omega_h=100.0, t_hot=1.0, gamma=1.0,
                         t_max=t_max, t_min=t_min, points_per_decade=5,
                         tail_decades=1.0)
        local.append(temperature_sweep(spec).tail_fit.delta)
    assert local[0] < local[1] < local[2] < 1.5
    assert local[2] == pytest.approx(1.5, abs=0.1)


@pytest.fixture(scope="module")
def deep_tail_sweeps():
    # z-allocated frictionless sweeps at omega_h = 100, one point a decade
    # from T_c = 1e-1 down to 1e-12 (a few ms each)
    return {kind: temperature_sweep(SweepSpec(kind=kind, omega_h=100.0, t_max=1e-1,
                                              t_min=1e-12, points_per_decade=1,
                                              tail_decades=3.0)).rows
            for kind in ("three_jump", "const_mu")}


@pytest.mark.parametrize("kind, delta, tol", [("three_jump", 1.5, 1e-3), ("const_mu", 2.0, 2e-3)])
def test_deep_tail_slope_reaches_the_asymptote(deep_tail_sweeps, kind, delta, tol):
    # the per-decade slope of R_c rises through every decade and ends within
    # tol of the asymptotic exponent between 1e-11 and 1e-12
    rows = deep_tail_sweeps[kind]
    assert all(r.flag == 1 for r in rows)
    slopes = [math.log(a.r_c / b.r_c) / math.log(a.t_c / b.t_c) for a, b in zip(rows, rows[1:])]
    assert slopes == sorted(slopes)
    assert abs(slopes[-1] - delta) <= tol


@pytest.mark.parametrize("kind", ["three_jump", "const_mu"])
def test_deep_tail_heat_approaches_the_cold_thermal_quantum(deep_tail_sweeps, kind):
    # Q_c / (omega_c n_eq(omega_c, T_c)) rises monotonically to within 1e-4
    # of 1: deep in the tail a cycle takes the cold mode's whole occupation
    ratios = [r.q_c / (r.omega_c * equilibrium_state(r.omega_c, BathSpec(r.t_c, 1.0))[0])
              for r in deep_tail_sweeps[kind]]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert 1.0 - 1e-4 <= ratios[-1] <= 1.0


def test_ledger_tail_fit_is_criterion_01_three_jump_delta():
    # the closed-form ledger's R_c of each row's cycle, fitted as criterion 01
    # fits the acceptance sweep, gives the sweep's own three-jump delta
    spec = SweepSpec(kind="three_jump", omega_h=100.0, t_hot=1.0, gamma=1.0, t_max=1e-1,
                     t_min=1e-3, points_per_decade=5, tail_decades=1.0)
    ledger = [(t, frictionless_ledger(build_point(spec, t)[0])[3]) for t in spec.grid]
    delta = temperature_sweep(spec).tail_fit.delta
    assert abs(fit_power_law(ledger, tail_decades=1.0).delta - delta) <= 1e-12
    assert delta == pytest.approx(1.2382, abs=5e-5)


def test_linear_tail_slope_is_three():
    # the linear ramp's duration (omega_h - omega_c) / (param omega_c^2)
    # has param fixed by the duration search and Q_c / T_c is constant in
    # the tail, so each decade's slope of R_c from 1e-2 to 1e-6 is 3 (z
    # allocation): the search follows the envelope from row to row
    spec = SweepSpec(kind="linear", omega_h=100.0, t_max=1e-2, t_min=1e-6,
                     points_per_decade=1)
    rows = temperature_sweep(spec).rows
    assert len(rows) == 5 and all(r.flag == 1 for r in rows)
    slopes = [math.log(a.r_c / b.r_c) / math.log(a.t_c / b.t_c) for a, b in zip(rows, rows[1:])]
    assert all(abs(slope - 3.0) <= 1e-3 for slope in slopes)


def test_linear_sweep_past_the_bessel_limit_is_a_failed_point():
    # omega_h = 100, z allocation: the winning ramp's zeta_h is 6.8e14 at
    # T_c = 1e-6, where R_c still follows T_c^3, and past 2^51 at 1e-7, where
    # the point used to come out as noise
    spec = SweepSpec(kind="linear", omega_h=100.0, t_max=1e-5, t_min=1e-7,
                     points_per_decade=1)
    first, second, third = temperature_sweep(spec).rows
    assert first.flag == second.flag == 1
    assert math.log10(first.r_c / second.r_c) == pytest.approx(3.0, abs=1e-4)
    assert third.flag == 0 and "Bessel argument" in third.error


@pytest.mark.parametrize("allocation", ["z", "searched"])
def test_linear_point_past_the_bessel_limit_keeps_its_error(allocation, monkeypatch):
    # at T_c = 1e-8 every duration step's ramp passes zeta = 2^51: the row
    # fails with the BranchError its expansion's build raises, in z and in
    # searched allocation (where each failed search start is also warned of)
    spec = SweepSpec(kind="linear", omega_h=100.0, t_max=1e-6, t_min=1e-8,
                     points_per_decade=1, allocation=allocation)
    evaluations = count_evaluations(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = temperature_sweep(spec).rows
    assert [r.t_c for r in rows] == list(spec.grid) and rows[0].flag == 1
    last = rows[-1]
    assert last.t_c == 1e-8 and last.flag == 0 and math.isnan(last.r_c)
    assert last.error.startswith("BranchError: propagation failed on branch 'expansion': "
                                 "linear ramp Bessel argument ")
    failed_starts = [w for w in caught if "objective evaluations failed" in str(w.message)]
    if allocation == "z":
        assert failed_starts == []
    else:
        assert len(failed_starts) >= evaluations[-1]      # every step of the last point
        assert all("BranchError: propagation failed on branch 'expansion'" in str(w.message)
                   for w in failed_starts)


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_point_refuses_a_cold_frequency_its_duration_cannot_use(kind):
    # omega_c = 0 is refused once per point, before any duration is formed
    # (three-jump with its own error); so is a ramp whose rate, param omega_c
    # or param omega_c^2 at the low end of the duration bracket, underflows
    # to 0.  Just above that the steps' durations overflow, and each step
    # refuses its own.
    spec = SweepSpec(kind=kind)
    error = ValueError if kind == "three_jump" else ScheduleError
    with pytest.raises(error, match="^(schedule )?frequencies must be positive$"):
        build_point(spec, 0.05, omega_c=0.0)
    if kind in ("three_jump", "const_mu"):
        return
    underflow, above = {"linear": (1e-161, 2e-161), "exponential": (5e-324, 1.5e-322)}[kind]
    with pytest.raises(ScheduleError, match=f"the {kind} ramp's rate underflows to 0"):
        build_point(spec, 0.05, omega_c=underflow)
    with pytest.raises(ValueError) as err:
        build_point(spec, 0.05, omega_c=above)
    assert "underflows" not in str(err.value)
    if kind == "linear":
        rows = temperature_sweep(SweepSpec(kind="linear", t_max=1e-164, t_min=1e-165,
                                           points_per_decade=1)).rows
        assert [r.flag for r in rows] == [0, 0]
        assert all(r.error.startswith("ScheduleError: omega_c = ") and
                   r.error.endswith("is too small: the linear ramp's rate underflows to 0")
                   for r in rows)


@pytest.mark.parametrize("options", [
    *(dict(kind=kind, allocation=allocation)
      for kind in SWEEP_KINDS for allocation in ("z", "searched")),
    dict(kind="three_jump", optimize_omega_c=True),
], ids=lambda options: "-".join(v if isinstance(v, str) else k for k, v in options.items()))
def test_sweep_kernel_runs_on_python_floats(monkeypatch, options):
    # the grid's T_c, and with it omega_c, every branch map, M, the LU
    # factors and the ledger, are Python floats, never numpy scalars: in
    # every record built and in every fixed point solved, a search trial's
    # included
    records, points = record_ledgers(monkeypatch), []
    solve = ottofridge.cycle._fixed_point

    def recording(*args):
        points.append(solve(*args))
        return points[-1]

    monkeypatch.setattr(ottofridge.cycle, "_fixed_point", recording)
    spec = small_sweep(t_max=1e-1, t_min=1e-2, points_per_decade=1, **options)
    assert all(type(t) is float for t in spec.grid)
    rows = temperature_sweep(spec).rows
    assert len(rows) == 2 and all(r.flag == 1 for r in rows)
    assert records and len(points) >= len(records)
    for record in records + [trial_record(point) for point in points]:
        assert non_float_entries(record) == []


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_build_point_takes_numpy_scalars_as_floats(monkeypatch, kind):
    records = record_ledgers(monkeypatch)
    spec = small_sweep(kind)
    cycle, record = build_point(spec, np.float64(0.05))
    assert type(cycle.cold_bath.temperature) is float and type(cycle.omega_c) is float
    cycle, record = build_point(spec, np.float64(0.05), omega_c=np.float64(0.06))
    assert type(cycle.cold_bath.temperature) is float and cycle.omega_c == 0.06
    assert records
    for each in records:
        assert non_float_entries(each) == []
    assert record.r_c == build_point(spec, 0.05, omega_c=0.06)[1].r_c


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(kind="warp")
    with pytest.raises(ValueError):
        SweepSpec(kind="linear", t_max=0.1, t_min=0.2)
    with pytest.raises(ValueError):
        SweepSpec(kind="linear", gamma=-1.0)
    # what the CLI refuses while reading a config, the library refuses too:
    # these used to run, to all-failed rows or a tail window of -1 decades
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^kappa must be finite and > 0"):
            SweepSpec(kind="three_jump", kappa=bad)
        with pytest.raises(ValueError, match=r"^tail_decades must be finite and > 0"):
            SweepSpec(kind="three_jump", tail_decades=bad)
    assert SweepSpec(kind="three_jump", kappa=None).kind_kappa() == \
        SweepSpec(kind="three_jump").kind_kappa()
    grid = SweepSpec(kind="three_jump", t_max=1.0, t_min=1e-2,
                     points_per_decade=5, omega_h=100.0).grid
    assert len(grid) == 11
    assert np.all(np.diff(grid) < 0)
