"""Cycle assembly, limit-cycle solver and thermodynamic bookkeeping."""

import dataclasses
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from oracles import cross_check, frictionless_ledger, propagator_matrix

import ottofridge.cycle
import ottofridge.dynamics
from ottofridge.cycle import (
    DOMAIN_ERRORS,
    BranchError,
    CycleRecord,
    CycleSpec,
    NoContractionError,
    _adiabat_flat,
    _branch_maps,
    _compose,
    _lu,
    _lu_solve,
    _time_gradient,
    _time_hessian,
    equilibration_bound,
    isochore_time_derivatives,
    isochore_trials,
    limit_cycle,
    run_one_cycle,
    trial_record,
)
from ottofridge.dynamics import (
    BathSpec,
    StateVector,
    isochore_scalars,
    observables,
    propagate,
    propagate_isochore,
    schedule_propagator,
)
from ottofridge.optimize import _ga_candidate_spec, solve_isochore_z
from ottofridge.schedules import Schedule, build_three_jump, critical_mu

KAPPA_32 = 0.87421746579871708


def frictionless_spec(omega_h=10.0, omega_c=1.0, t_h=2.0, t_c=0.5, gamma=1.0,
                      tau_c=None, tau_h=None, kind="three_jump"):
    hot, cold = BathSpec(t_h, gamma), BathSpec(t_c, gamma)
    if kind == "three_jump":
        expansion = build_three_jump(omega_h, omega_c)
        compression = build_three_jump(omega_c, omega_h)
    else:
        mu_star, _ = critical_mu(omega_h / omega_c, omega_h=omega_h)
        expansion = Schedule.const_mu(omega_h, omega_c, mu_star)
        compression = Schedule.const_mu(omega_c, omega_h, -mu_star)
    if tau_c is None:
        alloc = solve_isochore_z(gamma, gamma, expansion.duration + compression.duration)
        tau_c, tau_h = alloc.tau_c, alloc.tau_h
    return CycleSpec(hot, cold, omega_h, omega_c, expansion, compression,
                     tau_c=tau_c, tau_h=tau_h)


def cycle_map(spec):
    """The one-cycle map (M, k) of limit_cycle's float core, as numpy arrays."""
    m, k = _compose(_branch_maps(spec))
    return np.array(m).reshape(3, 3), np.array(k)


def count_dgeev(monkeypatch):
    """A list that collects the matrix of every LAPACK dgeev call."""
    calls = []
    dgeev = scipy.linalg.lapack.dgeev

    def counting(*args, **kwargs):
        calls.append(args[0])
        return dgeev(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgeev", counting)
    return calls


def record_ledgers(monkeypatch):
    """A list that collects every CycleRecord the limit-cycle core builds."""
    records = []
    ledger = ottofridge.cycle._ledger

    def recording(*args, **kwargs):
        records.append(ledger(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(ottofridge.cycle, "_ledger", recording)
    return records


def non_float_entries(record):
    """The parts of a record's kernel numbers that hold anything but a Python
    float: its branch maps, M, k, the LU factors (the pivot order aside), the
    chain vectors, q_c and r_c."""
    _, maps, m, k, lu, vs = record.chain
    parts = {"maps": [x for branch in maps for x in branch], "m": m, "k": k,
             "lu": lu[1:] if lu is not None else (), "chain": [x for v in vs for x in v],
             "q_c": (record.q_c,), "r_c": (record.r_c,)}
    return sorted(name for name, xs in parts.items() if any(type(x) is not float for x in xs))


def random_spec(rng):
    omega_h = math.exp(rng.uniform(math.log(2.0), math.log(60.0)))
    ratio = math.exp(rng.uniform(math.log(1.5), math.log(30.0)))
    omega_c = omega_h / ratio
    t_h = rng.uniform(0.5, 2.0)
    t_c = rng.uniform(0.05, 0.8) * t_h
    gamma = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
    kind = rng.choice(["three_jump", "const_mu", "sudden", "linear"])
    if kind == "three_jump":
        expansion = build_three_jump(omega_h, omega_c)
        compression = build_three_jump(omega_c, omega_h)
    elif kind == "const_mu":
        mu = -math.exp(rng.uniform(math.log(0.2), math.log(3.0)))
        expansion = Schedule.const_mu(omega_h, omega_c, mu)
        compression = Schedule.const_mu(omega_c, omega_h, -mu)
    elif kind == "sudden":
        expansion = Schedule.piecewise(omega_h, omega_c, [])
        compression = Schedule.piecewise(omega_c, omega_h, [])
    else:
        tau = rng.uniform(0.2, 3.0)
        expansion = Schedule.linear(omega_h, omega_c, tau)
        compression = Schedule.linear(omega_c, omega_h, tau)
    tau_c = rng.uniform(0.5, 4.0) / gamma
    tau_h = rng.uniform(0.5, 4.0) / gamma
    return CycleSpec(BathSpec(t_h, gamma), BathSpec(t_c, gamma), omega_h, omega_c,
                     expansion, compression, tau_c=tau_c, tau_h=tau_h)


# ---------------------------------------------------------------------------
# run_one_cycle
# ---------------------------------------------------------------------------

def test_zero_time_cycle_is_identity():
    w = 5.0
    idle = Schedule.piecewise(w, w, [])
    spec = CycleSpec(BathSpec(2.0, 1.0), BathSpec(0.5, 1.0), w, w, idle, idle,
                     tau_c=0.0, tau_h=0.0)
    st = StateVector(3.0, 0.4, -0.2, w)
    out, record = run_one_cycle(spec, st)
    np.testing.assert_allclose(out.as_array(), st.as_array(), rtol=0, atol=0)
    assert record.q_c == 0.0 and record.q_h == 0.0 and record.w == 0.0


def test_full_equilibration_heat_matches_bound():
    spec = frictionless_spec(tau_c=60.0, tau_h=60.0)
    _, record = limit_cycle(spec)
    assert record.q_c == pytest.approx(equilibration_bound(spec), rel=1e-6)


def test_one_cycle_matches_affine_composition():
    spec = frictionless_spec(tau_c=1.3, tau_h=0.7)

    def isochore(omega, bath, t):
        d, dc, ds, b0, _ = isochore_scalars(omega, bath, t)
        return np.array([[d, 0.0, 0.0], [0.0, dc, -ds], [0.0, ds, dc]]), np.array([b0, 0.0, 0.0])

    maps = [(propagator_matrix(spec.expansion), np.zeros(3)),
            isochore(spec.omega_c, spec.cold_bath, spec.tau_c),
            (propagator_matrix(spec.compression), np.zeros(3)),
            isochore(spec.omega_h, spec.hot_bath, spec.tau_h)]
    m_tot, k_tot = np.eye(3), np.zeros(3)
    for a, b in maps:
        m_tot = a @ m_tot
        k_tot = a @ k_tot + b
    m_ext, k_ext = cycle_map(spec)
    np.testing.assert_allclose(m_ext, m_tot, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(k_ext, k_tot, rtol=1e-12, atol=1e-14)

    rng = np.random.default_rng(0)
    for _ in range(5):
        st = StateVector.from_occupation(spec.omega_h, rng.uniform(0, 3))
        out, _ = run_one_cycle(spec, st)
        np.testing.assert_allclose(out.as_array(), m_ext @ st.as_array() + k_ext,
                                   rtol=1e-12, atol=1e-13)


def leg_specs():
    """Three-jump, exponential and linear refrigerators, three isochore-time pairs each."""
    hot, cold = BathSpec(2.0, 1.0), BathSpec(0.5, 1.0)
    specs = [frictionless_spec(tau_c=tau_c, tau_h=tau_h)
             for tau_c, tau_h in ((1.3, 0.7), (0.4, 2.2), (3.1, 0.25))]
    for build, durations in ((Schedule.exponential, (0.7, 2.5)), (Schedule.linear, (1.1, 4.0))):
        for tau_c, tau_h in ((1.3, 0.7), (0.6, 1.9), (2.4, 0.35)):
            specs.append(CycleSpec(hot, cold, 10.0, 1.0, build(10.0, 1.0, durations[0]),
                                   build(1.0, 10.0, durations[1]), tau_c=tau_c, tau_h=tau_h))
    return specs


def test_isochore_trials_are_limit_cycle_records():
    # the record of a search trial's fixed point is limit_cycle's on the
    # CycleSpec with those times, bit for bit: the spec, the maps, M, k, the
    # LU factors, the chain and the ledger; and a trial fails where
    # limit_cycle fails, with its message
    for spec in leg_specs():
        trial = isochore_trials(spec)
        for tau_c, tau_h in ((spec.tau_c, spec.tau_h), (0.05, 7.0), (4.5, 1e-3)):
            record = trial_record(trial(tau_c, tau_h))
            _, expected = limit_cycle(replace(spec, tau_c=tau_c, tau_h=tau_h))
            assert record == expected and record.chain == expected.chain
            assert vars(record.chain[0]) == vars(expected.chain[0])
    spec = leg_specs()[0]
    with pytest.raises(ValueError, match="must be > 0"):
        isochore_trials(spec)(0.0, 1.0)
    beyond = Schedule.linear(10.0, 1.0, 2.0**53)       # zeta past the Bessel limit
    spec = CycleSpec(spec.hot_bath, spec.cold_bath, 10.0, 1.0, beyond,
                     Schedule.linear(1.0, 10.0, 1.0), tau_c=1.0, tau_h=1.0)
    with pytest.raises(BranchError) as expected:
        limit_cycle(spec)
    trial = isochore_trials(spec)
    for _ in range(2):
        with pytest.raises(BranchError) as err:
            trial(1.0, 1.0)
        assert str(err.value) == str(expected.value)


def trial_examples():
    """One cycle for each way a trial can end: a map the max-norm does not
    certify (dgeev runs), a cycle that heats the cold bath, a radius at the
    contraction limit and an adiabat past the Bessel limit."""
    beyond = Schedule.linear(10.0, 1.0, 2.0**53)
    return {"uncertified": frictionless_spec(tau_c=3e-6, tau_h=3e-6),
            "heating": frictionless_spec(t_c=0.1, tau_c=0.5, tau_h=2.0),
            "no_contraction": frictionless_spec(tau_c=1e-11, tau_h=1e-11),
            "branch": replace(frictionless_spec(tau_c=1.0, tau_h=1.0), expansion=beyond,
                              compression=Schedule.linear(1.0, 10.0, 1.0))}


@st.composite
def trial_spec(draw):
    """A cycle of any of the four sweep kinds with isochore times from 1e-11
    to 10 over its bath's conductance: cooling and heating cycles, certified
    and uncertified maps, and maps at the contraction limit."""
    omega_h = draw(st.floats(2.0, 60.0))
    omega_c = omega_h / draw(st.floats(1.2, 30.0))
    t_h = draw(st.floats(0.5, 2.0))
    hot = BathSpec(t_h, draw(st.floats(0.3, 3.0)))
    cold = BathSpec(draw(st.floats(0.02, 0.9)) * t_h, draw(st.floats(0.3, 3.0)))
    kind = draw(st.sampled_from(["three_jump", "const_mu", "linear", "exponential"]))
    if kind == "three_jump":
        expansion = build_three_jump(omega_h, omega_c)
        compression = build_three_jump(omega_c, omega_h)
    elif kind == "const_mu":
        mu = -draw(st.floats(0.2, 3.0))
        expansion = Schedule.const_mu(omega_h, omega_c, mu)
        compression = Schedule.const_mu(omega_c, omega_h, -mu)
    else:
        build = getattr(Schedule, kind)
        expansion = build(omega_h, omega_c, draw(st.floats(0.05, 3.0)))
        compression = build(omega_c, omega_h, draw(st.floats(0.05, 3.0)))
    tau_c, tau_h = (10.0 ** draw(st.floats(-11.0, 1.0)) / bath.conductance
                    for bath in (cold, hot))
    return CycleSpec(hot, cold, omega_h, omega_c, expansion, compression,
                     tau_c=tau_c, tau_h=tau_h)


def test_trial_examples_take_each_branch():
    cases = trial_examples()
    record = limit_cycle(cases["uncertified"])[1]
    m = record.chain[2]
    assert max(abs(m[i]) + abs(m[i + 1]) + abs(m[i + 2]) for i in (0, 3, 6)) \
        > ottofridge.cycle._NORM_CERTIFICATE
    assert "spectral_radius" in vars(record)           # dgeev ran in the solve
    assert limit_cycle(cases["heating"])[1].q_c < 0.0
    with pytest.raises(NoContractionError):
        limit_cycle(cases["no_contraction"])
    with pytest.raises(BranchError):
        limit_cycle(cases["branch"])


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trial_spec())
@example(trial_examples()["uncertified"])
@example(trial_examples()["heating"])
@example(trial_examples()["no_contraction"])
@example(trial_examples()["branch"])
def test_trial_fixed_points_are_limit_cycle_records(spec):
    # a search trial's fixed point, from a base with other isochore times,
    # gives limit_cycle's record bit for bit, the radius dgeev computed in
    # the solve included; the search's derivative stages on it are
    # isochore_time_derivatives of that record bit for bit; and a trial
    # raises what limit_cycle raises, with its message
    trial = isochore_trials(replace(spec, tau_c=1.0, tau_h=1.0))
    with pytest.raises(ValueError, match="must be > 0"):
        trial(0.0, spec.tau_h)
    try:
        _, expected = limit_cycle(spec)
    except DOMAIN_ERRORS as exc:
        with pytest.raises(type(exc)) as err:
            trial(spec.tau_c, spec.tau_h)
        assert str(err.value) == str(exc)
        return
    point = trial(spec.tau_c, spec.tau_h)
    record = trial_record(point)
    assert repr(record) == repr(expected)       # bit for bit, a nan cop included
    assert record.chain == expected.chain
    assert vars(record.chain[0]) == vars(expected.chain[0])
    assert vars(record).get("spectral_radius") == vars(expected).get("spectral_radius")
    assert point[:3] == (expected.r_c, expected.q_c, expected.tau_total)
    if expected.q_c != 0.0:
        g, stage = _time_gradient(point)
        assert (g, _time_hessian(point, stage)) == isochore_time_derivatives(expected)


def test_propagate_isochore_is_the_cycle_isochore():
    # the state-level isochore applies the cycle's float map term for term
    legs = 0
    for spec in leg_specs():
        _, record = limit_cycle(spec)
        for leg, bath in zip(record.branches[1::2], (spec.cold_bath, spec.hot_bath)):
            out = propagate_isochore(leg.start, bath, leg.duration)
            assert (out.e_h, out.e_l, out.e_c, out.omega) == \
                (leg.end.e_h, leg.end.e_l, leg.end.e_c, leg.end.omega)
            legs += 1
    assert legs == 18


def test_propagate_is_the_cycle_adiabat():
    # the state-level adiabat applies the cycle's cached float map term for
    # term, on a schedule the cycle built and on an equal fresh one
    specs = leg_specs() + [frictionless_spec(kind="const_mu", tau_c=tau_c, tau_h=tau_h)
                           for tau_c, tau_h in ((1.3, 0.7), (0.4, 2.2), (3.1, 0.25))]
    legs = 0
    for spec in specs:
        _, record = limit_cycle(spec)
        for leg, schedule in zip(record.branches[0::2], (spec.expansion, spec.compression)):
            for sched in (schedule, replace(schedule)):
                out = propagate(leg.start, sched)
                assert (out.e_h, out.e_l, out.e_c, out.omega) == \
                    (leg.end.e_h, leg.end.e_l, leg.end.e_c, leg.end.omega)
            legs += 1
    assert legs == 24


def test_run_one_cycle_requires_hot_frequency():
    spec = frictionless_spec()
    with pytest.raises(ValueError):
        run_one_cycle(spec, StateVector.ground(spec.omega_c))


def test_cycle_spec_validation():
    hot, cold = BathSpec(2.0, 1.0), BathSpec(0.5, 1.0)
    exp, comp = build_three_jump(10.0, 1.0), build_three_jump(1.0, 10.0)
    with pytest.raises(ValueError):
        CycleSpec(hot, cold, 1.0, 10.0, exp, comp, 1.0, 1.0)      # inverted frequencies
    with pytest.raises(ValueError):
        CycleSpec(hot, cold, 10.0, 1.0, exp, comp, -1.0, 1.0)
    with pytest.raises(ValueError):
        CycleSpec(hot, cold, 10.0, 2.0, exp, comp, 1.0, 1.0)      # endpoint mismatch


# ---------------------------------------------------------------------------
# limit cycle
# ---------------------------------------------------------------------------

def test_limit_cycle_full_equilibration_is_hot_thermal():
    spec = frictionless_spec(tau_c=80.0, tau_h=80.0)
    state, record = limit_cycle(spec)
    hot_thermal = StateVector.thermal(spec.omega_h, spec.hot_bath)
    np.testing.assert_allclose(state.as_array(), hot_thermal.as_array(),
                               rtol=1e-12, atol=1e-12)
    cycles, agreement = cross_check(record)
    assert cycles == 1 and agreement <= 1e-10


def test_limit_cycle_direct_vs_iteration_on_random_specs():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        try:
            _, record = limit_cycle(random_spec(rng))
        except NoContractionError:
            continue
        assert cross_check(record)[1] <= 1e-10
        assert record.spectral_radius < 1.0
        checked += 1


def test_limit_cycle_fixed_point_is_stationary():
    spec = frictionless_spec(tau_c=1.1, tau_h=0.9)
    state, _ = limit_cycle(spec)
    again, _ = run_one_cycle(spec, state)
    gap = np.linalg.norm(again.as_array() - state.as_array())
    assert gap <= 1e-10 * np.linalg.norm(state.as_array())


def test_thermodynamic_laws_on_random_specs():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 60:
        try:
            spec = random_spec(rng)
            _, record = limit_cycle(spec)
        except NoContractionError:
            continue
        closure, sigma = record.laws()
        assert abs(closure) <= 1e-8 * max(abs(record.q_h), 1.0)
        assert sigma >= -1e-12
        assert record.q_c <= spec.cold_bath.temperature * (1 + 1e-12)
        checked += 1


def test_limit_cycle_iterations_are_powers_of_two():
    # the squaring oracle covers 2^j cycles; a slower contraction needs more
    counts = []
    for tau in (80.0, 3.0, 1.0, 0.3, 0.03, 1e-3):
        _, record = limit_cycle(frictionless_spec(tau_c=tau, tau_h=tau))
        cycles, agreement = cross_check(record)
        assert cycles & (cycles - 1) == 0
        assert agreement <= 1e-10
        counts.append(cycles)
    assert counts[0] == 1                       # full equilibration
    assert counts == sorted(counts) and counts[-1] > counts[1]


def test_spectral_radius_costs_at_most_one_dgeev_call(monkeypatch):
    calls = count_dgeev(monkeypatch)
    # ||M||_inf = 0.158 certifies contraction: dgeev runs when the radius is read
    spec = frictionless_spec(tau_c=1.1, tau_h=0.9)
    state, record = limit_cycle(spec)
    assert calls == []
    assert 0.0 < record.spectral_radius < 0.158 and len(calls) == 1
    assert replace(record).spectral_radius == record.spectral_radius and len(calls) == 2
    # ||M||_inf = 1.32 does not: limit_cycle runs dgeev and the record keeps its radius
    _, slow = limit_cycle(frictionless_spec(tau_c=1e-3, tau_h=1e-3))
    assert len(calls) == 3
    assert 0.99 < slow.spectral_radius < 1.0 and len(calls) == 3
    # a run_one_cycle record has no LU factors and no radius
    _, one = run_one_cycle(spec, state)
    assert math.isnan(one.spectral_radius) and len(calls) == 3


@pytest.mark.parametrize("tau", [3e-6, 1e-7, 1e-8])
def test_near_unit_spectral_radius_is_solved_directly(tau):
    # 1 - rho = 2 tau: far too slow a contraction for the squaring oracle's
    # cycle cap, yet below _RHO_LIMIT, so limit_cycle solves it; the direct
    # v_A is the 50-digit solve of the same float (M, k), and R_c the
    # frictionless closed form
    spec = frictionless_spec(tau_c=tau, tau_h=tau)
    state, record = limit_cycle(spec)
    _, _, m, k, _, _ = record.chain
    assert 1.0 - record.spectral_radius == pytest.approx(2.0 * tau, rel=1e-2)
    with pytest.raises(RuntimeError, match="did not converge"):
        cross_check(record)
    with mpmath.workdps(50):
        rows = mpmath.matrix([list(m[0:3]), list(m[3:6]), list(m[6:9])])
        exact = [float(x) for x in mpmath.lu_solve(mpmath.eye(3) - rows, mpmath.matrix(list(k)))]
    assert math.dist(state.as_array(), exact) <= 1e-15 * math.hypot(*exact)
    _, _, _, r_c = frictionless_ledger(spec)
    assert abs(record.r_c - r_c) <= 1e-7 * abs(r_c)


def test_spectral_radius_at_the_limit_is_no_contraction():
    # rho = 1 - 2e-10 >= _RHO_LIMIT = 1 - 1e-9: the one contraction rule
    with pytest.raises(NoContractionError,
                       match=r"spectral radius 0\.99999999\d* >= 0\.999999999; no limit cycle"):
        limit_cycle(frictionless_spec(tau_c=1e-10, tau_h=1e-10))


def test_direct_solve_agrees_with_squaring_on_certified_and_uncertified_maps():
    # ||M||_inf = 0.158 certifies contraction, ||M||_inf = 1.32 does not;
    # the direct solution is the squaring oracle's fixed point on both
    spec = frictionless_spec(tau_c=1.1, tau_h=0.9)
    state, record = limit_cycle(spec)
    assert cross_check(record) == (32, pytest.approx(0.0, abs=1e-10))
    assert record.residual <= 1e-14
    _, slow = limit_cycle(frictionless_spec(tau_c=1e-3, tau_h=1e-3))
    assert cross_check(slow) == (32768, pytest.approx(0.0, abs=1e-10))
    # a run_one_cycle record has no LU factors and so no diagnostics
    _, one = run_one_cycle(spec, state)
    assert math.isnan(one.residual) and math.isnan(one.spectral_radius)


@st.composite
def pivoted_i_minus_m(draw):
    """(p, M, b) with I - M = P^T L U well conditioned: row p[i] of I - M is
    row i of L U, |l_ij| < 1 so that partial pivoting picks exactly p, and U
    diagonally dominant."""
    p = tuple(draw(st.permutations((0, 1, 2))))
    unit = st.floats(-0.9, 0.9)
    l10, l20, l21 = draw(unit), draw(unit), draw(unit)
    u00, u11, u22 = (draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1.0, 2.0))
                     for _ in range(3))
    u01, u02, u12 = (0.4 * draw(unit) for _ in range(3))
    lu = np.array([[1.0, 0.0, 0.0], [l10, 1.0, 0.0], [l20, l21, 1.0]]) @ np.array(
        [[u00, u01, u02], [0.0, u11, u12], [0.0, 0.0, u22]])
    a = np.empty((3, 3))
    a[list(p)] = lu
    b = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(3))
    return p, tuple((np.eye(3) - a).ravel().tolist()), b


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(pivoted_i_minus_m())
def test_lu_solve_matches_numpy_for_every_pivot_order(case):
    p, m, b = case
    lu = _lu(m)
    assert lu[0] == p
    expected = np.linalg.solve(np.eye(3) - np.reshape(m, (3, 3)), b)
    got = np.array(_lu_solve(lu, b))
    assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


@pytest.mark.parametrize("i_minus_m, column", [
    (((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), 0),      # M = I
    (((2.0, 1.0, 1.0), (4.0, 2.0, 3.0), (8.0, 4.0, 5.0)), 1),      # column 1 = column 0 / 2
    (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)), 2),
])
def test_lu_of_singular_i_minus_m_raises(i_minus_m, column):
    m = tuple((np.eye(3) - np.array(i_minus_m)).ravel().tolist())
    with pytest.raises(np.linalg.LinAlgError, match=f"zero pivot in column {column}"):
        _lu(m)


def test_records_are_frozen_comparable_and_printable():
    # records and states are built without their dataclass __init__, yet
    # behave as if built through it
    spec = frictionless_spec(tau_c=1.3, tau_h=0.7)
    state, record = limit_cycle(spec)
    twin_state, twin = limit_cycle(spec)
    rebuilt = replace(record)                     # through CycleRecord.__init__
    assert twin == record == rebuilt and twin is not record
    assert repr(rebuilt) == repr(record) and repr(record).startswith("CycleRecord(q_c=")
    assert "chain" not in repr(record)
    assert replace(record, q_c=0.0) != record
    assert state == twin_state == StateVector(state.e_h, state.e_l, state.e_c, spec.omega_h)
    assert repr(state) == repr(replace(state))
    for frozen, name in ((record, "q_c"), (state, "e_h")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frozen, name, 1.0)
    assert isinstance(record, CycleRecord) and hash(state) == hash(twin_state)
    # branches: built on first read, kept, and equal to the rebuilt record's
    assert record.branches is record.branches
    assert record.branches == rebuilt.branches
    assert record.branches[0].start == state


def test_solver_states_equal_the_validated_states_of_their_numbers():
    # the solver builds its states without validation, yet each one compares
    # and hashes like the StateVector built from its numbers
    spec = frictionless_spec(tau_c=1.3, tau_h=0.7)
    state, record = limit_cycle(spec)
    one_cycle, _ = run_one_cycle(spec, state)
    states = [state, one_cycle] + [s for b in record.branches for s in (b.start, b.end)]
    for solved in states:
        checked = StateVector(solved.e_h, solved.e_l, solved.e_c, solved.omega)
        assert solved == checked and hash(solved) == hash(checked)
    assert len(set(states)) == len({(s.e_h, s.e_l, s.e_c, s.omega) for s in states})


def test_equilibrium_energies_come_from_the_branch_maps(monkeypatch):
    # at most one equilibrium_state call per bath in limit_cycle, none in the
    # derivatives: the isochore maps carry e_eq
    calls = []
    real = ottofridge.dynamics.equilibrium_state

    def counting(omega, bath):
        calls.append(omega)
        return real(omega, bath)

    monkeypatch.setattr(ottofridge.dynamics, "equilibrium_state", counting)
    monkeypatch.setattr(ottofridge.cycle, "equilibrium_state", counting)
    for spec in leg_specs():
        calls.clear()
        _, record = limit_cycle(spec)
        assert len(calls) <= 2
        calls.clear()
        isochore_time_derivatives(record)
        assert calls == []


def test_numpy_scalar_inputs_show_in_the_kernel_records(monkeypatch):
    # the float-purity tests' detector: a numpy omega_c reaches the branch
    # maps and from there every number of the cycle
    records = record_ledgers(monkeypatch)
    _, record = limit_cycle(frictionless_spec(omega_c=np.float64(1.0), t_c=np.float64(0.5)))
    assert records == [record]
    assert non_float_entries(record) == ["chain", "k", "lu", "m", "maps", "q_c", "r_c"]
    _, record = limit_cycle(frictionless_spec(t_c=0.5))
    assert non_float_entries(record) == []


def _count_propagator_builds(monkeypatch):
    built = []
    build = ottofridge.dynamics.schedule_propagator

    def counting(schedule):
        built.append(schedule)
        return build(schedule)

    monkeypatch.setattr("ottofridge.dynamics.schedule_propagator", counting)
    return built


def test_adiabat_propagator_built_once_per_schedule(monkeypatch):
    built = _count_propagator_builds(monkeypatch)
    spec = frictionless_spec(tau_c=1.0, tau_h=1.0)
    spec = replace(spec, expansion=Schedule.exponential(10.0, 1.0, 0.7),
                   compression=Schedule.exponential(1.0, 10.0, 0.9))
    for tau in np.linspace(0.5, 3.0, 12):
        limit_cycle(replace(spec, tau_c=float(tau), tau_h=1.1 * float(tau)))
    assert [id(s) for s in built] == [id(spec.expansion), id(spec.compression)]


def test_adiabat_propagator_is_read_only_and_per_instance(monkeypatch):
    built = _count_propagator_builds(monkeypatch)
    first = Schedule.linear(10.0, 1.0, 2.0)
    twin = Schedule.linear(10.0, 1.0, 2.0)
    assert first == twin and hash(first) == hash(twin)
    a = _adiabat_flat(first)
    assert _adiabat_flat(first) is a and first._propagator is a
    assert isinstance(a, tuple)             # read-only: a tuple cannot be written
    b = _adiabat_flat(twin)
    assert b is not a and len(built) == 2
    assert a == b and first == twin
    assert a == schedule_propagator(first)


@st.composite
def frictionless_ledger_spec(draw):
    """Three-jump or critical const-mu refrigerators with T_c from 1e-1 down to
    1e-12, independent isochore times and unequal conductances."""
    omega_h = draw(st.floats(10.0, 200.0))
    t_c = 10.0 ** draw(st.floats(-12.0, -1.0))
    omega_c = draw(st.floats(0.2, 3.0)) * t_c
    hot = BathSpec(draw(st.floats(0.5, 2.0)), draw(st.floats(0.3, 3.0)))
    cold = BathSpec(t_c, draw(st.floats(0.3, 3.0)))
    assume(hot.conductance != cold.conductance)
    if draw(st.booleans()):
        expansion = build_three_jump(omega_h, omega_c)
        compression = build_three_jump(omega_c, omega_h)
    else:
        mu_star, _ = critical_mu(omega_h / omega_c, omega_h=omega_h)
        expansion = Schedule.const_mu(omega_h, omega_c, mu_star)
        compression = Schedule.const_mu(omega_c, omega_h, -mu_star)
    return CycleSpec(hot, cold, omega_h, omega_c, expansion, compression,
                     tau_c=draw(st.floats(0.05, 5.0)) / cold.conductance,
                     tau_h=draw(st.floats(0.05, 5.0)) / hot.conductance)


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(frictionless_ledger_spec())
def test_frictionless_limit_cycle_is_the_closed_form_ledger(spec):
    _, record = limit_cycle(spec)
    for got, expected in zip((record.q_c, record.q_h, record.w, record.r_c),
                             frictionless_ledger(spec)):
        assert abs(got - expected) <= 1e-12 * abs(expected)


@st.composite
def any_kind_spec(draw):
    omega_h = draw(st.floats(2.0, 60.0))
    omega_c = omega_h / draw(st.floats(1.5, 30.0))
    t_h = draw(st.floats(0.5, 2.0))
    t_c = draw(st.floats(0.05, 0.8)) * t_h
    gamma = draw(st.floats(0.3, 3.0))
    kind = draw(st.sampled_from(["three_jump", "const_mu", "sudden", "linear", "exponential"]))
    if kind == "sudden":
        expansion = Schedule.piecewise(omega_h, omega_c, [])
        compression = Schedule.piecewise(omega_c, omega_h, [])
    elif kind == "three_jump":
        expansion = build_three_jump(omega_h, omega_c)
        compression = build_three_jump(omega_c, omega_h)
    elif kind == "const_mu":
        mu = -draw(st.floats(0.2, 3.0))
        expansion = Schedule.const_mu(omega_h, omega_c, mu)
        compression = Schedule.const_mu(omega_c, omega_h, -mu)
    else:
        build = getattr(Schedule, kind)
        expansion = build(omega_h, omega_c, draw(st.floats(0.05, 3.0)))
        compression = build(omega_c, omega_h, draw(st.floats(0.05, 3.0)))
    return CycleSpec(BathSpec(t_h, gamma), BathSpec(t_c, gamma), omega_h, omega_c,
                     expansion, compression, tau_c=draw(st.floats(0.2, 4.0)) / gamma,
                     tau_h=draw(st.floats(0.2, 4.0)) / gamma)


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(any_kind_spec())
def test_limit_cycle_properties_on_all_adiabat_kinds(spec):
    try:
        state, record = limit_cycle(spec)
    except NoContractionError:
        assume(False)
    # numpy oracles for the LAPACK-direct spectral radius and solve
    m, k = cycle_map(spec)
    rho = float(np.max(np.abs(np.linalg.eigvals(m))))
    assert abs(record.spectral_radius - rho) <= 1e-12 * rho
    v = np.linalg.solve(np.eye(3) - m, k)
    assert np.linalg.norm(state.as_array() - v) <= 1e-12 * np.linalg.norm(v)
    closure, sigma = record.laws()
    assert abs(closure) <= 1e-9 * max(abs(record.q_h), abs(record.w), 1.0)
    assert sigma >= -1e-12
    assert record.q_c <= spec.cold_bath.temperature * (1 + 1e-12)
    assert record.spectral_radius < 1.0
    cycles, agreement = cross_check(record)
    assert agreement <= 1e-10
    assert cycles & (cycles - 1) == 0
    # uncertainty bound X = (e_h^2 - e_l^2 - e_c^2) / omega^2 >= 1/4
    for branch in record.branches:
        for state in (branch.start, branch.end):
            assert observables(state).casimir >= 0.25 * (1.0 - 1e-9)


@st.composite
def ga_candidate_spec(draw):
    """A genetic-search candidate: a piecewise expansion of 2 or 3 segments
    drawn from the GA's gene box, its time reverse as the compression and
    z-allocated isochores."""
    omega_h = draw(st.floats(2.0, 60.0))
    omega_c = omega_h / draw(st.floats(1.5, 30.0))
    t_h, gamma = draw(st.floats(0.5, 2.0)), draw(st.floats(0.3, 3.0))
    base = CycleSpec(BathSpec(t_h, gamma), BathSpec(draw(st.floats(0.05, 0.8)) * t_h, gamma),
                     omega_h, omega_c, build_three_jump(omega_h, omega_c),
                     build_three_jump(omega_c, omega_h), tau_c=1.0, tau_h=1.0)
    genes = [draw(gene) for _ in range(draw(st.integers(2, 3)))
             for gene in (st.floats(omega_c, omega_h), st.floats(0.0, math.pi / omega_c))]
    return _ga_candidate_spec(base, np.array(genes))


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(any_kind_spec(), ga_candidate_spec()))
def test_max_norm_certifies_what_dgeev_would(spec):
    # rho(M) <= ||M||_inf, so a map within the certificate is one on which
    # dgeev's radius stays below _RHO_LIMIT; the record's lazy radius is
    # dgeev's on its M, bit for bit
    m, _ = _compose(_branch_maps(spec))
    norm = max(abs(m[i]) + abs(m[i + 1]) + abs(m[i + 2]) for i in (0, 3, 6))
    wr, wi, _, _, info = scipy.linalg.lapack.dgeev(np.reshape(m, (3, 3)))
    assert info == 0
    rho = max(map(math.hypot, wr.tolist(), wi.tolist()))
    assert rho <= norm * (1.0 + 1e-12)
    if norm <= ottofridge.cycle._NORM_CERTIFICATE:
        assert rho < ottofridge.cycle._RHO_LIMIT
    try:
        _, record = limit_cycle(spec)
    except NoContractionError:
        assert norm > ottofridge.cycle._NORM_CERTIFICATE
        return
    assert record.chain[2] == m
    assert record.spectral_radius == rho


@st.composite
def cooling_spec(draw):
    # a refrigerator of every adiabat kind in the sweeps' regime: omega_h / T_h
    # >= 5, omega_c = kappa T_c and ramps slow at the cold end (|mu| <= 0.5)
    t_h = draw(st.floats(0.5, 1.0))
    omega_h = draw(st.floats(5.0, 100.0)) * t_h
    t_c = t_h * 10.0 ** draw(st.floats(-2.5, -0.5))
    omega_c = draw(st.floats(0.5, 3.0)) * t_c
    gamma = draw(st.floats(0.3, 3.0))
    rate = draw(st.floats(0.02, 0.5))
    kind = draw(st.sampled_from(["three_jump", "piecewise_const", "const_mu", "linear",
                                 "exponential"]))
    if kind in ("three_jump", "piecewise_const"):
        # piecewise_const: a bang-bang protocol with mistimed holds
        stretch = 1.0 if kind == "three_jump" else draw(st.floats(0.8, 1.2))
        (w1, t1), (w2, t2) = build_three_jump(omega_h, omega_c).segments
        expansion = Schedule.piecewise(omega_h, omega_c, [(w1, stretch * t1), (w2, stretch * t2)])
        compression = Schedule.piecewise(omega_c, omega_h,
                                         [(w2, stretch * t2), (w1, stretch * t1)])
    elif kind == "const_mu":
        expansion = Schedule.const_mu(omega_h, omega_c, -rate)
        compression = Schedule.const_mu(omega_c, omega_h, rate)
    else:
        if kind == "linear":
            duration = (omega_h - omega_c) / (rate * omega_c * omega_c)
        else:
            duration = math.log(omega_h / omega_c) / (rate * omega_c)
        build = getattr(Schedule, kind)
        expansion = build(omega_h, omega_c, duration)
        compression = build(omega_c, omega_h, duration)
    return CycleSpec(BathSpec(t_h, gamma), BathSpec(t_c, gamma), omega_h, omega_c,
                     expansion, compression, tau_c=draw(st.floats(0.2, 4.0)) / gamma,
                     tau_h=draw(st.floats(0.2, 4.0)) / gamma)


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.one_of(any_kind_spec(), cooling_spec()))
def test_deferred_cross_check_is_sound_on_certified_maps(spec):
    # ||M^n||_inf <= 0.99^n on a certified map, so the squaring oracle
    # converges far below its cycle cap on the direct solution, and a
    # rebuilt record recomputes the same diagnostics from its chain
    m, _ = _compose(_branch_maps(spec))
    assume(max(abs(m[i]) + abs(m[i + 1]) + abs(m[i + 2]) for i in (0, 3, 6))
           <= ottofridge.cycle._NORM_CERTIFICATE)
    _, record = limit_cycle(spec)
    cycles, agreement = cross_check(record)
    assert cycles & (cycles - 1) == 0
    assert 1 <= cycles <= 2**13
    assert agreement <= 1e-10
    assert record.residual <= 1e-12
    rebuilt = replace(record)
    assert (rebuilt.residual, rebuilt.spectral_radius) == (
        record.residual, record.spectral_radius)


def central_difference(f, eps=1e-6):
    """f'(0) for a tuple-valued f: central differences at eps and eps/2,
    Richardson-extrapolated so that the truncation error is O(eps^4)."""
    wide = [(a - b) / (2.0 * eps) for a, b in zip(f(eps), f(-eps))]
    half = [(a - b) / eps for a, b in zip(f(0.5 * eps), f(-0.5 * eps))]
    return [(4.0 * h - w) / 3.0 for h, w in zip(half, wide)]


def assert_hessian_matches_gradient_differences(spec, hessian, eps=1e-6):
    # each column against central differences of the exact gradient in
    # ln tau, to 1e-6 of the Hessian's max-norm
    def grad(name, shift):
        return isochore_time_derivatives(limit_cycle(replace(
            spec, **{name: getattr(spec, name) * math.exp(shift)}))[1])[0]

    scale = max(abs(h) for row in hessian for h in row)
    for j, name in enumerate(("tau_c", "tau_h")):
        for i, fd in enumerate(central_difference(lambda s: grad(name, s), eps)):
            assert abs(hessian[i][j] - fd) <= 1e-6 * scale


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cooling_spec())
def test_isochore_time_gradient_matches_central_differences(spec):
    # d ln R_c / d ln tau from the fixed point's derivative against
    # extrapolated central differences of ln R_c at eps = 1e-6 in ln tau
    try:
        _, record = limit_cycle(spec)
    except NoContractionError:
        assume(False)
    assume(record.q_c > 0.0)
    grad = isochore_time_derivatives(record)[0]
    eps = 1e-6

    def ln_r_c(name, shift):
        return math.log(limit_cycle(replace(
            spec, **{name: getattr(spec, name) * math.exp(shift)}))[1].r_c)

    central = [central_difference(lambda s: (ln_r_c(name, s),), eps)[0]
               for name in ("tau_c", "tau_h")]
    scale = max(map(abs, grad))
    for exact, fd in zip(grad, central):
        assert abs(exact - fd) <= 1e-6 * scale


def test_isochore_time_gradient_without_cooling():
    # q_c < 0: the same formulas are the gradient and Hessian of ln |R_c|;
    # q_c = 0 has none
    # n_eq(omega_c, T_c) < n_eq(omega_h, T_h), isochore times off the optimum
    spec = frictionless_spec(t_c=0.1, tau_c=0.5, tau_h=2.0)
    _, record = limit_cycle(spec)
    assert record.q_c < 0.0
    eps = 1e-6

    def ln_abs_r_c(name, shift):
        return math.log(-limit_cycle(replace(
            spec, **{name: getattr(spec, name) * math.exp(shift)}))[1].r_c)

    grad, hessian = isochore_time_derivatives(record)
    for exact, name in zip(grad, ("tau_c", "tau_h")):
        central = (ln_abs_r_c(name, eps) - ln_abs_r_c(name, -eps)) / (2.0 * eps)
        assert abs(exact - central) <= 1e-6 * max(map(abs, grad))
    assert_hessian_matches_gradient_differences(spec, hessian)
    with pytest.raises(ValueError, match="q_c = 0"):
        isochore_time_derivatives(replace(record, q_c=0.0))


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cooling_spec())
def test_isochore_time_hessian_matches_central_differences_of_the_gradient(spec):
    # the exact Hessian of ln R_c in ln tau, symmetric, against extrapolated
    # central differences of the exact gradient at eps = 1e-6 in ln tau
    try:
        _, record = limit_cycle(spec)
    except NoContractionError:
        assume(False)
    assume(record.q_c > 0.0)
    _, hessian = isochore_time_derivatives(record)
    assert hessian[0][1] == hessian[1][0]
    assert_hessian_matches_gradient_differences(spec, hessian)


def test_no_contraction_without_bath_coupling():
    spec = frictionless_spec(tau_c=0.0, tau_h=0.0)
    with pytest.raises(NoContractionError):
        limit_cycle(spec)


def test_cooling_shutdown_under_sudden_expansion():
    # single instantaneous jump replaces the bang-bang protocol: as T_c -> 0
    # the frictional occupation excess exceeds n_c_eq and cooling stops
    q_values = []
    for t_c in (1.8, 1.2, 0.5, 0.1):
        spec = CycleSpec(
            BathSpec(2.0, 1.0), BathSpec(t_c, 1.0), 1.3, 1.0,
            Schedule.piecewise(1.3, 1.0, []),
            Schedule.piecewise(1.0, 1.3, []),
            tau_c=2.5, tau_h=2.5)
        _, record = limit_cycle(spec)
        q_values.append(record.q_c)
        assert record.sigma >= -1e-12
    assert q_values[0] > 0                      # warm cold bath: still cools
    assert all(q <= 0 for q in q_values[1:])    # shutdown as T_c drops


def test_friction_ordering_three_jump_linear_sudden():
    # more adiabat friction -> less heat extracted, all else equal
    base = frictionless_spec(omega_h=10.0, omega_c=2.0, t_h=1.0, t_c=0.45,
                             tau_c=2.0, tau_h=2.0)
    tau_adiabat = base.expansion.duration
    linear = replace(base,
                     expansion=Schedule.linear(10.0, 2.0, tau_adiabat),
                     compression=Schedule.linear(2.0, 10.0, tau_adiabat))
    sudden = replace(base,
                     expansion=Schedule.piecewise(10.0, 2.0, []),
                     compression=Schedule.piecewise(2.0, 10.0, []))
    q_frictionless = limit_cycle(base)[1].q_c
    q_linear = limit_cycle(linear)[1].q_c
    q_sudden = limit_cycle(sudden)[1].q_c
    assert q_frictionless >= q_linear >= q_sudden


def test_three_jump_pipeline_regression_baseline():
    # frozen pipeline outputs; loose tolerance guards against silent drift
    omega_c = KAPPA_32 * 0.1
    spec = frictionless_spec(omega_h=30.0, omega_c=omega_c, t_h=1.0, t_c=0.1)
    _, record = limit_cycle(spec)
    assert record.q_c > 0 and record.sigma > 0
    assert record.q_c == pytest.approx(0.03958639701214814, rel=1e-8)
    assert record.r_c == pytest.approx(0.009384070521030748, rel=1e-8)
    assert record.sigma == pytest.approx(3.1264348743185657, rel=1e-8)
    assert record.spectral_radius == pytest.approx(0.050646188872821844, rel=1e-8)


def test_cop_and_record_consistency():
    spec = frictionless_spec(tau_c=1.0, tau_h=1.0)
    _, record = limit_cycle(spec)
    assert record.cop == pytest.approx(record.q_c / record.w, rel=1e-12)
    assert record.r_c == pytest.approx(record.q_c / record.tau_total, rel=1e-12)
    assert record.tau_total == pytest.approx(
        sum(b.duration for b in record.branches), rel=1e-12)
    names = [b.name for b in record.branches]
    assert names == ["expansion", "cold_isochore", "compression", "hot_isochore"]
    # branch endpoints chain together
    for first, second in zip(record.branches, record.branches[1:]):
        assert first.end == second.start
