"""Unit tests of the state propagators against independent oracles."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.special import hankel1, jv, yv

from oracles import jump_matrix, propagate_adiabat_numeric, propagator_matrix, rk_matrix
import ottofridge.dynamics
from ottofridge.dynamics import (
    BathSpec,
    _LINEAR_ORDERS,
    _ZETA_MAX,
    _ZETA_MIN,
    StateVector,
    _bessel_fundamental,
    _linear_ramp_fundamental,
    adiabat_power,
    equilibrium_state,
    exponential_ramp_pair,
    linear_ramp_pair,
    observables,
    propagate,
    propagate_isochore,
    schedule_propagator,
)
from ottofridge.schedules import Schedule, ScheduleError, build_three_jump, critical_mu


def casimir(v, omega):
    return (v[0] ** 2 - v[1] ** 2 - v[2] ** 2) / omega**2


def random_state(rng, omega=None):
    """A random physical state: thermal-squeezed with bounded transverse part."""
    w = omega if omega is not None else math.exp(rng.uniform(math.log(0.2), math.log(50)))
    n = rng.uniform(0.0, 5.0)
    e_h = w * (n + 0.5)
    r = rng.uniform(0.0, 0.9) * math.sqrt(max(e_h**2 - (0.5 * w) ** 2, 0.0))
    ang = rng.uniform(0, 2 * math.pi)
    return StateVector(e_h, r * math.cos(ang), r * math.sin(ang), w)


# ---------------------------------------------------------------------------
# equilibrium_state / observables
# ---------------------------------------------------------------------------

def test_equilibrium_occupation_one():
    # exp(omega/T) = 2 at omega = T ln 2
    n, e = equilibrium_state(math.log(2.0) * 1.7, BathSpec(1.7, 1.0))
    assert n == pytest.approx(1.0, rel=1e-14)
    assert e == pytest.approx(math.log(2.0) * 1.7 * 1.5, rel=1e-14)


def test_equilibrium_bose_einstein_value():
    n, e = equilibrium_state(1.0, BathSpec(1.0, 1.0))
    assert n == pytest.approx(0.58197670686932642, rel=1e-14)
    assert e == pytest.approx(1.08197670686932642, rel=1e-14)


def test_equilibrium_ground_state_regime():
    n, e = equilibrium_state(100.0, BathSpec(1.0, 1.0))
    assert n == pytest.approx(math.exp(-100.0), abs=1e-45)
    assert e == pytest.approx(50.0, rel=1e-12)


def test_equilibrium_overflow_guard():
    n, e = equilibrium_state(800.0, BathSpec(1.0, 1.0))
    assert n == 0.0
    assert e == 400.0


def test_observables_thermal_and_ground():
    st = StateVector.from_occupation(2.0, 1.7)
    obs = observables(st)
    assert obs.occupation == pytest.approx(1.7, rel=1e-12)
    assert obs.invariant_occupation == pytest.approx(1.7, rel=1e-12)
    assert obs.energy_entropy == pytest.approx(obs.vn_entropy, rel=1e-12)

    ground = observables(StateVector.ground(3.0))
    assert ground.occupation == 0.0
    assert ground.invariant_occupation == 0.0
    assert ground.energy_entropy == 0.0
    assert ground.vn_entropy == 0.0


def test_observables_squeezed_example():
    obs = observables(StateVector(1.0, 0.6, 0.0, 1.0))
    assert obs.casimir == pytest.approx(0.64, rel=1e-14)
    assert obs.invariant_occupation == pytest.approx(0.3, rel=1e-12)
    assert obs.occupation == pytest.approx(0.5, rel=1e-12)
    assert obs.vn_entropy < obs.energy_entropy


def test_state_invariants_rejected():
    with pytest.raises(ValueError):
        StateVector(1.0, 2.0, 0.0, 1.0)          # Casimir violation
    with pytest.raises(ValueError):
        StateVector(0.2, 0.0, 0.0, 1.0)          # below ground floor
    with pytest.raises(ValueError):
        StateVector(1.0, 0.0, 0.0, -1.0)         # bad frequency


# ---------------------------------------------------------------------------
# isochore
# ---------------------------------------------------------------------------

def test_isochore_zero_time_identity():
    st = StateVector(3.0, 1.0, -0.5, 2.0)
    out = propagate_isochore(st, BathSpec(1.0, 0.5), 0.0)
    assert out == st


def test_isochore_long_time_equilibrium():
    bath = BathSpec(0.8, 1.0)
    st = StateVector(3.0, 1.0, -0.5, 2.0)
    out = propagate_isochore(st, bath, 150.0)
    _, e_eq = equilibrium_state(2.0, bath)
    assert out.e_h == pytest.approx(e_eq, rel=1e-12)
    assert abs(out.e_l) < 1e-12 and abs(out.e_c) < 1e-12


def test_isochore_half_life_half_turn():
    # Gamma*t = ln 2 halves the distance to equilibrium; 2*omega*t = pi flips (L, C)
    t = 1.3
    omega = math.pi / (2.0 * t)
    bath = BathSpec(0.7, math.log(2.0) / t)
    st = StateVector(2.5, 0.8, -0.3, omega)
    _, e_eq = equilibrium_state(omega, bath)
    out = propagate_isochore(st, bath, t)
    assert out.e_h - e_eq == pytest.approx(0.5 * (st.e_h - e_eq), rel=1e-12)
    assert out.e_l == pytest.approx(-0.5 * st.e_l, rel=1e-12)
    assert out.e_c == pytest.approx(-0.5 * st.e_c, rel=1e-12)


def test_isochore_matches_ode_oracle():
    bath = BathSpec(1.3, 0.5)
    omega, t = 2.0, 0.7
    st = StateVector(4.1, 1.2, -2.0, omega)
    _, e_eq = equilibrium_state(omega, bath)

    def rhs(_, v):
        g = bath.conductance
        return [-g * (v[0] - e_eq),
                -g * v[1] - 2 * omega * v[2],
                2 * omega * v[1] - g * v[2]]

    sol = solve_ivp(rhs, (0, t), st.as_array(), rtol=1e-12, atol=1e-14, method="DOP853")
    out = propagate_isochore(st, bath, t)
    np.testing.assert_allclose(out.as_array(), sol.y[:, -1], rtol=1e-10, atol=1e-12)


def test_isochore_contraction_norms():
    # |e_h - e_eq| and sqrt(e_l^2 + e_c^2) both decay; the transverse norm
    # decays exactly as exp(-Gamma t).
    bath = BathSpec(1.0, 0.8)
    st = StateVector(4.0, 1.5, 0.5, 1.7)
    _, e_eq = equilibrium_state(1.7, bath)
    prev_gap, prev_trans = abs(st.e_h - e_eq), math.hypot(st.e_l, st.e_c)
    for t in (0.3, 0.9, 2.1, 5.0):
        out = propagate_isochore(st, bath, t)
        gap, trans = abs(out.e_h - e_eq), math.hypot(out.e_l, out.e_c)
        assert gap <= prev_gap and trans <= prev_trans
        assert trans == pytest.approx(math.exp(-bath.conductance * t)
                                      * math.hypot(st.e_l, st.e_c), rel=1e-12)
        prev_gap, prev_trans = gap, trans
    assert propagate_isochore(StateVector.thermal(1.7, bath), bath, 2.0).e_h == \
        pytest.approx(e_eq, rel=1e-13)

    with pytest.raises(ValueError):
        propagate_isochore(st, bath, -0.1)


# ---------------------------------------------------------------------------
# constant-mu adiabat
# ---------------------------------------------------------------------------

def test_const_mu_identity_at_zero_span():
    st = StateVector(3.0, 1.0, -0.5, 2.0)
    sched = Schedule.const_mu(2.0, 2.0, -0.4)
    assert propagate(st, sched) == st and sched.duration == 0.0


def test_const_mu_sudden_limit_energy():
    # expansion of the hot ground state with |mu| -> infinity
    w_h, ratio = 7.0, 12.0
    w_c = w_h / ratio
    st = StateVector.ground(w_h)
    out = propagate(st, Schedule.const_mu(w_h, w_c, -1e6))
    expected = 0.25 * w_c * (ratio + 1.0 / ratio)
    assert out.e_h == pytest.approx(expected, rel=1e-5)


def test_const_mu_critical_is_frictionless():
    rng = np.random.default_rng(7)
    for _ in range(25):
        ratio = math.exp(rng.uniform(math.log(1.01), math.log(1e3)))
        w_h = math.exp(rng.uniform(math.log(0.5), math.log(100)))
        n = rng.uniform(0, 5)
        mu_star, tau_star = critical_mu(ratio, omega_h=w_h)
        st = StateVector.from_occupation(w_h, n)
        sched = Schedule.const_mu(w_h, w_h / ratio, mu_star)
        out = propagate(st, sched)
        n_f = out.e_h / (w_h / ratio) - 0.5
        assert abs(n_f - n) <= 1e-9
        assert sched.duration == pytest.approx(tau_star, rel=1e-12)


def test_const_mu_energy_closed_form_from_ground():
    # E_final = (omega_c/2) (mu^2 cosh(Omega theta) - 4) / Omega^2 evaluated
    # independently through complex arithmetic.
    for mu, ratio in ((-0.9, 4.0), (-1.99, 30.0), (-3.5, 2.5)):
        w_h = 5.0
        w_c = w_h / ratio
        theta = -math.log(ratio) / mu
        omega2 = complex(mu * mu - 4.0)
        om = cmath.sqrt(omega2)
        e_ref = 0.5 * w_c * (mu * mu * cmath.cosh(om * theta) - 4.0) / omega2
        out = propagate(StateVector.ground(w_h), Schedule.const_mu(w_h, w_c, mu))
        assert out.e_h == pytest.approx(e_ref.real, rel=1e-12)


def test_const_mu_direction_and_zero_mu_errors():
    st = StateVector.ground(5.0)
    with pytest.raises(ValueError):
        propagate(st, Schedule.const_mu(5.0, 1.0, 0.5))     # expansion needs mu < 0
    with pytest.raises(ValueError):
        propagate(st, Schedule.const_mu(5.0, 9.0, -0.5))
    with pytest.raises(ValueError):
        propagate(st, Schedule.const_mu(5.0, 1.0, 0.0))


def test_propagate_rejects_state_off_the_schedule_start():
    st = StateVector.ground(5.0)
    with pytest.raises(ValueError, match="omega_start"):
        propagate(st, Schedule.const_mu(5.0 * (1.0 + 1e-8), 1.0, -0.5))
    # within 1e-9 relative the state is taken to sit at the start
    assert propagate(st, Schedule.const_mu(5.0 * (1.0 + 1e-10), 1.0, -0.5)).omega == 1.0


# ---------------------------------------------------------------------------
# frequency jump
# ---------------------------------------------------------------------------

def test_jump_identity():
    st = StateVector(3.0, 1.0, -0.5, 2.0)
    assert propagate(st, Schedule.piecewise(2.0, 2.0, [])) == st


def test_jump_sudden_energy_from_ground():
    w_h, ratio = 9.0, 6.0
    w_c = w_h / ratio
    out = propagate(StateVector.ground(w_h), Schedule.piecewise(w_h, w_c, []))
    # same algebra up to rounding: exact to a few ulp
    assert out.e_h == pytest.approx(0.25 * w_c * (ratio + 1.0 / ratio), rel=5e-16)


def test_jump_preserves_casimir():
    rng = np.random.default_rng(3)
    st = random_state(rng, omega=2.0)
    for w_new in (6.0, 0.5, 2.0 * 3.0):    # includes s = 9
        out = propagate(st, Schedule.piecewise(2.0, w_new, []))
        assert casimir(out.as_array(), w_new) == \
            pytest.approx(casimir(st.as_array(), st.omega), rel=1e-13)
        # the (Q, P) lift agrees with the direct jump algebra
        direct = jump_matrix(2.0, w_new) @ st.as_array()
        np.testing.assert_allclose(out.as_array(), direct, rtol=0, atol=1e-15 * abs(direct).max())
    with pytest.raises(ValueError):
        propagate(st, Schedule.piecewise(2.0, -1.0, []))


def test_jump_matches_infinite_mu_limit_both_directions():
    # the sudden map is the |mu| -> inf limit; at |mu| = 4e6 the residual
    # O(ln(ratio)/|mu|) difference sits well inside the 1e-6 contract
    for w0, w1, mu in ((10.0, 2.0, -4e6), (2.0, 10.0, 4e6)):
        rng = np.random.default_rng(11)
        st = random_state(rng, omega=w0)
        fast = propagate(st, Schedule.const_mu(w0, w1, mu))
        jumped = propagate(st, Schedule.piecewise(w0, w1, []))
        gap = np.linalg.norm(fast.as_array() - jumped.as_array())
        assert gap <= 1e-6 * np.linalg.norm(jumped.as_array())


# ---------------------------------------------------------------------------
# free segment
# ---------------------------------------------------------------------------

def test_free_segment_identity_and_full_turn():
    st = StateVector(3.0, 1.0, -0.5, 2.0)
    assert propagate(st, Schedule.linear(2.0, 2.0, 0.0)) == st
    full = propagate(st, Schedule.linear(2.0, 2.0, math.pi / st.omega))   # 2*omega*t = 2*pi
    np.testing.assert_allclose(full.as_array(), st.as_array(), rtol=1e-12, atol=1e-14)


def test_free_segment_quarter_turn():
    st = StateVector(2.0, 0.7, 0.0, 1.0)
    out = propagate(st, Schedule.linear(1.0, 1.0, math.pi / 4.0))   # 2*omega*t = pi/2
    assert out.e_l == pytest.approx(0.0, abs=1e-12)
    assert out.e_c == pytest.approx(0.7, rel=1e-12)
    assert out.e_h == st.e_h


# ---------------------------------------------------------------------------
# numeric propagation and cross-validation of the fast paths
# ---------------------------------------------------------------------------

def test_numeric_matches_const_mu_closed_form():
    rng = np.random.default_rng(42)
    cases = [(-2.0 + 1e-3, 5.0), (-2.0 - 1e-3, 5.0), (2.0 - 1e-3, 5.0)]
    while len(cases) < 25:
        mu = rng.choice([-1, 1]) * math.exp(rng.uniform(math.log(0.05), math.log(15)))
        ratio = math.exp(rng.uniform(math.log(1.1), math.log(20)))
        cases.append((float(mu), float(ratio)))
    for mu, ratio in cases:
        w0 = 4.0
        w1 = w0 / ratio if mu < 0 else w0 * ratio
        st = random_state(np.random.default_rng(1), omega=w0)
        sched = Schedule.const_mu(w0, w1, mu)
        numeric = propagate_adiabat_numeric(st, sched, tol=1e-12)
        closed = propagate(st, sched)
        err = np.linalg.norm(numeric.as_array() - closed.as_array()) / \
            np.linalg.norm(closed.as_array())
        assert err <= 1e-8, (mu, ratio, err)


def test_numeric_zero_duration_identity():
    st = StateVector(3.0, 1.0, -0.5, 2.0)
    sched = Schedule.piecewise(2.0, 2.0, [])
    assert propagate_adiabat_numeric(st, sched, tol=1e-10) == st


def test_numeric_three_jump_splits_at_jumps():
    st = StateVector.from_occupation(10.0, 2.5)
    out = propagate_adiabat_numeric(st, build_three_jump(10.0, 1.0), tol=1e-10)
    assert out.e_h / 1.0 - 0.5 == pytest.approx(2.5, abs=1e-9)


def test_numeric_quasistatic_linear_preserves_occupation():
    st = StateVector.ground(20.0)
    out = propagate_adiabat_numeric(st, Schedule.linear(20.0, 2.0, 50.0), tol=1e-10)
    assert abs(out.e_h / 2.0 - 0.5) <= 1e-3
    # friction shrinks quadratically with the ramp time
    slower = propagate_adiabat_numeric(st, Schedule.linear(20.0, 2.0, 200.0), tol=1e-10)
    assert abs(slower.e_h / 2.0 - 0.5) < 0.2 * abs(out.e_h / 2.0 - 0.5)


def test_numeric_tolerance_domain():
    st = StateVector.ground(5.0)
    with pytest.raises(ValueError):
        propagate_adiabat_numeric(st, Schedule.linear(5.0, 1.0, 1.0), tol=1e-3)


def test_exponential_fast_path_matches_rk():
    for w0, w1, tau in ((10.0, 2.0, 3.0), (2.0, 10.0, 5.0), (100.0, 1.0, 8.0)):
        sched = Schedule.exponential(w0, w1, tau)
        np.testing.assert_allclose(propagator_matrix(sched), rk_matrix(sched, 1e-12),
                                   rtol=1e-8, atol=1e-12)


def test_linear_fast_path_matches_rk():
    for w0, w1, tau in ((10.0, 2.0, 3.0), (2.0, 10.0, 5.0), (20.0, 2.0, 50.0)):
        sched = Schedule.linear(w0, w1, tau)
        np.testing.assert_allclose(propagator_matrix(sched), rk_matrix(sched, 1e-12),
                                   rtol=1e-8, atol=1e-12)


def mp_propagator(fundamental, w0, w1):
    """The 3x3 propagator of a fundamental (Q, P) pair in mpmath arithmetic.

    phi = F(w1) F(w0)^-1 with an mpmath matrix inverse, lifted to second
    moments and mapped to (e_h, e_l, e_c) at each endpoint's frequency.
    """
    phi = fundamental(w1) * mpmath.inverse(fundamental(w0))
    a, b, c, d = phi[0, 0], phi[0, 1], phi[1, 0], phi[1, 1]
    lift = mpmath.matrix([[a * a, b * b, 2 * a * b], [c * c, d * d, 2 * c * d],
                          [a * c, b * d, a * d + b * c]])
    to_moments = mpmath.matrix([[1 / w0**2, -1 / w0**2, 0], [1, 1, 0], [0, 0, 1 / w0]])
    to_hlc = mpmath.matrix([[w1**2 / 2, 0.5, 0], [-w1**2 / 2, 0.5, 0], [0, 0, w1]])
    return np.array((to_hlc * lift * to_moments).tolist(), dtype=float)


def linear_ramp_oracle(w0, w1, tau):
    """The Bessel-pair propagator of a linear ramp in 60-digit arithmetic."""
    with mpmath.workdps(60):
        w0, w1, tau = mpmath.mpf(w0), mpmath.mpf(w1), mpmath.mpf(tau)
        beta = (w0 - w1) / tau
        nu = mpmath.mpf(1) / 4

        def fundamental(w):
            z = w * w / (2 * abs(beta))
            q, p = mpmath.sqrt(w), -mpmath.sign(beta) * w * mpmath.sqrt(w)
            return mpmath.matrix([
                [q * mpmath.besselj(nu, z), q * mpmath.bessely(nu, z)],
                [p * mpmath.besselj(nu - 1, z), p * mpmath.bessely(nu - 1, z)],
            ])

        zeta = max(w0, w1) ** 2 / (2 * abs(beta))
        return mp_propagator(fundamental, w0, w1), float(zeta)


def test_linear_ramp_matches_mpmath_oracle():
    # zeta = omega^2 / 2|beta| from ~1e2 to ~1e9, both sweep directions; the
    # float phase error grows as ~1e-16 zeta
    for tau in (4.0, 4e2, 4e4, 4e6, 4e7):
        for w0, w1 in ((50.0, 0.05), (0.05, 50.0)):
            expected, zeta = linear_ramp_oracle(w0, w1, tau)
            got = propagator_matrix(Schedule.linear(w0, w1, tau))
            err = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
            assert err <= 1e-15 * zeta + 1e-11, (tau, w0, zeta, err)


def linear_ramp_at(zeta_h, w0, w1):
    """The linear ramp w0 -> w1 whose Bessel argument at omega_h = max(w0, w1) is zeta_h."""
    return Schedule.linear(w0, w1, 2.0 * zeta_h * abs(w0 - w1) / max(w0, w1) ** 2)


def test_linear_ramp_energy_entry_matches_mpmath_up_to_the_bessel_limit():
    # the end phases carry the ~1e-16 zeta rounding of zeta, but the energy
    # entry does not depend on them: it stays at machine precision up to
    # zeta = 2^51, where scipy's jv and yv stop being accurate
    for zeta_h in (1e10, 3e12, 1e15, 0.99 * 2.0**51):
        for w0, w1 in ((100.0, 0.1), (0.1, 100.0)):
            sched = linear_ramp_at(zeta_h, w0, w1)
            expected, zeta = linear_ramp_oracle(w0, w1, sched.duration)
            assert zeta <= 2.0**51
            got = propagator_matrix(sched)
            assert abs(got[0, 0] - expected[0, 0]) <= 1e-13 * expected[0, 0], (zeta, w0)


def test_linear_ramp_past_the_bessel_limit_raises():
    for w0, w1 in ((100.0, 0.1), (0.1, 100.0)):
        schedule_propagator(linear_ramp_at(2.0**51 * (1.0 - 1e-12), w0, w1))
        with pytest.raises(ScheduleError, match="Bessel argument"):
            schedule_propagator(linear_ramp_at(2.0**51 * (1.0 + 1e-12), w0, w1))


def test_linear_ramp_below_the_bessel_floor_raises():
    # ramps of rate 1 whose cold end sits just above and just below the floor,
    # 1000 times the smallest normal float, where jv and yv return 0 and
    # -inf; just above it a ramp 1e-152 long is the sudden jump
    above, below = (math.sqrt(2.0 * _ZETA_MIN * (1.0 + f)) for f in (1e-12, -1e-12))
    for w0, w1 in ((2.0 * above, above), (above, 2.0 * above)):
        got = propagator_matrix(Schedule.linear(w0, w1, above))
        expected = jump_matrix(w0, w1)
        assert np.max(np.abs(got - expected)) / np.max(np.abs(expected)) <= 1e-10
    for w0, w1 in ((2.0 * below, below), (below, 2.0 * below)):
        with pytest.raises(ScheduleError, match="Bessel argument .* is below"):
            schedule_propagator(Schedule.linear(w0, w1, below))


def test_linear_ramp_whose_matrix_overflows_raises():
    # past a rate of about 1e205 the momentum products overflow and the
    # fundamental matrix holds NaNs, with both Bessel arguments in range: the
    # ramp is refused by name, and a cycle on it is a domain failure; at rate
    # 1e200 the map is still finite
    from ottofridge.cycle import DOMAIN_ERRORS, BranchError, CycleSpec, limit_cycle

    assert all(map(math.isfinite, schedule_propagator(Schedule.linear(1.0, 0.5, 0.5e-200))))
    with pytest.raises(ScheduleError, match=r"^linear ramp 1 -> 0.5 of duration 5e-211 "
                                            r"\(rate 1e\+210\): its fundamental matrix is not"):
        schedule_propagator(Schedule.linear(1.0, 0.5, 0.5e-210))
    with pytest.raises(ScheduleError, match="fundamental matrix is not finite"):
        linear_ramp_pair(0.5, 1.0, 0.5e-210)
    cycle = CycleSpec(BathSpec(1.0, 1.0), BathSpec(0.1, 1.0), 1.0, 0.5,
                      Schedule.linear(1.0, 0.5, 0.5e-210), Schedule.linear(0.5, 1.0, 0.5e-210),
                      tau_c=1.0, tau_h=1.0)
    with pytest.raises(BranchError, match="branch 'expansion': linear ramp 1 -> 0.5") as err:
        limit_cycle(cycle)
    assert isinstance(err.value, DOMAIN_ERRORS)


def negative_order_fundamental(w0, w1, tau):
    """The linear ramp's fundamental matrix with its momenta from scipy's own
    jv and yv at order -3/4 (see _linear_ramp_fundamental)."""
    beta = (w0 - w1) / tau
    sgn = 1.0 if beta > 0 else -1.0
    two_b = 2.0 * abs(beta)

    def fundamental(w):
        z, q = w * w / two_b, math.sqrt(w)
        p = -sgn * w * q
        return (q * float(jv(0.25, z)), q * float(yv(0.25, z)),
                p * float(jv(-0.75, z)), p * float(yv(-0.75, z)))

    return _bessel_fundamental(fundamental(w0), fundamental(w1), -4.0 * beta / math.pi)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(zeta_c=st.floats(math.log(_ZETA_MIN) + 1e-9, math.log(_ZETA_MAX / 4) - 1e-9).map(math.exp))
@example(zeta_c=_ZETA_MIN * (1.0 + 1e-12))
@example(zeta_c=_ZETA_MAX / 4 * (1.0 - 1e-12))
def test_linear_ramp_momenta_are_scipys_own_negative_order(zeta_c):
    # the momenta's order -3/4 is formed from the order-3/4 pair by DLMF
    # 10.4.7-8, bit for bit what scipy's jv and yv return at order -3/4, in
    # both directions up to both Bessel limits: the ramp has rate 1, so its
    # ends sit at zeta_c and 4 zeta_c
    w = math.sqrt(2.0 * zeta_c)
    for w0, w1 in ((2.0 * w, w), (w, 2.0 * w)):
        assert _ZETA_MIN <= min(w0, w1) ** 2 / 2.0 and max(w0, w1) ** 2 / 2.0 <= _ZETA_MAX
        assert _linear_ramp_fundamental(w0, w1, w) == negative_order_fundamental(w0, w1, w)


def test_linear_ramp_calls_jv_and_hankel1_once_at_positive_orders(monkeypatch):
    # one call per Bessel kind for both ends and no negative order, which
    # scipy would evaluate at 3/4 a second time; Y from hankel1, one Hankel
    # evaluation where yv makes two: 4 AMOS J and 4 Hankel evaluations a pair
    calls = []

    def recording(name, f):
        def call(orders, zeta):
            calls.append((name, tuple(orders)))
            return f(orders, zeta)
        return call

    monkeypatch.setattr(ottofridge.dynamics, "_LINEAR_BESSEL",
                        (recording("jv", jv), recording("hankel1", hankel1)))
    linear_ramp_pair(100.0, 0.1, 40.0)
    assert calls == [("jv", (0.25, 0.25, 0.75, 0.75)), ("hankel1", (0.25, 0.25, 0.75, 0.75))]


# log-uniform Bessel arguments in [_ZETA_MIN, _ZETA_MAX]
ZETAS = st.floats(math.log(_ZETA_MIN), math.log(_ZETA_MAX)).map(
    lambda x: min(max(math.exp(x), _ZETA_MIN), _ZETA_MAX))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(z0=ZETAS, z1=ZETAS)
@example(z0=_ZETA_MIN, z1=_ZETA_MAX)
@example(z0=_ZETA_MAX, z1=_ZETA_MIN)
def test_hankel1_imaginary_part_is_yv_over_the_linear_ramps_range(z0, z1):
    # the linear ramp's Y values are hankel1's imaginary parts: bit for bit
    # yv at orders 1/4 and 3/4 over [_ZETA_MIN, _ZETA_MAX], both limits
    # included, in the ramp's own call (orders and arguments as arrays)
    args = np.array((z0, z1, z0, z1))
    assert hankel1(_LINEAR_ORDERS, args).imag.tolist() == yv(_LINEAR_ORDERS, args).tolist()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(ratio=st.floats(1.0 + 1e-6, 1e6), omega_h=st.floats(1e-2, 1e3),
       zeta_h=st.one_of(st.floats(1e-3, 1e15), st.floats(0.999 * _ZETA_MAX, 1.001 * _ZETA_MAX)))
@example(ratio=1000.0, omega_h=100.0, zeta_h=_ZETA_MAX * (1.0 - 1e-12))
@example(ratio=1000.0, omega_h=100.0, zeta_h=_ZETA_MAX * (1.0 + 1e-12))
def test_linear_ramp_pair_is_each_ramps_own_build(ratio, omega_h, zeta_h):
    # the maps of a ramp and its time reverse from one jv/hankel1 evaluation are,
    # bit for bit, the maps that each one's own build gives; past the Bessel
    # limit the pair raises what each own build raises
    omega_c = omega_h / ratio
    tau = 2.0 * zeta_h * (omega_h - omega_c) / omega_h**2
    own = Schedule.linear(omega_h, omega_c, tau), Schedule.linear(omega_c, omega_h, tau)
    try:
        expected = tuple(map(schedule_propagator, own))
    except ScheduleError as exc:
        with pytest.raises(ScheduleError, match="Bessel argument") as err:
            linear_ramp_pair(omega_h, omega_c, tau)
        assert str(err.value) == str(exc)
        for schedule in own:
            with pytest.raises(ScheduleError, match="Bessel argument"):
                schedule_propagator(schedule)
        return
    assert linear_ramp_pair(omega_h, omega_c, tau) == expected


def _alphas_are_negatives(omega_h, omega_c, tau):
    return (math.log(omega_c / omega_h) / tau) == -(math.log(omega_h / omega_c) / tau)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(omega_h=st.floats(1.0, 1e3), ratio=st.floats(1e-7, 0.98), tau=st.floats(1e-3, 1e4))
@example(omega_h=100.0, ratio=0.01, tau=2.0)
@example(omega_h=100.0, ratio=0.3, tau=0.7)
def test_exponential_ramp_pair_is_each_ramps_own_build(omega_h, ratio, tau):
    # the maps of an exponential ramp and its time reverse are, bit for bit,
    # the propagators of freshly built Schedule.exponential ramps, also where
    # the two rates are not exact negatives (the first example)
    omega_c = omega_h * ratio
    own = (Schedule.exponential(omega_h, omega_c, tau),
           Schedule.exponential(omega_c, omega_h, tau))
    assert exponential_ramp_pair(omega_h, omega_c, tau) == tuple(map(schedule_propagator, own))


def test_exponential_ramp_pair_examples_include_unequal_rates():
    # the examples above hold a ramp whose two rates are not exact negatives
    # and one whose rates are; a pair that negated one rate would fail there
    assert not _alphas_are_negatives(100.0, 100.0 * 0.01, 2.0)
    assert _alphas_are_negatives(100.0, 100.0 * 0.3, 0.7)


def exponential_oracle(w0, w1, tau):
    """The J0/Y0 propagator of an exponential sweep in 50-digit arithmetic."""
    with mpmath.workdps(50):
        w0, w1, tau = mpmath.mpf(w0), mpmath.mpf(w1), mpmath.mpf(tau)
        alpha = mpmath.log(w1 / w0) / tau

        def fundamental(w):
            z = w / abs(alpha)
            p = -mpmath.sign(alpha) * w
            return mpmath.matrix([
                [mpmath.besselj(0, z), mpmath.bessely(0, z)],
                [p * mpmath.besselj(1, z), p * mpmath.bessely(1, z)],
            ])

        return mp_propagator(fundamental, w0, w1)


def test_exponential_small_bessel_argument_matches_mpmath_oracle():
    # z = omega/|alpha| at the low endpoint from 4e-3 down to 4e-11: sweeps
    # far faster than the oscillation, both directions, on the Bessel form
    for z in (4e-3, 4e-5, 4e-7, 4e-9, 4e-11):
        tau = z * math.log(10.0)
        for w0, w1 in ((10.0, 1.0), (1.0, 10.0)):
            expected = exponential_oracle(w0, w1, tau)
            got = propagator_matrix(Schedule.exponential(w0, w1, tau))
            err = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
            assert err <= 1e-15, (z, w0, err)


def test_linear_ramp_sudden_limit_is_jump():
    for w0, w1 in ((10.0, 2.0), (2.0, 10.0), (100.0, 0.5), (0.5, 100.0)):
        got = propagator_matrix(Schedule.linear(w0, w1, 1e-12))
        expected = jump_matrix(w0, w1)
        assert np.max(np.abs(got - expected)) / np.max(np.abs(expected)) <= 1e-10


# ---------------------------------------------------------------------------
# Casimir conservation and power bookkeeping
# ---------------------------------------------------------------------------

def test_casimir_conserved_on_all_adiabat_paths():
    rng = np.random.default_rng(5)
    st = random_state(rng, omega=6.0)
    x0 = casimir(st.as_array(), st.omega)

    closed = propagate(st, Schedule.const_mu(6.0, 2.0, -0.8))
    assert casimir(closed.as_array(), 2.0) == pytest.approx(x0, rel=1e-12)

    jumped = propagate(st, Schedule.piecewise(6.0, 2.0, []))
    assert casimir(jumped.as_array(), 2.0) == pytest.approx(x0, rel=1e-14)

    rotated = propagate(st, Schedule.linear(6.0, 6.0, 0.37))
    assert casimir(rotated.as_array(), st.omega) == pytest.approx(x0, rel=1e-13)

    numeric = propagate_adiabat_numeric(st, Schedule.linear(6.0, 2.0, 4.0), tol=1e-11)
    assert casimir(numeric.as_array(), 2.0) == pytest.approx(x0, rel=1e-9)

    ramp = propagator_matrix(Schedule.linear(6.0, 2.0, 4.0)) @ st.as_array()
    assert casimir(ramp, 2.0) == pytest.approx(x0, rel=1e-12)

    bessel = propagator_matrix(Schedule.exponential(6.0, 2.0, 4.0)) @ st.as_array()
    assert casimir(bessel, 2.0) == pytest.approx(x0, rel=1e-12)


def test_adiabat_power_zero_cases():
    st = StateVector(3.0, 1.0, -0.5, 2.0)
    assert adiabat_power(st, 0.0) == 0.0
    kinetic = StateVector(3.0, 3.0 - 1e-12, 0.0, 1.0)
    assert adiabat_power(kinetic, 0.7) == pytest.approx(0.0, abs=1e-11)


def test_power_integral_equals_energy_change():
    # first law on the adiabat: integral of P dt = Delta E (const-mu sweep)
    w0, w1, mu = 8.0, 2.0, -0.9
    st = StateVector(5.0, 1.0, 0.7, w0)
    sched = Schedule.const_mu(w0, w1, mu)
    final, tau = propagate(st, sched), sched.duration

    def power(t):
        w_t = w0 / (1.0 - mu * w0 * t)
        v = propagator_matrix(Schedule.const_mu(w0, w_t, mu)) @ st.as_array()
        return mu * w_t * (v[0] - v[1])

    integral, _ = quad(power, 0.0, tau, limit=400, epsabs=1e-12, epsrel=1e-11)
    delta_e = final.e_h - st.e_h
    assert integral == pytest.approx(delta_e, rel=1e-6)
