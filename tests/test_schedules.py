"""Schedule evaluation and the frictionless critical parameters."""

import math

import pytest

from oracles import jumps, propagate_adiabat_numeric
from ottofridge.dynamics import StateVector, propagate
from ottofridge.schedules import (
    Schedule,
    ScheduleError,
    build_three_jump,
    critical_mu,
    three_jump_times,
)


def test_const_mu_evaluate():
    sched = Schedule.const_mu(10.0, 2.0, -0.5)
    assert sched.evaluate(0.0) == (10.0, -0.5)
    w, mu = sched.evaluate(0.1)
    assert w == pytest.approx(10.0 / 1.5, rel=1e-14)     # 10 / (1 + 0.5*10*0.1)
    assert mu == -0.5
    assert sched.duration == pytest.approx((1 / -0.5) * (1 / 10 - 1 / 2), rel=1e-14)
    w_end, _ = sched.evaluate(sched.duration)
    assert w_end == pytest.approx(2.0, rel=1e-12)


def test_exponential_evaluate_endpoint():
    sched = Schedule.exponential(8.0, 2.0, 3.0)
    w, mu = sched.evaluate(3.0)
    assert w == pytest.approx(2.0, rel=1e-12)
    assert mu == pytest.approx(sched.alpha / 2.0, rel=1e-12)


def test_linear_evaluate():
    sched = Schedule.linear(6.0, 2.0, 4.0)
    w, mu = sched.evaluate(2.0)
    assert w == 4.0
    assert mu == pytest.approx(-1.0 / 16.0, rel=1e-14)


@pytest.mark.parametrize("sched", [
    Schedule.const_mu(10.0, 2.0, -0.5),
    Schedule.linear(10.0, 2.0, 3.0),
    Schedule.exponential(10.0, 2.0, 3.0),
])
def test_mu_is_frequency_log_derivative(sched):
    # finite-difference check of mu = (d omega/dt) / omega^2
    h = 1e-6
    for frac in (0.2, 0.5, 0.8):
        t = frac * sched.duration
        w, mu = sched.evaluate(t)
        w_plus, _ = sched.evaluate(t + h)
        w_minus, _ = sched.evaluate(t - h)
        fd = (w_plus - w_minus) / (2 * h) / w**2
        assert fd == pytest.approx(mu, rel=1e-5)


def test_evaluate_domain_errors():
    sched = Schedule.linear(6.0, 2.0, 4.0)
    with pytest.raises(ScheduleError):
        sched.evaluate(-0.1)
    with pytest.raises(ScheduleError):
        sched.evaluate(4.5)


def test_schedule_validation_errors():
    with pytest.raises(ScheduleError):
        Schedule.const_mu(10.0, 2.0, 0.0)
    with pytest.raises(ScheduleError):
        Schedule.const_mu(10.0, 2.0, 0.5)        # wrong sign for expansion
    with pytest.raises(ScheduleError):
        Schedule.linear(-1.0, 2.0, 1.0)
    with pytest.raises(ScheduleError):
        Schedule("warp", 1.0, 2.0, 1.0)
    with pytest.raises(ScheduleError):
        Schedule.exponential(2.0, 2.0, 1.0)
    # a NaN or infinite frequency is refused as the schedule is built, not
    # left for its map to fail on (a NaN Bessel argument, a NaN cycle map)
    for build, args in ((Schedule.linear, (math.nan, 1.0, 1.0)),
                        (Schedule.linear, (math.inf, 1.0, 1.0)),
                        (Schedule.linear, (10.0, math.inf, 1.0)),
                        (Schedule.exponential, (10.0, math.nan, 1.0)),
                        (Schedule.piecewise, (10.0, 1.0, [(math.nan, 0.5)])),
                        (Schedule.piecewise, (10.0, 1.0, [(math.inf, 0.5)]))):
        with pytest.raises(ScheduleError, match="^schedule frequencies must be finite and > 0$"):
            build(*args)


# ---------------------------------------------------------------------------
# critical constant-mu parameters
# ---------------------------------------------------------------------------

def test_critical_mu_small_ratio_limit():
    mu_star, _ = critical_mu(1.0 + 1e-9)
    assert -1e-9 < mu_star < 0.0


def test_critical_mu_at_ratio_ten():
    mu_star, tau_star = critical_mu(10.0, omega_h=1.0)
    ref = -2.0 * math.log(10.0) / math.sqrt(4.0 * math.pi**2 + math.log(10.0) ** 2)
    assert mu_star == pytest.approx(ref, rel=1e-15)
    assert mu_star == pytest.approx(-0.68818009800966299, rel=1e-12)
    assert tau_star == pytest.approx(13.077971923381062, rel=1e-12)
    # omega_h scaling
    _, tau_scaled = critical_mu(10.0, omega_h=4.0)
    assert tau_scaled == pytest.approx(tau_star / 4.0, rel=1e-14)


def test_critical_mu_large_ratio_asymptotics():
    # mu* -> -2 and tau* omega_c -> 1/2 as the ratio diverges (logarithmically)
    prev_mu, prev_scaled = 0.0, math.inf
    for ratio in (1e2, 1e4, 1e8, 1e12):
        mu_star, tau_star = critical_mu(ratio, omega_h=1.0)
        assert -2.0 < mu_star < prev_mu
        scaled = tau_star * (1.0 / ratio)
        assert 0.5 < scaled < prev_scaled
        prev_mu, prev_scaled = mu_star, scaled
    assert prev_mu == pytest.approx(-2.0, abs=0.1)
    assert prev_scaled == pytest.approx(0.5, abs=0.03)
    with pytest.raises(ValueError):
        critical_mu(0.9)


def test_critical_mu_is_frictionless_via_numeric_path():
    mu_star, _ = critical_mu(7.0, omega_h=14.0)
    sched = Schedule.const_mu(14.0, 2.0, mu_star)
    st = StateVector.from_occupation(14.0, 0.8)
    out = propagate_adiabat_numeric(st, sched, tol=1e-12)
    assert abs(out.e_h / 2.0 - 0.5 - 0.8) <= 1e-9


# ---------------------------------------------------------------------------
# three-jump protocol
# ---------------------------------------------------------------------------

def test_three_jump_times_symmetric_case():
    t1, t2 = three_jump_times(3.0, 3.0)
    assert t1 == pytest.approx(math.pi / 18.0, rel=1e-13)   # arccos(1/2)/(2*3)
    assert t2 == pytest.approx(math.pi / 18.0, rel=1e-13)


def test_three_jump_times_ten_to_one():
    t1, t2 = three_jump_times(10.0, 1.0)
    phi = math.acos(101.0 / 121.0)
    assert phi == pytest.approx(0.58318901352670418, rel=1e-14)
    assert t1 == pytest.approx(phi / 2.0, rel=1e-14)
    assert t2 == pytest.approx(phi / 20.0, rel=1e-14)


def test_three_jump_total_time_asymptote():
    # tau_hc -> 1/sqrt(omega_h omega_c) as omega_c -> 0
    w_h = 5.0
    for w_c in (1e-4, 1e-6, 1e-8):
        t1, t2 = three_jump_times(w_h, w_c)
        assert (t1 + t2) * math.sqrt(w_h * w_c) == pytest.approx(1.0, rel=2e-2)


def test_build_three_jump_ground_to_ground():
    sched = build_three_jump(9.0, 2.0)
    out = propagate(StateVector.ground(9.0), sched)
    assert out.e_h == pytest.approx(1.0, abs=1e-10)
    assert abs(out.e_l) < 1e-10 and abs(out.e_c) < 1e-10


def test_build_three_jump_preserves_occupation():
    sched = build_three_jump(10.0, 1.0)
    st = StateVector.from_occupation(10.0, 2.5)
    out = propagate(st, sched)
    assert out.e_h / 1.0 - 0.5 == pytest.approx(2.5, abs=1e-9)


def test_build_three_jump_compression_is_time_reverse():
    sched = build_three_jump(2.0, 9.0)
    out = propagate(StateVector.ground(2.0), sched)
    assert out.e_h == pytest.approx(4.5, abs=1e-10)
    # mirrored holds: high-frequency hold first
    assert sched.segments[0][0] == 9.0 and sched.segments[1][0] == 2.0


def test_three_jump_is_faster_than_critical_const_mu():
    for ratio in (1.5, 3.0, 10.0, 100.0, 1000.0):
        w_h = 7.0
        t1, t2 = three_jump_times(w_h, w_h / ratio)
        _, tau_star = critical_mu(ratio, omega_h=w_h)
        assert t1 + t2 < tau_star


def test_durations_and_jump_listing():
    sched = build_three_jump(10.0, 1.0)
    t1, t2 = three_jump_times(10.0, 1.0)
    assert sched.duration == pytest.approx(t1 + t2, rel=1e-14)
    found = jumps(sched)
    assert [(j[1], j[2]) for j in found] == [(10.0, 1.0), (1.0, 10.0), (10.0, 1.0)]
    assert found[0][0] == 0.0
    assert found[-1][0] == pytest.approx(sched.duration, rel=1e-14)
    # endpoint evaluations are the one-sided limits
    assert sched.evaluate(0.0)[0] == 10.0
    assert sched.evaluate(sched.duration)[0] == 1.0
    assert sched.evaluate(0.5 * t1)[0] == 1.0
