"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The scaling-exponent sweeps (criterion 1) are shared with the
time-scaling criterion (9) through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest
from oracles import cross_check, propagate_adiabat_numeric

from ottofridge.cycle import CycleSpec, NoContractionError, limit_cycle
from ottofridge.dynamics import BathSpec, StateVector, equilibrium_state, propagate
from ottofridge.optimize import (
    OptimizationSpec,
    ga_schedule_search,
    optimal_cold_frequency,
    optimize_time_allocation,
    solve_isochore_z,
)
from ottofridge.scaling import SweepSpec, fit_power_law, temperature_sweep
from ottofridge.schedules import Schedule, build_three_jump, critical_mu

SEED = 12345


def report(number: int, name: str, checks):
    """Print one line for the criterion and fail the test on any miss."""
    ok = all(flag for _, flag, _ in checks)
    detail = "; ".join(f"{label}={text}" + ("" if flag else " [MISS]")
                       for label, flag, text in checks)
    print(f"\nACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------------------
# shared sweeps (criteria 1 and 9)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def acceptance_sweeps():
    kwargs = dict(omega_h=100.0, t_hot=1.0, gamma=1.0,
                  t_max=1e-1, t_min=1e-3, points_per_decade=5,
                  tail_decades=1.0)
    t0 = time.time()
    results = {kind: temperature_sweep(SweepSpec(kind=kind, **kwargs))
               for kind in ("three_jump", "const_mu", "exponential", "linear")}
    return results, time.time() - t0


def test_criterion_01_scaling_exponents(acceptance_sweeps):
    results, elapsed = acceptance_sweeps
    deltas = {kind: res.tail_fit.delta for kind, res in results.items()}
    checks = [
        ("three_jump_delta", 1.4 <= deltas["three_jump"] <= 1.6,
         f"{deltas['three_jump']:.4f} (gate 1.5 +- 0.1)"),
        ("const_mu_delta", 1.9 <= deltas["const_mu"] <= 2.1,
         f"{deltas['const_mu']:.4f} (gate 2.0 +- 0.1)"),
        ("linear_gt_exponential", deltas["linear"] > deltas["exponential"],
         f"{deltas['linear']:.4f} > {deltas['exponential']:.4f}"),
        ("exponential_gt_2.1", deltas["exponential"] > 2.1,
         f"{deltas['exponential']:.4f}"),
        ("runtime_s", elapsed < 120.0, f"{elapsed:.1f}"),
    ]
    report(1, "scaling exponents", checks)


def test_criterion_09_time_scaling(acceptance_sweeps):
    results, _ = acceptance_sweeps
    exponents = {}
    for kind in ("const_mu", "three_jump"):
        rows = [(r.t_c, r.tau_hc) for r in results[kind].rows if r.flag == 1]
        exponents[kind] = fit_power_law(rows, tail_decades=1.0).delta
    checks = [
        ("const_mu_tau_exponent", abs(exponents["const_mu"] + 1.0) <= 0.05,
         f"{exponents['const_mu']:.4f} (gate -1.0 +- 0.05)"),
        ("three_jump_tau_exponent", abs(exponents["three_jump"] + 0.5) <= 0.05,
         f"{exponents['three_jump']:.4f} (gate -0.5 +- 0.05)"),
    ]
    report(9, "adiabat time scaling", checks)


# ---------------------------------------------------------------------------
# criterion 2: frictionless identities
# ---------------------------------------------------------------------------

def test_criterion_02_frictionless_identities():
    rng = np.random.default_rng(SEED)
    worst_mu, worst_jump = 0.0, 0.0
    for _ in range(100):
        ratio = math.exp(rng.uniform(math.log(1.0 + 1e-3), math.log(1e3)))
        omega_h = math.exp(rng.uniform(math.log(0.5), math.log(200.0)))
        omega_c = omega_h / ratio
        n = rng.uniform(0.0, 5.0)
        start = StateVector.from_occupation(omega_h, n)

        mu_star, _ = critical_mu(ratio, omega_h=omega_h)
        out = propagate(start, Schedule.const_mu(omega_h, omega_c, mu_star))
        worst_mu = max(worst_mu, abs(out.e_h / omega_c - 0.5 - n))

        out = propagate(start, build_three_jump(omega_h, omega_c))
        worst_jump = max(worst_jump, abs(out.e_h / omega_c - 0.5 - n))
    checks = [
        ("const_mu_star_n_drift", worst_mu <= 1e-9, f"{worst_mu:.2e}"),
        ("three_jump_n_drift", worst_jump <= 1e-9, f"{worst_jump:.2e}"),
    ]
    report(2, "frictionless identities", checks)


# ---------------------------------------------------------------------------
# criterion 3: closed form vs adaptive integration
# ---------------------------------------------------------------------------

def test_criterion_03_closed_form_vs_ode():
    rng = np.random.default_rng(SEED + 1)
    cases = [(-2.0 - 1e-3, 4.0), (-2.0 + 1e-3, 4.0), (2.0 - 1e-3, 4.0), (2.0 + 1e-3, 4.0)]
    while len(cases) < 100:
        mu = float(rng.choice([-1.0, 1.0])) * math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        ratio = math.exp(rng.uniform(math.log(1.1), math.log(50.0)))
        cases.append((mu, ratio))
    worst = 0.0
    for mu, ratio in cases:
        w0 = math.exp(rng.uniform(math.log(0.5), math.log(20.0)))
        w1 = w0 / ratio if mu < 0 else w0 * ratio
        n = rng.uniform(0.0, 3.0)
        r = rng.uniform(0.0, 0.8) * w0 * n
        ang = rng.uniform(0.0, 2.0 * math.pi)
        start = StateVector(w0 * (n + 0.5), r * math.cos(ang), r * math.sin(ang), w0)
        sched = Schedule.const_mu(w0, w1, mu)
        numeric = propagate_adiabat_numeric(start, sched, tol=1e-12)
        closed = propagate(start, sched)
        err = (np.linalg.norm(numeric.as_array() - closed.as_array())
               / np.linalg.norm(closed.as_array()))
        worst = max(worst, err)
    report(3, "closed form vs ODE", [
        ("max_relative_error", worst <= 1e-8, f"{worst:.2e} over 100 cases"),
    ])


# ---------------------------------------------------------------------------
# criterion 4: sudden limit
# ---------------------------------------------------------------------------

def test_criterion_04_sudden_limit():
    omega_h, ratio = 9.0, 7.5
    omega_c = omega_h / ratio
    expected = 0.25 * omega_c * (ratio + 1.0 / ratio)
    jumped = propagate(StateVector.ground(omega_h), Schedule.piecewise(omega_h, omega_c, []))
    jump_err = abs(jumped.e_h - expected) / expected
    fast = propagate(StateVector.ground(omega_h), Schedule.const_mu(omega_h, omega_c, -1e6))
    mu_err = abs(fast.e_h - expected) / expected
    report(4, "sudden limit", [
        ("jump_map_exact", jump_err <= 5e-16, f"{jump_err:.2e}"),
        ("mu_minus_1e6", mu_err <= 1e-5, f"{mu_err:.2e}"),
    ])


# ---------------------------------------------------------------------------
# criterion 5: product-log optimum
# ---------------------------------------------------------------------------

def _golden_argmax(f, lo, hi, iters=220):
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


def test_criterion_05_product_log_optimum():
    checks = []
    for nu, quoted in ((2.0, 1.5936), (1.5, 0.8745)):
        _, kappa = optimal_cold_frequency(nu, 1.0)
        checks.append((f"kappa({nu:g})", abs(kappa - quoted) <= 1e-3,
                       f"{kappa:.6f} vs {quoted}"))

        def objective(omega, nu=nu):
            n_eq, _ = equilibrium_state(omega, BathSpec(1.0, 1.0))
            return omega**nu * n_eq

        omega_best = _golden_argmax(objective, 1e-6, 60.0)
        checks.append((f"golden_section({nu:g})", abs(omega_best - kappa) <= 1e-6,
                       f"|{omega_best:.8f} - kappa| = {abs(omega_best - kappa):.2e}"))
    report(5, "product-log optimum", checks)


# ---------------------------------------------------------------------------
# criterion 6: z-equation allocations
# ---------------------------------------------------------------------------

def test_criterion_06_z_equation():
    worst_residual = 0.0
    for a in np.logspace(-6, 3, 60):
        alloc = solve_isochore_z(1.0, 1.0, float(a))
        worst_residual = max(worst_residual,
                             abs(2.0 * math.sinh(alloc.z) - 2.0 * alloc.z - a))
    gaps = []
    for omega_h, omega_c, t_h, t_c in ((10.0, 1.0, 2.0, 0.5), (30.0, 2.0, 1.0, 0.3)):
        base = CycleSpec(
            BathSpec(t_h, 1.0), BathSpec(t_c, 1.0), omega_h, omega_c,
            build_three_jump(omega_h, omega_c), build_three_jump(omega_c, omega_h),
            tau_c=1.0, tau_h=1.0)
        result = optimize_time_allocation(OptimizationSpec(
            base=base, free=("tau_c", "tau_h"),
            bounds={"tau_c": (1e-2, 50.0), "tau_h": (1e-2, 50.0)},
            seed=SEED, restarts=3))
        gaps.append(result.z_comparison["relative_gap"])
    report(6, "z-equation", [
        ("max_residual", worst_residual <= 1e-12, f"{worst_residual:.2e}"),
        ("search_agreement", max(gaps) <= 0.01, f"max gap {max(gaps):.2e}"),
    ])


# ---------------------------------------------------------------------------
# criterion 7: thermodynamic laws on randomized cycles
# ---------------------------------------------------------------------------

def _random_spec(rng):
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
    return CycleSpec(BathSpec(t_h, gamma), BathSpec(t_c, gamma), omega_h, omega_c,
                     expansion, compression,
                     tau_c=rng.uniform(0.5, 4.0) / gamma,
                     tau_h=rng.uniform(0.5, 4.0) / gamma)


def test_criterion_07_thermodynamic_laws():
    rng = np.random.default_rng(SEED + 2)
    converged = 0
    worst_closure = worst_sigma = 0.0
    q_bound_ok = rate_bound_ok = True
    while converged < 200:
        spec = _random_spec(rng)
        try:
            _, record = limit_cycle(spec)
        except NoContractionError:
            continue
        converged += 1
        worst_closure = max(worst_closure,
                            abs(record.q_c + record.w - record.q_h)
                            / max(abs(record.q_h), 1.0))
        worst_sigma = min(worst_sigma, record.sigma)
        # heat-capacity chain q_c <= omega_c n_c_eq <= T_c, up to the same
        # floating-point allowance as the first-law closure (q_c is a
        # difference of O(E) energies, so it carries absolute roundoff)
        n_c, _ = equilibrium_state(spec.omega_c, spec.cold_bath)
        atol = 1e-10 * max(1.0, abs(record.q_h))
        rate_bound_ok &= record.q_c <= spec.omega_c * n_c + atol
        q_bound_ok &= record.q_c <= spec.cold_bath.temperature + atol
    report(7, "thermodynamic laws", [
        ("first_law", worst_closure <= 1e-8, f"worst {worst_closure:.2e}"),
        ("second_law", worst_sigma >= -1e-12, f"min sigma {worst_sigma:.2e}"),
        ("q_c_le_heat_capacity", rate_bound_ok, "all 200 cycles"),
        ("q_c_le_T_c", q_bound_ok, "all 200 cycles"),
    ])


# ---------------------------------------------------------------------------
# criterion 8: limit-cycle solver cross-check
# ---------------------------------------------------------------------------

def test_criterion_08_limit_cycle_solver():
    rng = np.random.default_rng(SEED + 3)
    checked = 0
    worst_agreement, worst_rho = 0.0, 0.0
    while checked < 50:
        try:
            _, record = limit_cycle(_random_spec(rng))
        except NoContractionError:
            continue
        checked += 1
        worst_agreement = max(worst_agreement, cross_check(record)[1])
        worst_rho = max(worst_rho, record.spectral_radius)
    report(8, "limit-cycle solver", [
        ("direct_vs_iteration", worst_agreement <= 1e-10, f"worst {worst_agreement:.2e}"),
        ("spectral_radius_lt_1", worst_rho < 1.0, f"max {worst_rho:.6f}"),
    ])


# ---------------------------------------------------------------------------
# criterion 10: genetic search convergence
# ---------------------------------------------------------------------------

def test_criterion_10_ga_convergence():
    _, kappa32 = optimal_cold_frequency(1.5, 1.0)
    t_c = 1.0 / kappa32                       # kappa relation at omega_c = 1
    hot, cold = BathSpec(2.0, 1.0), BathSpec(t_c, 1.0)
    expansion = build_three_jump(10.0, 1.0)
    compression = build_three_jump(1.0, 10.0)
    alloc = solve_isochore_z(1.0, 1.0, expansion.duration + compression.duration)
    base = CycleSpec(hot, cold, 10.0, 1.0, expansion, compression,
                     tau_c=alloc.tau_c, tau_h=alloc.tau_h)
    reference = limit_cycle(base)[1].r_c

    first = ga_schedule_search(base, segments=2, population=32, generations=200, seed=SEED)
    second = ga_schedule_search(base, segments=2, population=32, generations=200, seed=SEED)
    ratio = first.fitness / reference
    report(10, "genetic search", [
        ("champion_ratio", ratio >= 0.9, f"{ratio:.4f} of three-jump R_c"),
        ("deterministic", first.schedule == second.schedule
         and first.fitness == second.fitness, "rerun identical"),
        ("generations", len(first.history) - 1 <= 200, str(len(first.history) - 1)),
    ])
