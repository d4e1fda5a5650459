"""Battery model tests: matrices, efficiencies, trajectories, invariants."""

import numpy as np
import pytest

from flexarb.lp import SolveStatus, solve_lp
from flexarb.pricing import PriceSignal, synthetic_day
from flexarb.storage import (StorageParamError, StorageParams,
                             build_storage_lp, check_storage_schedule,
                             consumed_power, effective_efficiencies,
                             extract_storage_schedule, step_cost_segments)

from conftest import parse_lp_dump, simple_battery, two_step_prices


def test_effective_efficiencies_products():
    assert effective_efficiencies(1.0, 1.0, 1.0) == (1.0, 1.0)
    assert effective_efficiencies(0.95, 0.95, 1.0) == (0.95, 0.95)
    ch, dis = effective_efficiencies(0.9, 0.9, 0.5)
    assert ch == pytest.approx(0.45) and dis == pytest.approx(0.45)
    with pytest.raises(StorageParamError):
        effective_efficiencies(0.0, 1.0, 1.0)
    with pytest.raises(StorageParamError):
        effective_efficiencies(1.0, 1.1, 1.0)


def test_consumed_power_hand_values():
    assert consumed_power(0.0, 0.25, 0.95, 0.95) == 0.0
    assert consumed_power(0.475, 0.25, 0.95, 0.95) == pytest.approx(2.0)
    assert consumed_power(-1.0, 1.0, 0.95, 0.95) == pytest.approx(-0.95)
    out = consumed_power(np.array([0.475, -1.0 * 0.25]), 0.25, 0.95, 0.95)
    assert out[0] == pytest.approx(2.0)
    assert out[1] == pytest.approx(-0.95)


def test_param_validation():
    with pytest.raises(StorageParamError):
        StorageParams(b_min=0.5, b_max=0.4, b_0=0.45, delta_min=-1,
                      delta_max=1)
    with pytest.raises(StorageParamError):
        StorageParams(b_min=0.0, b_max=1.0, b_0=1.5, delta_min=-1,
                      delta_max=1)
    with pytest.raises(StorageParamError):
        StorageParams(b_min=0.0, b_max=1.0, b_0=0.5, delta_min=0.5,
                      delta_max=1.0)
    with pytest.raises(StorageParamError):
        StorageParams(b_min=0.0, b_max=1.0, b_0=0.5, delta_min=-1,
                      delta_max=1, tau_min=-0.1, tau_max=None)
    # tau outside the swing bounds is only detectable once h is known
    p = StorageParams(b_min=0.0, b_max=1.0, b_0=0.5, delta_min=-1.0,
                      delta_max=1.0, tau_min=-0.5, tau_max=0.5)
    with pytest.raises(StorageParamError):
        p.validate(h=0.25)


@pytest.mark.parametrize("name", ["b_min", "b_max", "b_0", "delta_min",
                                  "delta_max", "tau_min", "tau_max"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_params_are_rejected(name, value):
    fields = dict(b_min=0.0, b_max=1.0, b_0=0.5, delta_min=-1.0,
                  delta_max=1.0, tau_min=-0.5, tau_max=0.5)
    fields[name] = value
    with pytest.raises(StorageParamError, match=f"{name} must be finite"):
        StorageParams(**fields)


def test_matrix_block_layout_n2():
    prices = two_step_prices(0.3, 0.4, h=0.25, kappa=0.5)
    params = simple_battery(tau_min=-0.25, tau_max=0.25)
    problem = build_storage_lp(params, prices)
    assert problem.A.shape == (12, 4)
    # 1-based rows 5, 6 are the cumulative capacity rows
    assert np.array_equal(problem.A[4], [1, 0, 0, 0])
    assert np.array_equal(problem.A[5], [1, 1, 0, 0])
    # 1-based rows 9, 10 are the difference-matrix rows
    assert np.array_equal(problem.A[8], [1, 0, 0, 0])
    assert np.array_equal(problem.A[9], [-1, 1, 0, 0])
    # segment rows carry the price coefficients and -1 epigraph entries
    assert problem.A[0, 0] == pytest.approx(0.3)
    assert problem.A[0, 2] == -1.0
    assert problem.A[2, 0] == pytest.approx(0.15)
    # difference-matrix rhs: first row swing limit, later rows tau
    assert problem.b[8] == pytest.approx(1.0)
    assert problem.b[9] == pytest.approx(0.25)


@pytest.mark.parametrize("tau", [None, 0.05])
def test_ramp_rows_come_after_the_ramp_free_lp(tau):
    # the staged solve starts the full LP from the ramp-free optimum, which
    # needs the first 4N rows and the columns to be the same in both LPs
    prices = synthetic_day(3, n_steps=12)
    params = StorageParams(b_min=0.1, b_max=0.9, b_0=0.4, delta_min=-0.6,
                           delta_max=0.4, eta_ch=0.9, eta_dis=0.95,
                           tau_min=None if tau is None else -tau,
                           tau_max=tau)
    full = build_storage_lp(params, prices)
    free = build_storage_lp(params, prices, include_ramp_rate=False)
    n = len(prices)
    assert full.A.shape == (6 * n, 2 * n) and free.A.shape == (4 * n, 2 * n)
    assert np.array_equal(full.A[:4 * n], free.A)
    assert np.array_equal(full.b[:4 * n], free.b)
    assert full.row_labels[:4 * n] == free.row_labels
    for name in ("f", "lb", "ub"):
        assert np.array_equal(getattr(full, name), getattr(free, name))
    assert full.col_labels == free.col_labels


def test_full_battery_cannot_absorb():
    prices = two_step_prices()
    params = simple_battery(b_0=1.0)
    problem = build_storage_lp(params, prices)
    n = len(prices)
    assert np.all(problem.b[2 * n:3 * n] == 0.0)
    sol = solve_lp(problem)
    schedule = extract_storage_schedule(sol, params, prices)
    assert schedule.x.max() <= 1e-9  # can only discharge


def test_ramp_rate_boundary_is_noop():
    # capacity-limited instances: the swing limits exceed twice the usable
    # capacity, so consecutive swings can never reach tau = (X_min, X_max)
    for seed in range(5):
        prices = synthetic_day(seed, n_steps=10)
        params = StorageParams(b_min=0.1, b_max=0.6, b_0=0.3,
                               delta_min=-5.0, delta_max=5.0,
                               eta_ch=0.93, eta_dis=0.97)
        h = prices.h
        x_min, x_max = params.ramp_energy_bounds(h)
        assert x_max >= 2 * params.usable_capacity
        with_rows = params.with_ramp_rate_fraction(1.0, h)
        a = solve_lp(build_storage_lp(with_rows, prices))
        b = solve_lp(build_storage_lp(params, prices,
                                      include_ramp_rate=False))
        assert a.status is SolveStatus.OPTIMAL
        assert abs(a.objective - b.objective) <= 1e-6


def test_idle_is_optimal_at_constant_prices_with_losses():
    # starting at b_min leaves nothing to dump, and with losses any round
    # trip at a flat price loses money, so the optimum is to do nothing
    p = np.full(4, 0.2)
    prices = PriceSignal(p_buy=p, p_sell=p, h=0.25)
    params = simple_battery(b_min=0.5, b_0=0.5, eta_ch=0.95, eta_dis=0.95)
    sol = solve_lp(build_storage_lp(params, prices))
    schedule = extract_storage_schedule(sol, params, prices)
    assert np.abs(schedule.x).max() <= 1e-9
    assert np.allclose(schedule.soc, 0.5)
    assert schedule.total_cost == pytest.approx(0.0, abs=1e-9)


def test_two_step_spread_captures_032():
    # lossless battery, 0.8 kWh usable, buy at 0.1 and sell at 0.5; the
    # swing limits sit at twice the usable capacity so the full reversal
    # from +0.8 to -0.8 stays ramp-feasible and only capacity binds
    prices = two_step_prices(0.1, 0.5)
    params = StorageParams(b_min=0.0, b_max=0.8, b_0=0.0, delta_min=-6.4,
                           delta_max=6.4)
    sol = solve_lp(build_storage_lp(params, prices))
    schedule = extract_storage_schedule(sol, params, prices)
    assert schedule.total_cost == pytest.approx(-0.32, abs=1e-9)
    assert schedule.x == pytest.approx([0.8, -0.8], abs=1e-9)
    assert sol.objective == pytest.approx(schedule.total_cost, abs=1e-6)


def test_step_cost_sums_to_objective():
    for seed in (11, 12):
        prices = synthetic_day(seed, n_steps=24)
        params = simple_battery(b_0=0.25, eta_ch=0.9, eta_dis=0.9)
        sol = solve_lp(build_storage_lp(params, prices))
        schedule = extract_storage_schedule(sol, params, prices)
        assert schedule.total_cost == pytest.approx(sol.objective, abs=1e-6)


def test_extract_rejects_non_optimal():
    prices = two_step_prices()
    params = simple_battery()
    sol = solve_lp(build_storage_lp(params, prices))
    bad = type(sol)(x=sol.x, objective=np.nan,
                    status=SolveStatus.INFEASIBLE, stats=sol.stats)
    with pytest.raises(ValueError, match="infeasible"):
        extract_storage_schedule(bad, params, prices)


def test_max_segment_equals_transaction_cost():
    # the epigraph max must equal the true buy/sell cost for any x when
    # kappa <= 1 and efficiencies <= 1
    params = simple_battery(eta_ch=0.9, eta_dis=0.85)
    x = np.linspace(-1.0, 1.0, 401)
    p_buy = np.full_like(x, 0.3)
    p_sell = np.full_like(x, 0.24)
    prices = PriceSignal(p_buy=p_buy, p_sell=p_sell, h=0.25)
    seg = step_cost_segments(x, prices, params)
    true_cost = (p_buy * np.maximum(0.0, x) / params.eta_ch_star
                 - p_sell * params.eta_dis_star * np.maximum(0.0, -x))
    assert np.abs(seg - true_cost).max() <= 1e-12


def test_ramp_rate_relaxation_never_hurts():
    prices = synthetic_day(21, n_steps=24)
    params = StorageParams(b_min=0.2, b_max=1.0, b_0=0.2, delta_min=-0.5,
                           delta_max=0.5, eta_ch=0.95, eta_dis=0.95)
    prev_obj = np.inf
    for fraction in (0.05, 0.2, 0.6, 1.0):
        p_f = params.with_ramp_rate_fraction(fraction, prices.h)
        sol = solve_lp(build_storage_lp(p_f, prices))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective <= prev_obj + 1e-9
        prev_obj = sol.objective


def test_schedule_checker_flags_violations():
    prices = synthetic_day(31, n_steps=8)
    params = simple_battery(b_0=0.5, tau_min=-0.2, tau_max=0.2)
    sol = solve_lp(build_storage_lp(params, prices))
    schedule = extract_storage_schedule(sol, params, prices)
    assert check_storage_schedule(schedule, params, prices.h) == []
    tampered = type(schedule)(x=schedule.x + 2.0, soc=schedule.soc,
                              grid_power=schedule.grid_power,
                              step_cost=schedule.step_cost)
    problems = check_storage_schedule(tampered, params, prices.h)
    assert problems  # soc mismatch and swing violations at least


def test_single_step_model_builds_and_solves():
    prices = PriceSignal(p_buy=[0.2], p_sell=[0.1], h=0.5)
    params = simple_battery(b_0=1.0)
    sol = solve_lp(build_storage_lp(params, prices))
    assert sol.status is SolveStatus.OPTIMAL
    schedule = extract_storage_schedule(sol, params, prices)
    # sell everything at 0.1: x = -1 kWh
    assert schedule.x[0] == pytest.approx(-1.0, abs=1e-9)


def test_matrix_matches_hand_expanded_golden(golden_dir):
    golden = parse_lp_dump(golden_dir / "storage_n3.txt")
    prices = PriceSignal(p_buy=[0.25, 0.5, 0.75],
                         p_sell=[0.125, 0.25, 0.375], h=0.25)
    params = StorageParams(b_min=0.25, b_max=1.0, b_0=0.5, delta_min=-2.0,
                           delta_max=2.0, tau_min=-0.125, tau_max=0.125)
    problem = build_storage_lp(params, prices)
    assert problem.A.shape == (golden["rows"], golden["cols"]) == (18, 6)
    assert np.array_equal(problem.A, golden["A"])
    assert np.array_equal(problem.b, golden["b"])
    assert np.array_equal(problem.f, golden["f"])
    assert np.array_equal(problem.lb, golden["lb"])
    assert np.array_equal(problem.ub, golden["ub"])
    assert problem.row_labels == golden["row_labels"]
    assert problem.col_labels == golden["col_labels"]
