"""Flexible-load scheduling tests: windows, deadlines, ramp rates."""

import numpy as np
import pytest

from flexarb.flexibility import (FlexParamError, FlexParams, build_flex_lp,
                                 check_flex_schedule, extract_flex_schedule,
                                 nominal_profile)
from flexarb.lp import SolveStatus, solve_lp
from flexarb.pricing import PriceSignal, sample_day, synthetic_day

from conftest import parse_lp_dump


def _solve(params, prices):
    sol = solve_lp(build_flex_lp(params, prices))
    assert sol.status is SolveStatus.OPTIMAL
    return extract_flex_schedule(sol, params, prices)


def test_param_validation():
    with pytest.raises(FlexParamError):
        FlexParams(n_steps=4, t_a=3, t_d=2, K=1.0, y_max=2.0)
    with pytest.raises(FlexParamError):
        FlexParams(n_steps=4, t_a=0, t_d=2, K=1.0, y_max=2.0)
    with pytest.raises(FlexParamError):
        FlexParams(n_steps=4, t_a=1, t_d=4, K=-1.0, y_max=2.0)
    with pytest.raises(FlexParamError):
        FlexParams(n_steps=4, t_a=1, t_d=4, K=1.0, y_max=2.0, y_min=3.0)
    with pytest.raises(FlexParamError):
        FlexParams(n_steps=4, t_a=1, t_d=4, K=1.0, y_max=2.0, xi_max=5.0)
    with pytest.raises(FlexParamError):
        FlexParams(n_steps=4, t_a=1, t_d=4, K=1.0, y_max=2.0, epsilon=-0.1)
    with pytest.raises(FlexParamError):
        FlexParams(n_steps=4, t_a=1, t_d=4, K=1.0, y_max=[2.0, 2.0])


@pytest.mark.parametrize("name, value", [
    ("K", np.nan), ("K", np.inf), ("y_max", np.inf),
    ("y_max", [2.0, 2.0, np.inf, 2.0]), ("y_min", np.nan),
    ("y_min", [0.0, np.nan, 0.0, 0.0]), ("epsilon", np.inf),
    ("epsilon", np.nan)])
def test_non_finite_params_are_rejected(name, value):
    fields = dict(n_steps=4, t_a=1, t_d=4, K=1.0, y_max=2.0, y_min=0.0,
                  epsilon=0.01)
    fields[name] = value
    with pytest.raises(FlexParamError, match=f"{name} must be finite"):
        FlexParams(**fields)


def test_epsilon_defaults_to_permille_of_k():
    p = FlexParams(n_steps=4, t_a=1, t_d=4, K=8.0, y_max=10.0)
    assert p.epsilon == pytest.approx(0.008)
    q = FlexParams(n_steps=4, t_a=1, t_d=4, K=8.0, y_max=10.0, epsilon=0.5)
    assert q.epsilon == 0.5


def test_unreachable_deadline_rejected():
    # window holds at most 2 steps * 2 kW * 0.25 h = 1 kWh
    params = FlexParams(n_steps=4, t_a=2, t_d=3, K=5.0, y_max=2.0,
                        epsilon=0.0)
    with pytest.raises(FlexParamError, match="absorb at most"):
        params.validate(h=0.25)
    prices = synthetic_day(3, n_steps=4)
    with pytest.raises(FlexParamError):
        build_flex_lp(params, prices)


def test_length_mismatch_rejected():
    params = FlexParams(n_steps=8, t_a=1, t_d=8, K=1.0, y_max=2.0)
    prices = synthetic_day(3, n_steps=4)
    with pytest.raises(FlexParamError, match="8 steps"):
        build_flex_lp(params, prices)
    with pytest.raises(FlexParamError):
        nominal_profile(params, prices)


def test_nominal_ev_charge_takes_25_quarter_hours():
    prices = sample_day()
    params = FlexParams(n_steps=96, t_a=25, t_d=72, K=25.0, y_max=4.0)
    nominal = nominal_profile(params, prices)
    active = nominal.y > 0
    assert active.sum() == 25
    assert np.all(nominal.y[active] == 4.0)
    # contiguous block starting at arrival
    assert active[24] and active[48] and not active[49]
    assert nominal.total_energy == pytest.approx(25.0, abs=1e-12)


def test_nominal_fractional_last_step():
    prices = synthetic_day(5, n_steps=8)
    params = FlexParams(n_steps=8, t_a=2, t_d=7, K=1.25, y_max=2.0)
    nominal = nominal_profile(params, prices)
    # 1.25 kWh at 2 kW and h=0.25 is 2.5 steps: two full, one half
    assert nominal.y[1] == 2.0 and nominal.y[2] == 2.0
    assert nominal.y[3] == pytest.approx(1.0)
    assert np.all(nominal.y[4:] == 0.0)


def test_zero_demand_schedules_nothing():
    prices = synthetic_day(7, n_steps=12)
    params = FlexParams(n_steps=12, t_a=3, t_d=10, K=0.0, y_max=3.0)
    schedule = _solve(params, prices)
    assert np.abs(schedule.y).max() <= 1e-9
    assert schedule.total_cost == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("excess", [0.5, 1.0])
def test_nominal_meets_the_band_when_k_exceeds_the_window(excess):
    # the default EV window holds 48 steps x 4 kW x 0.25 h = 48 kWh; K
    # within epsilon above that still passes validate, and full power
    # through the window lands inside the deadline band
    prices = sample_day()
    ceiling, eps = 48.0, 0.048
    params = FlexParams(n_steps=96, t_a=25, t_d=72, K=ceiling + excess * eps,
                        y_max=4.0, epsilon=eps)
    nominal = nominal_profile(params, prices)
    assert check_flex_schedule(nominal, params, prices.h) == []
    assert np.all(nominal.y[24:72] == 4.0)


def test_saturated_window_pins_full_power():
    prices = synthetic_day(9, n_steps=12)
    h = prices.h
    params = FlexParams(n_steps=12, t_a=4, t_d=9, K=6 * 3.0 * h, y_max=3.0,
                        epsilon=0.0)
    schedule = _solve(params, prices)
    assert schedule.y[3:9] == pytest.approx(np.full(6, 3.0), abs=1e-9)


def test_consumption_confined_to_window():
    prices = synthetic_day(13, n_steps=24)
    params = FlexParams(n_steps=24, t_a=7, t_d=18, K=4.0, y_max=2.5)
    schedule = _solve(params, prices)
    outside = np.ones(24, dtype=bool)
    outside[params.window] = False
    assert np.all(schedule.y[outside] == 0.0)
    assert check_flex_schedule(schedule, params, prices.h) == []


def test_deadline_band_holds():
    prices = synthetic_day(17, n_steps=24)
    params = FlexParams(n_steps=24, t_a=5, t_d=20, K=5.0, y_max=3.0)
    schedule = _solve(params, prices)
    window_energy = prices.h * schedule.y[params.window].sum()
    assert abs(window_energy - 5.0) <= params.epsilon + 1e-9


def test_matches_greedy_pick_of_cheapest_steps():
    # with a uniform rating, no ramp limit, a tight band, and K an exact
    # multiple of one step's energy, the LP fills the cheapest steps at
    # full power; a sort gives the same cost
    for seed in (2, 4, 8):
        prices = synthetic_day(seed, n_steps=16)
        h = prices.h
        y_max = 2.0
        k_steps = 5
        params = FlexParams(n_steps=16, t_a=1, t_d=16,
                            K=k_steps * y_max * h, y_max=y_max, epsilon=0.0)
        schedule = _solve(params, prices)
        cheapest = np.sort(prices.p_buy)[:k_steps]
        greedy_cost = float((cheapest * y_max * h).sum())
        assert schedule.total_cost == pytest.approx(greedy_cost, abs=1e-6)


def test_constant_prices_leave_no_savings():
    p = np.full(16, 0.3)
    prices = PriceSignal(p_buy=p, p_sell=p, h=0.25)
    params = FlexParams(n_steps=16, t_a=3, t_d=14, K=3.0, y_max=2.0,
                        epsilon=0.0)
    nominal = nominal_profile(params, prices)
    schedule = _solve(params, prices)
    assert schedule.total_cost == pytest.approx(nominal.total_cost, abs=1e-9)


def test_arrival_step_not_ramp_limited():
    # connecting at arrival is not a ramp event: even a tight xi lets the
    # load jump straight to rated power on its first step
    prices = sample_day()
    params = FlexParams(n_steps=96, t_a=25, t_d=72, K=25.0,
                        y_max=4.0).with_ramp_rate_fraction(0.1)
    schedule = _solve(params, prices)
    yw = schedule.y[params.window]
    assert yw[0] <= 4.0 + 1e-9
    d = np.diff(yw)
    assert d.max() <= params.xi_max + 1e-9
    assert d.min() >= params.xi_min - 1e-9
    assert check_flex_schedule(schedule, params, prices.h) == []


def test_ramp_relaxation_never_costs_more():
    # free ramping at least matches every capped run
    prices = sample_day()
    base = FlexParams(n_steps=96, t_a=25, t_d=72, K=25.0, y_max=4.0)
    free_cost = _solve(base, prices).total_cost
    for fraction in (0.05, 0.1, 0.4):
        capped = _solve(base.with_ramp_rate_fraction(fraction), prices)
        assert free_cost <= capped.total_cost + 1e-9


def test_cost_monotone_in_epsilon():
    prices = synthetic_day(23, n_steps=24)
    prev = np.inf
    for eps in (0.0, 0.01, 0.1, 0.5):
        params = FlexParams(n_steps=24, t_a=4, t_d=21, K=6.0, y_max=3.0,
                            epsilon=eps)
        cost = _solve(params, prices).total_cost
        assert cost <= prev + 1e-9
        prev = cost


def test_cost_monotone_in_xi():
    prices = sample_day()
    base = FlexParams(n_steps=96, t_a=25, t_d=72, K=25.0, y_max=4.0)
    prev = np.inf
    for fraction in (0.05, 0.1, 0.3, 0.6, 1.0):
        cost = _solve(base.with_ramp_rate_fraction(fraction),
                      prices).total_cost
        assert cost <= prev + 1e-9
        prev = cost


def test_checker_flags_tampered_schedule():
    prices = synthetic_day(29, n_steps=24)
    params = FlexParams(n_steps=24, t_a=5, t_d=20, K=4.0, y_max=2.0,
                        xi_min=-0.5, xi_max=0.5)
    schedule = _solve(params, prices)
    assert check_flex_schedule(schedule, params, prices.h) == []
    y = schedule.y.copy()
    y[0] = 1.0  # outside the window
    bad = type(schedule)(y=y, energy_cum=schedule.energy_cum,
                         step_cost=schedule.step_cost)
    assert check_flex_schedule(bad, params, prices.h)


def test_extract_rejects_non_optimal():
    prices = synthetic_day(31, n_steps=8)
    params = FlexParams(n_steps=8, t_a=1, t_d=8, K=1.0, y_max=2.0)
    sol = solve_lp(build_flex_lp(params, prices))
    bad = type(sol)(x=sol.x, objective=np.nan,
                    status=SolveStatus.NUMERICAL_FAILURE, stats=sol.stats)
    with pytest.raises(ValueError):
        extract_flex_schedule(bad, params, prices)


def test_matrix_matches_hand_expanded_golden(golden_dir):
    golden = parse_lp_dump(golden_dir / "flex_w2.txt")
    prices = PriceSignal(p_buy=[0.25, 0.5, 0.75, 1.0],
                         p_sell=[0.125, 0.25, 0.375, 0.5], h=0.25)
    params = FlexParams(n_steps=4, t_a=2, t_d=3, K=0.5, y_max=2.0,
                        xi_min=-0.5, xi_max=0.5, epsilon=0.03125)
    problem = build_flex_lp(params, prices)
    assert problem.A.shape == (golden["rows"], golden["cols"]) == (14, 8)
    assert np.array_equal(problem.A, golden["A"])
    assert np.array_equal(problem.b, golden["b"])
    assert np.array_equal(problem.f, golden["f"])
    assert np.array_equal(problem.lb, golden["lb"])
    assert np.array_equal(problem.ub, golden["ub"])
    assert problem.row_labels == golden["row_labels"]
    assert problem.col_labels == golden["col_labels"]
