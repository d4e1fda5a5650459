"""Sensitivity-analysis tests: gains, cycles, switching, sweeps, batches."""

import json
from dataclasses import replace

import numpy as np
import pytest

from flexarb import analysis
from flexarb.analysis import (McReport, arbitrage_gain, default_price_generator,
                              equivalent_full_cycles, mc_to_dict,
                              monte_carlo_run, ramp_rate_sweep,
                              solve_storage_day, sweep_to_dict,
                              switching_count, write_sweep_csv,
                              write_sweep_json, xc_yc_sweep)
from flexarb.flexibility import FlexParams, build_flex_lp, \
    extract_flex_schedule, nominal_profile
from flexarb.lp import LpSolution, SolveStats, SolveStatus, solve_lp
from flexarb.pricing import PriceShape, PriceSignal, synthetic_day
from flexarb.storage import (StorageParams, StorageSchedule,
                             build_storage_lp, check_storage_schedule,
                             extract_storage_schedule)

from conftest import two_step_prices


def _constant_prices(n, value=0.2, h=0.25):
    p = np.full(n, value)
    return PriceSignal(p_buy=p, p_sell=p, h=h)


def _schedule(x, soc0=0.5):
    x = np.asarray(x, dtype=float)
    soc = soc0 + np.cumsum(x)
    return StorageSchedule(x=x, soc=soc, grid_power=x / 0.25,
                           step_cost=np.zeros_like(x))


def test_gain_of_idle_schedule_is_zero():
    prices = _constant_prices(4)
    params = StorageParams(b_min=0.5, b_max=1.0, b_0=0.5, delta_min=-2.0,
                           delta_max=2.0, eta_ch=0.95, eta_dis=0.95)
    sol = solve_lp(build_storage_lp(params, prices))
    schedule = extract_storage_schedule(sol, params, prices)
    assert arbitrage_gain(schedule) == pytest.approx(0.0, abs=1e-9)


def test_gain_of_two_step_spread():
    prices = two_step_prices(0.1, 0.5)
    params = StorageParams(b_min=0.0, b_max=0.8, b_0=0.0, delta_min=-6.4,
                           delta_max=6.4)
    sol = solve_lp(build_storage_lp(params, prices))
    schedule = extract_storage_schedule(sol, params, prices)
    assert arbitrage_gain(schedule) == pytest.approx(0.32, abs=1e-9)


def test_flex_gain_vanishes_at_constant_prices():
    prices = _constant_prices(16, 0.3)
    params = FlexParams(n_steps=16, t_a=3, t_d=14, K=3.0, y_max=2.0,
                        epsilon=0.0)
    nominal = nominal_profile(params, prices)
    sol = solve_lp(build_flex_lp(params, prices))
    schedule = extract_flex_schedule(sol, params, prices)
    assert arbitrage_gain(schedule, nominal) == pytest.approx(0.0, abs=1e-9)


def test_cycle_counting():
    params = StorageParams(b_min=0.0, b_max=1.0, b_0=1.0, delta_min=-4.0,
                           delta_max=4.0)
    assert equivalent_full_cycles(_schedule([-1.0], soc0=1.0),
                                  params) == pytest.approx(1.0)
    assert equivalent_full_cycles(_schedule([0.0, 0.0]), params) == 0.0
    # two half-depth discharges add up to one equivalent full cycle
    two_half = _schedule([-0.5, 0.5, -0.5], soc0=1.0)
    assert equivalent_full_cycles(two_half, params) == pytest.approx(1.0)
    flat = StorageParams(b_min=0.5, b_max=0.5, b_0=0.5, delta_min=-1.0,
                         delta_max=1.0)
    with pytest.raises(ValueError, match="cycle"):
        equivalent_full_cycles(_schedule([0.0]), flat)


def test_switching_count_examples():
    # constant power then off: one change up from rest, one change down
    assert switching_count(np.array([2.0, 2.0, 2.0, 0.0])) == 2
    assert switching_count(np.zeros(5)) == 0
    assert switching_count(np.array([0.0, 1.0, 0.5, 0.5])) == 2
    # accepts schedules as well as raw arrays
    assert switching_count(_schedule([0.4, 0.4, 0.0], soc0=0.0)) == 2
    # sub-tolerance wiggles are not switches
    assert switching_count(np.array([0.0, 5e-7, 0.0])) == 0


def test_sweep_reference_is_exactly_100_pct():
    prices = synthetic_day(3, n_steps=24)
    params = StorageParams(b_min=0.2, b_max=1.0, b_0=0.2, delta_min=-0.5,
                           delta_max=0.5, eta_ch=0.95, eta_dis=0.95)
    fr = np.array([0.05, 0.1, 0.5, 1.0])
    result = ramp_rate_sweep(params, prices, fr)
    assert result.marginal_gain_pct[-1] == 100.0
    assert np.all(np.diff(result.marginal_gain_pct) >= -1e-9)
    assert np.all(result.gain == -result.objective)


def test_sweep_marginals_nan_when_reference_gain_zero():
    prices = _constant_prices(8)
    params = StorageParams(b_min=0.5, b_max=1.0, b_0=0.5, delta_min=-2.0,
                           delta_max=2.0, eta_ch=0.9, eta_dis=0.9)
    result = ramp_rate_sweep(params, prices, [0.5, 1.0])
    assert np.isnan(result.marginal_gain_pct).all()
    assert np.isnan(result.gain_per_cycle).all()  # no cycling either


def test_sweep_fraction_validation():
    prices = synthetic_day(1, n_steps=8)
    params = StorageParams(b_min=0.0, b_max=1.0, b_0=0.5, delta_min=-1.0,
                           delta_max=1.0)
    with pytest.raises(ValueError):
        ramp_rate_sweep(params, prices, [])
    with pytest.raises(ValueError):
        ramp_rate_sweep(params, prices, [0.0, 0.5])
    with pytest.raises(ValueError):
        ramp_rate_sweep(params, prices, [0.5, 1.2])
    with pytest.raises(ValueError):
        ramp_rate_sweep(params, prices, [0.5, 0.3])


@pytest.mark.parametrize("c_rates, fractions, bad", [
    ([1.0], [np.nan, 0.5, 1.0], "nan"),
    ([1.0], [0.5, np.inf], "inf"),
    ([1.0, -1.0], [0.5, 1.0], "-1.0"),
    ([1.0, np.inf], [0.5, 1.0], "inf"),
    ([np.nan], [1.0], "nan"),
])
def test_bad_sweep_inputs_are_rejected_before_any_solve(c_rates, fractions,
                                                        bad, monkeypatch):
    calls = []
    monkeypatch.setattr(analysis, "solve_lp",
                        lambda *args, **kwargs: calls.append(args))
    prices = synthetic_day(1, n_steps=8)
    params = StorageParams(b_min=0.0, b_max=1.0, b_0=0.5, delta_min=-1.0,
                           delta_max=1.0)
    with pytest.raises(ValueError, match=f"got {bad}$"):
        xc_yc_sweep(params, prices, c_rates, fractions)
    if c_rates == [1.0]:  # bad fractions alone
        with pytest.raises(ValueError, match=f"got {bad}$"):
            ramp_rate_sweep(params, prices, fractions)
    assert calls == []


def test_xcyc_grid_shape_and_reference():
    prices = synthetic_day(5, n_steps=24)
    params = StorageParams(b_min=0.2, b_max=1.0, b_0=0.2, delta_min=-0.5,
                           delta_max=0.5, eta_ch=0.95, eta_dis=0.95)
    c_rates = [0.25, 0.5, 1.0]
    fractions = [0.1, 0.5, 1.0]
    curves = xc_yc_sweep(params, prices, c_rates, fractions)
    assert len(curves) == len(c_rates)
    for curve in curves:
        assert curve.fractions.size == len(fractions)
        assert curve.marginal_gain_pct[-1] == 100.0
        assert np.all(np.diff(curve.gain) >= -1e-9)
    with pytest.raises(ValueError, match="c-rates"):
        xc_yc_sweep(params, prices, [0.0], fractions)


def test_monte_carlo_deterministic_for_fixed_seed():
    params = StorageParams(b_min=0.2, b_max=1.0, b_0=0.2, delta_min=-0.5,
                           delta_max=0.5, eta_ch=0.95, eta_dis=0.95)
    gen = default_price_generator(n_steps=24)
    a = monte_carlo_run(params, gen, scenario_count=8, seed=42)
    b = monte_carlo_run(params, gen, scenario_count=8, seed=42)
    assert a.objectives.tobytes() == b.objectives.tobytes()
    assert a.failures == b.failures == ()
    assert a.total_gain == b.total_gain
    c = monte_carlo_run(params, gen, scenario_count=8, seed=43)
    assert c.objectives.tobytes() != a.objectives.tobytes()


def test_monte_carlo_single_scenario():
    params = StorageParams(b_min=0.2, b_max=1.0, b_0=0.2, delta_min=-0.5,
                           delta_max=0.5)
    report = monte_carlo_run(params, default_price_generator(n_steps=12),
                             scenario_count=1, seed=0)
    assert report.scenario_count == 1
    assert report.objectives.shape == (1,)
    assert np.isfinite(report.objectives[0])
    with pytest.raises(ValueError):
        monte_carlo_run(params, default_price_generator(), 0, seed=0)


def test_monte_carlo_records_failures_and_continues():
    params = StorageParams(b_min=0.2, b_max=1.0, b_0=0.2, delta_min=-0.5,
                           delta_max=0.5)
    inner = default_price_generator(n_steps=12)
    calls = {"n": 0}

    def flaky(seed):
        i = calls["n"]
        calls["n"] += 1
        if i == 1:
            raise ValueError("synthetic outage")
        return inner(seed)

    report = monte_carlo_run(params, flaky, scenario_count=3, seed=7)
    assert len(report.failures) == 1
    idx, status = report.failures[0]
    assert idx == 1 and "synthetic outage" in status
    assert np.isnan(report.objectives[1])
    assert np.isfinite(report.objectives[[0, 2]]).all()


def test_sweep_serialisation(tmp_path):
    prices = synthetic_day(9, n_steps=24)
    params = StorageParams(b_min=0.2, b_max=1.0, b_0=0.2, delta_min=-0.5,
                           delta_max=0.5, eta_ch=0.95, eta_dis=0.95)
    result = ramp_rate_sweep(params, prices, [0.2, 0.6, 1.0])
    csv_path = tmp_path / "sweep.csv"
    write_sweep_csv(result, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "fraction,gain,marginal_gain_pct,cycles,gain_per_cycle"
    assert len(lines) == 1 + 3
    assert lines[-1].startswith("1,")
    json_path = tmp_path / "sweep.json"
    write_sweep_json(result, json_path)
    data = json.loads(json_path.read_text())
    assert data["fraction"] == [0.2, 0.6, 1.0]
    assert data["marginal_gain_pct"][-1] == 100.0


def test_sweep_to_dict_maps_nan_to_none():
    prices = _constant_prices(8)
    params = StorageParams(b_min=0.5, b_max=1.0, b_0=0.5, delta_min=-2.0,
                           delta_max=2.0, eta_ch=0.9, eta_dis=0.9)
    result = ramp_rate_sweep(params, prices, [0.5, 1.0])
    data = sweep_to_dict(result)
    assert data["marginal_gain_pct"] == [None, None]
    json.dumps(data, allow_nan=False)  # must be strictly JSON-safe


def test_mc_serialisation():
    params = StorageParams(b_min=0.2, b_max=1.0, b_0=0.2, delta_min=-0.5,
                           delta_max=0.5)
    report = monte_carlo_run(params, default_price_generator(n_steps=12),
                             scenario_count=4, seed=5)
    data = mc_to_dict(report)
    assert data["scenario_count"] == 4
    assert len(data["objectives"]) == 4
    assert data["failures"] == []
    assert "mean_wall_time_s" in data
    lean = mc_to_dict(report, include_wall_time=False)
    assert "mean_wall_time_s" not in lean


def test_mc_report_mean_wall_time():
    report = McReport(scenario_count=4, objectives=np.zeros(4),
                      wall_times_s=np.full(4, 0.25), failures=(),
                      total_gain=0.0, total_wall_time_s=1.0)
    assert report.mean_wall_time_s == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# warm-started sweeps
# ---------------------------------------------------------------------------

#: The CLI's default battery.
BATTERY = StorageParams(b_min=0.2, b_max=1.0, b_0=0.2, delta_min=-0.5,
                        delta_max=0.5, eta_ch=0.95, eta_dis=0.95)
SWEEP_FRACTIONS = (0.05, 0.1, 0.3, 0.5, 1.0)


def _sweep_cases():
    """(label, params, prices, cycles fixed by the LP)."""
    day = synthetic_day(5, 96, 0.25)
    mid = 0.5 * (BATTERY.b_min + BATTERY.b_max)
    for c_rate in (0.5, 1.0, 2.0):
        yield (f"c={c_rate}", replace(BATTERY, delta_min=-c_rate,
                                      delta_max=c_rate), day, True)
    # selling at price 0 makes dumping stored energy cost nothing, so from
    # b_0 above b_min the optimal schedules differ in their cycles: the
    # warm chain keeps the top solve's full discharge (1.0 cycles at every
    # fraction here), separate cold solves stop anywhere from 0.03 to 0.94
    for b_0 in (BATTERY.b_min, mid, BATTERY.b_max):
        yield (f"kappa=0 b_0={b_0}", replace(BATTERY, b_0=b_0),
               synthetic_day(7, 96, 0.25, shape=PriceShape(kappa=0.0)),
               b_0 == BATTERY.b_min)
    yield ("equal slopes", replace(BATTERY, b_0=mid, eta_ch=1.0,
                                   eta_dis=1.0), day, True)


@pytest.mark.parametrize("label, params, prices, fixed",
                         list(_sweep_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_warm_sweep_matches_cold_solves_and_highs(label, params, prices,
                                                  fixed, monkeypatch):
    linprog = pytest.importorskip("scipy.optimize").linprog
    warm = []

    def recording_solve(problem, *args, **kwargs):
        warm.append(solve_lp(problem, *args, **kwargs))
        return warm[-1]

    monkeypatch.setattr(analysis, "solve_lp", recording_solve)
    result = ramp_rate_sweep(params, prices, SWEEP_FRACTIONS)
    for k, phi in enumerate(SWEEP_FRACTIONS):
        p_k = params.with_ramp_rate_fraction(phi, prices.h)
        problem = build_storage_lp(p_k, prices)
        cold = solve_lp(problem)
        ref = linprog(problem.f, A_ub=problem.A, b_ub=problem.b,
                      bounds=list(zip(problem.lb, problem.ub)),
                      method="highs").fun
        assert abs(result.objective[k] - cold.objective) <= 1e-9, phi
        assert abs(result.objective[k] - ref) <= 1e-9 * max(1.0, abs(ref))
        sched = extract_storage_schedule(warm[-1 - k], p_k, prices)
        assert check_storage_schedule(sched, p_k, prices.h) == []
        assert abs(sched.total_cost - cold.objective) <= 1e-9
        if fixed:
            cycles = equivalent_full_cycles(
                extract_storage_schedule(cold, p_k, prices), p_k)
            assert abs(result.cycles[k] - cycles) <= 1e-9, phi


def test_sweep_warm_starts_every_solve_after_the_first(monkeypatch):
    calls = []

    def recording_solve(problem, *args, **kwargs):
        sol = solve_lp(problem, *args, **kwargs)
        calls.append((problem, sol))
        return sol

    monkeypatch.setattr(analysis, "solve_lp", recording_solve)
    prices = synthetic_day(5, 96, 0.25)
    ramp_rate_sweep(BATTERY, prices, [0.1, 0.25, 0.5, 1.0])
    # the cold root is the top LP's ramp-free relaxation (4N rows); every
    # LP with ramp rows (6N rows) starts warm
    assert [p.n_rows for p, _ in calls] == [4 * 96] + [6 * 96] * 4
    assert [sol.stats.warm_start for _, sol in calls] == [False] + [True] * 4
    for problem, sol in calls[1:]:
        cold = solve_lp(problem)
        assert sol.stats.iterations < cold.stats.iterations
    # without 1.0 among the fractions the reference solve at 1.0 comes first
    calls.clear()
    result = ramp_rate_sweep(BATTERY, prices, [0.25, 0.5])
    assert [p.n_rows for p, _ in calls] == [4 * 96] + [6 * 96] * 3
    assert [sol.stats.warm_start for _, sol in calls] == [False] + [True] * 3
    assert result.solution is calls[2][1]


def test_mc_solves_the_model_without_ramp_rows():
    # With tau unset, mc drops the ramp rows.  For the default battery the
    # rows at tau = X (X = 0.125 kWh per step) still bind: a swing from -X
    # to +X is 2X, and only X >= 2 x usable capacity makes them a no-op.
    gen = default_price_generator()
    report = monte_carlo_run(BATTERY, gen, 4, seed=7)
    seeds = np.random.SeedSequence(7).spawn(4)
    for i, child in enumerate(seeds):
        day = gen(child)
        free = solve_lp(build_storage_lp(BATTERY, day,
                                         include_ramp_rate=False))
        at_x = solve_lp(build_storage_lp(BATTERY, day))
        assert report.objectives[i] == free.objective
        assert at_x.objective > free.objective + 1e-6


# ---------------------------------------------------------------------------
# staged solve: ramp-free relaxation, then the ramp rows by the dual phase
# ---------------------------------------------------------------------------


def _recording(monkeypatch):
    """The solve_lp calls made through the analysis module, as
    (problem, kwargs, solution) triples."""
    calls = []

    def recording_solve(problem, **kwargs):
        calls.append((problem, kwargs, solve_lp(problem, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(analysis, "solve_lp", recording_solve)
    return calls


@pytest.mark.parametrize("label, params, prices, fixed",
                         list(_sweep_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_staged_solve_matches_cold_solves_and_highs(label, params, prices,
                                                    fixed, monkeypatch):
    linprog = pytest.importorskip("scipy.optimize").linprog
    calls = _recording(monkeypatch)
    for phi in SWEEP_FRACTIONS:
        p_k = params.with_ramp_rate_fraction(phi, prices.h)
        calls.clear()
        staged = solve_storage_day(p_k, prices)
        problem = build_storage_lp(p_k, prices)
        cold = solve_lp(problem)
        ref = linprog(problem.f, A_ub=problem.A, b_ub=problem.b,
                      bounds=list(zip(problem.lb, problem.ub)),
                      method="highs").fun
        assert [c[0].n_rows for c in calls] == [4 * 96, 6 * 96]
        assert staged.stats.warm_start
        assert abs(staged.objective - cold.objective) <= 1e-9, phi
        assert abs(staged.objective - ref) <= 1e-9 * max(1.0, abs(ref))
        sched = extract_storage_schedule(staged, p_k, prices)
        assert check_storage_schedule(sched, p_k, prices.h) == []
        assert abs(sched.total_cost - cold.objective) <= 1e-9


def test_staged_solve_stats_add_up_both_stages(monkeypatch):
    calls = _recording(monkeypatch)
    staged = solve_storage_day(BATTERY, synthetic_day(5, 96, 0.25))
    relaxed, full = (c[2] for c in calls)
    assert staged.stats.iterations == (relaxed.stats.iterations
                                       + full.stats.iterations)
    assert staged.stats.wall_time_s == (relaxed.stats.wall_time_s
                                        + full.stats.wall_time_s)
    assert staged.stats.warm_start is full.stats.warm_start is True
    assert staged.stats.max_residual == full.stats.max_residual
    assert np.array_equal(staged.x, full.x)
    assert all(map(np.array_equal, staged.basis, full.basis))
    # the relaxed basis, with the 2N ramp rows' slacks appended as basic
    basic, at_ub = relaxed.basis
    assert np.array_equal(calls[1][1]["basis"][0],
                          np.concatenate([basic, 192 + np.arange(384, 576)]))
    assert calls[1][1]["basis"][1] is at_ub


def test_staged_solve_repairs_nothing_when_ramp_rows_cannot_bind(
        monkeypatch):
    # X = 2 kWh per step is more than twice the 0.8 kWh usable, so the
    # relaxed optimum already meets every ramp row
    params = replace(BATTERY, delta_min=-8.0, delta_max=8.0)
    calls = _recording(monkeypatch)
    for seed in range(3):
        calls.clear()
        staged = solve_storage_day(params, synthetic_day(seed, 96, 0.25))
        full = calls[1][2]
        assert full.stats.warm_start
        assert full.stats.iterations == 0
        assert staged.stats.iterations == calls[0][2].stats.iterations


@pytest.mark.parametrize("failure", [SolveStatus.INFEASIBLE,
                                     SolveStatus.NUMERICAL_FAILURE])
def test_staged_solve_after_a_failed_relaxation_is_the_cold_solve(
        failure, monkeypatch):
    calls = []

    def solve(problem, **kwargs):
        calls.append(kwargs)
        if problem.n_rows == 4 * 96:
            return LpSolution(np.full(problem.n_cols, np.nan), np.nan,
                              failure, SolveStats(7, 0.0, np.nan))
        return solve_lp(problem, **kwargs)

    monkeypatch.setattr(analysis, "solve_lp", solve)
    prices = synthetic_day(5, 96, 0.25)
    staged = solve_storage_day(BATTERY, prices)
    cold = solve_lp(build_storage_lp(BATTERY, prices))
    assert calls == [{}, {"basis": None}]
    assert staged.status is cold.status
    assert staged.objective == cold.objective
    assert not staged.stats.warm_start
    assert staged.stats.iterations == 7 + cold.stats.iterations


def test_staged_solve_passes_a_given_basis_straight_through(monkeypatch):
    prices = synthetic_day(5, 96, 0.25)
    top = solve_lp(build_storage_lp(BATTERY, prices))
    calls = _recording(monkeypatch)
    half = BATTERY.with_ramp_rate_fraction(0.5, prices.h)
    sol = solve_storage_day(half, prices, basis=top.basis)
    assert len(calls) == 1 and calls[0][1]["basis"] is top.basis
    assert sol is calls[0][2]
    # without ramp rows there is nothing to stage
    calls.clear()
    sol = solve_storage_day(BATTERY, prices, include_ramp_rate=False)
    assert [c[0].n_rows for c in calls] == [4 * 96]
    assert sol is calls[0][2]
