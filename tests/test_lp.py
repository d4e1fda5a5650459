"""Solver contract tests: statuses, determinism, tolerances, diagnostics."""

import numpy as np
import pytest

from flexarb import cli, lp
from flexarb.lp import (BIG_BOUND, LpProblem, LpValidationError, SolveStatus,
                        dump_lp, solve_lp, validate_lp)
from flexarb.oracle import solve_storage_oracle
from flexarb.pricing import PriceSignal, synthetic_day
from flexarb.storage import StorageParams, build_storage_lp, \
    step_cost_segments

from conftest import parse_lp_dump


def abs_epigraph_problem():
    # min t subject to x - t <= 0, -x - t <= 0, x in [-1, 1], t in [-10, 10]
    return LpProblem(f=[0.0, 1.0],
                     A=[[1.0, -1.0], [-1.0, -1.0]],
                     b=[0.0, 0.0],
                     lb=[-1.0, -10.0],
                     ub=[1.0, 10.0])


def test_abs_epigraph_minimum_at_origin():
    sol = solve_lp(abs_epigraph_problem())
    assert sol.status is SolveStatus.OPTIMAL
    assert abs(sol.objective) <= 1e-9
    assert np.allclose(sol.x, [0.0, 0.0], atol=1e-9)


def test_four_step_alternating_prices_matches_dp():
    p = np.array([0.1, 0.5, 0.1, 0.5])
    prices = PriceSignal(p_buy=p, p_sell=p, h=0.25)
    params = StorageParams(b_min=0.0, b_max=1.0, b_0=0.0, delta_min=-2.0,
                           delta_max=2.0, tau_min=-0.5, tau_max=0.5)
    sol = solve_lp(build_storage_lp(params, prices))
    assert sol.status is SolveStatus.OPTIMAL
    oracle_obj, _ = solve_storage_oracle(params, prices, grid_points=101)
    grid_cell = params.usable_capacity / 100
    bound = 2.0 * grid_cell * p.max()
    assert sol.objective <= oracle_obj + 1e-9
    assert oracle_obj - sol.objective <= bound


def test_inverted_bounds_rejected_before_solve():
    problem = LpProblem(f=[1.0], A=[[1.0]], b=[1.0], lb=[2.0], ub=[1.0])
    diags = validate_lp(problem)
    assert any("empty bound interval" in d for d in diags)
    with pytest.raises(LpValidationError):
        solve_lp(problem)


def test_dimension_mismatch_diagnosed():
    problem = LpProblem(f=[1.0, 1.0], A=[[1.0, 0.0], [0.0, 1.0]],
                        b=[1.0], lb=[0.0, 0.0], ub=[1.0, 1.0])
    diags = validate_lp(problem)
    assert any("length 1" in d and "expected 2" in d for d in diags)


def test_nonfinite_entry_diagnosed():
    problem = LpProblem(f=[1.0], A=[[1.0]], b=[np.inf], lb=[0.0], ub=[1.0])
    assert any("non-finite" in d for d in validate_lp(problem))


def test_wellformed_full_day_problem_passes_validation():
    prices = synthetic_day(3, n_steps=96)
    params = StorageParams(b_min=0.2, b_max=1.0, b_0=0.5, delta_min=-0.5,
                           delta_max=0.5, eta_ch=0.95, eta_dis=0.95)
    assert validate_lp(build_storage_lp(params, prices)) == []


def test_infeasible_status():
    # x <= -1 and -x <= -1 cannot both hold
    problem = LpProblem(f=[1.0], A=[[1.0], [-1.0]], b=[-1.0, -1.0],
                        lb=[-5.0], ub=[5.0])
    sol = solve_lp(problem)
    assert sol.status is SolveStatus.INFEASIBLE
    assert np.isnan(sol.objective)


def test_pure_box_problem_short_circuits():
    problem = LpProblem(f=[1.0, -1.0], A=np.zeros((0, 2)), b=[],
                        lb=[-2.0, -2.0], ub=[3.0, 3.0])
    sol = solve_lp(problem)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-5.0)
    assert sol.stats.iterations == 0
    # a zero-cost column with one infinite bound rests on its finite one
    problem = LpProblem(f=[0.0, 0.0, 1.0], A=np.zeros((0, 3)), b=[],
                        lb=[-np.inf, 0.0, 0.0], ub=[1.0, np.inf, 2.0])
    sol = solve_lp(problem)
    assert sol.status is SolveStatus.OPTIMAL
    assert np.array_equal(sol.x, [1.0, 0.0, 0.0]) and sol.objective == 0.0


def test_solver_is_bitwise_deterministic():
    prices = synthetic_day(5, n_steps=24)
    params = StorageParams(b_min=0.1, b_max=0.9, b_0=0.3, delta_min=-1.0,
                           delta_max=1.0, eta_ch=0.92, eta_dis=0.97)
    problem = build_storage_lp(params, prices)
    a = solve_lp(problem)
    b = solve_lp(problem)
    assert a.status is b.status
    assert a.x.tobytes() == b.x.tobytes()
    assert a.objective == b.objective
    assert a.stats.iterations == b.stats.iterations


def test_optimal_point_feasible_within_tolerance():
    prices = synthetic_day(9, n_steps=48)
    params = StorageParams(b_min=0.2, b_max=1.0, b_0=0.2, delta_min=-0.5,
                           delta_max=0.5, eta_ch=0.95, eta_dis=0.95,
                           tau_min=-0.0125, tau_max=0.0125)
    problem = build_storage_lp(params, prices)
    sol = solve_lp(problem)
    assert sol.status is SolveStatus.OPTIMAL
    r = problem.A @ sol.x - problem.b
    assert r.max() <= 1e-6
    assert (problem.lb - sol.x).max() <= 1e-6
    assert (sol.x - problem.ub).max() <= 1e-6
    assert sol.objective == pytest.approx(float(problem.f @ sol.x), rel=1e-9)


def test_epigraph_variables_bind_at_optimum():
    for seed in (0, 1, 2):
        prices = synthetic_day(seed, n_steps=16)
        params = StorageParams(b_min=0.0, b_max=2.0, b_0=1.0,
                               delta_min=-1.5, delta_max=1.5,
                               eta_ch=0.9, eta_dis=0.9)
        sol = solve_lp(build_storage_lp(params, prices))
        assert sol.status is SolveStatus.OPTIMAL
        n = len(prices)
        t = sol.x[n:]
        seg = step_cost_segments(sol.x[:n], prices, params)
        assert np.abs(t - seg).max() <= 1e-6


def test_dump_roundtrip(tmp_path):
    prices = PriceSignal(p_buy=[0.25, 0.5], p_sell=[0.125, 0.25], h=0.25)
    params = StorageParams(b_min=0.25, b_max=1.0, b_0=0.5, delta_min=-2.0,
                           delta_max=2.0, tau_min=-0.125, tau_max=0.125)
    problem = build_storage_lp(params, prices)
    path = tmp_path / "dump.txt"
    dump_lp(problem, path)
    parsed = parse_lp_dump(path)
    assert parsed["rows"] == problem.n_rows
    assert parsed["cols"] == problem.n_cols
    assert np.array_equal(parsed["A"], problem.A)
    assert np.array_equal(parsed["b"], problem.b)
    assert np.array_equal(parsed["f"], problem.f)
    assert np.array_equal(parsed["lb"], problem.lb)
    assert np.array_equal(parsed["ub"], problem.ub)
    assert parsed["row_labels"] == problem.row_labels
    assert parsed["col_labels"] == problem.col_labels


def _labelled_lp(f, A, lb, ub, b=(0.0, 0.0)):
    """An LP whose columns are labelled x, t and s in order."""
    return LpProblem(f=f, A=A, b=b[:len(A)], lb=lb, ub=ub,
                     col_labels=("x", "t", "s")[:len(f)])


#: (kind, LP whose column t is outside the solver's class, reason)
OUT_OF_CLASS = [
    # no row bounds t, so tightening leaves both of its bounds far
    ("both sides", _labelled_lp([0.0, 0.0], [[1.0, 0.0]],
                                [-1.0, -BIG_BOUND], [1.0, BIG_BOUND]),
     "both bounds"),
    ("free", _labelled_lp([0.0, 1.0], [[1.0, 0.0]], [-1.0, -np.inf],
                          [1.0, np.inf]), "both bounds"),
    # t tightens the second row as it grows toward its infinite upper
    # bound, which the elastic s keeps from being tightened
    ("not elastic", _labelled_lp([0.0, 1.0, 1.0],
                                 [[1.0, -1.0, 0.0], [-1.0, 1.0, -1.0]],
                                 [-1.0, 0.0, 0.0], [1.0, np.inf, np.inf],
                                 b=(0.0, 5.0)), "tightens a row"),
    # min -t s.t. |x| <= t: t is elastic, but its cost falls as it grows
    ("cost falls", _labelled_lp([0.0, -1.0], [[1.0, -1.0], [-1.0, -1.0]],
                                [-1.0, 0.0], [1.0, BIG_BOUND]), "cost falls"),
]


def test_solve_lp_takes_only_boxed_and_elastic_columns(monkeypatch,
                                                       tmp_path):
    for kind, problem, why in OUT_OF_CLASS:
        assert validate_lp(problem) == [], kind
        with pytest.raises(LpValidationError, match=f"column t .*{why}"):
            solve_lp(problem)
    # min t s.t. |x| <= t, with t up to 1e9, is in the class
    epigraph = _labelled_lp([0.0, 1.0], [[1.0, -1.0], [-1.0, -1.0]],
                            [-1.0, 0.0], [1.0, BIG_BOUND])
    assert solve_lp(epigraph).status is SolveStatus.OPTIMAL
    # every LP the CLI modes build on the bundled day (mc on synthetic
    # days) passes the check
    check = lp._class_diagnostic
    seen = []
    monkeypatch.setattr(lp, "_class_diagnostic",
                        lambda *a: seen.append(check(*a)) or seen[-1])
    for argv in (["storage"], ["flex"], ["sweep", "--fractions", "0.5 1"],
                 ["xcyc", "--fractions", "0.5 1", "--c-rates", "1"],
                 ["mc", "--count", "2"]):
        del seen[:]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        assert seen and seen == [None] * len(seen), argv
