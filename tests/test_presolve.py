"""Tests of the presolve in ``solve_lp``: which LPs it reduces, and that
the reduced LP's answer, mapped back, is the answer of the LP passed.

Storage LPs whose battery can both charge and discharge must pass through
untouched, so their solves stay what they were.  Flex LPs must shrink to
their window: w columns, the two deadline rows and 2w ramp rows.  Each
rule is also checked on a small LP with one condition broken at a time.
"""

from dataclasses import replace

import numpy as np
import pytest

from flexarb.analysis import (default_price_generator, monte_carlo_run,
                              ramp_rate_sweep, solve_storage_day)
from flexarb.lp import (BIG_BOUND, LpProblem, SolveStatus, _max_violation,
                        _presolve, _row_scale, solve_lp)
from flexarb.pricing import synthetic_day
from flexarb.storage import build_storage_lp

from test_simplex import (BATTERY, _mc_lps, flex_lps, highs,  # noqa: F401
                          storage_edge_lps, storage_lps)


def _matches(sol, problem, highs, rtol=1e-9):
    status, ref = highs(problem)
    return sol.status is status and (
        status is not SolveStatus.OPTIMAL
        or abs(sol.objective - ref) <= rtol * max(1.0, abs(ref)))


def test_storage_lps_pass_through_untouched():
    problems = (list(_mc_lps()) + [p for _, p in storage_edge_lps()]
                + [p for _, p in storage_lps(60, 41)])
    for problem in problems:
        assert _presolve(problem) is problem


def test_flex_lps_are_solved_on_their_window(highs):
    for label, problem in flex_lps(300, 31):
        n = problem.n_cols // 2
        w = (problem.n_rows - 2 * n - 2) // 2
        assert _presolve(problem).A.shape == (2 + 2 * w, w), label
        sol = solve_lp(problem)
        assert _matches(sol, problem, highs), label
        assert _max_violation(problem, sol.x, _row_scale(problem.A)) <= 1e-9
        again = solve_lp(problem, basis=sol.basis)
        assert again.stats.warm_start and again.stats.iterations == 0


def _epigraph_lp(**change):
    """min t  s.t.  2x - t <= 0,  x - t <= 0,  -x <= -0.5,  x in [0, 1]:
    t = 2x at every optimum, so the optimum is x = 0.5, t = 1."""
    lp = dict(f=[0.0, 1.0], A=[[2.0, -1.0], [1.0, -1.0], [-1.0, 0.0]],
              b=[0.0, 0.0, -0.5], lb=[0.0, -BIG_BOUND], ub=[1.0, BIG_BOUND])
    lp.update(change)
    return LpProblem(**lp)


def test_an_epigraph_column_folds_into_its_partners_cost(highs):
    problem = _epigraph_lp()
    reduced = _presolve(problem)
    assert reduced.A.shape == (1, 1) and list(reduced.f) == [2.0]
    assert reduced.col_labels is None
    sol = solve_lp(problem)
    assert _matches(sol, problem, highs)
    assert list(sol.x) == [0.5, 1.0]
    # a partner boxed below 0 takes the smallest ratio: t = x on [-1, -0.5]
    problem = _epigraph_lp(b=[0.0, 0.0, 1.0], lb=[-1.0, -BIG_BOUND],
                           ub=[-0.5, BIG_BOUND])
    assert list(_presolve(problem).f) == [1.0]
    sol = solve_lp(problem)
    assert _matches(sol, problem, highs) and list(sol.x) == [-1.0, -1.0]


@pytest.mark.parametrize("change", [
    dict(lb=[-1.0, -BIG_BOUND]),
    dict(b=[0.0, 0.1, -0.5]),
    dict(f=[0.0, 1.0, 0.0], A=[[2.0, -1.0, 1.0], [1.0, -1.0, 0.0],
                               [-1.0, 0.0, 0.0]],
         lb=[0.0, -BIG_BOUND, 0.0], ub=[1.0, BIG_BOUND, 1.0]),
    dict(A=[[2.0, -1.0], [1.0, -1.0], [-1.0, 0.0], [-3.0, 1.0]],
         b=[0.0, 0.0, -0.5, 0.0]),
], ids=["partner straddles 0", "b not 0", "two other nonzeros",
        "positive entry"])
def test_an_epigraph_column_that_breaks_a_condition_stays(change, highs):
    problem = _epigraph_lp(**change)
    assert _presolve(problem) is problem
    assert _matches(solve_lp(problem), problem, highs)


def test_a_fixed_column_moves_into_b(highs):
    # x + y <= 1 and x - y <= 0.5 with x fixed at 0.25: y in [0, 0.75]
    problem = LpProblem(f=[1.0, -1.0], A=[[1.0, 1.0], [1.0, -1.0]],
                        b=[1.0, 0.5], lb=[0.25, 0.0], ub=[0.25, 1.0],
                        col_labels=["x", "y"])
    reduced = _presolve(problem)
    assert reduced.col_labels == ("y",)
    assert np.array_equal(reduced.b, [0.75, 0.25])
    sol = solve_lp(problem)
    assert _matches(sol, problem, highs)
    assert list(sol.x) == [0.25, 0.75] and sol.basis[1].shape == (1,)


@pytest.mark.parametrize("rating", [
    dict(delta_min=0.0),
    dict(delta_max=0.0, b_0=0.8),
], ids=["charge only", "discharge only"])
def test_a_one_way_battery_matches_highs(rating, highs):
    # x boxed on one side of 0 lets the presolve fold every t away, and the
    # staged solve builds its ramp basis in the reduced layout.  Prices are
    # never negative, so a battery that can only charge stays idle and one
    # that can only discharge sells what it holds.
    params = replace(BATTERY, **rating)
    prices = synthetic_day(8, 96, 0.25)
    problem = build_storage_lp(params, prices)
    assert _presolve(problem).A.shape == (4 * 96, 96)
    sol = solve_storage_day(params, prices)
    assert sol.stats.warm_start  # from the ramp-free stage's basis
    assert _matches(sol, problem, highs)
    assert (sol.objective < 0.0) == (params.b_0 > params.b_min)
    fractions = [0.25, 0.5, 1.0]
    result = ramp_rate_sweep(params, prices, fractions)
    for phi, objective in zip(fractions, result.objective):
        status, ref = highs(build_storage_lp(
            params.with_ramp_rate_fraction(phi, 0.25), prices))
        assert abs(objective - ref) <= 1e-9 * max(1.0, abs(ref))
    gen = default_price_generator()
    report = monte_carlo_run(params, gen, 3, seed=5)
    assert not report.failures
    for child, objective in zip(np.random.SeedSequence(5).spawn(3),
                                report.objectives):
        status, ref = highs(build_storage_lp(params, gen(child),
                                             include_ramp_rate=False))
        assert abs(objective - ref) <= 1e-9 * max(1.0, abs(ref))


def test_a_zero_rating_is_answered_without_the_kernel(monkeypatch):
    from flexarb import _simplex
    monkeypatch.setattr(_simplex, "simplex_numpy", None)
    params = replace(BATTERY, delta_min=0.0, delta_max=0.0)
    problem = build_storage_lp(params, synthetic_day(8, 96, 0.25))
    assert _presolve(problem).n_cols == 0
    sol = solve_lp(problem)
    assert sol.status is SolveStatus.OPTIMAL and sol.objective == 0.0
    assert not sol.x.any()
    result = ramp_rate_sweep(params, synthetic_day(8, 96, 0.25), [0.5, 1.0])
    assert list(result.objective) == [0.0, 0.0]
