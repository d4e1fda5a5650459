"""Differential fuzz of the storage and flex solves against HiGHS.

Hypothesis draws storage days from the corners where a simplex is most
likely to go wrong: tight ramp rates, sell price zero (kappa = 0), equal
buy and sell slopes, and b_0 at b_min or b_max.  It draws flex sessions
from windows of one step to the whole day, with the energy target
anywhere from the window's floor up to exactly its ceiling and deadline
bands down to zero width.  The draws are derandomized, so every run checks
the same examples.
"""

import pytest

pytest.importorskip("hypothesis")
linprog = pytest.importorskip("scipy.optimize").linprog

from hypothesis import given, settings, strategies as st  # noqa: E402

from flexarb.analysis import solve_storage_day  # noqa: E402
from flexarb.flexibility import (FlexParams, build_flex_lp,  # noqa: E402
                                 check_flex_schedule, extract_flex_schedule)
from flexarb.lp import SolveStatus, solve_lp  # noqa: E402
from flexarb.pricing import PriceShape, synthetic_day  # noqa: E402
from flexarb.storage import (StorageParams, build_storage_lp,  # noqa: E402
                             check_storage_schedule,
                             extract_storage_schedule)


def _highs(problem):
    return linprog(problem.f, A_ub=problem.A, b_ub=problem.b,
                   bounds=list(zip(problem.lb, problem.ub)), method="highs")


@st.composite
def storage_days(draw):
    """(params, prices) of one day covering 24 h, tau set."""
    n = draw(st.sampled_from([24, 48, 96]))
    h = 24.0 / n
    kappa = draw(st.sampled_from([0.0, 0.5, 1.0]))
    prices = synthetic_day(draw(st.integers(0, 2 ** 32 - 1)), n, h,
                           shape=PriceShape(kappa=kappa))
    b_min = draw(st.sampled_from([0.0, 0.2]))
    b_0 = draw(st.sampled_from([b_min, 0.5 * (b_min + 1.0), 1.0]))
    c_rate = draw(st.floats(0.1, 4.0))
    eta = draw(st.sampled_from([1.0, 0.9]))
    fraction = draw(st.one_of(st.sampled_from([0.01, 0.05, 0.1]),
                              st.floats(0.01, 1.0)))
    params = StorageParams(b_min=b_min, b_max=1.0, b_0=b_0,
                           delta_min=-c_rate, delta_max=c_rate,
                           eta_ch=eta, eta_dis=eta)
    return params.with_ramp_rate_fraction(fraction, h), prices


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(storage_days())
def test_staged_solve_matches_cold_solve_and_highs(day):
    params, prices = day
    problem = build_storage_lp(params, prices)
    staged = solve_storage_day(params, prices)
    cold = solve_lp(problem)
    ref = _highs(problem)
    assert ref.status == 0
    assert staged.status is cold.status is SolveStatus.OPTIMAL
    assert abs(staged.objective - cold.objective) <= 1e-9
    assert abs(staged.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
    sched = extract_storage_schedule(staged, params, prices)
    assert check_storage_schedule(sched, params, prices.h) == []


@st.composite
def flex_sessions(draw):
    """(params, prices) of one session; its LP is always feasible, since a
    constant profile meets any target between the window's floor and
    ceiling whatever the ramp rate."""
    n = draw(st.sampled_from([24, 48, 96]))
    h = 24.0 / n
    prices = synthetic_day(draw(st.integers(0, 2 ** 32 - 1)), n, h)
    window = draw(st.integers(1, n))
    t_a = draw(st.integers(1, n - window + 1))
    y_max = draw(st.floats(1.0, 11.0))
    y_min = draw(st.sampled_from([0.0, 0.05, 0.3])) * y_max
    floor = h * window * y_min
    ceil = h * window * y_max
    share = draw(st.sampled_from([0.0, 0.3, 0.7, 0.99, 1.0]))
    K = ceil if share == 1.0 else floor + share * (ceil - floor)
    epsilon = draw(st.sampled_from([0.0, K / 1000.0]))
    fraction = draw(st.sampled_from([0.01, 0.05, 0.2, 0.5, 1.0]))
    params = FlexParams(n_steps=n, t_a=t_a, t_d=t_a + window - 1, K=K,
                        y_max=y_max, y_min=y_min, epsilon=epsilon)
    return params.with_ramp_rate_fraction(fraction), prices


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(flex_sessions())
def test_flex_solve_matches_highs(session):
    params, prices = session
    params.validate(prices.h)
    problem = build_flex_lp(params, prices)
    sol = solve_lp(problem)
    ref = _highs(problem)
    assert ref.status == 0
    assert sol.status is SolveStatus.OPTIMAL
    assert abs(sol.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
    sched = extract_flex_schedule(sol, params, prices)
    assert check_flex_schedule(sched, params, prices.h) == []
