"""Differential tests of the numpy simplex kernel.

The kernel's answers are compared with HiGHS (scipy's ``linprog``) on
fixed-seed families of storage, flexible-load and random boxed LPs, all
of the kernel's class: statuses must agree and objectives must match to
``1e-6 * max(1, |HiGHS|)``, the benchmark gate's rule.

The reduced-basis inverse is also checked directly: after every pivot of
a random walk through all kinds of basis change, ``solve`` and ``btran``
must invert the explicit basis matrix.  So is the crash basis: its start
must be consistent with its own rows, bound flips alone must make the
storage and flex starts dual-feasible, and a solve from it passed as a
basis must be the cold solve.  A singular given basis must raise in the
kernel and cost ``solve_lp`` exactly one cold kernel call more.  The dual
phase is checked on a bound-flipping step and an infeasible LP, and the
final basic values on a long run of updates.  Iteration counts are
deterministic, so budgets on them catch a slower start path without
timing noise.
"""

from dataclasses import replace

import numpy as np
import pytest

from flexarb import _simplex, lp
from flexarb.flexibility import FlexParams, build_flex_lp
from flexarb.lp import BIG_BOUND, LpProblem, SolveStatus, solve_lp
from flexarb.pricing import PriceShape, synthetic_day
from flexarb.storage import StorageParams, build_storage_lp

RTOL = 1e-6

#: The CLI's default battery.
BATTERY = StorageParams(b_min=0.2, b_max=1.0, b_0=0.2, delta_min=-0.5,
                        delta_max=0.5, eta_ch=0.95, eta_dis=0.95)

_HIGHS_STATUS = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE}


@pytest.fixture(scope="module")
def highs():
    linprog = pytest.importorskip("scipy.optimize").linprog

    def solve(problem):
        res = linprog(problem.f, A_ub=problem.A, b_ub=problem.b,
                      bounds=list(zip(problem.lb, problem.ub)),
                      method="highs")
        return _HIGHS_STATUS[res.status], res.fun
    return solve


def _mismatches(problems, highs):
    """(label, ours, HiGHS) for every LP whose status or objective differs."""
    out = []
    for label, problem in problems:
        sol = solve_lp(problem)
        ref_status, ref_obj = highs(problem)
        if sol.status is not ref_status:
            out.append((label, sol.status.value, ref_status.value))
        elif (ref_status is SolveStatus.OPTIMAL
              and abs(sol.objective - ref_obj) > RTOL * max(1.0,
                                                            abs(ref_obj))):
            out.append((label, sol.objective, ref_obj))
    return out


def storage_lps(count=100, seed=11):
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, 97))
        prices = synthetic_day(int(rng.integers(2 ** 32)), n, 0.25)
        b_max = float(rng.uniform(0.5, 2.0))
        b_min = float(rng.uniform(0.0, 0.3)) * b_max
        rated = float(rng.choice([0.5, 1.0, 2.0])) * b_max
        params = StorageParams(
            b_min=b_min, b_max=b_max,
            b_0=float(rng.uniform(b_min, b_max)),
            delta_min=-rated, delta_max=rated,
            eta_ch=float(rng.uniform(0.8, 1.0)),
            eta_dis=float(rng.uniform(0.8, 1.0)),
            eta_conv=float(rng.uniform(0.9, 1.0)))
        ramp_rows = k % 3 != 0
        tau = float(rng.choice([0.05, 0.1, 0.3, 0.5, 1.0]))
        if ramp_rows:
            params = params.with_ramp_rate_fraction(tau, prices.h)
        yield (f"storage #{k} N={n} tau={tau if ramp_rows else None}",
               build_storage_lp(params, prices, include_ramp_rate=ramp_rows))


def flex_lps(count=50, seed=12):
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(8, 97))
        window = int(rng.integers(1, n + 1))
        t_a = int(rng.integers(1, n - window + 2))
        y_max = float(rng.uniform(1.0, 11.0))
        share = float(rng.uniform(0.1, 0.9))
        params = FlexParams(
            n_steps=n, t_a=t_a, t_d=t_a + window - 1,
            K=share * window * 0.25 * y_max, y_max=y_max)
        xi = float(rng.choice([0.1, 0.25, 0.5, 1.0]))
        yield (f"flex #{k} N={n} window={window} xi={xi}",
               build_flex_lp(params.with_ramp_rate_fraction(xi),
                             synthetic_day(int(rng.integers(2 ** 32)), n,
                                           0.25)))


def random_lp(rng, k, far=50.0):
    """A dense-ish generic LP; k picks the shape, bounds and right side.

    Odd k has fewer rows than columns, even k more.  A third of the
    columns are wide: half the LPs box them within +-``far``, the other
    half keep their lower bound and raise the upper one to ``far``.  Every
    third LP draws ``b`` at random, which can be negative (a
    primal-infeasible start) or infeasible; the others place a known point
    strictly inside the rows.  With the default ``far`` every column is
    boxed, so the LP is of the kernel's class.
    """
    small, large = sorted(int(v) for v in rng.integers(1, 30, size=2))
    m, n = (small, large) if k % 2 else (large, small)
    A = np.round(rng.normal(size=(m, n)), 2) * (rng.random((m, n)) < 0.5)
    lb = np.round(rng.uniform(-3.0, 0.0, n), 2)
    ub = np.round(rng.uniform(0.5, 3.0, n), 2)
    wide = rng.random(n) < 0.3
    if k % 4 < 2:
        lb[wide] = -far
    ub[wide] = far
    if k % 3:
        x0 = np.clip(rng.normal(size=n), lb, ub)
        b = A @ x0 + rng.exponential(size=m)
    else:
        b = np.round(rng.normal(size=m), 2)
    f = np.round(rng.normal(size=n), 2)
    return LpProblem(f=f, A=A, b=b, lb=lb, ub=ub)


def random_lps(count=100, seed=13, far=50.0):
    rng = np.random.default_rng(seed)
    for k in range(count):
        problem = random_lp(rng, k, far)
        yield f"random #{k} {problem.A.shape}", problem


def test_ramp_half_rate_day_2_matches_highs(highs):
    # A wrong position swap when a slack replaced a structural once gave
    # -0.12219 here, primal-feasible and reported optimal.
    prices = synthetic_day(2, 96, 0.25)
    problem = build_storage_lp(BATTERY.with_ramp_rate_fraction(0.5, 0.25),
                               prices)
    sol = solve_lp(problem)
    status, ref = highs(problem)
    assert sol.status is status is SolveStatus.OPTIMAL
    assert abs(sol.objective - ref) <= RTOL * max(1.0, abs(ref))
    assert ref == pytest.approx(-0.12726, abs=1e-5)


def test_storage_lps_match_highs(highs):
    assert _mismatches(storage_lps(), highs) == []


def test_flex_lps_match_highs(highs):
    assert _mismatches(flex_lps(), highs) == []


def test_random_lps_match_highs(highs):
    problems = list(random_lps())
    statuses = {highs(p)[0] for _, p in problems}
    assert statuses == set(_HIGHS_STATUS.values())
    assert _mismatches(problems, highs) == []


def test_refactor_every_iteration_matches_updates(monkeypatch):
    # Rebuilding K from A[T, S] after every pivot leaves no update formula
    # in the inverse.  Both paths must reach the same optimum, and since
    # the kernel recomputes the basic values of its final basis, the same
    # objective up to roundoff.
    problems = ([p for _, p in storage_lps(count=6, seed=21)]
                + [p for _, p in flex_lps(count=4, seed=22)]
                + [p for _, p in random_lps(count=20, seed=23)])
    updated = [solve_lp(p) for p in problems]
    pivot = _simplex._ReducedBasis.pivot

    def pivot_and_refactor(self, p, q, w):
        pivot(self, p, q, w)
        assert self.refactor()
    monkeypatch.setattr(_simplex._ReducedBasis, "pivot", pivot_and_refactor)
    rebuilt = [solve_lp(p) for p in problems]
    for a, b in zip(updated, rebuilt):
        assert a.status is b.status
        if a.status is SolveStatus.OPTIMAL:
            assert abs(a.objective - b.objective) <= 1e-9 * max(
                1.0, abs(a.objective))


def _explicit_basis(A, basic):
    m, n = A.shape
    B = np.zeros((m, m))
    for p, v in enumerate(basic):
        if v < n:
            B[:, p] = A[:, v]
        else:
            B[v - n, p] = 1.0
    return B


@pytest.mark.parametrize("shape", [(12, 5), (6, 9), (8, 8)])
def test_reduced_basis_inverts_the_basis(shape):
    m, n = shape
    rng = np.random.default_rng(m * 100 + n)
    A = rng.normal(size=(m, n))
    basic = n + np.arange(m)
    basis = _simplex._ReducedBasis(A, basic)
    kinds = set()
    for _ in range(300):
        candidates = [v for v in range(n + m) if v not in basic]
        q = int(rng.choice(candidates))
        w = basis.ftran(q)
        usable = np.flatnonzero(np.abs(w) > 0.3)
        if usable.size == 0:
            continue
        p = int(rng.choice(usable))
        kinds.add((q < n, basic[p] < n))
        basic[p] = q
        basis.pivot(p, q, w)
        B = _explicit_basis(A, basic)
        a = rng.normal(size=m)
        assert np.allclose(B @ basis.solve(a), a, atol=1e-8)
        cB = rng.normal(size=m)
        assert np.allclose(basis.btran(cB) @ B, cB, atol=1e-8)
        for p_log in np.flatnonzero(basic >= n):
            e = np.zeros(m)
            e[p_log] = 1.0
            assert np.allclose(basis.row(p_log) @ B, e, atol=1e-8)
        if rng.random() < 0.1:
            assert basis.refactor()
    # structural for structural and for a slack, slack for structural and
    # for another row's slack
    assert kinds == {(True, True), (True, False), (False, True),
                     (False, False)}


@pytest.mark.parametrize("seed, k", [(44, 13), (103, 145)])
def test_crash_keeps_elastic_columns_inside_their_far_bound(seed, k, highs):
    # Wide neighbours resting at 5e7 leave a row of this random LP short
    # by over 1e8; an elastic column t in [0, 1e9] with entry -0.1 in that
    # row alone would need a move of over 1e9 to claim it, past its far
    # bound, so the crash must leave t nonbasic.
    _, p = list(random_lps(count=k + 1, seed=seed, far=5e7))[-1]
    m, n = p.A.shape
    rest = np.where(np.abs(p.ub) <= _simplex._HUGE_BND, p.ub, p.lb)
    col = np.zeros((m, 1))
    col[np.argmin(p.b - p.A @ rest)] = -0.1
    problem = LpProblem(f=np.append(p.f, 1.0), A=np.hstack([p.A, col]),
                        b=p.b, lb=np.append(p.lb, 0.0),
                        ub=np.append(p.ub, BIG_BOUND))
    A, b, lo, hi = _kernel_input(problem)
    row = np.flatnonzero(A[:, n])[0]
    x = np.where(np.abs(hi) <= _simplex._HUGE_BND, hi, lo)
    assert lo[n] + (b[row] - A[row] @ x) / A[row, n] > BIG_BOUND
    basic, at_ub = _simplex._crash(A, b, lo, hi)
    assert n not in basic and not at_ub[n]
    assert _mismatches([(f"random #{k} + t", problem)], highs) == []


def test_crash_leaves_a_far_moving_elastic_column_nonbasic(highs):
    # min t - x s.t. x <= t / 100 with x in [-1, 9e7] and t in [0, 1e9].
    # With x resting at its upper bound, t's binding move is 9e9, past its
    # far bound; the crash must leave t nonbasic instead of starting from
    # a point that violates it.
    problem = LpProblem(f=[-1.0, 1.0], A=[[1.0, -0.01]], b=[0.0],
                        lb=[-1.0, 0.0], ub=[9e7, BIG_BOUND])
    A, b, lo, hi = _kernel_input(problem)
    basic, at_ub = _simplex._crash(A, b, lo, hi)
    assert list(basic) == [2] and list(at_ub) == [True, False]
    assert _mismatches([("far move", problem)], highs) == []


def test_final_basis_is_refactored_before_the_last_recompute(highs):
    # After 236 dual iterations of updates to K, the updated basic values
    # of this ramp LP leave a row 2e-13 violated; solved afresh from the
    # final A[T, S], they hold it to roundoff.
    case = list(storage_lps(count=2, seed=21))[-1:]
    assert _mismatches(case, highs) == []
    assert solve_lp(case[0][1]).stats.max_residual <= 1e-14


def _negated_prices(problem, n):
    """The storage LP with the price coefficients of x negated."""
    A = problem.A.copy()
    A[:2 * n, :n] *= -1.0
    return LpProblem(problem.f, A, problem.b, problem.lb, problem.ub)


def storage_edge_lps():
    """Storage LPs at the edges the crash has to handle."""
    n = 96
    day = synthetic_day(5, n, 0.25)
    mid = 0.5 * (BATTERY.b_min + BATTERY.b_max)
    for ramp in (False, True):
        for b_0 in (BATTERY.b_min, mid, BATTERY.b_max):
            params = replace(BATTERY, b_0=b_0)
            if ramp:
                params = params.with_ramp_rate_fraction(0.3, 0.25)
            yield (f"b_0={b_0} ramp={ramp}",
                   build_storage_lp(params, day, include_ramp_rate=ramp))
    free_sell = synthetic_day(6, n, 0.25, shape=PriceShape(kappa=0.0))
    yield "kappa=0", build_storage_lp(BATTERY, free_sell,
                                      include_ramp_rate=False)
    yield "negative prices", _negated_prices(
        build_storage_lp(BATTERY, day, include_ramp_rate=False), n)
    # lossless with sell = buy: both segment rows of a step bind together
    lossless = replace(BATTERY, b_0=mid, eta_ch=1.0, eta_dis=1.0)
    yield "equal slopes", build_storage_lp(lossless, day,
                                           include_ramp_rate=False)
    yield "equal slopes, ramp", build_storage_lp(
        lossless.with_ramp_rate_fraction(0.5, 0.25), day)


def test_storage_edge_lps_match_highs(highs):
    assert _mismatches(storage_edge_lps(), highs) == []


def _kernel_input(problem):
    """The presolved, scaled, tightened LP that solve_lp hands the kernel;
    its costs are ``lp._presolve(problem).f``."""
    problem = lp._presolve(problem)
    scale = lp._row_scale(problem.A)
    lo, hi = lp._tighten_bounds(problem.A, problem.b, problem.lb,
                                problem.ub)
    return problem.A / scale[:, None], problem.b / scale, lo, hi


def _crash_lps():
    gen = synthetic_day(3, 96, 0.25)
    yield "mc", build_storage_lp(BATTERY, gen, include_ramp_rate=False)
    yield from storage_edge_lps()
    yield from storage_lps(count=6, seed=31)
    yield from flex_lps(count=6, seed=32)
    yield from random_lps(count=24, seed=33)
    # max s s.t. s <= x, s <= 1 - x: s is elastic toward its lower bound
    yield "far lower bound", LpProblem(
        f=[0.0, -1.0], A=[[-1.0, 1.0], [1.0, 1.0]], b=[0.0, 1.0],
        lb=[-1.0, -np.inf], ub=[1.0, 10.0])
    # two epigraph columns share the last row, which binds both of them
    yield "shared row", LpProblem(
        f=[0.0, 1.0, 1.0],
        A=[[1.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, -1.0]],
        b=[0.0, 0.0, -3.0], lb=[-1.0, -BIG_BOUND, -BIG_BOUND],
        ub=[1.0, BIG_BOUND, BIG_BOUND])


@pytest.mark.parametrize("label, problem", list(_crash_lps()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_crash_start_is_consistent(label, problem):
    A, b, lo, hi = _kernel_input(problem)
    m, n = A.shape
    vstat, xval, basic, basis = _simplex._warm_start(
        A, lo, hi, *_simplex._crash(A, b, lo, hi))
    nb = vstat[:n] != _simplex._BASIC
    xB = basis.solve(b - A[:, nb] @ xval[:n][nb])
    struct = basic < n
    x = xval[:n].copy()
    x[basic[struct]] = xB[struct]
    # B xB + N xN = b, up to the roundoff of each row's terms
    B = _explicit_basis(A, basic)
    xN = np.where(vstat[:n] == _simplex._BASIC, 0.0, x)
    size = np.abs(B) @ np.abs(xB) + np.abs(A) @ np.abs(xN) + np.abs(b)
    assert (np.abs(B @ xB + A @ xN - b) <= 1e-13 * (1.0 + size)).all()
    # nonbasic columns sit on a bound within 1e8, basic ones within their
    # bounds; each row of T holds with equality, and each other row's basic
    # slack is its residual, negative where it is violated
    nb = vstat[:n] != _simplex._BASIC
    assert ((x == lo) | (x == hi))[nb].all()
    assert (np.abs(x[nb]) <= _simplex._HUGE_BND).all()
    assert ((lo <= x) & (x <= hi)).all()
    logical = basic >= n
    assert (basic[logical] == n + np.flatnonzero(logical)).all()
    resid = b - A @ x
    tol = 1e-13 * (1.0 + size)
    assert (np.abs(resid[~logical]) <= tol[~logical]).all()
    assert (np.abs(xB - resid)[logical] <= tol[logical]).all()
    assert set(vstat[basic]) == {_simplex._BASIC}
    assert (vstat == _simplex._BASIC).sum() == m
    # the reduced basis built from the crash inverts B
    a = np.random.default_rng(m + n).normal(size=m)
    assert np.allclose(B @ basis.solve(a), a, atol=1e-9)


def _crash_start(problem):
    """(primal-infeasible, basic, dual-feasible) of the kernel's crash
    start: whether the dual phase has rows to repair once ``_flip_pass``
    has flipped bounds, the basis, and whether those flips made it
    dual-feasible."""
    A, b, lo, hi = _kernel_input(problem)
    m, n = A.shape
    LB = np.concatenate([lo, np.zeros(m)])
    UB = np.concatenate([hi, np.full(m, np.inf)])
    movable = (UB > LB).astype(float)
    boxed = ((np.abs(LB) <= _simplex._HUGE_BND)
             & (np.abs(UB) <= _simplex._HUGE_BND) & (LB < UB))
    vstat, xval, basic, basis = _simplex._warm_start(
        A, lo, hi, *_simplex._crash(A, b, lo, hi))
    cost = np.concatenate([lp._presolve(problem).f, np.zeros(m)])
    dual_feasible = _simplex._flip_pass(A, cost, LB, UB, vstat, xval, basic,
                                        basis, movable, boxed)
    nb = vstat[:n] != _simplex._BASIC
    xB = basis.solve(b - A[:, nb] @ xval[:n][nb])
    infeasible = (np.maximum(LB[basic] - xB, xB - UB[basic]).max()
                  > _simplex._RELAX)
    return infeasible, basic, dual_feasible


def test_flips_alone_make_crash_starts_dual_feasible():
    # Every column of the storage and flex LPs is boxed or elastic once
    # solve_lp has tightened its bounds, so moving nonbasic columns to the
    # bounds their reduced costs ask for makes the crash basis
    # dual-feasible.
    mc = [build_storage_lp(BATTERY, synthetic_day(seed, 96, 0.25),
                           include_ramp_rate=False)
          for seed in range(4)]
    flex = [p for _, p in flex_lps(count=10, seed=34)]
    for problem in mc + flex:
        _, basic, dual_feasible = _crash_start(problem)
        assert dual_feasible
        # every epigraph column the kernel sees starts basic: all of the
        # mc LP's, and none is left in the flex LP, whose presolve folds
        # them into the costs of y
        n = lp._presolve(problem).n_cols
        epigraph = n // 2 if problem.n_cols == n else 0
        assert (basic < n).sum() == epigraph


def _mc_lps(count=40, seed=7):
    """The default battery's mc LPs: one synthetic day per child seed."""
    for child in np.random.SeedSequence(seed).spawn(count):
        yield build_storage_lp(BATTERY, synthetic_day(child, 96, 0.25),
                               include_ramp_rate=False)


def test_crash_basis_passed_as_a_basis_is_the_cold_solve():
    # A cold solve and a warm one take the same path from the start basis
    # on, so passing the crash basis changes nothing in the result.
    problems = (list(_mc_lps(count=4)) + [p for _, p in flex_lps(6, 35)]
                + [p for _, p in random_lps(30, 36)])
    statuses = set()
    for problem in problems:
        A, b, lo, hi = _kernel_input(problem)
        cold = solve_lp(problem)
        warm = solve_lp(problem, basis=_simplex._crash(A, b, lo, hi))
        statuses.add(cold.status)
        assert warm.stats.warm_start and not cold.stats.warm_start
        assert warm.status is cold.status
        assert warm.stats.iterations == cold.stats.iterations
        assert np.array_equal(warm.x, cold.x, equal_nan=True)
    assert len(statuses) == 2  # optimal and infeasible


def test_iteration_budgets_of_the_crash_start():
    # the default battery's mc LPs took 121.2 iterations on average when
    # a greedy bound pass let them skip the dual phase; kappa = 0 LPs,
    # whose dual phase stalls in degeneracy, took up to 1128
    mc = [solve_lp(p).stats.iterations for p in _mc_lps()]
    assert np.mean(mc) <= 100
    kappa0 = [solve_lp(p).stats.iterations for _, p in _kappa0_lps()]
    assert max(kappa0) <= 900


def test_one_dual_iteration_flips_several_boxed_columns():
    # min x1 + 2 x2 + 3 x3 + 4 x4 + 5 x5 over the unit box with
    # x1 + ... + x5 >= 2.5.  From the all-slack basis the row is 2.5 short.
    # The ratio test of the first dual iteration flips x1 and x2 to 1 and
    # lets x3 enter at 0.5, which is optimal; without the flips x1 would
    # enter at 2.5, beyond its bound, and more iterations would follow.
    linprog = pytest.importorskip("scipy.optimize").linprog
    problem = LpProblem(f=[1.0, 2.0, 3.0, 4.0, 5.0], A=[[-1.0] * 5],
                        b=[-2.5], lb=[0.0] * 5, ub=[1.0] * 5)
    sol = solve_lp(problem, basis=(np.array([5]), np.zeros(5, bool)))
    ref = linprog(problem.f, A_ub=problem.A, b_ub=problem.b,
                  bounds=list(zip(problem.lb, problem.ub)), method="highs")
    assert sol.status is SolveStatus.OPTIMAL and sol.stats.warm_start
    assert sol.stats.iterations == 1
    assert np.abs(sol.x - ref.x).max() <= 1e-12
    assert np.array_equal(sol.x, [1.0, 1.0, 0.5, 0.0, 0.0])


def test_dual_phase_reports_an_infeasible_lp():
    # random_lps(200, 13) #36 is infeasible; its crash start is
    # dual-feasible after the flips and primal-infeasible, and the dual
    # phase finds a row no candidate can repair.
    label, problem = list(random_lps(count=37, seed=13))[-1]
    infeasible, _, dual_feasible = _crash_start(problem)
    assert infeasible and dual_feasible
    status, x, iters, basis = _run_kernel(problem)
    assert status is SolveStatus.INFEASIBLE and iters > 0
    assert solve_lp(problem).status is SolveStatus.INFEASIBLE


def _tighten_bounds_dense(A, b, lb, ub):
    """The dense reference: every row and column of A, the old way."""
    lo = lb.copy()
    hi = ub.copy()
    need_lo = np.abs(lo) > lp._IMPLIED_GATE
    need_hi = np.abs(hi) > lp._IMPLIED_GATE
    if not (need_lo.any() or need_hi.any()):
        return lo, hi
    with np.errstate(invalid="ignore"):
        cmin = (np.where(A > 0.0, A * lo[None, :], 0.0)
                + np.where(A < 0.0, A * hi[None, :], 0.0))
    neg_inf = np.isneginf(cmin)
    ninf = neg_inf.sum(axis=1)
    rowfin = np.where(neg_inf, 0.0, cmin).sum(axis=1)
    resid = np.where(neg_inf,
                     np.where(ninf[:, None] == 1, rowfin[:, None], -np.inf),
                     np.where(ninf[:, None] == 0,
                              rowfin[:, None] - cmin, -np.inf))
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = (b[:, None] - resid) / A
    ub_cand = np.where(A > 0.0, cand, np.inf).min(axis=0)
    lb_cand = np.where(A < 0.0, cand, -np.inf).max(axis=0)
    margin = 1e-7
    ub_new = ub_cand + margin * (1.0 + np.abs(ub_cand))
    lb_new = lb_cand - margin * (1.0 + np.abs(lb_cand))
    hi = np.where(need_hi & (ub_new < hi), ub_new, hi)
    lo = np.where(need_lo & (lb_new > lo), lb_new, lo)
    hi = np.where(hi < lo, lo, hi)
    return lo, hi


def test_tighten_bounds_matches_dense_reference():
    problems = (list(storage_lps(count=60, seed=41))
                + list(flex_lps(count=40, seed=42))
                + list(random_lps(count=200, seed=43, far=np.inf)))
    for label, p in problems:
        got = lp._tighten_bounds(p.A, p.b, p.lb, p.ub)
        want = _tighten_bounds_dense(p.A, p.b, p.lb, p.ub)
        for g, w in zip(got, want):
            assert np.array_equal(np.isinf(g), np.isinf(w)), label
            fin = np.isfinite(w)
            assert np.allclose(g[fin], w[fin], rtol=1e-12, atol=0.0), label


# ---------------------------------------------------------------------------
# basis out and warm starts
# ---------------------------------------------------------------------------


def _run_kernel(problem, max_iter=100000, basis=None):
    A, b, lo, hi = _kernel_input(problem)
    return _simplex.simplex_numpy(A, b, lp._presolve(problem).f, lo, hi,
                                  max_iter, basis=basis)


def _values_of_basis(problem, basis):
    """Structural values of a basis, solved afresh: the nonbasic ones on
    the bound ``at_ub`` names, the basic ones from B x_B = b - N x_N."""
    A, b, lo, hi = _kernel_input(problem)
    m, n = A.shape
    basic, at_ub = basis
    x = np.where(at_ub, hi, lo)
    struct = basic < n
    x[basic[struct]] = 0.0
    xB = np.linalg.solve(_explicit_basis(A, basic), b - A @ x)
    x[basic[struct]] = xB[struct]
    return x


def _kappa0_lps():
    """kappa = 0 days, b_0 at b_min, mid and b_max, with and without ramp
    rows: the LPs where leaving variables sat beyond their bounds."""
    mid = 0.5 * (BATTERY.b_min + BATTERY.b_max)
    for seed in range(6, 12):
        day = synthetic_day(seed, 96, 0.25, shape=PriceShape(kappa=0.0))
        for b_0 in (BATTERY.b_min, mid, BATTERY.b_max):
            for ramp in (False, True):
                params = replace(BATTERY, b_0=b_0)
                if ramp:
                    params = params.with_ramp_rate_fraction(0.3, 0.25)
                yield (f"seed={seed} b_0={b_0} ramp={ramp}",
                       build_storage_lp(params, day, include_ramp_rate=ramp))


def test_truncated_kernel_x_matches_its_basis():
    # A leaving variable that already sat beyond its bound was snapped
    # onto it without moving the other basic values, so the tracked values
    # drifted from the basis by up to 3e-11 (seed 9, mid b_0, ramp rows,
    # 400 iterations).
    for label, problem in _kappa0_lps():
        for max_iter in (10, 100, 400):
            status, x, iters, basis = _run_kernel(problem, max_iter)
            want = _values_of_basis(problem, basis)
            assert np.abs(x - want).max() <= 1e-12, (label, max_iter)


def test_basis_out_is_in_the_crash_layout():
    problem = build_storage_lp(BATTERY.with_ramp_rate_fraction(0.3, 0.25),
                               synthetic_day(4, 96, 0.25))
    sol = solve_lp(problem)
    m, n = problem.A.shape
    basic, at_ub = sol.basis
    assert basic.shape == (m,) and at_ub.shape == (n,)
    logical = basic >= n
    # row i's slack at position i; structurals elsewhere, distinct
    assert (basic[logical] == n + np.flatnonzero(logical)).all()
    assert np.unique(basic).size == m
    assert not at_ub[basic[~logical]].any()
    assert np.abs(_values_of_basis(problem, sol.basis) - sol.x).max() <= 1e-12
    assert not basic.flags.writeable


def _ramp_lp(day=5, c_rate=1.0, tau=0.3, **kw):
    rated = c_rate * BATTERY.b_max
    params = replace(BATTERY, delta_min=-rated, delta_max=rated, **kw)
    return build_storage_lp(params.with_ramp_rate_fraction(tau, 0.25),
                            synthetic_day(day, 96, 0.25))


def test_warm_start_from_another_lp_matches_highs(highs):
    # another C-rate changes the bounds of x, another day the costs, which
    # leaves the basis dual-infeasible
    for donor, target in ((_ramp_lp(c_rate=1.0), _ramp_lp(c_rate=2.0)),
                          (_ramp_lp(c_rate=2.0), _ramp_lp(c_rate=0.5)),
                          (_ramp_lp(day=5), _ramp_lp(day=6)),
                          (_ramp_lp(day=6, tau=1.0), _ramp_lp(day=7))):
        basis = solve_lp(donor).basis
        sol = solve_lp(target, basis=basis)
        status, ref = highs(target)
        assert sol.status is status is SolveStatus.OPTIMAL
        assert abs(sol.objective - ref) <= 1e-9 * max(1.0, abs(ref))


def test_dual_infeasible_warm_basis_is_solved_cold():
    # another day's costs leave a slack dual-infeasible in the donor's
    # optimal basis, which no bound flip repairs: the kernel stops before
    # any iteration, and solve_lp re-solves from the crash basis
    basis = solve_lp(_ramp_lp(day=5)).basis
    target = _ramp_lp(day=6)
    status, x, iters, out = _run_kernel(target, basis=basis)
    assert status is SolveStatus.NUMERICAL_FAILURE and iters == 0
    warm = solve_lp(target, basis=basis)
    cold = solve_lp(target)
    assert warm.status is SolveStatus.OPTIMAL and not warm.stats.warm_start
    assert warm.stats.iterations == cold.stats.iterations
    assert np.array_equal(warm.x, cold.x)


def test_warm_start_of_an_infeasible_lp_reports_the_cold_status(
        monkeypatch):
    problem = _ramp_lp()
    basis = solve_lp(problem).basis
    n = problem.n_cols // 2
    # soc_1 <= b_max - 1 contradicts soc_1 >= b_min: rows 2n and 3n
    b = problem.b.copy()
    b[2 * n] = BATTERY.b_min - BATTERY.b_0 - 0.1
    bad = LpProblem(problem.f, problem.A, b, problem.lb, problem.ub)
    kernel = _simplex.simplex_numpy
    calls = []
    monkeypatch.setattr(_simplex, "simplex_numpy",
                        lambda *args, **kw: calls.append(kw)
                        or kernel(*args, **kw))
    warm = solve_lp(bad, basis=basis)
    assert len(calls) == 1  # the dual phase's verdict stands
    cold = solve_lp(bad)
    assert warm.status is cold.status is SolveStatus.INFEASIBLE
    assert warm.basis is None and warm.stats.warm_start


def _singular_basis(problem):
    """The epigraph column t_1 alone in a capacity row, where it has no
    entry."""
    m, n = problem.A.shape
    basic = n + np.arange(m)
    basic[n] = n // 2
    assert problem.A[n, n // 2] == 0.0
    return basic, np.zeros(n, bool)


def test_kernel_raises_on_a_singular_basis():
    problem = _ramp_lp()
    with pytest.raises(np.linalg.LinAlgError):
        _run_kernel(problem, basis=_singular_basis(problem))


def test_singular_basis_costs_one_cold_kernel_call(monkeypatch):
    problem = _ramp_lp()
    kernel = _simplex.simplex_numpy
    starts = []
    monkeypatch.setattr(_simplex, "simplex_numpy",
                        lambda *args, basis: starts.append(basis)
                        or kernel(*args, basis=basis))
    sol = solve_lp(problem, basis=_singular_basis(problem))
    assert sol.status is SolveStatus.OPTIMAL
    assert len(starts) == 2 and starts[1] is None


def test_singular_basis_falls_back_to_the_crash():
    problem = _ramp_lp()
    m, n = problem.A.shape
    # the epigraph column t_1 alone in a capacity row, where it has no entry
    basic = n + np.arange(m)
    basic[n] = n // 2
    assert problem.A[n, n // 2] == 0.0
    warm = solve_lp(problem, basis=(basic, np.zeros(n, bool)))
    cold = solve_lp(problem)
    assert warm.status is SolveStatus.OPTIMAL and not warm.stats.warm_start
    assert warm.stats.iterations == cold.stats.iterations
    assert np.array_equal(warm.x, cold.x)


def test_basis_of_the_wrong_shape_raises():
    problem = _ramp_lp()
    m, n = problem.A.shape
    basic, at_ub = solve_lp(problem).basis
    dup = basic.copy()
    dup[0] = dup[1]
    for bad in ((basic[:-1], at_ub), (basic, at_ub[:-1]), basic,
                (basic, at_ub, at_ub), (basic.astype(float), at_ub),
                (basic, at_ub.astype(int)), (dup, at_ub),
                (np.where(basic == basic.max(), n + m, basic), at_ub)):
        with pytest.raises(ValueError):
            solve_lp(problem, basis=bad)


def test_warm_start_needs_fewer_iterations_than_cold():
    problem = _ramp_lp(tau=0.5)
    basis = solve_lp(_ramp_lp(tau=1.0)).basis
    warm = solve_lp(problem, basis=basis)
    cold = solve_lp(problem)
    assert warm.stats.warm_start and not cold.stats.warm_start
    assert warm.stats.iterations < cold.stats.iterations / 4
    assert abs(warm.objective - cold.objective) <= 1e-12
