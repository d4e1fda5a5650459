"""Generic box-bounded inequality LP container and solver front end.

The canonical form used throughout the package is

    minimise    f . x
    subject to  A x <= b
                lb <= x <= ub

``solve_lp`` presolves the LP (``_presolve`` drops fixed columns and
epigraph columns whose cost is a multiple of one other column), checks
that what is left is of the solver's class, row-equilibrates it, and
solves it with the bounded dual simplex of :mod:`flexarb._simplex`.  The
point is mapped back to the LP that was passed and verified against its
original (unscaled) data before it is reported as optimal.  The builders
keep the paper's layouts; a flex LP reaches the kernel as its window
alone, and the storage LPs of a battery that can both charge and
discharge reach it unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import _simplex
from ._simplex import SolveStatus

#: Sentinel bounds for epigraph helper variables; wide enough to be inactive
#: for any sane price signal, finite so the LP stays bounded by construction.
BIG_BOUND = 1e9

FEASIBILITY_TOL = 1e-6


class LpValidationError(ValueError):
    """Raised before solving when an LpProblem fails ``validate_lp``, or
    when a column lies outside the solver's class after bound tightening
    (see ``solve_lp``); ``diagnostics`` lists the reasons."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("invalid LP: " + "; ".join(self.diagnostics))


def _ro(a, dtype=float):
    out = np.ascontiguousarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LpProblem:
    """Immutable description of one LP instance.

    ``row_labels`` / ``col_labels`` are optional diagnostic tags used by
    ``dump_lp`` and by the column diagnostics of ``validate_lp`` and
    ``solve_lp``; they carry no mathematical meaning.
    """

    f: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    row_labels: tuple = None
    col_labels: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "f", _ro(self.f))
        object.__setattr__(self, "A", _ro(np.atleast_2d(self.A)))
        object.__setattr__(self, "b", _ro(self.b))
        object.__setattr__(self, "lb", _ro(self.lb))
        object.__setattr__(self, "ub", _ro(self.ub))
        if self.row_labels is not None:
            object.__setattr__(self, "row_labels", tuple(self.row_labels))
        if self.col_labels is not None:
            object.__setattr__(self, "col_labels", tuple(self.col_labels))

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def n_cols(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class SolveStats:
    """How a solve went.  ``iterations`` counts the dual simplex
    iterations of both kernel attempts, the only ones the kernel makes; an
    iteration counts once, however many columns its ratio test flips.
    ``warm_start`` is True when the result was solved from the passed
    basis, and False after the cold re-solve that follows a singular basis
    or a failed warm attempt.  ``backend`` names the one solver, for the
    JSON outputs and the benchmark harness that still read it."""

    iterations: int
    wall_time_s: float
    max_residual: float
    warm_start: bool = False
    backend = "numpy"


@dataclass(frozen=True)
class LpSolution:
    """``basis`` is the optimal basis as a read-only (basic, at_ub) pair,
    the form ``solve_lp(..., basis=...)`` takes, or None when the solve is
    not optimal."""

    x: np.ndarray
    objective: float
    status: SolveStatus
    stats: SolveStats
    basis: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "x", _ro(self.x))
        if self.basis is not None:
            object.__setattr__(self, "basis", tuple(
                _ro(v, dtype=v.dtype) for v in self.basis))


def _col_label(problem: LpProblem, j) -> str:
    return (problem.col_labels[j] if problem.col_labels is not None
            else f"col {j}")


def validate_lp(problem: LpProblem) -> list:
    """Return a list of human-readable diagnostics; empty means solvable."""
    diags = []
    f, A, b, lb, ub = problem.f, problem.A, problem.b, problem.lb, problem.ub
    if A.ndim != 2:
        diags.append(f"A must be 2-D, got ndim={A.ndim}")
        return diags
    m, n = A.shape
    if n == 0:
        diags.append("A has zero columns")
    for name, vec, want in (("f", f, n), ("b", b, m), ("lb", lb, n),
                            ("ub", ub, n)):
        if vec.ndim != 1:
            diags.append(f"{name} must be 1-D, got ndim={vec.ndim}")
        elif vec.shape[0] != want:
            diags.append(f"{name} has length {vec.shape[0]}, expected {want}")
    if diags:
        return diags
    for name, arr in (("f", f), ("A", A), ("b", b)):
        if not np.isfinite(arr).all():
            diags.append(f"{name} contains non-finite entries")
    if np.isnan(lb).any() or np.isnan(ub).any():
        diags.append("bounds contain NaN")
    if np.isposinf(lb).any() or np.isneginf(ub).any():
        diags.append("lb must be < +inf and ub > -inf elementwise")
    if diags:
        return diags
    bad = np.nonzero(lb > ub)[0]
    for j in bad[:5]:
        diags.append(f"empty bound interval at {_col_label(problem, j)}: "
                     f"lb={lb[j]:.6g} > ub={ub[j]:.6g}")
    if bad.size > 5:
        diags.append(f"... and {bad.size - 5} more empty bound intervals")
    if problem.row_labels is not None and len(problem.row_labels) != m:
        diags.append(f"row_labels has length {len(problem.row_labels)},"
                     f" expected {m}")
    if problem.col_labels is not None and len(problem.col_labels) != n:
        diags.append(f"col_labels has length {len(problem.col_labels)},"
                     f" expected {n}")
    return diags


@dataclass(frozen=True)
class _ReducedLp(LpProblem):
    """An LP that ``_presolve`` made smaller, with what ``postsolve`` needs
    to map its points back to the LP it came from.

    ``x_fixed`` is a point of the original LP's length holding the fixed
    columns' values; ``keep`` lists the original columns this LP keeps, in
    order.  Each dropped epigraph column ``t[k]`` equals
    ``slope[k] * x[partner[k]]``, or 0 where ``partner[k]`` is -1.
    """

    x_fixed: np.ndarray = None
    keep: np.ndarray = None
    t: np.ndarray = None
    partner: np.ndarray = None
    slope: np.ndarray = None

    def postsolve(self, x: np.ndarray) -> np.ndarray:
        """The original LP's point of this LP's point x."""
        full = self.x_fixed.copy()
        full[self.keep] = x
        # adding 0.0 turns a -0.0 of a zero slope into 0.0
        full[self.t] = np.where(self.partner >= 0,
                                self.slope * full[self.partner], 0.0) + 0.0
        return full


def _presolve(problem: LpProblem) -> LpProblem:
    """The LP with its fixed and epigraph columns taken out, or
    ``problem`` itself when there are none.

    1. A fixed column (lb == ub) moves its value into b and is dropped.
    2. An epigraph column t is dropped with its rows when both its bounds
       lie beyond 1e8 (below -1e8 and above 1e8), its cost is positive,
       every nonzero of t is negative, and each row of t has b = 0 after
       rule 1 and at most one other nonzero, all of them in one column x
       that is boxed on one side of 0.  Then t = s * x at every optimum
       (Bertsimas and Tsitsiklis 1997, sec. 1.3), with s the largest of
       a_kx / -a_kt over t's rows when lb_x >= 0 and the smallest when
       ub_x <= 0, a row without x counting as 0.  The rule needs
       |s| * max(|lb_x|, |ub_x|) <= 1e8, so that s * x stays inside t's
       bounds, and adds f_t * s to x's cost.

    Both rules are vectorised; the per-row counts and the single column
    of a row with one nonzero of a kind come from one product of A's
    nonzero pattern.  The result is a ``_ReducedLp`` that keeps the
    original row and column labels of what it keeps.
    """
    f, A, b, lb, ub = problem.f, problem.A, problem.b, problem.lb, problem.ub
    n = A.shape[1]
    huge = _simplex._HUGE_BND
    fixed = lb == ub
    cand = (lb < -huge) & (ub > huge) & (f > 0.0)
    has_fixed = bool(fixed.any())
    if not (has_fixed or cand.any()):
        return problem
    if has_fixed:
        b = b - A[:, fixed] @ lb[fixed]
    # only rows with b = 0 may hold a candidate t's nonzeros
    nonzero = A != 0.0
    zero_b = b == 0.0
    cand &= ~nonzero[~zero_b].any(axis=0)
    # per row with b = 0: nonzeros among the candidates and among the other
    # live columns, and the column of each kind where there is exactly one
    rows = np.flatnonzero(zero_b)
    kinds = np.empty((n, 4))
    kinds[:, 0] = cand
    kinds[:, 1] = ~(fixed | cand)
    kinds[:, 2:] = kinds[:, :2] * np.arange(n)[:, None]
    n_t, n_o, t_of, x_of = (nonzero[rows].astype(float) @ kinds).T
    t_of = np.where(n_t == 1.0, t_of, 0.0).astype(np.int64)
    x_of = np.where(n_o == 1.0, x_of, -1.0).astype(np.int64)
    # a row fits when it holds one candidate, with a negative entry, and
    # no other live column or one boxed on one side of 0
    lbx, ubx = lb[x_of], ub[x_of]
    fits = ((n_t == 1.0) & (n_o <= 1.0) & (A[rows, t_of] < 0.0)
            & ((x_of < 0) | (((lbx >= 0.0) | (ubx <= 0.0))
                             & (np.abs(lbx) <= huge) & (np.abs(ubx) <= huge))))
    # a candidate goes when it has a row and every row of it fits
    ok = np.zeros(n, bool)
    ok[t_of[fits]] = True
    ok &= cand
    if ok.any():
        ok &= ~nonzero[rows[~fits]].any(axis=0)
    if not (has_fixed or ok.any()):
        return problem
    g = np.flatnonzero(fits & ok[t_of])
    tg, xg, g = t_of[g], x_of[g], rows[g]
    # ... and its rows have one partner x between them, or none (-1)
    partner = np.full(n, -1)
    np.maximum.at(partner, tg, xg)
    first = np.full(n, n)
    np.minimum.at(first, tg, np.where(xg >= 0, xg, n))
    ok &= (partner < 0) | (first == partner)
    # the slope over t's rows, a row without x counting as 0
    ratio = np.where(xg >= 0, A[g, xg], 0.0) / -A[g, tg]
    s_hi = np.zeros(n)
    s_lo = np.zeros(n)
    s_hi[tg] = -np.inf
    s_lo[tg] = np.inf
    np.maximum.at(s_hi, tg, ratio)
    np.minimum.at(s_lo, tg, ratio)
    lbx, ubx = lb[partner], ub[partner]
    slope = np.where(lbx >= 0.0, s_hi, s_lo)
    reach = np.where(partner >= 0, np.maximum(np.abs(lbx), np.abs(ubx)), 0.0)
    ok &= np.abs(slope) * reach <= huge
    if not (has_fixed or ok.any()):
        return problem

    t = np.flatnonzero(ok)
    f = f.copy()
    folded = t[partner[t] >= 0]
    np.add.at(f, partner[folded], f[folded] * slope[folded])
    keep = np.flatnonzero(~(fixed | ok))
    keep_rows = np.ones(A.shape[0], bool)
    keep_rows[g[ok[tg]]] = False
    keep_rows = np.flatnonzero(keep_rows)
    pick = lambda labels, idx: (None if labels is None
                                else [labels[i] for i in idx])
    return _ReducedLp(
        f[keep], A[np.ix_(keep_rows, keep)], b[keep_rows], lb[keep],
        ub[keep], pick(problem.row_labels, keep_rows),
        pick(problem.col_labels, keep),
        x_fixed=np.where(fixed, lb, 0.0), keep=keep, t=t,
        partner=partner[t], slope=slope[t])


_IMPLIED_GATE = 1e8  # only bounds beyond this magnitude get tightened


def _tighten_bounds(A, b, lb, ub):
    """Shrink sentinel-sized variable bounds to feasibility-implied ones.

    Every row ``a . x <= b_i`` implies, for each variable with a nonzero
    coefficient, ``a_ij x_j <= b_i - min_box(sum of the other terms)``.
    Applying that interval to bounds beyond ``_IMPLIED_GATE`` keeps the
    simplex arithmetic at problem scale instead of 1e9 scale; the feasible
    set is unchanged because implied bounds hold at every feasible point.

    Only the gated columns and the rows they touch are read.  Each row's
    minimum is summed over its full length in column order, so a row with
    several 1e9-scale terms rounds the same way whichever columns are gated.
    """
    lo = lb.copy()
    hi = ub.copy()
    need_lo = np.abs(lo) > _IMPLIED_GATE
    need_hi = np.abs(hi) > _IMPLIED_GATE
    gated = np.flatnonzero(need_lo | need_hi)
    if not gated.size:
        return lo, hi
    Ag = A.T[gated]
    rows = np.flatnonzero(Ag.any(axis=0))
    Ag = Ag[:, rows]          # gated columns x the rows they touch
    Ar = A[rows]
    lo_inf = np.isinf(lo)
    hi_inf = np.isinf(hi)
    # minimum of each row over the box: its finite terms and its -inf count
    terms = np.maximum(Ar, 0.0)
    terms *= np.where(lo_inf, 0.0, lo)
    terms += np.minimum(Ar, 0.0) * np.where(hi_inf, 0.0, hi)
    rowfin = terms.sum(axis=1)
    ninf = (np.count_nonzero(Ar[:, lo_inf] > 0.0, axis=1)
            + np.count_nonzero(Ar[:, hi_inf] < 0.0, axis=1))
    up = Ag > 0.0
    down = Ag < 0.0
    with np.errstate(invalid="ignore"):
        cmin = np.where(up, Ag * lo[gated, None],
                        np.where(down, Ag * hi[gated, None], 0.0))
    # minimum of the row's other terms; -inf when it is not determined
    resid = np.where(np.isneginf(cmin),
                     np.where(ninf == 1, rowfin, -np.inf),
                     np.where(ninf == 0, rowfin - cmin, -np.inf))
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = (b[rows] - resid) / Ag
    ub_cand = np.where(up, cand, np.inf).min(axis=1, initial=np.inf)
    lb_cand = np.where(down, cand, -np.inf).max(axis=1, initial=-np.inf)
    margin = 1e-7
    ub_new = ub_cand + margin * (1.0 + np.abs(ub_cand))
    lb_new = lb_cand - margin * (1.0 + np.abs(lb_cand))
    hi[gated] = np.where(need_hi[gated] & (ub_new < hi[gated]), ub_new,
                         hi[gated])
    lo[gated] = np.where(need_lo[gated] & (lb_new > lo[gated]), lb_new,
                         lo[gated])
    # crossed bounds mean the LP is infeasible; keep the box nonempty and
    # let the dual phase report it through the untouched rows
    hi = np.where(hi < lo, lo, hi)
    return lo, hi


def _class_diagnostic(problem: LpProblem, lo, hi):
    """Why the first column outside the kernel's class (see ``_simplex``)
    lies outside it, given the tightened bounds, or None."""
    far = np.abs(np.stack([lo, hi])) > _simplex._HUGE_BND
    elastic = _simplex.elastic_columns(problem.A, lo, hi)
    falls = elastic & np.where(far[1], problem.f < 0.0, problem.f > 0.0)
    bad = np.flatnonzero(far.any(axis=0) & ~elastic | falls)
    if not bad.size:
        return None
    j = bad[0]
    why = ("both bounds lie" if far[:, j].all()
           else "its cost falls toward a bound" if falls[j]
           else "it tightens a row moving toward a bound")
    return (f"column {_col_label(problem, j)} is neither boxed nor elastic: "
            f"{why} beyond 1e8 after bound tightening")


def solve_lp(problem: LpProblem, basis: tuple = None) -> LpSolution:
    """Solve the LP, returning an LpSolution with verified status.

    The kernel solves the LP that ``_presolve`` leaves, the LP itself
    when no presolve rule applies.  The solution's ``x`` and
    ``objective`` are those of the LP passed: the kernel's point is
    mapped back before the feasibility check.  The presolved LP must be
    of the kernel's class once its sentinel bounds are tightened: every
    column boxed within 1e8, or elastic, with one bound beyond 1e8 toward
    which it relaxes each of its rows and never lowers the cost (see
    ``_simplex``).  Such an LP is bounded, so the status is OPTIMAL,
    INFEASIBLE or NUMERICAL_FAILURE.  Any other LP, like one that fails
    ``validate_lp``, raises LpValidationError, naming the column.

    ``basis``, such as the ``basis`` of a solve of an LP of the same
    shape, is where the simplex starts (see ``_simplex.simplex_numpy``).
    Like ``LpSolution.basis`` it is in the presolved LP's layout, and one
    of the wrong shape raises ValueError.  Without one the simplex
    starts from the crash basis.  A warm attempt's INFEASIBLE verdict
    stands: the dual phase proves it whatever the start.  A singular
    basis, a numerical failure (a basis that bound flips cannot make
    dual-feasible among them), or an optimum that fails the feasibility
    check is solved once more from the crash basis, and that result is
    reported.  A presolved LP with no rows or no columns left is
    answered without the simplex.
    """
    diags = validate_lp(problem)
    if diags:
        raise LpValidationError(diags)
    t0 = time.perf_counter()
    kernel_lp = _presolve(problem)
    if basis is not None:
        basis = _simplex.check_basis(basis, *kernel_lp.A.shape)

    f = kernel_lp.f
    A = kernel_lp.A
    b = kernel_lp.b
    lb = kernel_lp.lb
    ub = kernel_lp.ub
    m, n = A.shape
    # row equilibration: scale every row of [A | b] so max |A_ij| is one
    scale = _row_scale(A)
    As = A / scale[:, None]
    bs = b / scale
    lbt, ubt = _tighten_bounds(A, b, lb, ub)
    diag = _class_diagnostic(kernel_lp, lbt, ubt)
    if diag is not None:
        raise LpValidationError([diag])

    # points are checked and priced in the LP that was passed
    reduced = kernel_lp is not problem
    if reduced:
        scale = _row_scale(problem.A)
    tol = FEASIBILITY_TOL * max(1.0, np.abs(problem.b).max(initial=0.0))
    iters = 0
    warm = basis is not None
    if m == 0 or n == 0:
        # no rows, or no columns left: each variable sits at its cheaper
        # bound, and an elastic one at the bound within 1e8
        warm = False
        xk = np.where((f >= 0.0) & (np.abs(lb) <= _simplex._HUGE_BND), lb, ub)
        x = kernel_lp.postsolve(xk) if reduced else xk
        resid = _max_violation(problem, x, scale)
        status = (SolveStatus.OPTIMAL if resid <= tol
                  else SolveStatus.INFEASIBLE)
        out = (n + np.arange(m), xk == ub)
    else:
        max_iter = 2000 + 60 * (m + n)

        def attempt(start):
            """(status, x, iterations, basis out, residual) of one kernel
            call from ``start``; an optimum that fails the feasibility
            check becomes a numerical failure."""
            status, xk, it, out = _simplex.simplex_numpy(
                As, bs, f, lbt, ubt, max_iter, basis=start)
            x = kernel_lp.postsolve(xk) if reduced else xk
            resid = float("nan")
            if status is SolveStatus.OPTIMAL:
                resid = _max_violation(problem, x, scale)
                if resid > tol:
                    status = SolveStatus.NUMERICAL_FAILURE
            return status, x, it, out, resid

        status = SolveStatus.NUMERICAL_FAILURE
        if warm:
            try:
                status, x, iters, out, resid = attempt(basis)
            except np.linalg.LinAlgError:
                pass  # a singular basis
        if status is SolveStatus.NUMERICAL_FAILURE:
            warm = False
            status, x, it, out, resid = attempt(None)
            iters += it

    if status is SolveStatus.OPTIMAL:
        obj = float(problem.f @ x)
    else:
        x = np.full(problem.n_cols, np.nan)
        obj = float("nan")
        resid = float("nan")
        out = None
    stats = SolveStats(iters, time.perf_counter() - t0, resid, warm)
    return LpSolution(x, obj, status, stats, out)


def _row_scale(A: np.ndarray) -> np.ndarray:
    """Largest |A_ij| of each row, with 1 for an all-zero row."""
    scale = np.abs(A).max(axis=1, initial=0.0)
    scale[scale == 0.0] = 1.0
    return scale


def _max_violation(problem: LpProblem, x: np.ndarray,
                   scale: np.ndarray) -> float:
    """Largest constraint or bound violation of x, rows divided by scale."""
    r = (problem.A @ x - problem.b) / scale
    worst = max(0.0, r.max()) if r.size else 0.0
    worst = max(worst, float((problem.lb - x).max(initial=0.0)))
    worst = max(worst, float((x - problem.ub).max(initial=0.0)))
    return float(worst)


def dump_lp(problem: LpProblem, path) -> None:
    """Write a plain-text rendering of the LP, mainly for golden-file tests.

    Format: a header line with shape, then f, b, lb, ub as labelled rows and
    A as a dense matrix, all through numpy's repr-stable %.17g formatting.
    """
    m, n = problem.A.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"lp rows={m} cols={n}\n")
        for name, vec in (("f", problem.f), ("b", problem.b),
                          ("lb", problem.lb), ("ub", problem.ub)):
            fh.write(name + " " + " ".join("%.17g" % v for v in vec) + "\n")
        fh.write("A\n")
        for i in range(m):
            fh.write(" ".join("%.17g" % v for v in problem.A[i]) + "\n")
        if problem.row_labels is not None:
            fh.write("rows " + " ".join(problem.row_labels) + "\n")
        if problem.col_labels is not None:
            fh.write("cols " + " ".join(problem.col_labels) + "\n")
