"""Generic box-bounded inequality LP container and solver front end.

The canonical form used throughout the package is

    minimise    f . x
    subject to  A x <= b
                lb <= x <= ub

``solve_lp`` row-equilibrates A, solves it with the bounded-variable
simplex of :mod:`flexarb._simplex`, and verifies the returned point
against the original (unscaled) data before reporting it as optimal.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from . import _simplex

#: Sentinel bounds for epigraph helper variables; wide enough to be inactive
#: for any sane price signal, finite so the LP stays bounded by construction.
BIG_BOUND = 1e9

FEASIBILITY_TOL = 1e-6


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"


_STATUS_FROM_CODE = {
    _simplex.OPTIMAL: SolveStatus.OPTIMAL,
    _simplex.INFEASIBLE: SolveStatus.INFEASIBLE,
    _simplex.UNBOUNDED: SolveStatus.UNBOUNDED,
    _simplex.NUMERICAL_FAILURE: SolveStatus.NUMERICAL_FAILURE,
}


class LpValidationError(ValueError):
    """Raised when an LpProblem fails validate_lp checks before solving."""

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
    ``dump_lp`` and by constraint-violation messages; they carry no
    mathematical meaning.
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
    """How a solve went.  ``iterations`` counts the dual and primal simplex
    iterations of every kernel attempt; a dual iteration counts once,
    however many columns its ratio test flips.  ``warm_start`` is True
    when the result was solved from the passed basis; it is False after a
    cold re-solve, and when the kernel dropped a singular basis for its
    crash start.  ``backend`` names the one solver, for the JSON outputs
    and the benchmark harness that still read it."""

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
        label = (problem.col_labels[j] if problem.col_labels is not None
                 else f"col {j}")
        diags.append(f"empty bound interval at {label}: "
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


def solve_lp(problem: LpProblem, max_iter: int = 0,
             basis: tuple = None) -> LpSolution:
    """Solve the LP, returning an LpSolution with verified status.

    ``max_iter`` of 0 picks a size-based default.  ``basis``, such as the
    ``basis`` of a solve of an LP of the same shape, is where the simplex
    starts (see ``_simplex.simplex_numpy``); one of the wrong shape raises
    ValueError.  Without one the simplex starts from the crash basis.  A
    warm attempt's INFEASIBLE or UNBOUNDED verdict stands: the dual phase
    proves the one and phase 2 the other whatever the start.  Only a
    numerical failure, or an optimum that fails the feasibility check, is
    solved again from the crash basis, and that result is reported.
    """
    diags = validate_lp(problem)
    if diags:
        raise LpValidationError(diags)
    if basis is not None:
        basis = _simplex.check_basis(basis, *problem.A.shape)

    t0 = time.perf_counter()
    f = problem.f
    A = problem.A
    b = problem.b
    lb = problem.lb
    ub = problem.ub
    m, n = A.shape

    if max_iter <= 0:
        max_iter = 2000 + 60 * (m + n)

    if m == 0:
        # pure box problem: each variable sits at its cheaper bound
        x = np.where(f >= 0.0, lb, ub)
        unb = ((f > 0.0) & np.isneginf(lb)) | ((f < 0.0) & np.isposinf(ub))
        if unb.any():
            status = SolveStatus.UNBOUNDED
            x = np.zeros(n)
            obj = float("nan")
        else:
            status = SolveStatus.OPTIMAL
            obj = float(f @ x)
        stats = SolveStats(0, time.perf_counter() - t0, 0.0)
        return LpSolution(x, obj, status, stats)

    # row equilibration: scale every row of [A | b] so max |A_ij| is one
    scale = _row_scale(A)
    As = A / scale[:, None]
    bs = b / scale
    lbt, ubt = _tighten_bounds(A, b, lb, ub)

    run = _simplex.simplex_numpy
    args = (As, bs, f.astype(float), lbt, ubt)
    tol = FEASIBILITY_TOL * max(1.0, np.abs(b).max())

    def verified(result):
        """(code, x, iterations, basis out, residual) of a kernel call;
        an optimum that fails the feasibility check becomes a failure."""
        code, x, it, out = result[:4]
        resid = float("nan")
        if code == _simplex.OPTIMAL:
            resid = _max_violation(problem, x, scale)
            if resid > tol:
                code = _simplex.NUMERICAL_FAILURE
        return code, x, int(it), out, resid

    iters = 0
    warm = False
    code = _simplex.NUMERICAL_FAILURE
    if basis is not None:
        result = run(*args, max_iter, 0, basis=basis)
        code, x, iters, out, resid = verified(result)
        # a singular basis is dropped inside the kernel for the crash start
        warm = result[4]
    if code == _simplex.NUMERICAL_FAILURE:
        # from the crash basis, then once more with periodic refactoring
        warm = False
        for refactor_every in (0, 96):
            result = run(*args, max_iter, refactor_every)
            code, x, it, out, resid = verified(result)
            iters += it
            if code == _simplex.OPTIMAL or result[0] != _simplex.OPTIMAL:
                break

    status = _STATUS_FROM_CODE[code]
    if status is SolveStatus.OPTIMAL:
        obj = float(f @ x)
    else:
        x = np.full(n, np.nan)
        obj = float("nan")
        resid = float("nan")
        out = None
    stats = SolveStats(iters, time.perf_counter() - t0, resid, warm)
    return LpSolution(x, obj, status, stats, out)


def _row_scale(A: np.ndarray) -> np.ndarray:
    """Largest |A_ij| of each row, with 1 for an all-zero row."""
    scale = np.abs(A).max(axis=1)
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


def constraint_report(problem: LpProblem, x: np.ndarray,
                      tol: float = FEASIBILITY_TOL) -> list:
    """Rows violated by x beyond tol, as (index, label, violation) tuples."""
    r = (problem.A @ x - problem.b) / _row_scale(problem.A)
    out = []
    for i in np.nonzero(r > tol)[0]:
        label = (problem.row_labels[i] if problem.row_labels is not None
                 else f"row {i}")
        out.append((int(i), label, float(r[i])))
    return out


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
