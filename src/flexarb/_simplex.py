"""Bounded dual simplex for boxed and elastic LPs.

``simplex_numpy`` solves  min c.x  s.t.  A x <= b,  lb <= x <= ub  after
the caller has row-equilibrated A.  Slack variables are handled
implicitly (unit columns).  Of the basis inverse it keeps only
K = inv(A[T, S]), the k x k block belonging to the k basic structural
columns (k <= min(m, n)); the slack columns of the other rows are applied
implicitly (see ``_ReducedBasis``).  Storage LPs have 2-3x more rows than
columns and k stays well below m, so a pivot costs O(k^2 + m k) instead
of O(m^2).

The kernel takes one class of LP, which ``solve_lp`` checks before it
calls it.  Every column is boxed, with both bounds within ``_HUGE_BND``,
or elastic: exactly one bound lies beyond ``_HUGE_BND``, moving toward it
relaxes every row the column has a nonzero in (see ``elastic_columns``),
and it never lowers the cost.  The epigraph columns t_i of the storage
and flex LPs are elastic.

A solve starts from a given basis, such as the optimal basis of an LP
that differs in ``b`` (the next point of a ramp-rate sweep), or else from
the elastic-column crash basis of ``_crash``: elastic columns are basic
in their binding rows, the other rows keep their slacks, and every
nonbasic column rests on a bound.

Boxed nonbasic columns first move to the bounds their reduced costs ask
for.  At the crash basis that alone makes every LP of the class
dual-feasible: the duals are nonzero only on the rows the elastic columns
claim, where they have the sign of a slack's, and no other elastic column
has a nonzero there.  A dual-feasible start also proves the LP bounded.
The bounded dual simplex of ``_dual_phase`` then brings the basis to
primal feasibility, and so to the optimum; it is the only simplex loop.
An infeasible LP is reported by the dual phase.  The dual ratio test
flips boxed columns past their breakpoints while the leaving row stays
infeasible (bound flipping), so one dual iteration can move many columns.
A given basis that flips cannot make dual-feasible ends
``NUMERICAL_FAILURE`` before any iteration, and ``solve_lp`` re-solves the
LP from the crash basis.

At the end the reduced costs are checked once more with the true costs,
and the basic values are solved afresh from A[T, S].  Every solve returns
its final basis in the crash's layout for the next solve.
"""

from __future__ import annotations

import enum

import numpy as np


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NUMERICAL_FAILURE = "numerical_failure"


# variable states
_BASIC = 0
_AT_LB = 1
_AT_UB = 2

_TOL_D = 1e-9       # reduced-cost optimality tolerance
_EPS_A = 1e-10      # column entries below this are treated as exact zeros
_RELAX = 1e-9       # primal feasibility tolerance
_TINY_PIV = 1e-11   # hard floor: pivoting on less than this is failure
_DEGEN_EPS = 1e-12  # step sizes below this count as degenerate
_BLAND_AFTER = 50   # consecutive degenerate pivots before Bland's rule
_HUGE_BND = 1e8     # bounds beyond this are far: only an elastic column may
                    # have one, and no column rests or flips onto it


class _ReducedBasis:
    """Basis inverse kept as the k x k block K = inv(A[T, S]).

    S lists the k basic structural columns and T the k rows whose slack is
    nonbasic.  Every other row (the set R) has its slack basic.  With rows
    ordered (T, R) and basic columns (S, R),

        B^-1 = [[K, 0], [-A_RS K, I]],

    so FTRAN, BTRAN and each basis change cost O(k^2 + m k), not O(m^2).
    Vectors in and out are in basis-position order, as with an explicit
    inverse; the S and T orders inside K are private.  ``prow`` and
    ``ppos`` link each slack's position and row.  Their entries for
    structural positions and rows of T go stale: ``solve`` and ``btran``
    overwrite what they read there.
    """

    def __init__(self, A, basic):
        """Position i of ``basic`` holds row i's slack or a structural
        column whose row of T is i.  K is diag(1/a) when A[T, S] is
        diagonal, as the crash leaves it, and a fresh inverse otherwise;
        a singular A[T, S] raises ``np.linalg.LinAlgError``."""
        m, n = A.shape
        cap = min(m, n)
        self.At = np.ascontiguousarray(A.T)   # columns of A as rows
        self.m = m
        self.n = n
        self.K = np.zeros((cap, cap))
        self.SA = np.empty((cap, m))          # A[:, S].T, rows in S order
        self.spos = np.empty(cap, np.int64)   # position of each S column
        self.trow = np.empty(cap, np.int64)   # T rows, in K's column order
        self.sidx = np.full(m, -1, np.int64)  # S index per position, or -1
        self.tidx = np.full(m, -1, np.int64)  # T index per row, or -1
        # slacks start in their own row's position
        self.prow = np.arange(m)              # row of a position's slack
        self.ppos = np.arange(m)              # position of a row's slack
        rows = np.flatnonzero(basic < n)
        k = self.k = rows.size
        cols = basic[rows]
        ks = np.arange(k)
        self.SA[:k] = self.At[cols]
        self.spos[:k] = rows
        self.trow[:k] = rows
        self.sidx[rows] = ks
        self.tidx[rows] = ks
        ATS = A[np.ix_(rows, cols)]
        diag = ATS.diagonal()
        if diag.all() and np.count_nonzero(ATS) == k:
            self.K[ks, ks] = 1.0 / diag
        elif not self.refactor():
            raise np.linalg.LinAlgError("singular basis")

    def solve(self, a, fresh=False):
        """B^-1 a, in position order.  ``fresh`` solves with A[T, S]
        itself instead of K, free of the roundoff of K's updates, and
        raises ``np.linalg.LinAlgError`` if A[T, S] is singular."""
        k = self.k
        aT = a[self.trow[:k]]
        if fresh:
            # adding 0.0 turns -0.0 into 0.0, so no "-0" reaches a CSV
            wS = np.linalg.solve(self.SA[:k, self.trow[:k]].T, aT) + 0.0
        else:
            wS = self.K[:k, :k] @ aT
        w = (a - wS @ self.SA[:k])[self.prow]
        w[self.spos[:k]] = wS
        return w

    def ftran(self, q):
        """B^-1 times the column of variable q: structural, or slack q - n."""
        if q < self.n:
            return self.solve(self.At[q])
        a = np.zeros(self.m)
        a[q - self.n] = 1.0
        return self.solve(a)

    def btran(self, cB):
        """cB . B^-1 with cB in position order; the result is over rows."""
        k = self.k
        y = cB[self.ppos]
        y[self.trow[:k]] = 0.0
        t = cB[self.spos[:k]]
        if y.any():
            t = t - self.SA[:k] @ y
        y[self.trow[:k]] = t @ self.K[:k, :k]
        return y

    def row(self, p):
        """Row p of B^-1: K's row placed on the T rows for a structural
        position, the row of a slack's row otherwise."""
        k = self.k
        beta = np.zeros(self.m)
        s = self.sidx[p]
        if s >= 0:
            beta[self.trow[:k]] = self.K[s, :k]
            return beta
        i = self.prow[p]
        beta[self.trow[:k]] = -(self.SA[:k, i] @ self.K[:k, :k])
        beta[i] = 1.0
        return beta

    def canonical(self, basic):
        """The basis in the crash's layout: row i's slack at position i,
        and each basic structural at the position of its T row."""
        k = self.k
        out = self.n + np.arange(self.m)
        out[self.trow[:k]] = basic[self.spos[:k]]
        return out

    def refactor(self):
        """Rebuild K from A[T, S]; False if that block is singular."""
        k = self.k
        try:
            self.K[:k, :k] = np.linalg.inv(self.SA[:k, self.trow[:k]].T)
        except np.linalg.LinAlgError:
            return False
        return True

    def pivot(self, p, q, w):
        """Variable q enters at position p, where w = ftran(q)."""
        k = self.k
        K = self.K[:k, :k]
        wS = w[self.spos[:k]]
        s = self.sidx[p]
        if q < self.n:
            if s >= 0:
                # structural for structural: replace column s of A[T, S]
                K[s] /= w[p]
                wS[s] = 0.0
                K -= np.outer(wS, K[s])
                self.SA[s] = self.At[q]
                return
            # structural for the slack of row r: border A[T, S] with row r
            # and column q; w[p] is the Schur complement
            r = self.prow[p]
            g = w[p]
            z = (self.SA[:k, r] @ K) / g
            K += np.outer(wS, z)
            self.K[:k, k] = -wS / g
            self.K[k, :k] = -z
            self.K[k, k] = 1.0 / g
            self.SA[k] = self.At[q]
            self.spos[k] = p
            self.sidx[p] = k
            self.trow[k] = r
            self.tidx[r] = k
            self.k = k + 1
            return
        # a nonbasic slack belongs to a row of T
        i = q - self.n
        ti = self.tidx[i]
        if s >= 0:
            # slack of T row i for structural s: drop row i and column s
            # from A[T, S], then move the last S and T entries into the gaps
            K -= np.outer(K[:, ti] / w[p], K[s])
            last = k - 1
            K[s] = K[last]
            K[:, ti] = K[:, last]
            self.SA[s] = self.SA[last]
            self.spos[s] = self.spos[last]
            self.sidx[self.spos[s]] = s
            self.trow[ti] = self.trow[last]
            self.tidx[self.trow[ti]] = ti
            self.sidx[p] = -1
            self.k = last
        else:
            # slack of T row i for the slack of row j: row i of A[T, S]
            # becomes row j (Sherman-Morrison)
            j = self.prow[p]
            z = self.SA[:k, j] @ K
            z[ti] -= 1.0
            K += np.outer(wS / w[p], z)
            self.trow[ti] = j
            self.tidx[j] = ti
        self.tidx[i] = -1
        self.prow[p] = i
        self.ppos[i] = p


#: Pricing sign per variable state: the score, sign times reduced cost, is
#: positive where moving off the bound lowers the cost.
_PRICE_SIGN = np.array([0.0, -1.0, 1.0])


def _scores(A, cost, basic, basis, vstat, movable):
    """Pricing scores of a basis, the reduced costs signed by each
    nonbasic variable's bound: positive where moving the variable off its
    bound lowers the cost, so the basis is dual-feasible where none
    exceeds ``_TOL_D``."""
    y = basis.btran(cost[basic])
    d = np.concatenate([cost[:A.shape[1]] - y @ A, -y])
    return d * _PRICE_SIGN[vstat] * movable


def elastic_columns(A, lb, ub):
    """Mask of the elastic columns of  A x <= b,  lb <= x <= ub.

    A column is elastic when exactly one of its bounds lies beyond
    ``_HUGE_BND`` and each of its nonzeros relaxes its row as the column
    moves toward that far bound: no positive entry for a far upper bound,
    no negative one for a far lower bound.  The epigraph columns of the
    storage and flex LPs are elastic.  Row scaling keeps the mask.
    """
    lo_far = np.abs(lb) > _HUGE_BND
    hi_far = np.abs(ub) > _HUGE_BND
    return ((hi_far & ~lo_far & (A.max(axis=0, initial=0.0) <= 0.0))
            | (lo_far & ~hi_far & (A.min(axis=0, initial=0.0) >= 0.0)))


def _crash(A, b, lb, ub):
    """Elastic-column crash basis of  A x <= b,  lb <= x <= ub, an LP of
    the kernel's class.

    1. Every column rests at its upper bound, or at its lower one where
       the upper lies beyond ``_HUGE_BND``.
    2. Each elastic column (see ``elastic_columns``) becomes basic in its
       binding row, the row that needs the largest move toward its far
       bound, unless the move is negative, would take the column beyond
       ``_HUGE_BND`` (past its far bound), or another elastic column
       shares one of its rows.  The claimed rows form T and A[T, S] is
       diagonal.
    3. Every other row keeps its slack.

    Returns the basis as (basic, at_ub) in the form ``check_basis`` takes,
    with row i's slack or the column that claimed row i at position i.
    """
    m, n = A.shape
    at_ub = np.abs(ub) <= _HUGE_BND
    x = np.where(at_ub, ub, lb)

    E = np.flatnonzero(elastic_columns(A, lb, ub))
    toward = np.where(at_ub[E], -1.0, 1.0)  # each one's way to its far bound
    AEt = A.T[E]
    nzE = AEt != 0.0
    touch = nzE.sum(axis=0)  # elastic columns per row
    # the binding row of each elastic column needs the largest move,
    # r_i / (a_ij * toward); a column with no nonzero has none
    r = b - A @ x
    need = np.divide(r, AEt * toward[:, None],
                     out=np.full(AEt.shape, -np.inf), where=nzE)
    T = need.argmax(axis=1)
    move = need[np.arange(E.size), T]
    value = x[E] + toward * move
    shared = (nzE & (touch > 1)).any(axis=1)
    ok = (move >= 0.0) & (np.abs(value) <= _HUGE_BND) & ~shared
    basic = n + np.arange(m)
    basic[T[ok]] = E[ok]
    at_ub[E[ok]] = False
    return basic, at_ub


def check_basis(basis, m, n):
    """A warm-start basis as (basic, at_ub) arrays; ValueError if it does
    not fit an LP with m rows and n columns.

    ``basic`` lists m distinct basic variables, structural j as j and row
    i's slack as n + i; ``at_ub`` flags the nonbasic structurals resting at
    their upper bound.  ``LpSolution.basis`` has this form.
    """
    try:
        basic, at_ub = basis
    except (TypeError, ValueError):
        raise ValueError("basis must be a (basic, at_ub) pair") from None
    basic = np.asarray(basic)
    at_ub = np.asarray(at_ub)
    if basic.shape != (m,) or at_ub.shape != (n,):
        raise ValueError(f"basis of shapes {basic.shape} and {at_ub.shape} "
                         f"does not fit an LP with {m} rows and {n} columns")
    if basic.dtype.kind not in "iu" or at_ub.dtype.kind != "b":
        raise ValueError("basis must hold integer indices and boolean flags")
    if m and (basic.min() < 0 or basic.max() >= n + m
              or np.unique(basic).size != m):
        raise ValueError(f"basis must list {m} distinct structurals or "
                         "slacks")
    return basic.astype(np.int64), at_ub


def _warm_start(A, lb, ub, basic_in, at_ub):
    """The kernel state of a basis, given or from ``_crash``, in the
    crash's layout.

    Slacks sit in their own rows and the structurals fill the other rows
    in the given order.  Nonbasic structurals rest at the bound ``at_ub``
    names, or at the other one where that bound lies beyond
    ``_HUGE_BND``.  Returns (vstat, xval, basic, basis); a singular basis
    raises ``np.linalg.LinAlgError``.
    """
    m, n = A.shape
    slack = basic_in >= n
    basic = n + np.arange(m)
    own = np.ones(m, bool)
    own[basic_in[slack] - n] = False
    basic[own] = basic_in[~slack]
    basis = _ReducedBasis(A, basic)
    up = (np.abs(ub) <= _HUGE_BND) & (at_ub | (np.abs(lb) > _HUGE_BND))
    vstat = np.full(n + m, _AT_LB)
    vstat[:n] = np.where(up, _AT_UB, _AT_LB)
    vstat[basic] = _BASIC
    xval = np.zeros(n + m)
    xval[:n] = np.where(up, ub, lb)
    return vstat, xval, basic, basis


def _flip(vstat, xval, LB, UB, cols):
    """Move the nonbasic boxed columns ``cols`` to their other bounds;
    returns the changes of their values."""
    up = vstat[cols] == _AT_LB
    old = xval[cols]
    vstat[cols] = np.where(up, _AT_UB, _AT_LB)
    xval[cols] = np.where(up, UB[cols], LB[cols])
    return xval[cols] - old


def _flip_pass(A, cost, LB, UB, vstat, xval, basic, basis, movable, boxed):
    """Make a basis dual-feasible by bound flips alone.

    Every boxed nonbasic column whose reduced cost has the wrong sign moves
    to its other bound (in place in ``vstat`` and ``xval``).  Returns
    whether the basis is then dual-feasible: False when a slack or an
    elastic column is still dual-infeasible, which no flip can repair.
    """
    score = _scores(A, cost, basic, basis, vstat, movable)
    flip = np.flatnonzero(boxed & (score > _TOL_D))
    _flip(vstat, xval, LB, UB, flip)
    score[flip] = -score[flip]
    return not (score > _TOL_D).any()


def _flip_walk(elig, ratio, harris, gain, slope):
    """Bound-flipping ratio test of one dual iteration.

    The candidates ``elig`` are taken in groups in the order of their
    ratios; a group is those within the Harris bound of the candidates
    left (their ratio is at most min((slack + _TOL_D) / e)).  ``gain`` is
    how far a candidate's flip moves the leaving row toward its bound, inf
    for an unboxed one.  A group flips, and the walk goes on, while the
    row stays more than ``_RELAX`` infeasible after its flips.  Returns
    (group, flipped): the group the entering column comes from, and the
    columns to flip.  The group is None when every candidate flips and the
    row is still infeasible, so the LP is.
    """
    order = np.argsort(ratio, kind="stable")
    r_sorted = ratio[order]
    # Harris bound of the candidates from each sorted position on
    h_tail = np.minimum.accumulate(harris[order][::-1])[::-1]
    g_sorted = gain[order]
    s = 0
    while s < order.size:
        end = int(np.searchsorted(r_sorted, h_tail[s], side="right"))
        left = slope - g_sorted[s:end].sum()
        if not left > _RELAX:
            return elig[order[s:end]], elig[order[:s]]
        slope = left
        s = end
    return None, elig


def _dual_phase(A, cost, LB, UB, vstat, xval, basic, xB, basis, movable,
                boxed, max_iter):
    """Bounded dual simplex from a dual-feasible basis to a primal-feasible
    one.

    The leaving variable is the basic one furthest beyond a bound; it
    leaves onto that bound.  Its row of B^-1 gives the pivot row alpha,
    and the entering variable is the nonbasic structural or slack with the
    smallest ratio |d_j / alpha_j| among those whose reduced cost would
    change sign, by a two-pass Harris test with tolerance ``_TOL_D`` that
    takes the largest |alpha_j| among near-ties.  Where that column is
    boxed and its flip alone would leave the leaving row infeasible,
    ``_flip_walk`` flips columns past their breakpoints instead and picks
    the entering column further on.  The primal step moves every basic
    value with the flips and the entering column, so the leaving variable
    lands exactly on its bound.  After ``_BLAND_AFTER`` degenerate steps
    both choices go to the lowest index, with no flips, until a step makes
    progress.

    Returns (status, xB, iterations): status is None once every basic
    value is within ``_RELAX`` of its bounds, INFEASIBLE when a violated
    row cannot be repaired by any candidate (the dual is unbounded), and
    NUMERICAL_FAILURE on a tiny pivot or at ``max_iter``.
    """
    m, n = A.shape
    span = np.where(boxed, UB - LB, np.inf)
    iters = 0
    degen_run = 0
    bland = False
    while True:
        lo = LB[basic]
        hi = UB[basic]
        below = lo - xB
        infeas = np.maximum(below, xB - hi)
        if bland:
            bad = np.flatnonzero(infeas > _RELAX)
            r = int(bad[np.argmin(basic[bad])]) if bad.size else 0
        else:
            r = int(np.argmax(infeas))
        if infeas[r] <= _RELAX:
            return None, xB, iters
        if iters >= max_iter:
            return SolveStatus.NUMERICAL_FAILURE, xB, iters
        to_lb = below[r] > 0.0

        y = basis.btran(cost[basic])
        beta = basis.row(r)
        yA, betaA = np.stack([y, beta]) @ A
        d = np.concatenate([cost[:n] - yA, -y])
        alpha = np.concatenate([betaA, beta])
        # d + t * alpha (to_lb) or d - t * alpha must keep each nonbasic
        # variable's reduced cost on the side of its bound as t grows
        sign = _PRICE_SIGN[vstat] * movable
        e = (alpha if to_lb else -alpha) * sign
        slack_d = np.maximum(-d * sign, 0.0)
        elig = np.flatnonzero(e > _EPS_A)
        if elig.size == 0:
            return SolveStatus.INFEASIBLE, xB, iters
        ej = e[elig]
        ratio = slack_d[elig] / ej
        harris = (slack_d[elig] + _TOL_D) / ej
        cand = elig[ratio <= harris.min()]
        flips = elig[:0]
        if bland:
            q = int(cand.min())
        else:
            q = int(cand[np.argmax(np.abs(alpha[cand]))])
            # e_j is |alpha_j|: a flip of j moves the leaving variable
            # e_j * span_j toward its bound
            if e[q] * span[q] < infeas[r]:
                cand, flips = _flip_walk(elig, ratio, harris,
                                         ej * span[elig], infeas[r])
                if cand is None:
                    return SolveStatus.INFEASIBLE, xB, iters
                q = int(cand[np.argmax(np.abs(alpha[cand]))])
        if flips.size:
            xB -= basis.solve(A[:, flips] @ _flip(vstat, xval, LB, UB, flips))

        w = basis.ftran(q)
        if abs(w[r]) < _TINY_PIV:
            return SolveStatus.NUMERICAL_FAILURE, xB, iters
        bound = lo[r] if to_lb else hi[r]
        theta = (xB[r] - bound) / w[r]
        xB -= theta * w
        leaving = basic[r]
        vstat[leaving] = _AT_LB if to_lb else _AT_UB
        xval[leaving] = bound
        xB[r] = xval[q] + theta
        basic[r] = q
        vstat[q] = _BASIC
        basis.pivot(r, q, w)
        iters += 1
        if slack_d[q] / abs(alpha[q]) <= _DEGEN_EPS:
            degen_run += 1
            if degen_run > _BLAND_AFTER:
                bland = True
        else:
            degen_run = 0
            bland = False


def simplex_numpy(A, b, c, lb, ub, max_iter, *, basis=None):
    """Solve an LP of the kernel's class from ``basis`` when one is given,
    or from the crash basis.

    Both take one path: ``_warm_start`` turns the basis (see
    ``check_basis``) into the kernel state, ``_flip_pass`` makes it
    dual-feasible, and ``_dual_phase`` brings it to primal feasibility.  A
    check of the true reduced costs and a fresh solve of the basic values
    from the final basis follow.  A singular given basis raises
    ``np.linalg.LinAlgError``.  A has at least one row.

    Returns (status, x, iterations, basis out): status is a
    ``SolveStatus``, ``NUMERICAL_FAILURE`` with no iteration for a basis
    that flips cannot make dual-feasible, and the basis is in the form
    ``check_basis`` takes, whatever the status.
    """
    m, n = A.shape
    LB = np.concatenate([lb, np.zeros(m)])
    UB = np.concatenate([ub, np.full(m, np.inf)])
    movable = (UB > LB).astype(float)
    boxed = ((np.abs(LB) <= _HUGE_BND) & (np.abs(UB) <= _HUGE_BND)
             & (UB > LB))
    cost = np.concatenate([c, np.zeros(m)])

    if basis is None:
        basis = _crash(A, b, lb, ub)
    vstat, xval, basic, basis = _warm_start(A, lb, ub, *basis)
    feasible = _flip_pass(A, cost, LB, UB, vstat, xval, basic, basis,
                          movable, boxed)
    nb = vstat[:n] != _BASIC
    xB = basis.solve(b - A[:, nb] @ xval[:n][nb])
    status, iters = SolveStatus.NUMERICAL_FAILURE, 0
    if feasible:
        status, xB, iters = _dual_phase(A, cost, LB, UB, vstat, xval, basic,
                                        xB, basis, movable, boxed, max_iter)
    if status is None:
        status = SolveStatus.NUMERICAL_FAILURE
        if _scores(A, cost, basic, basis, vstat, movable).max() <= _TOL_D:
            # report the basic values of the final basis solved afresh from
            # A[T, S] x_S = r[T], not the updated ones, which carry the
            # roundoff of every bound flip and every update of K
            nb = vstat[:n] != _BASIC
            try:
                xB = basis.solve(b - A[:, nb] @ xval[:n][nb], fresh=True)
                status = SolveStatus.OPTIMAL
            except np.linalg.LinAlgError:
                pass

    x = xval[:n].copy()
    struct = basic < n
    x[basic[struct]] = xB[struct]
    return status, x, iters, (basis.canonical(basic), vstat[:n] == _AT_UB)


# perfbench/spans.py wraps each of its CALL_SITES with a bare getattr, and
# its list still names this attribute; the placeholder keeps traced runs
# working until that list drops it.
simplex_numba = None
