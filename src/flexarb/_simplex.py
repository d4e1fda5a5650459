"""Bounded-variable revised simplex kernels.

Two implementations of the same simplex method live here:

* ``simplex_numba`` -- loop-level kernel compiled with ``numba.njit``.  It
  keeps the full m x m basis inverse and updates it by Gauss-Jordan pivots.
* ``simplex_numpy`` -- pure numpy, used when numba is unavailable or when
  ``FLEXARB_BACKEND=numpy`` is set.  It keeps only K = inv(A[T, S]), the
  k x k block of the basis belonging to its k basic structural columns
  (k <= min(m, n)); the slack and artificial columns of the other rows are
  applied implicitly (see ``_ReducedBasis``).  Storage LPs have 2-3x more
  rows than columns and k stays well below m, so a pivot costs
  O(k^2 + m k) instead of O(m^2).

Both solve  min c.x  s.t.  A x <= b,  lb <= x <= ub  after the caller has
row-equilibrated A.  Slack and artificial variables are handled implicitly
(unit columns).  Entering variables are picked by Dantzig pricing with a
switch to Bland's rule after a run of degenerate pivots, so the iteration
is finite and deterministic; leaving ones by a two-pass Harris ratio test.

The kernels start differently.  The numba kernel rests every column on
the bound its column sum points to and gives every violated row an
artificial.  The numpy kernel starts from an elastic-column crash basis
(``_crash``): columns that only relax their rows as they grow toward a
huge bound, such as the epigraph columns t_i of the storage and flex LPs,
start basic in their binding rows, and the other columns rest on the
bounds that leave the fewest violations.  Storage LPs without ramp rows
then start primal-feasible and flex LPs miss at most their deadline rows,
so phase 1 is short or absent.  The numpy kernel also rests free columns
at zero, relaxes bounds in its ratio test by 1e-9 rather than 1e-7, moves
the basic values with a leaving variable that its ratio test snaps onto a
bound it had already crossed, and solves its final basic values afresh
from A[T, S] at the optimum.  The kernels therefore agree on objectives,
not bitwise on schedules.

Only the numpy kernel warm-starts.  Given a basis, such as the optimal
basis of an LP that differs in ``b`` (the next point of a ramp-rate
sweep), it factors that basis and flips boxed columns to the bounds their
reduced costs ask for.  A primal-feasible basis then goes straight to
phase 2.  A dual-feasible one first runs a bounded dual simplex phase
(``_dual_phase``) until it is primal-feasible.  A singular basis, or one
that is neither, is dropped for the crash start.  The numpy kernel
returns its final basis in the crash's layout for the next solve.  The
numba kernel always solves cold and returns no basis.

Status codes: 0 optimal, 1 infeasible, 2 unbounded, 3 numerical failure.
"""

from __future__ import annotations

import os

import numpy as np

OPTIMAL = 0
INFEASIBLE = 1
UNBOUNDED = 2
NUMERICAL_FAILURE = 3

# variable states
_BASIC = 0
_AT_LB = 1
_AT_UB = 2
_LOCKED = 3  # artificial that is out of play

_TOL_D = 1e-9       # reduced-cost optimality tolerance
_TOL_PIV = 1e-7     # pivot magnitude below which we try to avoid pivoting
_EPS_A = 1e-10      # column entries below this are treated as exact zeros
_RELAX = 1e-7       # Harris ratio-test bound relaxation per row (numba)
_RELAX_NUMPY = 1e-9  # the same in the numpy kernel, see simplex_numpy
_TINY_PIV = 1e-11   # hard floor: pivoting on less than this is failure
_DEGEN_EPS = 1e-12  # step sizes below this count as degenerate
_BLAND_AFTER = 50   # consecutive degenerate pivots before Bland's rule
_HUGE_BND = 1e8     # crash avoids resting variables beyond this magnitude
_CRASH_TOL = 1e-12  # crash: rows violated by less than this need no artificial


def _env_backend() -> str:
    choice = os.environ.get("FLEXARB_BACKEND", "").strip().lower()
    if choice in ("numba", "numpy"):
        return choice
    return "numba" if _HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# numba kernel
# ---------------------------------------------------------------------------

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


@njit(cache=True, nogil=True)
def _refactorize(m, n, colp, rowi, vals, basic, Binv):
    """Rebuild Binv from the basis columns; returns False if singular."""
    B = np.zeros((m, m))
    for p in range(m):
        v = basic[p]
        if v < n:
            for k in range(colp[v], colp[v + 1]):
                B[rowi[k], p] = vals[k]
        elif v < n + m:
            B[v - n, p] = 1.0
        else:
            B[v - n - m, p] = -1.0
    # Gauss-Jordan with partial pivoting on [B | I]
    for p in range(m):
        Binv[p, :] = 0.0
        Binv[p, p] = 1.0
    for col in range(m):
        piv = abs(B[col, col])
        pr = col
        for i in range(col + 1, m):
            if abs(B[i, col]) > piv:
                piv = abs(B[i, col])
                pr = i
        if piv < 1e-12:
            return False
        if pr != col:
            for k in range(m):
                tmp = B[col, k]
                B[col, k] = B[pr, k]
                B[pr, k] = tmp
                tmp = Binv[col, k]
                Binv[col, k] = Binv[pr, k]
                Binv[pr, k] = tmp
        inv = 1.0 / B[col, col]
        for k in range(m):
            B[col, k] *= inv
            Binv[col, k] *= inv
        for i in range(m):
            if i != col:
                f = B[i, col]
                if f != 0.0:
                    for k in range(m):
                        B[i, k] -= f * B[col, k]
                        Binv[i, k] -= f * Binv[col, k]
    return True


@njit(cache=True, nogil=True)
def _recompute_xb(m, n, colp, rowi, vals, b, xval, vstat, Binv, xB):
    """xB = Binv (b - sum of nonbasic columns at their bound values)."""
    r = b.copy()
    for j in range(n):
        if vstat[j] != _BASIC:
            xj = xval[j]
            if xj != 0.0:
                for k in range(colp[j], colp[j + 1]):
                    r[rowi[k]] -= vals[k] * xj
    # nonbasic slacks and artificials sit at zero, so nothing more to subtract
    for i in range(m):
        s = 0.0
        row = Binv[i]
        for k in range(m):
            s += row[k] * r[k]
        xB[i] = s


@njit(cache=True, nogil=True)
def _simplex_core(m, n, colp, rowi, vals, b, c, lb, ub,
                  tol_feas, max_iter, refactor_every):
    n_tot = n + 2 * m
    LB = np.empty(n_tot)
    UB = np.empty(n_tot)
    for j in range(n):
        LB[j] = lb[j]
        UB[j] = ub[j]
    for i in range(m):
        LB[n + i] = 0.0
        UB[n + i] = np.inf
        LB[n + m + i] = 0.0
        UB[n + m + i] = np.inf

    vstat = np.empty(n_tot, np.int64)
    xval = np.zeros(n_tot)
    # crash: put each structural at the bound that leaves the rows slackest,
    # except that a huge bound never beats a modest one (resting variables at
    # 1e9-scale values poisons every later pivot with 1e-7-scale roundoff)
    for j in range(n):
        s = 0.0
        for k in range(colp[j], colp[j + 1]):
            s += vals[k]
        pick_lb = s >= 0.0
        if pick_lb:
            if abs(LB[j]) > _HUGE_BND and abs(UB[j]) <= _HUGE_BND:
                pick_lb = False
        else:
            if abs(UB[j]) > _HUGE_BND and abs(LB[j]) <= _HUGE_BND:
                pick_lb = True
        if pick_lb:
            vstat[j] = _AT_LB
            xval[j] = LB[j]
        else:
            vstat[j] = _AT_UB
            xval[j] = UB[j]

    r = b.copy()
    for j in range(n):
        xj = xval[j]
        if xj != 0.0:
            for k in range(colp[j], colp[j + 1]):
                r[rowi[k]] -= vals[k] * xj

    basic = np.empty(m, np.int64)
    Binv = np.zeros((m, m))
    xB = np.empty(m)
    n_art = 0
    cost = np.zeros(n_tot)
    for i in range(m):
        if r[i] >= 0.0:
            basic[i] = n + i
            Binv[i, i] = 1.0
            xB[i] = r[i]
            vstat[n + i] = _BASIC
            vstat[n + m + i] = _LOCKED
        else:
            basic[i] = n + m + i
            Binv[i, i] = -1.0
            xB[i] = -r[i]
            vstat[n + m + i] = _BASIC
            vstat[n + i] = _AT_LB
            cost[n + m + i] = 1.0
            n_art += 1
    phase = 1 if n_art > 0 else 2
    if phase == 2:
        for j in range(n):
            cost[j] = c[j]

    y = np.empty(m)
    w = np.empty(m)
    iters = 0
    degen_run = 0
    bland = False
    status = -1

    while True:
        if iters >= max_iter:
            status = NUMERICAL_FAILURE
            break
        if refactor_every > 0 and iters > 0 and iters % refactor_every == 0:
            if not _refactorize(m, n, colp, rowi, vals, basic, Binv):
                status = NUMERICAL_FAILURE
                break
            _recompute_xb(m, n, colp, rowi, vals, b, xval, vstat, Binv, xB)
        elif iters > 0 and iters % 512 == 0:
            _recompute_xb(m, n, colp, rowi, vals, b, xval, vstat, Binv, xB)

        # BTRAN: y = cB . Binv, exploiting that most basic costs are zero
        for k in range(m):
            y[k] = 0.0
        for p in range(m):
            cb = cost[basic[p]]
            if cb != 0.0:
                row = Binv[p]
                for k in range(m):
                    y[k] += cb * row[k]

        # pricing (Dantzig, or first eligible under Bland)
        best_j = -1
        best_dir = 0
        best_score = _TOL_D
        for j in range(n + m):
            st = vstat[j]
            if st == _BASIC or st == _LOCKED:
                continue
            if UB[j] - LB[j] <= 0.0:
                continue  # fixed variable, nothing to move
            if j < n:
                d = cost[j]
                for k in range(colp[j], colp[j + 1]):
                    d -= y[rowi[k]] * vals[k]
            else:
                d = -y[j - n]
            if st == _AT_LB:
                if d < -_TOL_D:
                    score = -d
                    if bland:
                        best_j = j
                        best_dir = 1
                        break
                    if score > best_score:
                        best_score = score
                        best_j = j
                        best_dir = 1
            else:
                if d > _TOL_D:
                    score = d
                    if bland:
                        best_j = j
                        best_dir = -1
                        break
                    if score > best_score:
                        best_score = score
                        best_j = j
                        best_dir = -1

        if best_j < 0:
            if phase == 1:
                infeas = 0.0
                for i in range(m):
                    if basic[i] >= n + m and xB[i] > 0.0:
                        infeas += xB[i]
                bscale = 1.0
                for i in range(m):
                    if abs(b[i]) > bscale:
                        bscale = abs(b[i])
                if infeas > tol_feas * bscale:
                    status = INFEASIBLE
                    break
                # drive leftover artificials out where a usable pivot exists
                for p in range(m):
                    if basic[p] < n + m:
                        continue
                    beta = Binv[p]
                    pick = -1
                    pick_a = _TOL_PIV
                    for j in range(n + m):
                        if vstat[j] == _BASIC or vstat[j] == _LOCKED:
                            continue
                        if j < n:
                            a = 0.0
                            for k in range(colp[j], colp[j + 1]):
                                a += beta[rowi[k]] * vals[k]
                        else:
                            a = beta[j - n]
                        if abs(a) > pick_a:
                            pick_a = abs(a)
                            pick = j
                    if pick >= 0:
                        # degenerate swap: entering stays at its bound value
                        if pick < n:
                            for i in range(m):
                                s = 0.0
                                row = Binv[i]
                                for k in range(colp[pick], colp[pick + 1]):
                                    s += row[rowi[k]] * vals[k]
                                w[i] = s
                        else:
                            for i in range(m):
                                w[i] = Binv[i, pick - n]
                        art = basic[p]
                        vstat[art] = _LOCKED
                        UB[art] = 0.0
                        basic[p] = pick
                        vstat[pick] = _BASIC
                        xB[p] = xval[pick]
                        pr = 1.0 / w[p]
                        for k in range(m):
                            Binv[p, k] *= pr
                        for i in range(m):
                            if i != p:
                                f = w[i]
                                if f != 0.0:
                                    row = Binv[i]
                                    prow = Binv[p]
                                    for k in range(m):
                                        row[k] -= f * prow[k]
                    else:
                        # redundant row: pin the artificial at zero in place
                        UB[basic[p]] = 0.0
                for i in range(m):
                    if vstat[n + m + i] != _BASIC:
                        vstat[n + m + i] = _LOCKED
                        UB[n + m + i] = 0.0
                for j in range(n_tot):
                    cost[j] = c[j] if j < n else 0.0
                phase = 2
                bland = False
                degen_run = 0
                iters += 1
                continue
            status = OPTIMAL
            break

        q = best_j
        # FTRAN: w = Binv . A[:, q]
        if q < n:
            for i in range(m):
                s = 0.0
                row = Binv[i]
                for k in range(colp[q], colp[q + 1]):
                    s += row[rowi[k]] * vals[k]
                w[i] = s
        else:
            for i in range(m):
                w[i] = Binv[i, q - n]

        # ratio test, pass 1 (Harris): shortest step against bounds relaxed
        # by _RELAX, counting every nonzero entry so no blocker is skipped
        t_flip = UB[q] - LB[q]
        t_rel = np.inf
        for i in range(m):
            alpha = best_dir * w[i]
            if alpha > _EPS_A:
                ti = (xB[i] - LB[basic[i]] + _RELAX) / alpha
            elif alpha < -_EPS_A:
                ti = (xB[i] - UB[basic[i]] - _RELAX) / alpha
            else:
                continue
            if ti < 0.0:
                ti = 0.0
            if ti < t_rel:
                t_rel = ti
        if not (t_rel < np.inf) and not (t_flip < np.inf):
            status = UNBOUNDED if phase == 2 else NUMERICAL_FAILURE
            break

        if t_flip <= t_rel:
            # bound flip: no basis change, blockers stay within the relaxation
            delta = best_dir * t_flip
            for i in range(m):
                xB[i] -= w[i] * delta
            if vstat[q] == _AT_LB:
                vstat[q] = _AT_UB
                xval[q] = UB[q]
            else:
                vstat[q] = _AT_LB
                xval[q] = LB[q]
            iters += 1
            if t_flip > _DEGEN_EPS:
                degen_run = 0
                bland = False
            continue

        # pass 2: among rows whose true ratio fits inside the relaxed step,
        # take the largest pivot (lowest variable index under Bland's rule)
        rpos = -1
        rbest = 0.0
        rindex = n_tot + 1
        t_star = 0.0
        for i in range(m):
            alpha = best_dir * w[i]
            if alpha > _EPS_A:
                ti = (xB[i] - LB[basic[i]]) / alpha
            elif alpha < -_EPS_A:
                ti = (xB[i] - UB[basic[i]]) / alpha
            else:
                continue
            if ti < 0.0:
                ti = 0.0
            if ti <= t_rel:
                if bland:
                    if basic[i] < rindex:
                        rindex = basic[i]
                        rpos = i
                        t_star = ti
                else:
                    a = abs(w[i])
                    if a > rbest:
                        rbest = a
                        rpos = i
                        t_star = ti
        if rpos < 0 or abs(w[rpos]) < _TINY_PIV:
            status = NUMERICAL_FAILURE
            break

        delta = best_dir * t_star
        for i in range(m):
            xB[i] -= w[i] * delta
        leaving = basic[rpos]
        alpha_r = best_dir * w[rpos]
        if leaving >= n + m:
            vstat[leaving] = _LOCKED
            UB[leaving] = 0.0
        elif alpha_r > 0.0:
            vstat[leaving] = _AT_LB
            xval[leaving] = LB[leaving]
        else:
            vstat[leaving] = _AT_UB
            xval[leaving] = UB[leaving]
        enter_val = xval[q] + delta
        basic[rpos] = q
        vstat[q] = _BASIC
        xB[rpos] = enter_val

        piv = 1.0 / w[rpos]
        prow = Binv[rpos]
        for k in range(m):
            prow[k] *= piv
        for i in range(m):
            if i != rpos:
                f = w[i]
                if f != 0.0:
                    row = Binv[i]
                    for k in range(m):
                        row[k] -= f * prow[k]

        iters += 1
        if t_star <= _DEGEN_EPS:
            degen_run += 1
            if degen_run > _BLAND_AFTER:
                bland = True
        else:
            degen_run = 0
            bland = False

    x = np.empty(n)
    for j in range(n):
        x[j] = xval[j]
    for i in range(m):
        if basic[i] < n:
            x[basic[i]] = xB[i]
    return status, x, iters


def simplex_numba(A, colp, rowi, vals, b, c, lb, ub, tol_feas, max_iter,
                  refactor_every=0):
    return _simplex_core(A.shape[0], A.shape[1], colp, rowi, vals, b, c,
                         lb, ub, tol_feas, max_iter, refactor_every)


# ---------------------------------------------------------------------------
# numpy kernel: same pivot rules, reduced-basis representation
# ---------------------------------------------------------------------------


class _ReducedBasis:
    """Basis inverse kept as the k x k block K = inv(A[T, S]).

    S lists the k basic structural columns and T the k rows whose logical
    is nonbasic.  Every other row i (the set R) has a basic logical with
    column sigma_i e_i: +1 for a slack, -1 for an artificial.  With rows
    ordered (T, R) and basic columns (S, R),

        B^-1 = [[K, 0], [-D A_RS K, D]],   D = diag(sigma_R),

    so FTRAN, BTRAN and each basis change cost O(k^2 + m k), not O(m^2).
    Vectors in and out are in basis-position order, as with an explicit
    inverse; the S and T orders inside K are private.  ``prow`` and
    ``ppos`` link each logical's position and row.  Their entries for
    structural positions and rows of T go stale: ``solve`` overwrites the
    former, and ``btran`` multiplies the latter by sigma = 0.
    """

    def __init__(self, A, basic):
        """Position i of ``basic`` holds row i's logical or a structural
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
        # logicals start in their own row's position
        self.prow = np.arange(m)              # row of a position's logical
        self.ppos = np.arange(m)              # position of a row's logical
        # sigma of each row's basic logical; 0 for a row of T
        self.rsig = np.where(basic < n + m, 1.0, -1.0)
        rows = np.flatnonzero(basic < n)
        k = self.k = rows.size
        cols = basic[rows]
        ks = np.arange(k)
        self.SA[:k] = self.At[cols]
        self.spos[:k] = rows
        self.trow[:k] = rows
        self.sidx[rows] = ks
        self.tidx[rows] = ks
        self.rsig[rows] = 0.0
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
        w = (self.rsig * (a - wS @ self.SA[:k]))[self.prow]
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
        y = cB[self.ppos] * self.rsig
        t = cB[self.spos[:k]]
        if y.any():
            t = t - self.SA[:k] @ y
        y[self.trow[:k]] = t @ self.K[:k, :k]
        return y

    def row(self, p):
        """Row p of B^-1: K's row placed on the T rows for a structural
        position, the row of a logical's row otherwise."""
        k = self.k
        beta = np.zeros(self.m)
        s = self.sidx[p]
        if s >= 0:
            beta[self.trow[:k]] = self.K[s, :k]
            return beta
        i = self.prow[p]
        s = self.rsig[i]
        beta[self.trow[:k]] = -s * (self.SA[:k, i] @ self.K[:k, :k])
        beta[i] = s
        return beta

    def canonical(self, basic):
        """The basis in the crash's layout: row i's logical at position i,
        an artificial mapped to its row's slack, and each basic
        structural at the position of its T row."""
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
            # structural for the logical of row r: border A[T, S] with
            # row r and column q; g is the Schur complement
            r = self.prow[p]
            g = self.rsig[r] * w[p]
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
            self.rsig[r] = 0.0
            self.k = k + 1
            return
        i = q - self.n
        ti = self.tidx[i]
        if ti >= 0 and s >= 0:
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
            self.tidx[i] = -1
            self.k = last
        elif ti >= 0:
            # slack of T row i for the logical of row j: row i of A[T, S]
            # becomes row j (Sherman-Morrison)
            j = self.prow[p]
            z = self.SA[:k, j] @ K
            z[ti] -= 1.0
            K -= np.outer(wS / (-self.rsig[j] * w[p]), z)
            self.trow[ti] = j
            self.tidx[j] = ti
            self.tidx[i] = -1
            self.rsig[j] = 0.0
        # else the slack replaces the artificial of its own row
        self.rsig[i] = 1.0
        self.prow[p] = i
        self.ppos[i] = p


_FREE = 4  # free structural resting at zero, off any bound

#: Pricing sign per variable state: the score, sign times reduced cost, is
#: positive where moving off the bound lowers the cost.  A free column's
#: score is |d| and is set apart.
_PRICE_SIGN = np.array([0.0, -1.0, 1.0, 0.0, 0.0])


def _scores(d, vstat, movable, has_free=True):
    """Pricing scores: positive where moving a nonbasic variable off its
    bound lowers the cost.  A free column leaves zero in the direction that
    lowers the cost and, with both bounds infinite, never leaves the basis
    again; its score is |d|.  ``has_free`` False skips the search for free
    columns, which costs a few percent of a pivot."""
    score = d * _PRICE_SIGN[vstat] * movable
    if has_free:
        free = np.flatnonzero(vstat == _FREE)
        score[free] = np.abs(d[free])
    return score


def _crash(A, b, lb, ub):
    """Elastic-column crash basis of  A x <= b,  lb <= x <= ub.

    1. A column is elastic when exactly one of its bounds lies beyond
       ``_HUGE_BND`` and each of its nonzeros relaxes its row as the column
       moves toward that bound, such as the epigraph columns of the storage
       and flex LPs.  Elastic columns rest at their finite bound.
    2. Every other column starts at clip(0, lb, ub) and then, in column
       order, moves to the finite bound that leaves the smaller total
       violation over the rows no elastic column touches (the upper one
       on a tie).  A column with only one finite bound rests there; one
       with both bounds huge rests at the bound its column sum points to,
       and one with both infinite is free at zero.
    3. Each elastic column becomes basic in its binding row, the row that
       needs the largest move toward its huge bound, unless the move is
       negative, would take the column beyond ``_HUGE_BND`` (past its far
       bound), or another elastic column shares one of its rows.  The
       claimed rows form T and A[T, S] is diagonal.
    4. Every other row gets its slack, or an artificial if it is still
       violated.

    Returns (vstat, xval, basic, xB): states and values over structurals,
    slacks and artificials, and the basic variable and value at each
    position, where row i's logical or the column that claimed row i sits.
    """
    m, n = A.shape
    n_tot = n + 2 * m
    lo_ok = np.abs(lb) <= _HUGE_BND
    hi_ok = np.abs(ub) <= _HUGE_BND
    amax = A.max(axis=0, initial=0.0)
    amin = A.min(axis=0, initial=0.0)
    E = np.flatnonzero((lo_ok & ~hi_ok & (amax <= 0.0) & (amin < 0.0))
                       | (hi_ok & ~lo_ok & (amin >= 0.0) & (amax > 0.0)))
    toward = np.where(hi_ok[E], -1.0, 1.0)  # each one's way to its huge bound

    # step 2: starting values, then the greedy pass over two-bound columns
    x = np.where(lo_ok, lb, np.where(hi_ok, ub, 0.0))
    x[lo_ok & hi_ok] = np.clip(0.0, lb, ub)[lo_ok & hi_ok]
    huge = ~lo_ok & ~hi_ok
    free = huge & np.isinf(lb) & np.isinf(ub)
    if huge.any():
        # the column sum picks the bound, but never an infinite one
        to_lb = (((A[:, huge].sum(axis=0) >= 0.0) | np.isinf(ub[huge]))
                 & ~np.isinf(lb[huge]))
        x[huge] = np.where(to_lb, lb[huge], ub[huge])
        x[free] = 0.0

    AEt = A.T[E]
    nzE = AEt != 0.0
    touch = nzE.sum(axis=0)  # elastic columns per row
    open_rows = touch == 0

    G = np.flatnonzero(lo_ok & hi_ok & (lb < ub))
    AUt = A.T[G][:, open_rows]
    live = np.flatnonzero(AUt.any(axis=1))
    to_hi = np.ones(G.size, bool)
    if live.size:
        s = A[open_rows] @ x - b[open_rows]
        # the two candidate moves of each column, as changes of s
        step = np.stack([lb[G] - x[G], ub[G] - x[G]], axis=1)[live]
        moves = step[:, :, None] * AUt[live][:, None, :]
        ones = np.ones(s.size)
        buf = np.empty((2, s.size))
        picks = []
        for mk in moves:
            cand = s + mk
            lo_viol, hi_viol = (np.maximum(cand, 0.0, out=buf) @ ones).tolist()
            up = hi_viol <= lo_viol
            picks.append(up)
            s = cand[1] if up else cand[0]
        to_hi[live] = picks
    x[G] = np.where(to_hi, ub[G], lb[G])

    # step 3: the binding row of each elastic column needs the largest
    # move, r_i / (a_ij * toward)
    r = b - A @ x
    need = np.divide(r, AEt * toward[:, None],
                     out=np.full(AEt.shape, -np.inf), where=nzE)
    T = need.argmax(axis=1) if m else np.zeros(0, np.int64)  # E is empty
    move = need[np.arange(E.size), T]
    value = x[E] + toward * move
    shared = (nzE & (touch > 1)).any(axis=1)
    ok = (move >= 0.0) & (np.abs(value) <= _HUGE_BND) & ~shared
    S, T = E[ok], T[ok]
    x[S] = value[ok]
    r = b - A @ x

    # step 4: logicals for the other rows
    vstat = np.empty(n_tot, np.int64)
    xval = np.zeros(n_tot)
    vstat[:n] = np.where(x == lb, _AT_LB, _AT_UB)
    vstat[:n][free] = _FREE
    xval[:n] = x
    vstat[S] = _BASIC
    feas = r >= -_CRASH_TOL
    feas[T] = True
    slack = n + np.arange(m)
    basic = np.where(feas, slack, slack + m)
    basic[T] = S
    xB = np.where(feas, r, -r)
    xB[T] = x[S]
    vstat[n:n + m] = np.where(feas, _BASIC, _AT_LB)
    vstat[n + m:] = np.where(feas, _LOCKED, _BASIC)
    vstat[n + T] = _AT_LB
    return vstat, xval, basic, xB


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


def _warm_start(A, b, cost, lb, ub, basic_in, at_ub):
    """The state of a given basis, in the crash's layout.

    Slacks sit in their own rows and the structurals fill the other rows
    in the given order.  Nonbasic structurals rest at the bound ``at_ub``
    names (the finite one if it is infinite, zero if both are), and then
    every boxed one whose reduced cost has the wrong sign moves to its
    other bound.  Returns (vstat, xval, basic, xB, basis, d), d being the
    reduced costs of the structurals and slacks, or None if the basis is
    singular.
    """
    m, n = A.shape
    slack = basic_in >= n
    basic = n + np.arange(m)
    own = np.ones(m, bool)
    own[basic_in[slack] - n] = False
    basic[own] = basic_in[~slack]
    try:
        basis = _ReducedBasis(A, basic)
    except np.linalg.LinAlgError:
        return None
    lo_ok = np.isfinite(lb)
    hi_ok = np.isfinite(ub)
    up = hi_ok & (at_ub | ~lo_ok)
    free = ~lo_ok & ~hi_ok
    vstat = np.full(n + 2 * m, _LOCKED)
    vstat[:n] = np.where(up, _AT_UB, np.where(free, _FREE, _AT_LB))
    vstat[n:n + m] = _AT_LB
    vstat[basic] = _BASIC
    xval = np.zeros(n + 2 * m)
    xval[:n] = np.where(up, ub, np.where(free, 0.0, lb))

    y = basis.btran(cost[basic])
    d = np.concatenate([cost[:n] - y @ A, -y])
    boxed = (np.abs(lb) <= _HUGE_BND) & (np.abs(ub) <= _HUGE_BND) & (lb < ub)
    st = vstat[:n]
    to_ub = boxed & (st == _AT_LB) & (d[:n] < -_TOL_D)
    to_lb = boxed & (st == _AT_UB) & (d[:n] > _TOL_D)
    st[to_ub] = _AT_UB
    st[to_lb] = _AT_LB
    xval[:n] = np.where(to_ub, ub, np.where(to_lb, lb, xval[:n]))
    nb = st != _BASIC
    xB = basis.solve(b - A[:, nb] @ xval[:n][nb])
    return vstat, xval, basic, xB, basis, d


def _dual_phase(A, cost, LB, UB, vstat, xval, basic, xB, basis, movable,
                max_iter):
    """Bounded dual simplex from a dual-feasible basis to a primal-feasible
    one.

    The leaving variable is the basic one furthest beyond a bound; it
    leaves onto that bound.  Its row of B^-1 gives the pivot row alpha,
    and the entering variable is the nonbasic structural or slack with the
    smallest ratio |d_j / alpha_j| among those whose reduced cost would
    change sign, by a two-pass Harris test with tolerance ``_TOL_D`` that
    takes the largest |alpha_j| among near-ties.  The primal step moves
    every basic value with the entering column, so the leaving variable
    lands exactly on its bound.  After ``_BLAND_AFTER`` degenerate steps
    both choices go to the lowest index until a step makes progress.

    Returns (status, xB, iterations): status is -1 once every basic value
    is within ``_RELAX_NUMPY`` of its bounds, INFEASIBLE when a violated
    row has no entering candidate (the dual is unbounded), and
    NUMERICAL_FAILURE on a tiny pivot or at ``max_iter``.
    """
    m, n = A.shape
    iters = 0
    degen_run = 0
    bland = False
    while True:
        lo = LB[basic]
        hi = UB[basic]
        below = lo - xB
        infeas = np.maximum(below, xB - hi)
        if bland:
            bad = np.flatnonzero(infeas > _RELAX_NUMPY)
            r = int(bad[np.argmin(basic[bad])]) if bad.size else 0
        else:
            r = int(np.argmax(infeas))
        if infeas[r] <= _RELAX_NUMPY:
            return -1, xB, iters
        if iters >= max_iter:
            return NUMERICAL_FAILURE, xB, iters
        to_lb = below[r] > 0.0

        y = basis.btran(cost[basic])
        beta = basis.row(r)
        yA, betaA = np.stack([y, beta]) @ A
        d = np.concatenate([cost[:n] - yA, -y])
        alpha = np.concatenate([betaA, beta])
        # d + t * alpha (to_lb) or d - t * alpha must keep each nonbasic
        # variable's reduced cost on the side of its bound as t grows
        st = vstat[:n + m]
        sign = _PRICE_SIGN[st] * movable
        e = (alpha if to_lb else -alpha) * sign
        slack_d = np.maximum(-d * sign, 0.0)
        free = np.flatnonzero(st == _FREE)
        e[free] = np.abs(alpha[free])
        slack_d[free] = 0.0
        elig = np.flatnonzero(e > _EPS_A)
        if elig.size == 0:
            return INFEASIBLE, xB, iters
        ej = e[elig]
        ratio = slack_d[elig] / ej
        t_rel = ((slack_d[elig] + _TOL_D) / ej).min()
        cand = elig[ratio <= t_rel]
        if bland:
            q = int(cand.min())
        else:
            q = int(cand[np.argmax(np.abs(alpha[cand]))])

        w = basis.ftran(q)
        if abs(w[r]) < _TINY_PIV:
            return NUMERICAL_FAILURE, xB, iters
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


def simplex_numpy(A, colp, rowi, vals, b, c, lb, ub, tol_feas, max_iter,
                  refactor_every=0, *, basis=None):
    """Solve from the crash basis, or from ``basis`` when one is given.

    A given basis (see ``check_basis``) is factored and its boxed columns
    are flipped to the bounds their reduced costs ask for.  A
    primal-feasible basis goes straight to phase 2; a dual-feasible one
    first runs ``_dual_phase`` to primal feasibility; a singular basis, or
    one that is neither, is dropped for the crash start.

    Returns (status, x, iterations, basis out, warm): the basis is in the
    form ``check_basis`` takes, whatever the status, and warm is True when
    the solve started from the given basis.
    """
    m, n = A.shape
    n_tot = n + 2 * m
    LB = np.concatenate([lb, np.zeros(m), np.zeros(m)])
    UB = np.concatenate([ub, np.full(m, np.inf), np.full(m, np.inf)])
    # only artificials ever change bounds, and they never enter
    movable = ((UB[:n + m] - LB[:n + m]) > 0.0).astype(float)
    cost = np.zeros(n_tot)
    cost[:n] = c
    iters = 0
    status = -1

    start = None
    if basis is not None:
        start = _warm_start(A, b, cost, lb, ub, *basis)
    if start is not None:
        vstat, xval, basic, xB, basis, d = start
        infeas = np.maximum(LB[basic] - xB, xB - UB[basic]).max(initial=0.0)
        if infeas > _RELAX_NUMPY:
            if _scores(d, vstat[:n + m], movable).max() <= _TOL_D:
                status, xB, iters = _dual_phase(
                    A, cost, LB, UB, vstat, xval, basic, xB, basis,
                    movable, max_iter)
            else:
                start = None
    warm = start is not None
    if not warm:
        vstat, xval, basic, xB = _crash(A, b, lb, ub)
        basis = _ReducedBasis(A, basic)
        arts = basic >= n + m
        if arts.any():
            cost[:] = 0.0
            cost[basic[arts]] = 1.0
    phase = 1 if (basic >= n + m).any() else 2

    has_free = bool((vstat[:n] == _FREE).any())
    degen_run = 0
    bland = False

    def recompute_xb():
        nb = vstat[:n] != _BASIC
        return basis.solve(b - A[:, nb] @ xval[:n][nb])

    while status < 0:
        if iters >= max_iter:
            status = NUMERICAL_FAILURE
            break
        if refactor_every > 0 and iters > 0 and iters % refactor_every == 0:
            if not basis.refactor():
                status = NUMERICAL_FAILURE
                break
            xB = recompute_xb()
        elif iters > 0 and iters % 512 == 0:
            xB = recompute_xb()

        y = basis.btran(cost[basic])

        # reduced costs of structurals and slacks; a variable is eligible
        # where its score, the reduced cost signed by its bound, is > _TOL_D
        d = np.concatenate([cost[:n] - y @ A, -y])
        score = _scores(d, vstat[:n + m], movable, has_free)
        q = int(np.argmax(score))
        if score[q] <= _TOL_D:
            if phase == 1:
                art_basic = basic >= n + m
                infeas = xB[art_basic][xB[art_basic] > 0].sum()
                bscale = max(1.0, np.abs(b).max() if m else 1.0)
                if infeas > tol_feas * bscale:
                    status = INFEASIBLE
                    break
                for p in np.nonzero(art_basic)[0]:
                    beta = basis.row(p)
                    arow = np.concatenate([beta @ A, beta])
                    arow[vstat[:n + m] == _BASIC] = 0.0
                    arow[vstat[:n + m] == _LOCKED] = 0.0
                    pick = int(np.argmax(np.abs(arow)))
                    if abs(arow[pick]) <= _TOL_PIV:
                        UB[basic[p]] = 0.0
                        continue
                    wcol = basis.ftran(pick)
                    art = basic[p]
                    left = xB[p]
                    vstat[art] = _LOCKED
                    UB[art] = 0.0
                    basic[p] = pick
                    vstat[pick] = _BASIC
                    xB[p] = xval[pick]
                    basis.pivot(p, pick, wcol)
                    if left != 0.0:
                        # the artificial leaves at zero, not at its value;
                        # its column is minus its row's slack column
                        xB -= left * basis.ftran(art - m)
                mask = vstat[n + m:] != _BASIC
                vstat[n + m:][mask] = _LOCKED
                UB[n + m:][mask] = 0.0
                cost[:] = 0.0
                cost[:n] = c
                phase = 2
                bland = False
                degen_run = 0
                iters += 1
                continue
            # report the basic values of the final basis solved afresh from
            # A[T, S] x_S = r[T], not the updated ones, which carry the
            # roundoff of steps as long as 1e9-scale bound flips and of
            # every update of K
            nb = vstat[:n] != _BASIC
            try:
                xB = basis.solve(b - A[:, nb] @ xval[:n][nb], fresh=True)
            except np.linalg.LinAlgError:
                status = NUMERICAL_FAILURE
                break
            status = OPTIMAL
            break

        if bland:
            q = int(np.argmax(score > _TOL_D))
        best_dir = 1 if vstat[q] == _AT_LB else -1
        if vstat[q] == _FREE and d[q] < 0.0:
            best_dir = 1

        w = basis.ftran(q)

        alpha = best_dir * w
        lo = LB[basic]
        hi = UB[basic]
        up = alpha > _EPS_A
        moves = up | (alpha < -_EPS_A)
        gap_lo = xB - lo
        gap_hi = xB - hi
        # Harris pass 1 against bounds relaxed by _RELAX_NUMPY.  Each row
        # may end that far violated; with 1e-7 the epigraph rows of a day
        # with zero sell prices all did, and the objective moved by ~1e-5
        ti_rel = np.divide(np.where(up, gap_lo + _RELAX_NUMPY,
                                    gap_hi - _RELAX_NUMPY),
                           alpha, out=np.full(m, np.inf), where=moves)
        np.maximum(ti_rel, 0.0, out=ti_rel)
        t_rel = ti_rel.min() if m else np.inf
        t_flip = UB[q] - LB[q]
        if not (t_rel < np.inf) and not (t_flip < np.inf):
            status = UNBOUNDED if phase == 2 else NUMERICAL_FAILURE
            break

        if t_flip <= t_rel:
            delta = best_dir * t_flip
            xB -= w * delta
            if vstat[q] == _AT_LB:
                vstat[q] = _AT_UB
                xval[q] = UB[q]
            else:
                vstat[q] = _AT_LB
                xval[q] = LB[q]
            iters += 1
            if t_flip > _DEGEN_EPS:
                degen_run = 0
                bland = False
            continue

        ti = np.divide(np.where(up, gap_lo, gap_hi), alpha,
                       out=np.full(m, np.inf), where=moves)
        np.maximum(ti, 0.0, out=ti)
        idx = np.nonzero(ti <= t_rel)[0]
        if idx.size == 0:
            status = NUMERICAL_FAILURE
            break
        if bland:
            rpos = idx[np.argmin(basic[idx])]
        else:
            rpos = idx[np.argmax(np.abs(w[idx]))]
        if abs(w[rpos]) < _TINY_PIV:
            status = NUMERICAL_FAILURE
            break
        t_star = ti[rpos]
        # a leaving variable already beyond its bound (a negative true
        # ratio, clipped to 0) is snapped onto that bound below
        beyond = gap_lo[rpos] < 0.0 if up[rpos] else gap_hi[rpos] > 0.0

        delta = best_dir * t_star
        xB -= w * delta
        leaving = basic[rpos]
        alpha_r = best_dir * w[rpos]
        if leaving >= n + m:
            vstat[leaving] = _LOCKED
            UB[leaving] = 0.0
            snap = -xB[rpos]
        elif alpha_r > 0.0:
            vstat[leaving] = _AT_LB
            xval[leaving] = LB[leaving]
            snap = LB[leaving] - xB[rpos]
        else:
            vstat[leaving] = _AT_UB
            xval[leaving] = UB[leaving]
            snap = UB[leaving] - xB[rpos]
        enter_val = xval[q] + delta
        basic[rpos] = q
        vstat[q] = _BASIC
        xB[rpos] = enter_val

        basis.pivot(rpos, q, w)
        if beyond:
            # moving the leaving variable by snap moves the basic values by
            # its column in the new basis; an artificial's column is minus
            # its row's slack column
            if leaving >= n + m:
                xB += snap * basis.ftran(leaving - m)
            else:
                xB -= snap * basis.ftran(leaving)

        iters += 1
        if t_star <= _DEGEN_EPS:
            degen_run += 1
            if degen_run > _BLAND_AFTER:
                bland = True
        else:
            degen_run = 0
            bland = False

    x = xval[:n].copy()
    struct = basic < n
    x[basic[struct]] = xB[struct]
    return (status, x, iters, (basis.canonical(basic), vstat[:n] == _AT_UB),
            warm)
