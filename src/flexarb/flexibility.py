"""Deadline-constrained flexible-load LP: parameters, matrices, schedules.

A flexible load (EV charger, heat pump, ...) consumes power y_i >= 0 inside
an availability window [t_a, t_d] and must accumulate a target energy K
(within a small band epsilon) before the deadline.  Outside the window the
device is disconnected and y_i is pinned to zero through the variable
bounds.  Per-step cost is linear in y, written as a two-segment epigraph to
keep the matrix layout aligned with the storage model; with sell prices at
or below buy prices the buy segment is the binding one.

Decision vector: X = [y_1..y_N, t_1..t_N].  Rows, in order: buy segments,
sell segments (both with the step length h folded into the price so t_i is
in currency), the deadline row and its negation, then the windowed
difference-matrix rows bounding the step-to-step change of y.  The window
entry row bounds y at the arrival step against the power limits (the device
ramps from disconnected, reference 0); the drop to zero at departure is
deliberately unconstrained, a disconnection is instantaneous.

``build_flex_lp`` keeps this, the paper's layout, for ``dump_lp``, the
goldens and outside solvers.  The solver sees the window LP: since
y >= 0, ``solve_lp``'s presolve drops the y pinned outside the window,
folds each t_i into the cost h * max(p_buy, p_sell) of its y_i, and
drops the segment rows, leaving the window's columns, the deadline rows
and the ramp rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lp import BIG_BOUND, LpProblem, LpSolution, SolveStatus
from .pricing import PriceSignal


class FlexParamError(ValueError):
    pass


def _per_step(value, n: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise FlexParamError(
            f"{name} must be a scalar or a length-{n} sequence, "
            f"got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class FlexParams:
    """Flexible-load description over an n_steps horizon.

    t_a and t_d are 1-based inclusive step indices.  y_min/y_max accept a
    scalar (uniform rating) or a per-step sequence of length n_steps, in kW.
    xi_min/xi_max bound y_i - y_{i-1} in kW per step.  epsilon defaults to
    K/1000 when not given.
    """

    n_steps: int
    t_a: int
    t_d: int
    K: float
    y_max: object
    y_min: object = 0.0
    xi_min: float = None
    xi_max: float = None
    epsilon: float = None

    def __post_init__(self):
        n = int(self.n_steps)
        if n < 1:
            raise FlexParamError(f"n_steps must be >= 1, got {self.n_steps}")
        object.__setattr__(self, "n_steps", n)
        if not 1 <= self.t_a <= self.t_d <= n:
            raise FlexParamError(
                f"need 1 <= t_a <= t_d <= n_steps, got t_a={self.t_a}, "
                f"t_d={self.t_d}, n_steps={n}")
        y_max = _per_step(self.y_max, n, "y_max")
        y_min = _per_step(self.y_min, n, "y_min")
        for name, value in (("K", self.K), ("y_max", y_max), ("y_min", y_min),
                            ("epsilon", self.epsilon)):
            arr = np.asarray(0.0 if value is None else value, dtype=float)
            bad = arr[~np.isfinite(arr)]
            if bad.size:
                raise FlexParamError(f"{name} must be finite, got {bad[0]}")
        if (y_min < 0).any():
            raise FlexParamError("y_min must be >= 0 (consumption only)")
        if (y_min > y_max).any():
            j = int(np.argmax(y_min > y_max))
            raise FlexParamError(
                f"y_min > y_max at step {j + 1}: {y_min[j]} > {y_max[j]}")
        y_max.setflags(write=False)
        y_min.setflags(write=False)
        object.__setattr__(self, "y_max", y_max)
        object.__setattr__(self, "y_min", y_min)
        if self.K < 0:
            raise FlexParamError(f"K must be >= 0, got {self.K}")
        rated = float(y_max.max())
        xi_min = -rated if self.xi_min is None else float(self.xi_min)
        xi_max = rated if self.xi_max is None else float(self.xi_max)
        if not xi_min <= 0.0 <= xi_max:
            raise FlexParamError(
                f"need xi_min <= 0 <= xi_max, got [{xi_min}, {xi_max}]")
        if xi_min < -rated - 1e-12 or xi_max > rated + 1e-12:
            raise FlexParamError(
                f"ramp rate [{xi_min}, {xi_max}] exceeds the rated power "
                f"{rated} (at best equal to the ramp limit)")
        object.__setattr__(self, "xi_min", xi_min)
        object.__setattr__(self, "xi_max", xi_max)
        eps = 1e-3 * self.K if self.epsilon is None else float(self.epsilon)
        if eps < 0:
            raise FlexParamError(f"epsilon must be >= 0, got {eps}")
        object.__setattr__(self, "epsilon", eps)

    @property
    def window(self) -> slice:
        """0-based half-open slice covering [t_a, t_d]."""
        return slice(self.t_a - 1, self.t_d)

    @property
    def window_steps(self) -> int:
        return self.t_d - self.t_a + 1

    @property
    def rated_power(self) -> float:
        return float(np.max(self.y_max))

    def validate(self, h: float) -> None:
        """Necessary-feasibility checks that need the sampling period."""
        if h <= 0:
            raise FlexParamError(f"h must be > 0, got {h}")
        w = self.window
        floor = h * float(np.sum(self.y_min[w]))
        ceil = h * float(np.sum(self.y_max[w]))
        if floor > self.K + self.epsilon + 1e-12:
            raise FlexParamError(
                f"minimum window consumption {floor:.9g} kWh already "
                f"exceeds K + epsilon = {self.K + self.epsilon:.9g} kWh")
        if ceil < self.K - self.epsilon - 1e-12:
            raise FlexParamError(
                f"window can absorb at most {ceil:.9g} kWh, below "
                f"K - epsilon = {self.K - self.epsilon:.9g} kWh")

    def with_ramp_rate_fraction(self, fraction: float) -> "FlexParams":
        """xi set to fraction * rated power, symmetrically."""
        if not 0.0 < fraction <= 1.0:
            raise FlexParamError(
                f"fraction must be in (0, 1], got {fraction}")
        rated = self.rated_power
        return replace(self, xi_min=-fraction * rated,
                       xi_max=fraction * rated)


@dataclass(frozen=True)
class FlexSchedule:
    """Consumption trajectory with cumulative energy and per-step cost."""

    y: np.ndarray
    energy_cum: np.ndarray
    step_cost: np.ndarray

    def __post_init__(self):
        for name in ("y", "energy_cum", "step_cost"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.y.shape[0]

    @property
    def total_cost(self) -> float:
        return float(self.step_cost.sum())

    @property
    def total_energy(self) -> float:
        return float(self.energy_cum[-1]) if len(self) else 0.0


def build_flex_lp(params: FlexParams, prices: PriceSignal) -> LpProblem:
    """Assemble the scheduling LP for one price day."""
    n = len(prices)
    if n != params.n_steps:
        raise FlexParamError(
            f"params cover {params.n_steps} steps but prices have {n}")
    h = prices.h
    params.validate(h)
    w = params.window_steps
    ta = params.t_a - 1  # 0-based entry index
    m = 2 * n + 2 + 2 * w
    A = np.zeros((m, 2 * n))
    b = np.zeros(m)
    idx = np.arange(n)

    A[idx, idx] = prices.p_buy * h
    A[idx, n + idx] = -1.0
    A[n + idx, idx] = prices.p_sell * h
    A[n + idx, n + idx] = -1.0
    # deadline band rows
    A[2 * n, params.window] = h
    b[2 * n] = params.K + params.epsilon
    A[2 * n + 1, params.window] = -h
    b[2 * n + 1] = -params.K + params.epsilon
    # step-to-step change rows, window only
    r = 2 * n + 2
    A[r, ta] = 1.0
    b[r] = params.y_max[ta]
    for k in range(1, w):
        A[r + k, ta + k] = 1.0
        A[r + k, ta + k - 1] = -1.0
        b[r + k] = params.xi_max
    r += w
    A[r, ta] = -1.0
    b[r] = -params.y_min[ta]
    for k in range(1, w):
        A[r + k, ta + k] = -1.0
        A[r + k, ta + k - 1] = 1.0
        b[r + k] = -params.xi_min
    r += w

    f = np.concatenate([np.zeros(n), np.ones(n)])
    lb = np.concatenate([np.zeros(n), np.full(n, -BIG_BOUND)])
    ub = np.concatenate([np.zeros(n), np.full(n, BIG_BOUND)])
    lb[params.window] = params.y_min[params.window]
    ub[params.window] = params.y_max[params.window]

    row_labels = ([f"seg_buy[{i}]" for i in range(n)]
                  + [f"seg_sell[{i}]" for i in range(n)]
                  + ["deadline_hi", "deadline_lo"]
                  + [f"rr_hi[{i}]" for i in range(w)]
                  + [f"rr_lo[{i}]" for i in range(w)])
    col_labels = [f"y[{i}]" for i in range(n)] + [f"t[{i}]" for i in range(n)]
    return LpProblem(f, A, b, lb, ub, tuple(row_labels), tuple(col_labels))


def nominal_profile(params: FlexParams, prices: PriceSignal) -> FlexSchedule:
    """The no-optimization baseline: full power from arrival until K is met.

    Charges at y_max from t_a onward; the last active step is fractional
    when K is not a whole number of full-power steps.  Where K lies above
    what the window can hold, the profile charges at y_max through the
    whole window; ``params.validate`` has checked that this reaches
    K - epsilon, so the profile always meets the deadline band.
    """
    n = len(prices)
    if n != params.n_steps:
        raise FlexParamError(
            f"params cover {params.n_steps} steps but prices have {n}")
    h = prices.h
    params.validate(h)
    y = np.zeros(n)
    remaining = float(params.K)
    for i in range(params.t_a - 1, params.t_d):
        if remaining <= 0.0:
            break
        yi = min(params.y_max[i], remaining / h)
        y[i] = yi
        remaining -= yi * h
    return _as_schedule(y, params, prices)


def _as_schedule(y, params: FlexParams, prices: PriceSignal) -> FlexSchedule:
    energy = prices.h * np.cumsum(y)
    cost = prices.p_buy * y * prices.h
    return FlexSchedule(y, energy, cost)


def extract_flex_schedule(solution: LpSolution, params: FlexParams,
                          prices: PriceSignal) -> FlexSchedule:
    if solution.status is not SolveStatus.OPTIMAL:
        raise ValueError(
            f"cannot extract a schedule from a {solution.status.value} "
            "solution")
    # y outside the window is exactly 0: the presolve of solve_lp drops
    # those fixed columns and puts back their bound
    return _as_schedule(solution.x[:len(prices)], params, prices)


def check_flex_schedule(schedule: FlexSchedule, params: FlexParams,
                        h: float, tol: float = 1e-6) -> list:
    """Violations of window, deadline, power, and ramp-rate constraints.

    The arrival step is judged against the power bounds (ramping from the
    disconnected state), later in-window pairs against xi.
    """
    out = []
    y = schedule.y
    n = y.shape[0]
    if n != params.n_steps:
        return [f"schedule has {n} steps, params cover {params.n_steps}"]
    w = params.window
    outside = np.ones(n, dtype=bool)
    outside[w] = False
    if np.any(y[outside] != 0.0):
        out.append("consumption outside the availability window")
    yw = y[w]
    if (yw < params.y_min[w] - tol).any() or (yw > params.y_max[w] + tol).any():
        out.append("y outside per-step power bounds")
    used = h * float(yw.sum())
    if not (params.K - params.epsilon - tol <= used
            <= params.K + params.epsilon + tol):
        out.append(
            f"window energy {used:.9g} kWh outside the deadline band "
            f"[{params.K - params.epsilon:.9g}, "
            f"{params.K + params.epsilon:.9g}]")
    if yw.shape[0] > 1:
        d = np.diff(yw)
        if d.min() < params.xi_min - tol or d.max() > params.xi_max + tol:
            out.append(
                f"step-to-step change outside ramp rate "
                f"[{params.xi_min:.9g}, {params.xi_max:.9g}]")
    return out
