"""Battery arbitrage LP: parameters, matrix construction, trajectory recovery.

The model maximises arbitrage profit (minimises cost) for a storage asset
with charging/discharging efficiencies, a per-step energy swing limit
derived from the power rating, a step-to-step ramp-rate limit, and hard
capacity bounds.  The per-step cost is the convex piecewise-linear maximum
of a buy segment and a sell segment, linearised through one epigraph
variable per step, so the whole problem is a single LP.

Decision vector layout: X = [x_1..x_N, t_1..t_N] where x_i is the battery
energy change in kWh (positive = charging) and t_i the epigraph cost.
Constraint rows come in six blocks of N rows each, in this order:
buy segments, sell segments, upper capacity (cumulative), lower capacity,
ramp-rate upper, ramp-rate lower.  The ramp-rate blocks use a difference
matrix with 1 on the diagonal and -1 on the first subdiagonal; its first
row therefore bounds x_1 alone (implicit x_0 = 0, device starts at rest)
against the swing limit X_max / X_min rather than tau.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lp import BIG_BOUND, LpProblem, LpSolution, SolveStatus
from .pricing import PriceSignal


class StorageParamError(ValueError):
    pass


def effective_efficiencies(eta_ch: float, eta_dis: float,
                           eta_conv: float) -> tuple:
    """Fold the converter efficiency into the charge/discharge efficiencies."""
    for name, v in (("eta_ch", eta_ch), ("eta_dis", eta_dis),
                    ("eta_conv", eta_conv)):
        if not 0.0 < v <= 1.0:
            raise StorageParamError(f"{name} must be in (0, 1], got {v}")
    return eta_ch * eta_conv, eta_dis * eta_conv


def consumed_power(x, h: float, eta_ch_star: float, eta_dis_star: float):
    """Grid-side power in kW for a battery energy change x (kWh) over h hours.

    Positive while charging (grid supplies the losses), negative while
    discharging (losses shrink what reaches the grid).
    """
    if h <= 0:
        raise StorageParamError(f"h must be > 0, got {h}")
    x = np.asarray(x, dtype=float)
    out = (np.maximum(0.0, x) / (h * eta_ch_star)
           - eta_dis_star * np.maximum(0.0, -x) / h)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class StorageParams:
    """Physical description of one storage asset.

    Energies in kWh, powers in kW.  tau_min/tau_max bound the step-to-step
    change of x_i and are in kWh per step; None means "at the swing limit",
    i.e. tau = (delta_min*h, delta_max*h), resolved when a model is built.
    """

    b_min: float
    b_max: float
    b_0: float
    delta_min: float
    delta_max: float
    eta_ch: float = 1.0
    eta_dis: float = 1.0
    eta_conv: float = 1.0
    tau_min: float = None
    tau_max: float = None

    def __post_init__(self):
        for name in ("b_min", "b_max", "b_0", "delta_min", "delta_max",
                     "tau_min", "tau_max"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise StorageParamError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.b_min <= self.b_0 <= self.b_max:
            raise StorageParamError(
                "need 0 <= b_min <= b_0 <= b_max, got "
                f"b_min={self.b_min}, b_0={self.b_0}, b_max={self.b_max}")
        effective_efficiencies(self.eta_ch, self.eta_dis, self.eta_conv)
        if not self.delta_min <= 0.0 <= self.delta_max:
            raise StorageParamError(
                f"need delta_min <= 0 <= delta_max, got "
                f"[{self.delta_min}, {self.delta_max}]")
        if (self.tau_min is None) != (self.tau_max is None):
            raise StorageParamError(
                "tau_min and tau_max must be set together")
        if self.tau_min is not None:
            if not self.tau_min <= 0.0 <= self.tau_max:
                raise StorageParamError(
                    f"need tau_min <= 0 <= tau_max, got "
                    f"[{self.tau_min}, {self.tau_max}]")

    @property
    def eta_ch_star(self) -> float:
        return self.eta_ch * self.eta_conv

    @property
    def eta_dis_star(self) -> float:
        return self.eta_dis * self.eta_conv

    @property
    def usable_capacity(self) -> float:
        return self.b_max - self.b_min

    def ramp_energy_bounds(self, h: float) -> tuple:
        """Per-step energy swing limits X_min, X_max in kWh."""
        return self.delta_min * h, self.delta_max * h

    def ramp_rate_bounds(self, h: float) -> tuple:
        """Resolved (tau_min, tau_max); None fields default to the swing limit."""
        x_min, x_max = self.ramp_energy_bounds(h)
        if self.tau_min is None:
            return x_min, x_max
        return self.tau_min, self.tau_max

    def validate(self, h: float) -> None:
        """Checks that need the sampling period: tau within the swing bounds."""
        if h <= 0:
            raise StorageParamError(f"h must be > 0, got {h}")
        x_min, x_max = self.ramp_energy_bounds(h)
        t_min, t_max = self.ramp_rate_bounds(h)
        if t_min < x_min - 1e-12 or t_max > x_max + 1e-12:
            raise StorageParamError(
                f"ramp rate [{t_min}, {t_max}] must lie within the "
                f"per-step swing bounds [{x_min}, {x_max}]")

    def with_ramp_rate_fraction(self, fraction: float,
                                h: float) -> "StorageParams":
        """tau set to fraction * (X_min, X_max); fraction 1 is the boundary."""
        if not 0.0 < fraction <= 1.0:
            raise StorageParamError(
                f"fraction must be in (0, 1], got {fraction}")
        x_min, x_max = self.ramp_energy_bounds(h)
        return replace(self, tau_min=fraction * x_min,
                       tau_max=fraction * x_max)


@dataclass(frozen=True)
class StorageSchedule:
    """Optimised trajectory: energy deltas, SoC, grid power, per-step cost."""

    x: np.ndarray
    soc: np.ndarray
    grid_power: np.ndarray
    step_cost: np.ndarray

    def __post_init__(self):
        for name in ("x", "soc", "grid_power", "step_cost"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def total_cost(self) -> float:
        return float(self.step_cost.sum())


def _difference_matrix(n: int) -> np.ndarray:
    """Identity with -1 on the first sub-diagonal: row i gives x_i - x_{i-1}
    (row 0 gives x_0 alone, the change from the implicit rest state)."""
    d = np.eye(n)
    d[np.arange(1, n), np.arange(n - 1)] = -1.0
    return d


def build_storage_lp(params: StorageParams, prices: PriceSignal,
                     include_ramp_rate: bool = True) -> LpProblem:
    """Assemble the arbitrage LP for one price day.

    With include_ramp_rate=False the two difference-matrix blocks are left
    out (the swing limits stay enforced through the variable bounds).  The
    first 4N rows and the columns are the same either way, so that LP is
    the ramp-free relaxation ``analysis.solve_storage_day`` solves first.
    """
    n = len(prices)
    h = prices.h
    params.validate(h)
    x_min, x_max = params.ramp_energy_bounds(h)
    t_min, t_max = params.ramp_rate_bounds(h)
    e_ch, e_dis = params.eta_ch_star, params.eta_dis_star

    n_blocks = 6 if include_ramp_rate else 4
    A = np.zeros((n_blocks * n, 2 * n))
    b = np.zeros(n_blocks * n)
    idx = np.arange(n)

    # buy and sell segment rows
    A[idx, idx] = prices.p_buy / e_ch
    A[idx, n + idx] = -1.0
    A[n + idx, idx] = prices.p_sell * e_dis
    A[n + idx, n + idx] = -1.0
    # cumulative-energy capacity rows
    tri = np.tril(np.ones((n, n)))
    A[2 * n:3 * n, :n] = tri
    b[2 * n:3 * n] = params.b_max - params.b_0
    A[3 * n:4 * n, :n] = -tri
    b[3 * n:4 * n] = params.b_0 - params.b_min
    if include_ramp_rate:
        d = _difference_matrix(n)
        A[4 * n:5 * n, :n] = d
        b[4 * n] = x_max
        b[4 * n + 1:5 * n] = t_max
        A[5 * n:6 * n, :n] = -d
        b[5 * n] = -x_min
        b[5 * n + 1:6 * n] = -t_min

    f = np.concatenate([np.zeros(n), np.ones(n)])
    lb = np.concatenate([np.full(n, x_min), np.full(n, -BIG_BOUND)])
    ub = np.concatenate([np.full(n, x_max), np.full(n, BIG_BOUND)])

    row_labels = ([f"seg_buy[{i}]" for i in range(n)]
                  + [f"seg_sell[{i}]" for i in range(n)]
                  + [f"cap_hi[{i}]" for i in range(n)]
                  + [f"cap_lo[{i}]" for i in range(n)])
    if include_ramp_rate:
        row_labels += ([f"rr_hi[{i}]" for i in range(n)]
                       + [f"rr_lo[{i}]" for i in range(n)])
    col_labels = [f"x[{i}]" for i in range(n)] + [f"t[{i}]" for i in range(n)]
    return LpProblem(f, A, b, lb, ub, tuple(row_labels), tuple(col_labels))


def step_cost_segments(x, prices: PriceSignal, params: StorageParams):
    """Per-step cost as the max of the two epigraph segments."""
    x = np.asarray(x, dtype=float)
    return np.maximum(prices.p_buy * x / params.eta_ch_star,
                      prices.p_sell * params.eta_dis_star * x)


def extract_storage_schedule(solution: LpSolution, params: StorageParams,
                             prices: PriceSignal) -> StorageSchedule:
    if solution.status is not SolveStatus.OPTIMAL:
        raise ValueError(
            f"cannot extract a schedule from a {solution.status.value} "
            "solution")
    n = len(prices)
    x = np.asarray(solution.x[:n], dtype=float)
    soc = params.b_0 + np.cumsum(x)
    power = consumed_power(x, prices.h, params.eta_ch_star,
                           params.eta_dis_star)
    cost = step_cost_segments(x, prices, params)
    return StorageSchedule(x, soc, power, cost)


def check_storage_schedule(schedule: StorageSchedule, params: StorageParams,
                           h: float, tol: float = 1e-6) -> list:
    """Violations of the physical constraints; empty list means clean.

    The first step's change is judged against the swing limits only (the
    difference-matrix first row), later steps also against the ramp rate.
    """
    out = []
    x = schedule.x
    n = x.shape[0]
    x_min, x_max = params.ramp_energy_bounds(h)
    t_min, t_max = params.ramp_rate_bounds(h)
    soc = params.b_0 + np.cumsum(x)
    if np.abs(soc - schedule.soc).max() > tol:
        out.append("soc trajectory does not match cumulative sum of x")
    lo, hi = soc.min(), soc.max()
    if lo < params.b_min - tol:
        out.append(f"soc {lo:.9g} below b_min {params.b_min:.9g}")
    if hi > params.b_max + tol:
        out.append(f"soc {hi:.9g} above b_max {params.b_max:.9g}")
    if x.min() < x_min - tol or x.max() > x_max + tol:
        out.append(f"x outside swing bounds [{x_min:.9g}, {x_max:.9g}]")
    if n > 1:
        d = np.diff(x)
        if d.min() < t_min - tol or d.max() > t_max + tol:
            out.append(
                f"step-to-step change outside ramp rate "
                f"[{t_min:.9g}, {t_max:.9g}]")
    return out
