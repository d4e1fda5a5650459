"""Sensitivity sweeps, cycle counting, and the Monte Carlo benchmark.

Gains follow the sign convention profit-positive: a storage schedule's gain
is minus its total cost, a flexibility schedule's gain is the nominal cost
minus the optimised cost.  Ramp-rate sweeps scale both tau bounds by the
same fraction of the swing limit, and report each objective also as a
percentage of the fraction-1.0 gain ("marginal gain").
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace

import numpy as np

from .lp import LpSolution, SolveStatus, solve_lp
from .pricing import PriceSignal, synthetic_day
from .storage import (StorageParams, StorageSchedule, build_storage_lp,
                      extract_storage_schedule)


def arbitrage_gain(schedule, nominal=None) -> float:
    """Profit of a schedule; against a nominal baseline when one is given."""
    if nominal is None:
        return -schedule.total_cost
    return nominal.total_cost - schedule.total_cost


def equivalent_full_cycles(schedule: StorageSchedule,
                           params: StorageParams) -> float:
    """Discharged energy over usable capacity: 1.0 per full-depth cycle."""
    usable = params.b_max - params.b_min
    if usable <= 0:
        raise ValueError("b_max must exceed b_min to define a cycle")
    discharged = float(np.maximum(0.0, -schedule.x).sum())
    return discharged / usable


def switching_count(schedule_or_values, tol: float = 1e-6) -> int:
    """Steps where the decision changes by more than tol, from rest."""
    v = schedule_or_values
    v = getattr(v, "y", getattr(v, "x", v))
    v = np.asarray(v, dtype=float)
    d = np.diff(np.concatenate([[0.0], v]))
    return int(np.count_nonzero(np.abs(d) > tol))


@dataclass(frozen=True)
class SweepResult:
    """One ramp-rate sweep: per-fraction objective and derived metrics.

    marginal_gain_pct and gain_per_cycle are NaN where their denominator
    (fraction-1.0 gain, cycle count) vanishes.  ``solution`` is the solve
    at the last (largest) fraction, so its schedule needs no second solve.
    """

    fractions: np.ndarray
    objective: np.ndarray
    marginal_gain_pct: np.ndarray
    cycles: np.ndarray
    gain_per_cycle: np.ndarray
    solution: LpSolution = None

    def __post_init__(self):
        for name in ("fractions", "objective", "marginal_gain_pct",
                     "cycles", "gain_per_cycle"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def gain(self) -> np.ndarray:
        return -self.objective


def ramp_rate_sweep(params: StorageParams, prices: PriceSignal,
                    fractions, backend: str = None) -> SweepResult:
    """Solve the storage model at each ramp-rate fraction of the swing limit.

    The LPs are solved from the top fraction down, each from the optimal
    basis of the one before, so only the first is solved cold: the top
    fraction, or the reference solve at 1.0 when 1.0 is not among the
    fractions.  The results stay in ascending order.
    """
    fr = np.asarray(fractions, dtype=float)
    if fr.ndim != 1 or fr.size == 0:
        raise ValueError("fractions must be a non-empty 1-D sequence")
    if (fr <= 0).any() or (fr > 1).any():
        raise ValueError("fractions must lie in (0, 1]")
    if (np.diff(fr) <= 0).any():
        raise ValueError("fractions must be strictly ascending")

    h = prices.h
    objective = np.empty(fr.size)
    cycles = np.empty(fr.size)
    basis = None
    gain_ref = None
    if fr[-1] != 1.0:
        p_1 = params.with_ramp_rate_fraction(1.0, h)
        sol = solve_lp(build_storage_lp(p_1, prices), backend=backend)
        if sol.status is not SolveStatus.OPTIMAL:
            raise RuntimeError(
                f"reference solve failed: {sol.status.value}")
        gain_ref = -sol.objective
        basis = sol.basis
    # top fraction down: each LP differs from the last only in the ramp
    # rows' right side, so it starts from the last optimal basis
    for k in range(fr.size - 1, -1, -1):
        phi = fr[k]
        p_k = params.with_ramp_rate_fraction(float(phi), h)
        sol = solve_lp(build_storage_lp(p_k, prices), backend=backend,
                       basis=basis)
        if sol.status is not SolveStatus.OPTIMAL:
            raise RuntimeError(
                f"sweep solve failed at fraction {phi}: {sol.status.value}")
        sched = extract_storage_schedule(sol, p_k, prices)
        objective[k] = sol.objective
        cycles[k] = equivalent_full_cycles(sched, p_k)
        basis = sol.basis
        if k == fr.size - 1:
            sol_top = sol
            if phi == 1.0:
                gain_ref = -sol.objective

    gain = -objective
    if abs(gain_ref) > 1e-12:
        marginal = 100.0 * gain / gain_ref
        marginal[fr == 1.0] = 100.0  # exact by definition, no rounding dust
    else:
        marginal = np.full(fr.size, np.nan)
    gpc = np.where(cycles > 1e-9, gain / np.where(cycles > 1e-9, cycles, 1.0),
                   np.nan)
    return SweepResult(fr, objective, marginal, cycles, gpc, sol_top)


def xc_yc_sweep(params: StorageParams, prices: PriceSignal, c_rates,
                fractions, backend: str = None) -> tuple:
    """One ramp-rate sweep per c-rate; rating c means full charge in 1/c h.

    The swing limit is re-derived from the rating (delta_max = c * b_max,
    symmetric discharge) while capacity and efficiencies stay fixed.  Each
    c-rate's sweep chains its solves as ``ramp_rate_sweep`` does.
    """
    out = []
    for c in np.asarray(c_rates, dtype=float):
        if c <= 0:
            raise ValueError(f"c-rates must be > 0, got {c}")
        rated = float(c * params.b_max)
        p_c = replace(params, delta_min=-rated, delta_max=rated,
                      tau_min=None, tau_max=None)
        out.append(ramp_rate_sweep(p_c, prices, fractions, backend=backend))
    return tuple(out)


@dataclass(frozen=True)
class McReport:
    """Outcome of a Monte Carlo batch, aggregated in scenario order."""

    scenario_count: int
    objectives: np.ndarray
    wall_times_s: np.ndarray
    failures: tuple  # (scenario index, status string) pairs
    total_gain: float
    total_wall_time_s: float

    def __post_init__(self):
        for name in ("objectives", "wall_times_s"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "failures", tuple(self.failures))

    @property
    def mean_wall_time_s(self) -> float:
        return self.total_wall_time_s / max(1, self.scenario_count)


def default_price_generator(n_steps: int = 96, h: float = 0.25, shape=None):
    """Scenario factory for monte_carlo_run: seed -> synthetic day."""
    def gen(seed) -> PriceSignal:
        return synthetic_day(seed, n_steps=n_steps, h=h, shape=shape)
    return gen


def monte_carlo_run(base_params: StorageParams, price_generator,
                    scenario_count: int, seed: int,
                    backend: str = None) -> McReport:
    """Solve one storage day per scenario and aggregate gains.

    Scenario i gets an independent child seed of `seed`, so the report is
    reproducible for a fixed (seed, scenario_count) regardless of how the
    scenarios would be scheduled; aggregation is by ascending index.  A
    failed solve is recorded and skipped, the run continues.

    When the params leave tau unset (tau_min is None) the ramp-rate rows
    are omitted from each day's LP, so the batch solves the model with no
    ramp-rate limit.  That is not the same LP as ``build_storage_lp`` with
    tau unset, whose rows sit at tau = (X_min, X_max).  A swing from X_min
    to X_max changes x by X_max - X_min, so those rows can bind.  They
    cannot when X_max and -X_min are both at least twice the usable
    capacity, since no step moves more energy than that.  For the CLI's
    default battery (X = 0.125 kWh per step, 0.8 kWh usable) they change
    the objective on typical days.
    """
    if scenario_count < 1:
        raise ValueError(
            f"scenario_count must be >= 1, got {scenario_count}")
    rate_rows = base_params.tau_min is not None
    child_seeds = np.random.SeedSequence(seed).spawn(scenario_count)
    objectives = np.full(scenario_count, np.nan)
    walls = np.zeros(scenario_count)
    failures = []
    t_all = time.perf_counter()
    for i in range(scenario_count):
        t0 = time.perf_counter()
        try:
            prices = price_generator(child_seeds[i])
            sol = solve_lp(build_storage_lp(base_params, prices,
                                            include_ramp_rate=rate_rows),
                           backend=backend)
            if sol.status is SolveStatus.OPTIMAL:
                objectives[i] = sol.objective
            else:
                failures.append((i, sol.status.value))
        except ValueError as exc:
            failures.append((i, f"error: {exc}"))
        walls[i] = time.perf_counter() - t0
    total = time.perf_counter() - t_all
    ok = np.isfinite(objectives)
    total_gain = float(-objectives[ok].sum())
    return McReport(scenario_count, objectives, walls, tuple(failures),
                    total_gain, total)


# ---------------------------------------------------------------------------
# plot-ready serialisation
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return "%.9g" % v


def write_sweep_csv(result: SweepResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("fraction,gain,marginal_gain_pct,cycles,gain_per_cycle\n")
        for k in range(result.fractions.size):
            fh.write(",".join([
                _fmt(result.fractions[k]),
                _fmt(result.gain[k]),
                _fmt(result.marginal_gain_pct[k]),
                _fmt(result.cycles[k]),
                _fmt(result.gain_per_cycle[k]),
            ]) + "\n")


def _none_if_nan(v: float):
    return None if not np.isfinite(v) else float(v)


def sweep_to_dict(result: SweepResult) -> dict:
    return {
        "fraction": [float(v) for v in result.fractions],
        "gain": [float(v) for v in result.gain],
        "marginal_gain_pct": [_none_if_nan(v)
                              for v in result.marginal_gain_pct],
        "cycles": [float(v) for v in result.cycles],
        "gain_per_cycle": [_none_if_nan(v) for v in result.gain_per_cycle],
    }


def write_sweep_json(result: SweepResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sweep_to_dict(result), fh, indent=2, allow_nan=False)
        fh.write("\n")


def mc_to_dict(report: McReport, include_wall_time: bool = True) -> dict:
    out = {
        "scenario_count": report.scenario_count,
        "objectives": [_none_if_nan(v) for v in report.objectives],
        "failures": [{"scenario": i, "status": s} for i, s in
                     report.failures],
        "total_gain": report.total_gain,
    }
    if include_wall_time:
        out["total_wall_time_s"] = report.total_wall_time_s
        out["mean_wall_time_s"] = report.mean_wall_time_s
    return out


def write_mc_json(report: McReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mc_to_dict(report), fh, indent=2, allow_nan=False)
        fh.write("\n")
