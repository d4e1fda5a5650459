"""Command-line front end: reproducible runs that emit plot-ready files.

Subcommands
    storage   solve the battery arbitrage model for one price day
    flex      solve the flexible-load scheduling model for one price day
    sweep     ramp-rate fraction sweep of the storage model
    xcyc      sweep repeated across charge/discharge ratings (c-rates)
    mc        seeded Monte Carlo benchmark over synthetic price days
    validate  check a config and its referenced files without solving

Every run writes into ``<out>/<mode>/`` (timestamp-free, so reruns of the
same configuration overwrite deterministically).  ``summary.json`` is
always written; ``--format`` selects whether the data artifacts
(schedule, sweep table, scenario table) are emitted as CSV, JSON or both.
All wall-time fields vary between runs; every other byte of the artifacts
is a pure function of config, flags, seed, and input files.

Config files are INI-style; every key is optional and any CLI flag
overrides the matching key.  Schema:

    [run]
    prices = sample            ; CSV path, JSON path, or "sample"
    h = 0.25                   ; sampling period in hours (CSV input)
    out = runs
    format = both              ; csv | json | both
    seed = 0                   ; u64, used by mc

    [storage]
    b_min = 0.2                ; kWh
    b_max = 1.0
    b_0 = 0.2
    delta_min = -0.5           ; kW (discharge rating, negative)
    delta_max = 0.5            ; kW (charge rating)
    eta_ch = 0.95
    eta_dis = 0.95
    eta_conv = 1.0
    tau_min =                  ; kWh per step; empty = at the swing limit
    tau_max =
    tau_fraction =             ; shorthand: tau = fraction * swing limits

    [flex]
    t_a = 25                   ; 1-based arrival step
    t_d = 72                   ; 1-based departure step
    k = 25.0                   ; target energy, kWh
    y_max = 4.0                ; kW
    y_min = 0.0
    xi_min =                   ; kW per step; empty = rated (no real limit)
    xi_max =
    xi_fraction =              ; shorthand: xi = +/- fraction * rated
    epsilon =                  ; kWh; empty = k / 1000

    [sweep]
    fractions = 0.05 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0

    [xcyc]
    c_rates = 0.5 1 2
    fractions = 0.05 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0

    [mc]
    count = 1000
    steps = 96

Exit codes: 0 success, 2 usage, config or input validation failure, 3
solver failure, 4 I/O failure.  Failures print a one-line JSON object to
stderr: ``{"error": {"code": ..., "kind": ..., "message": ...}}``.
"""

from __future__ import annotations

import argparse
import configparser
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (arbitrage_gain, equivalent_full_cycles, mc_to_dict,
                       monte_carlo_run, default_price_generator,
                       ramp_rate_sweep, solve_storage_day, sweep_to_dict,
                       switching_count, write_sweep_csv, write_sweep_json,
                       xc_yc_sweep)
from .flexibility import (FlexParamError, FlexParams, build_flex_lp,
                          extract_flex_schedule, nominal_profile)
from .lp import LpValidationError, SolveStatus, solve_lp
from .pricing import (PriceSignal, PriceSignalError, load_price_csv,
                      load_price_json, sample_day)
# build_storage_lp is not called here; it stays importable because
# perfbench/spans.py wraps it at this call site
from .storage import (StorageParamError, StorageParams, build_storage_lp,
                      extract_storage_schedule)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_DEFAULT_FRACTIONS = "0.05 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0"


class CliError(Exception):
    """Carries the exit code and error kind for the JSON error report."""

    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


def _emit_error(err: CliError) -> int:
    doc = {"error": {"code": err.code, "kind": err.kind,
                     "message": str(err)}}
    print(json.dumps(doc), file=sys.stderr)
    return err.code


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def _load_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if path is None:
        return cp
    p = Path(path)
    if not p.is_file():
        raise CliError(EXIT_CONFIG, "config", f"config file not found: {p}")
    try:
        with open(p) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise CliError(EXIT_IO, "io", f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise CliError(EXIT_CONFIG, "config",
                       f"malformed config: {exc}") from exc
    return cp


def _pick(flag_value, cfg: configparser.ConfigParser, section: str,
          key: str, default, cast):
    """Resolve one setting: CLI flag beats config key beats default."""
    if flag_value is not None:
        return flag_value
    raw = cfg.get(section, key, fallback=None)
    if raw is None or raw.strip() == "":
        return default
    try:
        return cast(raw.strip())
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_CONFIG, "config",
                       f"bad value for [{section}] {key}: {raw!r} "
                       f"({exc})") from exc


def _parse_floats(text: str) -> list:
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    if not parts:
        raise ValueError("empty list")
    return [float(p) for p in parts]


def _parse_seed(text: str) -> int:
    v = int(text)
    if not 0 <= v < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return v


def _opt_float(text: str) -> float:
    return float(text)


# ---------------------------------------------------------------------------
# resolved run settings
# ---------------------------------------------------------------------------


def _resolve_run(args, cfg) -> dict:
    fmt = _pick(args.format, cfg, "run", "format", "both", str)
    if fmt not in ("csv", "json", "both"):
        raise CliError(EXIT_CONFIG, "config",
                       f"--format must be csv, json or both, got {fmt!r}")
    seed = _pick(args.seed, cfg, "run", "seed", 0, _parse_seed)
    return {
        "prices": _pick(args.prices, cfg, "run", "prices", "sample", str),
        # None unless a flag or config key sets it; a price file's own
        # sampling period then decides
        "h": _pick(args.h, cfg, "run", "h", None, float),
        "out": Path(_pick(args.out, cfg, "run", "out", "runs", str)),
        "format": fmt,
        "seed": seed,
    }


def _run_h(run: dict) -> float:
    """The run's sampling period, 0.25 h unless a flag or config sets it."""
    return 0.25 if run["h"] is None else run["h"]


def _resolve_prices(run: dict) -> tuple:
    """Return (PriceSignal, display name) for the configured source."""
    src = run["prices"]
    if src == "sample":
        signal = sample_day()
        if run["h"] is not None and abs(run["h"] - signal.h) > 1e-12:
            raise CliError(EXIT_CONFIG, "config",
                           "the bundled sample day is fixed at h = 0.25; "
                           "drop --h or supply your own price file")
        return signal, "sample"
    p = Path(src)
    if not p.is_file():
        raise CliError(EXIT_CONFIG, "config", f"prices file not found: {p}")
    try:
        if p.suffix.lower() == ".json":
            signal = load_price_json(p)
            if run["h"] is not None and abs(run["h"] - signal.h) > 1e-12:
                raise CliError(EXIT_CONFIG, "config",
                               f"h {run['h']} (--h or [run] h) conflicts "
                               f"with h_hours {signal.h} stored in {p}")
        else:
            signal = load_price_csv(p, h=_run_h(run))
    except PriceSignalError as exc:
        raise CliError(EXIT_CONFIG, "prices", f"{exc}") from exc
    except OSError as exc:
        raise CliError(EXIT_IO, "io", f"cannot read prices: {exc}") from exc
    return signal, str(p)


def _resolve_storage(args, cfg, h: float) -> StorageParams:
    g = lambda key, default, cast=float: _pick(
        getattr(args, key, None), cfg, "storage", key, default, cast)
    fields = {
        "b_min": g("b_min", 0.2),
        "b_max": g("b_max", 1.0),
        "b_0": g("b_0", 0.2),
        "delta_min": g("delta_min", -0.5),
        "delta_max": g("delta_max", 0.5),
        "eta_ch": g("eta_ch", 0.95),
        "eta_dis": g("eta_dis", 0.95),
        "eta_conv": g("eta_conv", 1.0),
        "tau_min": g("tau_min", None, _opt_float),
        "tau_max": g("tau_max", None, _opt_float),
    }
    fraction = g("tau_fraction", None, _opt_float)
    try:
        params = StorageParams(**fields)
        if fraction is not None:
            if params.tau_min is not None:
                raise StorageParamError(
                    "give either tau bounds or tau_fraction, not both")
            params = params.with_ramp_rate_fraction(fraction, h)
        params.validate(h)
        # such a battery has nothing to schedule and no cycles to report
        if params.usable_capacity <= 0.0:
            raise StorageParamError(
                f"need b_max > b_min for a usable capacity, got "
                f"b_min={params.b_min}, b_max={params.b_max}")
    except StorageParamError as exc:
        raise CliError(EXIT_CONFIG, "params", f"storage: {exc}") from exc
    return params


def _resolve_flex(args, cfg, h: float, n_steps: int) -> FlexParams:
    g = lambda key, default, cast=float: _pick(
        getattr(args, key, None), cfg, "flex", key, default, cast)
    fields = {
        "n_steps": n_steps,
        "t_a": g("t_a", 25, int),
        "t_d": g("t_d", 72, int),
        "K": g("k", 25.0),
        "y_max": g("y_max", 4.0),
        "y_min": g("y_min", 0.0),
        "xi_min": g("xi_min", None, _opt_float),
        "xi_max": g("xi_max", None, _opt_float),
        "epsilon": g("epsilon", None, _opt_float),
    }
    fraction = g("xi_fraction", None, _opt_float)
    try:
        params = FlexParams(**fields)
        if fraction is not None:
            params = params.with_ramp_rate_fraction(fraction)
        params.validate(h)
    except FlexParamError as exc:
        raise CliError(EXIT_CONFIG, "params", f"flex: {exc}") from exc
    return params


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def _fmt9(v) -> str:
    return "%.9g" % float(v)


def _write_rows_csv(path, header, columns) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_fmt9(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _storage_schedule_files(schedule, run_dir: Path, fmt: str) -> None:
    n = len(schedule)
    if fmt in ("csv", "both"):
        _write_rows_csv(run_dir / "schedule.csv",
                        ["step", "x_kwh", "soc_kwh", "grid_kw", "cost"],
                        [range(n), map(float, schedule.x),
                         map(float, schedule.soc),
                         map(float, schedule.grid_power),
                         map(float, schedule.step_cost)])
    if fmt in ("json", "both"):
        _write_json(run_dir / "schedule.json", {
            "x_kwh": [float(v) for v in schedule.x],
            "soc_kwh": [float(v) for v in schedule.soc],
            "grid_kw": [float(v) for v in schedule.grid_power],
            "cost": [float(v) for v in schedule.step_cost],
        })


def _flex_schedule_files(schedule, run_dir: Path, fmt: str) -> None:
    n = len(schedule)
    if fmt in ("csv", "both"):
        _write_rows_csv(run_dir / "schedule.csv",
                        ["step", "y_kw", "energy_kwh", "cost"],
                        [range(n), map(float, schedule.y),
                         map(float, schedule.energy_cum),
                         map(float, schedule.step_cost)])
    if fmt in ("json", "both"):
        _write_json(run_dir / "schedule.json", {
            "y_kw": [float(v) for v in schedule.y],
            "energy_kwh": [float(v) for v in schedule.energy_cum],
            "cost": [float(v) for v in schedule.step_cost],
        })


def _params_dict(params) -> dict:
    if isinstance(params, StorageParams):
        return {
            "b_min": params.b_min, "b_max": params.b_max, "b_0": params.b_0,
            "delta_min": params.delta_min, "delta_max": params.delta_max,
            "eta_ch": params.eta_ch, "eta_dis": params.eta_dis,
            "eta_conv": params.eta_conv,
            "tau_min": params.tau_min, "tau_max": params.tau_max,
        }
    return {
        "t_a": params.t_a, "t_d": params.t_d, "k": params.K,
        "y_max": float(params.rated_power),
        "y_min": float(np.min(params.y_min)),
        "xi_min": params.xi_min, "xi_max": params.xi_max,
        "epsilon": params.epsilon,
    }


def _summary(mode, run, prices_name, h, n_steps, params, solution=None,
             **extra) -> dict:
    """``h`` is the sampling period of the prices that were solved."""
    doc = {
        "mode": mode,
        "inputs": {"prices": prices_name, "h": h,
                   "n_steps": n_steps, "seed": run["seed"]},
        "params": _params_dict(params) if params is not None else None,
    }
    if solution is not None:
        doc["status"] = solution.status.value
        doc["backend"] = solution.stats.backend
        doc["iterations"] = solution.stats.iterations
    doc.update(extra)
    return doc


def _solve_or_die(solve, *args):
    try:
        solution = solve(*args)
    except LpValidationError as exc:
        raise CliError(EXIT_SOLVER, "solver", str(exc)) from exc
    if solution.status is not SolveStatus.OPTIMAL:
        raise CliError(EXIT_SOLVER, "solver",
                       f"solve ended {solution.status.value}")
    return solution


def _ensure_run_dir(out: Path, mode: str) -> Path:
    run_dir = out / mode
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_IO, "io",
                       f"cannot create output dir: {exc}") from exc
    return run_dir


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_storage(args, cfg, run) -> int:
    prices, prices_name = _resolve_prices(run)
    params = _resolve_storage(args, cfg, prices.h)
    run_dir = _ensure_run_dir(run["out"], "storage")
    t0 = time.perf_counter()
    solution = _solve_or_die(solve_storage_day, params, prices)
    schedule = extract_storage_schedule(solution, params, prices)
    wall = time.perf_counter() - t0
    _storage_schedule_files(schedule, run_dir, run["format"])
    _write_json(run_dir / "summary.json", _summary(
        "storage", run, prices_name, prices.h, len(prices), params, solution,
        objective=solution.objective,
        gain=arbitrage_gain(schedule),
        cycles=equivalent_full_cycles(schedule, params),
        switching_count=switching_count(schedule),
        wall_time_s=wall))
    print(f"storage: optimal, objective {_fmt9(solution.objective)}, "
          f"artifacts in {run_dir}")
    return EXIT_OK


def _cmd_flex(args, cfg, run) -> int:
    prices, prices_name = _resolve_prices(run)
    params = _resolve_flex(args, cfg, prices.h, len(prices))
    run_dir = _ensure_run_dir(run["out"], "flex")
    t0 = time.perf_counter()
    solution = _solve_or_die(solve_lp, build_flex_lp(params, prices))
    schedule = extract_flex_schedule(solution, params, prices)
    nominal = nominal_profile(params, prices)
    wall = time.perf_counter() - t0
    _flex_schedule_files(schedule, run_dir, run["format"])
    _write_json(run_dir / "summary.json", _summary(
        "flex", run, prices_name, prices.h, len(prices), params, solution,
        objective=solution.objective,
        gain=arbitrage_gain(schedule, nominal),
        nominal_cost=nominal.total_cost,
        optimized_cost=schedule.total_cost,
        cycles=None,
        switching_count=switching_count(schedule),
        wall_time_s=wall))
    print(f"flex: optimal, savings {_fmt9(arbitrage_gain(schedule, nominal))}"
          f", artifacts in {run_dir}")
    return EXIT_OK


def _sweep_fractions(args, cfg, section: str) -> list:
    fr = _pick(getattr(args, "fractions", None), cfg, section, "fractions",
               _DEFAULT_FRACTIONS, str)
    try:
        values = _parse_floats(fr)
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, "config",
                       f"bad fractions {fr!r}: {exc}") from exc
    return values


def _cmd_sweep(args, cfg, run) -> int:
    prices, prices_name = _resolve_prices(run)
    params = _resolve_storage(args, cfg, prices.h)
    fractions = _sweep_fractions(args, cfg, "sweep")
    run_dir = _ensure_run_dir(run["out"], "sweep")
    t0 = time.perf_counter()
    try:
        result = ramp_rate_sweep(params, prices, fractions)
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, "config", str(exc)) from exc
    except RuntimeError as exc:
        raise CliError(EXIT_SOLVER, "solver", str(exc)) from exc
    top = params.with_ramp_rate_fraction(float(result.fractions[-1]),
                                         prices.h)
    solution = result.solution
    schedule = extract_storage_schedule(solution, top, prices)
    wall = time.perf_counter() - t0
    if run["format"] in ("csv", "both"):
        write_sweep_csv(result, run_dir / "sweep.csv")
    if run["format"] in ("json", "both"):
        write_sweep_json(result, run_dir / "sweep.json")
    _storage_schedule_files(schedule, run_dir, run["format"])
    _write_json(run_dir / "summary.json", _summary(
        "sweep", run, prices_name, prices.h, len(prices), params, solution,
        fractions=[float(v) for v in result.fractions],
        objective=solution.objective,
        gain=float(result.gain[-1]),
        cycles=float(result.cycles[-1]),
        switching_count=switching_count(schedule),
        wall_time_s=wall))
    print(f"sweep: {len(fractions)} fractions, artifacts in {run_dir}")
    return EXIT_OK


def _cmd_xcyc(args, cfg, run) -> int:
    prices, prices_name = _resolve_prices(run)
    params = _resolve_storage(args, cfg, prices.h)
    fractions = _sweep_fractions(args, cfg, "xcyc")
    c_raw = _pick(args.c_rates, cfg, "xcyc", "c_rates", "0.5 1 2", str)
    try:
        c_rates = _parse_floats(c_raw)
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, "config",
                       f"bad c_rates {c_raw!r}: {exc}") from exc
    run_dir = _ensure_run_dir(run["out"], "xcyc")
    t0 = time.perf_counter()
    try:
        results = xc_yc_sweep(params, prices, c_rates, fractions)
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, "config", str(exc)) from exc
    except RuntimeError as exc:
        raise CliError(EXIT_SOLVER, "solver", str(exc)) from exc
    wall = time.perf_counter() - t0
    if run["format"] in ("csv", "both"):
        with open(run_dir / "xcyc.csv", "w", encoding="utf-8",
                  newline="") as fh:
            fh.write("c_rate,fraction,gain,marginal_gain_pct,cycles,"
                     "gain_per_cycle\n")
            for c, res in zip(c_rates, results):
                for k in range(res.fractions.size):
                    fh.write(",".join(_fmt9(v) for v in (
                        c, res.fractions[k], res.gain[k],
                        res.marginal_gain_pct[k], res.cycles[k],
                        res.gain_per_cycle[k])) + "\n")
    if run["format"] in ("json", "both"):
        _write_json(run_dir / "xcyc.json", {
            "c_rates": [float(c) for c in c_rates],
            "curves": [sweep_to_dict(res) for res in results],
        })
    _write_json(run_dir / "summary.json", _summary(
        "xcyc", run, prices_name, prices.h, len(prices), params,
        c_rates=[float(c) for c in c_rates],
        fractions=[float(v) for v in fractions],
        grid_shape=[len(c_rates), len(fractions)],
        gain=[float(res.gain[-1]) for res in results],
        wall_time_s=wall))
    print(f"xcyc: {len(c_rates)}x{len(fractions)} grid, "
          f"artifacts in {run_dir}")
    return EXIT_OK


def _cmd_mc(args, cfg, run) -> int:
    h = _run_h(run)
    params = _resolve_storage(args, cfg, h)
    count = _pick(args.count, cfg, "mc", "count", 1000, int)
    steps = _pick(args.steps, cfg, "mc", "steps", 96, int)
    if count < 1 or steps < 1:
        raise CliError(EXIT_CONFIG, "config",
                       "mc count and steps must be >= 1")
    run_dir = _ensure_run_dir(run["out"], "mc")
    gen = default_price_generator(n_steps=steps, h=h)
    try:
        report = monte_carlo_run(params, gen, count, run["seed"])
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, "config", str(exc)) from exc
    if run["format"] in ("csv", "both"):
        ok = np.isfinite(report.objectives)
        _write_rows_csv(run_dir / "mc.csv",
                        ["scenario", "objective", "wall_time_s"],
                        [range(report.scenario_count),
                         [(_fmt9(v) if f else "")
                          for v, f in zip(report.objectives, ok)],
                         map(float, report.wall_times_s)])
    if run["format"] in ("json", "both"):
        _write_json(run_dir / "mc.json", mc_to_dict(report))
    _write_json(run_dir / "summary.json", _summary(
        "mc", run, f"synthetic({steps} steps)", h, steps, params,
        scenario_count=report.scenario_count,
        failures=len(report.failures),
        objective=None,
        gain=report.total_gain,
        cycles=None,
        switching_count=None,
        wall_time_s=report.total_wall_time_s,
        mean_wall_time_s=report.mean_wall_time_s))
    print(f"mc: {count} scenarios in {report.total_wall_time_s:.2f} s "
          f"({report.mean_wall_time_s * 1e3:.1f} ms/day), "
          f"artifacts in {run_dir}")
    return EXIT_OK


def _cmd_validate(args, cfg, run) -> int:
    prices, prices_name = _resolve_prices(run)
    report = {
        "valid": True,
        "prices": prices_name,
        "n_steps": len(prices),
        "h": prices.h,
    }
    if cfg.has_section("storage") or args.which == "validate":
        params = _resolve_storage(args, cfg, prices.h)
        report["storage"] = _params_dict(params)
    if cfg.has_section("flex"):
        params = _resolve_flex(args, cfg, prices.h, len(prices))
        report["flex"] = _params_dict(params)
    print(json.dumps(report, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prices", help="price CSV/JSON path, or 'sample' for "
                   "the bundled day (default)")
    p.add_argument("--h", type=float, help="sampling period in hours "
                   "(default: a JSON price file's h_hours, else 0.25)")
    p.add_argument("--config", help="INI config file; flags override it")
    p.add_argument("--out", help="output root directory (default runs)")
    p.add_argument("--format", choices=("csv", "json", "both"),
                   help="data artifact format (default both)")
    p.add_argument("--seed", type=_parse_seed,
                   help="u64 seed for randomized modes (default 0)")


def _add_storage_params(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("storage parameters")
    g.add_argument("--b-min", dest="b_min", type=float, help="kWh")
    g.add_argument("--b-max", dest="b_max", type=float, help="kWh")
    g.add_argument("--b0", dest="b_0", type=float, help="starting level, kWh")
    g.add_argument("--delta-min", dest="delta_min", type=float,
                   help="discharge rating, kW (negative)")
    g.add_argument("--delta-max", dest="delta_max", type=float,
                   help="charge rating, kW")
    g.add_argument("--eta-ch", dest="eta_ch", type=float)
    g.add_argument("--eta-dis", dest="eta_dis", type=float)
    g.add_argument("--eta-conv", dest="eta_conv", type=float)
    g.add_argument("--tau-min", dest="tau_min", type=float,
                   help="ramp rate lower bound, kWh per step")
    g.add_argument("--tau-max", dest="tau_max", type=float,
                   help="ramp rate upper bound, kWh per step")
    g.add_argument("--tau-fraction", dest="tau_fraction", type=float,
                   help="set tau to this fraction of the swing limits")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one-line JSON error, with exit 2.
    ``--help`` and ``--version`` still print and exit 0."""

    def error(self, message):
        sys.exit(_emit_error(CliError(EXIT_CONFIG, "usage",
                                      f"{self.prog}: {message}")))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flexarb",
        description="Storage arbitrage and flexible-load scheduling runs.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="which", required=True)

    p = sub.add_parser("storage", help="solve one battery arbitrage day")
    _add_shared(p)
    _add_storage_params(p)
    p.set_defaults(func=_cmd_storage)

    p = sub.add_parser("flex", help="solve one flexible-load day")
    _add_shared(p)
    g = p.add_argument_group("flexible-load parameters")
    g.add_argument("--t-a", dest="t_a", type=int,
                   help="arrival step, 1-based")
    g.add_argument("--t-d", dest="t_d", type=int,
                   help="departure step, 1-based")
    g.add_argument("--k", dest="k", type=float, help="target energy, kWh")
    g.add_argument("--y-max", dest="y_max", type=float, help="rated kW")
    g.add_argument("--y-min", dest="y_min", type=float)
    g.add_argument("--xi-min", dest="xi_min", type=float,
                   help="ramp rate lower bound, kW per step")
    g.add_argument("--xi-max", dest="xi_max", type=float,
                   help="ramp rate upper bound, kW per step")
    g.add_argument("--xi-fraction", dest="xi_fraction", type=float,
                   help="set xi to +/- this fraction of rated power")
    g.add_argument("--epsilon", dest="epsilon", type=float,
                   help="deadline band half-width, kWh")
    p.set_defaults(func=_cmd_flex)

    p = sub.add_parser("sweep", help="ramp-rate fraction sweep")
    _add_shared(p)
    _add_storage_params(p)
    p.add_argument("--fractions", help="list like '0.05 0.1 ... 1.0'")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("xcyc", help="sweep across c-rates")
    _add_shared(p)
    _add_storage_params(p)
    p.add_argument("--fractions", help="list like '0.05 0.1 ... 1.0'")
    p.add_argument("--c-rates", dest="c_rates",
                   help="list like '0.5 1 2' (rating c: full charge in "
                   "1/c hours)")
    p.set_defaults(func=_cmd_xcyc)

    p = sub.add_parser("mc", help="Monte Carlo benchmark on synthetic days")
    _add_shared(p)
    _add_storage_params(p)
    p.add_argument("--count", type=int, help="number of scenarios "
                   "(default 1000)")
    p.add_argument("--steps", type=int, help="steps per synthetic day "
                   "(default 96)")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("validate",
                       help="validate config and inputs, solve nothing")
    _add_shared(p)
    _add_storage_params(p)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        run = _resolve_run(args, cfg)
        return args.func(args, cfg, run)
    except CliError as exc:
        return _emit_error(exc)
    except OSError as exc:
        return _emit_error(CliError(EXIT_IO, "io", str(exc)))


if __name__ == "__main__":
    sys.exit(main())
