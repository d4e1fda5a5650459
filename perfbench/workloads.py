"""The benchmark's workloads: seeded inputs, CLI arguments and answer checks.

An operation is one ``flexarb`` CLI invocation.  Its unit of work is the
price day: an ``mc`` invocation covers ``MC_DAYS`` days, a ``sweep`` or
``flex`` invocation covers one.  Everything an operation needs comes from
the workload seed; the program sees only the price CSVs written here and,
for ``mc``, a ``--seed``.

Each workload can also rebuild, with the package's public builders, every
LP an operation should have solved.  The runner solves those with HiGHS and
hands the objectives to ``check``, which compares them with what the CLI
wrote and runs the package's schedule checkers on the written schedules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from flexarb import (FlexParams, FlexSchedule, StorageParams, StorageSchedule,
                     build_flex_lp, build_storage_lp, check_flex_schedule,
                     check_storage_schedule, default_price_generator,
                     load_price_csv, nominal_profile, save_price_csv,
                     synthetic_day)

H = 0.25
STEPS = 96

#: The CLI's default battery (``flexarb --help``, README config schema).
#: ``mc`` runs on it without flags; the checker rebuilds from these values
#: and also compares them with the params the CLI reports in summary.json.
BATTERY = StorageParams(b_min=0.2, b_max=1.0, b_0=0.2, delta_min=-0.5,
                        delta_max=0.5, eta_ch=0.95, eta_dis=0.95,
                        eta_conv=1.0)

#: The CLI's default flexible-load rating, kW.
Y_MAX = 4.0

MC_DAYS = 10
SWEEP_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
SWEEP_C_RATES = (0.5, 1.0, 2.0)
FLEX_XI_FRACTIONS = (0.1, 0.25, 1.0)
#: EV windows in steps, drawn from each band once per block of three
#: sessions: solve time grows ~3x from the shortest window to the longest,
#: so unstratified draws would move a run's median by a few percent.
FLEX_WINDOW_BANDS = ((8, 37), (38, 67), (68, 96))

#: Objectives and gains must match HiGHS to this relative tolerance.
RTOL = 1e-6


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its arguments (without ``--out``) and inputs."""

    index: int
    mode: str
    argv: tuple
    days: int
    inputs: dict


def _close(value, reference) -> bool:
    return (isinstance(value, (int, float))
            and abs(value - reference) <= RTOL * max(1.0, abs(reference)))


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """A seeded, endless sequence of operations of one kind.

    ``_draw`` makes the next operation's parameters from the workload's
    generator; operations are drawn in index order and kept, so op ``i`` is
    a pure function of (seed, i).
    """

    name = ""
    #: operations every run completes; count metrics cover exactly these
    min_ops = 1

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self._specs = []

    def spec(self, i: int) -> dict:
        while len(self._specs) <= i:
            self._specs.extend(self._draw())
        return self._specs[i]

    def _draw(self) -> list:
        raise NotImplementedError

    def _day(self, spec: dict, in_dir: Path) -> Path:
        """The op's price CSV, written once: rewriting a file is slow."""
        path = Path(in_dir) / f"day-{spec['index']:05d}.csv"
        if not path.exists():
            save_price_csv(synthetic_day(spec["day_seed"], STEPS, H), path)
        return path

    def _balanced(self, values) -> list:
        """``values`` in a seeded order, so each block holds each once."""
        return [values[k] for k in self.rng.permutation(len(values))]


class McBatch(Workload):
    name = "mc_batch"
    min_ops = 3

    def _draw(self) -> list:
        i = len(self._specs)
        return [{"index": i, "seed": int(self.rng.integers(2 ** 63))}]

    def op(self, i: int, in_dir: Path) -> Op:
        s = self.spec(i)
        argv = ("mc", "--count", str(MC_DAYS), "--seed", str(s["seed"]))
        return Op(i, "mc", argv, MC_DAYS, {"seed": s["seed"]})

    def problems(self, op: Op):
        gen = default_price_generator(n_steps=STEPS, h=H)
        for child in np.random.SeedSequence(op.inputs["seed"]).spawn(
                MC_DAYS):
            # the CLI leaves tau at the swing limit, so mc drops ramp rows
            yield build_storage_lp(BATTERY, gen(child),
                                   include_ramp_rate=False)

    def check(self, op: Op, out_dir: Path, objectives: list) -> tuple:
        run_dir = Path(out_dir) / "mc"
        doc = _read_json(run_dir / "mc.json")
        summary = _read_json(run_dir / "summary.json")
        # a wrong total or report fails every day of the invocation
        notes = _params_notes(summary, BATTERY)
        if not _close(doc["total_gain"], -sum(objectives)):
            notes.append(f"total_gain {doc['total_gain']!r} != HiGHS "
                         f"{-sum(objectives)!r}")
        if doc["scenario_count"] != MC_DAYS or doc["failures"]:
            notes.append(f"scenario_count {doc['scenario_count']}, "
                         f"failures {doc['failures']}")
        got = doc["objectives"] + [None] * MC_DAYS
        bad = [k for k in range(MC_DAYS) if not _close(got[k], objectives[k])]
        failed = MC_DAYS if notes else len(bad)
        notes += [f"day {k}: objective {got[k]!r} != HiGHS "
                  f"{objectives[k]!r}" for k in bad]
        return failed, notes


class SweepGrid(Workload):
    name = "sweep_grid"
    min_ops = 4

    def _draw(self) -> list:
        i = len(self._specs)
        return [{"index": i + k, "day_seed": int(self.rng.integers(2 ** 63)),
                 "c_rate": c}
                for k, c in enumerate(self._balanced(SWEEP_C_RATES))]

    def op(self, i: int, in_dir: Path) -> Op:
        s = self.spec(i)
        prices = self._day(s, in_dir)
        rated = s["c_rate"] * BATTERY.b_max
        argv = ("sweep", "--prices", str(prices),
                "--fractions", " ".join(map(repr, SWEEP_FRACTIONS)),
                f"--delta-min={-rated!r}", f"--delta-max={rated!r}")
        return Op(i, "sweep", argv, 1, {"prices": prices, "rated": rated})

    def _params(self, op: Op) -> StorageParams:
        rated = op.inputs["rated"]
        return replace(BATTERY, delta_min=-rated, delta_max=rated)

    def problems(self, op: Op):
        prices = load_price_csv(op.inputs["prices"], h=H)
        base = self._params(op)
        for phi in SWEEP_FRACTIONS:
            yield build_storage_lp(base.with_ramp_rate_fraction(phi, H),
                                   prices)

    def check(self, op: Op, out_dir: Path, objectives: list) -> tuple:
        run_dir = Path(out_dir) / "sweep"
        sweep = _read_json(run_dir / "sweep.json")
        summary = _read_json(run_dir / "summary.json")
        sched = _read_json(run_dir / "schedule.json")
        base = self._params(op)
        notes = _params_notes(summary, base)
        if sweep["fraction"] != list(SWEEP_FRACTIONS):
            notes.append(f"fractions {sweep['fraction']}")
        for k, obj in enumerate(objectives):
            if k >= len(sweep["gain"]) or not _close(sweep["gain"][k], -obj):
                notes.append(f"fraction {SWEEP_FRACTIONS[k]}: gain != HiGHS "
                             f"{-obj!r}")
        top_obj = objectives[-1]
        if not _close(summary["objective"], top_obj):
            notes.append(f"objective {summary['objective']!r} != HiGHS "
                         f"{top_obj!r}")
        if not _close(summary["gain"], -top_obj):
            notes.append(f"gain {summary['gain']!r} != HiGHS {-top_obj!r}")
        schedule = StorageSchedule(
            np.array(sched["x_kwh"]), np.array(sched["soc_kwh"]),
            np.array(sched["grid_kw"]), np.array(sched["cost"]))
        if not _close(schedule.total_cost, top_obj):
            notes.append(f"schedule cost {schedule.total_cost!r} != HiGHS "
                         f"{top_obj!r}")
        top = base.with_ramp_rate_fraction(SWEEP_FRACTIONS[-1], H)
        notes += check_storage_schedule(schedule, top, H)
        return (1 if notes else 0), notes


class FlexFleet(Workload):
    name = "flex_fleet"
    min_ops = 40

    def _draw(self) -> list:
        i = len(self._specs)
        out = []
        for k, (xi, (lo, hi)) in enumerate(zip(
                self._balanced(FLEX_XI_FRACTIONS),
                self._balanced(FLEX_WINDOW_BANDS))):
            window = int(self.rng.integers(lo, hi + 1))
            t_a = int(self.rng.integers(1, STEPS - window + 2))
            share = float(self.rng.uniform(0.2, 0.8))
            out.append({"index": i + k,
                        "day_seed": int(self.rng.integers(2 ** 63)),
                        "t_a": t_a, "t_d": t_a + window - 1,
                        "k": share * window * H * Y_MAX, "xi": xi})
        return out

    def op(self, i: int, in_dir: Path) -> Op:
        s = self.spec(i)
        prices = self._day(s, in_dir)
        argv = ("flex", "--prices", str(prices), "--t-a", str(s["t_a"]),
                "--t-d", str(s["t_d"]), "--k", repr(s["k"]),
                "--xi-fraction", repr(s["xi"]))
        return Op(i, "flex", argv, 1, {"prices": prices, **s})

    def _params(self, op: Op) -> FlexParams:
        s = op.inputs
        return FlexParams(n_steps=STEPS, t_a=s["t_a"], t_d=s["t_d"],
                          K=s["k"], y_max=Y_MAX).with_ramp_rate_fraction(
                              s["xi"])

    def problems(self, op: Op):
        yield build_flex_lp(self._params(op),
                            load_price_csv(op.inputs["prices"], h=H))

    def check(self, op: Op, out_dir: Path, objectives: list) -> tuple:
        run_dir = Path(out_dir) / "flex"
        summary = _read_json(run_dir / "summary.json")
        sched = _read_json(run_dir / "schedule.json")
        params = self._params(op)
        prices = load_price_csv(op.inputs["prices"], h=H)
        nominal = nominal_profile(params, prices).total_cost
        obj = objectives[0]
        notes = []
        for key, want in (("objective", obj), ("optimized_cost", obj),
                          ("nominal_cost", nominal),
                          ("gain", nominal - obj)):
            if not _close(summary[key], want):
                notes.append(f"{key} {summary[key]!r} != {want!r}")
        p = summary["params"]
        if (p["t_a"], p["t_d"], p["k"]) != (params.t_a, params.t_d,
                                            params.K):
            notes.append(f"params {p}")
        schedule = FlexSchedule(np.array(sched["y_kw"]),
                                np.array(sched["energy_kwh"]),
                                np.array(sched["cost"]))
        notes += check_flex_schedule(schedule, params, H)
        return (1 if notes else 0), notes


def _params_notes(summary: dict, params: StorageParams) -> list:
    got = summary["params"]
    want = {k: getattr(params, k) for k in got}
    return [] if got == want else [f"params {got} != {want}"]


WORKLOADS = {w.name: w for w in (McBatch, SweepGrid, FlexFleet)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
