"""flexarb benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload mc_batch --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports ``flexarb`` from ``src/``.
An operation is one ``flexarb.cli.main`` call on inputs made from the seed
(see workloads.py); the next starts when the previous one returns.  Every
operation writes into a directory of its own, and its answers are checked
against HiGHS after the timed loop.  ``--trace 0`` reports the end-to-end
metrics, measured in ``WORKERS`` fresh processes one after another;
``--trace 1`` runs each operation once plain and once traced, in this
process, and reports the per-layer metrics (see spans.py and NOTES.md).

The last line of standard output is the result as one JSON object; the
lines before it are a readable report.  A full record, with the
environment and, when traced, every span, goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 7
#: The untraced loop is split over this many fresh processes, run one after
#: another.  The speed of one interpreter process differs from the next by
#: a few percent (memory layout, hash seeds), most on ``flex_fleet``, where
#: interpreter work is a large share; the median over several averages it.
WORKERS = 4
#: Per-layer self times must add up to the operation's wall time within
#: this share of it.
TRACE_TOLERANCE = 0.01
#: A percentile is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100

# A fresh interpreter imports the package and solves the workload's first
# LP; it prints the solve's status and backend.
_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import flexarb.cli
from flexarb import solve_lp
import workloads
wl = workloads.make(sys.argv[3], int(sys.argv[4]))
sol = solve_lp(next(wl.problems(wl.op(0, sys.argv[5]))))
print(sol.status.value, sol.stats.backend)
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mc_batch", "sweep_grid", "flex_fleet"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one worker's share of the loop from this op index
    p.add_argument("--worker-start", type=int, help=argparse.SUPPRESS)
    p.add_argument("--run-dir", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _blas_threads():
    """Threads of numpy's OpenBLAS, or None where it cannot be asked."""
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment() -> dict:
    import numpy as np
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _setup(workload: str, seed: int, in_dir: Path) -> tuple:
    """Median seconds from spawn to exit of the probe, and each one's output."""
    times, outputs = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(BENCH_DIR),
             workload, str(seed), str(in_dir)],
            capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        outputs.append(done.stdout.split() if done.returncode == 0
                       else ["failed", done.stderr.strip()[-300:]])
    return statistics.median(times), outputs


def _invoke(main, argv, tracer=None, op=-1) -> tuple:
    """One CLI call with its output captured: (exit code, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = main(list(argv))
            else:
                with tracer.operation(op):
                    rc = main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation
            rc = -1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        seconds = time.perf_counter() - t0
    return rc, seconds, err.getvalue()


def _dir_size(path: Path) -> tuple:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _loop(wl, main, seconds: float, run_dir: Path, tracer,
          start: int = 0) -> list:
    """Run operations from ``start`` until ``seconds`` pass.

    At least one operation runs, and ``wl.min_ops`` when starting at 0.
    Untraced, each operation runs once.  Traced, it runs once plain and
    once traced, in alternating order, into separate directories.
    """
    in_dir = run_dir / "in"
    records = []
    t_end = time.perf_counter() + seconds
    i = start
    while time.perf_counter() < t_end or i < max(wl.min_ops, start + 1):
        op = wl.op(i, in_dir)
        kinds = [False] if tracer is None else [i % 2 == 1, i % 2 == 0]
        for traced in kinds:
            out = run_dir / f"op-{i:05d}{'-t' if traced else ''}"
            if traced:
                with tracer.installed():
                    rc, sec, err = _invoke(main, op.argv + ("--out", str(out)),
                                           tracer, i)
            else:
                rc, sec, err = _invoke(main, op.argv + ("--out", str(out)))
            records.append({"op": op, "out": out, "traced": traced,
                            "rc": rc, "seconds": sec, "stderr": err})
        i += 1
    return records


def _warm_up(wl, main, run_dir: Path, start: int) -> None:
    """One uncounted call, so lazy imports and first-use costs go unmeasured."""
    _invoke(main, wl.op(start, run_dir / "in").argv
            + ("--out", str(run_dir / f"warmup-{start:05d}")))


def _worker(args, wl, main) -> int:
    """One worker's share of the untraced loop, printed as one JSON line."""
    _warm_up(wl, main, args.run_dir, args.worker_start)
    records = _loop(wl, main, args.seconds, args.run_dir, None,
                    args.worker_start)
    print(json.dumps({
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": [{"op": r["op"].index, "out": str(r["out"]),
                     "rc": r["rc"], "seconds": r["seconds"],
                     "stderr": r["stderr"]} for r in records]}))
    return 0


def _measure(args, wl, run_dir: Path) -> tuple:
    """The untraced loop, over ``WORKERS`` processes: records, peak RSS."""
    records, rss_mb, start = [], 0.0, 0
    for _ in range(WORKERS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds / WORKERS),
             "--worker-start", str(start), "--run-dir", str(run_dir)],
            capture_output=True, text=True, timeout=args.seconds + 150)
        if done.returncode != 0:
            raise RuntimeError(f"worker exited {done.returncode}:\n"
                               f"{done.stderr[-3000:]}")
        report = json.loads(done.stdout.splitlines()[-1])
        rss_mb = max(rss_mb, report["rss_mb"])
        for r in report["records"]:
            records.append({"op": wl.op(r["op"], run_dir / "in"),
                            "out": Path(r["out"]), "traced": False,
                            "rc": r["rc"], "seconds": r["seconds"],
                            "stderr": r["stderr"]})
        start = records[-1]["op"].index + 1
    return records, rss_mb


def _gate(wl, records) -> tuple:
    """Check every operation's outputs against HiGHS.

    Returns the failed days, what failed, the HiGHS solve times and the
    solver backends the operations' summaries name.
    """
    from scipy.optimize import linprog
    import numpy as np

    def highs(problem):
        t0 = time.perf_counter()
        res = linprog(problem.f, A_ub=problem.A, b_ub=problem.b,
                      bounds=np.column_stack([problem.lb, problem.ub]),
                      method="highs")
        highs_s.append(time.perf_counter() - t0)
        if res.status != 0:
            raise RuntimeError(f"HiGHS: {res.message}")
        return float(res.fun)

    highs_s, notes, failed, backends = [], [], 0, set()
    for rec in records:
        op = rec["op"]
        if rec["rc"] != 0:
            bad, why = op.days, [f"exit {rec['rc']}: {rec['stderr'][-300:]}"]
        else:
            try:
                objectives = [highs(p) for p in wl.problems(op)]
                bad, why = wl.check(op, rec["out"], objectives)
            except RuntimeError as exc:
                bad, why = op.days, [str(exc)]
            except (OSError, KeyError, ValueError, TypeError) as exc:
                bad, why = op.days, [f"unreadable output: {exc!r}"]
        rec["failed_days"] = bad
        rec["files"], rec["bytes"] = _dir_size(rec["out"])
        failed += bad
        notes += [f"op {op.index}: {w}" for w in why]
        summary = rec["out"] / op.mode / "summary.json"
        if summary.is_file():
            backends.add(json.loads(summary.read_text()).get("backend"))
    backends.discard(None)
    return failed, notes, highs_s, backends


def _end_to_end(records, setup_s: float, rss_mb: float) -> tuple:
    per_day_ms = [1e3 * r["seconds"] / r["op"].days for r in records]
    days = sum(r["op"].days for r in records)
    report = {
        "setup_s": (setup_s, "s"),
        "days_per_s": (days / sum(r["seconds"] for r in records), "1/s"),
        "op_ms_p50": (statistics.median(per_day_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {"ops": len(records), "days": days}
    if len(records) >= P90_MIN_OPS:
        extra["op_ms_p90"] = statistics.quantiles(per_day_ms, n=10)[-1]
    return report, extra


def _per_layer(wl, records, tracer, highs_s) -> tuple:
    from spans import LAYERS, self_seconds, well_formed

    traced = [r for r in records if r["traced"]]
    plain = {r["op"].index: r for r in records if not r["traced"]}
    days = sum(r["op"].days for r in traced)
    spans = tracer.spans

    def total(name):
        return sum(s.seconds for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def per_call_ms(name, n=None):
        n = calls(name) if n is None else n
        return 1e3 * total(name) / n if n else 0.0

    # counts: over the first min_ops operations, which every run completes
    head = [r for r in traced if r["op"].index < wl.min_ops]
    c = Counter()
    for r in head:
        c.update(tracer.counts[r["op"].index])
    head_days = sum(r["op"].days for r in head)
    solves = c["solves"] or 1.0
    selfs = self_seconds(spans)
    report = {
        "simplex.kernel_ms": (per_call_ms("simplex.kernel", calls("lp.solve")),
                              "ms"),
        "simplex.calls_per_solve": (c["kernel_calls"] / solves, "count"),
        "lp.solve_ms": (per_call_ms("lp.solve"), "ms"),
        "lp.validate_ms": (per_call_ms("lp.validate", calls("lp.solve")),
                           "ms"),
        "lp.iterations_per_solve": (c["iterations"] / solves, "count"),
        "lp.solves_per_op": (c["solves"] / head_days, "count"),
        "lp.nonoptimal": (float(c["nonoptimal"]), "count"),
        "lp.rows": (c["rows"] / solves, "count"),
        "lp.cols": (c["cols"] / solves, "count"),
        "storage.build_ms": (per_call_ms("storage.build"), "ms"),
        "storage.extract_ms": (per_call_ms("storage.extract"), "ms"),
        "flexibility.build_ms": (per_call_ms("flexibility.build"), "ms"),
        "flexibility.extract_ms": (per_call_ms("flexibility.extract"), "ms"),
        "pricing.gen_ms": (per_call_ms("pricing.gen"), "ms"),
        "pricing.load_ms": (per_call_ms("pricing.load"), "ms"),
        "cli.files_written": (sum(r["files"] for r in head) / head_days,
                              "count"),
        "cli.bytes_written": (sum(r["bytes"] for r in head) / head_days,
                              "bytes"),
        "highs.solve_ms": (1e3 * statistics.fmean(highs_s or [0.0]), "ms"),
        "trace.overhead_frac": (statistics.median(
            r["seconds"] / plain[r["op"].index]["seconds"] - 1.0
            for r in traced), "ratio"),
    }
    for layer in LAYERS:
        ms = 1e3 * sum(v for (op, lay), v in selfs.items() if lay == layer)
        report[f"{layer}.self_ms"] = (ms / days, "ms")

    # self times of each operation add up to its wall time
    problems = [] if well_formed(spans) else ["spans not well formed"]
    for r in traced:
        layers_s = sum(selfs.get((r["op"].index, lay), 0.0) for lay in LAYERS)
        if abs(layers_s - r["seconds"]) > TRACE_TOLERANCE * r["seconds"]:
            problems.append(f"op {r['op'].index}: layer self times "
                            f"{layers_s:.6f} s vs wall {r['seconds']:.6f} s")
    return report, problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "flexarb" / "__init__.py").is_file():
        print(f"perfbench: no flexarb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flexarb.cli
    import workloads
    from spans import Tracer

    if Path(flexarb.__file__).resolve().parent != SRC / "flexarb":
        print(f"perfbench: flexarb imported from {flexarb.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed)
    if args.run_dir is not None:
        return _worker(args, wl, flexarb.cli.main)

    env = _environment()
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    # kept after the run: deleting files that reached the disk is slow
    run_dir = WORK / "runs" / name
    (run_dir / "in").mkdir(parents=True)
    wl.op(0, run_dir / "in")
    if args.trace:
        probes = []
        _warm_up(wl, flexarb.cli.main, run_dir, 0)
        tracer = Tracer()
        records = _loop(wl, flexarb.cli.main, args.seconds, run_dir, tracer)
    else:
        setup_s, probes = _setup(args.workload, args.seed, run_dir / "in")
        records, rss_mb = _measure(args, wl, run_dir)
    failed, notes, highs_s, backends = _gate(wl, records)
    backends |= {p[1] for p in probes if p[0] == "optimal"}
    if args.trace:
        backends |= tracer.backends
        metrics, trace_notes = _per_layer(wl, records, tracer, highs_s)
        notes += trace_notes
        extra = {}
    else:
        metrics, extra = _end_to_end(records, setup_s, rss_mb)
        notes += [f"setup probe: {' '.join(p)}" for p in probes
                  if p[0] != "optimal"]
    env["backend"] = sorted(backends)

    attempted = sum(r["op"].days for r in records)
    correct = failed == 0 and not notes
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {"args": vars(args), "environment": env, "result": result,
              "failed_frac": failed / attempted, "extra": extra,
              "notes": notes[:100],
              "ops": [{"op": r["op"].index, "days": r["op"].days,
                       "traced": r["traced"], "rc": r["rc"],
                       "seconds": r["seconds"],
                       "failed_days": r["failed_days"]} for r in records]}
    if args.trace:
        record["spans"] = [[s.op, s.name, s.parent, s.start, s.end]
                           for s in tracer.spans]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {','.join(env['backend'])}  nproc {env['nproc']}  "
          f"blas_threads {env['blas_threads']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  "
          f"numba {'yes' if env['numba_importable'] else 'no'}")
    for k, (v, u) in metrics.items():
        print(f"  {k:26s} {v:14.6g} {u}")
    for k, v in extra.items():
        print(f"  {k:26s} {v:14.6g}")
    print(f"  {'failed_frac':26s} {failed / attempted:14.6g} "
          f"({failed} of {attempted} days)")
    for n in notes[:10]:
        print(f"  FAIL {n}")
    print(f"results: {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
