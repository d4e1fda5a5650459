"""Run every workload and print its end-to-end metrics, or self-test tracing.

    python3 perfbench/report.py [--seed 1] [--seconds 25]
    python3 perfbench/report.py --selftest [--seed 1] [--seconds 5]

The first form runs ``run.py --trace 0`` once per workload and prints one
table of every end-to-end metric with its unit, the op p90 where a run has
at least 100 operations, and the failed share.

``--selftest`` makes two traced runs per workload on one seed.  Their exact
counts must agree, and each run must pass its own checks (answers match
HiGHS; per-layer self times add up to each operation's wall time).  It exits
with 1 when any of that fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("mc_batch", "sweep_grid", "flex_fleet")
EXACT_COUNTS = ("lp.iterations_per_solve", "lp.solves_per_op",
                "simplex.calls_per_solve", "lp.nonoptimal", "lp.rows",
                "lp.cols", "cli.files_written")


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """The result object and the full record of one run.py call."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}\n"
                         f"{done.stderr}")
    lines = done.stdout.splitlines()
    path = next(ln.split(" ", 1)[1] for ln in lines
                if ln.startswith("results: "))
    return json.loads(lines[-1]), json.loads(Path(path).read_text())


def _table(seed: int, seconds: float) -> int:
    print(f"seed {seed}, {seconds:g} s per workload, untraced")
    header = ("workload", "setup_s", "days_per_s", "op_ms_p50", "op_ms_p90",
              "peak_rss_mb", "failed_frac", "ops", "backend")
    print("  ".join(f"{h:>12s}" for h in header))
    units = ("", "s", "1/s", "ms", "ms", "MB", "", "", "")
    print("  ".join(f"{u:>12s}" for u in units))
    ok = True
    for w in WORKLOADS:
        result, record = _run(w, seed, seconds, 0)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        p90 = record["extra"].get("op_ms_p90")
        cells = (w, f"{m['setup_s']:.4f}", f"{m['days_per_s']:.3f}",
                 f"{m['op_ms_p50']:.2f}",
                 "n<100" if p90 is None else f"{p90:.2f}",
                 f"{m['peak_rss_mb']:.1f}", f"{record['failed_frac']:.4g}",
                 str(record["extra"]["ops"]),
                 ",".join(record["environment"]["backend"]))
        print("  ".join(f"{c:>12s}" for c in cells))
        ok = ok and result["correct"]
    return 0 if ok else 1


def _selftest(seed: int, seconds: float) -> int:
    ok = True
    for w in WORKLOADS:
        (a, _), (b, _) = (_run(w, seed, seconds, 1) for _ in range(2))
        diff = [k for k in EXACT_COUNTS
                if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        passed = a["correct"] and b["correct"] and not diff
        print(f"{w:12s} {'ok' if passed else 'FAIL'}  "
              + "  ".join(f"{k}={a['metrics'][k]['value']:g}"
                          for k in EXACT_COUNTS)
              + (f"  differ: {diff}" if diff else "")
              + ("" if a["correct"] and b["correct"] else "  run not correct"))
        ok = ok and passed
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if args.selftest:
        return _selftest(args.seed, args.seconds or 5)
    return _table(args.seed, args.seconds or 25)


if __name__ == "__main__":
    sys.exit(main())
