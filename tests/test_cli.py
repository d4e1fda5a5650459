"""Command-line interface tests: artifacts, config handling, exit codes."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flexarb
from flexarb import cli
from flexarb.lp import LpSolution, SolveStats, SolveStatus
from flexarb.pricing import save_price_json, synthetic_day
from flexarb.storage import StorageParams, StorageSchedule, \
    check_storage_schedule


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _summary(run_dir):
    return json.loads((run_dir / "summary.json").read_text())


def _stderr_error(capsys):
    err = capsys.readouterr().err
    return json.loads(err)["error"]


def test_storage_run_on_sample_day(tmp_path):
    rc = cli.main(["storage", "--out", str(tmp_path)])
    assert rc == 0
    run_dir = tmp_path / "storage"
    for name in ("schedule.csv", "schedule.json", "summary.json"):
        assert (run_dir / name).is_file()
    summary = _summary(run_dir)
    assert summary["mode"] == "storage"
    assert summary["status"] == "optimal"
    assert summary["inputs"] == {"prices": "sample", "h": 0.25,
                                 "n_steps": 96, "seed": 0}
    assert summary["gain"] == pytest.approx(-summary["objective"])
    assert summary["cycles"] >= 0
    assert isinstance(summary["switching_count"], int)
    # the written schedule must re-validate against the default params
    rows = _read_csv(run_dir / "schedule.csv")
    assert len(rows) == 96
    x = np.array([float(r["x_kwh"]) for r in rows])
    soc = np.array([float(r["soc_kwh"]) for r in rows])
    cost = np.array([float(r["cost"]) for r in rows])
    params = StorageParams(**{k: v for k, v in summary["params"].items()
                              if k in StorageParams.__dataclass_fields__})
    assert np.allclose(soc, params.b_0 + np.cumsum(x), atol=1e-9)
    grid = np.array([float(r["grid_kw"]) for r in rows])
    schedule = StorageSchedule(x=x, soc=soc, grid_power=grid, step_cost=cost)
    assert check_storage_schedule(schedule, params, 0.25) == []


def test_flex_run_honors_deadline_band(tmp_path):
    rc = cli.main(["flex", "--xi-fraction", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    run_dir = tmp_path / "flex"
    summary = _summary(run_dir)
    assert summary["mode"] == "flex"
    assert summary["nominal_cost"] >= summary["optimized_cost"] - 1e-9
    rows = _read_csv(run_dir / "schedule.csv")
    y = np.array([float(r["y_kw"]) for r in rows])
    energy = 0.25 * y.sum()
    # defaults: K = 25 kWh, epsilon = K / 1000
    assert abs(energy - 25.0) <= 0.025 + 1e-9
    assert np.abs(np.diff(y[24:72])).max() <= 0.4 + 1e-9


def test_sweep_artifacts_and_reference_row(tmp_path):
    rc = cli.main(["sweep", "--fractions", "0.2,0.6,1.0",
                   "--out", str(tmp_path)])
    assert rc == 0
    run_dir = tmp_path / "sweep"
    rows = _read_csv(run_dir / "sweep.csv")
    assert [r["fraction"] for r in rows] == ["0.2", "0.6", "1"]
    assert float(rows[-1]["marginal_gain_pct"]) == 100.0
    gains = [float(r["gain"]) for r in rows]
    assert gains == sorted(gains)  # relaxation never hurts
    summary = _summary(run_dir)
    assert summary["fractions"] == [0.2, 0.6, 1.0]
    assert (run_dir / "schedule.csv").is_file()  # top-fraction schedule


def test_sweep_solves_each_fraction_once(tmp_path, monkeypatch):
    # the top-fraction schedule comes from the sweep's own last solve
    calls = []
    solve = cli.solve_lp

    def counting_solve(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    for module in ("flexarb.cli", "flexarb.analysis"):
        monkeypatch.setattr(f"{module}.solve_lp", counting_solve)
    rc = cli.main(["sweep", "--fractions", "0.5,1.0", "--out", str(tmp_path)])
    assert rc == 0
    # the top LP's ramp-free relaxation (4N rows), then one solve of each
    # fraction's LP (6N rows), the two differing in the ramp rows' bounds
    n = calls[0].n_cols // 2
    assert [p.n_rows for p in calls] == [4 * n, 6 * n, 6 * n]
    assert not np.array_equal(calls[1].b, calls[2].b)
    summary = _summary(tmp_path / "sweep")
    rows = _read_csv(tmp_path / "sweep" / "schedule.csv")
    cost = sum(float(r["cost"]) for r in rows)
    assert cost == pytest.approx(summary["objective"], abs=1e-6)


def test_format_flag_selects_artifacts(tmp_path):
    assert cli.main(["storage", "--format", "csv",
                     "--out", str(tmp_path / "a")]) == 0
    a = tmp_path / "a" / "storage"
    assert (a / "schedule.csv").is_file()
    assert not (a / "schedule.json").exists()
    assert (a / "summary.json").is_file()  # summary is always JSON
    assert cli.main(["storage", "--format", "json",
                     "--out", str(tmp_path / "b")]) == 0
    b = tmp_path / "b" / "storage"
    assert (b / "schedule.json").is_file()
    assert not (b / "schedule.csv").exists()


def test_xcyc_grid_artifacts(tmp_path):
    rc = cli.main(["xcyc", "--c-rates", "0.5,1", "--fractions", "0.5,1.0",
                   "--out", str(tmp_path)])
    assert rc == 0
    run_dir = tmp_path / "xcyc"
    lines = (run_dir / "xcyc.csv").read_text().splitlines()
    assert lines[0] == ("c_rate,fraction,gain,marginal_gain_pct,cycles,"
                        "gain_per_cycle")
    assert len(lines) == 1 + 2 * 2
    data = json.loads((run_dir / "xcyc.json").read_text())
    assert data["c_rates"] == [0.5, 1.0]
    assert len(data["curves"]) == 2
    assert _summary(run_dir)["grid_shape"] == [2, 2]


def test_mc_small_batch(tmp_path):
    rc = cli.main(["mc", "--count", "5", "--steps", "24", "--seed", "9",
                   "--out", str(tmp_path)])
    assert rc == 0
    run_dir = tmp_path / "mc"
    data = json.loads((run_dir / "mc.json").read_text())
    assert data["scenario_count"] == 5
    assert len(data["objectives"]) == 5
    assert data["failures"] == []
    lines = (run_dir / "mc.csv").read_text().splitlines()
    assert lines[0] == "scenario,objective,wall_time_s"
    assert len(lines) == 6
    summary = _summary(run_dir)
    assert summary["scenario_count"] == 5
    assert summary["failures"] == 0
    assert not (run_dir / "schedule.csv").exists()


def _half_hour_json(tmp_path):
    """A 48-step JSON price file whose h_hours is 0.5."""
    path = tmp_path / "day.json"
    save_price_json(synthetic_day(4, 48, 0.5), path)
    return path


def test_summary_records_the_h_that_was_solved(tmp_path):
    prices = str(_half_hour_json(tmp_path))
    for argv in (["storage", "--prices", prices],
                 ["storage", "--prices", prices, "--h", "0.5"],
                 ["flex", "--prices", prices, "--t-a", "5", "--t-d", "40",
                  "--k", "10"]):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        summary = _summary(tmp_path / argv[0])
        assert summary["inputs"]["h"] == 0.5
        assert summary["inputs"]["n_steps"] == 48
    # mc keeps the run's own h
    for extra, h in (([], 0.25), (["--h", "0.5"], 0.5)):
        assert cli.main(["mc", "--count", "2", "--steps", "8",
                         "--out", str(tmp_path)] + extra) == 0
        assert _summary(tmp_path / "mc")["inputs"]["h"] == h


@pytest.mark.parametrize("how", [["--h", "0.25"], ["--h", "0.3"],
                                 ["--config", "run.ini"]])
def test_explicit_h_that_conflicts_with_json_exits_2(how, tmp_path, capsys):
    prices = _half_hour_json(tmp_path)
    (tmp_path / "run.ini").write_text("[run]\nh = 0.25\n")
    how = [str(tmp_path / v) if v.endswith(".ini") else v for v in how]
    rc = cli.main(["storage", "--prices", str(prices),
                   "--out", str(tmp_path)] + how)
    assert rc == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "config"
    assert "conflicts with h_hours 0.5" in err["message"]
    assert not (tmp_path / "storage").exists()


def test_validate_prints_report(tmp_path, capsys):
    rc = cli.main(["validate", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True
    assert report["n_steps"] == 96
    assert report["storage"]["b_max"] == 1.0
    assert not (tmp_path / "validate").exists()  # solves and writes nothing


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.ini"
    out_from_cfg = tmp_path / "fromcfg"
    cfg.write_text(
        "[run]\n"
        f"out = {out_from_cfg}\n"
        "seed = 3\n"
        "[storage]\n"
        "b_max = 2.0\n"
        "b_0 = 0.4\n")
    assert cli.main(["storage", "--config", str(cfg)]) == 0
    summary = _summary(out_from_cfg / "storage")
    assert summary["params"]["b_max"] == 2.0
    assert summary["params"]["b_0"] == 0.4
    assert summary["inputs"]["seed"] == 3
    # a flag beats the same setting in the config file
    assert cli.main(["storage", "--config", str(cfg), "--b-max", "1.5",
                     "--out", str(tmp_path / "flagged")]) == 0
    summary = _summary(tmp_path / "flagged" / "storage")
    assert summary["params"]["b_max"] == 1.5
    assert summary["params"]["b_0"] == 0.4  # config still fills the rest


def test_config_with_removed_backend_key_still_runs(tmp_path):
    # config files written for earlier versions may still set the key;
    # it is ignored like any other unknown key
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nbackend = numba\n")
    assert cli.main(["storage", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    assert _summary(tmp_path / "storage")["status"] == "optimal"


def test_missing_price_file_exits_2(tmp_path, capsys):
    rc = cli.main(["storage", "--prices", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path)])
    assert rc == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "config"
    assert "absent.csv" in err["message"]


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("[run\nout = nowhere\n")
    rc = cli.main(["storage", "--config", str(cfg),
                   "--out", str(tmp_path)])
    assert rc == 2
    assert _stderr_error(capsys)["kind"] == "config"


def test_bad_params_exit_2(tmp_path, capsys):
    rc = cli.main(["storage", "--b-min", "2.0", "--b-max", "1.0",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert _stderr_error(capsys)["kind"] == "params"


@pytest.mark.parametrize("argv, name", [
    (["storage", "--delta-max", "inf"], "delta_max"),
    (["storage", "--b-max", "inf", "--b0", "0.5"], "b_max"),
    (["flex", "--k", "nan"], "K"),
    (["flex", "--epsilon", "inf"], "epsilon"),
    (["flex", "--y-max", "inf"], "y_max"),
    (["mc", "--count", "2", "--delta-max", "inf"], "delta_max"),
])
def test_non_finite_params_exit_2(argv, name, tmp_path, capsys):
    rc = cli.main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "params"
    assert f"{name} must be finite" in err["message"]


@pytest.mark.parametrize("argv, bad", [
    (["sweep", "--fractions", "nan 0.5 1.0"], "nan"),
    (["xcyc", "--c-rates", "1 -1"], "-1.0"),
    (["xcyc", "--c-rates", "1 inf"], "inf"),
    (["xcyc", "--fractions", "0.5 nan"], "nan"),
])
def test_bad_sweep_values_exit_2_before_any_solve(argv, bad, tmp_path,
                                                  capsys, monkeypatch):
    calls = []
    for module in ("flexarb.cli", "flexarb.analysis"):
        monkeypatch.setattr(f"{module}.solve_lp",
                            lambda *args, **kwargs: calls.append(args))
    rc = cli.main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "config"
    assert err["message"].endswith(f"got {bad}")
    assert calls == []


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    def fake_solve(problem, basis=None):
        stats = SolveStats(iterations=0, wall_time_s=0.0,
                           max_residual=np.inf)
        return LpSolution(x=np.zeros(problem.f.size), objective=np.nan,
                          status=SolveStatus.INFEASIBLE, stats=stats)

    monkeypatch.setattr("flexarb.analysis.solve_lp", fake_solve)
    rc = cli.main(["storage", "--out", str(tmp_path)])
    assert rc == 3
    err = _stderr_error(capsys)
    assert err["kind"] == "solver"
    assert "infeasible" in err["message"]


def test_unwritable_output_exits_4(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where a directory is needed\n")
    rc = cli.main(["storage", "--out", str(blocker / "deeper")])
    assert rc == 4
    assert _stderr_error(capsys)["kind"] == "io"


def test_repeat_runs_are_byte_identical(tmp_path):
    for name in ("one", "two"):
        assert cli.main(["storage", "--out", str(tmp_path / name)]) == 0
    one = tmp_path / "one" / "storage"
    two = tmp_path / "two" / "storage"
    for name in ("schedule.csv", "schedule.json"):
        assert (one / name).read_bytes() == (two / name).read_bytes()
    s1, s2 = _summary(one), _summary(two)
    s1.pop("wall_time_s"), s2.pop("wall_time_s")
    assert s1 == s2


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_console_entry_point(tmp_path):
    # Runs the entry point declared in pyproject.toml the way pip's
    # generated console script does, so the check needs no install: the
    # tests run from a checkout.
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    module, _, func = meta["project"]["scripts"]["flexarb"].partition(":")
    launcher = (f"import sys\nfrom {module} import {func}\n"
                f"sys.argv[0] = 'flexarb'\nsys.exit({func}())\n")
    pkg_parent = str(Path(flexarb.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_parent, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", launcher, "--version"],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"flexarb {flexarb.__version__}"

    exe = shutil.which("flexarb")
    if exe:
        proc = subprocess.run([exe, "--version"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "flexarb" in proc.stdout
