"""CLI subcommands, artifact emission and output determinism."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

import nullwave
import nullwave.cli as cli
from nullwave.report import (SUMMARY_COLUMNS, stage_value, summary_row,
                             write_json, write_summary_csv)

TINY = {
    "name": "tiny",
    "model": "membrane",
    "profile": {"bump": {"A": 0.3, "width": 6.0}},
    "perturbation": {"eps": 1e-3, "center": 0.5, "width": 1.2},
    "grid": {"radius": 2.0, "h": 0.2},
    "solver": {"backend": "numpy", "rect_t_max": 0.5},
    "seed": 3,
}


def write_scenario(tmp_path, name="sc.json", **overrides):
    raw = {k: dict(v) if isinstance(v, dict) else v for k, v in TINY.items()}
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key] = dict(raw[key], **value)
        else:
            raw[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_cli_import_loads_neither_sympy_nor_numpy_polynomial():
    # both are imported on first use only: cli imports oracles, which needs
    # sympy for its symbolic tables, and background's phase quadrature
    # needs numpy.polynomial's Gauss-Legendre nodes
    src = os.path.dirname(os.path.dirname(nullwave.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, nullwave.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'sympy' or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert cli.main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_missing_file(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().out


def test_validate_invalid_scenario(tmp_path, capsys):
    path = write_scenario(
        tmp_path, profile={"bump": {"A": 0.3, "width": 6.0, "gamma": -1.0}})
    assert cli.main(["validate", str(path)]) == 2
    assert "gamma_bar" in capsys.readouterr().out


@pytest.mark.parametrize("solver", [{"tol": "1e-12"}, {"cfl": None},
                                    {"max_iter": True}])
def test_validate_non_number_exits_2(tmp_path, capsys, solver):
    path = write_scenario(tmp_path, solver=solver)
    assert cli.main(["validate", str(path)]) == 2
    key = next(iter(solver))
    assert f"invalid: solver: {key} must be" in capsys.readouterr().out


def test_validate_and_run_refuse_a_rect_grid_h_does_not_divide(tmp_path,
                                                               capsys):
    # h = 0.3 divides [-1.5, 1.5] but not the rectangle [-3.5, 3.5]
    path = write_scenario(tmp_path, grid={"radius": 1.5, "h": 0.3})
    assert cli.main(["validate", str(path)]) == 2
    assert "invalid: solver: rect grid [-3.5, 3.5] with dx 0.3: dx must " \
        "evenly divide the x extent" in capsys.readouterr().out
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "rect grid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a UTF-16 byte-order mark: not UTF-8, and not JSON in any 8-bit encoding
NOT_UTF8 = b"\xff\xfe{}"


def test_validate_and_run_refuse_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "sc.json"
    path.write_bytes(NOT_UTF8)
    assert cli.main(["validate", str(path)]) == 2
    assert "invalid: scenario file is not valid JSON" in \
        capsys.readouterr().out
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "invalid: scenario file is not valid JSON" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_rejects_unknown_key(tmp_path, capsys):
    path = tmp_path / "sc.json"
    raw = dict(TINY, typo=1)
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", str(path)]) == 2
    assert "unknown key" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_artifacts(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    for fname in ("report.json", "timings.json", "state.csv", "frame.csv"):
        assert (out / fname).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True
    assert set(report["stages"]) == {
        "data_gauge", "march", "picard", "geometry", "crossval"}
    assert "timings" not in report
    stdout = capsys.readouterr().out
    for stage in ("data_gauge", "march", "picard", "geometry", "crossval"):
        assert stage in stdout


def test_run_default_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path)
    assert cli.main(["run", str(path)]) == 0
    assert (tmp_path / "runs" / "tiny" / "report.json").exists()


def test_run_invalid_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, grid={"radius": -2.0, "h": 0.2})
    assert cli.main(["run", str(path)]) == 2
    assert not (tmp_path / "runs").exists()


def test_run_and_sweep_refuse_an_out_that_cannot_be_a_directory(
        tmp_path, capsys, monkeypatch):
    # a file, a path under a file, or an empty path; run checks --out
    # before the pipeline starts, sweep before any run
    def no_pipeline(scenario):
        raise AssertionError("run_pipeline was called")
    monkeypatch.setattr(cli, "run_pipeline", no_pipeline)
    path = write_scenario(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"seed": [1, 2]}))
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    for out, why in ((taken, f"{taken} is not a directory"),
                     (taken / "below", f"{taken} is not a directory"),
                     ("", "the path is empty")):
        for argv in (["run", str(path)], ["sweep", str(path), str(grid)]):
            assert cli.main(argv + ["--out", str(out)]) == 2
            assert capsys.readouterr().err == \
                f"invalid output directory: {why}\n"
    assert taken.read_text() == "keep me"


def test_run_prints_each_problem_validate_finds(tmp_path, capsys):
    # run builds the scenario once and reports what that pass found: one
    # "invalid:" line per problem, as validate prints them
    path = write_scenario(tmp_path, grid={"radius": -2.0, "h": 0.2},
                          solver={"tol": "1e-12"})
    assert cli.main(["validate", str(path)]) == 2
    want = capsys.readouterr().out.splitlines()
    assert len(want) == 2
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == want
    assert not (tmp_path / "out").exists()


def test_run_deterministic_artifacts(tmp_path):
    path = write_scenario(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(path), "--out", str(out_a)]) == 0
    assert cli.main(["run", str(path), "--out", str(out_b)]) == 0
    for fname in ("report.json", "state.csv", "frame.csv"):
        assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()


def test_run_partial_failure_exit_code_and_report(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        model={"polynomial": [0.25]},
        perturbation={"eps": 2.0, "width": 1.0, "center": 0.0})
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is False and report["errors"]
    assert "[failed]" in capsys.readouterr().out


def test_run_respects_stage_switches(tmp_path, capsys):
    path = write_scenario(tmp_path,
                          solver={"picard": False, "crossval": False})
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "[off]     picard" in stdout
    assert "[off]     crossval" in stdout
    assert (out / "state.csv").exists()  # the march still ran
    report = json.loads((out / "report.json").read_text())
    assert "picard" not in report["stages"]
    assert "crossval" not in report["stages"]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _read_summary(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_two_point_grid(tmp_path, capsys):
    template = write_scenario(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"perturbation.eps": [1e-2, 1e-3]}))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(template), str(grid),
                     "--out", str(out)]) == 0
    rows = _read_summary(out / "summary.csv")
    assert [row["run"] for row in rows] == ["0", "1"]
    assert [float(row["eps"]) for row in rows] == [1e-2, 1e-3]
    assert all(row["ok"] == "True" for row in rows)
    for idx in (0, 1):
        assert (out / f"run_{idx:03d}" / "report.json").exists()
    # the data distance scales linearly with the perturbation amplitude
    eb = [float(row["eps_bar"]) for row in rows]
    assert eb[0] == pytest.approx(10.0 * eb[1], rel=1e-9)


def test_sweep_empty_grid(tmp_path, capsys):
    template = write_scenario(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text("{}")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(template), str(grid),
                     "--out", str(out)]) == 0
    rows = _read_summary(out / "summary.csv")
    assert rows == []
    assert "0 run(s)" in capsys.readouterr().out


def test_sweep_pool_path(tmp_path, monkeypatch):
    # the same sweep serially and on 2 workers writes the same bytes:
    # summary.csv and every run's report and CSVs (timings.json aside)
    template = write_scenario(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"seed": [1, 2]}))
    written = {}
    for workers in (1, 2):
        monkeypatch.setattr(cli, "thread_count", lambda n=workers: n)
        out = tmp_path / f"sweep{workers}"
        assert cli.main(["sweep", str(template), str(grid),
                         "--out", str(out)]) == 0
        written[workers] = {
            str(p.relative_to(out)): p.read_bytes()
            for p in out.rglob("*")
            if p.is_file() and p.name != "timings.json"}
    rows = _read_summary(out / "summary.csv")
    assert [row["seed"] for row in rows] == ["1", "2"]
    assert "run_001/report.json" in written[1]
    assert written[1] == written[2]


@pytest.mark.parametrize("raw", ["two", "0", "-3", "1.5"])
def test_sweep_refuses_a_bad_thread_count(tmp_path, capsys, monkeypatch, raw):
    # a cap that is not a positive integer is refused before any run
    monkeypatch.setenv("NULLWAVE_THREADS", raw)
    template = write_scenario(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"perturbation.eps": [0.01]}))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(template), str(grid),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "NULLWAVE_THREADS" in err and repr(raw) in err
    assert not out.exists()


def test_sweep_grid_creates_missing_section(tmp_path):
    template = write_scenario(tmp_path, perturbation=None)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"perturbation.eps": [0.01]}))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(template), str(grid),
                     "--out", str(out)]) == 0
    report = json.loads((out / "run_000" / "report.json").read_text())
    pert = report["scenario"]["perturbation"]
    assert pert["eps"] == 0.01 and pert["kind"] == "bump"


def test_sweep_cartesian_product_order(tmp_path):
    template = write_scenario(tmp_path, solver={"crossval": False,
                                                "picard": False})
    grid = tmp_path / "grid.json"
    grid.write_text(
        '{"perturbation.eps": [0.01, 0.001], "seed": [1, 2]}')
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(template), str(grid),
                     "--out", str(out)]) == 0
    rows = _read_summary(out / "summary.csv")
    combos = [(float(r["eps"]), int(r["seed"])) for r in rows]
    assert combos == [(0.01, 1), (0.01, 2), (0.001, 1), (0.001, 2)]


def test_sweep_bad_run_is_error_row_not_crash(tmp_path, capsys):
    template = write_scenario(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid.h": [0.2, -1.0]}))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(template), str(grid),
                     "--out", str(out)]) == 1
    rows = _read_summary(out / "summary.csv")
    assert rows[0]["ok"] == "True"
    assert rows[1]["ok"] == "False" and "ScenarioError" in rows[1]["error"]


def test_sweep_rejects_bad_grid_file(tmp_path, capsys):
    template = write_scenario(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text('["not", "a", "mapping"]')
    assert cli.main(["sweep", str(template), str(grid)]) == 2
    assert "invalid grid" in capsys.readouterr().err

    grid.write_text('{"perturbation.eps": 0.01}')
    assert cli.main(["sweep", str(template), str(grid)]) == 2

    capsys.readouterr()
    grid.write_bytes(NOT_UTF8)
    assert cli.main(["sweep", str(template), str(grid)]) == 2
    assert "invalid grid" in capsys.readouterr().err


def test_sweep_rejects_invalid_template(tmp_path, capsys):
    template = write_scenario(tmp_path, model="cubic")
    grid = tmp_path / "grid.json"
    grid.write_text("{}")
    assert cli.main(["sweep", str(template), str(grid)]) == 2
    assert "invalid template" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_all_tables(capsys):
    assert cli.main(["oracle"]) == 0
    tables = json.loads(capsys.readouterr().out)
    assert tables["coeffs"]["membrane@0.25"]["fp"] == pytest.approx(-0.4)
    assert {"coeffs", "metric", "envelope", "phase", "frame", "eikonal",
            "transport"} <= set(tables)


def test_oracle_single_table(capsys):
    assert cli.main(["oracle", "--which", "transport"]) == 0
    tables = json.loads(capsys.readouterr().out)
    assert set(tables) == {"transport"}


def test_oracle_unknown_table(capsys):
    assert cli.main(["oracle", "--which", "nope"]) == 2
    assert "unknown oracle table" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report emission helpers
# ---------------------------------------------------------------------------

def test_write_json_strict_and_sanitized(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"a": float("inf"), "b": float("nan"), "c": 1.25})
    loaded = json.loads(path.read_text())  # strict parse must succeed
    assert loaded == {"a": "inf", "b": "nan", "c": 1.25}
    assert math.isfinite(loaded["c"])


def test_summary_row_covers_columns():
    report = {
        "scenario": {"name": "n", "seed": 1, "perturbation": None,
                     "grid": {"radius": 2.0, "h": 0.2}},
        "stages": {},
        "errors": [{"stage": "march", "type": "HyperbolicityLoss",
                    "message": "boom"}],
        "ok": False,
    }
    row = summary_row(report)
    assert set(row) <= set(SUMMARY_COLUMNS)
    assert row["eps"] == 0.0
    assert row["error"] == "march: HyperbolicityLoss"
    assert row["sup_diff"] is None


def test_stage_value_keeps_nan():
    # max() drops a NaN that does not come first; the reduction must not
    sup = {"phi": 1e-3, "Phi0": float("nan"), "Phi1": 2e-3}
    ratios = [0.1, float("nan")]
    report = {"stages": {"crossval": {"comparison": {"sup_diff": sup}},
                         "picard": {"contraction": {"ratios": ratios}}}}
    assert math.isnan(stage_value(report, "crossval", "comparison", "sup_diff"))
    assert math.isnan(stage_value(report, "picard", "contraction", "ratios"))
    sup["Phi0"] = 3e-3
    assert stage_value(report, "crossval", "comparison", "sup_diff") == 3e-3


def test_summary_csv_empty_has_header(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(path, [])
    header = path.read_text().strip().split(",")
    assert header == list(SUMMARY_COLUMNS)
