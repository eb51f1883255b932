"""End-to-end pipeline: stage orchestration, partial failure, refinement."""

import csv
import dataclasses
import json

import numpy as np
import pytest

import nullwave.cli as cli
import nullwave.pipeline as pipeline
from nullwave.background import SAMPLE_H
from nullwave.data_gauge import build_diagonal_data
from nullwave.errors import (FixedPointDivergence, FrameDegenerate,
                             HyperbolicityLoss, InversionFailure,
                             SliceNotSpacelike)
from nullwave.nonlinearity import eval_coeffs
from nullwave.picard import delta_from_smallness
from nullwave.pipeline import MIN_PICARD_DELTA, STAGES, RunResult, run_pipeline
from nullwave.report import write_run_outputs
from nullwave.scenario import (materialize, model_from_config,
                               profile_from_config, scenario_from_dict,
                               scenario_to_dict)
from nullwave.state import sigma_of

BASE = {
    "name": "pipe",
    "model": "membrane",
    "profile": {"bump": {"A": 0.3, "width": 6.0}},
    "perturbation": {"eps": 1e-3, "center": 0.5, "width": 1.2},
    "grid": {"radius": 3.0, "h": 0.1},
    "solver": {"backend": "numpy", "contraction_seeds": 3,
               "rect_t_max": 1.0},
    "seed": 7,
}


def scenario(**overrides):
    raw = {k: dict(v) if isinstance(v, dict) else v for k, v in BASE.items()}
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key] = dict(raw[key], **value)
        else:
            raw[key] = value
    return scenario_from_dict(raw)


@pytest.fixture(scope="module")
def full_run():
    return run_pipeline(scenario())


def test_all_stages_present_and_clean(full_run):
    rep = full_run.report
    assert rep["ok"] is True and rep["errors"] == []
    assert set(rep["stages"]) == {
        "data_gauge", "march", "picard", "geometry", "crossval"}
    assert rep["schema_version"] == 1
    assert rep["scenario"]["name"] == "pipe"


def test_run_result_carries_arrays(full_run):
    assert isinstance(full_run, RunResult)
    assert full_run.state is not None
    assert full_run.coords is not None
    assert full_run.coords.frame is not None
    assert full_run.state.psi.shape == full_run.coords.t.shape


def test_data_gauge_section(full_run):
    sec = full_run.report["stages"]["data_gauge"]
    assert sec["eps_bar"] > 0.0
    assert sec["gamma_bar"] == 1.0
    assert set(sec["data_sup"]) == {"psi", "psib", "xi"}


def test_zero_data_gets_the_least_picard_radius():
    # on the zero background the data is zero bit for bit, so eps0 is 0
    # and delta would be too, which the Picard config rejects
    rep = run_pipeline(scenario(profile="zero", perturbation=None,
                                seed=0)).report
    assert rep["ok"] is True
    assert rep["stages"]["data_gauge"]["delta"] == MIN_PICARD_DELTA


def test_picard_radius_is_sized_from_the_data_it_checks(full_run):
    # delta comes from the diagonal data's measured size eps0, the size
    # the contraction check's data_ok tests, so the check holds for the
    # radius the run was given; eps_bar stays the closeness certificate
    model, profile, grid, rect_data = materialize(scenario())
    data, _ = build_diagonal_data(rect_data, grid, model, profile)
    stages = full_run.report["stages"]
    assert stages["data_gauge"]["delta"] == delta_from_smallness(
        data.eps0, profile.gamma_bar)
    assert stages["picard"]["contraction"]["smallness"]["data_ok"] is True


def test_march_section(full_run):
    sec = full_run.report["stages"]["march"]
    assert sec["backend"] == "numpy"
    assert 0.0 < sec["envelope_fits"]["delta"] < 0.1
    assert 0.0 < sec["sigma_wave_residual_sup"] < 1e-3


def test_sigma_outputs_are_slaved_to_the_marched_pair(full_run, tmp_path):
    # The state holds no sigma: the state.csv column and the march
    # section's field_sup are formed from the marched pair, bit for bit.
    state = full_run.state
    zp = profile_from_config(BASE["profile"]).dzeta(state.grid.ub)
    sigma = sigma_of(state.psi, state.psib, zp[None, :])
    write_run_outputs(tmp_path, full_run)
    with open(tmp_path / "state.csv", newline="") as fh:
        rows = csv.reader(fh)
        k = next(rows).index("sigma")
        column = np.array([float(row[k]) for row in rows])
    assert np.array_equal(column, sigma.ravel())
    assert full_run.report["stages"]["march"]["field_sup"]["sigma"] == \
        float(np.max(np.abs(sigma)))
    assert np.any(sigma != 0.0)


def test_picard_section_agrees_with_march(full_run):
    sec = full_run.report["stages"]["picard"]
    assert sec["converged"] is True
    assert 1 <= sec["iterations"] <= 10
    assert len(sec["residuals"]) == sec["iterations"]
    assert sec["metric_vs_march"] < 1e-9
    con = sec["contraction"]
    assert len(con["ratios"]) == 2 and max(con["ratios"]) < 1.0
    assert con["in_ball"] is True


def test_geometry_section(full_run):
    sec = full_run.report["stages"]["geometry"]
    assert sec["degeneracy"]["ok"] is True
    assert sec["curl_sup"] < 1e-4
    assert abs(sec["detj_min"] + 0.5) < 1e-4
    assert abs(sec["detj_max"] + 0.5) < 1e-4
    assert max(sec["nullity"].values()) < 1e-4


def test_crossval_section(full_run):
    sec = full_run.report["stages"]["crossval"]
    comp = sec["comparison"]
    assert set(comp) == {"sup_diff", "l1_diff", "phase_shift"}
    assert max(comp["sup_diff"].values()) < 1e-3
    assert comp["phase_shift"] is not None
    # the geometry stage holds the run's one degeneracy section
    assert [name for name, s in full_run.report["stages"].items()
            if "degeneracy" in s] == ["geometry"]
    assert full_run.report["stages"]["geometry"]["degeneracy"]["ok"] is True
    assert sec["n_compared"] > 100
    assert sec["newton"]["live"][0] == sec["rect"]["n_t"] * sec["rect"]["n_x"]
    assert sec["flux_residual"] < 1e-2


def test_timings_are_separate(full_run):
    assert "timings" not in full_run.report
    assert set(full_run.timings) >= {
        "data_gauge", "march", "picard", "geometry", "crossval", "total"}
    assert all(v >= 0.0 for v in full_run.timings.values())


def test_report_is_deterministic():
    a = run_pipeline(scenario()).report
    b = run_pipeline(scenario()).report
    assert a == b


def test_stages_switch_off():
    res = run_pipeline(scenario(solver={"picard": False, "crossval": False}))
    rep = res.report
    assert rep["ok"] is True
    assert set(rep["stages"]) == {"data_gauge", "march", "geometry"}
    assert res.outcomes == {"data_gauge": "ok", "march": "ok", "picard": "off",
                            "geometry": "ok", "crossval": "off"}


def test_legacy_numba_backend_runs_numpy_march():
    # scenario files from when the march had a numba twin still load; the
    # key is dropped from the normalized record and the numpy march runs
    s = scenario(solver={"backend": "numba", "picard": False,
                         "crossval": False})
    assert "backend" not in s.solver
    rep = run_pipeline(s).report
    assert rep["ok"] is True
    assert "backend" not in rep["scenario"]["solver"]
    assert rep["stages"]["march"]["backend"] == "numpy"


def test_background_scenario_is_quiet():
    res = run_pipeline(scenario(perturbation=None, seed=0))
    rep = res.report
    assert rep["ok"] is True
    dg = rep["stages"]["data_gauge"]
    assert dg["eps_bar"] == 0.0
    # delta is sized from the diagonal data's measured eps0, which is
    # rounding here (2.2e-16, from derivative fields near 1e-17)
    assert MIN_PICARD_DELTA < dg["delta"] < 1e-7
    assert dg["data_sup"] == {"psi": 0.0, "psib": 0.0, "xi": 0.0}
    # marched perturbation fields stay at rounding level
    assert all(v < 1e-12 for v in rep["stages"]["march"]["field_sup"].values())
    geo = rep["stages"]["geometry"]
    assert abs(geo["detj_min"] + 0.5) < 1e-10
    assert abs(geo["detj_max"] + 0.5) < 1e-10
    assert rep["stages"]["picard"]["converged"] is True


def test_linear_scenario_matches_flat_coordinates():
    res = run_pipeline(scenario(
        model="linear", profile="zero",
        perturbation={"eps": 1e-2, "width": 2.0, "center": 0.0,
                      "direction": "standing"}))
    rep = res.report
    assert rep["ok"] is True
    comp = rep["stages"]["crossval"]["comparison"]
    assert max(comp["sup_diff"].values()) < 2e-3
    assert abs(comp["phase_shift"]) < 1e-10
    # u = t + x exactly: the reconstructed map is flat
    assert abs(rep["stages"]["geometry"]["detj_min"] + 0.5) < 1e-12


def test_hard_failure_still_emits_partial_report():
    # strong pulse on a quadratic coupling: the data slice is no longer
    # spacelike, and the rectangular evolution loses hyperbolicity
    res = run_pipeline(scenario(
        model={"polynomial": [0.25]},
        perturbation={"eps": 2.0, "width": 1.0, "center": 0.0},
        solver={"contraction_seeds": 0}))
    rep = res.report
    assert rep["ok"] is False
    errors = {e["stage"]: e for e in rep["errors"]}
    assert errors["data_gauge"]["type"] == "SliceNotSpacelike"
    assert errors["crossval"]["type"] == "HyperbolicityLoss"
    for err in rep["errors"]:
        assert err["type"] and err["message"]
    # the dependent stages are skipped, not failed, and the report
    # still carries the scenario echo for post-mortems
    for stage in ("march", "picard", "geometry"):
        assert stage not in rep["stages"] and stage not in errors
        assert res.outcomes[stage] == "skipped"
    assert list(res.outcomes) == list(STAGES)
    assert res.outcomes["data_gauge"] == res.outcomes["crossval"] == "failed"
    assert rep["scenario"]["perturbation"]["eps"] == 2.0


def test_background_that_breaks_hyperbolicity_fails_in_data_gauge():
    # H(0) = -0.5 on this coupling and sup zeta'^2 is about 3.6 on the unit
    # bump, so the background's margin 1 + H(0) sup zeta'^2 is -0.81.  On the
    # t=0 slice the margin is -g^00, so with no perturbation at all the run
    # names the failure in data_gauge.
    model, prof = {"polynomial": [0.25]}, {"bump": {"A": 1.0}}
    H0 = float(eval_coeffs(model_from_config(model), 0.0).H)
    x = np.arange(-3.0, 3.0, 0.01)
    margin = 1.0 + H0 * float(np.max(profile_from_config(prof).dzeta(x) ** 2))
    assert H0 == -0.5 and margin == pytest.approx(-0.81, abs=0.01)
    res = run_pipeline(scenario(model=model, profile=prof, perturbation=None,
                                solver={"contraction_seeds": 0,
                                        "crossval": False}))
    assert [(e["stage"], e["type"]) for e in res.report["errors"]] == [
        ("data_gauge", "SliceNotSpacelike")]
    assert [res.outcomes[s] for s in STAGES] == [
        "failed", "skipped", "skipped", "skipped", "off"]


def test_non_finite_data_fails_in_data_gauge(monkeypatch):
    # A NaN in phi0' within SAMPLE_H / 2 of x = 1, between the grid's
    # nodes, so only the closeness certificate samples it.  Dropped, it
    # would size the ball from the other four fields and run on as pure
    # background.
    def nan_phi0p(sc):
        model, profile, grid, rect = materialize(sc)

        def phi0p(x):
            out = np.array(rect.phi0p(x), dtype=float)
            out[np.abs(x - 1.0) < 0.5 * SAMPLE_H] = np.nan
            return out
        return model, profile, grid, dataclasses.replace(rect, phi0p=phi0p)

    monkeypatch.setattr(pipeline, "materialize", nan_phi0p)
    res = run_pipeline(scenario(perturbation=None,
                                grid={"radius": 2.0, "h": 0.4},
                                solver={"contraction_seeds": 0,
                                        "crossval": False}))
    assert [(e["stage"], e["type"]) for e in res.report["errors"]] == [
        ("data_gauge", "DomainError")]
    assert "phi0p" in res.report["errors"][0]["message"]
    assert [res.outcomes[s] for s in STAGES] == [
        "failed", "skipped", "skipped", "skipped", "off"]


def test_phase_shift_insufficient_domain_is_note_not_error():
    res = run_pipeline(scenario(
        grid={"radius": 1.0, "h": 0.5},
        solver={"contraction_seeds": 0, "rect_t_max": 0.4}))
    rep = res.report
    assert rep["ok"] is True
    sec = rep["stages"]["crossval"]
    assert sec["comparison"]["phase_shift"] is None
    assert "phase_shift_problem" in sec


def test_refinement_table_orders():
    res = run_pipeline(scenario(
        grid={"radius": 3.0, "h": 0.2},
        solver={"refine": True, "contraction_seeds": 0, "picard": False},
    ))
    rep = res.report
    assert rep["ok"] is True
    table = rep["refinement"]
    assert table["h"] == [0.2, 0.1]
    for label in ("sigma_wave_residual_sup", "curl_sup", "comparison_sup"):
        coarse, fine = table["measurements"][label]
        assert fine < coarse
        assert 1.2 < table["orders"][label] < 3.0


def test_refinement_rerun_failure_is_recorded(tmp_path, monkeypatch, capsys):
    # the h/2 rerun's march (the second march call) fails
    real = pipeline.march
    calls = []

    def march_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise HyperbolicityLoss("injected HyperbolicityLoss")
        return real(*args, **kwargs)

    monkeypatch.setattr("nullwave.pipeline.march", march_once)
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(scenario_to_dict(scenario(
        grid={"radius": 2.0, "h": 0.2},
        solver={"refine": True, "picard": False, "contraction_seeds": 0,
                "rect_t_max": 0.5}))))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 1
    assert len(calls) == 2

    rep = json.loads((out / "report.json").read_text())
    assert rep["ok"] is False
    assert rep["errors"] == [{
        "stage": "refinement", "type": "HyperbolicityLoss",
        "message": "march at h/2: injected HyperbolicityLoss"}]
    # the coarse run is whole; the rerun has no march to measure
    assert set(rep["stages"]) == {"data_gauge", "march", "geometry",
                                  "crossval"}
    assert rep["refinement"]["measurements"] == {}
    lines = capsys.readouterr().out.splitlines()
    assert ("[failed]  refinement: HyperbolicityLoss: "
            "march at h/2: injected HyperbolicityLoss") in lines
    assert "[ok]      crossval" in lines and "[off]     picard" in lines


# (entry point looked up in nullwave.pipeline, typical error, the stage it
# fails, the stages that need its products and must be skipped)
STAGE_FAILURES = [
    ("build_diagonal_data", SliceNotSpacelike, "data_gauge",
     ("march", "picard", "geometry")),
    ("march", HyperbolicityLoss, "march", ("geometry",)),
    ("picard_fixed_point", FixedPointDivergence, "picard", ()),
    ("integrate_frame", FrameDegenerate, "geometry", ()),
    ("cv.pullback_compare", InversionFailure, "crossval", ()),
]


@pytest.mark.parametrize("target,error,stage,skipped", STAGE_FAILURES,
                         ids=[case[2] for case in STAGE_FAILURES])
def test_stage_failure_matrix(target, error, stage, skipped, tmp_path,
                              monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error(f"injected {error.__name__}")

    monkeypatch.setattr(f"nullwave.pipeline.{target}", fail)
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(scenario_to_dict(scenario(
        grid={"radius": 2.0, "h": 0.2},
        solver={"contraction_seeds": 0, "rect_t_max": 0.5}))))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 1

    rep = json.loads((out / "report.json").read_text())
    assert rep["ok"] is False
    assert rep["errors"] == [{"stage": stage, "type": error.__name__,
                              "message": f"injected {error.__name__}"}]
    # skipped stages have neither a section nor an error; the rest ran
    assert set(rep["stages"]) == set(STAGES) - {stage, *skipped}
    if "crossval" in rep["stages"]:
        # the pullback needs both the march and the coordinate map
        needs_map = stage in ("data_gauge", "march", "geometry")
        assert (rep["stages"]["crossval"]["comparison"] is None) == needs_map
    lines = capsys.readouterr().out.splitlines()
    assert f"[failed]  {stage}: {error.__name__}: injected {error.__name__}" in lines
    for name in skipped:
        assert f"[skipped] {name}" in lines
