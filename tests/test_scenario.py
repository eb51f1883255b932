"""Scenario parsing, validation, normalization and materialization."""

import json
from pathlib import Path

import numpy as np
import pytest

from nullwave import cli, pipeline
from nullwave.background import WaveProfile
from nullwave.data_gauge import RectInitialData, background_data
from nullwave.errors import ScenarioError
from nullwave.grid import DNGrid
from nullwave.nonlinearity import Nonlinearity
from nullwave.pipeline import run_pipeline
from nullwave.scenario import (PERTURBATION_DEFAULTS, SOLVER_DEFAULTS,
                               Scenario, load_scenario, materialize,
                               rect_extent, save_scenario, scenario_from_dict,
                               scenario_to_dict, validate_scenario)


def full_dict():
    return {
        "schema_version": 1,
        "name": "example",
        "model": "membrane",
        "profile": {"bump": {"A": 0.3, "width": 6.0}},
        "perturbation": {"kind": "bump", "eps": 1e-3, "center": 0.5,
                         "width": 1.2, "direction": "left", "gamma": 1.0},
        "grid": {"radius": 3.0, "h": 0.1},
        "solver": dict(SOLVER_DEFAULTS),
        "seed": 7,
    }


def minimal_dict():
    return {
        "name": "minimal",
        "model": "linear",
        "profile": "zero",
        "grid": {"radius": 2.0, "h": 0.25},
    }


def test_round_trip_full():
    s = scenario_from_dict(full_dict())
    assert scenario_from_dict(scenario_to_dict(s)) == s
    assert scenario_to_dict(s) == scenario_to_dict(scenario_from_dict(
        scenario_to_dict(s)))


def test_minimal_fills_defaults():
    s = scenario_from_dict(minimal_dict())
    assert s.perturbation is None
    assert s.solver == SOLVER_DEFAULTS
    assert s.seed == 0
    assert scenario_from_dict(scenario_to_dict(s)) == s


def test_partial_sections_merge_defaults():
    raw = minimal_dict()
    raw["perturbation"] = {"eps": 0.01}
    raw["solver"] = {"picard": False}
    s = scenario_from_dict(raw)
    assert s.perturbation["eps"] == 0.01
    assert s.perturbation["kind"] == PERTURBATION_DEFAULTS["kind"]
    assert s.solver["picard"] is False
    assert s.solver["crossval"] is SOLVER_DEFAULTS["crossval"]


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.update(extra=1), "unknown key"),
    (lambda d: d.pop("name"), "missing required"),
    (lambda d: d.pop("grid"), "missing required"),
    (lambda d: d.update(name=""), "name"),
    (lambda d: d.update(schema_version=99), "schema_version"),
    (lambda d: d.update(grid={"radius": 3.0}), "grid"),
    (lambda d: d.update(grid={"radius": 3.0, "h": "x"}), "grid"),
    (lambda d: d.update(grid={"radius": True, "h": 0.25}), "grid"),
    (lambda d: d.update(perturbation={"epsilon": 1e-3}), "unknown perturbation"),
    (lambda d: d.update(solver={"piccard": True}), "unknown solver"),
    (lambda d: d.update(seed=1.5), "seed"),
    (lambda d: d.update(seed=True), "seed"),
])
def test_parse_errors(mutate, fragment):
    raw = minimal_dict()
    mutate(raw)
    with pytest.raises(ScenarioError, match=fragment):
        scenario_from_dict(raw)


def test_parse_rejects_non_mapping():
    with pytest.raises(ScenarioError):
        scenario_from_dict(["not", "a", "dict"])


def test_validate_ok():
    assert validate_scenario(scenario_from_dict(full_dict())) == []
    assert validate_scenario(scenario_from_dict(minimal_dict())) == []


def _with(section, **kw):
    raw = full_dict()
    raw[section] = dict(raw[section], **kw) if isinstance(raw[section], dict) \
        else kw["_value"]
    return scenario_from_dict(raw)


BAD_VALUES = [
    ("grid", {"radius": -1.0}, "radius"),
    ("grid", {"h": 0.0}, "h must be positive"),
    ("grid", {"h": 0.7}, "divide"),
    ("perturbation", {"kind": "sawtooth"}, "kind"),
    ("perturbation", {"direction": "up"}, "direction"),
    ("perturbation", {"eps": -1e-3}, "eps"),
    ("perturbation", {"width": 0.0}, "width"),
    ("perturbation", {"gamma": 0.0}, "gamma"),
    ("solver", {"backend": "fortran"}, "backend"),
    ("solver", {"tol": 0.0}, "tol"),
    ("solver", {"max_iter": 0}, "max_iter"),
    ("solver", {"contraction_seeds": 1}, "contraction_seeds"),
    ("solver", {"dissipation": -0.1}, "dissipation"),
    ("solver", {"cfl": 1.5}, "cfl"),
    ("solver", {"rect_halfwidth": -2.0}, "rect_halfwidth"),
    ("solver", {"picard": 1}, "picard"),
    # every numeric field must be a real number, and a bool is not one
    ("perturbation", {"eps": "0.001"}, "eps"),
    ("perturbation", {"center": True}, "center"),
    ("perturbation", {"width": None}, "width"),
    ("perturbation", {"gamma": False}, "gamma"),
    ("solver", {"tol": "1e-12"}, "tol"),
    ("solver", {"tol": True}, "tol"),
    ("solver", {"max_iter": True}, "max_iter"),
    ("solver", {"contraction_seeds": False}, "contraction_seeds"),
    ("solver", {"dissipation": "0"}, "dissipation"),
    ("solver", {"cfl": None}, "cfl"),
    ("solver", {"rect_t_max": True}, "rect_t_max"),
    # unknown keys inside the model and profile configs
    ("profile", {"bump": {"A": 0.1, "widht": 2.0}},
     "unknown bump profile key(s) ['widht']"),
    ("profile", {"algebraic": {"A": 0.1}}, "unrecognized profile config"),
    ("model", {"_value": {"polynomial": [0.1], "extra": 1}},
     "unknown polynomial model key(s) ['extra']"),
]


@pytest.mark.parametrize("section,override,fragment", BAD_VALUES)
def test_validate_flags_bad_values(section, override, fragment):
    problems = validate_scenario(_with(section, **override))
    assert any(fragment in p for p in problems)


BAD_CONFIGS = [
    ("model", {"polynomial": [True]},
     "polynomial coefficient 0 must be a number, got True"),
    ("model", {"polynomial": [0.1, "0.2"]},
     "polynomial coefficient 1 must be a number, got '0.2'"),
    ("profile", {"bump": {"A": True}}, "bump A must be a number, got True"),
    ("profile", {"bump": {"A": "0.1"}}, "bump A must be a number, got '0.1'"),
    ("profile", {"bump": {"A": 0.1, "width": None}},
     "bump width must be a number, got None"),
    ("profile", {"bump": {"width": 2.0}}, "bump profile needs A"),
    ("profile", {"bump": [0.1]},
     "bump profile config must be a mapping, got [0.1]"),
    ("profile", {"algebraic": {"A": 0.1, "gamma": False}},
     "algebraic gamma must be a number, got False"),
]


@pytest.mark.parametrize("section,config,problem", BAD_CONFIGS)
def test_validate_flags_non_numbers_in_configs(section, config, problem):
    # A bool or a string is not a number in a model or profile config
    # either; the problem names the key.
    raw = full_dict()
    raw[section] = config
    assert validate_scenario(scenario_from_dict(raw)) == [
        f"{section}: {problem}"]


def test_validate_flags_a_non_number_table_gamma(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("x,zeta,dzeta,d2zeta\n-1,0,0,0\n1,0,0,0\n")
    raw = full_dict()
    raw["profile"] = {"table": str(path), "gamma": "1"}
    assert validate_scenario(scenario_from_dict(raw)) == [
        "profile: table gamma must be a number, got '1'"]


SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.parametrize("path", sorted(
    p for p in SCENARIO_DIR.glob("*.json") if p.name != "eps_grid.json"),
    ids=lambda p: p.name)
def test_shipped_scenarios_validate(path):
    # eps_grid.json is a sweep grid, not a scenario
    assert validate_scenario(load_scenario(path)) == []


def test_validate_bad_model_and_profile_gamma():
    raw = full_dict()
    raw["model"] = "cubic"
    raw["profile"] = {"bump": {"A": 0.3, "width": 6.0, "gamma": -1.0}}
    problems = validate_scenario(scenario_from_dict(raw))
    assert any(p.startswith("model:") for p in problems)
    assert any("gamma_bar" in p for p in problems)


def test_validate_collects_every_problem():
    raw = full_dict()
    raw["model"] = "cubic"
    raw["grid"] = {"radius": -1.0, "h": 0.1}
    raw["solver"] = dict(raw["solver"], tol=0.0)
    problems = validate_scenario(scenario_from_dict(raw))
    assert len(problems) >= 3


def test_validate_missing_table_file(tmp_path):
    raw = minimal_dict()
    raw["profile"] = {"table": str(tmp_path / "does_not_exist.csv")}
    problems = validate_scenario(scenario_from_dict(raw))
    assert any("table" in p and "not found" in p for p in problems)


def test_validate_existing_table_file(tmp_path):
    x = np.linspace(-20.0, 20.0, 2001)
    zeta = 0.1 * np.exp(-x**2)
    dz = -2.0 * x * zeta
    d2z = (-2.0 + 4.0 * x**2) * 0.1 * np.exp(-x**2)
    path = tmp_path / "prof.csv"
    header = "x,zeta,dzeta,d2zeta"
    np.savetxt(path, np.column_stack([x, zeta, dz, d2z]),
               delimiter=",", header=header, comments="")
    raw = minimal_dict()
    raw["profile"] = {"table": str(path)}
    assert validate_scenario(scenario_from_dict(raw)) == []


def test_materialize_builds_runtime_objects():
    model, profile, grid, rect = materialize(scenario_from_dict(full_dict()))
    assert isinstance(model, Nonlinearity)
    assert isinstance(profile, WaveProfile)
    assert isinstance(grid, DNGrid) and grid.u_min == -3.0 and grid.u_max == 3.0
    assert isinstance(rect, RectInitialData)
    bg = background_data(profile)
    assert abs(rect.phi0p(1.0) - bg.phi0p(1.0)) > 0.0  # pulse present


def test_materialize_background_when_no_perturbation():
    raw = minimal_dict()
    _, profile, _, rect = materialize(scenario_from_dict(raw))
    x = np.linspace(-2, 2, 41)
    assert np.array_equal(rect.phi0(x), profile.zeta(-x))


def test_materialize_rejects_invalid():
    raw = minimal_dict()
    raw["grid"] = {"radius": -2.0, "h": 0.25}
    with pytest.raises(ScenarioError, match="radius"):
        materialize(scenario_from_dict(raw))


def _invalid_scenarios(tmp_path):
    """Every invalid scenario that the validate tests above build."""
    for section, override, _ in BAD_VALUES:
        yield _with(section, **override)
    table = tmp_path / "profile.csv"
    table.write_text("x,zeta,dzeta,d2zeta\n-1,0,0,0\n1,0,0,0\n")
    for base, changes in [
        *((full_dict, {section: config}) for section, config, _ in BAD_CONFIGS),
        (full_dict, {"profile": {"table": str(table), "gamma": "1"}}),
        (full_dict, {"model": "cubic", "profile": {
            "bump": {"A": 0.3, "width": 6.0, "gamma": -1.0}}}),
        (full_dict, {"model": "cubic", "grid": {"radius": -1.0, "h": 0.1},
                     "solver": dict(SOLVER_DEFAULTS, tol=0.0)}),
        (minimal_dict, {"profile": {"table": str(tmp_path / "missing.csv")}}),
        (minimal_dict, {"grid": {"radius": -2.0, "h": 0.25}}),
        (full_dict, {"grid": {"radius": 1.5, "h": 0.3}}),
    ]:
        yield scenario_from_dict(dict(base(), **changes))


def test_materialize_raises_what_validate_reports(tmp_path):
    # one construction pass serves both: materialize's error carries
    # exactly validate_scenario's problems, and its message joins them
    for s in _invalid_scenarios(tmp_path):
        problems = validate_scenario(s)
        assert problems
        with pytest.raises(ScenarioError) as err:
            materialize(s)
        assert err.value.problems == problems
        assert str(err.value) == "; ".join(problems)


@pytest.fixture
def envelope_fits(monkeypatch):
    """The names of the profiles WaveProfile.envelope_fit fits, one entry
    per call."""
    calls, fit = [], WaveProfile.envelope_fit

    def counted(self, *args, **kwargs):
        calls.append(self.name)
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(WaveProfile, "envelope_fit", counted)
    return calls


@pytest.mark.parametrize("name,fits", [
    ("membrane_pulse", 1), ("linear_check", 0), ("background_only", 1)])
def test_each_object_is_built_once(envelope_fits, name, fits):
    # a bump background is fitted once per pass; a pulse is only its three
    # functions, so it adds no fit, and the zero profile has none
    s = load_scenario(SCENARIO_DIR / f"{name}.json")
    assert validate_scenario(s) == []
    assert len(envelope_fits) == fits
    materialize(s)
    assert len(envelope_fits) == 2 * fits


def test_cli_run_fits_the_background_once(envelope_fits, tmp_path,
                                          monkeypatch, capsys):
    # the pipeline's materialize validates as it builds, so with no stage
    # to run a nullwave run is one construction pass
    monkeypatch.setattr(pipeline, "PIPELINE", ())
    path = SCENARIO_DIR / "membrane_pulse.json"
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    assert envelope_fits == ["bump"]


def test_rect_extent_defaults_and_overrides():
    s = scenario_from_dict(minimal_dict())
    half, t_max, dx = rect_extent(s)
    assert half == s.grid["radius"] + 2.0
    assert t_max == pytest.approx(0.4 * s.grid["radius"])
    assert dx == s.grid["h"]

    raw = minimal_dict()
    raw["solver"] = {"rect_halfwidth": 9.0, "rect_t_max": 1.25, "rect_dx": 0.05}
    half, t_max, dx = rect_extent(scenario_from_dict(raw))
    assert (half, t_max, dx) == (9.0, 1.25, 0.05)


def test_validate_checks_the_rect_grid():
    # h = 0.3 divides the null square's [-1.5, 1.5] but not the default
    # rectangle [-3.5, 3.5], which RectGrid refuses; validate names it,
    # so run_pipeline stops with ScenarioError before any stage runs
    raw = full_dict()
    raw["grid"] = {"radius": 1.5, "h": 0.3}
    s = scenario_from_dict(raw)
    assert validate_scenario(s) == [
        "solver: rect grid [-3.5, 3.5] with dx 0.3: "
        "dx must evenly divide the x extent"]
    with pytest.raises(ScenarioError, match="rect grid"):
        run_pipeline(s)
    # no rectangle is built with crossval off, or with a dx that divides it
    raw["solver"] = dict(raw["solver"], crossval=False)
    assert validate_scenario(scenario_from_dict(raw)) == []
    raw["solver"] = dict(raw["solver"], crossval=True, rect_dx=0.35)
    assert validate_scenario(scenario_from_dict(raw)) == []


def test_load_and_save(tmp_path):
    s = scenario_from_dict(full_dict())
    path = tmp_path / "sc.json"
    save_scenario(s, path)
    assert load_scenario(path) == s

    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(bad)


def test_scenario_is_insulated_from_caller_mutation():
    raw = full_dict()
    s = scenario_from_dict(raw)
    raw["grid"]["h"] = 0.5
    raw["solver"]["picard"] = False
    assert s.grid["h"] == 0.1
    assert s.solver["picard"] is True


def test_json_file_round_trip_is_stable(tmp_path):
    s = scenario_from_dict(full_dict())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(s, p1)
    save_scenario(load_scenario(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataclass_direct_construction_normalizes():
    s = Scenario(name="direct", model="linear", profile="zero",
                 perturbation=None, grid={"radius": 2.0, "h": 0.25})
    assert json.loads(json.dumps(scenario_to_dict(s))) == scenario_to_dict(s)
