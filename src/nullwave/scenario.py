"""Scenario configuration: a JSON-able description of one experiment.

A scenario bundles everything a run needs -- coefficient family, travelling
background, data perturbation, null grid and solver options -- in a single
file, so a run is reproducible from one artifact plus a seed.  Parsing is
strict: an unknown key is an error, not a warning, because a silently
ignored option is the classic source of sweeps that change nothing.

This module is also the one place where a scenario turns into run
objects: the model and profile config parsers live here, and one
construction pass builds the model, profile, null grid and t=0 data once
while collecting every problem (validate_scenario returns the problems,
materialize the objects).

The normalized form fills every default, so

    scenario_from_dict(scenario_to_dict(s)) == s

holds exactly and the JSON written back is the complete record of what ran.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .background import (WaveProfile, algebraic_profile, bump_profile,
                         table_profile, zero_profile)
from .crossval import RectGrid
from .data_gauge import background_data, perturbed_data
from .errors import DomainError, GridMismatch, ScenarioError
from .grid import DNGrid
from .nonlinearity import (Nonlinearity, linear_model, membrane_model,
                           polynomial_model)

SCHEMA_VERSION = 1

PERTURBATION_DEFAULTS = {
    "kind": "bump",
    "eps": 1e-3,
    "center": 0.0,
    "width": 1.0,
    "direction": "left",
    "gamma": 1.0,
}

SOLVER_DEFAULTS = {
    "picard": True,           # run the fixed-point route next to the march
    "crossval": True,         # run the rectangular solver comparison
    "tol": 1e-12,             # fixed-point stopping tolerance
    "max_iter": 40,           # fixed-point step budget
    "contraction_seeds": 0,   # 0 disables the empirical contraction check
    "dissipation": 0.02,      # rect solver high-order dissipation strength
    "cfl": 0.45,              # rect solver Courant number
    "rect_halfwidth": None,   # None: grid radius + 2 (keeps pulses off ghosts)
    "rect_t_max": None,       # None: 0.4 * grid radius
    "rect_dx": None,          # None: same spacing as the null grid
    "refine": False,          # rerun key diagnostics at h/2 for orders
}

_TOP_KEYS = frozenset(
    ("schema_version", "name", "model", "profile", "perturbation",
     "grid", "solver", "seed")
)
_GRID_KEYS = frozenset(("radius", "h"))


def is_number(v) -> bool:
    """An int or a float, but not a bool (which Python counts as an int).

    The rule for every number of a scenario file and its model and
    profile configs.
    """
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def model_from_config(cfg) -> Nonlinearity:
    """Build a model from its JSON-able description.

    Accepts "linear", "membrane", or {"polynomial": [a, b, c]} with 1-3
    coefficients, each a number (is_number), and no other key.
    """
    if isinstance(cfg, str):
        if cfg == "linear":
            return linear_model()
        if cfg == "membrane":
            return membrane_model()
        raise DomainError(f"unknown model name {cfg!r}")
    if isinstance(cfg, dict) and "polynomial" in cfg:
        unknown = sorted(set(cfg) - {"polynomial"})
        if unknown:
            raise DomainError(f"unknown polynomial model key(s) {unknown}")
        coeffs = list(cfg["polynomial"])
        if not 1 <= len(coeffs) <= 3:
            raise DomainError("polynomial model needs 1-3 numeric coefficients")
        for k, v in enumerate(coeffs):
            if not is_number(v):
                raise DomainError(
                    f"polynomial coefficient {k} must be a number, got {v!r}")
        coeffs += [0.0] * (3 - len(coeffs))
        return polynomial_model(*coeffs)
    raise DomainError(f"unrecognized model config {cfg!r}")


def _config_numbers(kind, p, **defaults):
    """The values of p at the keys of defaults, each a number (is_number).

    A default of None marks a required key.  DomainError names the keys
    of p that defaults does not know, or else the first key that is
    missing or not a number.
    """
    if not isinstance(p, dict):
        raise DomainError(
            f"{kind} profile config must be a mapping, got {p!r}")
    unknown = sorted(set(p) - set(defaults))
    if unknown:
        raise DomainError(f"unknown {kind} profile key(s) {unknown}")
    vals = []
    for key, default in defaults.items():
        if key not in p and default is None:
            raise DomainError(f"{kind} profile needs {key}")
        v = p.get(key, default)
        if not is_number(v):
            raise DomainError(f"{kind} {key} must be a number, got {v!r}")
        vals.append(v)
    return vals


def profile_from_config(cfg) -> WaveProfile:
    """Build a profile from its JSON-able description."""
    if isinstance(cfg, str):
        if cfg == "zero":
            return zero_profile()
        raise DomainError(f"unknown profile name {cfg!r}")
    if isinstance(cfg, dict) and len(cfg) == 1:
        if "bump" in cfg:
            return bump_profile(*_config_numbers(
                "bump", cfg["bump"], A=None, center=0.0, width=1.0, gamma=1.0))
        if "algebraic" in cfg:
            return algebraic_profile(*_config_numbers(
                "algebraic", cfg["algebraic"], A=None, gamma=1.0))
    if isinstance(cfg, dict) and "table" in cfg:
        gamma, = _config_numbers(
            "table", {k: v for k, v in cfg.items() if k != "table"}, gamma=1.0)
        cols = np.genfromtxt(cfg["table"], delimiter=",", names=True)
        return table_profile(cols["x"], cols["zeta"], cols["dzeta"],
                             cols["d2zeta"], gamma_bar=gamma)
    raise DomainError(f"unrecognized profile config {cfg!r}")


# (key, test of the number, what it must be) for the numeric fields of each
# section that validate_scenario checks; the rect_* keys may also be null.
_NUMBERS = {
    "perturbation": (
        ("eps", lambda v: v >= 0.0, "a number >= 0"),
        ("center", lambda v: True, "a number"),
        ("width", lambda v: v > 0.0, "a positive number"),
        ("gamma", lambda v: v > 0.0, "a positive number"),
    ),
    "solver": (
        ("tol", lambda v: v > 0.0, "a positive number"),
        ("max_iter", lambda v: isinstance(v, int) and v >= 1,
         "a positive integer"),
        ("contraction_seeds", lambda v: isinstance(v, int) and (v == 0 or v >= 2),
         "0 (off) or an integer >= 2"),
        ("dissipation", lambda v: v >= 0.0, "a number >= 0"),
        ("cfl", lambda v: 0.0 < v < 1.0, "a number in (0, 1)"),
        *((key, lambda v: v > 0.0, "null or a positive number")
          for key in ("rect_halfwidth", "rect_t_max", "rect_dx")),
    ),
}


def _number_problems(section: str, values: dict) -> list:
    """One problem per numeric field of the section that breaks its rule."""
    return [f"{section}: {key} must be {rule}, got {values[key]!r}"
            for key, ok, rule in _NUMBERS[section]
            if not (is_number(values[key]) and ok(values[key])
                    or values[key] is None and key.startswith("rect_"))]


@dataclass(frozen=True)
class Scenario:
    """Normalized experiment description (all defaults filled)."""

    name: str
    model: object          # str or dict, as accepted by model_from_config
    profile: object        # str or dict, as accepted by profile_from_config
    perturbation: dict | None
    grid: dict             # {"radius": R, "h": h} for the square [-R, R]^2
    solver: dict = field(default_factory=lambda: dict(SOLVER_DEFAULTS))
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "perturbation",
                           None if self.perturbation is None
                           else dict(self.perturbation))
        object.__setattr__(self, "grid", dict(self.grid))
        object.__setattr__(self, "solver", dict(self.solver))

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        return scenario_to_dict(self) == scenario_to_dict(other)


def _merge_defaults(section: str, given: dict, defaults: dict) -> dict:
    unknown = set(given) - set(defaults)
    if unknown:
        raise ScenarioError(
            f"unknown {section} key(s): {', '.join(sorted(unknown))}")
    out = dict(defaults)
    out.update(given)
    return out


def scenario_from_dict(raw: dict) -> Scenario:
    """Parse and normalize a scenario description.

    Raises ScenarioError on unknown keys, missing required keys or values
    of the wrong shape; range checks live in validate_scenario so that the
    CLI can report every problem at once instead of the first.
    """
    if not isinstance(raw, dict):
        raise ScenarioError(f"scenario must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"unknown key(s): {', '.join(sorted(unknown))}")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version {version!r} not supported (expected {SCHEMA_VERSION})")
    missing = [k for k in ("name", "model", "profile", "grid") if k not in raw]
    if missing:
        raise ScenarioError(f"missing required key(s): {', '.join(missing)}")

    name = raw["name"]
    if not isinstance(name, str) or not name:
        raise ScenarioError("name must be a non-empty string")

    grid = raw["grid"]
    if not isinstance(grid, dict) or set(grid) != _GRID_KEYS:
        raise ScenarioError('grid must be {"radius": R, "h": h}')
    if not all(is_number(grid[k]) for k in _GRID_KEYS):
        raise ScenarioError("grid radius and h must be numbers")

    pert = raw.get("perturbation")
    if pert is not None:
        if not isinstance(pert, dict):
            raise ScenarioError("perturbation must be a mapping or null")
        pert = _merge_defaults("perturbation", pert, PERTURBATION_DEFAULTS)

    solver = raw.get("solver", {})
    if not isinstance(solver, dict):
        raise ScenarioError("solver must be a mapping")
    # legacy key from when the march had two backends: a valid value is
    # dropped, an invalid one is kept so validate_scenario reports it
    legacy = solver.get("backend")
    solver = _merge_defaults(
        "solver", {k: v for k, v in solver.items() if k != "backend"},
        SOLVER_DEFAULTS)
    if legacy not in (None, "numba", "numpy"):
        solver["backend"] = legacy

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError("seed must be an integer")

    return Scenario(
        name=name,
        model=raw["model"],
        profile=raw["profile"],
        perturbation=pert,
        grid={"radius": float(grid["radius"]), "h": float(grid["h"])},
        solver=solver,
        seed=seed,
    )


def scenario_to_dict(s: Scenario) -> dict:
    """Normalized JSON-able form; inverse of scenario_from_dict."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": s.name,
        "model": s.model,
        "profile": s.profile,
        "perturbation": None if s.perturbation is None else dict(s.perturbation),
        "grid": dict(s.grid),
        "solver": dict(s.solver),
        "seed": s.seed,
    }


def load_scenario(path) -> Scenario:
    """Read and parse a scenario JSON file."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw)


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w") as f:
        json.dump(scenario_to_dict(s), f, indent=2, sort_keys=True)
        f.write("\n")


def _build(s: Scenario):
    """One construction pass: ((model, profile, grid, rect_data), problems).

    Builds each runtime object once and collects every problem on the way
    instead of stopping at the first, so the CLI validate subcommand can
    print a complete diagnosis; an object that could not be built is None.
    """
    problems = []
    model = profile = grid = rect = None

    try:
        model = model_from_config(s.model)
    except DomainError as exc:
        problems.append(f"model: {exc}")

    if isinstance(s.profile, dict) and "table" in s.profile and not (
            isinstance(s.profile["table"], str)
            and os.path.exists(s.profile["table"])):
        problems.append(
            f"profile: table file not found: {s.profile['table']!r}")
    else:
        try:
            profile = profile_from_config(s.profile)
        except (DomainError, OSError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"profile: {exc}")
        else:
            if not profile.gamma_bar > 0.0:
                problems.append(
                    f"profile: decay rate gamma_bar must be positive, "
                    f"got {profile.gamma_bar}")

    radius, h = s.grid["radius"], s.grid["h"]
    if not radius > 0.0:
        problems.append(f"grid: radius must be positive, got {radius}")
    if not h > 0.0:
        problems.append(f"grid: h must be positive, got {h}")
    if radius > 0.0 and h > 0.0:
        try:
            grid = DNGrid(-radius, radius, h)
        except GridMismatch as exc:
            problems.append(f"grid: {exc}")

    p = s.perturbation
    if p is not None:
        if p["kind"] not in ("bump", "algebraic"):
            problems.append(f"perturbation: unknown kind {p['kind']!r}")
        if p["direction"] not in ("left", "right", "standing"):
            problems.append(
                f"perturbation: unknown direction {p['direction']!r}")
        problems += _number_problems("perturbation", p)
    if profile is not None and not any(
            q.startswith("perturbation:") for q in problems):
        rect = (background_data(profile) if p is None
                else perturbed_data(profile, **p))

    sv = s.solver
    if "backend" in sv:
        problems.append(f"solver: unknown legacy backend {sv['backend']!r} "
                        "(the march has one numpy kernel)")
    problems += _number_problems("solver", sv)
    for key in ("picard", "crossval", "refine"):
        if not isinstance(sv[key], bool):
            problems.append(f"solver: {key} must be true or false, "
                            f"got {sv[key]!r}")
    if sv["crossval"] and not any(
            q.startswith(("grid:", "solver:")) for q in problems):
        half, t_max, dx = rect_extent(s)
        try:
            RectGrid(-half, half, dx, t_max, cfl=sv["cfl"])
        except GridMismatch as exc:
            problems.append(f"solver: rect grid [{-half:g}, {half:g}] with "
                            f"dx {dx:g}: {exc}")

    return (model, profile, grid, rect), problems


def validate_scenario(s: Scenario) -> list:
    """Range/consistency checks; returns a list of problems (empty = valid)."""
    return _build(s)[1]


def materialize(s: Scenario):
    """Build the runtime objects: (model, profile, grid, rect_data).

    Raises ScenarioError listing every problem validate_scenario reports
    if the scenario is invalid, so pipelines never start from half-checked
    input.
    """
    objects, problems = _build(s)
    if problems:
        raise ScenarioError(*problems)
    return objects


def rect_extent(s: Scenario):
    """Rect-solver domain implied by the scenario: (halfwidth, t_max, dx).

    The default half-width exceeds the null-grid radius so the pulse stays
    causally insulated from the exact-background ghost cells over [0, t_max].
    """
    radius = s.grid["radius"]
    sv = s.solver
    half = sv["rect_halfwidth"] if sv["rect_halfwidth"] is not None \
        else radius + 2.0
    t_max = sv["rect_t_max"] if sv["rect_t_max"] is not None \
        else 0.4 * radius
    dx = sv["rect_dx"] if sv["rect_dx"] is not None else s.grid["h"]
    return float(half), float(t_max), float(dx)
