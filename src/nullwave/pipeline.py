"""End-to-end experiment pipeline: data -> wave solve -> frame -> validation.

The stages are the rows of PIPELINE, run in order: data_gauge -> march ->
picard -> geometry -> crossval.  A row names the products the stage needs
and the solver switch that turns it off (picard and crossval have one).
Each stage is run(scenario, products) -> (report section, new products);
one loop in run_pipeline applies the rule to every row: a stage that is
off or lacks a product is not run, a NullwaveError is recorded under
report["errors"] with its identity, and the new products are handed on
only when the whole stage succeeds, so the stages that need a failed
stage's products are skipped.  A (partial) report is always assembled --
in particular a degeneracy flag raised by the monitor is a *finding* in
the report, never an abort.

Wall-clock timings are kept in a dict separate from the report so that the
report itself is a pure function of (scenario, seed, platform) and can be
compared bit for bit between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import crossval as cv
from .data_gauge import build_diagonal_data, closeness_certificate
from .dn_core import march, sigma_wave_residual, verify_envelopes
from .errors import InsufficientDomain, NullwaveError
from .geometry import (degeneracy_monitor, integrate_frame, nullity_residual,
                       reconstruct_coords)
from .picard import (PicardConfig, contraction_ratio, delta_from_smallness,
                     picard_fixed_point, picard_metric)
from .report import stage_value
from .scenario import (SCHEMA_VERSION, Scenario, materialize, rect_extent,
                       scenario_from_dict, scenario_to_dict)
from .state import sigma_of

# Ball radius handed to the fixed-point iterator when the data is exactly
# background (delta would be zero, which the config rejects).
MIN_PICARD_DELTA = 1e-8


@dataclass
class RunResult:
    """Report plus the heavyweight arrays the CSV writers need."""

    report: dict
    timings: dict
    outcomes: dict         # stage -> "ok", "off", "skipped" or "failed"
    state: object = None   # DNState from the march
    profile: object = None  # WaveProfile, for the state's slaved sigma
    frame: object = None   # NullFrame
    coords: object = None  # CoordMap


def _order(coarse: float, fine: float) -> float | None:
    """log2 convergence rate of a pair of error measurements."""
    if coarse > 0.0 and fine > 0.0:
        return float(np.log2(coarse / fine))
    return None


def _data_gauge(scenario, p):
    """Diagonal data and gauge slice, with the smallness bookkeeping."""
    cert = closeness_certificate(p["rect_data"], p["profile"])
    data, gauge = build_diagonal_data(p["rect_data"], p["grid"], p["model"],
                                      p["profile"])
    gb = p["profile"].gamma_bar
    delta = max(delta_from_smallness(cert["eps_bar"], gb), MIN_PICARD_DELTA)
    return {
        "closeness": cert,
        "eps_bar": cert["eps_bar"],
        "gamma_bar": gb,
        "delta": delta,
        "data_sup": {name: float(np.max(np.abs(getattr(data, name))))
                     for name in ("psi", "psib", "xi")},
    }, {"data": data, "gauge": gauge, "delta": delta}


def _march(scenario, p):
    """Double-null solve and its a-priori envelope check."""
    state = march(p["data"], p["grid"], p["model"], p["profile"])
    resid_sup = sigma_wave_residual(state, p["model"], p["profile"])
    zp = np.asarray(p["profile"].dzeta(p["grid"].ub), dtype=float)
    fields = {name: getattr(state, name) for name in ("psi", "psib", "xi")}
    fields["sigma"] = sigma_of(state.psi, state.psib, zp)
    return {
        "backend": "numpy",
        "envelope_fits": verify_envelopes(state, p["profile"].gamma_bar),
        "sigma_wave_residual_sup": resid_sup,
        "field_sup": {name: float(np.max(np.abs(f)))
                      for name, f in fields.items()},
    }, {"state": state}


def _picard(scenario, p):
    """Independent fixed-point route, compared with the march if it ran."""
    sv = scenario.solver
    cfg = PicardConfig(delta=p["delta"], max_iter=sv["max_iter"], tol=sv["tol"])
    fixed, info = picard_fixed_point(p["data"], p["grid"], p["model"],
                                     p["profile"], cfg)
    sec = {
        "iterations": info["iterations"],
        "residuals": [float(r) for r in info["residuals"]],
        "converged": bool(info["converged"]),
    }
    if p.get("state") is not None:
        sec["metric_vs_march"] = picard_metric(fixed, p["state"],
                                               p["profile"].gamma_bar)
    del fixed  # nothing later reads it; free it before the seeds
    if sv["contraction_seeds"] >= 2:
        sec["contraction"] = contraction_ratio(
            p["grid"], p["data"], p["profile"], p["model"], cfg,
            n_seeds=sv["contraction_seeds"], seed=scenario.seed)
    return sec, {}


def _geometry(scenario, p):
    """Frame transport, coordinate map and degeneracy monitor."""
    state, model, profile = p["state"], p["model"], p["profile"]
    frame = integrate_frame(state, p["gauge"], model, profile)
    coords = reconstruct_coords(frame, model, profile)
    return {
        "nullity": nullity_residual(state, frame, model, profile),
        "curl_sup": coords.curl_sup,
        "detj_min": float(np.min(coords.detj)),
        "detj_max": float(np.max(coords.detj)),
        "degeneracy": degeneracy_monitor(frame, coords),
    }, {"frame": frame, "coords": coords}


def _crossval(scenario, p):
    """Scheme-independent rectangular solve, pulled back onto the null grid
    when the march and the coordinate map are there."""
    sv = scenario.solver
    half, t_max, dx = rect_extent(scenario)
    rgrid = cv.RectGrid(-half, half, dx, t_max, cfl=sv["cfl"])
    rect = cv.rect_solve(p["rect_data"], p["model"], rgrid, p["profile"],
                         dissipation=sv["dissipation"])
    sec = {
        "flux_residual": cv.flux_residual(rect, p["model"]),
        "rect": {"n_t": len(rect.t), "n_x": int(rect.x.size),
                 "dt": rect.dt, "dx": rect.dx},
        "comparison": None,
    }
    state, coords = p.get("state"), p.get("coords")
    if state is not None and coords is not None:
        comp = cv.pullback_compare(state, coords, rect, p["model"], p["profile"])
        try:
            shift = cv.phase_shift(coords)
        except InsufficientDomain as exc:
            shift = None
            sec["phase_shift_problem"] = str(exc)
        sec["comparison"] = {"sup_diff": comp.pop("sup_diff"),
                             "l1_diff": comp.pop("l1_diff"),
                             "phase_shift": shift}
        sec.update(comp)
    return sec, {}


# (stage, products it needs, solver switch or None, run)
PIPELINE = (
    ("data_gauge", (), None, _data_gauge),
    ("march", ("data",), None, _march),
    ("picard", ("data", "delta"), "picard", _picard),
    ("geometry", ("state", "gauge"), None, _geometry),
    ("crossval", (), "crossval", _crossval),
)

STAGES = tuple(row[0] for row in PIPELINE)


def run_pipeline(scenario: Scenario) -> RunResult:
    """Execute every enabled stage and assemble the run report.

    Raises ScenarioError if the scenario is invalid; any error after that
    point is recorded in report["errors"] instead of propagating, so a
    partial report is still emitted.
    """
    model, profile, grid, rect_data = materialize(scenario)
    t_start = perf_counter()
    products = {"model": model, "profile": profile, "grid": grid,
                "rect_data": rect_data}
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario_to_dict(scenario),
        "stages": {},
        "errors": [],
    }
    timings, outcomes = {}, {}
    for stage, needs, switch, run in PIPELINE:
        t0 = perf_counter()
        if switch is not None and not scenario.solver[switch]:
            outcomes[stage] = "off"
        elif any(products.get(name) is None for name in needs):
            outcomes[stage] = "skipped"
        else:
            try:
                report["stages"][stage], new = run(scenario, products)
            except NullwaveError as exc:
                report["errors"].append({"stage": stage,
                                         "type": type(exc).__name__,
                                         "message": str(exc)})
                outcomes[stage] = "failed"
            else:
                products.update(new)
                outcomes[stage] = "ok"
        timings[stage] = perf_counter() - t0

    if scenario.solver["refine"] and not report["errors"]:
        t0 = perf_counter()
        report["refinement"], errors = _refinement_table(scenario, report)
        report["errors"].extend(errors)
        timings["refinement"] = perf_counter() - t0

    report["ok"] = not report["errors"]
    timings["total"] = perf_counter() - t_start
    return RunResult(report=report, timings=timings, outcomes=outcomes,
                     state=products.get("state"), profile=profile,
                     frame=products.get("frame"), coords=products.get("coords"))


def _refinement_table(scenario: Scenario, report: dict):
    """Rerun the diagnostics at h/2 and tabulate observed orders.

    Returns the table and the rerun's errors, each recorded under stage
    "refinement" with the h/2 stage named at the front of its message.
    """
    fine_dict = scenario_to_dict(scenario)
    fine_dict["grid"] = dict(fine_dict["grid"], h=0.5 * scenario.grid["h"])
    solver = dict(fine_dict["solver"], refine=False, picard=False,
                  contraction_seeds=0)
    if solver["rect_dx"] is not None:
        solver["rect_dx"] = 0.5 * solver["rect_dx"]
    fine_dict["solver"] = solver
    fine = run_pipeline(scenario_from_dict(fine_dict)).report

    table = {"h": [scenario.grid["h"], 0.5 * scenario.grid["h"]],
             "measurements": {}, "orders": {}}
    probes = {
        "sigma_wave_residual_sup": ("march", "sigma_wave_residual_sup"),
        "curl_sup": ("geometry", "curl_sup"),
        "nullity_L": ("geometry", "nullity", "L"),
        "comparison_sup": ("crossval", "comparison", "sup_diff"),
    }
    for label, path in probes.items():
        coarse = stage_value(report, *path)
        refined = stage_value(fine, *path)
        if coarse is None or refined is None:
            continue
        table["measurements"][label] = [coarse, refined]
        rate = _order(coarse, refined)
        if rate is not None and math.isfinite(rate):
            table["orders"][label] = rate
    errors = [dict(err, stage="refinement",
                   message=f"{err['stage']} at h/2: {err['message']}")
              for err in fine["errors"]]
    return table, errors
