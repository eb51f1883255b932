"""End-to-end experiment pipeline: data -> wave solve -> frame -> validation.

Stage order is data_gauge -> march -> picard -> geometry -> crossval, with
picard and crossval switchable per scenario.  A failing stage is recorded
under report["errors"] with its identity and the stages that need its
products are skipped, but a (partial) report is always assembled -- in
particular a degeneracy flag raised by the monitor is a *finding* in the
report, never an abort.

Wall-clock timings are kept in a dict separate from the report so that the
report itself is a pure function of (scenario, seed, platform) and can be
compared bit for bit between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
from .scenario import (SCHEMA_VERSION, Scenario, materialize, rect_extent,
                       scenario_from_dict, scenario_to_dict)

# Ball radius handed to the fixed-point iterator when the data is exactly
# background (delta would be zero, which the config rejects).
MIN_PICARD_DELTA = 1e-8

STAGES = ("data_gauge", "march", "picard", "geometry", "crossval")


@dataclass
class RunResult:
    """Report plus the heavyweight arrays the CSV writers need."""

    report: dict
    timings: dict
    state: object = None   # DNState from the march
    frame: object = None   # NullFrame
    coords: object = None  # CoordMap


def _order(coarse: float, fine: float) -> float | None:
    """log2 convergence rate of a pair of error measurements."""
    if coarse > 0.0 and fine > 0.0:
        return float(np.log2(coarse / fine))
    return None


def run_pipeline(scenario: Scenario) -> RunResult:
    """Execute every enabled stage and assemble the run report.

    Raises ScenarioError if the scenario is invalid; any error after that
    point is recorded in report["errors"] instead of propagating, so a
    partial report is still emitted.
    """
    model, profile, grid, rect_data = materialize(scenario)
    sv = scenario.solver
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario_to_dict(scenario),
        "stages": {},
        "errors": [],
    }
    timings = {}
    t_start = perf_counter()

    def failed(stage, exc):
        report["errors"].append({
            "stage": stage,
            "type": type(exc).__name__,
            "message": str(exc),
        })

    # ---- data_gauge: diagonal data + smallness bookkeeping ----------------
    t0 = perf_counter()
    data = gauge = None
    delta = MIN_PICARD_DELTA
    gb = profile.gamma_bar
    try:
        cert = closeness_certificate(rect_data, profile)
        data, gauge = build_diagonal_data(rect_data, grid, model, profile)
        eps0 = cert["eps_bar"]
        delta = max(delta_from_smallness(eps0, gb), MIN_PICARD_DELTA)
        report["stages"]["data_gauge"] = {
            "closeness": cert,
            "eps_bar": eps0,
            "gamma_bar": gb,
            "delta": delta,
            "data_sup": {
                "psi": float(np.max(np.abs(data.psi))),
                "psib": float(np.max(np.abs(data.psib))),
                "xi": float(np.max(np.abs(data.xi))),
            },
        }
    except NullwaveError as exc:
        failed("data_gauge", exc)
    timings["data_gauge"] = perf_counter() - t0

    # ---- march: double-null solve + a-priori envelope check ---------------
    t0 = perf_counter()
    state = None
    if data is not None:
        try:
            state = march(data, grid, model, profile)
            resid = sigma_wave_residual(state, model, profile)
            report["stages"]["march"] = {
                "backend": "numpy",
                "envelope_fits": verify_envelopes(state, gb),
                "sigma_wave_residual_sup": float(np.max(np.abs(resid))),
                "field_sup": {
                    name: float(np.max(np.abs(getattr(state, name))))
                    for name in ("psi", "psib", "xi", "sigma")
                },
            }
        except NullwaveError as exc:
            failed("march", exc)
            state = None
    timings["march"] = perf_counter() - t0

    # ---- picard: independent fixed-point route -----------------------------
    t0 = perf_counter()
    if sv["picard"] and data is not None:
        try:
            cfg = PicardConfig(delta=delta, max_iter=sv["max_iter"],
                               tol=sv["tol"])
            fixed, info = picard_fixed_point(data, grid, model, profile, cfg)
            sec = {
                "iterations": info["iterations"],
                "residuals": [float(r) for r in info["residuals"]],
                "converged": bool(info["converged"]),
            }
            if state is not None:
                sec["metric_vs_march"] = picard_metric(fixed, state, gb)
            del fixed  # nothing later reads it; free it before the seeds
            if sv["contraction_seeds"] >= 2:
                sec["contraction"] = contraction_ratio(
                    grid, data, profile, model, cfg,
                    n_seeds=sv["contraction_seeds"], seed=scenario.seed)
            report["stages"]["picard"] = sec
        except NullwaveError as exc:
            failed("picard", exc)
    timings["picard"] = perf_counter() - t0

    # ---- geometry: frame transport, coordinates, degeneracy monitor -------
    t0 = perf_counter()
    frame = coords = degen = None
    if state is not None and gauge is not None:
        try:
            frame = integrate_frame(state, gauge, model, profile)
            coords = reconstruct_coords(state, frame, model, profile)
            degen = degeneracy_monitor(frame, coords, model, profile)
            report["stages"]["geometry"] = {
                "nullity": nullity_residual(state, frame, model, profile),
                "curl_sup": coords.curl_sup,
                "detj_min": float(np.min(coords.detj)),
                "detj_max": float(np.max(coords.detj)),
                "degeneracy": degen.as_dict(),
            }
        except NullwaveError as exc:
            failed("geometry", exc)
            frame = coords = None
    timings["geometry"] = perf_counter() - t0

    # ---- crossval: scheme-independent solver + pullback comparison --------
    t0 = perf_counter()
    if sv["crossval"]:
        try:
            half, t_max, dx = rect_extent(scenario)
            rgrid = cv.RectGrid(-half, half, dx, t_max, cfl=sv["cfl"])
            rect = cv.rect_solve(rect_data, model, rgrid, profile,
                                 dissipation=sv["dissipation"])
            sec = {
                "flux_residual": cv.flux_residual(rect, model),
                "rect": {"n_t": len(rect.t), "n_x": int(rect.x.size),
                         "dt": rect.dt, "dx": rect.dx},
                "comparison": None,
            }
            if state is not None and coords is not None:
                comp = cv.pullback_compare(state, coords, rect, model, profile)
                try:
                    shift = cv.phase_shift(coords, profile, model)
                except InsufficientDomain as exc:
                    shift = None
                    sec["phase_shift_problem"] = str(exc)
                comp = replace(
                    comp, phase_shift=shift,
                    degeneracy=None if degen is None else degen.as_dict())
                sec["comparison"] = comp.as_dict()
                sec["n_compared"] = comp.n_compared
                sec["n_skipped"] = comp.n_skipped
                sec["newton"] = comp.newton
                sec["interp_error"] = comp.interp_error
            report["stages"]["crossval"] = sec
        except NullwaveError as exc:
            failed("crossval", exc)
    timings["crossval"] = perf_counter() - t0

    # ---- optional refinement table: same pipeline at h/2 ------------------
    if sv["refine"] and not report["errors"]:
        t0 = perf_counter()
        try:
            report["refinement"] = _refinement_table(scenario, report)
        except NullwaveError as exc:
            failed("refinement", exc)
        timings["refinement"] = perf_counter() - t0

    report["ok"] = not report["errors"]
    timings["total"] = perf_counter() - t_start
    return RunResult(report=report, timings=timings, state=state,
                     frame=frame, coords=coords)


def _refinement_table(scenario: Scenario, report: dict) -> dict:
    """Rerun the diagnostics at h/2 and tabulate observed orders."""
    fine_dict = scenario_to_dict(scenario)
    fine_dict["grid"] = dict(fine_dict["grid"], h=0.5 * scenario.grid["h"])
    solver = dict(fine_dict["solver"], refine=False, picard=False,
                  contraction_seeds=0)
    if solver["rect_dx"] is not None:
        solver["rect_dx"] = 0.5 * solver["rect_dx"]
    fine_dict["solver"] = solver
    fine = run_pipeline(scenario_from_dict(fine_dict)).report

    def metric(rep, stage, *keys):
        node = rep["stages"].get(stage)
        for key in keys:
            if node is None:
                return None
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):  # per-field diffs: track the worst field
            node = max(node.values()) if node else None
        return node

    table = {"h": [scenario.grid["h"], 0.5 * scenario.grid["h"]],
             "measurements": {}, "orders": {}}
    probes = {
        "sigma_wave_residual_sup": ("march", "sigma_wave_residual_sup"),
        "curl_sup": ("geometry", "curl_sup"),
        "nullity_L": ("geometry", "nullity", "L"),
        "comparison_sup": ("crossval", "comparison", "sup_diff"),
    }
    for label, path in probes.items():
        coarse = metric(report, *path)
        refined = metric(fine, *path)
        if coarse is None or refined is None:
            continue
        table["measurements"][label] = [coarse, refined]
        rate = _order(coarse, refined)
        if rate is not None and math.isfinite(rate):
            table["orders"][label] = rate
    return table
