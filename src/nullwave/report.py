"""Artifact emission: deterministic JSON reports and CSV tables.

Every float is written with repr (round-trip decimal), so two runs of the
same scenario and seed on one platform produce bit-identical report.json,
state.csv, frame.csv and summary.csv.  Wall-clock timings are the one
non-deterministic output and live in their own timings.json.

state.csv and frame.csv come from state.write_grid_csv.  It writes them a
row block at a time, and it reprs each distinct value of a block's column
once, reusing the previous block's string where that block held the value.
The bytes are those of a csv.writer loop that reprs every value.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .state import CSV_COLUMNS, sigma_of, write_grid_csv

FRAME_COLUMNS = (
    "u", "ubar", "L0", "L1", "Lb0", "Lb1", "Omega", "t", "x", "detj",
)


def _jsonable(obj):
    """Recursively convert to strict-JSON types (no NaN/Infinity literals)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    return obj


def write_json(path, obj) -> None:
    """Strict JSON, sorted keys, trailing newline."""
    with open(path, "w") as f:
        json.dump(_jsonable(obj), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def write_run_outputs(out_dir, result) -> dict:
    """Emit every artifact a run produced; returns {kind: path}.

    report.json and the CSVs are deterministic; timings.json is wall-clock
    and is the only file expected to differ between identical runs.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    paths["report"] = os.path.join(out_dir, "report.json")
    write_json(paths["report"], result.report)

    paths["timings"] = os.path.join(out_dir, "timings.json")
    write_json(paths["timings"], result.timings)

    state, coords = result.state, result.coords
    if state is not None:
        paths["state"] = os.path.join(out_dir, "state.csv")
        zp = np.asarray(result.profile.dzeta(state.grid.ub), dtype=float)
        sigma = sigma_of(state.psi, state.psib, zp)
        write_grid_csv(paths["state"], state.grid, {
            c: sigma if c == "sigma" else getattr(state, c)
            for c in CSV_COLUMNS[2:]})
    if coords is not None:
        paths["frame"] = os.path.join(out_dir, "frame.csv")
        columns = {c: getattr(coords.frame, c) for c in FRAME_COLUMNS[2:7]}
        columns.update((c, getattr(coords, c)) for c in FRAME_COLUMNS[7:])
        write_grid_csv(paths["frame"], coords.grid, columns)
    return paths


def stage_value(report: dict, stage: str, *keys):
    """report["stages"][stage][keys[0]][keys[1]]..., None where a level is
    missing.  A per-field dict or a list at the end is reduced to its
    largest entry (None if empty), or to NaN if an entry is NaN."""
    node = report["stages"].get(stage)
    for key in keys:
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        if any(v != v for v in node):
            return math.nan
        return max(node) if node else None
    return node


# summary column -> its path under report["stages"] (see stage_value)
STAGE_COLUMNS = {
    "eps_bar": ("data_gauge", "eps_bar"),
    "gamma_bar": ("data_gauge", "gamma_bar"),
    "delta": ("data_gauge", "delta"),
    "envelope_delta": ("march", "envelope_fits", "delta"),
    "sigma_wave_residual_sup": ("march", "sigma_wave_residual_sup"),
    "backend": ("march", "backend"),
    "picard_iterations": ("picard", "iterations"),
    "metric_vs_march": ("picard", "metric_vs_march"),
    "contraction_max": ("picard", "contraction", "ratios"),
    "curl_sup": ("geometry", "curl_sup"),
    "nullity_sup": ("geometry", "nullity"),
    "degeneracy_ok": ("geometry", "degeneracy", "ok"),
    "min_abs_detj": ("geometry", "degeneracy", "min_abs_detj"),
    "flux_residual": ("crossval", "flux_residual"),
    "sup_diff": ("crossval", "comparison", "sup_diff"),
    "l1_diff": ("crossval", "comparison", "l1_diff"),
    "phase_shift": ("crossval", "comparison", "phase_shift"),
}

SUMMARY_COLUMNS = ("run", "name", "seed", "h", "radius", "eps", "ok",
                   "n_errors", *STAGE_COLUMNS, "error")


def summary_row(report: dict) -> dict:
    """Flatten one run report to the fixed summary-table columns."""
    sc = report["scenario"]
    pert = sc["perturbation"]
    row = {
        "name": sc["name"],
        "seed": sc["seed"],
        "h": sc["grid"]["h"],
        "radius": sc["grid"]["radius"],
        "eps": 0.0 if pert is None else pert["eps"],
        "ok": report["ok"],
        "n_errors": len(report["errors"]),
        "error": "; ".join(
            f"{e['stage']}: {e['type']}" for e in report["errors"]),
    }
    row.update((col, stage_value(report, *path))
               for col, path in STAGE_COLUMNS.items())
    return row


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_summary_csv(path, rows) -> None:
    """One row per run; header is written even for an empty sweep."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(SUMMARY_COLUMNS)
        for row in rows:
            wr.writerow([_cell(row.get(col)) for col in SUMMARY_COLUMNS])
