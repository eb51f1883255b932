"""Workload inputs generated from a seed (standard library only).

Seed 0 reproduces the shipped scenario files exactly.  Any other seed sets
``scenario.seed`` and moves the pulse centre within +-0.1; for
``linear_sweep`` it also draws the four eps values from [1e-3, 2e-2].  The
program only ever sees the generated scenario and sweep-grid dicts, which
the harness writes to files in its work directory.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("membrane_run", "membrane_r20", "linear_sweep")
DEFAULT_SEED = 0

SHIPPED = {
    "membrane_run": "membrane_pulse.json",
    "membrane_r20": "membrane_pulse.json",
    "linear_sweep": "linear_check.json",
}
# membrane_r20: the membrane_pulse template on the radius-20 square
# (641,601 nodes, 5.1 MB per field).
R20_GRID = {"radius": 20.0, "h": 0.05}
R20_RECT_T_MAX = 4.0

DEFAULT_EPS = (0.001, 0.005, 0.01, 0.02)
EPS_RANGE = (1e-3, 2e-2)
CENTER_SHIFT = 0.1
DIRECTIONS = ("left", "right")

# The smoke check's grid: every code path, a fraction of a second per run.
TINY_GRID = {"radius": 2.0, "h": 0.2}

SCENARIO_FILE = "scenario.json"
SWEEP_GRID_FILE = "sweep_grid.json"


def make_inputs(workload: str, seed: int, scenario_dir: str,
                tiny: bool = False):
    """(scenario dict, sweep grid dict or None) for one workload and seed."""
    with open(os.path.join(scenario_dir, SHIPPED[workload])) as f:
        raw = json.load(f)
    solver = raw.setdefault("solver", {})
    if workload == "membrane_r20":
        raw["grid"] = dict(R20_GRID)
        solver["rect_t_max"] = R20_RECT_T_MAX
    eps = list(DEFAULT_EPS)
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        raw["seed"] = seed
        raw["perturbation"]["center"] += rng.uniform(-CENTER_SHIFT,
                                                     CENTER_SHIFT)
        eps = sorted(rng.uniform(*EPS_RANGE) for _ in DEFAULT_EPS)
    if tiny:
        raw["grid"] = dict(TINY_GRID)
        solver.pop("rect_t_max", None)
    grid = None
    if workload == "linear_sweep":
        grid = {"perturbation.eps": eps,
                "perturbation.direction": list(DIRECTIONS)}
    return raw, grid


def write_inputs(work_dir: str, scenario: dict, grid) -> None:
    """Store the generated inputs where the workload process reads them."""
    with open(os.path.join(work_dir, SCENARIO_FILE), "w") as f:
        json.dump(scenario, f, indent=2)
    if grid is not None:
        with open(os.path.join(work_dir, SWEEP_GRID_FILE), "w") as f:
            json.dump(grid, f, indent=2)
