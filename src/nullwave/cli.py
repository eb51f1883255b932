"""Command-line entry point: run / sweep / validate / oracle.

run executes one scenario and writes its artifacts; sweep expands a
template over a parameter grid and distributes the runs over a process
pool (capped by NULLWAVE_THREADS); validate checks a scenario file
without simulating; oracle recomputes the frozen reference tables the
test suite pins.

Exit codes: 0 success, 1 a run had a hard stage error (partial report
still written), 2 configuration problems (bad file, invalid scenario,
an --out that cannot be a directory, unknown oracle table).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .errors import NullwaveError, ScenarioError
from .oracles import oracle_tables
from .pipeline import run_pipeline
from .report import (summary_row, write_json, write_run_outputs,
                     write_summary_csv)
from .scenario import (load_scenario, scenario_from_dict, scenario_to_dict,
                       validate_scenario)


def thread_count() -> int:
    """Worker count for parameter sweeps: the CPU count, capped by
    NULLWAVE_THREADS if that is set.  Raises ValueError naming the
    variable if it is set but is not a positive integer."""
    n = os.cpu_count() or 1
    raw = os.environ.get("NULLWAVE_THREADS", "").strip()
    if not raw:
        return n
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(
            f"NULLWAVE_THREADS must be a positive integer, got {raw!r}")
    return min(n, int(raw))


def _load_checked(path):
    """Scenario from file, or (None, problems) if anything is wrong."""
    try:
        s = load_scenario(path)
    except ScenarioError as exc:
        return None, [str(exc)]
    return s, validate_scenario(s)


def _bad_out_dir(path) -> bool:
    """Whether path cannot be made an output directory: it is empty, or it
    or the nearest of its ancestors that exists is not a directory.  Says
    why on stderr; creates nothing."""
    at = os.path.abspath(path)
    while not os.path.exists(at):
        at = os.path.dirname(at)
    why = ("the path is empty" if not path else
           None if os.path.isdir(at) else f"{at} is not a directory")
    if why:
        print(f"invalid output directory: {why}", file=sys.stderr)
    return why is not None


def _print_stage_lines(result):
    for stage, outcome in result.outcomes.items():
        if outcome != "failed":  # printed with the error detail below
            print(f"[{outcome}]".ljust(10) + stage)
    for err in result.report["errors"]:
        print(f"[failed]  {err['stage']}: {err['type']}: {err['message']}")


def cmd_run(args) -> int:
    try:
        s = load_scenario(args.scenario)
        out_dir = args.out if args.out is not None else os.path.join("runs", s.name)
        if _bad_out_dir(out_dir):
            return 2
        result = run_pipeline(s)  # validates while it builds the run objects
    except ScenarioError as exc:
        for p in exc.problems:
            print(f"invalid: {p}", file=sys.stderr)
        return 2
    paths = write_run_outputs(out_dir, result)
    _print_stage_lines(result)
    print(f"report: {paths['report']}")
    return 0 if result.report["ok"] else 1


def _set_dotted(tree: dict, dotted: str, value) -> None:
    """Assign tree["a"]["b"]["c"] = value for dotted "a.b.c", creating maps."""
    keys = dotted.split(".")
    node = tree
    for key in keys[:-1]:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    node[keys[-1]] = value


def _sweep_worker(task):
    """Run one expanded scenario; always returns a summary row."""
    idx, sdict, out_dir = task
    row = {"run": idx, "name": sdict.get("name", "?"),
           "seed": sdict.get("seed", 0), "ok": False}
    try:
        s = scenario_from_dict(sdict)
        result = run_pipeline(s)
        write_run_outputs(out_dir, result)
        row.update(summary_row(result.report))
    except Exception as exc:  # noqa: BLE001 - a worker must never crash the pool
        row["error"] = f"{type(exc).__name__}: {exc}"
        row["n_errors"] = 1
    row["run"] = idx
    return row


def cmd_sweep(args) -> int:
    try:
        threads = thread_count()
    except ValueError as exc:
        print(f"invalid environment: {exc}", file=sys.stderr)
        return 2
    template, problems = _load_checked(args.template)
    if problems:
        for p in problems:
            print(f"invalid template: {p}", file=sys.stderr)
        return 2
    try:
        with open(args.grid) as f:
            grid = json.load(f)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"invalid grid: {exc}", file=sys.stderr)
        return 2
    if not isinstance(grid, dict) or not all(
            isinstance(v, list) for v in grid.values()):
        print("invalid grid: expected {\"dotted.key\": [values...], ...}",
              file=sys.stderr)
        return 2

    out_dir = args.out if args.out is not None \
        else os.path.join("runs", f"{template.name}-sweep")
    if _bad_out_dir(out_dir):
        return 2
    os.makedirs(out_dir, exist_ok=True)

    keys = list(grid)
    # no axes means no runs (itertools.product() alone would yield one)
    combos = list(itertools.product(*(grid[k] for k in keys))) if keys else []
    tasks = []
    for idx, combo in enumerate(combos):
        sdict = scenario_to_dict(template)
        for key, value in zip(keys, combo):
            _set_dotted(sdict, key, value)
        tasks.append((idx, sdict, os.path.join(out_dir, f"run_{idx:03d}")))

    workers = min(threads, max(len(tasks), 1))
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    else:
        rows = [_sweep_worker(task) for task in tasks]

    summary_path = os.path.join(out_dir, "summary.csv")
    write_summary_csv(summary_path, rows)
    write_json(os.path.join(out_dir, "grid.json"), grid)
    n_bad = sum(0 if row.get("ok") else 1 for row in rows)
    print(f"{len(rows)} run(s), {n_bad} with errors")
    print(f"summary: {summary_path}")
    return 0 if n_bad == 0 else 1


def cmd_validate(args) -> int:
    _, problems = _load_checked(args.scenario)
    if problems:
        for p in problems:
            print(f"invalid: {p}")
        return 2
    print("ok")
    return 0


def cmd_oracle(args) -> int:
    try:
        tables = oracle_tables(args.which)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(tables, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullwave",
        description="Double-null evolution experiments: run, sweep, "
                    "validate scenarios, or regenerate oracle tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", default=None,
                       help="output directory (default: runs/<name>)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="expand a template over a grid")
    p_sweep.add_argument("template", help="scenario JSON template")
    p_sweep.add_argument("grid", help='JSON {"dotted.key": [values...]}')
    p_sweep.add_argument("--out", default=None,
                         help="output directory (default: runs/<name>-sweep)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario", help="scenario JSON file")
    p_val.set_defaults(func=cmd_validate)

    p_or = sub.add_parser("oracle", help="recompute frozen reference tables")
    p_or.add_argument("--which", default=None,
                      help="single table name (default: all)")
    p_or.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NullwaveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
