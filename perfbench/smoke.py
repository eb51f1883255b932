#!/usr/bin/env python3
"""Smoke check of the harness on the tiny grid (radius 2, h 0.2).

    python3 perfbench/smoke.py

For every workload it runs ``run.py --tiny`` once untraced and twice traced,
and checks that every metric BENCHMARK.json declares appears with its unit,
that no iteration failed (fail_ratio 0), and that the per-layer counts
(unit ``count`` or ``bytes``) repeat exactly between the two traced runs.
Takes about a minute and a half; exits 1 on the first broken expectation.
"""

import json
import os
import subprocess
import sys

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = ("count", "bytes")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {done.returncode}:"
                             f"\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(result, declared, label):
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        raise AssertionError(f"{label}: metrics/units {got} != {units}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        raise AssertionError(f"{label}: fail_ratio {result['failed']}/"
                             f"{result['attempted']}, correct "
                             f"{result['correct']}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    for workload in inputs.WORKLOADS:
        check(run(workload, 0), spec["end_to_end"], f"{workload} trace 0")
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            check(result, spec["per_layer"], f"{workload} trace 1")
        moved = {name: (first["metrics"][name]["value"],
                        second["metrics"][name]["value"])
                 for name in exact
                 if first["metrics"][name] != second["metrics"][name]}
        if moved:
            raise AssertionError(f"{workload}: counts differ between traced "
                                 f"runs: {moved}")
        print(f"ok  {workload}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
