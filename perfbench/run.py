#!/usr/bin/env python3
"""nullwave benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload membrane_run --seed 0 --seconds 30 --trace 0

Run from the root of a nullwave checkout; the package is imported from its
``src/``.  Workloads (the reasons are in BENCHMARK.json and README.md):

* ``membrane_run``  -- ``run_pipeline`` plus ``write_run_outputs`` on
  scenarios/membrane_pulse.json, i.e. what ``nullwave run`` does;
* ``membrane_r20``  -- the same template at radius 20, h 0.05, pipeline only;
* ``linear_sweep``  -- ``nullwave sweep`` of scenarios/linear_check.json over
  4 eps x 2 directions with two worker processes.

With ``--trace 0`` a warm process repeats the workload for ``--seconds``
and the result holds wall_s, cpu_s (process plus children), setup_s and
peak_rss_mb.  setup_s is the median over at least 36 fresh set-up
processes, run in batches before the workload, between its iterations and
after it.  The three times are given at the reference speed of speed.py:
each iteration's wall and CPU time and each set-up process's time is
scaled by the speed measured on its CPUs while it ran, and the medians
are taken over the scaled times.  The table printed before the result
also gives the medians as measured.  With ``--trace 1`` it runs the
workload once untraced and once with spans on the package's functions
(``--seconds`` is not used), and the result holds the per-layer metrics.  Every run prints its environment
block, checks every report (a failed check counts the iteration as
failed), and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

``--tiny`` swaps in the radius-2, h-0.2 grid; smoke.py uses it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading

import inputs
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 36       # fresh processes per run at least; setup_s is their
PROBE_BATCH = 4         # median.  A batch runs before the workload, in each
                        # pause between its iterations and after it, so the
                        # probes see the same contention phases as the work.
PAUSE_LINE = "perfbench: pause for set-up probes"
SWEEP_WORKERS = 2       # NULLWAVE_THREADS for the load (this VM: nproc 2)
WORKLOAD_TIMEOUT_S = 150


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=_nonnegative, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="radius-2, h-0.2 grid (harness smoke check)")
    return ap.parse_args(argv)


def _run_json(cmd, env, timeout, pause=None):
    """Run a child in its own session; its last stdout line as JSON.

    A child line equal to PAUSE_LINE calls ``pause()`` and then
    answers the child with an empty line on its stdin.  On timeout or
    interruption the whole process group (the sweep's workers included)
    is killed and waited for.
    """
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, text=True, start_new_session=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        with contextlib.suppress(ProcessLookupError):  # it ended meanwhile
            os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            if line.rstrip("\n") == PAUSE_LINE and pause is not None:
                pause()
                proc.stdin.write("\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
        proc.wait()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stdin.close()
    name = os.path.basename(cmd[1])
    if timed_out.is_set():
        raise RuntimeError(f"{name} timed out after {timeout} s")
    if proc.returncode != 0 or not last:
        raise RuntimeError(f"{name} exited with code {proc.returncode}")
    return json.loads(last)


def measure(args, work_dir, env) -> tuple:
    """(set-up probes, workload result, speed probes or None).

    The workload process is pinned to one CPU, the sweep to SWEEP_WORKERS;
    set-up probes run on the first of them.  Untraced, a speed probe runs
    on each of these CPUs the whole time.
    """
    workers = SWEEP_WORKERS if args.workload == "linear_sweep" else 1
    cpus = sorted(os.sched_getaffinity(0))[:workers]
    probe_cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                 os.path.join(work_dir, inputs.SCENARIO_FILE), str(cpus[0])]
    probes = []

    def probe_batch(n=PROBE_BATCH):
        probes.extend(_run_json(probe_cmd, env, 60) for _ in range(n))

    cmd = [sys.executable, os.path.join(HERE, "bench.py"),
           "--workload", args.workload, "--work-dir", work_dir,
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--cpus", ",".join(map(str, cpus))]
    if args.trace:
        tag = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.tiny else "")
        cmd += ["--trace-file", os.path.join(OUT_DIR, f"trace-{tag}.json")]
        cpu_speed = None
    else:
        cmd += ["--pause-line", PAUSE_LINE]
        cpu_speed = speed.Probes(cpus)
    with cpu_speed or contextlib.nullcontext():
        probe_batch()
        result = _run_json(cmd, env, WORKLOAD_TIMEOUT_S, probe_batch)
        probe_batch(max(PROBE_BATCH, SETUP_PROBES - len(probes)))
    return probes, result, cpu_speed


def metrics_of(args, probes, result, cpu_speed) -> dict:
    if args.trace:
        values = dict(result["layers"])
        values["scenario.import_s"] = statistics.median(
            p["import_s"] for p in probes)
        values["scenario.load_s"] = statistics.median(
            p["load_s"] for p in probes)
        return values
    samples = result["samples"]
    scale = [cpu_speed.factor(s["start"], s["end"]) for s in samples]
    return {
        "wall_s": statistics.median(
            s["wall_s"] * f for s, f in zip(samples, scale)),
        "cpu_s": statistics.median(
            s["cpu_s"] * f for s, f in zip(samples, scale)),
        "setup_s": statistics.median(
            (p["import_s"] + p["load_s"]) * cpu_speed.factor(p["start"],
                                                             p["end"])
            for p in probes),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds: children killed, work dir removed


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nullwave", "__init__.py")):
        print(f"error: no nullwave package under {ROOT}/src; run from the "
              "root of a nullwave checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NULLWAVE_THREADS=str(SWEEP_WORKERS))
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        scenario, grid = inputs.make_inputs(
            args.workload, args.seed, os.path.join(ROOT, "scenarios"),
            args.tiny)
        inputs.write_inputs(work_dir, scenario, grid)
        probes, result, cpu_speed = measure(args, work_dir, env)
        values = metrics_of(args, probes, result, cpu_speed)
    except (OSError, RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 1
    samples = result["samples"]
    attempted = len(samples)
    failed = sum(1 for s in samples if s["problems"])

    print("env: " + json.dumps(result["env"], sort_keys=True))
    walls = sorted(s["wall_s"] for s in samples)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} iteration(s), wall min {walls[0]:.4f} s, "
          f"max {walls[-1]:.4f} s; march backend "
          f"{'/'.join(result['march_backends'])}; "
          f"{len(probes)} set-up processes")
    if cpu_speed is not None:
        scale = sorted(cpu_speed.factor(s["start"], s["end"])
                       for s in samples)
        print(f"  as measured, before scaling to the reference speed: "
              f"wall_s {statistics.median(walls):.4f} s, cpu_s "
              f"{statistics.median(s['cpu_s'] for s in samples):.4f} s, "
              f"setup_s {statistics.median(p['import_s'] + p['load_s'] for p in probes):.4f} s; "
              f"speed factor {scale[0]:.3f} to {scale[-1]:.3f} over the "
              f"iterations")
    for i, s in enumerate(samples):
        for problem in s["problems"]:
            print(f"  iteration {i} FAILED: {problem}")
    for name in units:
        print(f"  {name:34s} {values[name]:>16.6g} {units[name]}")
    print(f"  {'fail_ratio':34s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
