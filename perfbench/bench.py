"""One workload in one warm process: timed iterations, or one traced run.

    python3 perfbench/bench.py --workload NAME --work-dir DIR --seconds S
                               --trace 0|1 [--trace-file FILE]
                               [--pause-line LINE] [--cpus 0,1]

run.py starts this process after it has written the generated inputs into
DIR and pinned the BLAS threads, so that this process's peak RSS and its
children's are the workload's alone.  The last stdout line is one JSON
object: environment, per-iteration samples with the check failures of each,
peak RSS and, with --trace 1, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import inputs  # noqa: E402  (perfbench/ is this script's directory)

import nullwave  # noqa: E402
from nullwave import cli, run_pipeline, scenario_from_dict  # noqa: E402
from nullwave.grid import DNGrid  # noqa: E402
from nullwave.report import write_run_outputs  # noqa: E402
from nullwave.scenario import scenario_to_dict  # noqa: E402

from spans import Tracer, span_cost_s  # noqa: E402

MAX_METRIC_VS_MARCH = 1e-6  # acceptance criterion 5
MAX_SUP_DIFF = 1e-2         # acceptance criterion 8
MIN_SAMPLES = 2
WALL_CLOCK_FILES = ("timings.json",)  # the only artifacts that vary by run


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


@contextlib.contextmanager
def _no_span(name):
    yield


def _numba_imports() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


NUMBA_IMPORTS = _numba_imports()


@dataclass
class Sample:
    """One timed unit of work and what it produced."""

    wall_s: float
    cpu_s: float
    reports: list        # report dicts, one per pipeline run
    report_bytes: list   # report.json as written (or serialized), per run
    timings: list        # RunResult.timings / timings.json, per run
    bytes_written: int   # deterministic artifact bytes (timings.json excluded)
    workers: int = 1
    problems: list = field(default_factory=list)
    start: float = 0.0   # perf_counter at the start and end of the timed
    end: float = 0.0     # iteration, for the speed probes (speed.py)


def check_report(report: dict) -> list:
    """Problems with one run report; empty when it passes every gate."""
    problems = []
    if not report.get("ok"):
        problems.append("report not ok: " + "; ".join(
            f"{e['stage']}: {e['type']}" for e in report.get("errors", [])))
    stages = report.get("stages", {})
    if stages.get("march", {}).get("backend") == "numba" and not NUMBA_IMPORTS:
        problems.append("march reports backend numba, but numba does not import")
    picard = stages.get("picard", {})
    gap = picard.get("metric_vs_march")
    if not (isinstance(gap, float) and gap <= MAX_METRIC_VS_MARCH):
        problems.append(f"picard metric_vs_march {gap!r} above {MAX_METRIC_VS_MARCH}")
    # Every value is tested on its own: max() would pass over a NaN that
    # is not the first value.
    if report["scenario"]["solver"]["contraction_seeds"] >= 2:
        ratios = picard.get("contraction", {}).get("ratios") or []
        if not (ratios and all(_finite(r) and r < 1.0 for r in ratios)):
            problems.append(f"contraction ratios {ratios!r} not all below 1")
    if stages.get("geometry", {}).get("degeneracy", {}).get("ok") is not True:
        problems.append("geometry degeneracy monitor not ok")
    comparison = stages.get("crossval", {}).get("comparison") or {}
    sup = comparison.get("sup_diff") or {}
    if not (sup and all(_finite(v) and v <= MAX_SUP_DIFF
                        for v in sup.values())):
        problems.append(f"crossval sup_diff {sup!r} not all finite and "
                        f"<= {MAX_SUP_DIFF}")
    return problems


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _artifact_bytes(out_dir: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(out_dir):
        total += sum(os.path.getsize(os.path.join(dirpath, f))
                     for f in files if f not in WALL_CLOCK_FILES)
    return total


def _read(path, mode="r"):
    with open(path, mode) as f:
        return f.read()


class Workload:
    """The generated inputs of one workload and one unit of its work."""

    def __init__(self, name: str, scenario: dict, grid, work_dir: str):
        self.name = name
        self.scenario = scenario
        self.grid = grid
        self.work_dir = work_dir
        self.writes_artifacts = name != "membrane_r20"

    @classmethod
    def from_dir(cls, name: str, work_dir: str):
        scenario = json.loads(_read(os.path.join(work_dir, inputs.SCENARIO_FILE)))
        grid_path = os.path.join(work_dir, inputs.SWEEP_GRID_FILE)
        grid = json.loads(_read(grid_path)) if os.path.exists(grid_path) else None
        return cls(name, scenario, grid, work_dir)

    @property
    def nodes(self) -> int:
        g = self.scenario["grid"]
        return DNGrid(-g["radius"], g["radius"], g["h"]).n_nodes ** 2

    def run_once(self) -> Sample:
        """One iteration: a `nullwave run`, a pipeline, or a whole sweep."""
        if self.grid is not None:
            return self._sweep()
        return self.pipeline(self.scenario, self.writes_artifacts)

    def first_point(self) -> dict:
        """The sweep's run_000 scenario, expanded as the sweep expands it."""
        sdict = scenario_to_dict(scenario_from_dict(self.scenario))
        for dotted, values in self.grid.items():
            section, key = dotted.split(".")
            sdict[section][key] = values[0]
        return sdict

    def pipeline(self, sdict: dict, write: bool, span=_no_span) -> Sample:
        out = tempfile.mkdtemp(dir=self.work_dir) if write else None
        t0, c0 = perf_counter(), _cpu_s()
        with span("pipeline"):
            result = run_pipeline(scenario_from_dict(sdict))
        if write:
            with span("report.write"):
                write_run_outputs(out, result)
        wall, cpu = perf_counter() - t0, _cpu_s() - c0
        if write:
            raw = _read(os.path.join(out, "report.json"), "rb")
            written = _artifact_bytes(out)
            shutil.rmtree(out)
        else:
            raw = json.dumps(result.report, sort_keys=True,
                             default=lambda o: o.tolist()).encode()
            written = 0
        return Sample(wall, cpu, [result.report], [raw], [result.timings],
                      written, problems=check_report(result.report))

    def _sweep(self) -> Sample:
        out = tempfile.mkdtemp(dir=self.work_dir)
        argv = ["sweep", os.path.join(self.work_dir, inputs.SCENARIO_FILE),
                os.path.join(self.work_dir, inputs.SWEEP_GRID_FILE),
                "--out", out]
        t0, c0 = perf_counter(), _cpu_s()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        wall, cpu = perf_counter() - t0, _cpu_s() - c0
        runs = sorted(d for d in os.listdir(out) if d.startswith("run_"))
        raws = [_read(os.path.join(out, r, "report.json"), "rb") for r in runs]
        reports = [json.loads(raw) for raw in raws]
        timings = [json.loads(_read(os.path.join(out, r, "timings.json")))
                   for r in runs]
        written = _artifact_bytes(out)
        shutil.rmtree(out)
        expected = math.prod(len(v) for v in self.grid.values())
        problems = [p for rep in reports for p in check_report(rep)]
        if code != 0 or len(runs) != expected:
            problems.append(f"sweep exit code {code}, {len(runs)} of "
                            f"{expected} runs written")
        return Sample(wall, cpu, reports, raws, timings, written,
                      workers=min(cli.thread_count(), len(runs)),
                      problems=problems)


def check_identical(samples, reference) -> None:
    """Each sample's report.json must match the reference bytes exactly."""
    for s in samples:
        if s.report_bytes != reference[:len(s.report_bytes)]:
            s.problems.append("report.json differs from the first iteration")


def timed_run(wl: Workload, seconds: float, pause_line=None) -> list:
    """Iterations until the next one would end after `seconds` of work.

    With `pause_line`, the process prints it between iterations and waits
    for a line on stdin; the pauses are not counted in `seconds`.
    """
    samples = []
    busy = 0.0
    while True:
        start = perf_counter()
        samples.append(wl.run_once())
        samples[-1].start, samples[-1].end = start, perf_counter()
        busy += samples[-1].end - start
        if len(samples) >= MIN_SAMPLES and \
                busy * (len(samples) + 1) / len(samples) > seconds:
            break
        if pause_line is not None:
            print(pause_line, flush=True)
            sys.stdin.readline()
    check_identical(samples, samples[0].report_bytes)
    return samples


def traced_run(wl: Workload):
    """Untraced unit, then the same unit traced.

    Returns (samples, per-layer metrics, tracer, span table).

    For the sweep the unit of both is its first grid point run in this
    process (the sweep's forked workers are not traced); one untraced sweep
    comes first and supplies the pipeline timings and the efficiency.
    """
    samples = []
    if wl.grid is not None:
        sweep = wl.run_once()
        samples.append(sweep)
        point = wl.first_point()
        untraced = wl.pipeline(point, True)
    else:
        sweep = None
        point = wl.scenario
        untraced = wl.pipeline(point, wl.writes_artifacts)
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.pipeline(point, wl.writes_artifacts, tracer.span)
    finally:
        tracer.uninstall()
    samples += [untraced, traced]
    check_identical(samples, samples[0].report_bytes)
    table = tracer.by_name()
    overhead_s = len(tracer.spans) * span_cost_s()
    layers = layer_metrics(table, wl, traced, untraced, sweep, overhead_s)
    return samples, layers, tracer, table


def layer_metrics(table, wl, traced, untraced, sweep, overhead_s) -> dict:
    """Per-layer metrics from the traced unit (names as in BENCHMARK.json)."""
    def busy(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def rate(work, seconds):
        return work / seconds if seconds > 0.0 else 0.0

    stages = traced.reports[0]["stages"]
    rect = stages.get("crossval", {}).get("rect", {"n_t": 0, "n_x": 0})
    m = {
        "dn_core.march_s": busy("dn_core.march"),
        "dn_core.march_calls": calls("dn_core.march"),
        "dn_core.march_nodes_per_s": rate(
            wl.nodes * calls("dn_core.march"), busy("dn_core.march")),
        "dn_core.sigma_residual_s": busy("dn_core.sigma_residual"),
        "picard.fixed_point_s": busy("picard.fixed_point"),
        "picard.contraction_s": busy("picard.contraction"),
        "picard.apply_calls": calls("picard.apply"),
        "picard.iterations": stages.get("picard", {}).get("iterations", 0),
        "picard.frozen_solves": calls("picard.rhs_wave"),
        "geometry.integrate_frame_s": busy("geometry.integrate_frame"),
        "geometry.reconstruct_coords_s": busy("geometry.reconstruct_coords"),
        "geometry.degeneracy_s": busy("geometry.degeneracy"),
        "crossval.rect_solve_s": busy("crossval.rect_solve"),
        "crossval.rect_cell_steps_per_s": rate(
            rect["n_t"] * rect["n_x"], busy("crossval.rect_solve")),
        "crossval.pullback_s": busy("crossval.pullback"),
        "crossval.phase_shift_s": busy("crossval.phase_shift"),
        "background.phase_function_s": busy("background.phase_function"),
        "background.phase_function_calls": calls("background.phase_function"),
        "background.simpson_calls": calls("background.simpson"),
        "data_gauge.build_diagonal_s": busy("data_gauge.build_diagonal"),
        "report.write_s": busy("report.write"),
        "report.bytes_written": traced.bytes_written,
        "report.write_mb_per_s": rate(traced.bytes_written / 1e6,
                                      busy("report.write")),
        "trace_overhead_s": overhead_s,
    }
    # Stage times as the program reports them: the untraced unit's
    # RunResult.timings, or the median over the sweep's timings.json files.
    runs = sweep.timings if sweep is not None else untraced.timings
    for stage in ("data_gauge", "march", "picard", "geometry", "crossval",
                  "total"):
        m[f"pipeline.{stage}_s"] = median(t[stage] for t in runs)
    whole = sweep if sweep is not None else untraced
    m["cli.sweep_workers"] = whole.workers
    m["cli.sweep_efficiency"] = sum(t["total"] for t in whole.timings) / (
        whole.workers * whole.wall_s)
    return m


def _cache_sizes() -> dict:
    """{"L2": bytes, "L3": bytes} of cpu0, as the kernel lists them."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        for index in sorted(os.listdir(base)):
            level = _read(os.path.join(base, index, "level")).strip()
            size = _read(os.path.join(base, index, "size")).strip()
            if level in ("2", "3") and size.endswith("K"):
                sizes[f"L{level}"] = int(size[:-1]) * 1024
    except OSError:
        pass
    return sizes


def _cpu_model():
    try:
        for line in _read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # an exported checkout
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(wl: Workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nodes = wl.nodes
    caches = _cache_sizes()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba_imports": NUMBA_IMPORTS,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "git_commit": _git_commit(),
        "NULLWAVE_THREADS": os.environ.get("NULLWAVE_THREADS"),
        "workload": {
            "name": wl.name,
            "nodes": nodes,
            "bytes_per_field": 8 * nodes,
            "field_fits_L2": 8 * nodes <= caches.get("L2", 0),
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace-file", default=None,
                    help="where a traced run writes its spans")
    ap.add_argument("--pause-line", default=None,
                    help="print this between timed iterations and wait for "
                         "a line on stdin")
    ap.add_argument("--cpus", default=None,
                    help="comma-separated CPUs to pin this process (and the "
                         "sweep's workers) to")
    args = ap.parse_args(argv)
    if args.cpus:
        os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})

    if not os.path.abspath(nullwave.__file__).startswith(SRC + os.sep):
        print(f"error: nullwave imported from {nullwave.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    wl = Workload.from_dir(args.workload, args.work_dir)
    env = environment(wl)

    # Warm-up: the same workload on the smoke grid, untimed, so imports,
    # caches and (for the sweep) the first pool start are paid already.
    warm_dir = tempfile.mkdtemp(dir=args.work_dir)
    scenario, grid = inputs.make_inputs(
        args.workload, inputs.DEFAULT_SEED, os.path.join(ROOT, "scenarios"),
        tiny=True)
    inputs.write_inputs(warm_dir, scenario, grid)
    Workload(args.workload, scenario, grid, warm_dir).run_once()
    shutil.rmtree(warm_dir)

    out = {"env": env}
    if args.trace:
        samples, layers, tracer, table = traced_run(wl)
        out["layers"] = layers
        if args.trace_file:
            with open(args.trace_file, "w") as f:
                json.dump({"env": env, "layers": layers, "by_name": table,
                           "spans": tracer.spans}, f)
    else:
        samples = timed_run(wl, args.seconds, args.pause_line)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.grid is not None
                               else resource.RUSAGE_SELF)
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    out["march_backends"] = sorted({
        r["stages"]["march"]["backend"] for s in samples for r in s.reports
        if "march" in r["stages"]})
    out["samples"] = [{"wall_s": s.wall_s, "cpu_s": s.cpu_s,
                       "start": s.start, "end": s.end,
                       "problems": s.problems} for s in samples]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
