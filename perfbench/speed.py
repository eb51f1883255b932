"""Speed probes: how fast a CPU runs a fixed piece of Python while we measure.

    python3 perfbench/speed.py CPU

The machine is a VM on a shared host, and the speed of its CPUs changes
by up to half within seconds as neighbours load the hardware: a fixed
pure-Python loop flips between two durations about 45% apart.  The
workload's times follow.  In one process pinned to one CPU, membrane_pulse
pipeline iterations took 2.5 to 4.5 s, and the medians of six consecutive
iterations spread 0.28 (quartile distance over median).

A speed probe is a process pinned to one CPU that runs KERNEL_LOOPS turns
of a fixed Python loop every PERIOD_S and keeps, for each run of it, its
start on the monotonic clock and its duration.  It runs on the CPU the
measured process is pinned to, so it sees the same contention, at the
price of about 3% of that CPU.  It stops when its stdin closes and then
prints its samples as one JSON line.

``Probes.factor`` turns the samples around one measured interval into the
factor that scales a time measured there to the reference speed, the
speed at which the kernel takes REFERENCE_KERNEL_S.  Scaled so, the
medians of six consecutive iterations above spread 0.05 instead of 0.28:
the median kernel time over an iteration followed the iteration's time
with correlation 0.96.  A probe on the other CPU followed it with
correlation 0.5 only, hence the pinning.  The probe runs code of this
file only (the program is not imported), so a change to the program
cannot change it, and a faster program reads faster in scaled time too.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
from statistics import median
from time import perf_counter

KERNEL_LOOPS = 12_000
PERIOD_S = 0.03
# The kernel's time at the fast speed of the reference machine (a 2-vCPU
# Xeon VM): the low mode of its samples.
REFERENCE_KERNEL_S = 0.75e-3
# Samples this far outside an interval are still used for it, so that a
# 0.15 s set-up probe sees a dozen samples.
PAD_S = 0.2


def kernel() -> int:
    total = 0
    for i in range(KERNEL_LOOPS):
        total += (i * i) % 7
    return total


def sample(cpu: int) -> list:
    """[[start, duration], ...] until stdin closes (perf_counter clock)."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable:  # EOF: the measuring process is done
            return samples
        t0 = perf_counter()
        kernel()
        samples.append([t0, perf_counter() - t0])


class Probes:
    """One speed probe per CPU, started on entry and stopped on exit."""

    def __init__(self, cpus):
        self.cpus = list(cpus)
        self.samples = {}
        self._procs = []

    def __enter__(self):
        for cpu in self.cpus:
            self._procs.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
        return self

    def __exit__(self, exc_type, exc, tb):
        problems = []
        try:
            for cpu, proc in zip(self.cpus, self._procs):
                try:
                    out, _ = proc.communicate(input="", timeout=30)
                    self.samples[cpu] = json.loads(out)
                except (subprocess.TimeoutExpired, ValueError) as err:
                    problems.append(f"speed probe on cpu {cpu}: {err!r}")
        finally:
            for proc in self._procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        if problems and exc_type is None:
            raise RuntimeError("; ".join(problems))
        return False

    def factor(self, t0: float, t1: float) -> float:
        """Scale for a time measured in [t0, t1] on all probed CPUs.

        The reference kernel time over the median kernel time near the
        interval, averaged over the CPUs.
        """
        factors = []
        for cpu in self.cpus:
            near = [d for start, d in self.samples[cpu]
                    if t0 - PAD_S <= start <= t1 + PAD_S]
            if not near:
                raise RuntimeError(f"no speed samples on cpu {cpu} near "
                                   f"[{t0:.3f}, {t1:.3f}]")
            factors.append(REFERENCE_KERNEL_S / median(near))
        return sum(factors) / len(factors)


if __name__ == "__main__":
    print(json.dumps(sample(int(sys.argv[1]))))
