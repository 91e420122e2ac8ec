"""Machine speed sampled while a workload runs, to take host slowdowns out of latencies.

On a shared host the same pure-Python loop can take anywhere from one to two
times its unloaded time, and the factor drifts over seconds to tens of seconds
(seen on a 2-vCPU x86_64 virtual machine, with no steal time reported): the
raw figures of a 30 s run spread by 20 % to 50 % from run to run.
Every ``TICK_S`` a probe process runs a fixed reference task, exact rational
Horner evaluation and a small-integer divisor scan like the work favard does,
and records the CPU time it took. An operation's latency is its wall time
minus the probe's runs inside it, and its speed-adjusted latency rescales
that by ``NOMINAL_S`` over the median reference time around it: seconds on a
machine where the reference task takes ``NOMINAL_S``.

The probe is a process of its own, so it shares no interpreter state with
the program under test: not its heap, its garbage collector or its caches.
The benchmark pins itself and the probe to one CPU (``pin_to_one_cpu``), so
both see the same slowdowns; the reference task's CPU time leaves out the
moments the benchmark held that CPU.

    python3 perfbench/speed.py

runs the probe by hand: it samples until its stdin closes, then prints the
JSON list of [start, CPU seconds] of every reference run.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

TICK_S = 0.1
WINDOW_S = 0.25  # reference runs this close to an operation describe its speed
NOMINAL_S = 0.0015

_COEFFS = [Fraction((-1) ** k * (k * k + 1), 2 * k + 3) for k in range(13)]
_POINTS = [Fraction(k, 997) for k in range(1, 60, 4)]
_SCAN_TARGET = 2_147_483_647 * 1_000_003
_SCAN_LENGTH = 12000


def reference_task() -> None:
    """Half exact rational Horner steps, half a small-integer divisor scan.

    The two kinds of work slow down by different factors under contention,
    and favard's time is split between them (Fraction arithmetic everywhere,
    the rational-root divisor scan in root isolation).
    """
    for x in _POINTS:
        acc = Fraction(0)
        for c in reversed(_COEFFS):
            acc = acc * x + c
    n = _SCAN_TARGET
    d = 1
    while d < _SCAN_LENGTH:
        if n % d == 0:
            n //= d
        d += 1


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts from now on, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """The probe process, while entered; its runs are known once it has exited."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "SpeedProbe":
        cmd = [sys.executable, os.path.abspath(__file__)]
        self._proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        out, _ = self._proc.communicate("")  # closing stdin stops the probe
        if self._proc.returncode != 0:
            raise RuntimeError(f"speed probe exited with status {self._proc.returncode}")
        runs = json.loads(out)
        self.starts = [start for start, _ in runs]
        self.durations = [duration for _, duration in runs]

    def inside(self, t0: float, t1: float) -> float:
        """Seconds the reference task ran between t0 and t1."""
        return sum(self.durations[bisect_left(self.starts, t0) : bisect_left(self.starts, t1)])

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median reference time from WINDOW_S before t0 to WINDOW_S after t1."""
        window = self.durations[bisect_left(self.starts, t0 - WINDOW_S) : bisect_right(self.starts, t1 + WINDOW_S)]
        return NOMINAL_S / statistics.median(window or self.durations)

    def net(self, t0: float, t1: float, adjusted: bool) -> float:
        """Seconds from t0 to t1 without the probe's runs, speed-adjusted if asked."""
        seconds = t1 - t0 - self.inside(t0, t1)
        return seconds * self.scale(t0, t1) if adjusted else seconds


def serve() -> None:
    """Run the reference task every TICK_S until stdin closes, then print every run."""
    runs = []
    while not select.select([sys.stdin], [], [], TICK_S)[0]:
        start = time.perf_counter()  # the system-wide monotonic clock, as in the benchmark
        cpu = time.process_time()
        reference_task()
        runs.append((start, time.process_time() - cpu))
    print(json.dumps(runs))


if __name__ == "__main__":
    serve()
