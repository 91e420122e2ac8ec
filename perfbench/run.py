"""Layered benchmark for favard: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload suite|solve|kernel-roots \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` beside this
directory, never from an installed copy. Inputs are made from the seed before
timing starts. The client runs the workload's operations in order, each one
after the previous returned (a closed loop with one client), and starts over
when it reaches the end; the first pass always completes and the loop stops
at the first operation boundary after ``--seconds``. Every output is checked
exactly after its clock stops.

With ``--trace 0`` the end-to-end metrics are measured with no tracing
installed. The host's own speed swings by up to two times over seconds to
tens of seconds, so ``wall_s``, ``ops_per_s``, ``op_p50_ms`` and ``setup_s``
are speed-adjusted: rescaled to a nominal machine speed by a reference task
that a probe process beside the benchmark runs every 0.1 s (see
``speed.py``). The unadjusted figures (``raw_wall_s``, ``raw_ops_per_s``,
``raw_op_p50_ms``, ``raw_setup_s``: wall time less the probe's runs) and the
reference task's median are on the report line. With ``--trace 1`` the loop runs whole passes in which each
operation runs twice back to back, first untraced and then with spans around
the public functions of each favard module (see ``tracer.py``); per-layer
numbers are per traced pass, and ``trace.overhead_frac`` compares the traced
runs with the untraced ones beside them, both speed-adjusted. The
metric names and units printed on the last line are those of
``BENCHMARK.json``; the line before it is a full report: environment, input
properties, every latency, sample counts, p95 where at least ten samples lie
beyond it, and every per-layer number of ``layers.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = BENCH_DIR / "digests.json"
LAYERS = BENCH_DIR / "layers.json"

DEFAULT_SEED = 1
# half the launches before the timed loop and half after, so they sample two moments
SETUP_LAUNCHES = 10
# no operation starts later than this into the timed loop, whatever --seconds says
HARD_LIMIT_S = 140.0


class SetupTimer:
    """Wall time of a fresh interpreter importing favard.cli, launched several times."""

    def __init__(self) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.cmd = [sys.executable, "-c", "import favard.cli"]
        self.windows: list[tuple[float, float]] = []
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)  # bytecode compiled once, as after install

    def launch(self, count: int) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
            self.windows.append((t0, time.perf_counter()))


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "favard").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_loop(ops, start: float, until: float, step, whole_passes: bool = False) -> int:
    """Call step(op) over the ops in pass order until ``until`` seconds after ``start``.

    Returns the number of complete passes; the first pass always completes.
    Without ``whole_passes`` the loop stops at the first operation boundary
    past the deadline, so a run lasts about as long as it is asked to; with
    it, the loop stops only between passes, and starts no pass that would
    end past HARD_LIMIT_S if it took as long as the last one.
    """
    passes = 0
    pass_start = start
    while True:
        for op in ops:
            elapsed = time.perf_counter() - start
            if passes and not whole_passes and (elapsed >= until or elapsed >= HARD_LIMIT_S):
                return passes
            step(op)
        passes += 1
        now = time.perf_counter()
        if now - start >= until or (whole_passes and 2 * now - pass_start - start >= HARD_LIMIT_S):
            return passes
        pass_start = now


class Loop:
    """The record of a closed loop over the operations: every latency and check, per op."""

    def __init__(self, ops, reference: dict[str, str]) -> None:
        self.reference = reference  # op id -> digest every later run of the op must reproduce
        self.windows: dict[str, list[tuple[float, float]]] = {op.id: [] for op in ops}  # (start, end) per run
        self.passes = 0  # complete passes
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digests: dict[str, str] = {}

    def measure(self, op, tracer=None) -> None:
        """Run op once, timed, then check its output."""
        self.attempted += 1
        if tracer is not None:
            tracer.op_id = self.attempted
        t0 = time.perf_counter()
        try:
            out = op.call() if tracer is None else tracer.span("bench.op", op.call)
            error = None
        except Exception as exc:  # a raising operation is a failed operation
            out, error = None, f"raised {exc!r}"
        t1 = time.perf_counter()
        self.windows[op.id].append((t0, t1))
        if error is None:
            try:
                error = self._check(op, out)
            except Exception as exc:  # unreadable output fails the operation too
                error = f"check raised {exc!r}"
        if error is not None:
            self.failures.append(f"{op.id}: {error}")

    def _check(self, op, out) -> str | None:
        error = op.check(out)
        if error is not None:
            return error
        digest = op.digest(out)
        self.first_digests.setdefault(op.id, digest)
        expected = self.reference.setdefault(op.id, digest)
        return None if digest == expected else "exact output differs from the reference digest"

    def net(self, probe: speed.SpeedProbe, adjusted: bool) -> dict[str, list[float]]:
        """Latencies without the probe's runs inside them, speed-adjusted if asked."""
        return {op_id: [probe.net(t0, t1, adjusted) for t0, t1 in w] for op_id, w in self.windows.items()}

    @property
    def by_op(self) -> dict[str, list[float]]:
        """Wall seconds of every run, per op."""
        return {op_id: [t1 - t0 for t0, t1 in w] for op_id, w in self.windows.items()}

    def latency_report(self) -> dict:
        samples = [x for v in self.by_op.values() for x in v]
        out = {"samples": len(samples), "sample_p50_ms": statistics.median(samples) * 1000}
        if len(samples) >= 200:
            p95 = statistics.quantiles(samples, n=20)[18]
            if sum(1 for x in samples if x > p95) >= 10:
                out["sample_p95_ms"] = p95 * 1000
        return out


def op_medians(by_op: dict[str, list[float]]) -> list[float]:
    return [statistics.median(v) for v in by_op.values()]


def pass_estimate(by_op: dict[str, list[float]]) -> float:
    """Seconds one pass takes: the sum over operations of each one's median latency."""
    return sum(op_medians(by_op))


def layer_metrics(tracer, passes: int, overhead_frac: float) -> dict[str, float]:
    """Every metric of ``layers.json``, per traced pass."""
    out: dict[str, float] = {}
    for name, (calls, self_s, total_s) in tracer.totals().items():
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.self_s"] = self_s / passes
        out[f"{name}.total_s"] = total_s / passes
    for index in range(1, 12):
        out[f"acceptance.c{index:02d}.s"] = out.pop(f"acceptance.c{index:02d}.total_s")
    evals = tracer.hot.get(("exact.Polynomial.__call__", "roots.rational_roots"), (0,))[0]
    found = tracer.counts.get("roots.rational_roots.found", 0)
    out["roots.rational_roots.hit_ratio"] = found / evals if evals else 0.0
    out["solver.system_size.max"] = tracer.maxima.get("solver.system_size.max", 0)
    out["solver.det_bits.max"] = tracer.maxima.get("solver.det_bits.max", 0)
    out["trace.overhead_frac"] = overhead_frac
    return {m["name"]: out[m["name"]] for m in json.loads(LAYERS.read_text())["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help=f"store this run's exact-output digests as the reference for seed {DEFAULT_SEED}",
    )
    args = parser.parse_args(argv)

    if not (SRC / "favard" / "__init__.py").is_file():
        print(f"perfbench: favard sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import favard

    if Path(favard.__file__).resolve().parent != SRC / "favard":
        print(f"perfbench: imported favard from {favard.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    reference = {} if args.record_digests or args.seed != DEFAULT_SEED else dict(recorded.get(args.workload, {}))
    checked_against = "recorded digests" if reference else "first run of each op"

    speed.pin_to_one_cpu()
    with speed.SpeedProbe() as probe:
        setup = SetupTimer()
        setup.launch(SETUP_LAUNCHES // 2)
        workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            ops, properties = workloads.build(args.workload, args.seed, workdir)
            start = time.perf_counter()
            if args.trace:
                loop, traced = Loop(ops, reference), Loop(ops, reference)
                tracer = tracing.Tracer()

                def paired(op) -> None:
                    loop.measure(op)
                    tracer.install()
                    try:
                        traced.measure(op, tracer)
                    finally:
                        tracer.restore()

                loop.passes = traced.passes = run_loop(ops, start, args.seconds, paired, whole_passes=True)
                tracer.write_spans(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
            else:
                loop = Loop(ops, reference)
                loop.passes = run_loop(ops, start, args.seconds, loop.measure)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup.launch(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    loops = [loop, traced] if args.trace else [loop]
    metrics: dict[str, float] = {
        "setup_s": statistics.median(probe.net(t0, t1, adjusted=True) for t0, t1 in setup.windows),
        "raw_setup_s": statistics.median(probe.net(t0, t1, adjusted=False) for t0, t1 in setup.windows),
        "reference_task_median_s": statistics.median(probe.durations),
    }
    if args.trace:
        overhead = pass_estimate(traced.net(probe, True)) / pass_estimate(loop.net(probe, True)) - 1
        metrics.update(layer_metrics(tracer, traced.passes, overhead))
        wanted = spec["per_layer"]
    else:
        for prefix, adjusted in (("", True), ("raw_", False)):
            by_op = loop.net(probe, adjusted)
            metrics[f"{prefix}wall_s"] = pass_estimate(by_op)
            metrics[f"{prefix}ops_per_s"] = len(ops) / metrics[f"{prefix}wall_s"]
            metrics[f"{prefix}op_p50_ms"] = statistics.median(op_medians(by_op)) * 1000
        metrics["peak_rss_mb"] = peak_rss_mb
        wanted = spec["end_to_end"]

    if args.record_digests:
        recorded[args.workload] = loop.first_digests
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    attempted = sum(lp.attempted for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "inputs": properties,
        "complete_passes": [lp.passes for lp in loops],
        "latency": [lp.latency_report() for lp in loops],
        "op_latency_s": [lp.by_op for lp in loops],
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
        "digests_checked_against": checked_against,
        "metrics": metrics,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
