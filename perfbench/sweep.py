"""Run every workload over ten seeds and summarize, as a committed result set.

    python3 perfbench/sweep.py --out perfbench/baseline.json

Each run is a separate ``run.py`` process of ``run_seconds`` from
BENCHMARK.json, seeds 1..10, one workload after another. For every
end-to-end metric, and for the unadjusted figures beside the speed-adjusted
ones (``raw_*``, see ``speed.py``), the summary gives the median, the
quartiles and the spread (distance between the quartiles over the median);
one traced run per workload, at seed 1, adds every per-layer number.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10
RAW = ("raw_setup_s", "raw_wall_s", "raw_ops_per_s", "raw_op_p50_ms")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    out: dict = {"run_seconds": seconds, "seeds": list(range(1, RUNS + 1)), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in out["seeds"]:
            report, result = run(workload, seed, seconds, 0)
            out["environment"] = report["environment"]
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name in RAW:
                raw.setdefault(name, []).append(report["metrics"][name])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, file=sys.stderr)
        report, result = run(workload, 1, seconds, 1)
        out["workloads"][workload] = {
            "attempted": attempted + result["attempted"],
            "failed": failed + result["failed"],
            "inputs_seed_1": report["inputs"],
            "end_to_end": {name: summarize(v) for name, v in values.items()},
            "raw": {name: summarize(v) for name, v in raw.items()},
            "per_layer_seed_1": report["metrics"],
        }
        summary = out["workloads"][workload]
        for name, s in [*summary["end_to_end"].items(), *summary["raw"].items()]:
            unit = units[name.removeprefix("raw_")]
            print(f"{workload:13s} {name:14s} {s['median']:10.4f} {unit:4s} spread {s['spread']:.3f}")
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
