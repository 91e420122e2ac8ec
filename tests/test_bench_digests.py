"""The benchmark's byte-identity gate, run as a test: every seed-1 operation of every
``perfbench`` workload reproduces its recorded digest.

``perfbench/workloads.py`` builds the operations exactly as a benchmark run does
(the ``solve`` workload writes the instances of ``inputs.solve_inputs(1)`` to
files and runs ``favard.cli.main`` on each, hashing the exact fields of the
report), and ``perfbench/digests.json`` holds the digests recorded for seed 1.
Both are only read here.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", ["solve", "suite", "kernel-roots"])
def test_seed_one_digests(workload, workloads, tmp_path):
    recorded = json.loads((BENCH / "digests.json").read_text())[workload]
    ops, _ = workloads.build(workload, SEED, tmp_path)
    assert sorted(op.id for op in ops) == sorted(recorded)
    for op in ops:
        out = op.call()
        assert op.check(out) is None, op.id
        assert op.digest(out) == recorded[op.id], op.id
