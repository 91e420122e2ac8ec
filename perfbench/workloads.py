"""The three workloads as lists of operations, each with its exact output check.

An operation calls into favard through module attributes looked up at call
time, so the tracer's wrappers see it. ``call`` is the timed part; ``check``
runs after the clock stops and returns None or the reason the output is wrong;
``digest`` condenses the exact output so passes and recorded runs can be
compared byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import favard.cli
import favard.kernels
import favard.witness

import inputs

WORKLOADS = ("suite", "solve", "kernel-roots")


@dataclass
class Op:
    id: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], str]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Op], dict]:
    """Operations of one pass and the input properties to record beside the numbers."""
    if workload == "suite":
        return _suite(seed)
    if workload == "solve":
        return _solve(seed, workdir)
    if workload == "kernel-roots":
        return _kernel_roots(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- suite


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = favard.cli.main(argv)
    return rc, buf.getvalue()


def _check_suite(out) -> str | None:
    rc, text = out
    if rc != 0:
        return f"exit status {rc}"
    rows = json.loads(text)
    failed = [r["index"] for r in rows if not r["passed"]]
    if len(rows) != 1 or failed:
        return f"criteria not passed: {failed or rows}"
    return None


def _suite(seed: int) -> tuple[list[Op], dict]:
    ops = []
    for spec in inputs.suite_inputs(seed):
        argv = ["suite", "--seed", str(spec["suite_seed"]), "--criteria", str(spec["index"]), "--format", "json"]
        ops.append(
            Op(
                id=f"c{spec['index']:02d}",
                call=lambda argv=argv: _run_cli(argv),
                check=_check_suite,
                digest=lambda out: _sha(out[1]),
            )
        )
    return ops, {"criteria": len(ops), "suite_seed": seed}


# ----------------------------------------------------------------- solve


EXACT_FIELDS = ("status", "determinant", "solution_samples", "constant")


def _solve_verdict(kind: str, report: dict) -> str | None:
    """The verdict class each kind of instance must get, by construction."""
    status = report["status"]
    if kind == "witness":
        samples = report.get("solution_samples") or []
        if status != "nontrivial_kernel" or report["determinant"] != "0" or not any(s != "0" for s in samples):
            return f"witness instance: {status}, determinant {report['determinant']}"
        return None
    if status == "nontrivial_kernel" or report["determinant"] == "0":
        return f"{kind} instance below the threshold reported {status}"
    if kind == "below_C" and (status != "unique" or "solution_samples" not in report or "constant" not in report):
        return f"inhomogeneous instance without a unique solution: {status}"
    return None


def _solve(seed: int, workdir: Path) -> tuple[list[Op], dict]:
    instances = inputs.solve_inputs(seed)
    properties = {
        "instances": len(instances),
        "J_histogram": inputs.histogram(i.J for i in instances),
        "n_histogram": inputs.histogram(i.n for i in instances),
        "kind_mix": inputs.histogram(i.kind for i in instances),
    }
    det_bits: dict[str, int] = {}
    ops = []
    for inst in instances:
        path = workdir / f"{inst.name}.json"
        out = workdir / f"{inst.name}.out.json"
        path.write_text(json.dumps(inst.payload, indent=1))
        argv = ["solve", str(path), "--output", str(out)]

        def check(rc, kind=inst.kind, out=out):
            if rc != 0:
                return f"exit status {rc}"
            return _solve_verdict(kind, json.loads(out.read_text()))

        def digest(rc, name=inst.name, out=out):
            report = json.loads(out.read_text())
            det_bits[name] = fraction_bits(Fraction(report["determinant"]))
            bits = sorted(det_bits.values())
            properties["det_bits"] = {"min": bits[0], "median": bits[len(bits) // 2], "max": bits[-1]}
            return _sha(json.dumps({k: report.get(k) for k in EXACT_FIELDS}, sort_keys=True))

        ops.append(Op(id=inst.name, call=lambda argv=argv: favard.cli.main(argv), check=check, digest=digest))
    return ops, properties


# ---------------------------------------------------------- kernel-roots


def _kernel_roots(seed: int) -> tuple[list[Op], dict]:
    specs = inputs.kernel_roots_inputs(seed)
    K = inputs.favard_constants(max(s["n"] for s in specs))
    ops = []
    for spec in specs:
        n = spec["n"]
        if spec["kind"] == "min_abs":
            call = lambda n=n: favard.kernels.min_abs_integral(n)

            def check(ms, n=n):
                if not ms.exact or ms.value_coeff != 2**n * K[n]:
                    return f"min_abs_integral({n}): {ms.value_coeff} != 2^n K_n"
                return None

            digest = lambda ms: f"{ms.xi_star} {ms.value_coeff}"
            op_id = f"min_abs-n{n}"
        elif spec["kind"] == "ratio":
            T = spec["T"]
            call = lambda n=n, T=T: favard.witness.extremal_ratio(favard.witness.build_witness(n, T))

            def check(ratio, n=n, T=T):
                return None if ratio == K[n] * T**n else f"extremal_ratio(n={n}, T={T}) = {ratio} != K_n T^n"

            digest = str
            op_id = f"ratio-n{n}"
        else:
            xi = spec["xi"]
            call = lambda n=n, xi=xi: favard.kernels.centered_abs_integral(n, xi)

            def check(result, n=n, xi=xi):
                est, err = result
                if err < 0 or est + err < 2**n * K[n]:
                    return f"centered_abs_integral({n}, {xi}): {est} + {err} below the minimum"
                return None

            digest = lambda result: f"{result[0]} {result[1]}"
            op_id = f"centered-n{n}"
        ops.append(Op(id=op_id, call=call, check=check, digest=digest))
    properties = {
        "kind_mix": inputs.histogram(s["kind"] for s in specs),
        "ratio_periods": [str(s["T"]) for s in specs if s["kind"] == "ratio"],
        "centered_level_bits": [fraction_bits(s["xi"]) for s in specs if s["kind"] == "centered"],
    }
    return ops, properties


def fraction_bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())
