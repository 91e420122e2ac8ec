"""Command-line front end: calculators, verifiers, and the acceptance suite.

Rationals cross this boundary as exact strings only ("p/q"); float fields are
always labeled as approximations. Identical arguments and seed produce
byte-identical output. Exit status: 0 on success, 1 on verification failure,
2 on usage or schema errors.

Each ``_cmd_*`` handler computes and returns its result without writing
anything; ``dispatch`` renders it in the requested ``--format`` and writes it
to stdout or ``--output``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from .acceptance import DEFAULT_SEED, run_all
from .bounds import conclusion_table, min_period_bound, weight_threshold
from .constants import ROUTES, favard_table
from .exact import StepFunction, format_rational, to_rational
from .kernels import min_abs_integral, phi_samples
from .solver import solve_periodic, solve_weighted, uniqueness_margin, reduce_system
from .witness import build_witness, verify_witness

__all__ = ["main", "dispatch"]


class SchemaError(Exception):
    """Instance-file violation carrying the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


# (payload, text lines, exit status): the payload is rendered as JSON or CSV
# (a dict is one row); text lines of None mean the text view is the CSV
Result = tuple[object, "list[str] | None", int]


def _parse_rational_arg(text: str, name: str) -> Fraction:
    try:
        return to_rational(text)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(name, f"not an exact rational: {text!r}")


def _to_csv(payload: list[dict] | dict) -> str:
    rows = [payload] if isinstance(payload, dict) else payload
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _to_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cmd_constants(args: argparse.Namespace) -> Result:
    table = favard_table(args.n_max, args.route)
    rows = table.to_rows()
    lines = [f"K_{r['n']} = {r['K_n']} ~ {r['K_n_float']!r}  [{r['routes']}]" for r in rows]
    return rows, lines, 1 if args.route == "all" and not table.all_routes_agree() else 0


def _cmd_kernel(args: argparse.Namespace) -> Result:
    if args.samples < 1:
        raise SchemaError("--samples", "must be >= 1")
    if not args.min_abs:
        return phi_samples(args.n, args.samples), None, 0
    ms = min_abs_integral(args.n)
    payload = {
        "n": ms.n,
        "xi_star": format_rational(ms.xi_star),
        "pi_power": ms.pi_power,
        "value_coeff": format_rational(ms.value_coeff),
        "value_float": ms.value,
        "exact": ms.exact,
        "error_bound_float": ms.value_error,
    }
    lines = [
        f"min over xi of the period integral of |phi_{ms.n} - xi|:",
        f"  xi* = {payload['xi_star']} * pi^{ms.pi_power}",
        f"  value = {payload['value_coeff']} * pi^{ms.pi_power + 1} ~ {ms.value!r}",
    ]
    return payload, lines, 0


def _cmd_witness(args: argparse.Namespace) -> Result:
    T = _parse_rational_arg(args.T, "--T")
    if args.emit_samples < 0:
        raise SchemaError("--emit-samples", "must be >= 0 (0 emits no samples)")
    w = build_witness(args.n, T)
    report = verify_witness(w)
    status = 0 if report.all_passed else 1
    if args.emit_samples:
        ts = [T * Fraction(i, args.emit_samples) for i in range(args.emit_samples)]
        return [{"t": format_rational(t), "y": float(w.y(t))} for t in ts], None, status
    payload = w.to_json_dict()
    payload["checks"] = report.to_json_dict()
    payload["all_checks_passed"] = report.all_passed
    lines = [
        f"n = {w.n}, T = {format_rational(w.T)}",
        f"L_crit = {format_rational(w.L_crit)}  (threshold attained: L K_n T^n = 1)",
        f"C = {format_rational(w.C)}, sigma = {w.sigma}",
        f"tau: [0,T/2) -> {format_rational(w.tau.first)}, [T/2,T) -> {format_rational(w.tau.second)}",
        f"checks: {'all passed' if report.all_passed else report.first_failure}",
    ]
    return payload, lines, status


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise SchemaError(f"{path}.{key}" if path else key, "missing required field")
    return data[key]


def _parse_step(data, path: str, period: Fraction) -> StepFunction:
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object with breakpoints and values")
    raw_bps = _require(data, "breakpoints", path)
    raw_vals = _require(data, "values", path)
    if not isinstance(raw_bps, list) or len(raw_bps) < 2:
        raise SchemaError(f"{path}.breakpoints", "need a list of at least two rationals")
    if not isinstance(raw_vals, list) or len(raw_vals) != len(raw_bps) - 1:
        raise SchemaError(f"{path}.values", "need one value per interval")
    parsed = []
    for key, raw in (("breakpoints", raw_bps), ("values", raw_vals)):
        items = []
        for i, s in enumerate(raw):
            where = f"{path}.{key}[{i}]"
            if not isinstance(s, str):
                raise SchemaError(where, "rationals must be strings")
            items.append(_parse_rational_arg(s, where))
        parsed.append(tuple(items))
    try:
        return StepFunction(*parsed, period)
    except ValueError as exc:
        raise SchemaError(path, str(exc))


def _cmd_solve(args: argparse.Namespace) -> Result:
    with open(args.instance) as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise SchemaError("<file>", f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise SchemaError("<file>", "the instance must be a JSON object")
    kind = _require(data, "kind", "")
    if kind not in ("lipschitz", "weighted"):
        raise SchemaError("kind", f"must be 'lipschitz' or 'weighted', got {kind!r}")
    n = _require(data, "n", "")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("n", "must be a positive integer")
    T = _parse_rational_arg(str(_require(data, "T", "")), "T")
    tau = _parse_step(_require(data, "tau", ""), "tau", T)
    if kind == "lipschitz":
        L = _parse_rational_arg(str(_require(data, "L", "")), "L")
        if "C" in data:
            C = _parse_rational_arg(str(data["C"]), "C")
            report = solve_periodic(n, T, L, tau, C)
        else:
            report = uniqueness_margin(reduce_system(n, T, L, tau))
    else:
        p = _parse_step(_require(data, "p", ""), "p", T)
        report = solve_weighted(n, T, p, tau)
    return report.to_json_dict(), None, 0


def _cmd_bounds(args: argparse.Namespace) -> Result:
    if args.weight:
        res = weight_threshold(args.n, _parse_rational_arg(args.T, "--T"))
        op = ">" if res.strict else ">="
        return res.to_json_dict(), [f"||p||_L1 {op} {format_rational(res.exact)}"], 0
    if args.L is None:
        raise SchemaError("--L", "required unless --weight is given")
    res = min_period_bound(args.n, _parse_rational_arg(args.L, "--L"))
    lines = [f"T^{args.n} >= {format_rational(res.exact)}"]
    if args.n == 1:
        lines.insert(0, f"T >= {format_rational(res.exact)}")
    elif res.float_value is not None:
        lines.append(f"T >= {res.float_value!r} (approx)")
    lines.append(f"alpha({args.n}) = {res.extras['alpha_n']!r} (approx)")
    lines.append(f"undeviated comparison: T >= {res.extras['ode_comparison']!r} (approx)")
    return res.to_json_dict(), lines, 0


def _cmd_table(args: argparse.Namespace) -> Result:
    rows = [r.to_json_dict() for r in conclusion_table(args.n_max)]
    lines = []
    for r in rows:
        power = f"/T^{r['power']}" if r["power"] else ""
        op = ">" if r["strict"] else ">="
        flag = "  ** differs from published value {} **".format(r["published_value"]) if r["erratum_flag"] else ""
        coeff = r["threshold"] if "/" not in r["threshold"] or not power else f"({r['threshold']})"
        lines.append(f"{r['family']}_{r['n']} {op} {coeff}{power}{flag}")
    return rows, lines, 0


def _cmd_suite(args: argparse.Namespace) -> Result:
    indices = None
    if args.criteria is not None:
        try:
            indices = [int(x) for x in args.criteria.split(",")]
        except ValueError:
            raise SchemaError("--criteria", "expected a comma-separated list of integers")
    results = run_all(seed=args.seed, indices=indices)
    # no wall-clock fields in the payload: identical arguments and seed give identical JSON bytes
    payload = [
        {"index": r.index, "name": r.name, "passed": r.passed and r.within_time, "detail": r.detail} for r in results
    ]
    return payload, [r.line() for r in results], 0 if all(r["passed"] for r in payload) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="favard",
        description=(
            "Sharp minimal-period thresholds for periodic solutions of n-th order "
            "Lipschitz functional differential equations, in exact rational arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    all_formats = ("text", "json", "csv")

    def output_options(p: argparse.ArgumentParser, func, formats=("text", "json")) -> None:
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("constants", help="Favard constants K_n by all exact routes")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--route", choices=("all",) + ROUTES, default="all")
    output_options(p, _cmd_constants, all_formats)

    p = sub.add_parser("kernel", help="kernel phi_n sampling and its optimal centering")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--samples", type=int, default=16, help="count (>= 1); rows are held in memory, so time and memory grow with it"
    )
    p.add_argument("--min-abs", action="store_true", help="report the minimized |phi_n - xi| integral")
    output_options(p, _cmd_kernel, all_formats)

    p = sub.add_parser("witness", help="build and verify the extremal periodic solution")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", default="1")
    p.add_argument(
        "--emit-samples", type=int, default=0, metavar="K", help="CSV of K equispaced (t, y(t)) float pairs (0: none)"
    )
    output_options(p, _cmd_witness)

    p = sub.add_parser("solve", help="solvability analysis of a periodic problem instance (JSON file)")
    p.add_argument("instance", help="path to the instance JSON")
    output_options(p, _cmd_solve, formats=())

    p = sub.add_parser("bounds", help="sharp period or weight thresholds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", default=None, help="Lipschitz constant (rational string)")
    p.add_argument("--weight", action="store_true", help="weight-threshold mode (needs --T)")
    p.add_argument("--T", default="1")
    output_options(p, _cmd_bounds)

    p = sub.add_parser("table", help="threshold coefficient table with erratum flags")
    p.add_argument("--n-max", type=int, default=5)
    output_options(p, _cmd_table, all_formats)

    p = sub.add_parser("suite", help="run the acceptance criteria and print the pass/fail matrix")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--criteria", default=None, help="comma-separated criterion indices (default: all)")
    output_options(p, _cmd_suite)

    return parser


def dispatch(args: argparse.Namespace) -> int:
    """Run one subcommand and write its result in the requested format (JSON where it has no --format)."""
    try:
        payload, lines, status = args.func(args)
        fmt = getattr(args, "format", "json")
        if fmt == "json":
            out = _to_json(payload)
        elif fmt == "csv" or lines is None:
            out = _to_csv(payload)
        else:
            out = "\n".join(lines) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(out)
        else:
            sys.stdout.write(out)
        return status
    except SchemaError as exc:
        print(f"usage error at {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, ValueError, ZeroDivisionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    # exact rationals may have any number of digits; lift the int<->str digit limit where it exists
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(argv)
    return dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
