import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favard.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_csv_matches_known_table(capsys):
    code, out, _ = run_cli(capsys, "constants", "--n-max", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,K_n,K_n_float,routes"
    values = {int(row.split(",")[0]): row.split(",")[1] for row in lines[1:]}
    assert values[4] == "5/6144"
    assert values[6] == "61/2949120"
    assert all("closed_form+generating+recurrence" in row for row in lines[1:])


def test_constants_rationals_reparse_exactly(capsys):
    code, out, _ = run_cli(capsys, "constants", "--n-max", "8", "--format", "json")
    rows = json.loads(out)
    for row in rows:
        assert float(F(row["K_n"])) == row["K_n_float"]


def test_bounds_first_order_text(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "1", "--L", "1")
    assert code == 0
    assert "T >= 4" in out


def test_bounds_requires_L(capsys):
    code, out, err = run_cli(capsys, "bounds", "--n", "2")
    assert code == 2 and out == ""
    assert err == "usage error at --L: required unless --weight is given\n"


def test_bounds_weight_mode(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "2", "--weight", "--T", "1")
    assert code == 0
    assert "> 16" in out


def test_bounds_bad_rational(capsys):
    code, _, err = run_cli(capsys, "bounds", "--n", "1", "--L", "abc")
    assert code == 2


@pytest.mark.parametrize(
    "argv, key",
    [
        (["bounds", "--n", "400", "--L", "1"], "L"),
        (["bounds", "--n", "400", "--weight", "--T", "1"], "P"),
        (["table", "--n-max", "400", "--format", "json"], "table"),
    ],
)
def test_order_400_floats_do_not_overflow(capsys, argv, key):
    # 1/K_400 and 4/K_399 exceed the float range; the exact values still print
    from favard.constants import favard_closed_form

    exact = {"L": 1 / favard_closed_form(400), "P": 4 / favard_closed_form(399)}
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and "Traceback" not in err
    if key == "table":
        rows = {(r["family"], r["n"]): r for r in json.loads(out)}
        for family, value in exact.items():
            assert F(rows[family, 400]["threshold"]) == value
            assert rows[family, 400]["threshold_float"] is None
    else:
        assert str(exact[key]) in out


def test_witness_json(capsys):
    code, out, _ = run_cli(capsys, "witness", "--n", "2", "--T", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["L_crit"] == "32"
    assert payload["all_checks_passed"] is True
    assert all(v is True for v in payload["checks"].values())


def test_witness_samples_csv(capsys):
    code, out, _ = run_cli(capsys, "witness", "--n", "1", "--T", "1", "--emit-samples", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,y"
    assert len(lines) == 9


def test_witness_samples_json(capsys):
    # --format json applies to the sample rows too; the text view of the samples is their CSV
    code, out, _ = run_cli(capsys, "witness", "--n", "3", "--emit-samples", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"t": "0", "y": -1.0}, {"t": "1/2", "y": 1.0}]


def test_table_flags_exactly_two_errata(capsys):
    code, out, _ = run_cli(capsys, "table", "--n-max", "5", "--format", "json")
    rows = json.loads(out)
    flagged = [(r["family"], r["n"]) for r in rows if r["erratum_flag"]]
    assert sorted(flagged) == [("L", 3), ("P", 5)]


def test_solve_instance_round_trip(tmp_path, capsys):
    instance = {
        "kind": "lipschitz",
        "n": 2,
        "T": "1",
        "L": "32",
        "tau": {"breakpoints": ["0", "1/2", "1"], "values": ["3/4", "1/4"]},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "nontrivial_kernel"
    assert report["determinant"] == "0"
    assert report["solution_samples"] == ["-1", "1"]


def test_solve_weighted_instance(tmp_path, capsys):
    instance = {
        "kind": "weighted",
        "n": 1,
        "T": "1",
        "p": {"breakpoints": ["0", "1/2", "1"], "values": ["39/10", "0"]},
        "tau": {"breakpoints": ["0", "1"], "values": ["1/4"]},
    }
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(instance))
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert json.loads(out)["status"] == "unique"


def test_solve_L_zero_homogeneous_is_degenerate(tmp_path, capsys):
    instance = {
        "kind": "lipschitz",
        "n": 2,
        "T": "1",
        "L": "0",
        "tau": {"breakpoints": ["0", "1/2", "1"], "values": ["3/4", "1/4"]},
    }
    path = tmp_path / "l0.json"
    path.write_text(json.dumps(instance))
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "nontrivial_kernel"
    assert report["determinant"] == "0"
    assert report["provenance"]["route"] == "degenerate_L0"


@pytest.mark.parametrize("extra", [{}, {"C": "3"}])
def test_solve_huge_period_reports_null_margin(tmp_path, capsys, extra):
    instance = {
        "kind": "lipschitz",
        "n": 2,
        "T": "1e400",
        "L": "1",
        "tau": {"breakpoints": ["0", "1e399", "1e400"], "values": ["0", "5e399"]},
        **extra,
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(instance))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 0, err
    report = json.loads(out)
    assert report["margin"] is None
    assert "margin_unavailable" in report["provenance"]
    assert report["status"] == "unique"
    assert report["determinant"] != "0"


def test_solve_large_period_is_not_near_singular(tmp_path, capsys):
    # the zero-mean row scales with T; divided by T the 2x2 system is well conditioned
    instance = {
        "kind": "lipschitz",
        "n": 4,
        "T": "1e40",
        "L": "1",
        "tau": {"breakpoints": ["0", "1e40"], "values": ["0"]},
    }
    path = tmp_path / "large.json"
    path.write_text(json.dumps(instance))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 0, err
    report = json.loads(out)
    assert report["status"] == "unique"
    assert report["margin"] == 1.0
    assert report["determinant"] == str(10**40)


def test_solve_schema_violation_reports_field_path(tmp_path, capsys):
    instance = {
        "kind": "lipschitz",
        "n": 2,
        "T": "1",
        "L": "32",
        "tau": {"breakpoints": ["0", "1/2", "1"], "values": ["3/4", "7/4"]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(instance))
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "tau.values[1]" in err


@pytest.mark.parametrize(
    "kind, field, value, named",
    [
        ("lipschitz", "L", "-1", "L must be >= 0"),
        ("weighted", "p", {"breakpoints": ["0", "1/2", "1"], "values": ["3", "-1/2"]}, "p.values[1] = -1/2"),
        ("lipschitz", "tau", {"breakpoints": ["0", "1/2", "1"], "values": ["3/4", "7/4"]}, "tau.values[1] = 7/4"),
    ],
)
def test_solve_range_errors_come_from_the_solver(tmp_path, capsys, kind, field, value, named):
    # the range checks live in the solver only; at L = 0 a bad tau still exits 2
    instance = {
        "kind": kind,
        "n": 2,
        "T": "1",
        "L": "0",
        "C": "1",
        "p": {"breakpoints": ["0", "1"], "values": ["1"]},
        "tau": {"breakpoints": ["0", "1/2", "1"], "values": ["3/4", "1/4"]},
        field: value,
    }
    path = tmp_path / "range.json"
    path.write_text(json.dumps(instance))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and named in err


@pytest.mark.parametrize(
    "field, item, expected",
    [
        ("tau", ("breakpoints", [0, "1", "2"]), "usage error at tau.breakpoints[0]: rationals must be strings\n"),
        ("p", ("values", ["3", "1/x", "7/4"]), "usage error at p.values[1]: not an exact rational: '1/x'\n"),
        ("tau", ("breakpoints", ["0"]), "usage error at tau.breakpoints: need a list of at least two rationals\n"),
        ("p", ("values", ["3", "0"]), "usage error at p.values: need one value per interval\n"),
    ],
)
def test_solve_step_schema_paths(tmp_path, capsys, field, item, expected):
    instance = {
        "kind": "weighted",
        "n": 2,
        "T": "2",
        "p": {"breakpoints": ["0", "1/2", "3/2", "2"], "values": ["3", "0", "7/4"]},
        "tau": {"breakpoints": ["0", "1", "2"], "values": ["1/2", "3/2"]},
    }
    key, value = item
    instance[field][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(instance))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err == expected


@pytest.mark.parametrize(
    "T, breakpoints, expected",
    [
        ("2", ["0", "1", "3/2"], "breakpoints must run from 0 to T"),
        ("2", ["1/2", "1", "2"], "breakpoints must run from 0 to T"),
        ("2", ["0", "3/2", "1", "2"], "breakpoints must be strictly increasing"),
        ("2", ["0", "1", "1", "2"], "breakpoints must be strictly increasing"),
        # a period T <= 0 is checked before the breakpoints, whatever they are, and never divides
        ("0", ["0", "1"], "period must be positive"),
        ("0", ["0", "0"], "period must be positive"),
        ("-1", ["0", "1"], "period must be positive"),
        ("-2", ["0", "-1", "-2"], "period must be positive"),
    ],
)
def test_solve_partition_errors(tmp_path, capsys, T, breakpoints, expected):
    instance = {
        "kind": "lipschitz",
        "n": 2,
        "T": T,
        "L": "1",
        "tau": {"breakpoints": breakpoints, "values": ["0"] * (len(breakpoints) - 1)},
    }
    path = tmp_path / "partition.json"
    path.write_text(json.dumps(instance))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err == f"usage error at tau: {expected}\n"


def test_solve_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error at <file>: invalid JSON: ") and err.count("\n") == 1


def test_solve_missing_field_path(tmp_path, capsys):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"kind": "lipschitz", "n": 2, "T": "1", "L": "32"}))
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "tau" in err


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent/instance.json")
    assert code == 2


def test_solve_non_object_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "five.json"
    path.write_text("5")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert "JSON object" in err


def test_solve_boolean_order_exits_2(tmp_path, capsys):
    instance = {
        "kind": "lipschitz",
        "n": True,
        "T": "1",
        "L": "1",
        "tau": {"breakpoints": ["0", "1"], "values": ["0"]},
    }
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(instance))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert "usage error at n:" in err


def test_solve_directory_instance_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "solve", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error")


# ------------------------------------------------------------ schema fuzz

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(width=16),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


BAD_RATIONALS = st.sampled_from(["-1", "0", "1/0", "x", "", "7/2", "1e3"])


@st.composite
def steps(draw, T, values):
    """A well-formed step dict on a grid of T/6; ``values`` draws the strings of its values."""
    cuts = sorted(draw(st.sets(st.integers(1, 5), max_size=3)))
    breakpoints = ["0"] + [f"{T * k}/6" for k in cuts] + [str(T)]
    return {"breakpoints": breakpoints, "values": [draw(values) for _ in breakpoints[1:]]}


@st.composite
def solve_instances(draw):
    """A valid ``solve`` instance (n <= 6, at most four pieces, small rationals) after
    up to three mutations: a field dropped, replaced by junk or a bad rational,
    a step field broken, or the whole document replaced by a non-object."""
    T = draw(st.integers(1, 3))
    rational = st.builds("{}/{}".format, st.integers(0, 20), st.integers(1, 4))
    doc = {
        "kind": draw(st.sampled_from(["lipschitz", "weighted"])),
        "n": draw(st.integers(1, 6)),
        "T": str(T),
        "L": draw(rational),
        "tau": draw(steps(T, st.builds(lambda k: f"{T * k}/6", st.integers(0, 6)))),
        "p": draw(steps(T, rational)),
    }
    if draw(st.booleans()):
        doc["C"] = draw(rational)
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(doc)))
        how = draw(st.sampled_from(["drop", "junk", "bad", "step"]))
        if how == "drop":
            doc.pop(key)
        elif how == "step" and isinstance(doc[key], dict):
            sub = draw(st.sampled_from(["breakpoints", "values"]))
            doc[key] = {**doc[key], sub: draw(st.one_of(junk, st.lists(BAD_RATIONALS, max_size=3)))}
        else:
            doc[key] = draw(junk if how == "junk" else BAD_RATIONALS)
    return draw(st.one_of(st.just(doc), st.just(doc), st.just(doc), junk))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(solve_instances())
def test_solve_schema_fuzz_never_tracebacks(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", str(path)])
    assert code in (0, 1, 2)
    assert (code == 0) == (out.getvalue() != "")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_kernel_min_abs(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--n", "2", "--min-abs", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["xi_star"] == "1/48"
    assert payload["value_coeff"] == "1/8"
    assert payload["exact"] is True


def test_kernel_samples_csv(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--n", "3", "--samples", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,phi_n_coeff,pi_power,float_value"
    assert len(lines) == 9


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_samples_where_pi_power_overflows_a_double(capsys, fmt):
    # pi^649 and |phi_n_coeff| ~ pi^-649 are out of the float range; phi_650(0) = -1/pi, phi_650(pi) = 1/pi
    code, out, err = run_cli(capsys, "kernel", "--n", "650", "--samples", "2", "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        values = [row["float_value"] for row in json.loads(out)]
    else:
        values = [float(line.rsplit(",", 1)[1]) for line in out.strip().splitlines()[1:]]
    assert values == pytest.approx([-1 / math.pi, 1 / math.pi], rel=1e-12)


def test_suite_subset_and_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "suite", "--criteria", "1,3,10")
    code2, out2, _ = run_cli(capsys, "suite", "--criteria", "1,3,10", "--format", "json")
    assert code1 == 0 and code2 == 0
    rows = json.loads(out2)
    assert [r["index"] for r in rows] == [1, 3, 10]
    assert all(r["passed"] for r in rows)


@pytest.mark.parametrize(
    "argv, unknown",
    [
        (["suite", "--criteria", "99"], "99"),
        (["suite", "--criteria", "3,99"], "99"),
        (["suite", "--criteria", "3,99", "--format", "json"], "99"),
        (["suite", "--criteria", "0,12,5", "--format", "json"], "0, 12"),
        (["suite", "--criteria", ""], None),
        (["suite", "--criteria", ","], None),
    ],
)
def test_suite_unknown_criterion_exits_2(capsys, argv, unknown):
    # an unknown index, or an explicitly empty list, is a usage error before any
    # criterion runs, not an empty or full passing matrix
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    if unknown is None:
        assert err == "usage error at --criteria: expected a comma-separated list of integers\n"
    else:
        assert f"no criterion {unknown}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--n", "3", "--samples", "0"],
        ["kernel", "--n", "3", "--samples", "0", "--format", "json"],
        ["kernel", "--n", "3", "--samples", "-3"],
        ["kernel", "--n", "3", "--samples", "-3", "--format", "json"],
        ["witness", "--n", "3", "--emit-samples", "-2"],
        ["witness", "--n", "3", "--emit-samples", "-2", "--format", "json"],
        ["kernel", "--n", "3", "--min-abs", "--samples", "-5"],
        ["kernel", "--n", "3", "--min-abs", "--samples", "0", "--format", "json"],
    ],
)
def test_non_positive_sample_count_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "usage error" in err and "Traceback" not in err


def test_suite_json_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "suite", "--criteria", "3,10", "--format", "json")
    code2, out2, _ = run_cli(capsys, "suite", "--criteria", "3,10", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "table", "--n-max", "3", "--format", "csv", "--output", str(target))
    assert code == 0
    assert out == ""
    content = target.read_text()
    assert content.startswith("family,n,threshold")


ALL_FORMATS = ("text", "json", "csv")
TEXT_JSON = ("text", "json")
# every subcommand and mode with each --format it accepts (solve has no --format and prints JSON);
# kept cheap: orders at most 4, at most 4 samples, one acceptance criterion
FORMAT_MATRIX = {
    "constants": (["constants", "--n-max", "4"], ALL_FORMATS),
    "kernel-samples": (["kernel", "--n", "3", "--samples", "4"], ALL_FORMATS),
    "kernel-min-abs": (["kernel", "--n", "3", "--min-abs"], ALL_FORMATS),
    "witness": (["witness", "--n", "3"], TEXT_JSON),
    "witness-samples": (["witness", "--n", "3", "--emit-samples", "4"], TEXT_JSON),
    "bounds-L": (["bounds", "--n", "3", "--L", "1"], TEXT_JSON),
    "bounds-weight": (["bounds", "--n", "3", "--weight"], TEXT_JSON),
    "table": (["table", "--n-max", "3"], ALL_FORMATS),
    "suite": (["suite", "--criteria", "1"], TEXT_JSON),
    "solve": (["solve", str(Path(__file__).parent / "golden" / "instances" / "solve_lipschitz.json")], (None,)),
}


@pytest.mark.parametrize(
    "mode, fmt", [(mode, fmt) for mode, (_, formats) in FORMAT_MATRIX.items() for fmt in formats]
)
def test_format_matrix(capsys, mode, fmt):
    argv = FORMAT_MATRIX[mode][0]
    code, out, err = run_cli(capsys, *argv, *(["--format", fmt] if fmt else []))
    assert code == 0 and err == "" and out.endswith("\n")
    if fmt == "text":
        return
    if fmt != "csv":
        json.loads(out)
        return
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    # the CSV carries the JSON view's rows (a JSON object is one row) under the same keys
    _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(json_out)
    payload = [payload] if isinstance(payload, dict) else payload
    assert [set(row) for row in rows] == [set(item) for item in payload]


# ------------------------------------------------------------ digits past the int<->str limit

LONG_SOLVE = {
    "kind": "lipschitz",
    "n": 3,
    "T": "1e1500",
    "L": "1",
    "tau": {"breakpoints": ["0", "5e1499", "1e1500"], "values": ["0", "5e1499"]},
}


@pytest.mark.parametrize(
    "argv, field, expected",
    [
        (["witness", "--n", "3", "--T", "1e-2000", "--format", "json"], "L_crit", None),
        (["bounds", "--n", "1", "--L", "1e-5000", "--format", "json"], "exact", "4" + "0" * 5000),
        (["bounds", "--n", "2", "--L", "7" * 4400, "--format", "json"], "exact", None),
        (["solve"], "determinant", None),
    ],
    ids=["witness-tiny-T", "bounds-tiny-L", "bounds-4400-digit-L", "solve-huge-T"],
)
def test_rationals_past_the_int_str_digit_limit(tmp_path, capsys, argv, field, expected):
    # Python limits int<->str conversions to 4,300 digits by default; exact rationals
    # on the command line and in its output may be longer
    if argv == ["solve"]:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(LONG_SOLVE))
        argv = ["solve", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    value = json.loads(out)[field]
    assert len(value) > 4300
    assert expected in (None, value)


def test_bounds_with_a_threshold_of_400000_digits(capsys):
    # 4 / (K_79 T^79) at T = 10^-5000: the exact field is printed by divide and conquer
    # (str(int) took about 5 s here); length and end digits as printed before
    code, out, err = run_cli(capsys, "bounds", "--n", "80", "--weight", "--T", "1e-5000", "--format", "json")
    assert code == 0 and err == ""
    exact = json.loads(out)["exact"]
    assert len(exact) == 395221 and exact.index("/") == 395142
    assert exact.startswith("111641502605198018577836575931")
    assert exact[:395142].isdigit() and exact[395143:].isdigit()
    assert exact.endswith("195814110016561779")


# ------------------------------------------------------------ argument fuzz

EXTREME_RATIONALS = [
    "1e-5000",
    "1e5000",
    "-1e-300",
    "7" * 4400,
    "1/" + "3" * 4400,
    "-" + "9" * 4301 + "/7",
]
ORDINARY_RATIONALS = ["0", "-1", "1", "5/2", "1/3", " 2/7 ", "0.125"]
BAD_ARGS = ["", "1/0", "abc", "nan", "inf", "1e", "--1", "1/-0"]
ARG_RATIONALS = st.one_of(
    st.sampled_from(EXTREME_RATIONALS),
    st.sampled_from(ORDINARY_RATIONALS),
    st.builds("{}/{}".format, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
    st.sampled_from(BAD_ARGS),
)
# mostly positive: periods, Lipschitz constants and weights must be, so these reach the computation
POSITIVE_MOSTLY = st.one_of(
    st.sampled_from([x for x in EXTREME_RATIONALS + ORDINARY_RATIONALS if "-" not in x and x != "0"]), ARG_RATIONALS
)
FORMATS = st.sampled_from(["text", "json", "text", "json", "csv", "xml"])
MALFORMED_JSON = ["", "{", "[1, 2", "null", '{"kind":', '{"kind": "lipschitz"}', "\u0000", '{"n": 1e999}']


@st.composite
def solve_documents(draw):
    """Instance text: malformed JSON, or a Lipschitz/weighted instance (n <= 3, three
    pieces) whose period, constants and step values are extreme rationals."""
    if draw(st.booleans()):
        return draw(st.sampled_from(MALFORMED_JSON))
    m = draw(st.integers(1, 9))
    e = draw(st.sampled_from([-2000, -300, 0, 1, 300, 1500]))
    doc = {
        "kind": draw(st.sampled_from(["lipschitz", "weighted"])),
        "n": draw(st.sampled_from([1, 2, 3, 0])),
        "T": f"{4 * m}e{e}",
        "L": draw(POSITIVE_MOSTLY),
        "tau": {
            "breakpoints": ["0", f"{m}e{e}", f"{2 * m}e{e}", f"{4 * m}e{e}"],
            "values": [draw(st.sampled_from(["0", f"{m}e{e}", f"{3 * m}e{e}", f"{4 * m}e{e}"])) for _ in range(3)],
        },
        "p": {
            "breakpoints": ["0", f"{2 * m}e{e}", f"{4 * m}e{e}"],
            "values": [draw(POSITIVE_MOSTLY) for _ in range(2)],
        },
    }
    if draw(st.booleans()):
        doc["C"] = draw(POSITIVE_MOSTLY)
    return json.dumps(doc)


def orders(cap):
    return st.integers(-1, cap).map(str)  # passed as --n=<order>, so -1 reaches the program


@st.composite
def cli_arguments(draw):
    """(argv, instance text or None) for any subcommand. Order caps keep each example
    cheap: witness n <= 8 and weight-mode bounds n <= 12 (their exact outputs grow with
    T^n), kernel --min-abs n <= 24, constants and table n-max <= 60, bounds --L n <= 400,
    kernel sampling n <= 650 with at most 4 samples; suite runs only criteria 1, 3 and 10."""
    command = draw(st.sampled_from(["constants", "kernel", "witness", "solve", "bounds", "table", "suite"]))
    argv = [command]
    if command == "constants":
        argv += [f"--n-max={draw(orders(60))}", "--route", draw(st.sampled_from(["all", "recurrence", "nope"]))]
    elif command == "kernel":
        if draw(st.booleans()):
            argv += [f"--n={draw(orders(24))}", "--min-abs"]
        else:
            argv += [f"--n={draw(orders(650))}"]
        argv += [f"--samples={draw(st.integers(-1, 4))}"]
    elif command == "witness":
        argv += [f"--n={draw(orders(8))}", f"--T={draw(POSITIVE_MOSTLY)}", f"--emit-samples={draw(st.integers(-1, 3))}"]
    elif command == "bounds":
        if draw(st.booleans()):
            argv += [f"--n={draw(orders(12))}", "--weight", f"--T={draw(POSITIVE_MOSTLY)}"]
        else:
            argv += [f"--n={draw(orders(400))}"]
            if draw(st.integers(0, 3)):
                argv += [f"--L={draw(POSITIVE_MOSTLY)}"]
    elif command == "table":
        argv += [f"--n-max={draw(orders(60))}"]
    elif command == "suite":
        criteria = st.sampled_from(["", ",", "1", "3,10", "1,,3", " 10", "x", "99", "-1"])
        argv += [f"--criteria={draw(criteria)}", f"--seed={draw(st.integers(-(10**9), 10**9))}"]
    if command == "solve":
        return argv, draw(solve_documents())
    if draw(st.booleans()):
        argv += ["--format", draw(FORMATS)]
    return argv, None


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cli_arguments())
def test_any_arguments_exit_cleanly(case):
    # every subcommand either answers (exit 0) or reports a usage error (exit 2, nothing
    # on stdout); no input ends in a traceback
    argv, instance = case
    with tempfile.TemporaryDirectory() as tmp:
        if instance is not None:
            path = Path(tmp) / "instance.json"
            path.write_text(instance)
            argv = argv + [str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""


# one run of each subcommand, and of suite with criterion 1 (constants only), 9 (it solves
# instances) and 11, with every module the run loads that importing the CLI does not
LOAD_RUNS = {
    "bounds": (["bounds", "--n", "3", "--L", "1"], {"bounds"}),
    "constants": (["constants", "--n-max", "6"], set()),
    "kernel": (["kernel", "--n", "6", "--min-abs"], {"kernels", "roots"}),
    "solve": (
        ["solve", str(Path(__file__).parent / "golden" / "instances" / "solve_lipschitz.json")],
        {"solver", "numpy"},
    ),
    "suite": (["suite", "--criteria", "9"], {"acceptance", "sampling", "solver", "numpy"}),
    "suite-c1": (["suite", "--criteria", "1"], {"acceptance"}),
    "suite-c11": (["suite", "--criteria", "11"], {"acceptance", "roots", "sampling", "witness"}),
    "table": (["table", "--n-max", "5"], {"bounds"}),
    "witness": (["witness", "--n", "3", "--T", "1"], {"roots", "witness"}),
}


@pytest.mark.parametrize("command", sorted(LOAD_RUNS))
def test_each_command_loads_only_its_modules(command, src_env):
    # a fresh interpreter: importing the CLI loads no handler's module, and each command loads its own
    argv, loads = LOAD_RUNS[command]
    script = (
        "import json, sys, favard.cli\n"
        "at_import = sorted(sys.modules)\n"
        f"code = favard.cli.main({argv!r})\n"
        "print(json.dumps([code, at_import, sorted(sys.modules)]), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=src_env, capture_output=True, text=True, check=True)
    code, at_import, after = json.loads(proc.stderr)
    assert code == 0
    ours = {m for m in after if m in ("favard", "numpy") or m.startswith("favard.")}
    base = {f"favard.{m}" for m in ("cli", "constants", "exact", "numbers")} | {"favard"}
    assert ours & set(at_import) == base
    assert ours - set(at_import) == {m if m == "numpy" else f"favard.{m}" for m in loads}
