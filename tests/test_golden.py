"""Byte equality of CLI stdout against recorded golden files.

Each ``tests/golden/<name>.out`` holds the exact stdout of one command, except
``kernel_min_abs_n1_40.out``, which holds the ``kernel --min-abs`` JSON of
the orders 1..40 one after another; ``help.out`` and ``help_<command>.out``
hold the ``--help`` text of ``favard`` and of each subcommand at 80 columns.
A change that alters any of these bytes changes the CLI contract and must
re-record the file on purpose.

``CASES`` is the one list of single-command goldens. Each case runs twice: in
this process, after earlier tests have filled the module-level caches, and in
a fresh interpreter through the call the ``favard`` console script makes,
which fails if a handler or a suite criterion uses a module it does not
import itself.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from favard.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "constants": ["constants", "--n-max", "12", "--format", "json"],
    "kernel_min_abs": ["kernel", "--n", "6", "--min-abs", "--format", "json"],
    "kernel_min_abs_n7": ["kernel", "--n", "7", "--min-abs", "--format", "json"],
    "kernel_min_abs_n16": ["kernel", "--n", "16", "--min-abs", "--format", "json"],
    "witness": ["witness", "--n", "5", "--T", "5/2", "--format", "json"],
    "suite": ["suite", "--criteria", "5,10", "--format", "json"],
    "witness_text": ["witness", "--n", "6", "--T", "1/3"],
    "witness_n14_T97": ["witness", "--n", "14", "--T", "97", "--format", "json"],
    "witness_samples_n3": ["witness", "--n", "3", "--T", "5/2", "--emit-samples", "8"],
    "witness_samples_n3_json": ["witness", "--n", "3", "--T", "5/2", "--emit-samples", "8", "--format", "json"],
    "constants_text": ["constants", "--n-max", "8"],
    "kernel_min_abs_text": ["kernel", "--n", "6", "--min-abs"],
    "kernel_samples_n3_text": ["kernel", "--n", "3", "--samples", "8", "--format", "text"],
    "bounds_weight_text": ["bounds", "--n", "3", "--weight", "--T", "5/2"],
    "suite_c4_c6": ["suite", "--criteria", "4,6", "--format", "json"],
    "suite_c7_c11": ["suite", "--criteria", "7,11", "--format", "json"],
    "suite_c8_c9": ["suite", "--criteria", "8,9", "--format", "json"],
    "kernel_samples_n3": ["kernel", "--n", "3", "--samples", "8"],
    "table_json": ["table", "--n-max", "6", "--format", "json"],
    "table_text": ["table", "--n-max", "6"],
    "bounds_weight": ["bounds", "--n", "3", "--weight", "--T", "5/2", "--format", "json"],
    "bounds_lipschitz": ["bounds", "--n", "5", "--L", "3/2"],
    "bounds_lipschitz_json": ["bounds", "--n", "5", "--L", "3/2", "--format", "json"],
    "table_csv": ["table", "--n-max", "12", "--format", "csv"],
    "constants_recurrence": ["constants", "--route", "recurrence", "--n-max", "8", "--format", "csv"],
    "solve_lipschitz": ["solve", str(GOLDEN / "instances" / "solve_lipschitz.json")],
    "solve_lipschitz_forced": ["solve", str(GOLDEN / "instances" / "solve_lipschitz_forced.json")],
    "solve_weighted": ["solve", str(GOLDEN / "instances" / "solve_weighted.json")],
    "solve_weighted_interleaved": [
        "solve",
        str(GOLDEN / "instances" / "solve_weighted_interleaved.json"),
    ],
    "solve_lipschitz_forced_large": [
        "solve",
        str(GOLDEN / "instances" / "solve_lipschitz_forced_large.json"),
    ],
    "solve_lipschitz_large": ["solve", str(GOLDEN / "instances" / "solve_lipschitz_large.json")],
    "solve_witness_singular": ["solve", str(GOLDEN / "instances" / "solve_witness_singular.json")],
    "solve_lipschitz_forced_singular": [
        "solve",
        str(GOLDEN / "instances" / "solve_lipschitz_forced_singular.json"),
    ],
}


MIN_ABS_ORDERS = range(1, 41)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden_in_a_fresh_interpreter(name, src_env):
    # what the console script runs: only the modules the command imports itself are loaded
    script = "import sys, favard.cli; sys.exit(favard.cli.main())"
    proc = subprocess.run([sys.executable, "-c", script, *CASES[name]], env=src_env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()


def test_kernel_min_abs_orders_1_to_40_match_golden(capsys):
    # one file: the --min-abs JSON of every order n = 1..40, in order
    codes = [main(["kernel", "--n", str(n), "--min-abs", "--format", "json"]) for n in MIN_ABS_ORDERS]
    out = capsys.readouterr().out
    assert codes == [0] * len(MIN_ABS_ORDERS)
    assert out == (GOLDEN / "kernel_min_abs_n1_40.out").read_text()


HELP = ["", "bounds", "constants", "kernel", "solve", "suite", "table", "witness"]


@pytest.mark.parametrize("command", HELP)
def test_help_matches_golden(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    name = f"help_{command}" if command else "help"
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
