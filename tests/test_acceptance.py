"""Acceptance gate: every shipped criterion must pass at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report); the CLI ``suite`` subcommand prints the same matrix.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favard.acceptance import CRITERIA, DEFAULT_SEED, _central_difference
from favard.exact import Polynomial


@pytest.mark.parametrize("criterion", CRITERIA, ids=[f"{c.index:02d}-{c.name}" for c in CRITERIA])
def test_criterion(criterion):
    result = criterion.run(seed=DEFAULT_SEED)
    print(result.line())
    assert result.passed, f"criterion {result.index} ({result.name}): {result.detail}"
    assert result.within_time, (
        f"criterion {result.index} ({result.name}) took {result.seconds:.2f}s, "
        f"limit {result.time_limit}s"
    )


rationals = st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**3))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 6), st.data())
def test_central_difference_exact_to_degree_n_plus_1(n, data):
    # criterion 8 requires a zero residual: the n-th central difference equals u^(n)
    # exactly on every polynomial of degree <= n + 1, whatever the step
    coeffs = data.draw(st.lists(rationals, min_size=0, max_size=n + 2))
    u = Polynomial(coeffs)
    t = data.draw(rationals)
    h = data.draw(rationals.filter(bool))
    d = u
    for _ in range(n):
        d = d.derivative()
    assert _central_difference(u, t, h, n) == d(t)


def test_central_difference_inexact_at_degree_n_plus_2():
    # one degree more and the error term h^2 u^(n+2) n / 24 appears, so the check is not vacuous
    for n in range(1, 6):
        u = Polynomial([0] * (n + 2) + [1])
        d = u
        for _ in range(n):
            d = d.derivative()
        assert _central_difference(u, F(1, 3), F(1, 7), n) != d(F(1, 3))
