"""Integer piecewise-polynomial routines against the Fraction code they replaced.

The ``reference_*`` functions are the bodies ``PiecewisePolynomial.mean``,
``antiderivative``, ``piece_index``, ``left_limit_in_unit`` and
``sampling.periodic_antiderivatives`` had before those ran on integer
coefficient rows over one denominator and integer breakpoint numerators:
every step there is a ``Fraction`` operation, and ``periodic_antiderivatives``
calls ``antiderivative`` and then ``mean`` at each order. Equality here is
``==`` on canonical Fractions and on whole ``PiecewisePolynomial`` values.
"""

from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favard.exact import PiecewisePolynomial, Polynomial
from favard.sampling import periodic_antiderivatives


def _spans(pw):
    return zip(pw.pieces, pw.breakpoints, pw.breakpoints[1:])


def reference_mean(pw):
    return sum((p.integrate(a, b) for p, a, b in _spans(pw)), F(0))


def reference_antiderivative(pw):
    out = []
    running = F(0)
    for p, a, b in _spans(pw):
        P = p.antiderivative()
        Pa = P(a)
        out.append((Polynomial.const(running - Pa) + P) * pw.period)
        running += P(b) - Pa
    if running != 0:
        raise ValueError("periodic antiderivative requires zero mean")
    return PiecewisePolynomial(pw.breakpoints, tuple(out), pw.period)


def reference_periodic_antiderivatives(pw, n):
    for _ in range(n):
        pw = reference_antiderivative(pw)
        pw = pw.plus_constant(-reference_mean(pw))
    return pw


def reference_piece_index(pw, u):
    if not 0 <= u < 1:
        raise ValueError("u must lie in [0, 1)")
    return bisect_right(pw.breakpoints, u) - 1


def reference_left_limit_in_unit(pw, u):
    u = F(u)
    if u == 0:
        u = F(1)
    idx = bisect_right(pw.breakpoints, u) - 1
    if idx == len(pw.pieces):  # u == 1
        idx -= 1
    elif pw.breakpoints[idx] == u:
        idx -= 1
    return pw.pieces[idx](u)


PERIODS = (F(1), F(5, 2), F(1, 3), F(7))

coefficients = st.builds(F, st.integers(-96, 96), st.integers(1, 12))
# denominators up to 97, not only powers of two, so the breakpoints' common denominator varies
cut_points = st.builds(lambda k, d: F(k % (d - 1) + 1, d), st.integers(0, 95), st.integers(2, 97))


@st.composite
def piecewise(draw, max_degree=4, max_pieces=5):
    cuts = draw(st.lists(cut_points, max_size=max_pieces - 1, unique=True))
    pieces = [
        Polynomial(tuple(draw(st.lists(coefficients, max_size=max_degree + 1))))
        for _ in range(len(cuts) + 1)
    ]
    return PiecewisePolynomial((F(0), *sorted(cuts), F(1)), tuple(pieces), draw(st.sampled_from(PERIODS)))


def unit_points(pw):
    """0, every breakpoint below 1 and a few points inside and between pieces."""
    inside = [F(i, 7) for i in range(7)] + [(a + b) / 2 for a, b in zip(pw.breakpoints, pw.breakpoints[1:])]
    return [F(0), *pw.breakpoints[:-1], *inside]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(piecewise())
def test_mean_matches_reference(pw):
    assert pw.mean() == reference_mean(pw)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(piecewise())
def test_antiderivative_matches_reference(pw):
    pw = pw.zero_mean()
    assert pw.antiderivative() == reference_antiderivative(pw)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(piecewise())
def test_antiderivative_rejects_nonzero_mean(pw):
    tilted = pw.zero_mean().plus_constant(F(1, 5))
    with pytest.raises(ValueError, match="zero mean"):
        tilted.antiderivative()
    with pytest.raises(ValueError, match="zero mean"):
        periodic_antiderivatives(tilted, 1)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(piecewise(max_degree=4, max_pieces=4), st.integers(1, 6))
def test_periodic_antiderivatives_match_reference(pw, n):
    pw = pw.zero_mean()
    assert periodic_antiderivatives(pw, n) == reference_periodic_antiderivatives(pw, n)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(piecewise())
def test_piece_lookup_matches_reference(pw):
    for u in unit_points(pw):
        assert pw.piece_index(u) == reference_piece_index(pw, u)
        assert pw.left_limit_in_unit(u) == reference_left_limit_in_unit(pw, u)
    assert pw.left_limit_in_unit(1) == reference_left_limit_in_unit(pw, 1)


@pytest.mark.parametrize("u", [F(1), F(-1, 3), F(5, 4), F(-1), F(97, 97 - 1)])
def test_piece_index_rejects_points_outside_the_unit_interval(u):
    pw = PiecewisePolynomial.step((0, F(1, 3), F(5, 7), 1), (1, -2, 3), F(5, 2))
    with pytest.raises(ValueError):
        pw.piece_index(u)
    with pytest.raises(ValueError):
        pw.value_in_unit(u)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(piecewise(), st.booleans())
def test_max_abs_in_unit_matches_pointwise_max(pw, negate):
    if negate:  # shift every piece below 0: |p(u)| <= coefficient_bound(p) on [0, 1]
        pw = pw.plus_constant(-sum((p.coefficient_bound() for p in pw.pieces), F(1)))
    points = unit_points(pw)
    assert pw.max_abs_in_unit(points) == max(abs(pw.value_in_unit(u)) for u in points)
    for u in points:
        assert pw.max_abs_in_unit([u]) == abs(pw.value_in_unit(u))


def test_max_abs_in_unit_of_zero_pieces():
    pw = PiecewisePolynomial((0, F(1, 3), 1), (Polynomial.zero(), Polynomial.zero()), 1)
    assert pw.max_abs_in_unit([F(0), F(1, 3), F(1, 2)]) == 0
    mixed = PiecewisePolynomial((0, F(1, 3), 1), (Polynomial.zero(), Polynomial.of(-3, 1)), 7)
    assert mixed.max_abs_in_unit([F(0), F(1, 6), F(1, 3), F(2, 3)]) == F(8, 3)
    assert mixed.max_abs_in_unit([F(0), F(1, 6)]) == 0
