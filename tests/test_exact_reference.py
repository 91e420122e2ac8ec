"""Integer piecewise-polynomial routines against the Fraction code they replaced.

``PiecewisePolynomial`` stores one integer form (breakpoint numerators over
their common denominator, coefficient rows over one denominator) and builds
``breakpoints`` and ``pieces`` only as views. The ``reference_*`` functions
are the bodies its operations had when it stored those views: every step is
a ``Fraction`` or ``Polynomial`` operation on a :class:`Pieces` triple of
breakpoints, pieces and period, and ``periodic_antiderivatives`` calls
``antiderivative`` and then ``mean`` at each order. A result matches its
reference when its views equal the reference triple and it equals, with the
same hash, the function the public constructor builds from that triple.

``max_abs_in_unit`` and ``max_abs_on_grid`` are the exact integer maxima the
inequality suite took before it read x off the Bernoulli kernel; the tests
keep them, checked here against the pointwise maximum.

``StepFunction`` stores only its integer step form, and ``exact._step``
builds one from cut and value numerators. ``ReferenceStepFunction`` is the
dataclass it was, with Fraction fields and the form derived from them; a step
matches it when its views, form and ``repr`` are the reference's, and
equality and hashing follow the reference fields. ``StepFunction.integral``
sums its values times their widths in integers; before, it was the mean of
its piecewise form (through ``exact._cumulative``) times the period.

``Polynomial`` likewise stores only integer numerators over one denominator.
The ``reference_poly_*`` functions are the bodies its operations had when it
stored ``Fraction`` coefficients, on coefficient tuples, lowest degree first,
with trailing zeros stripped.
"""

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction as F
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favard.acceptance import _packed_grid, _packed_instance
from favard.exact import PiecewisePolynomial, Polynomial, StepFunction, _horner, _step, format_rational
from favard.sampling import periodic_antiderivatives, random_step_numerators
from test_exact import eval_points, rationals, reference_horner


def reference_poly_strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def reference_poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return reference_poly_strip(out)


def reference_poly_neg(a):
    return tuple([-c for c in a])


def reference_poly_mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return reference_poly_strip(out)


def reference_poly_scale(a, c):
    return reference_poly_strip([c * x for x in a])


def reference_poly_derivative(a):
    return tuple([k * c for k, c in enumerate(a) if k >= 1])


def reference_poly_antiderivative(a):
    return reference_poly_strip([F(0), *[c / (k + 1) for k, c in enumerate(a)]])


def reference_poly_integrate(a, x0, x1):
    P = reference_poly_antiderivative(a)
    return reference_horner(P, x1) - reference_horner(P, x0)


def reference_poly_compose_linear(a, c0, c1):
    arg = reference_poly_strip([c0, c1])
    acc = ()
    for c in reversed(a):
        acc = reference_poly_add(reference_poly_mul(acc, arg), reference_poly_strip([c]))
    return acc


def reference_poly_coefficient_bound(a):
    return sum((abs(c) for c in a), F(0))


def reference_pieces(pw):
    """The pieces view as it was built: Fraction coefficients row / den."""
    return tuple([reference_poly_strip([F(c, pw.den) for c in row]) for row in pw.rows])


def assert_canonical(p):
    """p holds the one canonical integer form, and the constructor gives it back from the view."""
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert Polynomial(p.coeffs) == p


def assert_poly_matches(p, ref):
    assert_canonical(p)
    built = Polynomial(ref)
    assert p.coeffs == ref and p == built and hash(p) == hash(built)


class Pieces(NamedTuple):
    breakpoints: tuple
    pieces: tuple
    period: F


def fraction_form(pw):
    return Pieces(pw.breakpoints, pw.pieces, pw.period)


def assert_matches(pw, ref):
    assert fraction_form(pw) == ref
    built = PiecewisePolynomial(*ref)
    assert pw == built and hash(pw) == hash(built)


def _spans(f):
    return zip(f.pieces, f.breakpoints, f.breakpoints[1:])


def reference_mean(f):
    return sum((p.integrate(a, b) for p, a, b in _spans(f)), F(0))


def reference_antiderivative(f):
    out = []
    running = F(0)
    for p, a, b in _spans(f):
        P = p.antiderivative()
        Pa = P(a)
        out.append((Polynomial.const(running - Pa) + P) * f.period)
        running += P(b) - Pa
    if running != 0:
        raise ValueError("periodic antiderivative requires zero mean")
    return Pieces(f.breakpoints, tuple(out), f.period)


def reference_plus_constant(f, c):
    return Pieces(f.breakpoints, tuple([p + Polynomial.const(c) for p in f.pieces]), f.period)


def reference_zero_mean(f):
    return reference_plus_constant(f, -reference_mean(f))


def reference_mul(f, c):
    return Pieces(f.breakpoints, tuple([p * c for p in f.pieces]), f.period)


def reference_derivative(f):
    inv = 1 / f.period
    return Pieces(f.breakpoints, tuple([p.derivative() * inv for p in f.pieces]), f.period)


def reference_periodic_antiderivatives(f, n):
    for _ in range(n):
        f = reference_zero_mean(reference_antiderivative(f))
    return f


def reference_piece_index(f, u):
    if not 0 <= u < 1:
        raise ValueError("u must lie in [0, 1)")
    return bisect_right(f.breakpoints, u) - 1


def reference_value_in_unit(f, u):
    return f.pieces[reference_piece_index(f, u)](u)


def max_abs_in_unit(pw, points):
    """Exact max |pw(u)| over points in [0, 1) (0 for none), compared as integer Horner sums
    by cross-multiplication; one Fraction is built at the end."""
    best, best_den = 0, 1
    for u in points:
        acc, bpow = _horner(pw.rows[pw.piece_index(u)], *u.as_integer_ratio())
        if abs(acc) * best_den > best * bpow:
            best, best_den = abs(acc), bpow
    return F(best, best_den * pw.den)


def max_abs_on_grid(pw, G):
    """Exact max |pw(u)| over u = k / G (0 <= k < G) and the breakpoints below 1.

    On the grid of step 1/M, M = lcm(G, grid), every point is an integer a, and den
    M^(w-1) times piece i at a / M is the homogeneous Horner sum of rows[i] at a / M: all
    points share that denominator, so the maximum is taken over integers.
    """
    M = math.lcm(G, pw.grid)
    ends = [k * (M // pw.grid) for k in pw.knots]
    points = sorted(set(range(0, M, M // G)).union(ends[:-1]))
    best = start = 0
    for row, hi in zip(pw.rows, ends[1:]):
        stop = bisect_left(points, hi, start)
        for a in points[start:stop]:
            best = max(best, abs(_horner(row, a, M)[0]))
        start = stop
    return F(best, pw.den * M ** (len(pw.rows[0]) - 1))


def reference_left_limit_in_unit(f, u):
    u = F(u)
    if u == 0:
        u = F(1)
    idx = bisect_right(f.breakpoints, u) - 1
    if idx == len(f.pieces):  # u == 1
        idx -= 1
    elif f.breakpoints[idx] == u:
        idx -= 1
    return f.pieces[idx](u)


def reference_to_json_dict(f):
    return {
        "breakpoints": [format_rational(b) for b in f.breakpoints],
        "pieces": [p.to_strings() for p in f.pieces],
        "period": format_rational(f.period),
    }


PERIODS = (F(1), F(5, 2), F(1, 3), F(7))

coefficients = st.builds(F, st.integers(-96, 96), st.integers(1, 12))
# denominators up to 97, not only powers of two, so the breakpoints' common denominator varies
cut_points = st.builds(lambda k, d: F(k % (d - 1) + 1, d), st.integers(0, 95), st.integers(2, 97))


@st.composite
def fraction_pieces(draw, max_degree=4, max_pieces=5):
    cuts = draw(st.lists(cut_points, max_size=max_pieces - 1, unique=True))
    pieces = [
        Polynomial(tuple(draw(st.lists(coefficients, max_size=max_degree + 1))))
        for _ in range(len(cuts) + 1)
    ]
    return Pieces((F(0), *sorted(cuts), F(1)), tuple(pieces), draw(st.sampled_from(PERIODS)))


def piecewise(max_degree=4, max_pieces=5):
    return fraction_pieces(max_degree, max_pieces).map(lambda f: PiecewisePolynomial(*f))


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
    assert_matches(pw.antiderivative(), reference_antiderivative(pw))


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
    assert_matches(periodic_antiderivatives(pw, n), reference_periodic_antiderivatives(pw, n))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(piecewise())
def test_piece_lookup_matches_reference(pw):
    for u in unit_points(pw):
        assert pw.piece_index(u) == reference_piece_index(pw, u)
        assert pw.left_limit_in_unit(u) == reference_left_limit_in_unit(pw, u)
    assert pw.left_limit_in_unit(1) == reference_left_limit_in_unit(pw, 1)


@pytest.mark.parametrize("u", [F(1), F(-1, 3), F(5, 4), F(-1), F(97, 97 - 1)])
def test_piece_index_rejects_points_outside_the_unit_interval(u):
    T = F(5, 2)
    pw = StepFunction([b * T for b in (0, F(1, 3), F(5, 7), 1)], (1, -2, 3), T).as_piecewise()
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
    assert max_abs_in_unit(pw, points) == max(abs(pw.value_in_unit(u)) for u in points)
    for u in points:
        assert max_abs_in_unit(pw, [u]) == abs(pw.value_in_unit(u))
    for G in (1, 7, 64):
        grid = {F(k, G) for k in range(G)}.union(pw.breakpoints[:-1])
        assert max_abs_on_grid(pw, G) == max(abs(reference_value_in_unit(pw, u)) for u in grid)


def test_max_abs_in_unit_of_zero_pieces():
    pw = PiecewisePolynomial((0, F(1, 3), 1), (Polynomial.zero(), Polynomial.zero()), 1)
    assert max_abs_in_unit(pw, [F(0), F(1, 3), F(1, 2)]) == 0
    assert max_abs_on_grid(pw, 64) == 0
    mixed = PiecewisePolynomial((0, F(1, 3), 1), (Polynomial.zero(), Polynomial.of(-3, 1)), 7)
    assert max_abs_in_unit(mixed, [F(0), F(1, 6), F(1, 3), F(2, 3)]) == F(8, 3)
    assert max_abs_in_unit(mixed, [F(0), F(1, 6)]) == 0
    assert max_abs_on_grid(mixed, 1) == F(8, 3)  # at the breakpoint 1/3


@settings(max_examples=200, derandomize=True, deadline=None)
@given(fraction_pieces())
def test_views_round_trip_the_constructor(f):
    assert_matches(PiecewisePolynomial(*f), f)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(fraction_pieces(), coefficients)
def test_plus_constant_and_zero_mean_match_reference(f, c):
    pw = PiecewisePolynomial(*f)
    assert_matches(pw.plus_constant(c), reference_plus_constant(f, c))
    assert_matches(pw.zero_mean(), reference_zero_mean(f))
    assert pw.zero_mean().mean() == 0


@settings(max_examples=200, derandomize=True, deadline=None)
@given(fraction_pieces(), st.one_of(st.just(F(0)), coefficients))
def test_mul_and_derivative_match_reference(f, c):
    pw = PiecewisePolynomial(*f)
    assert_matches(pw * c, reference_mul(f, c))
    assert_matches(c * pw, reference_mul(f, c))
    assert_matches(pw.derivative(), reference_derivative(f))
    assert_matches(pw.derivative().derivative(), reference_derivative(reference_derivative(f)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(fraction_pieces())
def test_evaluation_and_json_match_reference(f):
    pw = PiecewisePolynomial(*f)
    for u in unit_points(f):
        assert pw.value_in_unit(u) == reference_value_in_unit(f, u)
        assert pw(u * f.period - 2 * f.period) == reference_value_in_unit(f, u)
        assert pw.left_limit_in_unit(u) == reference_left_limit_in_unit(f, u)
    assert pw.left_limit_in_unit(1) == reference_left_limit_in_unit(f, 1)
    assert pw.to_json_dict() == reference_to_json_dict(f)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(fraction_pieces(), coefficients.filter(bool), coefficients)
def test_one_function_built_two_ways(f, k, c):
    """Operations that land on a function give the form, and hash, the constructor gives it."""
    pw = PiecewisePolynomial(*f)
    zero = PiecewisePolynomial(f.breakpoints, tuple([Polynomial.zero()] * len(f.pieces)), f.period)
    pairs = [
        (pw.plus_constant(c).plus_constant(-c), pw),
        ((pw * k) * (1 / k), pw),
        (pw.zero_mean().plus_constant(pw.mean()), pw),
        (pw * 0, zero),
        (zero.plus_constant(c), PiecewisePolynomial(f.breakpoints, [Polynomial.const(c)] * len(f.pieces), f.period)),
        (
            zero.plus_constant(c),
            StepFunction([b * f.period for b in f.breakpoints], [c] * len(f.pieces), f.period).as_piecewise(),
        ),
        (
            (pw * k).plus_constant(c).derivative(),
            PiecewisePolynomial(*reference_derivative(reference_plus_constant(reference_mul(f, k), c))),
        ),
    ]
    for via_operations, via_constructor in pairs:
        assert via_operations == via_constructor and hash(via_operations) == hash(via_constructor)
    assert (pw.plus_constant(c) == pw) == (c == 0)


def reference_random_zero_mean_step(rng):
    cuts = {F(0), F(1)}
    for _ in range(rng.randint(1, 5)):
        cuts.add(F(rng.randint(1, 31), 32))
    bps = tuple(sorted(cuts))
    vals = [F(rng.randint(-16, 16), 8) for _ in bps[:-1]]
    return reference_zero_mean(Pieces(bps, tuple([Polynomial.const(v) for v in vals]), F(1)))


def reference_inequality_instance(rng, n):
    """The body of the inequality-suite loop before it ran on integer rows, on Fraction pieces."""
    w = reference_random_zero_mean_step(rng)
    sup_wn = max(abs(p(F(0))) for p in w.pieces)
    if sup_wn == 0:
        return sup_wn, None
    x = reference_periodic_antiderivatives(w, n)
    points = [F(i, 64) for i in range(64)] + list(x.breakpoints[:-1])
    return sup_wn, max(abs(reference_value_in_unit(x, u)) for u in points)


def packed_inequality_instance(rng, n):
    """(sup|w|, max|x|) over the points a / 64 for the next step of criterion 11's stream, read
    off the packed jump sums as the criterion reads them; max|x| is None when w is 0."""
    grid = _packed_grid(n)
    S, X = _packed_instance(random_step_numerators(rng), grid)
    if S == 0:
        return F(0), None
    return F(S, 256), F(max(map(abs, grid.slots(X))), grid.den)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_inequality_instances_match_reference(seed):
    rng, reference_rng = random.Random(seed + 4), random.Random(seed + 4)
    for n in range(1, 6):
        for _ in range(40):
            assert packed_inequality_instance(rng, n) == reference_inequality_instance(reference_rng, n)


# coefficient lists with zeros inside and at the top, so stripping and the zero polynomial are drawn
poly_coefficients = st.lists(st.one_of(rationals, st.just(F(0))), max_size=8)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(poly_coefficients, poly_coefficients, rationals, rationals, eval_points)
def test_polynomial_matches_reference(a, b, c0, c1, x):
    p, q = Polynomial(a), Polynomial(b)
    a, b = reference_poly_strip(a), reference_poly_strip(b)
    assert_poly_matches(p, a)
    assert_poly_matches(q, b)
    assert_poly_matches(p + q, reference_poly_add(a, b))
    assert_poly_matches(-p, reference_poly_neg(a))
    assert_poly_matches(p - q, reference_poly_add(a, reference_poly_neg(b)))
    assert_poly_matches(p * q, reference_poly_mul(a, b))
    assert_poly_matches(p * x, reference_poly_scale(a, F(x)))
    assert_poly_matches(x * p, reference_poly_scale(a, F(x)))
    assert_poly_matches(p.derivative(), reference_poly_derivative(a))
    assert_poly_matches(p.antiderivative(), reference_poly_antiderivative(a))
    assert_poly_matches(p.compose_linear(c0, c1), reference_poly_compose_linear(a, c0, c1))
    assert_poly_matches(p.compose_linear(x, 0), reference_poly_compose_linear(a, F(x), F(0)))
    assert p.integrate(c0, c1) == reference_poly_integrate(a, c0, c1)
    assert p.integrate(x, x) == 0
    assert p.coefficient_bound() == reference_poly_coefficient_bound(a)
    value = reference_horner(a, F(x))
    assert type(p(x)) is F and p(x) == value
    assert p.sign(x) == (value > 0) - (value < 0)


def test_one_polynomial_built_two_ways():
    pairs = [
        (Polynomial.of(F(2, 4), F(3, 3)), Polynomial.of(F(1, 2), 1)),
        (Polynomial.of(0, "0", F(0, 7)), Polynomial.zero()),
        (Polynomial.of(F(6, 4), 0, 0), Polynomial.const("3/2")),
        (Polynomial.of(1, 2) * F(1, 3) + Polynomial.of(0, F(-2, 3)), Polynomial.const(F(1, 3))),
    ]
    for p, q in pairs:
        assert p == q and hash(p) == hash(q) and (p.nums, p.den) == (q.nums, q.den)
    assert (Polynomial.zero().nums, Polynomial.zero().den) == ((), 1)
    p = Polynomial.of(F(1, 2), F(-1, 3), F(5, 4))
    assert (p.nums, p.den) == ((6, -4, 15), 12)
    assert repr(p) == "Polynomial(nums=(6, -4, 15), den=12)"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(fraction_pieces(), coefficients)
def test_pieces_view_matches_reference(f, c):
    pw = PiecewisePolynomial(*f)
    for g in (pw, pw.plus_constant(c), pw.derivative(), pw.zero_mean().antiderivative()):
        for piece, ref in zip(g.pieces, reference_pieces(g), strict=True):
            assert_poly_matches(piece, ref)


# ------------------------------------------------------------ step functions


def reference_partition(breakpoints, count, period):
    """``exact._partition`` as it was for a step: the period, then the Fraction breakpoints
    over their lcm, checked to run from 0 to T."""
    period = F(period)
    if period <= 0:
        raise ValueError("period must be positive")
    ratios = [F(b).as_integer_ratio() for b in breakpoints]
    ep, eq = period.as_integer_ratio()
    Q = math.lcm(*[q for _, q in ratios])
    P = [p * (Q // q) for p, q in ratios]
    if len(P) < 2 or P[0] != 0 or P[-1] * eq != ep * Q:
        raise ValueError("breakpoints must run from 0 to T")
    if any([a >= b for a, b in zip(P, P[1:])]):
        raise ValueError("breakpoints must be strictly increasing")
    if count != len(P) - 1:
        raise ValueError("need one piece per interval")
    g = math.gcd(*P)
    return tuple([a // g for a in P]), P[-1] // g, period


@dataclass(frozen=True)
class ReferenceStepFunction:
    """``StepFunction`` as it was when its fields were the Fraction breakpoints, values and
    period, and its integer form a derived attribute."""

    breakpoints: tuple
    values: tuple
    period: F

    def __post_init__(self):
        bps = tuple([F(b) for b in self.breakpoints])
        vals = tuple([F(v) for v in self.values])
        ratios = [v.as_integer_ratio() for v in vals]
        knots, grid, period = reference_partition(bps, len(ratios), self.period)
        den = math.lcm(*[q for _, q in ratios])
        rows = tuple([(p * (den // q),) for p, q in ratios])
        form = object.__new__(PiecewisePolynomial)
        form.__dict__.update(knots=knots, grid=grid, rows=rows, den=den, period=period)
        self.__dict__.update(breakpoints=bps, values=vals, period=period, _form=form)


def old_repr(ref):
    return repr(ref).replace("ReferenceStepFunction", "StepFunction", 1)


@st.composite
def step_numerators(draw):
    """(cuts, grid, nums, den, T): a step's cuts over its grid and its values over den, zero,
    negative, repeated and with common factors, on a period that may be any positive rational."""
    T = draw(st.one_of(st.sampled_from([F(1), F(5, 2), F(1, 3)]), st.fractions(F(1, 1000), 1000, max_denominator=1000)))
    grid = draw(st.integers(1, 96))
    cuts = [0, *sorted(draw(st.sets(st.integers(1, grid - 1), max_size=6))), grid] if grid > 1 else [0, 1]
    den = draw(st.integers(1, 60))
    nums = draw(st.lists(st.sampled_from([0, 1, -2, 6, 15, den, -3 * den, 90]), min_size=len(cuts) - 1, max_size=len(cuts) - 1))
    return cuts, grid, nums, den, T


def as_fractions(cuts, grid, nums, den, T):
    return [T * F(c, grid) for c in cuts], [F(v, den) for v in nums], T


class TestStepFunctionAgainstReference:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(step_numerators())
    def test_step_from_integers_is_the_step_from_fractions(self, case):
        built, step = _step(*case), StepFunction(*as_fractions(*case))
        ref = ReferenceStepFunction(*as_fractions(*case))
        assert built == step and hash(built) == hash(step)
        for s in (built, step):
            assert (s.breakpoints, s.values, s.period) == (ref.breakpoints, ref.values, ref.period)
            assert s.as_piecewise() == ref._form and s.as_piecewise().rows == ref._form.rows
            assert repr(s) == old_repr(ref)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(step_numerators(), step_numerators(), st.integers(2, 9))
    def test_equality_and_hash_are_the_reference_fields(self, a, b, k):
        cuts, grid, nums, den, T = a
        x, ref = StepFunction(*as_fractions(*a)), ReferenceStepFunction(*as_fractions(*a))
        # the same step from other integers: cuts, grid, values and den all times k
        same = _step([k * c for c in cuts], k * grid, [k * v for v in nums], k * den, T)
        assert x == same and hash(x) == hash(same)
        # b, and a with b's values: equal to a exactly when the reference says so
        resized = (cuts, grid, [b[2][i % len(b[2])] for i in range(len(nums))], b[3], T)
        for other in (b, resized):
            y = StepFunction(*as_fractions(*other))
            assert (x == y) == (ref == ReferenceStepFunction(*as_fractions(*other)))
            assert x != y or hash(x) == hash(y)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(step_numerators())
    def test_integral_is_the_mean_times_the_period(self, case):
        # the integral as it was, the piecewise mean times T, and the reference's value-width sum
        s, ref = _step(*case), ReferenceStepFunction(*as_fractions(*case))
        expected = s.as_piecewise().mean() * s.period
        assert s.integral() == expected == sum([v * (b - a) for v, a, b in zip(ref.values, ref.breakpoints, ref.breakpoints[1:])])

    def test_pinned_repr(self):
        s = _step([0, 1, 4], 4, [3, -2], 6, F(5, 2))
        assert repr(s) == (
            "StepFunction(breakpoints=(Fraction(0, 1), Fraction(5, 8), Fraction(5, 2)), "
            "values=(Fraction(1, 2), Fraction(-1, 3)), period=Fraction(5, 2))"
        )
        assert s == StepFunction((0, F(5, 8), F(5, 2)), (F(1, 2), F(-1, 3)), F(5, 2))

    @pytest.mark.parametrize(
        "cuts, grid, nums, period, message",
        [
            ([0, 1, 3], 4, [1, 2], F(2), "breakpoints must run from 0 to T"),
            ([1, 2, 4], 4, [1, 2], F(2), "breakpoints must run from 0 to T"),
            ([0], 4, [], F(2), "breakpoints must run from 0 to T"),
            ([0, 3, 2, 4], 4, [1, 2, 3], F(2), "breakpoints must be strictly increasing"),
            ([0, 2, 2, 4], 4, [1, 2, 3], F(2), "breakpoints must be strictly increasing"),
            ([0, 2, 4], 4, [1], F(2), "need one piece per interval"),
            ([0, 2, 4], 4, [1, 2], F(0), "period must be positive"),
            ([0, 2, 4], 4, [1, 2], F(-3), "period must be positive"),
        ],
    )
    def test_the_same_value_errors(self, cuts, grid, nums, period, message):
        # the integer builder, the constructor and the reference reject the same steps alike
        bps = [F(c, grid) * abs(period) for c in cuts]
        vals = [F(v, 7) for v in nums]
        for build in (lambda: _step(cuts, grid, nums, 7, period), lambda: StepFunction(bps, vals, period)):
            with pytest.raises(ValueError, match=message):
                build()
        with pytest.raises(ValueError, match=message):
            ReferenceStepFunction(bps, vals, period)
