"""Root isolation against the code it replaced.

``reference_rational_roots`` is the body ``roots.rational_roots`` had before
it found roots by narrowing Sturm enclosures below 1/l^2 and rounding with
``limit_denominator``: it lists every divisor of the cleared polynomial's
trailing and leading coefficients by trial division and tests each
``±num/den``. It is exact but super-polynomial in the coefficients' bit
size, so the inputs here keep those coefficients to a few dozen bits.

``reference_isolate_roots`` splits on the Sturm count of the whole
square-free part over Q until each cell holds one root and is no wider than
the width, and keeps the cells whose root is not a trial-division rational
root: each irrational root gets the first dyadic cell that holds it alone,
as in the one search of ``roots.isolate_roots``. ``reference_measure_below``
and ``reference_abs_integral`` are the two functions ``roots.level_split``
replaced, each with its own sign partition on those enclosures.

``poly_divmod``, ``poly_gcd``, ``reference_square_free``,
``reference_sturm_sequence`` and ``reference_count_roots`` are the Fraction
route ``roots`` took before it built its sequences by primitive
pseudo-remainders over Z: Euclid's algorithm over Q, with signs read from
Fraction polynomials. The references above run on them alone.
"""

import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favard import roots
from favard.exact import Polynomial
from favard.kernels import min_abs_integral
from favard.roots import isolate_roots, level_split, rational_roots


def poly_divmod(a, b):
    """(quotient, remainder) of Polynomials over Q."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quo = [F(0)] * max(len(rem) - len(b.coeffs) + 1, 0)
    bc = b.coeffs
    while len(rem) >= len(bc):
        factor = rem[-1] / bc[-1]
        shift = len(rem) - len(bc)
        quo[shift] = factor
        for i, c in enumerate(bc):
            rem[shift + i] -= factor * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return Polynomial(tuple(quo)), Polynomial(tuple(rem))


def poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    return a * (1 / a.coeffs[-1])


def reference_square_free(p):
    """Square-free part p / gcd(p, p') over Q."""
    if p.degree <= 1:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    q, r = poly_divmod(p, g)
    assert r.is_zero
    return q


def reference_sturm_sequence(p):
    """p, p' and the negated Euclidean remainders over Q."""
    seq = [p, p.derivative()]
    while not seq[-1].is_zero:
        _, r = poly_divmod(seq[-2], seq[-1])
        seq.append(-r)
    seq.pop()
    return seq


def reference_count_roots(seq, a, b):
    """Distinct real roots in (a, b] of the polynomial whose Sturm sequence is seq."""

    def variations(x):
        signs = [s for s in (q.sign(x) for q in seq) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(a) - variations(b)


def reference_rational_roots(p, a, b):
    """All distinct rational roots of p in [a, b], sorted, by the rational-root theorem."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    denom_lcm = 1
    for c in p.coeffs:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in p.coeffs]
    while ints and ints[0] == 0:
        ints.pop(0)  # factor out powers of x; root 0 handled below
    lead = ints[-1]
    tail = ints[0]
    out = [F(0)] if p.coeffs[0] == 0 and a <= 0 <= b else []

    def divisors(n):
        n = abs(n)
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return sorted(set(out))

    for num in divisors(tail):
        for den in divisors(lead):
            for sign in (1, -1):
                cand = F(sign * num, den)
                if cand not in out and a <= cand <= b and p(cand) == 0:
                    out.append(cand)
    return sorted(out)


def reference_isolate_roots(p, a, b, width):
    """(low, high) of each root of p in [a, b]: the trial-division roots, then the cells of
    Sturm bisection on the whole square-free part that hold one root, no rational one,
    and are no wider than width."""
    if p.degree == 0:
        return []
    found = reference_rational_roots(p, a, b)
    out = [(r, r) for r in found]
    seq = reference_sturm_sequence(reference_square_free(p))
    stack = [(a, b, reference_count_roots(seq, a, b))]
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1 and hi - lo <= width:
            if not any(lo < r <= hi for r in found):
                out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        stack.append((lo, mid, reference_count_roots(seq, lo, mid)))
        stack.append((mid, hi, reference_count_roots(seq, mid, hi)))
    return sorted(out)


def reference_sign_segments(q, a, b, width):
    """``roots.sign_segments`` on the enclosures of :func:`reference_isolate_roots`."""
    encs = reference_isolate_roots(q, a, b, width)
    segments = []
    cursor = a
    for low, high in encs:
        if low > cursor:
            segments.append((cursor, low, q.sign((cursor + low) / 2)))
        cursor = high
    if cursor < b:
        segments.append((cursor, b, q.sign((cursor + b) / 2)))
    return segments, encs


def reference_measure_below(p, a, b, level, width):
    """Bounds (lo, hi) on the measure of {u in [a, b] : p(u) <= level}."""
    q = p - Polynomial.const(level)
    if q.is_zero:
        length = b - a
        return length, length
    segments, encs = reference_sign_segments(q, a, b, width)
    lo = sum((hi_ - lo_ for lo_, hi_, s in segments if s < 0), F(0))
    slack = sum((high - low for low, high in encs), F(0))
    return lo, lo + slack


def reference_abs_integral(p, a, b, level, width):
    """(estimate, error_bound) for the integral of |p - level| over [a, b]."""
    q = p - Polynomial.const(level)
    if q.is_zero:
        return F(0), F(0)
    segments, encs = reference_sign_segments(q, a, b, width)
    total = F(0)
    for lo, hi, s in segments:
        total += s * q.integrate(lo, hi)
    err = F(0)
    lip = q.derivative().coefficient_bound()
    for low, high in encs:
        if low != high:
            err += lip * (high - low) * (high - low)
    return total, err


QUADRATICS = (Polynomial.of(-2, 0, 1), Polynomial.of(-1, -1, 1))  # u^2 - 2, u^2 - u - 1
# continued-fraction convergents of each quadratic's roots: of sqrt(2) and -sqrt(2), of phi and 1 - phi
CONVERGENTS = (
    (F(7, 5), F(17, 12), F(99, 70), F(577, 408), F(-3, 2), F(-41, 29), F(-239, 169)),
    (F(13, 8), F(21, 13), F(89, 55), F(-5, 8), F(-8, 13), F(-55, 89)),
)

denominators = st.one_of(st.integers(0, 12).map(lambda k: 2**k), st.integers(1, 2**12))


@st.composite
def rational_polynomials(draw):
    """(p, roots): scale * product of (u - r)^m * some irreducible quadratics.

    The bits of the roots' numerators and denominators, counted with
    multiplicity, stay within a budget, which keeps the leading and trailing
    coefficients of the cleared polynomial small enough for trial division.
    Some draws take a quadratic with a convergent of one of its roots as the
    first rational root, so that a cell around an irrational root may hold a
    rational one too.
    """
    budget = 26
    factors = []
    near = draw(st.sampled_from((None, None, 0, 1)))  # the index of the quadratic, if any
    if near is not None:
        r = draw(st.sampled_from(CONVERGENTS[near]))
        budget -= max(r.numerator.bit_length(), r.denominator.bit_length())
        factors.append((r, 1))
    for _ in range(draw(st.integers(1, 4))):
        r = F(draw(st.integers(-(2**12), 2**12)), draw(denominators))
        m = draw(st.integers(1, 3))
        cost = m * max(r.numerator.bit_length(), r.denominator.bit_length())
        if r in dict(factors) or cost > budget:
            continue
        budget -= cost
        factors.append((r, m))
    scale = F(draw(st.integers(1, 16)), draw(st.integers(1, 16))) * draw(st.sampled_from((1, -1)))
    p = Polynomial.const(scale)
    for r, m in factors:
        for _ in range(m):
            p = p * Polynomial.of(-r, 1)
    for i, quad in enumerate(QUADRATICS):
        if draw(st.booleans()) or i == near:
            p = p * quad
    return p, [r for r, _ in factors]


WIDTHS = (F(1, 10**13), F(1, 1000), F(1, 3))
# powers of two from 1 down to 2^-60, beside the fixed widths
widths = st.one_of(st.sampled_from(WIDTHS), st.integers(0, 60).map(lambda k: F(1, 2**k)))


def points(roots_):
    """Interval ends and levels: a root, 0, a free fraction or a negative one."""
    free = st.fractions(min_value=-(2**12), max_value=2**12, max_denominator=2**12)
    return st.one_of(st.sampled_from(roots_ or [F(0)]), st.just(F(0)), free, free.map(lambda x: -abs(x)))


@st.composite
def intervals(draw, roots_):
    """[a, b] with roots at an end, at 0, at a dyadic bisection midpoint, negative, or a == b."""
    kind = draw(st.sampled_from(("ends", "midpoint", "point")))
    if kind == "midpoint":  # r at (a + b) / 2, or a quarter of the way from either end
        r = draw(st.sampled_from(roots_ or [F(0)]))  # at the 1st, 2nd, 3rd or 4th midpoint
        h = draw(st.fractions(min_value=F(1, 2**14), max_value=2**6, max_denominator=2**14))
        left, right = draw(st.sampled_from(((1, 1), (1, 3), (3, 1), (1, 7), (5, 3), (15, 1))))
        return r - left * h, r + right * h
    a = draw(points(roots_))
    if kind == "point":
        return a, a
    b = draw(points(roots_))
    return min(a, b), max(a, b)


def assert_positive_multiples(p):
    """The square-free part and each Sturm member over Z are positive multiples of those over Q."""
    s = roots._square_free_sequence(p)[0]
    seq = roots.sturm_sequence(s)
    expect = reference_sturm_sequence(reference_square_free(p))
    assert len(seq) == len(expect)
    for ints, member in zip([s] + seq, [reference_square_free(p)] + expect):
        ratio = member.coeffs[-1] / ints[-1]
        assert ratio > 0
        assert Polynomial(ints) * ratio == member


def pairs(encs):
    return [(e.low, e.high) for e in encs]


class TestRationalRootsAgainstTrialDivision:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_roots_match_trial_division(self, data):
        p, roots_ = data.draw(rational_polynomials())
        a, b = data.draw(intervals(roots_))
        assert rational_roots(p, a, b) == reference_rational_roots(p, a, b)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_isolate_roots_enclosures(self, data):
        p, roots_ = data.draw(rational_polynomials())
        a, b = data.draw(intervals(roots_))
        width = data.draw(widths)
        assert pairs(isolate_roots(p, a, b, width)) == reference_isolate_roots(p, a, b, width)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_integer_sturm_members_are_positive_multiples(self, data):
        p, _ = data.draw(rational_polynomials())
        assert_positive_multiples(p)

    @pytest.mark.parametrize(
        "p",
        [
            Polynomial.of(-6, 0, 5, 0, -1),  # -(u^2 - 2)(u^2 - 3): remainders skip a degree
            Polynomial.of(1, 0, 0, 0, 0, -3),  # -3u^5 + 1: one remainder, a constant
            Polynomial.of(F(1, 4), 0, -1) * Polynomial.of(F(1, 4), 0, -1) * Polynomial.of(0, -1),
        ],
    )
    def test_integer_sturm_members_with_negative_leads(self, p):
        assert_positive_multiples(p)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.data())
    def test_count_roots_matches_the_fraction_sequence(self, data):
        p, roots_ = data.draw(rational_polynomials())
        a, b = data.draw(intervals(roots_))
        expect = reference_count_roots(reference_sturm_sequence(reference_square_free(p)), a, b)
        assert roots.count_roots(p, a, b) == expect

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_level_split_matches_measure_below_and_abs_integral(self, data):
        p, roots_ = data.draw(rational_polynomials())
        a, b = data.draw(intervals(roots_))
        level = data.draw(points(roots_))
        width = data.draw(st.sampled_from(WIDTHS))
        expect = reference_measure_below(p, a, b, level, width) + reference_abs_integral(p, a, b, level, width)
        assert level_split(p, a, b, level, width) == expect

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_enclosures_are_disjoint_isolating_and_agree_with_rational_roots(self, data):
        p, roots_ = data.draw(rational_polynomials())
        a, b = data.draw(intervals(roots_))
        width = data.draw(widths)
        encs = isolate_roots(p, a, b, width)
        assert all(e.high <= f.low for e, f in zip(encs, encs[1:]))
        for e in encs:
            if not e.exact:
                assert roots.count_roots(p, e.low, e.high) == 1
                assert e.width <= width
        assert rational_roots(p, a, b) == [e.low for e in encs if e.exact]

    @pytest.mark.parametrize("r", [F(99, 70), F(577, 408), F(-1393, 985)])
    def test_rational_root_next_to_an_irrational_one(self, r):
        # convergents of ±sqrt(2): r is within 1/l^2 of an irrational root, so
        # limit_denominator on that root's enclosure returns r, which lies outside it
        p = Polynomial.of(-r, 1) * QUADRATICS[0]
        lead = r.denominator
        assert abs(r * r - 2) / 2 < F(1, lead * lead)  # |r - sqrt 2| = |r^2 - 2| / |r + sqrt 2|
        for a, b in ((F(-2), F(2)), (F(1), F(3, 2)), (F(-3, 2), F(-1)), (r, r)):
            assert rational_roots(p, a, b) == reference_rational_roots(p, a, b)
        sqrt2 = F(2) if r > 0 else F(-2)
        encs = isolate_roots(p, min(0, sqrt2), max(0, sqrt2))
        assert [e.low for e in encs if e.exact] == [r]
        assert sum(not e.exact for e in encs) == 1

    def test_interval_outside_a_root_gives_nothing(self):
        p = Polynomial.of(-1, 1) * QUADRATICS[0]  # the integer 1 is the nearest fraction to sqrt(2)
        assert rational_roots(p, F(7, 5), F(3, 2)) == []
        assert rational_roots(p, F(1), F(1)) == [F(1)]
        assert rational_roots(p, F(2), F(1)) == []

    def test_double_root_reported_once(self):
        half = Polynomial.of(F(-1, 2), 1)
        p = half * half * Polynomial.of(-2, 1) * QUADRATICS[0]  # (u - 1/2)^2 (u - 2) (u^2 - 2)
        assert rational_roots(p, F(0), F(3)) == [F(1, 2), F(2)]
        encs = isolate_roots(p, F(0), F(3))
        assert [e.low for e in encs if e.exact] == [F(1, 2), F(2)]
        assert sum(not e.exact for e in encs) == 1


def count_outer_calls(monkeypatch, names):
    """Patch each ``roots.<name>`` to count its calls that are not made from inside another patched one."""
    calls = Counter()
    active = []
    for name in names:

        def counted(*args, _name=name, _fn=getattr(roots, name), **kwargs):
            if not active:
                calls[_name] += 1
            active.append(_name)
            try:
                return _fn(*args, **kwargs)
            finally:
                active.pop()

        monkeypatch.setattr(roots, name, counted)
    return calls


def count_lengths(monkeypatch, lengths):
    """Patch ``roots.sturm_sequence`` to count the lengths of the polynomials it is given."""
    build = roots.sturm_sequence
    monkeypatch.setattr(roots, "sturm_sequence", lambda s: lengths.update([len(s)]) or build(s))


class TestOneIsolationPerPolynomial:
    def test_isolate_roots_builds_one_sturm_sequence_and_divides_nothing_out(self, monkeypatch):
        # (u - 1/3)^2 (u + 5) (u^2 - 2): a double and a simple rational root, two irrational ones
        third = Polynomial.of(F(-1, 3), 1)
        p = third * third * Polynomial.of(5, 1) * QUADRATICS[0]
        # the builder of the square-free part and its sequence makes every remainder and
        # quotient: none is made outside it, so no root is divided out
        names = ["_square_free_sequence", "sturm_sequence", "_prem", "_quotient"]
        calls = count_outer_calls(monkeypatch, names)
        inner = Counter()
        count_lengths(monkeypatch, inner)
        encs = roots.isolate_roots(p, F(-6), F(2))
        assert [e.low for e in encs if e.exact] == [F(-5), F(1, 3)]
        assert sum(not e.exact for e in encs) == 2
        assert calls == {"_square_free_sequence": 1}
        # p cleared to integers (degree 5) ends its sequence in the gcd u - 1/3;
        # the one Sturm sequence is that of the square-free part (degree 4)
        assert inner == {6: 1, 5: 1}

    def test_isolate_roots_refines_each_root_once(self, monkeypatch):
        # 3^20 u^2 - 2: one irrational root in [0, 1]; the rationality test (below 1/l^2 = 3^-40,
        # 64 halvings) and the enclosure (width 10^-13, 44 halvings) lie on one path of sign tests
        calls = count_outer_calls(monkeypatch, ["_sign"])
        encs = roots.isolate_roots(Polynomial.of(-2, 0, 3**20), F(0), F(1))
        assert pairs(encs) == [(F(52666235, 2**41), F(421329881, 2**44))]
        assert calls["_sign"] <= 70  # one sign test per halving, and at most one for the candidate

    def test_square_free_input_builds_one_sequence(self, monkeypatch):
        p = Polynomial.of(F(-1, 3), 1) * Polynomial.of(5, 1) * QUADRATICS[0]
        inner = Counter()
        count_lengths(monkeypatch, inner)
        encs = roots.isolate_roots(p, F(-6), F(2))
        assert [e.low for e in encs if e.exact] == [F(-5), F(1, 3)]
        assert inner == {5: 1}

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_min_abs_integral_isolates_once(self, monkeypatch, n):
        calls = count_outer_calls(monkeypatch, ["isolate_roots"])
        min_abs_integral(n)
        assert calls == {"isolate_roots": 1}
