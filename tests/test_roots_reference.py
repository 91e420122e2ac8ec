"""Rational roots from Sturm enclosures against the trial-division code they replaced.

``reference_rational_roots`` is the body ``roots.rational_roots`` had before
it found roots by narrowing Sturm enclosures below 1/l^2 and rounding with
``limit_denominator``: it lists every divisor of the cleared polynomial's
trailing and leading coefficients by trial division and tests each
``±num/den``. It is exact but super-polynomial in the coefficients' bit
size, so the inputs here keep those coefficients to a few dozen bits.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favard import roots
from favard.exact import Polynomial
from favard.roots import isolate_roots, poly_divmod, rational_roots


def reference_rational_roots(p, a, b):
    """All rational roots of p in [a, b] with multiplicities, by the rational-root theorem."""
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
    out = []
    if p.coeffs[0] == 0 and a <= 0 <= b:
        mult = next(i for i, c in enumerate(p.coeffs) if c != 0)
        out.append((F(0), mult))

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

    seen = {r for r, _ in out}
    for num in divisors(tail):
        for den in divisors(lead):
            for sign in (1, -1):
                cand = F(sign * num, den)
                if cand in seen or not a <= cand <= b:
                    continue
                if p(cand) == 0:
                    mult = 0
                    q = p
                    while True:
                        quo, rem = poly_divmod(q, Polynomial.of(-cand, 1))
                        if not rem.is_zero:
                            break
                        mult += 1
                        q = quo
                        if q.is_zero or q(cand) != 0:
                            break
                    out.append((cand, mult))
                    seen.add(cand)
    return sorted(out)


def reference_isolate_roots(p, a, b, width):
    """The body ``roots.isolate_roots`` had before it shared one square-free part
    and Sturm sequence with the rational-root search, on the trial-division roots."""
    if p.degree == 0:
        return []
    out = [roots.RootEnclosure(r, r, m) for r, m in reference_rational_roots(p, a, b)]
    q = roots.square_free(p)
    for enc in out:
        q, _ = poly_divmod(q, Polynomial.of(-enc.low, 1))
    if q.degree >= 1:
        seq = roots.sturm_sequence(q)
        stack = [(a, b, roots.count_roots(q, a, b, seq))]
        while stack:
            lo, hi, cnt = stack.pop()
            if cnt == 0:
                continue
            if cnt == 1 and hi - lo <= width:
                out.append(roots.RootEnclosure(lo, hi, 1))
                continue
            mid = (lo + hi) / 2
            stack.append((lo, mid, roots.count_roots(q, lo, mid, seq)))
            stack.append((mid, hi, roots.count_roots(q, mid, hi, seq)))
    return sorted(out, key=lambda e: (e.low, e.high))


QUADRATICS = (Polynomial.of(-2, 0, 1), Polynomial.of(-1, -1, 1))  # u^2 - 2, u^2 - u - 1

denominators = st.one_of(st.integers(0, 12).map(lambda k: 2**k), st.integers(1, 2**12))


@st.composite
def rational_polynomials(draw):
    """(p, roots): scale * product of (u - r)^m * some irreducible quadratics.

    The bits of the roots' numerators and denominators, counted with
    multiplicity, stay within a budget, which keeps the leading and trailing
    coefficients of the cleared polynomial small enough for trial division.
    """
    budget = 26
    factors = []
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
    for quad in QUADRATICS:
        if draw(st.booleans()):
            p = p * quad
    return p, [r for r, _ in factors]


@st.composite
def intervals(draw, roots_):
    """[a, b] with roots at an end, at 0, at a bisection midpoint, negative, or a == b."""
    free = st.fractions(min_value=-(2**12), max_value=2**12, max_denominator=2**12)
    roots_ = roots_ or [F(0)]
    pool = st.one_of(st.sampled_from(roots_), st.just(F(0)), free, free.map(lambda x: -abs(x)))
    kind = draw(st.sampled_from(("ends", "midpoint", "point")))
    if kind == "midpoint":  # r at (a + b) / 2, or a quarter of the way from either end
        r = draw(st.sampled_from(roots_))
        h = draw(st.fractions(min_value=F(1, 2**14), max_value=2**6, max_denominator=2**14))
        left, right = draw(st.sampled_from(((1, 1), (1, 3), (3, 1))))
        return r - left * h, r + right * h
    a = draw(pool)
    if kind == "point":
        return a, a
    b = draw(pool)
    return min(a, b), max(a, b)


class TestRationalRootsAgainstTrialDivision:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_roots_and_multiplicities(self, data):
        p, roots_ = data.draw(rational_polynomials())
        a, b = data.draw(intervals(roots_))
        assert rational_roots(p, a, b) == reference_rational_roots(p, a, b)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_isolate_roots_enclosures(self, data):
        p, roots_ = data.draw(rational_polynomials())
        a, b = data.draw(intervals(roots_))
        width = data.draw(st.sampled_from((F(1, 10**13), F(1, 1000), F(1, 3))))
        assert isolate_roots(p, a, b, width) == reference_isolate_roots(p, a, b, width)

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
        assert rational_roots(p, F(1), F(1)) == [(F(1), 1)]
        assert rational_roots(p, F(2), F(1)) == []
