"""Exact real-root location for rational polynomials on an interval.

Strategy: extract every rational root exactly first, then isolate whatever
remains of the square-free part with Sturm counts and bisection. Rational
roots need no integer factoring: once the square-free part is cleared to a
primitive integer polynomial with leading coefficient l, every rational
root has a denominator dividing l, so distinct candidates lie at least
1/l^2 apart, and a Sturm enclosure narrower than that holds at most one,
``Fraction.limit_denominator(|l|)`` of its midpoint, which one exact
evaluation confirms or rejects. The work is polynomial in the bit size of
the coefficients. Sturm counts read the sign of each sequence member from
its integer Horner sum (``Polynomial.sign``) without building a Fraction.
After deflation no rational roots remain, so sign tests at the rational
bisection midpoints never land on a root. Consumers therefore receive
exact roots whenever they exist and arbitrarily narrow rational enclosures
otherwise, which keeps downstream measures and integrals exact or
rigorously bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import Polynomial, to_rational

__all__ = [
    "poly_divmod",
    "poly_gcd",
    "square_free",
    "sturm_sequence",
    "count_roots",
    "rational_roots",
    "RootEnclosure",
    "isolate_roots",
    "sign_segments",
    "measure_below",
    "abs_integral",
    "DEFAULT_WIDTH",
]

DEFAULT_WIDTH = Fraction(1, 10**13)


def poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quo = [Fraction(0)] * max(len(rem) - len(b.coeffs) + 1, 0)
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


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    return a * (1 / a.leading_coefficient)


def square_free(p: Polynomial) -> Polynomial:
    """Square-free part p / gcd(p, p')."""
    if p.degree <= 1:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    q, r = poly_divmod(p, g)
    assert r.is_zero
    return q


def sturm_sequence(p: Polynomial) -> list[Polynomial]:
    seq = [p, p.derivative()]
    while not seq[-1].is_zero:
        _, r = poly_divmod(seq[-2], seq[-1])
        seq.append(-r)
    seq.pop()
    return seq


def _variations(signs: list[int]) -> int:
    """Sign changes along a sequence of signs, zeros skipped."""
    nonzero = [s for s in signs if s]
    return sum(1 for s, t in zip(nonzero, nonzero[1:]) if s != t)


def count_roots(p: Polynomial, a: Fraction, b: Fraction, seq: list[Polynomial] | None = None) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    if seq is None:
        seq = sturm_sequence(square_free(p))
    va = _variations([q.sign(a) for q in seq])
    vb = _variations([q.sign(b) for q in seq])
    return va - vb


def _bisect(q: Polynomial, seq: list[Polynomial], a: Fraction, b: Fraction, done):
    """Sturm bisection of (a, b]: yields intervals (lo, hi] holding one root of q once done(lo, hi)."""
    stack = [(a, b, count_roots(q, a, b, seq))]
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 1 and done(lo, hi):
            yield lo, hi
        elif cnt:
            mid = (lo + hi) / 2
            stack.append((lo, mid, count_roots(q, lo, mid, seq)))
            stack.append((mid, hi, count_roots(q, mid, hi, seq)))


def _multiplicity(p: Polynomial, r: Fraction) -> int:
    """Multiplicity of r as a root of p, by repeated division by (u - r)."""
    factor = Polynomial.of(-r, 1)
    mult = 0
    while p.sign(r) == 0:
        p, _ = poly_divmod(p, factor)
        mult += 1
    return mult


def rational_roots(p: Polynomial, a: Fraction, b: Fraction) -> list[tuple[Fraction, int]]:
    """All rational roots of p in [a, b] with multiplicities, exactly.

    Let S be the square-free part of p, cleared to a primitive integer
    polynomial with leading coefficient l. By Gauss's lemma a rational root
    r/s of S in lowest terms has s | l, so two distinct candidates are
    fractions with denominators at most |l| and differ by at least 1/l^2.
    Sturm bisection splits [a, b] until each interval (lo, hi] holds one
    root of S: a root at hi is found exactly, and otherwise the interval is
    narrowed below width 1/l^2, where ``mid.limit_denominator(|l|)`` is the
    only fraction that can be the root; one exact sign test decides it. The
    point a, outside every (lo, hi], is tested on its own. Multiplicities in
    p come from repeated division.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    a, b = to_rational(a), to_rational(b)
    s = square_free(p)
    if s.degree < 1 or a > b:
        return []
    return _rational_roots(p, s, sturm_sequence(s), a, b)


def _rational_roots(
    p: Polynomial, s: Polynomial, seq: list[Polynomial], a: Fraction, b: Fraction
) -> list[tuple[Fraction, int]]:
    """:func:`rational_roots` given s = square_free(p) of degree >= 1, its Sturm sequence and a <= b."""
    ints, _ = s._integer_form
    lead = abs(ints[-1]) // math.gcd(*ints)
    separation = Fraction(1, lead * lead)
    found = [a] if s.sign(a) == 0 else []
    for lo, hi in _bisect(s, seq, a, b, lambda lo, hi: s.sign(hi) == 0 or hi - lo < separation):
        if s.sign(hi) == 0:
            found.append(hi)
            continue
        r = ((lo + hi) / 2).limit_denominator(lead)
        # when the root here is irrational, r may be another root of S outside (lo, hi)
        if lo < r < hi and s.sign(r) == 0:
            found.append(r)
    return sorted((r, _multiplicity(p, r)) for r in found)


@dataclass(frozen=True)
class RootEnclosure:
    """Rational interval [low, high] containing exactly one distinct real root."""

    low: Fraction
    high: Fraction
    multiplicity: int = 1

    @property
    def exact(self) -> bool:
        return self.low == self.high

    @property
    def width(self) -> Fraction:
        return self.high - self.low


def isolate_roots(
    p: Polynomial,
    a: Fraction,
    b: Fraction,
    width: Fraction = DEFAULT_WIDTH,
) -> list[RootEnclosure]:
    """All distinct real roots of p in [a, b]: exact where rational, else enclosed.

    Enclosure widths do not exceed ``width``, which must be positive. Raises
    on the zero polynomial (callers special-case identically-zero pieces).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if width <= 0:
        raise ValueError("width must be positive")
    a, b = to_rational(a), to_rational(b)
    if a > b:
        raise ValueError("need a <= b")
    if p.degree == 0:
        return []
    q = square_free(p)
    seq = sturm_sequence(q)
    out = [RootEnclosure(r, r, m) for r, m in _rational_roots(p, q, seq, a, b)]
    for enc in out:
        q, _ = poly_divmod(q, Polynomial.of(-enc.low, 1))
    if q.degree >= 1:
        if out:  # deflated: the sequence of square_free(p) no longer fits q
            seq = sturm_sequence(q)
        # q has no rational roots now, so q(a), q(b) and all midpoints are nonzero
        out += [RootEnclosure(lo, hi, 1) for lo, hi in _bisect(q, seq, a, b, lambda lo, hi: hi - lo <= width)]
    return sorted(out, key=lambda e: (e.low, e.high))


def sign_segments(
    p: Polynomial,
    a: Fraction,
    b: Fraction,
    width: Fraction = DEFAULT_WIDTH,
) -> tuple[list[tuple[Fraction, Fraction, int]], list[RootEnclosure]]:
    """Partition [a, b] into maximal segments where p has constant sign.

    Returns (segments, enclosures); each segment is (lo, hi, sign) with sign
    sampled at the rational midpoint, and enclosures cover the (possibly
    irrational) roots separating them. For exact rational roots the enclosure
    is degenerate and contributes no length.
    """
    encs = isolate_roots(p, a, b, width)
    segments: list[tuple[Fraction, Fraction, int]] = []
    cursor = a
    for enc in encs:
        if enc.low > cursor:
            segments.append((cursor, enc.low, p.sign((cursor + enc.low) / 2)))
        cursor = max(cursor, enc.high)
    if cursor < b:
        segments.append((cursor, b, p.sign((cursor + b) / 2)))
    return segments, encs


def measure_below(
    p: Polynomial,
    a: Fraction,
    b: Fraction,
    level: Fraction,
    width: Fraction = DEFAULT_WIDTH,
) -> tuple[Fraction, Fraction]:
    """Bounds (lo, hi) on the measure of {u in [a, b] : p(u) <= level}.

    Exact (lo == hi) whenever every root of p - level in [a, b] is rational.
    """
    q = p - Polynomial.const(level)
    if q.is_zero:
        length = b - a
        return length, length
    segments, encs = sign_segments(q, a, b, width)
    lo = sum((hi_ - lo_ for lo_, hi_, s in segments if s < 0), Fraction(0))
    slack = sum((e.width for e in encs), Fraction(0))
    return lo, lo + slack


def abs_integral(
    p: Polynomial,
    a: Fraction,
    b: Fraction,
    level: Fraction = Fraction(0),
    width: Fraction = DEFAULT_WIDTH,
) -> tuple[Fraction, Fraction]:
    """(estimate, error_bound) for the integral of |p - level| over [a, b].

    Exact (error_bound == 0) whenever all sign changes happen at rational
    points; otherwise each enclosure contributes at most Lip * width^2, with
    the Lipschitz constant bounded by the coefficient sum of (p - level)'.
    """
    q = p - Polynomial.const(level)
    if q.is_zero:
        return Fraction(0), Fraction(0)
    segments, encs = sign_segments(q, a, b, width)
    total = Fraction(0)
    for lo, hi, s in segments:
        total += s * q.integrate(lo, hi)
    err = Fraction(0)
    lip = q.derivative().coefficient_bound()
    for e in encs:
        if not e.exact:
            # |q| <= lip * width on the enclosure, interval length <= width
            err += lip * e.width * e.width
    return total, err
