"""Exact real-root location for rational polynomials on an interval.

Strategy: build the square-free part and its Sturm sequence once, extract
every rational root exactly, then isolate the remaining real roots with
the same Sturm counts and bisection. Rational roots need no integer
factoring: once the square-free part is cleared to a primitive integer
polynomial with leading coefficient l, every rational root has a
denominator dividing l, so distinct candidates lie at least 1/l^2 apart,
and a Sturm enclosure narrower than that holds at most one,
``Fraction.limit_denominator(|l|)`` of its midpoint, which one exact
evaluation confirms or rejects. The work is polynomial in the bit size of
the coefficients. Sturm counts read the sign of each sequence member from
its integer Horner sum (``Polynomial.sign``) without building a Fraction.
A Sturm count of the half-open interval (lo, hi] stays correct when lo or
hi is a root, so the irrational roots in (lo, hi] are that count minus the
rational roots already found there; no root is divided out. Consumers
therefore receive exact roots whenever they exist and arbitrarily narrow
rational enclosures otherwise, which keeps downstream measures and
integrals exact or rigorously bounded. ``level_split`` reads both the
measure below a level and the integral of the distance to it from one
sign partition.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
    "level_split",
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


def _bisect(count, a: Fraction, b: Fraction, done):
    """Bisection of (a, b] by a root count: yields intervals (lo, hi] holding one root once done(lo, hi)."""
    stack = [(a, b, count(a, b))]
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 1 and done(lo, hi):
            yield lo, hi
        elif cnt:
            mid = (lo + hi) / 2
            stack.append((lo, mid, count(lo, mid)))
            stack.append((mid, hi, count(mid, hi)))


def rational_roots(p: Polynomial, a: Fraction, b: Fraction) -> list[Fraction]:
    """All distinct rational roots of p in [a, b], sorted, exactly.

    Let S be the square-free part of p, cleared to a primitive integer
    polynomial with leading coefficient l. By Gauss's lemma a rational root
    r/s of S in lowest terms has s | l, so two distinct candidates are
    fractions with denominators at most |l| and differ by at least 1/l^2.
    Sturm bisection splits [a, b] until each interval (lo, hi] holds one
    root of S: a root at hi is found exactly, and otherwise the interval is
    narrowed below width 1/l^2, where ``mid.limit_denominator(|l|)`` is the
    only fraction that can be the root; one exact sign test decides it. The
    point a, outside every (lo, hi], is tested on its own.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    a, b = to_rational(a), to_rational(b)
    s = square_free(p)
    if s.degree < 1 or a > b:
        return []
    return _rational_roots(s, sturm_sequence(s), a, b)


def _rational_roots(s: Polynomial, seq: list[Polynomial], a: Fraction, b: Fraction) -> list[Fraction]:
    """:func:`rational_roots` given a square-free s of degree >= 1, its Sturm sequence and a <= b."""
    ints, _ = s._integer_form
    lead = abs(ints[-1]) // math.gcd(*ints)
    separation = Fraction(1, lead * lead)
    found = [a] if s.sign(a) == 0 else []
    count = lambda lo, hi: count_roots(s, lo, hi, seq)
    for lo, hi in _bisect(count, a, b, lambda lo, hi: s.sign(hi) == 0 or hi - lo < separation):
        if s.sign(hi) == 0:
            found.append(hi)
            continue
        r = ((lo + hi) / 2).limit_denominator(lead)
        # when the root here is irrational, r may be another root of S outside (lo, hi)
        if lo < r < hi and s.sign(r) == 0:
            found.append(r)
    return sorted(found)


@dataclass(frozen=True)
class RootEnclosure:
    """Rational interval [low, high] containing exactly one distinct real root."""

    low: Fraction
    high: Fraction

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
    One square-free part and one Sturm sequence serve both searches: the
    irrational roots in (lo, hi] are the Sturm count there minus the
    rational roots found in (lo, hi].
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
    s = square_free(p)
    seq = sturm_sequence(s)
    found = _rational_roots(s, seq, a, b)

    def count(lo: Fraction, hi: Fraction) -> int:
        return count_roots(s, lo, hi, seq) - (bisect_right(found, hi) - bisect_right(found, lo))

    out = [RootEnclosure(r, r) for r in found]
    if s.degree > len(found):
        out += [RootEnclosure(lo, hi) for lo, hi in _bisect(count, a, b, lambda lo, hi: hi - lo <= width)]
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


def level_split(
    p: Polynomial,
    a: Fraction,
    b: Fraction,
    level: Fraction,
    width: Fraction = DEFAULT_WIDTH,
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(measure_low, measure_high, estimate, error_bound) from one sign partition of p - level on [a, b].

    The measure of {u in [a, b] : p(u) <= level} lies in [measure_low,
    measure_high], and the integral of |p - level| over [a, b] lies within
    error_bound of estimate. Both are exact (measure_low == measure_high,
    error_bound == 0) whenever every root of p - level in [a, b] is rational;
    otherwise each enclosure adds its width to the measure slack and at most
    Lip * width^2 to the error, with the Lipschitz constant bounded by the
    coefficient sum of (p - level)'.
    """
    q = p - Polynomial.const(level)
    if q.is_zero:
        return b - a, b - a, Fraction(0), Fraction(0)
    segments, encs = sign_segments(q, a, b, width)
    below = sum((hi - lo for lo, hi, s in segments if s < 0), Fraction(0))
    slack = sum((e.width for e in encs), Fraction(0))
    total = sum((s * q.integrate(lo, hi) for lo, hi, s in segments), Fraction(0))
    lip = q.derivative().coefficient_bound()
    # |q| <= lip * width on an enclosure of length width
    err = sum((lip * e.width * e.width for e in encs if not e.exact), Fraction(0))
    return below, below + slack, total, err
