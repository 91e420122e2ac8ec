"""Exact real-root location for rational polynomials on an interval.

Strategy: build the square-free part and its Sturm sequence once, then find
every root in one bisection, exactly where it is rational and enclosed
otherwise. Both are built in integers by primitive pseudo-remainders
(Collins 1967; Brown & Traub 1971): each remainder is taken of the dividend
times a positive integer, a product of the divisor's |leading coefficient|
over gcds, and divided by its content. Every member is therefore a positive
multiple of the one Euclid's algorithm over Q gives, and every Sturm count
is the same. The sequence of p itself ends in gcd(p, p'), so a square-free
p needs no other. The members stay integer coefficient lists, worked on by
``exact``'s shared helpers: ``_derivative``, and ``_horner`` and ``_sign`` for
the sign at a rational point, with no Fraction built.

Bisection computes the Sturm variation count of each endpoint once and
splits (a, b] until each cell (lo, hi] holds one root of the square-free
part s. That root is simple, so while s(hi) != 0 it lies in (lo, mid] iff
s(mid) == 0 or sign s(mid) == sign s(hi): one sign of s per step refines
the cell through the same dyadic midpoints, and a zero at a midpoint is
the root, exactly.

Rational roots need no integer factoring: s is a primitive integer
polynomial with leading coefficient l, so every rational root has a
denominator dividing l, distinct candidates lie at least 1/l^2 apart, and
the first cell on a root's path narrower than that holds at most one,
``Fraction.limit_denominator(|l|)`` of its midpoint, which one exact sign
test confirms or rejects. The work is polynomial in the bit size of the
coefficients. An irrational root's enclosure is the first cell on the same
path no wider than the requested width, before or after that test, so each
root is bisected once. Consumers therefore receive exact roots whenever
they exist and arbitrarily narrow, disjoint rational enclosures otherwise,
which keeps downstream measures and integrals exact or rigorously bounded.
``level_split`` reads both the measure below a level and the integral of
the distance to it (``exact._difference`` per segment) from one sign partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import Polynomial, _derivative, _difference, _horner, _sign, to_rational

__all__ = [
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


def _primitive(c: list[int]) -> list[int]:
    """c over its content, the positive gcd of its entries; [] stays []."""
    g = math.gcd(*c)
    return [x // g for x in c] if g > 1 else c


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of m a divided by b for some integer m > 0, trailing zeros stripped.

    Each step scales the running remainder by |lc b| / g, g = gcd(its lead, lc b),
    and subtracts the multiple of b that cancels its lead.
    """
    r = list(a)
    lb, tail = b[-1], b[:-1]
    while len(r) > len(tail):
        lead = r.pop()
        g = math.gcd(lead, lb)
        m, c = abs(lb) // g, lead // g if lb > 0 else -lead // g
        if m != 1:
            r = [m * x for x in r]
        for i, y in enumerate(tail, len(r) - len(tail)):
            r[i] -= c * y
        while r and not r[-1]:
            r.pop()
    return r


def _quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer coefficient lists where b divides a over Z."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + len(b) - 1] // b[-1]
        for i, y in enumerate(b, k):
            r[i] -= c * y
    assert not any(r), "inexact polynomial division"
    return q


def sturm_sequence(s: list[int]) -> list[list[int]]:
    """Sturm sequence of the integer polynomial s: s, then s' and the negated remainders,
    each divided by its content. Each member is a positive multiple of the one Euclid's
    algorithm over Q gives, and the last is gcd(s, s') up to its sign."""
    seq = [s]
    r = _primitive(_derivative(s))
    while r:
        seq.append(r)
        r = _primitive([-x for x in _prem(seq[-2], r)])
    return seq


def _square_free_sequence(p: Polynomial) -> tuple[list[int], list[list[int]]]:
    """The square-free part s = p / gcd(p, p') as primitive integer coefficients, lowest
    degree first, and its Sturm sequence.

    The Sturm sequence of p cleared to a primitive integer polynomial ends in the gcd;
    when that is a constant, p is square-free and the sequence is the one wanted. Else s
    is the exact quotient by the gcd given a positive lead, primitive by Gauss's lemma.
    Either way s is a positive multiple of the quotient over Q.
    """
    s = _primitive(list(p.nums))
    seq = sturm_sequence(s)
    g = seq[-1]
    if len(g) > 1:
        s = _quotient(s, g if g[-1] > 0 else [-x for x in g])
        seq = sturm_sequence(s)
    return s, seq


def _variations(seq: list[list[int]], x: Fraction) -> tuple[int, int]:
    """(sign changes along seq at x, zeros skipped; sign of seq[0] at x)."""
    a, b = x.numerator, x.denominator
    signs = []
    for c in seq:
        acc, _ = _horner(c, a, b)
        signs.append((acc > 0) - (acc < 0))
    nonzero = [t for t in signs if t]
    return sum(t != u for t, u in zip(nonzero, nonzero[1:])), signs[0]


def count_roots(p: Polynomial, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    a, b = to_rational(a), to_rational(b)
    if a > b:
        raise ValueError("need a <= b")
    _, seq = _square_free_sequence(p)
    return _variations(seq, a)[0] - _variations(seq, b)[0]


def _bisect(s: list[int], seq: list[list[int]], a: Fraction, b: Fraction, width: Fraction):
    """(low, high) for each root of the primitive square-free s in [a, b], left to right:
    low == high at a rational root, else the first cell (low, high] on the root's dyadic
    path that holds it alone and is no wider than ``width``.

    Sturm counts split (a, b] until a cell holds one root; the sign of s alone then
    refines it (module docstring), and the cell that first gets narrower than 1/l^2
    tests its one rational candidate.
    """
    lead = abs(s[-1])
    separation = Fraction(1, lead * lead)
    va, sa = _variations(seq, a)
    vb, sb = _variations(seq, b)
    if sa == 0:
        yield a, a
    stack = [(a, b, va, vb, sb)]
    while stack:
        lo, hi, vlo, vhi, sh = stack.pop()
        if vlo - vhi > 1:
            mid = (lo + hi) / 2
            vm, sm = _variations(seq, mid)
            stack += [(mid, hi, vm, vhi, sh), (lo, mid, vlo, vm, sm)]
        elif vlo - vhi == 1:
            cell, tested = None, False
            while sh and not (tested and cell):
                if cell is None and hi - lo <= width:
                    cell = lo, hi
                elif not tested and hi - lo < separation:
                    tested = True
                    r = ((lo + hi) / 2).limit_denominator(lead)
                    # when the root here is irrational, r may be another root of s outside (lo, hi)
                    if lo < r < hi and _sign(s, *r.as_integer_ratio()) == 0:
                        cell = r, r
                else:
                    mid = (lo + hi) / 2
                    sm = _sign(s, *mid.as_integer_ratio())
                    if sm == 0 or sm == sh:
                        hi, sh = mid, sm
                    else:
                        lo = mid
            yield cell if sh else (hi, hi)


def rational_roots(p: Polynomial, a: Fraction, b: Fraction) -> list[Fraction]:
    """All distinct rational roots of p in [a, b], sorted, exactly.

    Let S be the square-free part of p as a primitive integer polynomial with
    leading coefficient l. By Gauss's lemma a rational root r/s of S in lowest
    terms has s | l, so two distinct candidates are fractions with
    denominators at most |l| and differ by at least 1/l^2. Sturm bisection
    splits [a, b] until each interval (lo, hi] holds one root of S: a root at
    hi is found exactly, and otherwise the interval is narrowed below width
    1/l^2, where ``mid.limit_denominator(|l|)`` is the only fraction that can
    be the root; one exact sign test decides it. This is the search of
    :func:`isolate_roots`, with no irrational root refined past that test.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    a, b = to_rational(a), to_rational(b)
    if a > b:
        return []
    s, seq = _square_free_sequence(p)
    # every cell is no wider than b - a, so each irrational root stops at its rationality test
    return [low for low, high in _bisect(s, seq, a, b, b - a) if low == high]


@dataclass(frozen=True)
class RootEnclosure:
    """Rational interval from :func:`isolate_roots`: a rational root (low == high), or the
    half-open (low, high] holding one irrational root and no other root; low may be a
    rational root, reported exactly on its own."""

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
    """All distinct real roots of p in [a, b] in order: exact where rational, else enclosed.

    Each rational root has an exact enclosure and each irrational root one inexact
    enclosure (see :class:`RootEnclosure`) no wider than ``width``, which must be
    positive. Enclosures are sorted and share at most an endpoint. One Sturm
    bisection finds both kinds: each root is refined once, deciding its rationality
    on the way down. Raises on the zero polynomial (callers special-case
    identically-zero pieces).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if width <= 0:
        raise ValueError("width must be positive")
    a, b = to_rational(a), to_rational(b)
    if a > b:
        raise ValueError("need a <= b")
    s, seq = _square_free_sequence(p)
    return [RootEnclosure(low, high) for low, high in _bisect(s, seq, a, b, width)]


def sign_segments(
    p: Polynomial,
    a: Fraction,
    b: Fraction,
    width: Fraction = DEFAULT_WIDTH,
) -> tuple[list[tuple[Fraction, Fraction, int]], list[RootEnclosure]]:
    """Split [a, b] at the root enclosures into segments where p has constant sign.

    Returns (segments, enclosures) with the enclosures of :func:`isolate_roots`;
    each segment is (lo, hi, sign), a gap between the enclosures, with no root
    of p inside it and the sign sampled at its rational midpoint. Enclosures
    do not overlap; an exact one contributes no length.
    """
    encs = isolate_roots(p, a, b, width)
    segments: list[tuple[Fraction, Fraction, int]] = []
    cursor = a
    for low, high in [*[(e.low, e.high) for e in encs], (b, b)]:  # (b, b) closes the last gap
        if low > cursor:
            segments.append((cursor, low, p.sign((cursor + low) / 2)))
        cursor = high
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
    F = q.antiderivative()  # one for all segments: q.integrate builds one per call
    total = sum((_difference(F.nums, s * F.den, lo, hi) for lo, hi, s in segments), Fraction(0))  # q / s = |q|
    lip = q.derivative().coefficient_bound()
    # |q| <= lip * width on an enclosure of length width
    err = sum((lip * e.width * e.width for e in encs if not e.exact), Fraction(0))
    return below, below + slack, total, err
