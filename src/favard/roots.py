"""Exact real-root location for rational polynomials on an interval.

Strategy: build the square-free part and its Sturm sequence once, extract
every rational root exactly, then isolate the remaining real roots by
bisection. Both are built in integers by primitive pseudo-remainders
(Collins 1967; Brown & Traub 1971): each remainder is taken of the dividend
times a positive integer, a product of the divisor's |leading coefficient|
over gcds, and divided by its content. Every member is therefore a positive
multiple of the one Euclid's algorithm over Q gives, and every Sturm count
is the same. The sequence of p itself ends in gcd(p, p'), so a square-free
p needs no other. The members stay integer coefficient lists; the sign of
one at a rational point is the sign of its homogeneous integer Horner sum
(``exact._horner``), and no Fraction is built.

Rational roots need no integer factoring: once the square-free part is a
primitive integer polynomial with leading coefficient l, every rational root
has a denominator dividing l, so distinct candidates lie at least 1/l^2
apart, and a Sturm enclosure narrower than that holds at most one,
``Fraction.limit_denominator(|l|)`` of its midpoint, which one exact
evaluation confirms or rejects. The work is polynomial in the bit size of
the coefficients.

Bisection computes the Sturm variation count of each endpoint once. A Sturm
count of the half-open interval (lo, hi] stays correct when lo or hi is a
root, so the irrational roots in (lo, hi] are that count minus the rational
roots already found there; no root is divided out. Once (lo, hi] holds one
root of the square-free part s and none of the rational roots found, that
root is simple and s(hi) != 0, so it lies in (lo, mid] iff s(mid) == 0 or
sign s(mid) == sign s(hi): one sign of s per step refines the interval
through the same dyadic midpoints to the same stop rule. Consumers therefore
receive exact roots whenever they exist and arbitrarily narrow rational
enclosures otherwise, which keeps downstream measures and integrals exact or
rigorously bounded. ``level_split`` reads both the measure below a level and
the integral of the distance to it from one sign partition.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .exact import Polynomial, _horner, to_rational

__all__ = [
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


def _primitive(c: list[int]) -> list[int]:
    """c over its content, the positive gcd of its entries; [] stays []."""
    g = math.gcd(*c)
    return [x // g for x in c] if g > 1 else c


def _derivative(c: list[int]) -> list[int]:
    return [k * x for k, x in enumerate(c)][1:]


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
    s = _primitive(list(p._integer_form[0]))
    seq = sturm_sequence(s)
    g = seq[-1]
    if len(g) > 1:
        s = _quotient(s, g if g[-1] > 0 else [-x for x in g])
        seq = sturm_sequence(s)
    return s, seq


def square_free(p: Polynomial) -> list[int]:
    """Square-free part p / gcd(p, p') as primitive integer coefficients, lowest degree
    first: a positive multiple of the quotient over Q."""
    return _square_free_sequence(p)[0]


def _sign(c: list[int], x: Fraction) -> int:
    acc, _ = _horner(c, x.numerator, x.denominator)
    return (acc > 0) - (acc < 0)


def _variations(seq: list[list[int]], x: Fraction) -> tuple[int, int]:
    """(sign changes along seq at x, zeros skipped; sign of seq[0] at x)."""
    a, b = x.numerator, x.denominator
    signs = []
    for c in seq:
        acc, _ = _horner(c, a, b)
        signs.append((acc > 0) - (acc < 0))
    nonzero = [t for t in signs if t]
    return sum(t != u for t, u in zip(nonzero, nonzero[1:])), signs[0]


def count_roots(p: Polynomial, a: Fraction, b: Fraction, seq: list[list[int]] | None = None) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b]; ``seq``,
    if given, is the Sturm sequence of p's square-free part."""
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    a, b = to_rational(a), to_rational(b)
    if a > b:
        raise ValueError("need a <= b")
    if seq is None:
        _, seq = _square_free_sequence(p)
    return _variations(seq, a)[0] - _variations(seq, b)[0]


def _bisect(s: list[int], seq: list[list[int]], a: Fraction, b: Fraction, found, done):
    """Intervals (lo, hi] of (a, b], each holding one root of s not in the sorted ``found``,
    bisected until done(lo, hi, sign s(hi)); yields (lo, hi, sign s(hi)).

    The roots in (lo, hi] are its Sturm count less the members of found there. An
    interval holding one root of s and none of found is refined by the sign of s
    alone (module docstring); that needs s(hi) != 0 unless done, which holds when
    found has every rational root of s in (a, b] or done stops at s(hi) == 0.
    """
    va, _ = _variations(seq, a)
    vb, sb = _variations(seq, b)
    stack = [(a, b, va, vb, sb)]
    while stack:
        lo, hi, vlo, vhi, sh = stack.pop()
        inside = bisect_right(found, hi) - bisect_right(found, lo)
        cnt = vlo - vhi - inside
        if cnt == 1 and not inside:
            while not done(lo, hi, sh):
                mid = (lo + hi) / 2
                sm = _sign(s, mid)
                if sm == 0 or sm == sh:
                    hi, sh = mid, sm
                else:
                    lo = mid
            yield lo, hi, sh
        elif cnt == 1 and done(lo, hi, sh):
            yield lo, hi, sh
        elif cnt:
            mid = (lo + hi) / 2
            vm, sm = _variations(seq, mid)
            stack.append((lo, mid, vlo, vm, sm))
            stack.append((mid, hi, vm, vhi, sh))


def rational_roots(p: Polynomial, a: Fraction, b: Fraction) -> list[Fraction]:
    """All distinct rational roots of p in [a, b], sorted, exactly.

    Let S be the square-free part of p as a primitive integer polynomial with
    leading coefficient l. By Gauss's lemma a rational root r/s of S in lowest
    terms has s | l, so two distinct candidates are fractions with
    denominators at most |l| and differ by at least 1/l^2. Sturm bisection
    splits [a, b] until each interval (lo, hi] holds one root of S: a root at
    hi is found exactly, and otherwise the interval is narrowed below width
    1/l^2, where ``mid.limit_denominator(|l|)`` is the only fraction that can
    be the root; one exact sign test decides it. The point a, outside every
    (lo, hi], is tested on its own.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    a, b = to_rational(a), to_rational(b)
    s, seq = _square_free_sequence(p)
    if len(s) < 2 or a > b:
        return []
    return _rational_roots(s, seq, a, b)


def _rational_roots(s: list[int], seq: list[list[int]], a: Fraction, b: Fraction) -> list[Fraction]:
    """:func:`rational_roots` given a primitive square-free s of degree >= 1, its Sturm sequence and a <= b."""
    lead = abs(s[-1])
    separation = Fraction(1, lead * lead)
    found = [a] if _sign(s, a) == 0 else []
    for lo, hi, sh in _bisect(s, seq, a, b, (), lambda lo, hi, sh: sh == 0 or hi - lo < separation):
        if sh == 0:
            found.append(hi)
            continue
        r = ((lo + hi) / 2).limit_denominator(lead)
        # when the root here is irrational, r may be another root of S outside (lo, hi)
        if lo < r < hi and _sign(s, r) == 0:
            found.append(r)
    return sorted(found)


@dataclass(frozen=True)
class RootEnclosure:
    """Rational interval [low, high] from :func:`isolate_roots`: a rational root (low == high),
    or an irrational root inside (low, high), the only irrational one in [low, high]; rational
    roots, each reported exactly on its own, may lie in it too, at an endpoint or inside."""

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
    enclosure (see :class:`RootEnclosure`), which can also hold rational roots, as
    those are subtracted first. Inexact enclosures share at most an endpoint, and
    their widths do not exceed ``width``, which must be positive. Raises
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
    s, seq = _square_free_sequence(p)
    found = _rational_roots(s, seq, a, b)
    out = [RootEnclosure(r, r) for r in found]
    if len(s) - 1 > len(found):
        done = lambda lo, hi, sh: hi - lo <= width
        out += [RootEnclosure(lo, hi) for lo, hi, _ in _bisect(s, seq, a, b, found, done)]
    return sorted(out, key=lambda e: (e.low, e.high))


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
    may overlap, as an inexact one can hold a rational root that also has its
    own exact enclosure; an exact one contributes no length.
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
