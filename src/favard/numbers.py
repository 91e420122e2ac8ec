"""Bernoulli and Euler numbers, Bernoulli polynomials, and periodic extensions.

Conventions, fixed once for the whole package:

* first-kind Bernoulli numbers, B_1 = -1/2, so that B_n(0) = B_n holds for the
  Bernoulli polynomials (only even indices are consumed downstream, where the
  two conventions agree);
* secant-convention Euler numbers, E_0 = 1, E_2 = -1, odd indices zero.

Two independent generation routes exist for the Bernoulli numbers (the
defining binomial recurrence and the tangent-number route through the Seidel
triangle), and likewise for the Euler numbers, because every exact claim
downstream rests on these values. ``bernoulli_numbers`` and ``euler_numbers``
return prefixes of one module-level table that grows by doubling; each time it
grows, the recurrence values are cross-checked against the second routes and
the sign patterns before the new table is published. Sharing that table across
callers and threads is safe: its values are a pure function of the index, and
it only grows, rebound whole as one tuple, so a reader sees either the old or
the new table and every prefix of both agrees. ``bernoulli_polynomial``
builds each B_n once from that table and returns the same immutable object
on every later call.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .exact import Polynomial, RationalLike, frac_part, to_rational

__all__ = [
    "bernoulli_numbers",
    "bernoulli_numbers_tangent",
    "euler_numbers",
    "euler_numbers_zigzag",
    "zigzag_numbers",
    "bernoulli_polynomial",
    "eval_periodic",
]


# B_0..B_N and E_0..E_N for one N, grown and cross-checked by _grow.
_table: tuple[tuple[Fraction, ...], tuple[int, ...]] = ((Fraction(1),), (1,))


def _grow(n_max: int) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """The table through index n_max at least: doubled by the recurrences and cross-checked."""
    global _table
    bern, eul = _table
    if n_max < len(bern):
        return bern, eul
    size = max(n_max + 1, 2 * len(bern))
    b, e = list(bern), list(eul)
    for n in range(len(b), size):
        if n > 1 and n % 2 == 1:
            b.append(Fraction(0))  # odd-index values vanish from B_3 on
            e.append(0)
            continue
        # sum(C(n+1, j) B_j, j = 0..n) = 0 and sum(C(n, j) E_j, j even) = 0
        b.append(-sum(Fraction(comb(n + 1, j)) * b[j] for j in range(n)) / (n + 1))
        e.append(0 if n % 2 else -sum(comb(n, j) * e[j] for j in range(0, n, 2)))
    if b != bernoulli_numbers_tangent(size - 1):
        raise AssertionError("Bernoulli generation routes disagree")
    if e != euler_numbers_zigzag(size - 1):
        raise AssertionError("Euler generation routes disagree")
    for k in range(1, (size + 1) // 2):
        if (-1) ** (k + 1) * b[2 * k] <= 0:
            raise AssertionError("Bernoulli sign pattern violated")
        if (-1) ** k * e[2 * k] <= 0:
            raise AssertionError("Euler sign pattern violated")
    _table = (tuple(b), tuple(e))
    return _table


# B_n(t) by n, each built once by bernoulli_polynomial
_polynomials: dict[int, Polynomial] = {}


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0..B_n_max from the recurrence sum(C(n+1, j) * B_j, j=0..n) = 0, cross-checked."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return list(_grow(n_max)[0][: n_max + 1])


def zigzag_numbers(n_max: int) -> list[int]:
    """Zigzag (up/down) numbers 1, 1, 1, 2, 5, 16, 61, ... via the Seidel triangle.

    Pure integer arithmetic: Z(n, k) = Z(n, k-1) + Z(n-1, n-k) with Z(0, 0) = 1.
    Even-index entries are the secant numbers, odd-index the tangent numbers.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = [1]
    prev = [1]
    for n in range(1, n_max + 1):
        cur = [0] * (n + 1)
        for k in range(1, n + 1):
            cur[k] = cur[k - 1] + prev[n - k]
        out.append(cur[n])
        prev = cur
    return out


def bernoulli_numbers_tangent(n_max: int) -> list[Fraction]:
    """B_0..B_n_max through tangent numbers: an independent cross-check route.

    Uses B_{2m} = (-1)^(m-1) * 2m * T_{2m-1} / (4^m (4^m - 1)) with the tangent
    numbers T taken from the Seidel triangle.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    zz = zigzag_numbers(max(n_max, 1))
    out: list[Fraction] = []
    for n in range(n_max + 1):
        if n == 0:
            out.append(Fraction(1))
        elif n == 1:
            out.append(Fraction(-1, 2))
        elif n % 2 == 1:
            out.append(Fraction(0))
        else:
            m = n // 2
            sign = 1 if m % 2 == 1 else -1
            out.append(Fraction(sign * n * zz[n - 1], 4**m * (4**m - 1)))
    return out


def euler_numbers(n_max: int) -> list[int]:
    """E_0..E_n_max from the recurrence sum(C(n, j) * E_j, j even) = 0 for even n >= 2, cross-checked."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return list(_grow(n_max)[1][: n_max + 1])


def euler_numbers_zigzag(n_max: int) -> list[int]:
    """E_0..E_n_max via secant numbers: E_{2k} = (-1)^k * Z_{2k}."""
    zz = zigzag_numbers(n_max)
    out = []
    for n in range(n_max + 1):
        if n % 2 == 1:
            out.append(0)
        else:
            sign = -1 if (n // 2) % 2 == 1 else 1
            out.append(sign * zz[n])
    return out


def bernoulli_polynomial(n: int) -> Polynomial:
    """Exact Bernoulli polynomial B_n(t) = sum(C(n, k) B_{n-k} t^k).

    Satisfies B_n'(t) = n B_{n-1}(t), zero mean on [0, 1] for n >= 1, and
    B_n(0) = B_n. Each B_n is built once; later calls return the same object,
    after reading the cross-checked table again.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    bern = bernoulli_numbers(n)
    if n not in _polynomials:
        _polynomials[n] = Polynomial(tuple([Fraction(comb(n, k)) * bern[n - k] for k in range(n + 1)]))
    return _polynomials[n]


def eval_periodic(poly: Polynomial, t: RationalLike) -> Fraction:
    """Evaluate poly at the fractional part of t (1-periodic extension)."""
    return poly(frac_part(to_rational(t)))

