"""Bernoulli and Euler numbers, Bernoulli polynomials, and periodic extensions.

Conventions, fixed once for the whole package:

* first-kind Bernoulli numbers, B_1 = -1/2, so that B_n(0) = B_n holds for the
  Bernoulli polynomials (only even indices are consumed downstream, where the
  two conventions agree);
* secant-convention Euler numbers, E_0 = 1, E_2 = -1, odd indices zero.

Two independent generation routes exist for the Bernoulli numbers (the
defining binomial recurrence and the tangent-number route through the Seidel
triangle) because every exact claim downstream rests on these values; the
cache constructor cross-checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exact import Polynomial, RationalLike, frac_part, to_rational

__all__ = [
    "bernoulli_numbers",
    "bernoulli_numbers_tangent",
    "euler_numbers",
    "euler_numbers_zigzag",
    "zigzag_numbers",
    "BernoulliEulerCache",
    "bernoulli_polynomial",
    "eval_periodic",
]


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0..B_n_max from the recurrence sum(C(n+1, j) * B_j, j=0..n) = 0."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out: list[Fraction] = [Fraction(1)]
    for n in range(1, n_max + 1):
        if n > 1 and n % 2 == 1:
            out.append(Fraction(0))  # odd-index values vanish from B_3 on
            continue
        s = sum(Fraction(comb(n + 1, j)) * out[j] for j in range(n))
        out.append(-s / (n + 1))
    return out


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
    """E_0..E_n_max from the recurrence sum(C(n, j) * E_j, j even) = 0 for even n >= 2."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = [1]
    for n in range(1, n_max + 1):
        if n % 2 == 1:
            out.append(0)
            continue
        s = sum(comb(n, j) * out[j] for j in range(0, n, 2))
        out.append(-s)
    return out


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


@dataclass(frozen=True)
class BernoulliEulerCache:
    """Immutable table of B_0..B_N and E_0..E_N, cross-checked at construction.

    Its one caller is ``constants.favard_table``, which builds it once and
    passes it to ``favard_closed_form``; there is no hidden global state.
    """

    bernoulli: tuple[Fraction, ...]
    euler: tuple[int, ...]

    @classmethod
    def build(cls, n_max: int) -> "BernoulliEulerCache":
        bern = bernoulli_numbers(n_max)
        if bern != bernoulli_numbers_tangent(n_max):
            raise AssertionError("Bernoulli generation routes disagree")
        eul = euler_numbers(n_max)
        if eul != euler_numbers_zigzag(n_max):
            raise AssertionError("Euler generation routes disagree")
        for k in range(1, n_max // 2 + 1):
            if (-1) ** (k + 1) * bern[2 * k] <= 0:
                raise AssertionError("Bernoulli sign pattern violated")
            if (-1) ** k * eul[2 * k] <= 0:
                raise AssertionError("Euler sign pattern violated")
        return cls(tuple(bern), tuple(eul))

    @property
    def n_max(self) -> int:
        return len(self.bernoulli) - 1


def bernoulli_polynomial(n: int) -> Polynomial:
    """Exact Bernoulli polynomial B_n(t) = sum(C(n, k) B_{n-k} t^k).

    Satisfies B_n'(t) = n B_{n-1}(t), zero mean on [0, 1] for n >= 1, and
    B_n(0) = B_n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    bern = bernoulli_numbers(n)
    coeffs = [Fraction(comb(n, k)) * bern[n - k] for k in range(n + 1)]
    return Polynomial(tuple(coeffs))


def eval_periodic(poly: Polynomial, t: RationalLike) -> Fraction:
    """Evaluate poly at the fractional part of t (1-periodic extension)."""
    return poly(frac_part(to_rational(t)))

