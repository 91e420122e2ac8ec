"""Exact arithmetic substrate: rational polynomials and periodic piecewise polynomials.

Rationals are ``fractions.Fraction`` throughout: arbitrary precision and always
canonical (positive denominator, reduced), so equality tests are exact.
Piecewise polynomials live on a partition of [0, 1] in the scaled variable
u = t / period and wrap periodically: evaluation reduces the argument modulo
the period first, which makes every instance a T-periodic function on the
whole line. Breakpoints follow the right-continuous convention (the piece to
the right owns its left endpoint), matching fractional-part semantics.

Polynomial evaluation runs in integers: on its first call a polynomial
caches its coefficients as integer numerators over their least common
denominator D, and evaluation at a/b is the homogeneous Horner sum
sum(c_k a^k b^(d-k)) divided once by D b^d. The result is the same canonical
``Fraction`` as a Fraction Horner loop would give; ``sign`` reads the sign of
the same integer sum without building a ``Fraction``, since D b^d > 0. The
cache is per instance and lazy, so polynomials that are only built
(quotients, remainders) never pay for it, and it is not part of equality,
hashing or repr.

Piecewise polynomials store nothing but integers and the period: the
breakpoints as numerators N over their lcm L (u = a/b lies in piece
bisect_right(N, a L // b) - 1), and the pieces as coefficient rows of one
width over one denominator, in a canonical form, so equal functions have
equal fields. Evaluation is a homogeneous Horner sum of a row; ``mean``,
``antiderivative`` and each order of ``periodic_antiderivatives`` are one
pass of ``_cumulative`` over the rows, with Horner sums at the breakpoints
A/L; sums, products with a constant and derivatives act on the rows. The
``Fraction`` breakpoints and ``Polynomial`` pieces are views built on first
read, and Fractions are built for results only.

Step functions in the period variable t are :class:`StepFunction`, the one
step type: breakpoints 0 = c_0 < ... < c_K = T, one value per interval
[c_{k-1}, c_k), right-continuous, wrapping with period T. Its constructor
builds, in integers, its one computed form: the step ``PiecewisePolynomial``
on the unit partition c_k / T. ``_partition`` is the one check of a partition.

Tuples are built from list comprehensions, not generators: CPython grows a
``tuple(<generator>)`` by resizing, which fills the tuple free lists of
every size it passes through and raises the peak memory of long runs.

All values are immutable after construction and every operation is a pure
function, so instances are safe to share between threads.
"""

from __future__ import annotations

import decimal
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[int, str, Fraction]

__all__ = [
    "RationalLike",
    "to_rational",
    "format_rational",
    "to_float",
    "frac_part",
    "Polynomial",
    "PiecewisePolynomial",
    "StepFunction",
    "periodic_antiderivatives",
]


def to_rational(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction or exact string like ``"-3/7"`` to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not an exact rational: {x!r}")


def format_rational(x: Fraction) -> str:
    """Serialize as ``"p/q"``, omitting the denominator when it is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


# str(int) takes time quadratic in the digit count; past about this many bits
# the divide and conquer of _int_str is faster.
_STR_BITS = 1 << 16


def _int_str(n: int) -> str:
    """``str(n)``, the same bytes, in time near linear in the digit count for large n.

    Past _STR_BITS bits the bits are split in halves, each half converted to a
    ``Decimal`` and the two recombined as hi * 2^k + lo, as CPython 3.12's
    ``_pylong`` does, in a local exact context (the thread's decimal context is
    never touched). Where the interpreter limits int/str conversion, a result
    longer than the limit raises the ValueError ``str(n)`` raises.
    """
    if abs(n).bit_length() <= _STR_BITS:
        return str(n)
    D = decimal.Decimal
    ctx = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[decimal.Inexact]
    )
    powers: dict[int, decimal.Decimal] = {}

    def pow2(w: int) -> decimal.Decimal:
        p = powers.get(w)
        if p is None:
            if w <= 128:
                p = ctx.power(D(2), w)
            elif w - 1 in powers:
                p = ctx.add(powers[w - 1], powers[w - 1])
            else:
                p = ctx.multiply(pow2(w >> 1), pow2(w - (w >> 1)))
            powers[w] = p
        return p

    def convert(m: int, w: int) -> decimal.Decimal:
        if w <= 128:
            return D(m)
        k = w >> 1
        hi = m >> k
        return ctx.add(ctx.multiply(convert(hi, w - k), pow2(k)), convert(m - (hi << k), k))

    m = abs(n)
    digits = str(convert(m, m.bit_length()))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if 0 < limit < len(digits):
        return str(n)
    return digits if n > 0 else "-" + digits


def to_float(x: Fraction, root: int = 1, pi_power: int = 0) -> float | None:
    """x^(1/root) * pi^pi_power as a float (x > 0 unless root is 1); None out of the float range.

    Where x is zero or a normal double and the result is finite this is
    ``float(x) ** (1 / root) * math.pi ** pi_power``; otherwise it is taken
    from the logs of x's integer numerator and denominator.
    """
    if x == 0:
        return 0.0
    try:
        f = float(x)
        if abs(f) >= sys.float_info.min:
            value = f ** (1.0 / root) * math.pi**pi_power
            if math.isfinite(value):
                return value
    except OverflowError:
        pass
    log_x = math.log(abs(x.numerator)) - math.log(x.denominator)
    try:
        value = math.exp(log_x / root + pi_power * math.log(math.pi))
    except OverflowError:
        return None
    return value if x > 0 else -value


def frac_part(x: Fraction) -> Fraction:
    """Fractional part {x} in [0, 1)."""
    return x - math.floor(x)


def _normalize(coeffs: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    cs = [to_rational(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _horner(nums: Sequence[int], a: int, b: int) -> tuple[int, int]:
    """Homogeneous Horner at a/b: (sum of nums[k] a^k b^(d-k), b^d)."""
    acc = nums[-1]
    bpow = 1
    for c in reversed(nums[:-1]):
        bpow *= b
        acc = acc * a + c * bpow
    return acc, bpow


def _cumulative(rows: Sequence[Sequence[int]], den: int, N: Sequence[int], L: int) -> tuple[list[list[int]], int, int]:
    """Integral from 0 of the pieces sum(rows[i][k] u^k) / den on [N[i]/L, N[i+1]/L), rows of
    one width w, as (out, D, total): out[i] / D is piece i, one wider, and total / D the value
    at u = 1 (the mean), where D = den M L^w and M = lcm(1..w).

    With P[k] = rows[i][k] M / (k + 1) L^(w-1-k), D times the integral of piece i from 0 to
    x / L is x times the plain Horner sum of P at x, and its coefficient of u^(k+1) is P[k] L^(k+1).
    """
    w = len(rows[0])
    M = math.lcm(*range(1, w + 1))
    scale = [M // (k + 1) * L ** (w - 1 - k) for k in range(w)]
    up = [L ** (k + 1) for k in range(w)]
    out = []
    run = 0
    for row, a, b in zip(rows, N, N[1:]):
        P = [c * s for c, s in zip(row, scale)]
        Pa = Pb = 0
        for c in reversed(P):
            Pa = Pa * a + c
            Pb = Pb * b + c
        Pa *= a
        out.append([run - Pa, *[c * u for c, u in zip(P, up)]])
        run += b * Pb - Pa
    return out, den * M * L**w, run


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial with exact rational coefficients, lowest degree first.

    The zero polynomial stores an empty coefficient tuple; any trailing zero
    coefficients are stripped at construction so dataclass equality is
    function equality.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _normalize(self.coeffs))

    @classmethod
    def of(cls, *coeffs: RationalLike) -> "Polynomial":
        return cls([to_rational(c) for c in coeffs])

    @classmethod
    def const(cls, c: RationalLike) -> "Polynomial":
        return cls((to_rational(c),))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    @cached_property
    def _integer_form(self) -> tuple[tuple[int, ...], int]:
        """Integer numerators over the least common denominator D of the coefficients."""
        D = 1
        for c in self.coeffs:
            D = math.lcm(D, c.denominator)
        return tuple([c.numerator * (D // c.denominator) for c in self.coeffs]), D

    def __call__(self, x: RationalLike) -> Fraction:
        nums, D = self._integer_form
        if not nums:
            return Fraction(0)
        acc, bpow = _horner(nums, *to_rational(x).as_integer_ratio())
        return Fraction(acc, D * bpow)

    def sign(self, x: RationalLike) -> int:
        """Sign of p(x) as -1, 0 or 1, read off the integer Horner sum (D b^d > 0)."""
        nums, _ = self._integer_form
        if not nums:
            return 0
        acc, _ = _horner(nums, *to_rational(x).as_integer_ratio())
        return (acc > 0) - (acc < 0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(tuple(out))

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(tuple(out))
        c = to_rational(other)
        return Polynomial([c * a for a in self.coeffs])

    def __rmul__(self, other: RationalLike) -> "Polynomial":
        return self * other

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs) if k >= 1])

    def antiderivative(self, constant: RationalLike = 0) -> "Polynomial":
        out = [to_rational(constant)]
        out.extend(c / (k + 1) for k, c in enumerate(self.coeffs))
        return Polynomial(tuple(out))

    def integrate(self, a: RationalLike, b: RationalLike) -> Fraction:
        """Exact definite integral over [a, b]."""
        F = self.antiderivative()
        return F(b) - F(a)

    def compose_linear(self, c0: RationalLike, c1: RationalLike) -> "Polynomial":
        """Exact composition p(c0 + c1 * u)."""
        arg = Polynomial.of(c0, c1)
        acc = Polynomial.zero()
        for c in reversed(self.coeffs):
            acc = acc * arg + Polynomial.const(c)
        return acc

    def coefficient_bound(self) -> Fraction:
        """Sum of |coefficients|: bounds |p| and serves as a Lipschitz bound on [0, 1]."""
        return sum((abs(c) for c in self.coeffs), Fraction(0))

    def to_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]


def _partition(
    breakpoints: Sequence[RationalLike], count: int, period: RationalLike, over_period: bool = False
) -> tuple[tuple[int, ...], int, Fraction]:
    """(knots, grid, period) for ``count`` pieces: the period, checked positive first, and the
    breakpoints, checked to run strictly up from 0 to the end (1, or the period if ``over_period``),
    over the end as integer numerators over their least common denominator, in integers."""
    period = to_rational(period)
    if period <= 0:
        raise ValueError("period must be positive")
    ratios = [to_rational(b).as_integer_ratio() for b in breakpoints]
    ep, eq = period.as_integer_ratio() if over_period else (1, 1)
    Q = math.lcm(*[q for _, q in ratios])
    P = [p * (Q // q) for p, q in ratios]
    if len(P) < 2 or P[0] != 0 or P[-1] * eq != ep * Q:
        raise ValueError(f"breakpoints must run from 0 to {'T' if over_period else 1}")
    if any([a >= b for a, b in zip(P, P[1:])]):
        raise ValueError("breakpoints must be strictly increasing")
    if count != len(P) - 1:
        raise ValueError("need one piece per interval")
    g = math.gcd(*P)  # breakpoint k over the end is P[k] / P[-1]
    return tuple([a // g for a in P]), P[-1] // g, period


def _step(breakpoints: Sequence, values: Sequence, period: RationalLike, over_period: bool) -> "PiecewisePolynomial":
    """The step function of the given values as constant pieces; see :func:`_partition`."""
    ratios = [to_rational(v).as_integer_ratio() for v in values]
    knots, grid, period = _partition(breakpoints, len(ratios), period, over_period)
    den = math.lcm(*[q for _, q in ratios])
    return object.__new__(PiecewisePolynomial)._fill(knots, grid, [[p * (den // q)] for p, q in ratios], den, period)


@dataclass(frozen=True, init=False)
class PiecewisePolynomial:
    """T-periodic function given by exact polynomial pieces on a partition of [0, 1].

    The one stored form is integer: breakpoint i is knots[i] / grid, with grid
    the least common denominator of the breakpoints, and piece i is
    sum(rows[i][k] u^k) / den in the unit variable u, valid on
    [knots[i] / grid, knots[i+1] / grid). The rows share one width, at least 1,
    with a nonzero last column unless the function is 0; den > 0 and no prime
    divides den and every entry. The form is canonical, so dataclass equality
    and hashing are function equality. Evaluation at t uses u = {t / period}.

    ``breakpoints`` (Fractions from 0 to 1) and ``pieces`` (one Polynomial per
    interval) are views built on first read; the constructor takes them and
    converts them once.
    """

    knots: tuple[int, ...]
    grid: int
    rows: tuple[tuple[int, ...], ...]
    den: int
    period: Fraction

    def __init__(
        self,
        breakpoints: Sequence[RationalLike],
        pieces: Sequence[Polynomial],
        period: RationalLike,
    ) -> None:
        knots, grid, period = _partition(breakpoints, len(pieces), period)
        forms = [p._integer_form for p in pieces]
        den = math.lcm(*[D for _, D in forms])
        width = max(1, *[len(nums) for nums, _ in forms])
        rows = [[c * (den // D) for c in nums] + [0] * (width - len(nums)) for nums, D in forms]
        self._fill(knots, grid, rows, den, period)

    def _fill(self, knots: tuple[int, ...], grid: int, rows: list, den: int, period: Fraction) -> "PiecewisePolynomial":
        """Store the canonical form of the pieces rows / den (rows of one width, den > 0):
        trailing zero columns are dropped, keeping one, and the common gcd divided out."""
        w = len(rows[0])
        while w > 1 and not any([r[w - 1] for r in rows]):
            w -= 1
        g = math.gcd(den, *[c for r in rows for c in r[:w]])
        rows = tuple([tuple([c // g for c in r[:w]]) for r in rows])
        self.__dict__.update(knots=knots, grid=grid, rows=rows, den=den // g, period=period)
        return self

    def _make(self, rows: list, den: int) -> "PiecewisePolynomial":
        """The pieces rows / den on this partition and period."""
        return object.__new__(PiecewisePolynomial)._fill(self.knots, self.grid, rows, den, self.period)

    @classmethod
    def step(
        cls,
        breakpoints: Sequence[RationalLike],
        values: Sequence[RationalLike],
        period: RationalLike = 1,
    ) -> "PiecewisePolynomial":
        """Step function: constant pieces on the given unit-interval partition."""
        return _step(breakpoints, values, period, False)

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(k, self.grid) for k in self.knots])

    @cached_property
    def pieces(self) -> tuple[Polynomial, ...]:
        return tuple([Polynomial([Fraction(c, self.den) for c in row]) for row in self.rows])

    def piece_index(self, u: Fraction) -> int:
        """Index of the piece owning u in [0, 1), right-continuous at breakpoints."""
        a, b = u.as_integer_ratio()
        if not 0 <= a < b:
            raise ValueError("u must lie in [0, 1)")
        return bisect_right(self.knots, a * self.grid // b) - 1

    def _value(self, i: int, a: int, b: int) -> Fraction:
        """Piece i at u = a / b."""
        acc, bpow = _horner(self.rows[i], a, b)
        return Fraction(acc, self.den * bpow)

    def value_in_unit(self, u: Fraction) -> Fraction:
        return self._value(self.piece_index(u), *u.as_integer_ratio())

    def __call__(self, t: RationalLike) -> Fraction:
        u = frac_part(to_rational(t) / self.period)
        return self.value_in_unit(u)

    def left_limit_in_unit(self, u: RationalLike) -> Fraction:
        """Limit from below at u in (0, 1]; at u = 0 use the limit at the period end."""
        a, b = to_rational(u).as_integer_ratio()
        if a == 0:
            a = b = 1
        if not 0 < a <= b:
            raise ValueError("u must lie in (0, 1]")
        # the last breakpoint strictly below u: knots[i] b < a grid, i.e. knots[i] <= (a grid - 1) // b
        return self._value(bisect_right(self.knots, (a * self.grid - 1) // b) - 1, a, b)

    def derivative(self) -> "PiecewisePolynomial":
        """Piecewise derivative with respect to t (chain rule through u = t/T)."""
        p, q = self.period.as_integer_ratio()
        return self._make([[k * r[k] * q for k in range(1, len(r))] or [0] for r in self.rows], self.den * p)

    @cached_property
    def _integral(self) -> tuple[list[list[int]], int, int]:
        """:func:`_cumulative` of the rows."""
        return _cumulative(self.rows, self.den, self.knots, self.grid)

    def mean(self) -> Fraction:
        """Average over one period: sum of piece integrals in u."""
        _, den, total = self._integral
        return Fraction(total, den)

    def antiderivative(self) -> "PiecewisePolynomial":
        """Periodic antiderivative F with F(0) = 0; requires zero mean over the period.

        Differentiating the result recovers the original pieces exactly (equality
        away from breakpoints).
        """
        rows, den, total = self._integral
        if total:  # total is the mean over the period
            raise ValueError("periodic antiderivative requires zero mean")
        p, q = self.period.as_integer_ratio()
        return self._make([[p * c for c in row] for row in rows], den * q)

    def _shifted(self, p: int, q: int) -> "PiecewisePolynomial":
        """This function plus p / q, q > 0: p / q times the common denominator joins column 0."""
        den = math.lcm(self.den, q)
        f, c = den // self.den, p * (den // q)
        return self._make([[r[0] * f + c, *[x * f for x in r[1:]]] for r in self.rows], den)

    def plus_constant(self, c: RationalLike) -> "PiecewisePolynomial":
        return self._shifted(*to_rational(c).as_integer_ratio())

    def zero_mean(self) -> "PiecewisePolynomial":
        rows, den, total = self._integral
        out = self._shifted(-total, den)
        # the integral of f - total / den is the integral of f minus (total / den) u
        out.__dict__["_integral"] = ([[r[0], r[1] - total, *r[2:]] for r in rows], den, 0)
        return out

    def __mul__(self, other: RationalLike) -> "PiecewisePolynomial":
        p, q = to_rational(other).as_integer_ratio()
        return self._make([[p * c for c in r] for r in self.rows], self.den * q)

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "pieces": [p.to_strings() for p in self.pieces],
            "period": format_rational(self.period),
        }


@dataclass(frozen=True)
class StepFunction:
    """T-periodic step function: rational breakpoints 0 = c_0 < ... < c_K = T,
    one rational value per interval [c_{k-1}, c_k), right-continuous. Evaluation,
    ``integral`` and ``as_piecewise`` read the integer form the constructor builds
    once; fields, equality and hashing are the Fractions'."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    period: Fraction

    def __post_init__(self) -> None:
        bps = tuple([to_rational(b) for b in self.breakpoints])
        vals = tuple([to_rational(v) for v in self.values])
        period = to_rational(self.period)
        self.__dict__.update(breakpoints=bps, values=vals, period=period, _form=_step(bps, vals, period, True))

    @classmethod
    def constant(cls, value: RationalLike, period: RationalLike) -> "StepFunction":
        return cls((0, period), (value,), period)

    def __call__(self, t: RationalLike) -> Fraction:
        return self._form(t)

    def as_piecewise(self) -> PiecewisePolynomial:
        """The same function as constant pieces on the unit partition c_k / T."""
        return self._form

    def integral(self) -> Fraction:
        return self._form.mean() * self.period


def periodic_antiderivatives(pw: PiecewisePolynomial, n: int) -> PiecewisePolynomial:
    """n-fold zero-mean periodic antiderivative.

    Starting from a zero-mean periodic function, each integration produces a
    periodic function whose mean is removed again, so the result is an exact
    admissible function: periodic derivatives up to order n - 1 and n-th
    derivative equal to the input. Each order integrates every piece once in
    u: if P is the integral from 0 of the current function and Q that of P,
    then P has mean m = Q(1), P - m is the next function and Q - m u the next
    P. An integral in t is T times the one in u, so the result is T^n times
    the last function.
    """
    if n < 1:
        return pw
    P, pden, total = pw._integral
    if total:
        raise ValueError("periodic antiderivative requires zero mean")
    for _ in range(n):
        Q, qden, m = _cumulative(P, pden, pw.knots, pw.grid)
        rows, s = P, qden // pden  # the next function is (rows s - m) / qden
        P = [[r[0], r[1] - m, *r[2:]] for r in Q]
        g = math.gcd(qden, *[c for r in P for c in r])
        P, pden = [[c // g for c in r] for r in P], qden // g
    p, q = (pw.period**n).as_integer_ratio()
    return pw._make([[p * (r[0] * s - m), *[p * c * s for c in r[1:]]] for r in rows], qden * q)
