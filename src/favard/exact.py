"""Exact arithmetic substrate: rational polynomials and periodic piecewise polynomials.

Rationals at the interface are ``fractions.Fraction``: arbitrary precision and always
canonical (positive denominator, reduced), so equality tests are exact.
Piecewise polynomials live on a partition of [0, 1] in the scaled variable
u = t / period and wrap periodically: evaluation reduces the argument modulo
the period first, which makes every instance a T-periodic function on the
whole line. Breakpoints follow the right-continuous convention (the piece to
the right owns its left endpoint), matching fractional-part semantics.

Each operation on integer coefficient lists (lowest degree first) with more
than one caller has one body here: ``_horner``, the homogeneous Horner sum
sum(c_k a^k b^(d-k)) and b^d at a/b ((0, 1) for the empty list), ``_sign``,
``_difference`` (F(y) - F(x)), ``_derivative`` and ``_cumulative``.

A ``Polynomial`` stores one canonical integer form: numerators over one
positive denominator, with no trailing zero numerator and no common factor,
so equal polynomials have equal fields. Its arithmetic acts on the numerators
and canonicalises once; ``coeffs`` is a ``Fraction`` view built on first read.

Piecewise polynomials store nothing but integers and the period: the
breakpoints as numerators N over their lcm L (u = a/b lies in piece
bisect_right(N, a L // b) - 1), and the pieces as coefficient rows of one
width over one denominator, in a canonical form, so equal functions have
equal fields. ``mean``, ``antiderivative`` and each order of
``periodic_antiderivatives`` are one pass of ``_cumulative`` over the rows.
The ``Fraction`` breakpoints and ``Polynomial`` pieces are views built on
first read, and Fractions are built for results only.

Step functions in the period variable t are :class:`StepFunction`, the one
step type: breakpoints 0 = c_0 < ... < c_K = T, one value per interval
[c_{k-1}, c_k), right-continuous, wrapping with period T. It stores only its
integer form, the step ``PiecewisePolynomial`` on the unit partition c_k / T,
which its constructor builds without ``PiecewisePolynomial._fill``, and
``_step`` builds straight from cut and value numerators; its breakpoints and
values are views. ``_partition`` is the one check of a partition, in integers.

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
from itertools import zip_longest
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


def _horner(nums: Sequence[int], a: int, b: int) -> tuple[int, int]:
    """Homogeneous Horner at a/b: (sum of nums[k] a^k b^(d-k), b^d); (0, 1) for the empty form."""
    acc = nums[-1] if nums else 0
    bpow = 1
    for c in reversed(nums[:-1]):
        bpow *= b
        acc = acc * a + c * bpow
    return acc, bpow


def _sign(nums: Sequence[int], a: int, b: int) -> int:
    """Sign of sum(nums[k] (a/b)^k), b > 0, as -1, 0 or 1: that of the Horner sum, as b^d > 0."""
    acc, _ = _horner(nums, a, b)
    return (acc > 0) - (acc < 0)


def _difference(nums: Sequence[int], den: int, x: Fraction, y: Fraction) -> Fraction:
    """sum(nums[k] u^k) / den (den != 0) at y less its value at x, from one Horner sum at each end."""
    (fx, px), (fy, py) = [_horner(nums, *t.as_integer_ratio()) for t in (x, y)]
    return Fraction(fy * px - fx * py, den * px * py)


def _derivative(nums: Sequence[int]) -> list[int]:
    """The coefficients of the derivative of sum(nums[k] u^k); [] for a constant."""
    return [k * c for k, c in enumerate(nums)][1:]


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


@dataclass(frozen=True, init=False)
class Polynomial:
    """Univariate polynomial with exact rational coefficients, lowest degree first.

    The one stored form is integer: coefficient k is nums[k] / den, with den > 0, no
    trailing zero numerator (0 is () over 1) and no prime dividing den and every
    numerator. The form is canonical, so dataclass equality and hashing are function
    equality; ``coeffs`` is a ``Fraction`` view built on first read.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[RationalLike]) -> None:
        ratios = [to_rational(c).as_integer_ratio() for c in coeffs]
        den = math.lcm(*[q for _, q in ratios])
        self._fill([p * (den // q) for p, q in ratios], den)

    def _fill(self, nums: Sequence[int], den: int) -> "Polynomial":
        """Store the canonical form of nums / den (den > 0): trailing zeros dropped, the common gcd divided out."""
        w = len(nums)
        while w and not nums[w - 1]:
            w -= 1
        nums = nums[:w]
        g = math.gcd(den, *nums)
        self.__dict__.update(nums=tuple([c // g for c in nums]), den=den // g)
        return self

    @classmethod
    def of(cls, *coeffs: RationalLike) -> "Polynomial":
        return cls(coeffs)

    @classmethod
    def const(cls, c: RationalLike) -> "Polynomial":
        return cls((c,))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(c, self.den) for c in self.nums])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __call__(self, x: RationalLike) -> Fraction:
        acc, bpow = _horner(self.nums, *to_rational(x).as_integer_ratio())
        return Fraction(acc, self.den * bpow)

    def sign(self, x: RationalLike) -> int:
        """Sign of p(x) as -1, 0 or 1, read off the integer Horner sum (den > 0)."""
        return _sign(self.nums, *to_rational(x).as_integer_ratio())

    def __add__(self, other: "Polynomial") -> "Polynomial":
        den = math.lcm(self.den, other.den)
        a, b = [[c * (den // p.den) for c in p.nums] for p in (self, other)]
        return _polynomial([x + y for x, y in zip_longest(a, b, fillvalue=0)], den)

    def __neg__(self) -> "Polynomial":
        return _polynomial([-c for c in self.nums], self.den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if isinstance(other, Polynomial):
            out = [0] * (len(self.nums) + len(other.nums) - 1)  # empty when either is 0
            for i, a in enumerate(self.nums):
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
            return _polynomial(out, self.den * other.den)
        p, q = to_rational(other).as_integer_ratio()
        return _polynomial([p * c for c in self.nums], self.den * q)

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        return _polynomial(_derivative(self.nums), self.den)

    def antiderivative(self) -> "Polynomial":
        """The antiderivative with constant term 0: :func:`_cumulative` of the one piece on [0, 1)."""
        (row,), den, _ = _cumulative([self.nums], self.den, (0, 1), 1)
        return _polynomial(row, den)

    def integrate(self, a: RationalLike, b: RationalLike) -> Fraction:
        """Exact definite integral over [a, b]: the antiderivative's :func:`_difference` from a to b."""
        F = self.antiderivative()
        return _difference(F.nums, F.den, to_rational(a), to_rational(b))

    def compose_linear(self, c0: RationalLike, c1: RationalLike) -> "Polynomial":
        """Exact composition p(c0 + c1 * u): with c0 + c1 u = (A + B u) / Q, the homogeneous
        Horner sum of nums at A + B u over Q, divided by den Q^d."""
        (p0, q0), (p1, q1) = to_rational(c0).as_integer_ratio(), to_rational(c1).as_integer_ratio()
        Q = math.lcm(q0, q1)
        A, B = p0 * (Q // q0), p1 * (Q // q1)
        acc: list[int] = []
        for k, c in enumerate(reversed(self.nums)):
            acc = [A * x + B * y for x, y in zip([*acc, 0], [0, *acc])]
            acc[0] += c * Q**k
        return _polynomial(acc, self.den * Q ** max(self.degree, 0))

    def coefficient_bound(self) -> Fraction:
        """Sum of |coefficients|: bounds |p| and serves as a Lipschitz bound on [0, 1]."""
        return Fraction(sum(map(abs, self.nums)), self.den)

    def to_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]


def _polynomial(nums: Sequence[int], den: int) -> Polynomial:
    """The polynomial sum(nums[k] u^k) / den, den > 0, in canonical form."""
    return object.__new__(Polynomial)._fill(nums, den)


def _partition(
    period: RationalLike, P: Sequence[int], end: int, count: int, label: str = "1"
) -> tuple[tuple[int, ...], int, Fraction]:
    """(knots, grid, period) for ``count`` pieces: the period, checked positive first, and the integer
    breakpoints P, checked to run strictly up from 0 to ``end`` (``label``), over end in lowest terms."""
    period = to_rational(period)
    if period <= 0:
        raise ValueError("period must be positive")
    if len(P) < 2 or P[0] != 0 or P[-1] != end:
        raise ValueError(f"breakpoints must run from 0 to {label}")
    if any([a >= b for a, b in zip(P, P[1:])]):
        raise ValueError("breakpoints must be strictly increasing")
    if count != len(P) - 1:
        raise ValueError("need one piece per interval")
    g = math.gcd(*P)
    return tuple([a // g for a in P]), end // g, period


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
        ratios = [to_rational(b).as_integer_ratio() for b in breakpoints]
        Q = math.lcm(*[q for _, q in ratios])
        knots, grid, period = _partition(period, [p * (Q // q) for p, q in ratios], Q, len(pieces))
        den = math.lcm(*[p.den for p in pieces])
        width = max(1, *[len(p.nums) for p in pieces])
        rows = [[c * (den // p.den) for c in p.nums] + [0] * (width - len(p.nums)) for p in pieces]
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

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(k, self.grid) for k in self.knots])

    @cached_property
    def pieces(self) -> tuple[Polynomial, ...]:
        return tuple([_polynomial(row, self.den) for row in self.rows])

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
        return self._make([[q * c for c in _derivative(r)] or [0] for r in self.rows], self.den * p)

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
        _, den, total = self._integral
        return self._shifted(-total, den)

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


@dataclass(frozen=True, init=False, repr=False)
class StepFunction:
    """T-periodic step function: rational breakpoints 0 = c_0 < ... < c_K = T, one rational
    value per interval [c_{k-1}, c_k), right-continuous. The one stored form is the canonical
    integer step ``PiecewisePolynomial`` on the unit partition c_k / T, so equality and hashing
    are those of the breakpoints, values and period; these are views built on first read."""

    _form: PiecewisePolynomial

    def __init__(self, breakpoints: Iterable[RationalLike], values: Iterable[RationalLike], period: RationalLike):
        bps = [to_rational(b).as_integer_ratio() for b in breakpoints]
        vals = [to_rational(v).as_integer_ratio() for v in values]
        period = to_rational(period)
        (tp, tq), Q, den = period.as_integer_ratio(), math.lcm(*[q for _, q in bps]), math.lcm(*[q for _, q in vals])
        # c_k / T = (c_k Q) tq / (Q tp)
        self._fill([p * (Q // q) * tq for p, q in bps], Q * tp, [p * (den // q) for p, q in vals], den, period)

    def _fill(self, cuts: Sequence[int], grid: int, nums: Sequence[int], den: int, period: Fraction) -> "StepFunction":
        """Check and store nums[k] / den (den > 0) on [cuts[k] T / grid, cuts[k+1] T / grid), reduced."""
        knots, grid, period = _partition(period, cuts, grid, len(nums), "T")
        g = math.gcd(den, *nums)
        form = object.__new__(PiecewisePolynomial)
        form.__dict__.update(knots=knots, grid=grid, rows=tuple([(v // g,) for v in nums]), den=den // g, period=period)
        self.__dict__["_form"] = form
        return self

    @classmethod
    def constant(cls, value: RationalLike, period: RationalLike) -> "StepFunction":
        return cls((0, period), (value,), period)

    @property
    def period(self) -> Fraction:
        return self._form.period

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple([b * self.period for b in self._form.breakpoints])

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(v, self._form.den) for (v,) in self._form.rows])

    def __repr__(self) -> str:
        return f"StepFunction(breakpoints={self.breakpoints!r}, values={self.values!r}, period={self.period!r})"

    def __call__(self, t: RationalLike) -> Fraction:
        return self._form(t)

    def as_piecewise(self) -> PiecewisePolynomial:
        """The same function as constant pieces on the unit partition c_k / T."""
        return self._form

    def integral(self) -> Fraction:
        """The sum of each value times its width: one Fraction over den * grid, times T."""
        f = self._form
        total = sum([v * (b - a) for (v,), a, b in zip(f.rows, f.knots, f.knots[1:])])
        tp, tq = self.period.as_integer_ratio()
        return Fraction(total * tp, f.den * f.grid * tq)


def _step(cuts: Sequence[int], grid: int, nums: Sequence[int], den: int, period: Fraction) -> StepFunction:
    """The step nums[k] / den (den > 0) on [cuts[k] T / grid, cuts[k+1] T / grid), checked, with no Fraction."""
    return object.__new__(StepFunction)._fill(cuts, grid, nums, den, period)


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
