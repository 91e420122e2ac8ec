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

Piecewise polynomials do the same: breakpoints are cached as numerators N
over their lcm L (u = a/b lies in piece bisect_right(N, a L // b) - 1), and
``mean``, ``antiderivative`` and each order of
``periodic_antiderivatives`` are one pass of ``_cumulative`` over the pieces'
integer rows on one denominator, with Horner sums at the breakpoints A/L.
Fractions are built for results only.

Step functions in the period variable t are :class:`StepFunction`, the one
step type: breakpoints 0 = c_0 < ... < c_K = T, one value per interval
[c_{k-1}, c_k), right-continuous, wrapping with period T like every other
evaluator here. ``as_piecewise`` rescales the breakpoints by 1/T and hands
the constant pieces to ``PiecewisePolynomial.step``.

Tuples are built from list comprehensions, not generators: CPython grows a
``tuple(<generator>)`` by resizing, which fills the tuple free lists of
every size it passes through and raises the peak memory of long runs.

All values are immutable after construction and every operation is a pure
function, so instances are safe to share between threads.
"""

from __future__ import annotations

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
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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


def _cumulative(rows: list[list[int]], den: int, N: Sequence[int], L: int) -> tuple[list[list[int]], int, int]:
    """Integral from 0 of the pieces sum(rows[i][k] u^k) / den on [N[i]/L, N[i+1]/L), rows of
    one width w, as (out, D, total): out[i] / D is piece i, one wider, and total / D the value
    at u = 1 (the mean), where D = den M L^w and M = lcm(1..w)."""
    w = len(rows[0])
    M = math.lcm(*range(1, w + 1))
    scale = [M // k for k in range(1, w + 1)]
    Lw = L**w
    out = []
    run = 0
    for row, a, b in zip(rows, N, N[1:]):
        P = [c * m for c, m in zip(row, scale)]  # P[k] is the coefficient of u^(k+1)
        Pa = a * _horner(P, a, L)[0]
        out.append([run - Pa] + [c * Lw for c in P])
        run += b * _horner(P, b, L)[0] - Pa
    return out, den * M * Lw, run


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

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "Polynomial":
        return cls([to_rational(s) for s in items])


@dataclass(frozen=True)
class PiecewisePolynomial:
    """T-periodic function given by exact polynomial pieces on a partition of [0, 1].

    ``breakpoints`` is a strictly increasing tuple starting at 0 and ending at 1;
    ``pieces[i]`` is the polynomial in the unit variable u valid on
    [breakpoints[i], breakpoints[i+1]). Evaluation at t uses u = {t / period}.
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Polynomial, ...]
    period: Fraction

    def __post_init__(self) -> None:
        bps = tuple([to_rational(b) for b in self.breakpoints])
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "period", to_rational(self.period))
        if len(bps) < 2 or bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.pieces) != len(bps) - 1:
            raise ValueError("need exactly one piece per subinterval")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @classmethod
    def step(
        cls,
        breakpoints: Sequence[RationalLike],
        values: Sequence[RationalLike],
        period: RationalLike = 1,
    ) -> "PiecewisePolynomial":
        """Step function: constant pieces on the given unit-interval partition."""
        return cls(
            tuple([to_rational(b) for b in breakpoints]),
            tuple([Polynomial.const(v) for v in values]),
            to_rational(period),
        )

    @cached_property
    def _grid(self) -> tuple[tuple[int, ...], int]:
        """Breakpoints as integer numerators N over their least common denominator L."""
        L = math.lcm(*[b.denominator for b in self.breakpoints])
        return tuple([b.numerator * (L // b.denominator) for b in self.breakpoints]), L

    def piece_index(self, u: Fraction) -> int:
        """Index of the piece owning u in [0, 1), right-continuous at breakpoints."""
        a, b = u.as_integer_ratio()
        if not 0 <= a < b:
            raise ValueError("u must lie in [0, 1)")
        N, L = self._grid
        return bisect_right(N, a * L // b) - 1

    def value_in_unit(self, u: Fraction) -> Fraction:
        return self.pieces[self.piece_index(u)](u)

    def max_abs_in_unit(self, points: Iterable[Fraction]) -> Fraction:
        """Exact max |f(u)| over points in [0, 1) (0 for none), compared as integer
        Horner sums by cross-multiplication; one Fraction is built at the end."""
        best, best_den = 0, 1
        for u in points:
            nums, D = self.pieces[self.piece_index(u)]._integer_form
            if nums:
                acc, bpow = _horner(nums, *u.as_integer_ratio())
                acc, den = abs(acc), D * bpow
                if acc * best_den > best * den:
                    best, best_den = acc, den
        return Fraction(best, best_den)

    def __call__(self, t: RationalLike) -> Fraction:
        u = frac_part(to_rational(t) / self.period)
        return self.value_in_unit(u)

    def left_limit_in_unit(self, u: RationalLike) -> Fraction:
        """Limit from below at u in (0, 1]; at u = 0 use the limit at the period end."""
        u = to_rational(u)
        if u == 0:
            u = Fraction(1)
        a, b = u.as_integer_ratio()
        if not 0 < a <= b:
            raise ValueError("u must lie in (0, 1]")
        N, L = self._grid
        # the last breakpoint strictly below u: N[i] b < a L, i.e. N[i] <= (a L - 1) // b
        return self.pieces[bisect_right(N, (a * L - 1) // b) - 1](u)

    def derivative(self) -> "PiecewisePolynomial":
        """Piecewise derivative with respect to t (chain rule through u = t/T)."""
        inv = 1 / self.period
        return PiecewisePolynomial(
            self.breakpoints,
            tuple([p.derivative() * inv for p in self.pieces]),
            self.period,
        )

    @cached_property
    def _integral(self) -> tuple[list[list[int]], int, int]:
        """:func:`_cumulative` of the pieces, put over one denominator and one width."""
        forms = [p._integer_form for p in self.pieces]
        den = math.lcm(*[D for _, D in forms])
        width = max(1, *[len(nums) for nums, _ in forms])
        rows = [[c * (den // D) for c in nums] + [0] * (width - len(nums)) for nums, D in forms]
        return _cumulative(rows, den, *self._grid)

    def _from_rows(self, rows: list[list[int]], den: int) -> "PiecewisePolynomial":
        """Pieces rows / den on this partition and period."""
        pieces = tuple([Polynomial(tuple([Fraction(c, den) for c in row])) for row in rows])
        return PiecewisePolynomial(self.breakpoints, pieces, self.period)

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
        return self._from_rows([[p * c for c in row] for row in rows], den * q)

    def plus_constant(self, c: RationalLike) -> "PiecewisePolynomial":
        c = to_rational(c)
        return PiecewisePolynomial(
            self.breakpoints,
            tuple([p + Polynomial.const(c) for p in self.pieces]),
            self.period,
        )

    def zero_mean(self) -> "PiecewisePolynomial":
        return self.plus_constant(-self.mean())

    def __mul__(self, other: RationalLike) -> "PiecewisePolynomial":
        c = to_rational(other)
        return PiecewisePolynomial(
            self.breakpoints, tuple([p * c for p in self.pieces]), self.period
        )

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "pieces": [p.to_strings() for p in self.pieces],
            "period": format_rational(self.period),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PiecewisePolynomial":
        return cls(
            tuple([to_rational(s) for s in data["breakpoints"]]),
            tuple([Polynomial.from_strings(p) for p in data["pieces"]]),
            to_rational(data["period"]),
        )


@dataclass(frozen=True)
class StepFunction:
    """T-periodic step function: rational breakpoints 0 = c_0 < ... < c_K = T,
    one rational value per interval [c_{k-1}, c_k), right-continuous."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    period: Fraction

    def __post_init__(self) -> None:
        bps = tuple([to_rational(b) for b in self.breakpoints])
        vals = tuple([to_rational(v) for v in self.values])
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "period", to_rational(self.period))
        if len(bps) < 2 or bps[0] != 0 or bps[-1] != self.period:
            raise ValueError("breakpoints must run from 0 to T")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        if len(vals) != len(bps) - 1:
            raise ValueError("need one value per interval")

    @classmethod
    def constant(cls, value: RationalLike, period: RationalLike) -> "StepFunction":
        period = to_rational(period)
        return cls((Fraction(0), period), (to_rational(value),), period)

    def __call__(self, t: RationalLike) -> Fraction:
        u = frac_part(to_rational(t) / self.period) * self.period
        return self.values[bisect_right(self.breakpoints, u) - 1]

    def as_piecewise(self) -> PiecewisePolynomial:
        """The same function as constant pieces on the unit partition c_k / T."""
        return PiecewisePolynomial.step([b / self.period for b in self.breakpoints], self.values, self.period)

    def intervals(self) -> list[tuple[Fraction, Fraction, Fraction]]:
        return [
            (self.breakpoints[i], self.breakpoints[i + 1], self.values[i])
            for i in range(len(self.values))
        ]

    def integral(self) -> Fraction:
        return sum(
            (v * (hi - lo) for lo, hi, v in self.intervals()),
            Fraction(0),
        )

    def preimages(self) -> dict[Fraction, list[tuple[Fraction, Fraction]]]:
        """Value -> list of intervals on which the function takes it."""
        out: dict[Fraction, list[tuple[Fraction, Fraction]]] = {}
        for lo, hi, v in self.intervals():
            out.setdefault(v, []).append((lo, hi))
        return out


def periodic_antiderivatives(pw: PiecewisePolynomial, n: int) -> PiecewisePolynomial:
    """n-fold zero-mean periodic antiderivative.

    Starting from a zero-mean periodic function, each integration produces a
    periodic function whose mean is removed again, so the result is an exact
    admissible function: periodic derivatives up to order n - 1 and n-th
    derivative equal to the input. Each order integrates every piece once: if P
    is the integral from 0 of the current function and Q that of P, then P has
    mean m = Q(1), T (P - m) is the next function and T (Q - m u) the next P.
    """
    if n < 1:
        return pw
    P, pden, total = pw._integral
    if total:
        raise ValueError("periodic antiderivative requires zero mean")
    p, q = pw.period.as_integer_ratio()
    for _ in range(n):
        Q, qden, m = _cumulative(P, pden, *pw._grid)
        rows, s = P, qden // pden  # the next function is T (rows s - m) / qden
        P = [[p * r[0], p * (r[1] - m)] + [p * c for c in r[2:]] for r in Q]
        g = math.gcd(qden * q, *[c for r in P for c in r])
        P, pden = [[c // g for c in r] for r in P], qden * q // g
    return pw._from_rows([[p * (r[0] * s - m)] + [p * c * s for c in r[1:]] for r in rows], qden * q)

