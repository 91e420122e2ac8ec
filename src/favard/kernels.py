"""Convolution kernel phi_n, its optimal centering constant, and the Green function.

The kernel is defined by the Fourier series
phi_n(t) = (1/pi) * sum(k^(-n) cos(k t - n pi/2), k >= 1) and satisfies the
closed form phi_n(2 pi u) = -(2 pi)^(n-1) PB_n(u) / n! with PB_n the
1-periodic Bernoulli function. There is no kernel object: the evaluators
and the median functions work directly on the one polynomial p below,
through the rational coefficient of pi^(n-1), keeping every value exact; the
closed form is validated against the truncated series by a shipped
cross-check, not assumed.

The minimum over xi of the period integral of |phi_n - xi| equals
K_n (2 pi)^n and is attained at any Lebesgue median of phi_n. On [0, 1)
phi_n is the single polynomial p = -2^(n-1) B_n / n! (times pi^(n-1)), and
its median is structural. For odd n, p is antisymmetric about 1/2 and
vanishes in (0, 1) only at 1/2, so the median is 0. For even n, p is
symmetric about 1/2 and monotone on [0, 1/2], so the median is p(1/4), with
crossings at 1/4 and 3/4. Both candidates are verified exactly via root
isolation. For polynomial kernels the median is unique: no level set has
positive measure.

The Green function of x^(n) = f with x(0) = x(T) = 0 and periodic interior
derivatives is
G(t, s) = scale * (B_n(t/T) - B_n(0) - PB_n((t-s)/T) + B_n(1 - s/T)).
``green_apply`` integrates G against a polynomial forcing, split at s = t
(the tests keep a pointwise G as a reference). ``green_solution_polynomial``
does not use G: convolution with PB_n is the n-fold zero-mean periodic
antiderivative I^n (``exact.periodic_antiderivatives``),
integral(PB_n((t - s)/T) g(s), s = 0..T) = -n! T^(1-n) I^n[g - mean g](t).
The prefactor commonly printed as T^n/n! fails the u^(n) = f residual check
(u = integral of G f must scale as T^n f); the dimensionally consistent
scale = T^(n-1)/n! is used here and confirmed by the shipped residual tests.
This discrepancy is documented, not silently hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    PiecewisePolynomial,
    Polynomial,
    RationalLike,
    format_rational,
    periodic_antiderivatives,
    to_float,
    to_rational,
)
from .numbers import bernoulli_polynomial
from .roots import level_split

__all__ = [
    "MedianSplit",
    "min_abs_integral",
    "centered_abs_integral",
    "green_apply",
    "green_solution_polynomial",
    "phi_samples",
]


def _phi_coefficient_poly(n: int) -> Polynomial:
    """Polynomial p with phi_n(2 pi u) = p(u) * pi^(n-1) on [0, 1): p = -2^(n-1) B_n / n!."""
    return bernoulli_polynomial(n) * Fraction(-(2 ** (n - 1)), math.factorial(n))


@dataclass(frozen=True)
class MedianSplit:
    """Optimal centering of phi_n: median level and the minimized integral.

    ``xi_star`` and ``value_coeff`` are rational coefficients of pi^pi_power
    and pi^(pi_power + 1) respectively, with pi_power = n - 1; ``exact``
    marks an integral established in exact arithmetic (error bound zero).
    The median's measure condition is always exact: ``min_abs_integral``
    raises otherwise.
    """

    n: int
    xi_star: Fraction
    value_coeff: Fraction
    value_error_coeff: Fraction

    @property
    def pi_power(self) -> int:
        return self.n - 1

    @property
    def exact(self) -> bool:
        return self.value_error_coeff == 0

    @property
    def value(self) -> float | None:
        return to_float(self.value_coeff, pi_power=self.n)

    @property
    def value_error(self) -> float | None:
        return to_float(self.value_error_coeff, pi_power=self.n)


def min_abs_integral(n: int) -> MedianSplit:
    """Minimize the period integral of |phi_n - xi| over xi; equals K_n (2 pi)^n.

    The median xi* is 0 for odd n (p antisymmetric about 1/2, vanishing in
    (0, 1) only at 1/2) and p(1/4) for even n (p symmetric about 1/2 and
    monotone on [0, 1/2], crossing that level at 1/4 and 3/4). The measure
    {u : p(u) <= xi*} = 1/2 is then verified exactly, from the same sign
    partition that gives the integral; a failure would contradict these
    facts about Bernoulli polynomials and raises AssertionError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = _phi_coefficient_poly(n)
    c = Fraction(0) if n % 2 else p(Fraction(1, 4))
    m_lo, m_hi, est, err = level_split(p, Fraction(0), Fraction(1), c)
    if not m_lo == m_hi == Fraction(1, 2):
        raise AssertionError(f"n={n}: the structural median {c} has measure in [{m_lo}, {m_hi}], not 1/2")
    return MedianSplit(n=n, xi_star=c, value_coeff=2 * est, value_error_coeff=2 * err)


def centered_abs_integral(n: int, xi_coeff: RationalLike) -> tuple[Fraction, Fraction]:
    """(estimate, error bound) for the coefficient of the period integral of |phi_n - xi|.

    Both outputs are coefficients of pi^n; xi is given as its coefficient of
    pi^(n-1). Exact whenever the level crossings are rational.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _, _, est, err = level_split(_phi_coefficient_poly(n), Fraction(0), Fraction(1), to_rational(xi_coeff))
    return 2 * est, 2 * err


def green_apply(n: int, T: RationalLike, f: Polynomial, t: RationalLike) -> Fraction:
    """Exact u(t) = integral(G(t, s) f(s), s = 0..T) for polynomial forcing f.

    The periodic Bernoulli factor splits at s = t, where its argument crosses
    an integer; each part is a polynomial integral.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    T = to_rational(T)
    t = to_rational(t)
    if not 0 <= t <= T:
        raise ValueError("need 0 <= t <= T")
    scale = T ** (n - 1) / Fraction(math.factorial(n))
    Bn = bernoulli_polynomial(n)
    u_t = t / T
    const_part = Bn(u_t) - Bn(Fraction(0))
    total = const_part * f.integrate(0, T)
    # B_n(1 - s/T) term
    total += (Bn.compose_linear(1, Fraction(-1, 1) / T) * f).integrate(0, T)
    # -PB_n((t - s)/T): argument in [0, 1) for s <= t, in [-1, 0) wrapped by +1 for s > t
    if t > 0:
        total -= (Bn.compose_linear(u_t, Fraction(-1, 1) / T) * f).integrate(0, t)
    if t < T:
        total -= (Bn.compose_linear(u_t + 1, Fraction(-1, 1) / T) * f).integrate(t, T)
    return scale * total


def green_solution_polynomial(n: int, T: RationalLike, f: Polynomial) -> Polynomial:
    """u = integral(G(., s) f(s), s = 0..T) as an exact polynomial in t, built with I^n:
    u(t) = scale * (B_n(t/T) - B_n(0)) * integral(f) + I^n[g](t) - I^n[g](0), g = f - mean f,
    with I^n applied to the one piece of g(T u) of period T; no Green function is sampled."""
    if n < 2:
        raise ValueError("n must be >= 2")
    T = to_rational(T)
    g = f.compose_linear(0, T)
    mean = g.integrate(0, 1)
    (I,) = periodic_antiderivatives(PiecewisePolynomial((0, 1), (g - Polynomial.const(mean),), T), n).pieces
    Bn = bernoulli_polynomial(n)
    u = (Bn - Polynomial.const(Bn(0))) * (T**n * mean / math.factorial(n)) + I - Polynomial.const(I(0))
    return u.compose_linear(0, 1 / T)


def phi_samples(n: int, count: int) -> list[dict]:
    """CSV-ready sampling of phi_n: (u, phi_n_coeff, pi_power, float_value); float_value is None out of range."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 1:
        raise ValueError("the sample count must be >= 1")
    p = _phi_coefficient_poly(n)
    rows = []
    for i in range(count):
        u = Fraction(i, count)
        c = p(u)
        rows.append(
            {
                "u": format_rational(u),
                "phi_n_coeff": format_rational(c),
                "pi_power": n - 1,
                "float_value": to_float(c, pi_power=n - 1),
            }
        )
    return rows
