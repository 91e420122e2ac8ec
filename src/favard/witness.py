"""Extremal periodic solutions attaining the sharp threshold L = 1/(K_n T^n).

For every order n and period T this module constructs a two-point deviation
tau and a non-constant T-periodic y with y^(n)(t) = L y(tau(t)) at the
critical Lipschitz constant L = 1/(K_n T^n), which shows the minimal-period
bound T >= 1/(L K_n)^(1/n) cannot be improved.

The construction is the n-fold zero-mean periodic antiderivative of the
half-period square wave h, scaled by -L, so y^(n) = -L h and the orientation
sigma is -1 by construction. The deviation is the classical table
(:func:`tabulated_deviation`); a constant centres y on its two values, and
the builder checks exactly that y(tau.first) = sigma and y(tau.second) =
-sigma, so that y(tau(t)) = sigma h(t). The verifier re-checks all
identities in exact arithmetic, the sampling identity among them, which is
what certifies the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constants import favard_closed_form
from .exact import (
    PiecewisePolynomial,
    RationalLike,
    StepFunction,
    format_rational,
    periodic_antiderivatives,
    to_rational,
)
from .roots import isolate_roots

__all__ = [
    "DeviationMap",
    "Witness",
    "CheckResult",
    "VerificationReport",
    "build_witness",
    "verify_witness",
    "tabulated_deviation",
    "witness_extrema",
    "extremal_ratio",
]


@dataclass(frozen=True)
class DeviationMap:
    """Two-point deviation: t maps to ``first`` on the first half period, else ``second``."""

    period: Fraction
    first: Fraction
    second: Fraction

    def __post_init__(self) -> None:
        for v in (self.first, self.second):
            if not 0 <= v <= self.period:
                raise ValueError("deviation values must lie in [0, T]")

    def as_step(self) -> StepFunction:
        """The same deviation as a :class:`StepFunction` with breakpoints 0, T/2, T."""
        T = self.period
        return StepFunction((Fraction(0), T / 2, T), (self.first, self.second), T)

    def to_json_dict(self) -> dict:
        return {
            "period": format_rational(self.period),
            "first": format_rational(self.first),
            "second": format_rational(self.second),
        }


def tabulated_deviation(n: int, T: Fraction) -> DeviationMap:
    """The classical deviation table by residue of n mod 4."""
    T = to_rational(T)
    quarter, half, three_quarters = T / 4, T / 2, 3 * T / 4
    table = {
        0: (quarter, three_quarters),
        1: (half, Fraction(0)),
        2: (three_quarters, quarter),
        3: (Fraction(0), half),
    }
    first, second = table[n % 4]
    return DeviationMap(period=T, first=first, second=second)


def _square_wave(T: Fraction) -> StepFunction:
    return StepFunction((Fraction(0), T / 2, T), (1, -1), T)


@dataclass(frozen=True)
class Witness:
    """Extremal object: order, period, critical constant, and the explicit solution.

    Invariants established by the builder and re-checkable exactly:
    y^(n) = sigma * L_crit * h piecewise with sigma = -1 by construction,
    periodic boundary conditions, y(tau(t)) = sigma * h(t), and
    L_crit * K_n * T^n = 1. ``C`` is y(0).
    """

    n: int
    T: Fraction
    L_crit: Fraction
    C: Fraction
    sigma: int
    y: PiecewisePolynomial
    tau: DeviationMap

    @property
    def h(self) -> StepFunction:
        """Half-period square wave: +1 on the first half period, -1 on the second."""
        return _square_wave(self.T)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "T": format_rational(self.T),
            "L_crit": format_rational(self.L_crit),
            "C": format_rational(self.C),
            "sigma": self.sigma,
            "tau": self.tau.to_json_dict(),
            "tabulated_tau": self.tau.to_json_dict(),  # the deviation is the tabulated one; both keys stay
            "y": self.y.to_json_dict(),
        }


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    discrepancy: Fraction | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_json_dict(self) -> dict:
        return {
            c.name: (
                True
                if c.passed
                else {"passed": False, "discrepancy": format_rational(c.discrepancy or Fraction(0))}
            )
            for c in self.checks
        }


def build_witness(n: int, T: RationalLike) -> Witness:
    """Construct the extremal witness at L = 1/(K_n T^n).

    y is -L times the n-fold periodic antiderivative of h, plus the constant
    that centres it on the two values of the tabulated deviation tau (for even
    n this constant is 0). Raises AssertionError unless y(tau.first) = sigma
    and y(tau.second) = -sigma, i.e. y(tau(t)) = sigma * h(t) with sigma = -1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    T = to_rational(T)
    if T <= 0:
        raise ValueError("T must be positive")
    K = favard_closed_form(n)
    L = 1 / (K * T**n)
    sigma = -1  # y^(n) = -L h
    y0 = periodic_antiderivatives(_square_wave(T).as_piecewise(), n) * (sigma * L)
    tau = tabulated_deviation(n, T)
    y = y0.plus_constant(-(y0(tau.first) + y0(tau.second)) / 2)
    va, vb = y(tau.first), y(tau.second)
    if not (va == sigma and vb == -sigma):
        raise AssertionError(f"y(tau) is not sigma h: y({tau.first}) = {va}, y({tau.second}) = {vb}")
    return Witness(n=n, T=T, L_crit=L, C=y(0), sigma=sigma, y=y, tau=tau)


def verify_witness(w: Witness) -> VerificationReport:
    """Re-derive all four witness identities in exact rational arithmetic.

    Checks, in order: (a) the piecewise differential identity
    y^(n) = sigma L h, (b) the n periodic boundary conditions, (c) the
    sampling identity y(tau(t)) = sigma h(t), (d) the threshold identity
    L K_n T^n = 1. Each failed check carries its exact discrepancy.
    """
    checks: list[CheckResult] = []

    # derivatives 0..n-1 must agree across the period end; d ends as y^(n)
    d = w.y
    bc_disc = None
    for _ in range(w.n):
        start = d.value_in_unit(Fraction(0))
        wrap = d.left_limit_in_unit(Fraction(1))
        if bc_disc is None and start != wrap:
            bc_disc = abs(start - wrap)
        d = d.derivative()

    target = w.h.as_piecewise() * (w.sigma * w.L_crit)
    ok = d == target
    disc = None
    if not ok:
        disc = Fraction(0)
        for u in (Fraction(1, 4), Fraction(3, 4)):
            disc = max(disc, abs(d.value_in_unit(u) - target.value_in_unit(u)))
    checks.append(CheckResult("differential_identity", ok, disc))
    checks.append(CheckResult("periodic_boundary_conditions", bc_disc is None, bc_disc))

    va = w.y(w.tau.first)
    vb = w.y(w.tau.second)
    samp_ok = va == w.sigma and vb == -w.sigma
    samp_disc = None if samp_ok else max(abs(va - w.sigma), abs(vb + w.sigma))
    checks.append(CheckResult("sampling_identity", samp_ok, samp_disc))

    product = w.L_crit * favard_closed_form(w.n) * w.T**w.n
    thr_ok = product == 1
    checks.append(CheckResult("threshold_identity", thr_ok, None if thr_ok else abs(product - 1)))

    return VerificationReport(tuple(checks))


def witness_extrema(w: Witness) -> tuple[Fraction, Fraction]:
    """Exact (max, min) of y over the period.

    Critical points are located by exact root isolation of y' on each piece;
    for these witnesses every critical point is rational, so the extrema are
    exact rationals.
    """
    dy = w.y.derivative()
    candidates: list[Fraction] = list(w.y.breakpoints[:-1])
    for i, piece in enumerate(dy.pieces):
        lo, hi = dy.breakpoints[i], dy.breakpoints[i + 1]
        if piece.is_zero:
            continue
        for enc in isolate_roots(piece, lo, hi):
            if not enc.exact:
                raise AssertionError("irrational critical point in witness solution")
            candidates.append(enc.low)
    values = [w.y.value_in_unit(u if u < 1 else Fraction(0)) for u in candidates]
    values.append(w.y.left_limit_in_unit(Fraction(1)))
    return max(values), min(values)


def extremal_ratio(w: Witness) -> Fraction:
    """Exact max|x| / sup|x^(n)| for the zero-mean normalization x = (y - mean)/L.

    Equals K_n T^n: the witness realizes the best constant of the periodic
    derivative inequality.
    """
    mean = w.y.mean()
    hi, lo = witness_extrema(w)
    amp = max(abs(hi - mean), abs(lo - mean))
    return amp / w.L_crit
