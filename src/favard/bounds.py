"""Public calculators for the sharp period and weight thresholds.

Thresholds are reported exactly on T^n (n-th roots of rationals are
irrational, so exactness is preserved where it exists) together with float
roots for convenience. A root whose radicand does not fit a double is taken
from the logs of the radicand's integer numerator and denominator, and a
float that is itself out of range is reported as None (null in JSON). The
conclusion table reproduces the published threshold lists and compares them
against the exact constants; two published entries disagree with the exact
values (the L_3 coefficient, printed 132 where 1/K_3 = 192, and the P_5
coefficient, printed 24776/5 where 4/K_4 = 24576/5). These are stored
verbatim and flagged, never silently replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .constants import favard_closed_form
from .exact import RationalLike, format_rational, to_float, to_rational

__all__ = [
    "BoundResult",
    "ConclusionRow",
    "min_period_bound",
    "weight_threshold",
    "alpha_constant",
    "conclusion_table",
    "PUBLISHED_L",
    "PUBLISHED_P",
]

# Published threshold coefficients (of T^-n resp. T^-(n-1)) for n = 1..5.
PUBLISHED_L: dict[int, Fraction] = {
    1: Fraction(4),
    2: Fraction(32),
    3: Fraction(132),
    4: Fraction(6144, 5),
    5: Fraction(7680),
}
PUBLISHED_P: dict[int, Fraction] = {
    1: Fraction(4),
    2: Fraction(16),
    3: Fraction(128),
    4: Fraction(768),
    5: Fraction(24776, 5),
}


@dataclass(frozen=True)
class BoundResult:
    """One computed threshold.

    For ``min_period`` the exact content is a lower bound on T^n; for the
    weight kinds it is the L1-norm threshold itself. ``strict`` records
    whether the published inequality is strict (the weight threshold is
    non-strict only at n = 1).
    """

    kind: str  # "min_period" | "weight_threshold"
    n: int
    exact: Fraction
    exact_is_power: bool  # True when ``exact`` bounds T^n rather than T
    strict: bool
    float_value: float | None
    extras: dict

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "n": self.n,
            "exact": format_rational(self.exact),
            "exact_is_power": self.exact_is_power,
            "strict": self.strict,
            "float_value": self.float_value,
        }
        out.update(self.extras)
        return out


def min_period_bound(n: int, L: RationalLike) -> BoundResult:
    """Sharp lower bound on periods of non-constant solutions: T^n >= 1 / (L K_n).

    Also reports the implicit best constant alpha(n) = K_n^(-1/n) and the
    undeviated-argument comparison 2 pi / L^(1/n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    L = to_rational(L)
    if L <= 0:
        raise ValueError("L must be positive")
    K = favard_closed_form(n)
    power_threshold = 1 / (L * K)
    root_L = to_float(L, n)
    return BoundResult(
        kind="min_period",
        n=n,
        exact=power_threshold,
        exact_is_power=True,
        strict=False,
        float_value=to_float(power_threshold, n),
        extras={
            "alpha_n": alpha_constant(n),
            "ode_comparison": 2 * math.pi / root_L if root_L else None,
            "L": format_rational(L),
        },
    )


def alpha_constant(n: int) -> float | None:
    """alpha(n) = K_n^(-1/n): the implicit sharp constant in T >= alpha(n)/L^(1/n)."""
    return to_float(favard_closed_form(n), -n)


def weight_threshold(n: int, T: RationalLike) -> BoundResult:
    """Sharp L1 threshold for the weight: 4 at n = 1 (non-strict), else 4/(K_{n-1} T^{n-1})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    T = to_rational(T)
    if T <= 0:
        raise ValueError("T must be positive")
    if n == 1:
        exact = Fraction(4)
        strict = False
    else:
        exact = 4 / (favard_closed_form(n - 1) * T ** (n - 1))
        strict = True
    return BoundResult(
        kind="weight_threshold",
        n=n,
        exact=exact,
        exact_is_power=False,
        strict=strict,
        float_value=to_float(exact),
        extras={"T": format_rational(T)},
    )


@dataclass(frozen=True)
class ConclusionRow:
    """One threshold-coefficient row compared against its published value."""

    family: str  # "L" | "P"
    n: int
    threshold: Fraction
    strict: bool
    published_value: Fraction | None
    erratum_flag: bool
    power: int  # exponent of 1/T multiplying the coefficient

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "threshold": format_rational(self.threshold),
            "threshold_float": to_float(self.threshold),
            "strict": self.strict,
            "published_value": (
                None if self.published_value is None else format_rational(self.published_value)
            ),
            "erratum_flag": self.erratum_flag,
            "power": self.power,
        }


def conclusion_table(n_max: int) -> list[ConclusionRow]:
    """Threshold coefficients L_n = 1/K_n and P_n (weight family) for n = 1..n_max.

    Each coefficient and its strictness come from ``min_period_bound`` (at
    L = 1) or ``weight_threshold`` (at T = 1). Rows with a published value are
    compared exactly; a mismatch sets the erratum flag while keeping the
    published number verbatim.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows: list[ConclusionRow] = []
    for family, published, bound, shift in (
        ("L", PUBLISHED_L, min_period_bound, 0),
        ("P", PUBLISHED_P, weight_threshold, 1),
    ):
        for n in range(1, n_max + 1):
            res, pub = bound(n, 1), published.get(n)
            flag = pub is not None and pub != res.exact
            rows.append(ConclusionRow(family, n, res.exact, res.strict, pub, flag, n - shift))
    return rows
