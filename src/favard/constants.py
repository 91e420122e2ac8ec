"""Favard constants K_n by independent exact routes, plus a numeric series check.

K_n is the best constant in max|x| <= K_n * sup|x^(n)| over zero-mean
1-periodic functions with n-th derivative in L_infinity. The three exact
routes implemented here are:

* ``closed_form``: (2^(n+1) - 1) |B_{n+1}| / (2^(n-1) (n+1)!) for odd n and
  |E_n| / (4^n n!) for even n;
* ``recurrence``: K_{n+1} = (1 / (8 (n+1))) * sum(K_k K_{n-k}, k=0..n) with
  K_0 = 1, K_1 = 1/4;
* ``generating``: Taylor coefficients of sec(t/4) + tan(t/4), computed by
  exact rational power-series arithmetic (series inversion against cos, no
  Bernoulli or Euler numbers involved), so the route is independent of the
  number tables.

The numeric route evaluates K_n (2 pi)^n = (4/pi) * sum over odd integers of
+-(2k-1)^(-(n+1)); the tail past the last computed term is replaced by a
midpoint-integral estimate whose error is controlled by an integral
comparison on the second derivative, and that rigorous bound is reported as
``tail_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import format_rational
from .numbers import bernoulli_numbers, euler_numbers

__all__ = [
    "ROUTES",
    "favard_closed_form",
    "favard_recurrence",
    "favard_generating",
    "FavardEntry",
    "FavardTable",
    "favard_table",
    "SeriesApprox",
    "favard_series_numeric",
]

ROUTES = ("closed_form", "recurrence", "generating")


def favard_closed_form(n: int) -> Fraction:
    """Exact K_n from Bernoulli numbers (odd n) or Euler numbers (even n); K_0 = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    if n % 2 == 1:
        b = bernoulli_numbers(n + 1)[n + 1]
        return Fraction(2 ** (n + 1) - 1) * abs(b) / (2 ** (n - 1) * math.factorial(n + 1))
    return Fraction(abs(euler_numbers(n)[n]), 4**n * math.factorial(n))


def favard_recurrence(n_max: int) -> list[Fraction]:
    """K_0..K_n_max from the quadratic convolution recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    ks = [Fraction(1)]
    if n_max >= 1:
        ks.append(Fraction(1, 4))
    for n in range(1, n_max):
        s = sum(ks[k] * ks[n - k] for k in range(n + 1))
        ks.append(s / (8 * (n + 1)))
    return ks[: n_max + 1]


def _series_div(a: list[Fraction], b: list[Fraction], terms: int) -> list[Fraction]:
    """Coefficients of a/b by triangular back-substitution; requires b[0] != 0."""
    out = [Fraction(0)] * terms
    for k in range(terms):
        acc = a[k] if k < len(a) else Fraction(0)
        for j in range(1, k + 1):
            if j < len(b):
                acc -= b[j] * out[k - j]
        out[k] = acc / b[0]
    return out


def favard_generating(n_max: int) -> list[Fraction]:
    """K_0..K_n_max as Taylor coefficients of sec(t/4) + tan(t/4).

    Formal power series over the rationals: sec = 1/cos and tan = sin/cos by
    back-substitution, then the substitution x = t/4 scales coefficient k by
    4^(-k).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    terms = n_max + 1
    cos = [Fraction(0)] * terms
    sin = [Fraction(0)] * terms
    for k in range(terms):
        if k % 2 == 0:
            cos[k] = Fraction((-1) ** (k // 2), math.factorial(k))
        else:
            sin[k] = Fraction((-1) ** ((k - 1) // 2), math.factorial(k))
    one = [Fraction(1)] + [Fraction(0)] * (terms - 1)
    sec = _series_div(one, cos, terms)
    tan = _series_div(sin, cos, terms)
    return [(sec[k] + tan[k]) / Fraction(4**k) for k in range(terms)]


@dataclass(frozen=True)
class FavardEntry:
    n: int
    value: Fraction
    routes_agreeing: frozenset[str]


@dataclass(frozen=True)
class FavardTable:
    """n -> K_n with per-entry provenance of which routes agreed bit-identically."""

    entries: dict[int, FavardEntry] = field(default_factory=dict)

    def value(self, n: int) -> Fraction:
        return self.entries[n].value

    def all_routes_agree(self) -> bool:
        return all(e.routes_agreeing == frozenset(ROUTES) for e in self.entries.values())

    def to_rows(self) -> list[dict]:
        rows = []
        for n in sorted(self.entries):
            e = self.entries[n]
            rows.append(
                {
                    "n": n,
                    "K_n": format_rational(e.value),
                    "K_n_float": float(e.value),
                    "routes": "+".join(sorted(e.routes_agreeing)),
                }
            )
        return rows


def favard_table(n_max: int, route: str = "all") -> FavardTable:
    """Build the table for n = 0..n_max via one route, or all three with agreement.

    The first selected route gives each value, and every entry records
    exactly the set of selected routes whose output matched it bit for bit
    (with ``route="all"`` the closed form comes first); disagreement is
    preserved in the table rather than raised, so it can surface in output.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if route != "all" and route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    compute = {
        "closed_form": lambda: [favard_closed_form(n) for n in range(n_max + 1)],
        "recurrence": lambda: favard_recurrence(n_max),
        "generating": lambda: favard_generating(n_max),
    }
    selected = ROUTES if route == "all" else (route,)
    values = {r: compute[r]() for r in selected}
    entries = {
        n: FavardEntry(n, v, frozenset(r for r in selected if values[r][n] == v))
        for n, v in enumerate(values[selected[0]])
    }
    return FavardTable(entries)


@dataclass(frozen=True)
class SeriesApprox:
    """Float approximation of K_n (2 pi)^n with a rigorous error bound."""

    n: int
    value: float
    tail_bound: float


def _tail_estimate(n: int, K: int) -> tuple[float, float]:
    """(estimate, error bound) for the series tail past term K.

    Odd n (all terms positive): midpoint-integral estimate
    integral((2x-1)^(-s), x = K + 1/2 .. infinity) with the standard
    second-derivative integral-comparison bound. Even n (alternating):
    bracketing by consecutive partial sums.
    """
    s = n + 1
    if n % 2 == 1:
        est = (2 * K) ** (1 - s) / (2 * (s - 1))
        err = (s * (2 * K) ** (-s - 1) / 12) * (1 + 2 * (s + 1) / (2 * K))
        return est, err
    a1 = (2 * K + 1) ** (-s)
    a2 = (2 * K + 3) ** (-s)
    sign = 1 if K % 2 == 0 else -1
    return sign * (2 * a1 - a2) / 2, a2 / 2


def favard_series_numeric(n: int, rel_tol: float = 1e-10) -> SeriesApprox:
    """Approximate K_n (2 pi)^n from the odd-reciprocal series with honest bounds.

    The number of explicit terms grows until ``tail_bound <= rel_tol * value``,
    where ``tail_bound`` rigorously dominates the residual error of the
    tail-corrected sum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    s = n + 1
    alternating = n % 2 == 0
    K = 8
    while True:
        terms = []
        for k in range(1, K + 1):
            t = (2 * k - 1) ** (-s)
            if alternating and k % 2 == 0:
                t = -t
            terms.append(t)
        est, err = _tail_estimate(n, K)
        partial = math.fsum(terms) + est
        value = 4.0 / math.pi * partial
        tail_bound = 4.0 / math.pi * err + 1e-15 * abs(value)
        if tail_bound <= rel_tol * abs(value) or K > 10**7:
            return SeriesApprox(n=n, value=value, tail_bound=tail_bound)
        K *= 2
