"""Acceptance suite: one verifiable check per shipped claim.

Each criterion is a function returning a :class:`CriterionResult`; the CLI
``suite`` subcommand and the test suite both run them. Checks that the
mathematics makes exact are asserted exactly (bit-identical rationals);
float tolerances appear only where a float quantity is being certified, and
every tolerance is pinned here, not configurable.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bounds import conclusion_table
from .constants import favard_closed_form, favard_series_numeric, favard_table
from .exact import Polynomial, StepFunction
from .kernels import green_apply, green_solution_polynomial, min_abs_integral
from .numbers import bernoulli_polynomial
from .sampling import (
    periodic_antiderivatives,
    random_deviation,
    random_weight,
    random_zero_mean_step,
)
from .solver import contraction_norm, reduce_system, solve_weighted
from .witness import build_witness, extremal_ratio, verify_witness

__all__ = ["CriterionResult", "CRITERIA", "run_all", "DEFAULT_SEED"]

DEFAULT_SEED = 20260810

KNOWN_TABLE = {
    1: Fraction(1, 4),
    2: Fraction(1, 32),
    3: Fraction(1, 192),
    4: Fraction(5, 6144),
    5: Fraction(1, 7680),
    6: Fraction(61, 2949120),
}


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float
    time_limit: float | None = None

    @property
    def within_time(self) -> bool:
        return self.time_limit is None or self.seconds < self.time_limit

    def line(self) -> str:
        verdict = "PASS" if (self.passed and self.within_time) else "FAIL"
        limit = f" (limit {self.time_limit:.0f}s)" if self.time_limit else ""
        return f"{verdict}  {self.index:2d}  {self.name}  [{self.seconds:.2f}s{limit}]  {self.detail}"


def _criterion_exact_constants(seed: int) -> tuple[bool, str]:
    table = favard_table(30)
    if not table.all_routes_agree():
        return False, "route disagreement in 1..30"
    for n, expect in KNOWN_TABLE.items():
        if table.value(n) != expect:
            return False, f"K_{n} = {table.value(n)} != {expect}"
    return True, "three routes bit-identical for n=1..30; known values n=1..6 exact"


def _criterion_series_identity(seed: int) -> tuple[bool, str]:
    worst = 0.0
    for n in range(1, 9):
        approx = favard_series_numeric(n, rel_tol=1e-11)
        exact = float(favard_closed_form(n)) * (2 * math.pi) ** n
        err = abs(approx.value - exact)
        worst = max(worst, err)
        if err > 1e-10:
            return False, f"n={n}: |series - exact| = {err:.2e} > 1e-10"
        if err > approx.tail_bound + 1e-12:
            return False, f"n={n}: tail bound {approx.tail_bound:.2e} dishonest (err {err:.2e})"
    return True, f"n=1..8 within 1e-10 of K_n (2 pi)^n, honest tails; worst err {worst:.1e}"


def _criterion_limit(seed: int) -> tuple[bool, str]:
    value = float(favard_closed_form(12)) * (2 * math.pi) ** 12
    gap = abs(value - 4 / math.pi)
    return gap < 1e-5, f"|K_12 (2 pi)^12 - 4/pi| = {gap:.2e}"


def _criterion_kernel_minimization(seed: int) -> tuple[bool, str]:
    for n in range(1, 9):
        ms = min_abs_integral(n)
        expect_coeff = favard_closed_form(n) * 2**n
        if not ms.exact or ms.value_coeff != expect_coeff:
            return False, f"n={n}: value coefficient {ms.value_coeff} != K_n 2^n = {expect_coeff}"
        float_gap = abs(ms.value - float(favard_closed_form(n)) * (2 * math.pi) ** n)
        if float_gap > 1e-8:
            return False, f"n={n}: float gap {float_gap:.2e} > 1e-8"
    ms1 = min_abs_integral(1)
    if ms1.xi_star != 0 or ms1.value_coeff != Fraction(1, 2):
        return False, f"n=1: xi*={ms1.xi_star}, value_coeff={ms1.value_coeff}, want 0 and 1/2 (pi/2)"
    return True, "n=1..8 minimized integral equals K_n (2 pi)^n exactly; n=1 gives pi/2 at xi*=0"


def _criterion_witness(seed: int) -> tuple[bool, str]:
    periods = (Fraction(1), Fraction(5, 2), Fraction(1, 3))
    for n in range(1, 11):
        for T in periods:
            report = verify_witness(build_witness(n, T))
            if not report.all_passed:
                fail = report.first_failure
                return False, f"n={n}, T={T}: {fail.name} off by {fail.discrepancy}"
    return True, "all four exact checks pass for n=1..10, T in {1, 5/2, 1/3}"


def _criterion_dichotomy(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    T = Fraction(1)
    for n in (1, 2, 3, 4):
        K = favard_closed_form(n)
        L_below = Fraction(9, 10) / K
        for i in range(200):
            tau = random_deviation(rng, T)
            det = reduce_system(n, T, L_below, tau).determinant()
            if det == 0:
                return False, f"n={n}, instance {i}: singular below threshold"
        w = build_witness(n, T)
        det_crit = reduce_system(n, T, 1 / K, w.tau.as_step()).determinant()
        if det_crit != 0:
            return False, f"n={n}: witness determinant {det_crit} != 0 at the threshold"
    return True, "n=1..4: 200 random instances each nonsingular at 0.9/K_n; witness singular at 1/K_n"


def _criterion_contraction(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed + 1)
    periods = (Fraction(1), Fraction(5, 2), Fraction(1, 3))
    xi_by_n: dict[int, Fraction] = {}
    worst_slack = -1.0
    for _ in range(50):
        n = rng.randint(1, 4)
        T = periods[rng.randrange(3)]
        rho = Fraction(rng.randint(10, 99), 100)
        K = favard_closed_form(n)
        L = rho / (K * T**n)
        if n not in xi_by_n:
            xi_by_n[n] = min_abs_integral(n).xi_star
        tau = random_deviation(rng, T)
        sys = reduce_system(n, T, L, tau, xi=xi_by_n[n])
        norm = contraction_norm(sys)
        if norm > rho:
            return False, f"n={n}, T={T}, rho={rho}: operator norm {float(norm)} exceeds {float(rho)}"
        worst_slack = max(worst_slack, float(norm) - float(rho))
    return True, f"50 instances: discretized operator norm <= L K_n T^n + 1e-6 (worst slack {worst_slack:.1e})"


def _central_difference(u: Polynomial, t: Fraction, h: Fraction, n: int) -> Fraction:
    total = Fraction(0)
    for k in range(n + 1):
        offset = Fraction(n, 2) - k
        total += (-1) ** k * comb(n, k) * u(t + offset * h)
    return total / h**n


def _criterion_green(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed + 2)
    T = Fraction(1)
    f = bernoulli_polynomial(1)
    for n in range(2, 6):
        u = green_solution_polynomial(n, T, f)
        # the solution built by periodic antiderivatives must agree with the Green integral
        for _ in range(6):
            t = Fraction(rng.randint(1, 1022), 1023)
            if u(t) != green_apply(n, T, f, t):
                return False, f"n={n}: solution disagrees with the Green integral at {t}"
        if u(0) != 0 or u(T) != 0:
            return False, f"n={n}: boundary values u(0)={u(0)}, u(T)={u(T)}"
        d = u
        for i in range(1, n - 1):
            d = d.derivative()
            if d(0) != d(T):
                return False, f"n={n}: derivative {i} not periodic"
        # finite-difference oracle on the 512 grid, exact samples
        h = T / 512
        fmax = max(abs(f(Fraction(i, 512))) for i in range(513))
        worst = Fraction(0)
        for i in range(n, 512 - n, 16):
            t = Fraction(i, 512)
            fd = _central_difference(u, t, h, n)
            worst = max(worst, abs(fd - f(t)))
        if float(worst) > 1e-6 * float(fmax):
            return False, f"n={n}: relative FD residual {float(worst)/float(fmax):.2e} > 1e-6"
    return True, "n=2..5: exact boundary conditions; 512-grid FD residual 0 (exact) with corrected scale"


def _criterion_weighted(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed + 3)
    T = Fraction(1)
    for i in range(100):
        p = random_weight(rng, T, Fraction(39, 10))
        tau = random_deviation(rng, T)
        report = solve_weighted(1, T, p, tau)
        if report.status != "unique":
            return False, f"instance {i}: status {report.status} with integral 3.9 < 4"
    margins = []
    for k in range(1, 7):
        eps = Fraction(1, 2**k)
        width = Fraction(1, 2 ** (k + 3))
        height = (4 + eps) / 2 / width
        bps = (Fraction(0), width, Fraction(1, 2), Fraction(1, 2) + width, Fraction(1))
        p = StepFunction(bps, (height, Fraction(0), height, Fraction(0)), T)
        tau = StepFunction(bps, (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)), T)
        margins.append(solve_weighted(1, T, p, tau).margin)
    decreasing = all(a > b for a, b in zip(margins, margins[1:]))
    toward_zero = margins[-1] < margins[0] / 10
    if not (decreasing and toward_zero):
        return False, f"concentration margins not decreasing toward 0: {margins}"
    return True, (
        f"100 random weights at L1 = 3.9 all unique; concentration margins "
        f"{margins[0]:.2e} -> {margins[-1]:.2e} strictly decreasing"
    )


def _criterion_conclusion_table(seed: int) -> tuple[bool, str]:
    rows = conclusion_table(5)
    flagged = {(r.family, r.n) for r in rows if r.erratum_flag}
    expected = {("L", 3), ("P", 5)}
    if flagged != expected:
        return False, f"flagged rows {flagged} != {expected}"
    by_key = {(r.family, r.n): r for r in rows}
    l3 = by_key[("L", 3)]
    p5 = by_key[("P", 5)]
    if l3.threshold != 192 or l3.published_value != 132:
        return False, f"L_3 row: {l3.threshold} vs published {l3.published_value}"
    if p5.threshold != Fraction(24576, 5) or p5.published_value != Fraction(24776, 5):
        return False, f"P_5 row: {p5.threshold} vs published {p5.published_value}"
    return True, "L_1..L_5 and P_1..P_5 reproduced; exactly L_3 (192 vs 132) and P_5 (24576/5 vs 24776/5) flagged"


def _criterion_inequality_suite(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed + 4)
    grid = [Fraction(i, 64) for i in range(64)]
    for n in range(1, 6):
        K = favard_closed_form(n)
        for i in range(500):
            w = random_zero_mean_step(rng)
            sup_wn = max(abs(p(Fraction(0))) for p in w.pieces)
            if sup_wn == 0:
                continue
            x = periodic_antiderivatives(w, n)
            points = list(grid) + [b for b in x.breakpoints[:-1]]
            max_x = x.max_abs_in_unit(points)
            if max_x > K * sup_wn:
                return False, f"n={n}, instance {i}: max|x| = {max_x} > K_n sup = {K * sup_wn}"
        witness = build_witness(n, Fraction(1))
        if extremal_ratio(witness) != K:
            return False, f"n={n}: witness ratio {extremal_ratio(witness)} != K_n"
    return True, "n=1..5: 500 random admissible functions each satisfy the bound; witness attains K_n exactly"


@dataclass(frozen=True)
class Criterion:
    index: int
    name: str
    func: object
    time_limit: float | None

    def run(self, seed: int = DEFAULT_SEED) -> CriterionResult:
        start = time.perf_counter()
        try:
            passed, detail = self.func(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc!r}"
        elapsed = time.perf_counter() - start
        return CriterionResult(
            index=self.index,
            name=self.name,
            passed=passed,
            detail=detail,
            seconds=elapsed,
            time_limit=self.time_limit,
        )


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "exact-constants", _criterion_exact_constants, 1.0),
    Criterion(2, "series-identity", _criterion_series_identity, 5.0),
    Criterion(3, "large-order-limit", _criterion_limit, None),
    Criterion(4, "kernel-minimization", _criterion_kernel_minimization, 30.0),
    Criterion(5, "witness-sharpness", _criterion_witness, 30.0),
    Criterion(6, "threshold-dichotomy", _criterion_dichotomy, 120.0),
    Criterion(7, "contraction-certificate", _criterion_contraction, None),
    Criterion(8, "green-function", _criterion_green, None),
    Criterion(9, "weighted-thresholds", _criterion_weighted, None),
    Criterion(10, "conclusion-table", _criterion_conclusion_table, None),
    Criterion(11, "inequality-suite", _criterion_inequality_suite, None),
)


def run_all(seed: int = DEFAULT_SEED, indices: list[int] | None = None) -> list[CriterionResult]:
    """Run the criteria with the given indices (all by default), in index order.

    Raises ValueError naming any index that is not a criterion, before running any.
    """
    if indices is not None:
        unknown = sorted(set(indices) - {c.index for c in CRITERIA})
        if unknown:
            raise ValueError(f"no criterion {', '.join(map(str, unknown))}")
    selected = CRITERIA if indices is None else [c for c in CRITERIA if c.index in indices]
    return [c.run(seed) for c in selected]
