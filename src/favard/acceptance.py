"""Acceptance suite: one verifiable check per shipped claim.

Each criterion is a function returning a :class:`CriterionResult`; the CLI
``suite`` subcommand and the test suite both run them. Checks that the
mathematics makes exact are asserted exactly (bit-identical rationals);
float tolerances appear only where a float quantity is being certified, and
every tolerance is pinned here, not configurable. Each criterion imports the
modules it needs beyond ``constants``, ``exact`` and ``numbers``, which the
CLI loads anyway, so a run of some criteria loads only what those run.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .constants import favard_closed_form, favard_series_numeric, favard_table
from .exact import Polynomial, StepFunction, _horner
from .numbers import bernoulli_polynomial

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
    from .kernels import min_abs_integral
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
    from .witness import build_witness, verify_witness
    periods = (Fraction(1), Fraction(5, 2), Fraction(1, 3))
    for n in range(1, 11):
        for T in periods:
            report = verify_witness(build_witness(n, T))
            if not report.all_passed:
                fail = report.first_failure
                return False, f"n={n}, T={T}: {fail.name} off by {fail.discrepancy}"
    return True, "all four exact checks pass for n=1..10, T in {1, 5/2, 1/3}"


def _criterion_dichotomy(seed: int) -> tuple[bool, str]:
    from .sampling import random_deviation
    from .solver import reduce_system
    from .witness import build_witness
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
    from .sampling import random_deviation
    from .solver import contraction_norm, reduce_system
    rng = random.Random(seed + 1)
    periods = (Fraction(1), Fraction(5, 2), Fraction(1, 3))
    worst_slack = Fraction(-1)  # below every slack: norm >= 0 and rho < 1
    for _ in range(50):
        n = rng.randint(1, 4)
        T = periods[rng.randrange(3)]
        rho = Fraction(rng.randint(10, 99), 100)
        K = favard_closed_form(n)
        L = rho / (K * T**n)
        norm = contraction_norm(reduce_system(n, T, L, random_deviation(rng, T)))
        if norm > rho:
            return False, f"n={n}, T={T}, rho={rho}: operator norm {float(norm)} exceeds {float(rho)}"
        worst_slack = max(worst_slack, norm - rho)
    return True, f"50 instances: discretized operator norm <= L K_n T^n + 1e-6 (worst slack {float(worst_slack):.1e})"


def _central_difference(u: Polynomial, f: Polynomial, t: Fraction, h: Fraction, n: int) -> bool:
    """Whether the n-th central difference of u at t with step h is f(t) h^n, in integers: with t = a / b,
    h = c / e, u at (2ae + (n - 2k) bc) / (2be) and f at t are homogeneous Horner sums of their numerators."""
    (a, b), (c, e) = t.as_integer_ratio(), h.as_integer_ratio()
    U = [_horner(u.nums, 2 * a * e + (n - 2 * k) * b * c, 2 * b * e) for k in range(n + 1)]
    total = sum([(-1) ** k * comb(n, k) * x for k, (x, _) in enumerate(U)])
    F, fpow = _horner(f.nums, a, b)
    return total * f.den * fpow * e**n == F * c**n * u.den * U[0][1]


def _criterion_green(seed: int) -> tuple[bool, str]:
    from .kernels import green_apply, green_solution_polynomial
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
        # finite-difference oracle on the 512 grid: the n-th central difference is exact
        # on polynomials of degree <= n + 1, as u is, so the residual must be exactly 0
        h = T / 512
        for i in range(n, 512 - n, 16):
            t = Fraction(i, 512)
            if not _central_difference(u, f, t, h, n):
                return False, f"n={n}: nonzero FD residual at t={t}"
    return True, "n=2..5: exact boundary conditions; 512-grid FD residual 0 (exact) with corrected scale"


def _criterion_weighted(seed: int) -> tuple[bool, str]:
    from .sampling import random_deviation, random_weight
    from .solver import solve_weighted
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
    from .bounds import conclusion_table
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


# random_step_numerators draws at most 6 pieces with values in [-16, 16]: at most 6 cyclic
# jumps, each of size at most 32
_MAX_JUMP_SUM = 6 * 32


class _PackedGrid(NamedTuple):
    """The inequality-suite jump sums of order n as one integer with a w-bit slot per a / 64.

    E[r] = D 64^(n+1) B_{n+1}(r / 64) is an integer Horner sum, D the denominator of B_{n+1},
    and ``shifts[b]`` is sum_a E[(a - 2b) mod 64] 2^(w a), so a step with cyclic jumps J_k at
    the cuts b_k / 32 packs to X = sum_k J_k shifts[b_k] = sum_a y_a 2^(w a), where
    y_a = sum_k J_k E[(a - 2 b_k) mod 64] = -den x(a / 64) and den = 8 D 64^(n+1) (n+1)!.
    w is two bits wider than _MAX_JUMP_SUM max|E|, so every |y_a| < B = 2^(w-2).
    """

    shifts: tuple[int, ...]
    den: int
    width: int
    ones: int  # 1 in every slot

    def exceeds(self, X: int, U: int) -> bool:
        """Whether some |y_a| > U >= 0, by two masked tests over all 64 slots at once (Lamport
        1975, *CACM* 18(8)). With c = H - 1 - U and H = 2^(w-1), X + c ONES has the slots
        y_a + c and c ONES - X the slots c - y_a. For U < B all lie in [1, 2^w), so neither
        carries or borrows across slots, and bit w-1 of a slot is set exactly when y_a > U,
        or y_a < -U, respectively. U >= B is exceeded by no slot."""
        if U >= 1 << (self.width - 2):
            return False
        c = ((1 << (self.width - 1)) - 1 - U) * self.ones
        return ((X + c) | (c - X)) & (self.ones << (self.width - 1)) != 0

    def slots(self, X: int) -> list[int]:
        """y_0, ..., y_63 read off X: each slot of X + B ONES is y_a + B, in [0, 2B)."""
        w, bias = self.width, 1 << (self.width - 2)
        Y, mask = X + bias * self.ones, (1 << w) - 1
        return [((Y >> (w * a)) & mask) - bias for a in range(64)]


@cache
def _packed_grid(n: int) -> _PackedGrid:
    B = bernoulli_polynomial(n + 1)
    E = [_horner(B.nums, r, 64)[0] for r in range(64)]
    w = (_MAX_JUMP_SUM * max(map(abs, E))).bit_length() + 2
    shifts = tuple([sum([E[(a - 2 * b) % 64] << (w * a) for a in range(64)]) for b in range(32)])
    den = 8 * B.den * 64 ** (n + 1) * math.factorial(n + 1)
    return _PackedGrid(shifts, den, w, sum([1 << (w * a) for a in range(64)]))


def _packed_instance(step: tuple[list[int], list[int]], grid: _PackedGrid) -> tuple[int, int]:
    """(S, X) for the zero-mean step w of a :func:`random_step_numerators` step: sup|w| = S / 256,
    and X packs the jump sums of its n-fold zero-mean periodic antiderivative x on ``grid``.

    w is v_k / 8 less its mean on [b_k / 32, b_{k+1} / 32), so S is the largest
    |32 v_k - sum_j v_j (b_{j+1} - b_j)|. By the periodic Bernoulli kernel,
    x(u) = -(1/(n+1)!) sum_k J_k PB_{n+1}(u - b_k / 32) / 8 with J_k = v_k - v_{k-1} the
    cyclic jumps, in which a constant, and so the mean, telescopes to 0. Its values at the
    points a / 64, which include the breakpoints, are the slots of X over ``grid.den``.
    """
    cuts, vals = step
    total = sum([v * (hi - lo) for v, lo, hi in zip(vals, cuts, cuts[1:])])
    shifts = grid.shifts
    X = sum([(v - u) * shifts[b] for b, u, v in zip(cuts, vals[-1:] + vals, vals) if v != u])
    return max([abs(32 * v - total) for v in vals]), X


def _criterion_inequality_suite(seed: int) -> tuple[bool, str]:
    from .sampling import random_step_numerators
    from .witness import build_witness, extremal_ratio
    rng = random.Random(seed + 4)
    for n in range(1, 6):
        K = favard_closed_form(n)
        grid = _packed_grid(n)
        # max|x| > K sup|w| is max|y_a| / den > K S / 256, so for integers: some |y_a| > U
        num, div = K.numerator * grid.den, 256 * K.denominator
        for i in range(500):
            S, X = _packed_instance(random_step_numerators(rng), grid)
            if grid.exceeds(X, num * S // div):
                max_x = Fraction(max(map(abs, grid.slots(X))), grid.den)
                return False, f"n={n}, instance {i}: max|x| = {max_x} > K_n sup = {K * Fraction(S, 256)}"
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
