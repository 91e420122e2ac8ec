"""Exact solvability analysis of scalar periodic problems with step deviations.

For the T-periodic problem y^(n)(t) = L y(tau(t)) + C with step-valued tau,
the periodic representation

    y(t) = (T/(2 pi))^(n-1) * integral((phi_n(2 pi s / T) - xi) y^(n)(t - s), s = 0..T) + C_1

closes into a finite linear system: y(tau(t)) is a combination of the finitely
many samples y(s_j) over the deviation values s_j, and evaluating the
representation at each s_i yields exactly solvable equations in those samples
plus the constant C_1. The zero mean of y^(n) (forced by the boundary
conditions) supplies the final row. Singularity of that system is equivalent
to the homogeneous problem having a nontrivial solution, so an exact rational
determinant decides unique solvability with no discretization error.

Kernel integrals use phi_n(2 pi u) = -(2 pi)^(n-1) PB_n(u) / n!; the 2 pi
powers cancel against the representation prefactor, leaving entries that are
exact rationals times powers of T (the pi bookkeeping resolves away). The
convolution is the n-fold zero-mean periodic antiderivative I^n
(``exact.periodic_antiderivatives``), which builds whole solutions:
integral(PB_n((t - s)/T) g(s), s = 0..T) = -n! T^(1-n) I^n[g - mean g](t). The
rows are those of xi = 0: a shift xi adds the rank-one term b 1 m (m the
zero-mean row), which the constant column absorbs, so no verdict depends on
it; :func:`contraction_norm` applies it at the median of phi_n. The periodic
extension convention y(z - T) = y(z), tau(z - T) = tau(z) is realized by
wrapping all kernel arguments modulo T. Where tau lands exactly on a partition breakpoint the
right-continuous convention applies.

Weighted problems y^(n) = p(t) (y(tau(t)) + C) with step p >= 0 reduce the
same way since p times an indicator is still a step function. Both reductions
walk the pieces of the partition once, giving each its column and weight, and
evaluate PB_{n+1} once per (sample, breakpoint); each entry is a sum of
differences of those values.

From the kernel to the end of elimination everything is integer. The
reductions read each step's one stored form (``StepFunction.as_piecewise``:
breakpoints over T as integers on a grid, values over one denominator), and
evaluate each sample's row on its own grid 1/G (the lcm of the step grids and
that sample's own), so the PB_{n+1} values are integer Horner sums over one
common denominator per row: B_{n+1}'s numerators times the powers of G make
one coefficient list per distinct G in a call, and each value is a plain
Horner sum of it at an integer point of the grid. The system is stored as its
pencil in L, integer kernel rows over their own denominators, the integer
zero-mean row and the factor c = L T^n / (n+1)! as an integer pair (see
:class:`ReducedSystem`). Each verdict builds the primitive integer rows and
their scales, as integer pairs, once from the pencil, and no matrix of
Fractions is ever built. The exact contraction norm sums the pencil directly.

Every verdict comes from one rank-revealing integer elimination of those
rows over the reduced Schur complement (see :func:`_eliminate`), each column
pivoting on its entry of fewest bits, which keeps the later minors small and
changes neither the pivot columns nor the determinant nor the kernel: the rows
below the pivots hold the complement as integers over one denominator d, and
the leading minor P of the row-permuted matrix, Bareiss' (1968) pivot, is
tracked beside them. By Sylvester's identity every entry of the next
complement is an integer minor over the next leading minor P', so after a
pivot p the forced divisor q / gcd(q, P'), with q = d p, divides every new
numerator exactly, and a large common factor the block shares with its
denominator is divided out as well. On the reduced rows Bareiss' minors
carry such a factor, hundreds of bits at J = 64, which this pass never
multiplies. Full rank gives the determinant (the product of the row scales
times the last leading minor); rank below the size gives determinant 0 and,
by fraction-free back substitution, the kernel vector whose first free
variable is 1 and other free variables 0, the nontrivial periodic solution
reported at the threshold. Each pivot row is a rational multiple of
Bareiss' row, so the exact integer quotients of back substitution are
Bareiss' own. No right-hand side is ever eliminated: for L > 0 the constant
y = -C/L solves the forced problem for every deviation, since
y^(n) = 0 = L (-C/L) + C, so when the determinant is nonzero it is the
unique solution, every sample and C_1 equal to -C/L.

Edge case: L = 0 degenerates (the homogeneous problem then admits all
constants, but the zero-mean row no longer follows from y^(n) = 0), so
:func:`_report` answers a nontrivial-kernel verdict for it instead of
eliminating the reduced rows, on the homogeneous and the forced path alike.
The instance is still reduced first, so it is validated like any other.

The float margin is advisory: its matrix takes each entry from the integer
rows by one correctly rounded int / int division, the same double a Fraction
converts to. When an entry does not fit in a double the margin is reported
as null with the reason in the provenance, and the exact determinant verdict
stands alone.

Instance analyses are pure functions of their inputs and independent of each
other, so they can run concurrently; the exact elimination inside one
instance is single-threaded and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from fractions import Fraction
from typing import TYPE_CHECKING

from .exact import (
    PiecewisePolynomial,
    RationalLike,
    StepFunction,
    format_rational,
    periodic_antiderivatives,
    to_rational,
)
from .numbers import bernoulli_polynomial

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ReducedSystem",
    "SolveReport",
    "reduce_system",
    "reduce_weighted",
    "uniqueness_margin",
    "solve_periodic",
    "solve_weighted",
    "reconstruct_solution",
    "contraction_norm",
    "fraction_determinant",
    "nullspace_vector",
    "NEAR_SINGULAR_BAND",
]

NEAR_SINGULAR_BAND = 1e-10


@dataclass(frozen=True)
class ReducedSystem:
    """Finite exact system equivalent to the periodic problem for step data.

    The (J+1) x (J+1) homogeneous system M = [I + c K | -1 ; m | 0] in (y(s_1)..y(s_J), C_1)
    encodes v_i - sum_j A_ij v_j - C_1 = 0 with A = -c K in rows 0..J-1 and the zero-mean
    constraint on y^(n) in the last. It is stored as its pencil, in integers: the L-free kernel
    K_ij = K[i][j] / K_den[i], the row m_j = m[j] / m_den and c = c[0] / c[1] = L T^n / (n+1)!
    (L = 1 if weighted). ``rows`` (primitive integer rows), ``scales`` (row i of M is scales[i]
    times rows[i]) and ``sample_points`` (the sorted values of tau) are views built on first read.
    """

    n: int
    T: Fraction
    kind: str  # "lipschitz" | "weighted"
    tau: StepFunction
    L: Fraction | None
    K: tuple[tuple[int, ...], ...]
    K_den: tuple[int, ...]
    m: tuple[int, ...]
    m_den: int
    c: tuple[int, int]

    @property
    def size(self) -> int:
        return len(self.K) + 1

    @cached_property
    def sample_points(self) -> tuple[Fraction, ...]:
        form = self.tau.as_piecewise()
        return tuple([Fraction(v, form.den) for v in sorted({r[0] for r in form.rows})])

    def _integer_rows(self) -> tuple[list[list[int]], list[tuple[int, int]]]:
        """Fresh primitive integer rows of M and the scale p / q of each as a pair (p, q)."""
        (cp, cq), rows, factors = self.c, [], []
        for i, (row, d) in enumerate(zip(self.K, self.K_den)):
            q = d * cq
            g = math.gcd(q, cp * math.gcd(*row))  # the content of cp K_i + q e_i and -q
            ints = [cp * x // g for x in row]
            ints[i] += q // g
            ints.append(-q // g)
            rows.append(ints)
            factors.append((1, q // g))
        g = math.gcd(*self.m) or self.m_den  # a zero row keeps scale 1
        rows.append([*[x // g for x in self.m], 0])
        factors.append((g, self.m_den))
        return rows, factors

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple([tuple(row) for row in self._integer_rows()[0]])

    @cached_property
    def scales(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(p, q) for p, q in self._integer_rows()[1]])

    def determinant(self) -> Fraction:
        rows, factors = self._integer_rows()
        return _eliminate(rows, _scale(factors))[0]

    def at(self, L: RationalLike) -> "ReducedSystem":
        """The Lipschitz system at another L >= 0: K and m do not depend on L, so only c changes."""
        if self.kind != "lipschitz":
            raise ValueError("only a Lipschitz system has a parameter L")
        L = to_rational(L)
        return replace(self, L=L, c=_factor(self.n, self.T, L))


@dataclass(frozen=True)
class SolveReport:
    """Solvability verdict with exact determinant and float margin (None when it overflows)."""

    status: str  # "unique" | "nontrivial_kernel" | "near_singular"
    margin: float | None
    determinant: Fraction
    solution_samples: tuple[Fraction, ...] | None = None
    constant: Fraction | None = None
    provenance: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "status": self.status,
            "margin": self.margin,
            "determinant": format_rational(self.determinant),
            "provenance": dict(self.provenance),
        }
        if self.solution_samples is not None:
            out["solution_samples"] = [format_rational(v) for v in self.solution_samples]
        if self.constant is not None:
            out["constant"] = format_rational(self.constant)
        return out


def _scale(factors: list[tuple[int, int]]) -> tuple[int, int]:
    """The product of the row scales p / q as one pair (p, q), unreduced."""
    return math.prod([p for p, _ in factors]), math.prod([q for _, q in factors])


def _eliminate(rows: list[list[int]], scale: tuple[int, int]) -> tuple[Fraction, list[Fraction] | None]:
    """(determinant, kernel vector) of the square matrix whose row i is s_i times
    ``rows[i]``, from one elimination pass over the integer rows (changed in place).

    ``scale`` is the product of the row scales s_i as a pair (p, q), so the
    determinant is one Fraction reduced once. Each column pivots on its
    nonzero entry of fewest bits among the rows not yet pivoted, the lowest
    such row on a tie; a column with no nonzero entry there has no pivot and
    is skipped, so the pass ends in row echelon form and reveals the rank.
    The entries below the pivots are minors of the rows already chosen (see
    below), so a small early pivot keeps every later entry small. Which row
    a column pivots on never changes the column rank profile: column k gets
    a pivot exactly when it is not a combination of the columns before it,
    whatever the row order. So the pivot columns, the first free column,
    the kernel vector and the determinant, its sign kept by the row swaps,
    are those of any other row choice; columns are never permuted, as that
    would change which variable is free.

    After k pivots the rows below them hold the Schur complement S of the
    leading k x k minor P of the row-permuted matrix as integers X over one
    denominator d, S = X / d, and the pass tracks u = P / d, an integer, as
    d divides P. A pivot p = X_r,col gives the next complement Z / q with
    Z = p X_ij - X_i,col X_r,j and q = d p, and the next leading minor is
    P' = P p / d = u p. By Sylvester's identity every entry of the next
    complement is M / P' with M an integer minor (the entry Bareiss' pass
    would hold), so Z = M q / P' and the forced divisor g = q / gcd(q, P') =
    d / gcd(d, u), up to sign, divides every entry of Z exactly: the block
    becomes Z / g over the denominator p gcd(d, u). Without further division
    u stays 1 and g is the previous pivot, Bareiss' (1968) pass step for step.
    When the block has at least 16 rows and gcd(d, first entry, last entry)
    exceeds 64 bits, that gcd is taken on with the block row by row, and if
    it stays above 64 bits it is divided out of the block and of d and
    multiplied into u (a smaller factor, or fewer rows left to eliminate,
    does not repay the search). Full rank gives the determinant P = u d and
    no vector. Otherwise the determinant is 0 and the kernel
    vector has its first free variable 1, the other free variables 0 (the
    vector Gauss-Jordan reduction reads off): with the free variable set to
    P, the leading minor on the pivot columns, the pivot variables are
    integral by Cramer's rule, and each pivot row is a rational multiple of
    Bareiss' pivot row, so each exact quotient of back substitution is the
    same integer and it stays in integers until x = y / P. Row scales do not
    change the kernel.
    """
    m = len(rows)
    sign = 1
    den = 1
    ratio = 1
    free = None
    pivots: list[int] = []
    for col in range(m):
        r = len(pivots)
        pivot, bits = None, math.inf
        for i in range(r, m):
            b = rows[i][col].bit_length()  # 0 for a zero entry
            if 0 < b < bits:
                pivot, bits = i, b
                if b == 1:
                    break
        if pivot is None:
            if free is None:
                free = col
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        top = rows[r]
        pk = top[col]
        e = math.gcd(den, ratio)
        g, ratio, den = den // e, ratio // e, pk * e
        below = rows[r + 1 :]
        for row in below:
            f = row[col]
            for j in range(col + 1, m):
                row[j] = (row[j] * pk - f * top[j]) // g
            row[col] = 0
        pivots.append(col)
        if len(below) >= 16 and col + 1 < m:
            c = math.gcd(den, below[0][col + 1], below[-1][-1])
            for row in below:
                if c.bit_length() <= 64:
                    break
                c = math.gcd(c, *row[col + 1 :])
            else:
                for row in below:
                    row[col + 1 :] = [x // c for x in row[col + 1 :]]
                den //= c
                ratio *= c
    minor = ratio * den
    if free is None:
        return Fraction(sign * minor * scale[0], scale[1]), None
    y = [0] * m
    y[free] = minor
    for row, col in reversed(list(zip(rows, pivots))):
        y[col] = -sum(row[j] * y[j] for j in range(col + 1, m)) // row[col]
    return Fraction(0), [Fraction(v, minor) for v in y]


def _bareiss(
    matrix: "list[list[Fraction]] | tuple[tuple[Fraction, ...], ...]",
) -> tuple[Fraction, list[Fraction] | None]:
    """(determinant, kernel vector) of a rational square matrix: each row is cleared to
    integers by its own denominator, then :func:`_eliminate` runs. A matrix that is
    not square raises ValueError."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square")
    den = 1
    rows: list[list[int]] = []
    for row in matrix:
        d = math.lcm(*[x.denominator for x in row])
        den *= d
        rows.append([x.numerator * (d // x.denominator) for x in row])
    return _eliminate(rows, (1, den))


def fraction_determinant(matrix: "list[list[Fraction]] | tuple[tuple[Fraction, ...], ...]") -> Fraction:
    """Exact determinant by one integer elimination; see :func:`_bareiss`."""
    return _bareiss(matrix)[0]


def nullspace_vector(matrix: tuple[tuple[Fraction, ...], ...]) -> list[Fraction] | None:
    """The kernel vector of a singular square matrix (first free variable 1), or None; see :func:`_bareiss`."""
    return _bareiss(matrix)[1]


def _validate_deviation(tau: StepFunction, T: Fraction) -> None:
    if tau.period != T:
        raise ValueError("deviation period mismatch")
    tp, tq = T.as_integer_ratio()
    form = tau.as_piecewise()
    for i, (v,) in enumerate(form.rows):
        if not 0 <= v * tq <= tp * form.den:
            raise ValueError(f"tau.values[{i}] = {tau.values[i]} lies outside [0, T]")


def _on_pieces(knots: list[int], values: list, N: list[int]) -> list:
    """values[i] on each piece [N[k], N[k+1]) of N, integers that contain the breakpoints ``knots``."""
    out, i = [], 0
    for lo in N[:-1]:
        if lo == knots[i + 1]:
            i += 1
        out.append(values[i])
    return out


def _step_kernel(
    n: int,
    T: Fraction,
    tau: PiecewisePolynomial,
    weight: PiecewisePolynomial,
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...], int]:
    """The pencil (K, K_den, m, m_den) of :class:`ReducedSystem` from the stored forms of tau
    and the weight: the L-free kernel K over the sorted deviation values s_j, and m_j, the
    weight integral over the preimage P_j of s_j.

    The cuts c_k are the breakpoints of tau and of the weight together. K_ij
    sums w * (E_k - E_{k+1}) over the pieces [c_k, c_{k+1}) in P_j, with
    weight w and E_k = PB_{n+1}((s_i - c_k)/T): (n + 1)/T times
    integral(w * PB_n((s_i - sigma)/T)), across wraps too, as PB_{n+1} is a
    continuous antiderivative. Each piece gets its column and weight once,
    each cut one evaluation per sample.

    All of it is integer arithmetic: c_k/T are knots on grids with lcm G_c, the
    weights numerators over W and the samples over one denominator, so they sort
    as integers. For each sample, s/T and every c_k/T lie on one grid of step
    1/G, with G the lcm of G_c and that sample's own: a grid per row, so the
    denominators of different samples never multiply. With s/T = a/G and
    c_k/T = b_k/G, (s - c_k)/T mod 1 = ((a - b_k) mod G)/G and E_k is the
    homogeneous Horner sum of B_{n+1}'s integer numerators there, over
    D G^(n+1) with D their common denominator, that is the plain Horner sum
    at (a - b_k) mod G of the numerators of u^t times G^(n+1-t): one list per
    distinct G in the call, as rows often share their G. So K_i is an integer
    row over W D G^(n+1), and m_j = T constraint[j] / (W G_c).
    """
    tp, tq = T.as_integer_ratio()
    Gc = math.lcm(tau.grid, weight.grid)
    tau_knots, weight_knots = [[k * (Gc // f.grid) for k in f.knots] for f in (tau, weight)]
    N = sorted(set(tau_knots).union(weight_knots))
    keys = sorted({r[0] for r in tau.rows})
    col = {v: j for j, v in enumerate(keys)}
    W = weight.den
    constraint = [0] * len(keys)
    pieces = []
    cols = _on_pieces(tau_knots, [col[r[0]] for r in tau.rows], N)
    for k, (j, w) in enumerate(zip(cols, _on_pieces(weight_knots, [r[0] for r in weight.rows], N))):
        if w:
            constraint[j] += w * (N[k + 1] - N[k])
            pieces.append((k, j, w))
    B = bernoulli_polynomial(n + 1)
    by_grid: dict[int, tuple[list[int], int]] = {}
    K, K_den = [], []
    for v in keys:
        # s/T = v tq / (den tp) in lowest terms a / e
        a, e = v * tq, tau.den * tp
        h = math.gcd(a, e)
        a, e = a // h, e // h
        G = math.lcm(Gc, e)
        a, m = a * (G // e), G // Gc
        if G not in by_grid:  # coefficients highest degree first, and the row's denominator
            by_grid[G] = [x * G ** (n + 1 - k) for k, x in enumerate(B.nums)][::-1], W * B.den * G ** (n + 1)
        coef, den = by_grid[G]
        E = []
        for x in N:
            y, acc = (a - x * m) % G, 0
            for d in coef:
                acc = acc * y + d
            E.append(acc)
        row = [0] * len(keys)
        for k, j, w in pieces:
            row[j] += w * (E[k] - E[k + 1])
        K.append(tuple(row))
        K_den.append(den)
    return tuple(K), tuple(K_den), tuple([tp * x for x in constraint]), tq * W * Gc


# the weight of the Lipschitz reduction: 1 on the whole period
_UNIT = StepFunction.constant(1, 1).as_piecewise()


def _factor(n: int, T: Fraction, L: RationalLike) -> tuple[int, int]:
    """c = L T^n / (n+1)! in lowest terms; L < 0 raises ValueError."""
    if L < 0:
        raise ValueError("L must be >= 0")
    (lp, lq), (tp, tq) = L.as_integer_ratio(), T.as_integer_ratio()
    p, q = lp * tp**n, lq * tq**n * math.factorial(n + 1)
    g = math.gcd(p, q)
    return p // g, q // g


def reduce_system(
    n: int,
    T: RationalLike,
    L: RationalLike,
    tau: StepFunction,
) -> ReducedSystem:
    """Exact finite reduction of the homogeneous problem y^(n) = L y(tau(.)).

    Kernel entries: A_ij = (L T^n / 2^(n-1)) * integral of p over the shifted
    preimage, with p the rational kernel coefficient of phi_n, that is
    -(L T^n / n!) * integral(PB_n) over (s_i - P_j)/T mod 1. The rows carry no
    centring shift xi; :func:`contraction_norm` applies the optimal one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    T, L = to_rational(T), to_rational(L)
    _validate_deviation(tau, T)
    return ReducedSystem(n, T, "lipschitz", tau, L, *_step_kernel(n, T, tau.as_piecewise(), _UNIT), _factor(n, T, L))


def reduce_weighted(
    n: int,
    T: RationalLike,
    p: StepFunction,
    tau: StepFunction,
) -> ReducedSystem:
    """Exact finite reduction of the homogeneous weighted problem y^(n) = p(t) y(tau(t)).

    Products of the step weight with preimage indicators stay step-structured,
    so entries are exact: B_ij = -(T^n / n!) * sum over refined intervals of
    p * integral(PB_n((s_i - sigma)/T)). The constraint row carries the
    weighted means integral(p, P_j).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    T = to_rational(T)
    _validate_deviation(tau, T)
    if p.period != T:
        raise ValueError("weight period mismatch")
    weight = p.as_piecewise()
    for i, (v,) in enumerate(weight.rows):
        if v < 0:
            raise ValueError(f"p.values[{i}] = {p.values[i]} is negative")
    return ReducedSystem(n, T, "weighted", tau, None, *_step_kernel(n, T, tau.as_piecewise(), weight), _factor(n, T, 1))


MARGIN_OVERFLOW = "reduced matrix entry exceeds the float64 range"


def _margin(rows: list[list[int]], factors: list[tuple[int, int]]) -> tuple[float | None, np.ndarray | None]:
    """Smallest singular value of the float matrix whose row i is p / q times rows[i], with
    (p, q) = factors[i], and the matrix; (None, None) on overflow.

    Each entry p x / q is one correctly rounded int / int division, the double
    ``float`` gives for the same rational as a Fraction, overflowing alike.
    numpy is imported here, on the first solve, not with the package.
    """
    import numpy as np

    try:
        matrix = np.array([[p * x / q for x in row] for row, (p, q) in zip(rows, factors)], dtype=np.float64)
    except OverflowError:
        return None, None
    return float(np.linalg.svd(matrix, compute_uv=False)[-1]), matrix


def _near_singular(sys: ReducedSystem, margin: float | None, matrix: np.ndarray | None) -> bool:
    """Margin below NEAR_SINGULAR_BAND relative to the Frobenius norm, both as built and
    with the zero-mean row, which alone scales with T, divided by T (one more
    SVD, only for flagged systems)."""
    import numpy as np

    if margin is None or margin >= NEAR_SINGULAR_BAND * float(np.linalg.norm(matrix)):
        return False
    scaled = matrix.copy()
    tp, tq = sys.T.as_integer_ratio()
    try:
        scaled[-1] = [x * tq / (sys.m_den * tp) for x in (*sys.m, 0)]
    except OverflowError:
        return True
    return bool(np.linalg.svd(scaled, compute_uv=False)[-1] < NEAR_SINGULAR_BAND * np.linalg.norm(scaled))


def _report(sys: ReducedSystem, constant: Fraction | None, provenance: dict) -> SolveReport:
    """The verdict from one elimination of the reduced rows, with ``constant`` the
    solution -C/L on the forced path and None on the homogeneous one.

    A Lipschitz system with L = 0 is degenerate: every constant solves
    y^(n) = 0 (and y^(n) = C has no periodic solution unless C = 0), so it
    reports ``nontrivial_kernel`` with margin 0 and no vector, without
    elimination. A zero determinant reports ``nontrivial_kernel`` with the
    kernel vector as samples and constant. Otherwise a forced system is
    ``unique`` with every sample and the constant equal to ``constant``, and
    a homogeneous one ``unique`` or ``near_singular`` by the float margin
    (see :func:`_near_singular`).
    """
    if sys.L == 0:
        degenerate = {"route": "degenerate_L0", "kind": "lipschitz"}
        return SolveReport(status="nontrivial_kernel", margin=0.0, determinant=Fraction(0), provenance=degenerate)
    rows, factors = sys._integer_rows()
    margin, matrix = _margin(rows, factors)  # before the elimination changes the rows
    det, kernel = _eliminate(rows, _scale(factors))
    if margin is None:
        provenance["margin_unavailable"] = MARGIN_OVERFLOW
    if det == 0:
        status, vec = "nontrivial_kernel", kernel
    elif constant is None and _near_singular(sys, margin, matrix):
        status, vec = "near_singular", None
    else:
        status, vec = "unique", None if constant is None else [constant] * sys.size
    return SolveReport(
        status=status,
        margin=margin,
        determinant=det,
        solution_samples=None if vec is None else tuple(vec[:-1]),
        constant=None if vec is None else vec[-1],
        provenance=provenance,
    )


def uniqueness_margin(sys: ReducedSystem) -> SolveReport:
    """Exact determinant verdict first; the float smallest singular value is advisory.

    ``near_singular`` flags a nonzero determinant whose float margin falls
    below NEAR_SINGULAR_BAND relative to the Frobenius norm, the interesting
    regime next to the sharp threshold, also after the zero-mean row is
    divided by T (see :func:`_near_singular`); without a float margin the
    exact verdict alone decides. A Lipschitz system with L = 0 gets the degenerate
    nontrivial-kernel verdict (see :func:`_report`).
    """
    return _report(sys, None, {"route": "exact_reduction", "size": sys.size, "kind": sys.kind})


def solve_periodic(
    n: int,
    T: RationalLike,
    L: RationalLike,
    tau: StepFunction,
    C: RationalLike,
) -> SolveReport:
    """Exact solve of y^(n) = L y(tau(.)) + C with periodic boundary conditions.

    The exact determinant of the homogeneous system decides. When it is
    nonzero the unique periodic solution is the constant -C/L, returned as its
    samples y(s_j) and the constant C_1 of the reconstruction recipe (see
    :func:`reconstruct_solution`), all equal to -C/L. A singular system
    reports ``nontrivial_kernel`` with a kernel vector, as
    :func:`uniqueness_margin` does; the float margin never changes the status.
    The instance is reduced, and so validated, before any verdict: L = 0
    gets the degenerate verdict of :func:`_report` only for valid inputs.
    """
    C, sys = to_rational(C), reduce_system(n, T, L, tau)
    constant = -C / sys.L if sys.L else None
    return _report(sys, constant, {"route": "exact_reduction", "kind": "lipschitz", "homogeneous": False})


def solve_weighted(
    n: int,
    T: RationalLike,
    p: StepFunction,
    tau: StepFunction,
) -> SolveReport:
    """Singularity verdict for the homogeneous weighted problem y^(n) = p(t) y(tau(t))."""
    sys = reduce_weighted(n, T, p, tau)
    report = uniqueness_margin(sys)
    report.provenance["weight_l1"] = format_rational(p.integral())
    return report


def reconstruct_solution(
    sys: ReducedSystem,
    samples: tuple[Fraction, ...],
    constant: Fraction,
) -> PiecewisePolynomial:
    """The exact solution y = L * I^n[z - mean z] + C_1 (see the module docstring) from
    the solved samples and C_1, with z the step taking samples[j] on the preimage of s_j.

    I^n does not use the reduction's rows, so y(s_j) = samples[j] checks them.
    """
    if sys.kind != "lipschitz" or sys.L is None:
        raise ValueError("reconstruction applies to the Lipschitz reduction")
    by_value = dict(zip(sys.sample_points, samples))
    z = StepFunction(sys.tau.breakpoints, [by_value[v] for v in sys.tau.values], sys.T)
    return (periodic_antiderivatives(z.as_piecewise().zero_mean(), sys.n) * sys.L).plus_constant(constant)


@cache
def _median(n: int) -> Fraction:
    """xi*(n), the median of phi_n as a coefficient of pi^(n-1), by ``kernels.min_abs_integral``:
    imported here, so ``solve`` does not load ``kernels``."""
    from .kernels import min_abs_integral

    return min_abs_integral(n).xi_star


def contraction_norm(sys: ReducedSystem) -> Fraction:
    """Exact operator norm (max absolute row sum) of the reduced kernel matrix, centred at the
    median xi* of phi_n; it is bounded by L K_n T^n, the contraction factor of the representation.

    Read off the pencil: A_ij = -(cp / cq) K[i][j] / d_i at xi = 0, with c = cp / cq and
    d_i = K_den[i]. Centring subtracts b m_j, with b = L T^(n-1) xi* / 2^(n-1) and m the
    zero-mean row (L = 1 for a weighted system, whose m carries p). With b m_j = u m[j] / v,
    row i's absolute sum is sum_j |cp v K[i][j] + cq d_i u m[j]| / (cq d_i v).
    """
    L = 1 if sys.L is None else sys.L
    b = L * sys.T ** (sys.n - 1) * _median(sys.n) / 2 ** (sys.n - 1)
    (u, v), (cp, cq) = (b / sys.m_den).as_integer_ratio(), sys.c
    sums = []
    for row, d in zip(sys.K, sys.K_den):
        total = sum([abs(cp * v * x + cq * d * u * y) for x, y in zip(row, sys.m)])
        sums.append(Fraction(total, cq * d * v))
    return max(sums, default=Fraction(0))
