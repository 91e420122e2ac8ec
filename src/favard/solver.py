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
free shift xi enters as a rank-one update absorbed by the constant column, so
verdicts are exactly xi-invariant. The periodic extension convention
y(z - T) = y(z), tau(z - T) = tau(z) is realized by wrapping all kernel
arguments modulo T. Where tau lands exactly on a partition breakpoint the
right-continuous convention applies.

Weighted problems y^(n) = p(t) (y(tau(t)) + C) with step p >= 0 reduce the
same way since p times an indicator is still a step function. Both reductions
walk the pieces of the partition once, giving each its column and weight, and
evaluate PB_{n+1} once per (sample, breakpoint); each entry is a sum of
differences of those values.

Every verdict comes from one rank-revealing integer Bareiss elimination of
[M | rhs] (rhs only on the forced path): full rank gives the determinant and,
by fraction-free back substitution, the exact solution; rank below the size
gives determinant 0 and the kernel vector whose first free variable is 1 and
other free variables 0, the nontrivial periodic solution reported at the
threshold.

Edge case: L = 0 degenerates (the homogeneous problem then admits all
constants, but the zero-mean row no longer follows from y^(n) = 0), so it is
special-cased to a nontrivial-kernel verdict instead of being decided by the
reduced system's determinant, on the homogeneous and the forced path alike.

The float margin is advisory: when an entry of the reduced matrix does not
fit in a double it is reported as null with the reason in the provenance,
and the exact determinant verdict stands alone.

Instance analyses are pure functions of their inputs and independent of each
other, so they can run concurrently; the exact elimination inside one
instance is single-threaded and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .exact import (
    PiecewisePolynomial,
    RationalLike,
    StepFunction,
    format_rational,
    periodic_antiderivatives,
    to_rational,
)
from .numbers import bernoulli_polynomial, eval_periodic

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

    ``kernel_matrix`` is the bare J x J kernel A (needed for contraction norms)
    and ``constraint_row`` the zero-mean constraint on y^(n). ``matrix`` is
    derived from them on first use: the (J+1) x (J+1) homogeneous system in
    (y(s_1)..y(s_J), C_1), whose rows 0..J-1 encode
    v_i - sum_j A_ij v_j - C_1 = 0 and whose last row is the constraint. All
    entries are exact rationals.
    """

    n: int
    T: Fraction
    sample_points: tuple[Fraction, ...]
    kernel_matrix: tuple[tuple[Fraction, ...], ...]
    constraint_row: tuple[Fraction, ...]
    kind: str  # "lipschitz" | "weighted"
    tau: "StepFunction | None" = None
    L: Fraction | None = None
    xi: Fraction = Fraction(0)

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        rows = [
            (*[int(i == j) - a for j, a in enumerate(row)], Fraction(-1)) for i, row in enumerate(self.kernel_matrix)
        ]
        return (*rows, (*self.constraint_row, Fraction(0)))

    @property
    def size(self) -> int:
        return len(self.sample_points) + 1

    def determinant(self) -> Fraction:
        return fraction_determinant(self.matrix)


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


def _bareiss(
    matrix: "list[list[Fraction]] | tuple[tuple[Fraction, ...], ...]",
    rhs: list[Fraction] | None = None,
) -> tuple[Fraction, list[Fraction] | None, list[Fraction] | None]:
    """(determinant, solution, kernel vector) of a square system from one Bareiss pass.

    Each row of [M | rhs] is cleared to integers by its own denominator, then
    eliminated with exact integer divisions (Bareiss 1968); a column with no
    pivot is skipped, so the pass ends in row echelon form and reveals the
    rank. The last pivot D is the leading minor of the scaled, row-permuted M
    on the pivot columns, so D x is integral by Cramer's rule and back
    substitution stays in integers until x = y / D. Full rank gives the
    determinant and, given ``rhs``, the solution; otherwise the determinant is
    0 and the kernel vector has its first free variable 1, the other free
    variables 0 (the vector Gauss-Jordan reduction reads off).
    """
    m = len(matrix)
    width = m if rhs is None else m + 1
    scale = 1
    rows: list[list[int]] = []
    for i, row in enumerate(matrix):
        entries = list(row) if rhs is None else [*row, rhs[i]]
        denom = math.lcm(*(x.denominator for x in entries))
        scale *= denom
        rows.append([x.numerator * (denom // x.denominator) for x in entries])
    sign = 1
    prev = 1
    pivots: list[int] = []
    for col in range(m):
        r = len(pivots)
        pivot = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        top = rows[r]
        pk = top[col]
        for row in rows[r + 1 :]:
            f = row[col]
            for j in range(col + 1, width):
                row[j] = (row[j] * pk - f * top[j]) // prev
            row[col] = 0
        prev = pk
        pivots.append(col)
    free = next((c for c in range(m) if c not in pivots), None)
    if free is None and rhs is None:
        return Fraction(sign * prev, scale), None, None
    y = [0] * m
    if free is not None:
        y[free] = prev
    for row, col in reversed(list(zip(rows, pivots))):
        b = 0 if free is not None else prev * row[m]
        y[col] = (b - sum(row[j] * y[j] for j in range(col + 1, m))) // row[col]
    x = [Fraction(v, prev) for v in y]
    if free is None:
        return Fraction(sign * prev, scale), x, None
    return Fraction(0), None, x


def fraction_determinant(matrix: "list[list[Fraction]] | tuple[tuple[Fraction, ...], ...]") -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination; see :func:`_bareiss`."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square")
    return _bareiss(matrix)[0]


def nullspace_vector(matrix: tuple[tuple[Fraction, ...], ...]) -> list[Fraction] | None:
    """The kernel vector of a singular square matrix (first free variable 1), or None; see :func:`_bareiss`."""
    return _bareiss(matrix)[2]


def _validate_deviation(tau: StepFunction, T: Fraction) -> None:
    if tau.period != T:
        raise ValueError("deviation period mismatch")
    for v in tau.values:
        if not 0 <= v <= T:
            raise ValueError(f"deviation value {v} outside [0, T]")


def _step_kernel(
    n: int,
    T: Fraction,
    tau: StepFunction,
    cuts: tuple[Fraction, ...],
    weight: StepFunction,
) -> tuple[list[Fraction], list[list[Fraction]], list[Fraction]]:
    """Samples s_j (the sorted deviation values), one row per sample t and the
    row of weight integrals over the preimages P_j.

    Entry j of the row for t sums w * (E_k - E_{k+1}) over the pieces
    [c_k, c_{k+1}) of ``cuts`` in P_j, with weight w and E_k = PB_{n+1}((t - c_k)/T):
    (n + 1)/T times integral(w * PB_n((t - sigma)/T)), across wraps too, as
    PB_{n+1} is a continuous antiderivative. Each piece gets its column and
    weight once, each cut one evaluation per sample.
    """
    samples = sorted(set(tau.values))
    col = {v: j for j, v in enumerate(samples)}
    constraint = [Fraction(0)] * len(samples)
    pieces = []
    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        j, w = col[tau(lo)], weight(lo)
        constraint[j] += w * (hi - lo)
        if w:
            pieces.append((k, j, w))
    Bn1 = bernoulli_polynomial(n + 1)
    rows = []
    for t in samples:
        E = [eval_periodic(Bn1, (t - c) / T) for c in cuts]
        row = [Fraction(0)] * len(samples)
        for k, j, w in pieces:
            row[j] += w * (E[k] - E[k + 1])
        rows.append(row)
    return samples, rows, constraint


def reduce_system(
    n: int,
    T: RationalLike,
    L: RationalLike,
    tau: StepFunction,
    xi: RationalLike = 0,
) -> ReducedSystem:
    """Exact finite reduction of the homogeneous problem y^(n) = L y(tau(.)).

    Kernel entries: A_ij = (L T^n / 2^(n-1)) * integral over the shifted
    preimage of (p(u) - xi) du, with p the rational kernel coefficient; with
    xi = 0 this is -(L T^n / n!) * integral(PB_n) over (s_i - P_j)/T mod 1.
    The optional xi (coefficient of pi^(n-1)) only shifts the constant column
    and never changes the verdict.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    T, L, xi = to_rational(T), to_rational(L), to_rational(xi)
    if L < 0:
        raise ValueError("L must be >= 0")
    _validate_deviation(tau, T)
    samples, rows, measure = _step_kernel(n, T, tau, tau.breakpoints, StepFunction.constant(1, T))
    factor = -L * T**n / math.factorial(n + 1)
    xi_factor = L * T ** (n - 1) * xi / 2 ** (n - 1)
    kernel = tuple([tuple([factor * acc - xi_factor * m for acc, m in zip(row, measure)]) for row in rows])
    return ReducedSystem(n, T, tuple(samples), kernel, tuple(measure), "lipschitz", tau, L, xi)


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
    if p.period != T:
        raise ValueError("weight period mismatch")
    if any(v < 0 for v in p.values):
        raise ValueError("weight must be nonnegative")
    _validate_deviation(tau, T)
    cuts = tuple(sorted(set(p.breakpoints) | set(tau.breakpoints)))
    samples, rows, constraint = _step_kernel(n, T, tau, cuts, p)
    factor = -(T**n) / math.factorial(n + 1)
    kernel = tuple([tuple([factor * acc for acc in row]) for row in rows])
    return ReducedSystem(n, T, tuple(samples), kernel, tuple(constraint), "weighted", tau)


MARGIN_OVERFLOW = "reduced matrix entry exceeds the float64 range"


def _margin(sys: ReducedSystem) -> tuple[float | None, np.ndarray | None]:
    """Smallest singular value of the float matrix, and the matrix; (None, None) on overflow."""
    try:
        matrix = np.array([[float(x) for x in row] for row in sys.matrix], dtype=np.float64)
    except OverflowError:
        return None, None
    return float(np.linalg.svd(matrix, compute_uv=False)[-1]), matrix


def _near_singular(sys: ReducedSystem, margin: float | None, matrix: np.ndarray | None) -> bool:
    """Margin below NEAR_SINGULAR_BAND relative to the Frobenius norm, both as built and
    with the zero-mean row, which alone scales with T, divided by T (one more
    SVD, only for flagged systems)."""
    if margin is None or margin >= NEAR_SINGULAR_BAND * float(np.linalg.norm(matrix)):
        return False
    scaled = matrix.copy()
    try:
        scaled[-1] = [float(x / sys.T) for x in sys.matrix[-1]]
    except OverflowError:
        return True
    return bool(np.linalg.svd(scaled, compute_uv=False)[-1] < NEAR_SINGULAR_BAND * np.linalg.norm(scaled))


def _degenerate_l0() -> SolveReport:
    """L = 0: every constant solves y^(n) = 0, so the kernel is never trivial."""
    return SolveReport(
        status="nontrivial_kernel",
        margin=0.0,
        determinant=Fraction(0),
        provenance={"route": "degenerate_L0", "kind": "lipschitz"},
    )


def _report(sys: ReducedSystem, rhs: list[Fraction] | None, provenance: dict) -> SolveReport:
    """The verdict from one elimination of the reduced matrix, with ``rhs`` on the forced path.

    A zero determinant reports ``nontrivial_kernel`` with the kernel vector as
    samples and constant. Otherwise a forced system is ``unique`` with its
    solution, and a homogeneous one ``unique`` or ``near_singular`` by the
    float margin (see :func:`_near_singular`).
    """
    det, solution, kernel = _bareiss(sys.matrix, rhs)
    margin, matrix = _margin(sys)
    if margin is None:
        provenance["margin_unavailable"] = MARGIN_OVERFLOW
    if det == 0:
        status, vec = "nontrivial_kernel", kernel
    elif rhs is None and _near_singular(sys, margin, matrix):
        status, vec = "near_singular", None
    else:
        status, vec = "unique", solution
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
    nontrivial-kernel verdict, as in :func:`solve_periodic`.
    """
    if sys.kind == "lipschitz" and sys.L == 0:
        return _degenerate_l0()
    return _report(sys, None, {"route": "exact_reduction", "size": sys.size, "kind": sys.kind})


def solve_periodic(
    n: int,
    T: RationalLike,
    L: RationalLike,
    tau: StepFunction,
    C: RationalLike,
) -> SolveReport:
    """Exact solve of y^(n) = L y(tau(.)) + C with periodic boundary conditions.

    When the reduced system is nonsingular the unique periodic solution is
    returned through its samples y(s_j) and the constant C_1 of the
    reconstruction recipe (see :func:`reconstruct_solution`). A singular
    system reports ``nontrivial_kernel`` with a kernel vector, as
    :func:`uniqueness_margin` does; the float margin never changes the status.
    """
    T, L, C = to_rational(T), to_rational(L), to_rational(C)
    if L == 0:
        # Degenerate: y^(n) = C has periodic solutions iff C = 0, then all constants.
        return _degenerate_l0()
    sys = reduce_system(n, T, L, tau)
    rhs = [Fraction(0)] * len(sys.sample_points) + [-C * T / L]
    return _report(sys, rhs, {"route": "exact_reduction", "kind": "lipschitz", "homogeneous": False})


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
    if sys.kind != "lipschitz" or sys.L is None or sys.tau is None:
        raise ValueError("reconstruction applies to the Lipschitz reduction")
    by_value = dict(zip(sys.sample_points, samples))
    z = StepFunction(sys.tau.breakpoints, [by_value[v] for v in sys.tau.values], sys.T)
    return (periodic_antiderivatives(z.as_piecewise().zero_mean(), sys.n) * sys.L).plus_constant(constant)


def contraction_norm(sys: ReducedSystem) -> Fraction:
    """Exact operator norm (max absolute row sum) of the reduced kernel matrix. With the optimal
    centering shift it is bounded by L K_n T^n, the contraction factor of the representation operator."""
    return max([sum([abs(x) for x in row], Fraction(0)) for row in sys.kernel_matrix], default=Fraction(0))

