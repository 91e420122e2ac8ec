"""The solver's exact paths against the slower code they replaced, kept here as references.

``gauss_jordan`` is the Fraction Gauss-Jordan solve the forced Lipschitz path
used before the single integer Bareiss elimination; it also returns the
determinant as the signed product of its pivots. ``reference_bareiss`` is
that integer elimination of the system augmented by its right-hand side,
with fraction-free back substitution, and ``reference_solve_periodic`` the
forced solve that ran it with -C T / L in the constraint row before the
solver reported the constant solution -C/L from the homogeneous
determinant; with a zero right-hand side it is also the plain Bareiss pass,
dividing by the previous pivot at every step, that ``_eliminate`` ran before
it eliminated over the reduced Schur complement. ``reference_eliminate`` is
that elimination as it was when each column pivoted on its first nonzero
entry, before it took the entry of fewest bits. ``gauss_jordan_kernel`` is the
Fraction Gauss-Jordan kernel vector singular systems used before the
elimination became rank-revealing. ``reference_reduce_system``,
``reference_reduce_weighted`` and ``reference_reconstruct`` are the
per-(sample, value, interval) double loops the reductions used before each
breakpoint was evaluated once per sample; ``reconstruct_solution`` now
integrates with periodic antiderivatives instead, so ``reference_reconstruct``
checks it by a different route. ``reference_step_kernel`` is the integer
kernel before it built B_{n+1}'s coefficients once per sample grid: one
``_horner`` call per (sample, cut), each row made primitive with a
``Fraction`` scale by ``reference_primitive``, as the kernel did before the
reduced system stored its L-free pencil and built its rows as views.
``preimages`` is the value -> intervals map those loops walk.
``reference_assemble`` is the layout of the full homogeneous Fraction matrix
the reductions once stored, and ``fraction_matrix`` rebuilds that matrix
from the integer rows and scales the reduced system builds from its pencil.
``reference_clear`` is the row clearing elimination did on that matrix
before the reductions built primitive integer rows themselves. The two reduction references keep the shift xi of the
kernel, -xi_factor m_j in every row, which the reductions no longer build:
it is a rank-one term the constant column absorbs, and ``contraction_norm``
applies it at the median of phi_n.
"""

import dataclasses
import importlib
import json
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favard.constants import favard_closed_form
from favard.exact import _horner, format_rational
from favard.kernels import min_abs_integral
from favard.numbers import bernoulli_polynomial, eval_periodic
from favard.solver import (
    MARGIN_OVERFLOW,
    SolveReport,
    StepFunction,
    _bareiss,
    _eliminate,
    _margin,
    _on_pieces,
    _scale,
    _step_kernel,
    _UNIT,
    ReducedSystem,
    contraction_norm,
    fraction_determinant,
    nullspace_vector,
    reconstruct_solution,
    reduce_system,
    reduce_weighted,
    solve_periodic,
    solve_weighted,
)
from favard.witness import build_witness
from test_sampling_reference import reference_l1


def gauss_jordan(matrix, rhs):
    """(determinant, solution) of a square system by Fraction Gauss-Jordan; solution None when singular."""
    m = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    det = F(1)
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col] != 0), None)
        if pivot is None:
            return F(0), None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        pv = a[col][col]
        det *= pv
        a[col] = [x / pv for x in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det, [a[r][m] for r in range(m)]


def gauss_jordan_kernel(matrix):
    """Kernel vector of a singular square matrix from its reduced row echelon form
    (first free variable 1, the other free variables 0), or None at full rank."""
    m = len(matrix)
    a = [list(row) for row in matrix]
    pivots = []
    row = 0
    for col in range(m):
        pivot = next((r for r in range(row, m) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        for r in range(m):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(m) if c not in pivot_cols]
    if not free:
        return None
    fc = free[0]
    vec = [F(0)] * m
    vec[fc] = F(1)
    for r, c in pivots:
        vec[c] = -a[r][fc]
    return vec


def reference_bareiss(matrix, rhs):
    """(determinant, solution, kernel vector) of a rational square system [M | rhs].

    Each row of [M | rhs] is cleared to integers by its own denominator and the
    right-hand side is eliminated with it by Bareiss' exact integer divisions;
    a column with no pivot is skipped. Full rank gives the determinant and, by
    fraction-free back substitution from the last pivot D (D x is integral by
    Cramer's rule), the solution. Otherwise the determinant is 0, ``rhs`` is
    ignored and the kernel vector has its first free variable 1, the other
    free variables 0.
    """
    m = len(matrix)
    den = 1
    rows = []
    for row, b in zip(matrix, rhs):
        entries = [*row, b]
        d = math.lcm(*[x.denominator for x in entries])
        den *= d
        rows.append([x.numerator * (d // x.denominator) for x in entries])
    sign, prev, pivots = 1, 1, []
    for col in range(m):
        r = len(pivots)
        pivot = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        top, pk = rows[r], rows[r][col]
        for row in rows[r + 1 :]:
            f = row[col]
            for j in range(col + 1, m + 1):
                row[j] = (row[j] * pk - f * top[j]) // prev
            row[col] = 0
        prev = pk
        pivots.append(col)
    free = next((c for c in range(m) if c not in pivots), None)
    y = [0] * m
    if free is not None:
        y[free] = prev
    for row, col in reversed(list(zip(rows, pivots))):
        b = 0 if free is not None else prev * row[m]
        y[col] = (b - sum(row[j] * y[j] for j in range(col + 1, m))) // row[col]
    x = [F(v, prev) for v in y]
    if free is None:
        return sign * prev * F(1, den), x, None
    return F(0), None, x


def reference_eliminate(rows, scale):
    """(determinant, kernel vector) of the matrix whose row i is s_i times ``rows[i]``
    (changed in place), ``scale`` the product of the s_i as a Fraction: the elimination over
    the reduced Schur complement as it was when each column pivoted on its first nonzero
    entry, the lowest row not yet pivoted."""
    m = len(rows)
    sign = 1
    den = 1
    ratio = 1
    pivots = []
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
    free = next((c for c in range(m) if c not in pivots), None)
    if free is None:
        return sign * minor * scale, None
    y = [0] * m
    y[free] = minor
    for row, col in reversed(list(zip(rows, pivots))):
        y[col] = -sum(row[j] * y[j] for j in range(col + 1, m)) // row[col]
    return F(0), [F(v, minor) for v in y]


def reference_solve_periodic(n, T, L, tau, C):
    """The forced solve of y^(n) = L y(tau) + C, L > 0, by the augmented elimination: the
    constraint row has right-hand side -C T / L, every other row 0; a singular system
    reports its kernel vector and the float margin never changes the status."""
    sys = reduce_system(n, T, L, tau)
    rhs = [F(0)] * (sys.size - 1) + [-C * F(T) / L]
    det, solution, kernel = reference_bareiss(fraction_matrix(sys), rhs)
    margin, _ = _margin(*sys._integer_rows())
    provenance = {"route": "exact_reduction", "kind": "lipschitz", "homogeneous": False}
    if margin is None:
        provenance["margin_unavailable"] = MARGIN_OVERFLOW
    status, vec = ("unique", solution) if det else ("nontrivial_kernel", kernel)
    return SolveReport(status, margin, det, tuple(vec[:-1]), vec[-1], provenance)


def preimages(tau):
    """Value -> list of the intervals [lo, hi) on which the step function tau takes it."""
    out = {}
    for lo, hi, v in zip(tau.breakpoints, tau.breakpoints[1:], tau.values):
        out.setdefault(v, []).append((lo, hi))
    return out


def fraction_matrix(sys):
    """The reduced system as a Fraction matrix: row i is sys.scales[i] times sys.rows[i]."""
    return [[scale * x for x in row] for row, scale in zip(sys.rows, sys.scales)]


def wrapped_kernel_integral(Bn1, n, a, lo, hi):
    """integral(PB_n(a - theta), theta = lo..hi) through the antiderivative PB_{n+1} / (n + 1)."""
    return (eval_periodic(Bn1, a - lo) - eval_periodic(Bn1, a - hi)) / (n + 1)


def reference_reduce_system(n, T, L, tau, xi):
    pre = preimages(tau)
    samples = sorted(pre)
    Bn1 = bernoulli_polynomial(n + 1)
    factor = -L * T**n / math.factorial(n)
    xi_factor = L * T ** (n - 1) * xi / 2 ** (n - 1)
    kernel = []
    for s in samples:
        row = []
        for v in samples:
            acc = F(0)
            for lo, hi in pre[v]:
                acc += wrapped_kernel_integral(Bn1, n, s / T, lo / T, hi / T)
            measure = sum((hi - lo for lo, hi in pre[v]), F(0))
            row.append(factor * acc - xi_factor * measure)
        kernel.append(row)
    constraint = [sum((hi - lo for lo, hi in pre[v]), F(0)) for v in samples]
    return samples, kernel, constraint


def reference_reduce_weighted(n, T, p, tau, xi=F(0)):
    cuts = sorted(set(p.breakpoints) | set(tau.breakpoints))
    refined = list(zip(cuts, cuts[1:]))
    pre_vals = sorted(preimages(tau))
    Bn1 = bernoulli_polynomial(n + 1)
    factor = -(T**n) / F(math.factorial(n))
    xi_factor = T ** (n - 1) * xi / 2 ** (n - 1)
    constraint = []
    for v in pre_vals:
        acc = F(0)
        for lo, hi in refined:
            if tau((lo + hi) / 2) == v:
                acc += p((lo + hi) / 2) * (hi - lo)
        constraint.append(acc)
    kernel = []
    for s in pre_vals:
        row = []
        for v, weight in zip(pre_vals, constraint):
            acc = F(0)
            for lo, hi in refined:
                if tau((lo + hi) / 2) != v:
                    continue
                pv = p((lo + hi) / 2)
                if pv == 0:
                    continue
                acc += pv * wrapped_kernel_integral(Bn1, n, s / T, lo / T, hi / T)
            row.append(factor * acc - xi_factor * weight)
        kernel.append(row)
    return pre_vals, kernel, constraint


def reference_assemble(kernel, constraint):
    """[I - A | -1] over [constraint | 0], built row by row as the reductions did."""
    full = []
    for i in range(len(kernel)):
        row = [-kernel[i][j] for j in range(len(kernel))]
        row[i] += 1
        row.append(F(-1))
        full.append(row)
    full.append(constraint + [F(0)])
    return full


def reference_clear(row):
    """A rational row times the lcm of its denominators, divided by the gcd of the result."""
    d = math.lcm(*[x.denominator for x in row])
    ints = [x.numerator * (d // x.denominator) for x in row]
    g = math.gcd(*ints) or 1
    return tuple([x // g for x in ints])


def reference_reconstruct(n, T, L, tau, samples, constant, t):
    Bn1 = bernoulli_polynomial(n + 1)
    by_value = dict(zip(sorted(preimages(tau)), samples))
    total = F(0)
    for v, intervals in preimages(tau).items():
        for lo, hi in intervals:
            total += by_value[v] * wrapped_kernel_integral(Bn1, n, t / T, lo / T, hi / T)
    return -L * T**n / math.factorial(n) * total + constant


# ------------------------------------------------------------ elimination

entries = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
    st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**6)),
)


@st.composite
def square_systems(draw):
    """Random rational systems; many zeros, forced zero leading pivots and singular ones."""
    m = draw(st.integers(0, 7))
    a = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(m)]
    rhs = draw(st.lists(entries, min_size=m, max_size=m))
    if m and draw(st.booleans()):
        # zero leading pivot: the first row swap happens at column 0
        a[0][0] = F(0)
    if m >= 2 and draw(st.booleans()):
        # singular: one row is a rational multiple of another plus a multiple of a third
        i, j = draw(st.permutations(range(m)))[:2]
        c, d = draw(entries), draw(entries)
        k = (j + 1) % m if (j + 1) % m != i else (j + 2) % m
        a[i] = [c * x + d * y for x, y in zip(a[j], a[k])]
    return a, rhs


small = st.one_of(st.just(F(0)), st.builds(F, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def rank_deficient_systems(draw):
    """(a, rhs or None): a = U V with U m x r and V r x m, r = 0..m, so rank(a) <= r;
    sometimes a zero column, sometimes a zero leading entry."""
    m = draw(st.integers(0, 7))
    r = draw(st.integers(0, m))
    u = [draw(st.lists(small, min_size=r, max_size=r)) for _ in range(m)]
    v = [draw(st.lists(small, min_size=m, max_size=m)) for _ in range(r)]
    a = [[sum((u[i][k] * v[k][j] for k in range(r)), F(0)) for j in range(m)] for i in range(m)]
    if m and draw(st.booleans()):
        col = draw(st.integers(0, m - 1))
        for row in a:
            row[col] = F(0)
    if m and draw(st.booleans()):
        a[0][0] = F(0)
    rhs = draw(st.one_of(st.none(), st.lists(entries, min_size=m, max_size=m)))
    return a, rhs


class TestBareissAgainstGaussJordan:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(square_systems())
    def test_determinant_and_solution(self, system):
        a, rhs = system
        ref_det, ref_solution = gauss_jordan(a, rhs)
        ref_kernel = gauss_jordan_kernel(a)
        det, solution, kernel = reference_bareiss(a, rhs)
        assert det == ref_det
        assert solution == ref_solution
        assert kernel == ref_kernel
        assert (solution is None) == (det == 0)
        assert fraction_determinant(a) == ref_det
        assert _bareiss(a) == (ref_det, ref_kernel)

    def test_swaps_and_singular_cases(self):
        # zero pivots at columns 0 and 1 force swaps; only the anti-diagonal term survives
        a = [[F(0), F(0), F(3)], [F(0), F(1, 2), F(7)], [F(5, 3), F(1), F(0)]]
        rhs = [F(1, 7), F(0), F(-2, 9)]
        assert reference_bareiss(a, rhs) == (*gauss_jordan(a, rhs), None)
        assert _bareiss(a) == (-F(3) * F(1, 2) * F(5, 3), None)
        singular = [[F(1, 2), F(1, 3)], [F(3, 2), F(1)]]
        assert reference_bareiss(singular, [F(1), F(2)]) == (F(0), None, [F(-2, 3), F(1)])
        assert _bareiss(singular) == (F(0), [F(-2, 3), F(1)])
        assert reference_bareiss([], []) == (F(1), [], None)
        assert _bareiss([]) == (F(1), None)
        # rank 1 with a zero leading column: pivot at column 1, free columns 0 and 2
        a = [[F(0), F(2), F(4)], [F(0), F(-1), F(-2)], [F(0), F(0), F(0)]]
        assert _bareiss(a) == (F(0), [F(1), F(0), F(0)])
        a = [[F(0), F(0), F(3)], [F(0), F(1, 2), F(0)], [F(0), F(1), F(6)]]
        assert reference_bareiss(a, rhs) == (F(0), None, [F(1), F(0), F(0)])
        a = [[F(2), F(4), F(1)], [F(1), F(2), F(0)], [F(3), F(6), F(1)]]
        assert _bareiss(a) == (F(0), [F(-2), F(1), F(0)]) == (F(0), gauss_jordan_kernel(a))

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(rank_deficient_systems())
    def test_rank_deficient_kernel(self, system):
        a, rhs = system
        m = len(a)
        ref_det, ref_solution = gauss_jordan(a, [F(0)] * m if rhs is None else rhs)
        ref_kernel = gauss_jordan_kernel(a)
        if rhs is None:
            (det, kernel), solution = _bareiss(a), None
        else:
            det, solution, kernel = reference_bareiss(a, rhs)
        assert det == ref_det
        assert solution == (None if rhs is None else ref_solution)
        assert kernel == ref_kernel
        assert nullspace_vector(a) == ref_kernel
        assert (kernel is None) == (det != 0)
        if kernel is not None:
            assert any(kernel)
            assert all(sum(x * v for x, v in zip(row, kernel)) == 0 for row in a)


def low_rank(draw, m, r):
    """An m x m integer matrix U V of rank at most r, entries of U and V in [-3, 3]."""
    u = [draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r)) for _ in range(m)]
    v = [draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)) for _ in range(r)]
    return [[sum(u[i][k] * v[k][j] for k in range(r)) for j in range(m)] for i in range(m)]


@st.composite
def planted_systems(draw):
    """Rows G^e e_i - sum_s G^s R_s, the shape of the reduced rows, with G = 17 * 2^k and R_s
    of rank s + 1 (s < e): a minor takes at most s + 1 rows from level s, so the minors carry
    growing powers of G and, from about the sixth pivot of 22 on, the Schur block shares a
    factor of more than 64 bits with its denominator, which the elimination divides out.
    Sometimes one row is a combination of two others, a column is zero, or the leading
    entry is zero."""
    m = draw(st.integers(22, 24))
    G = 17 * 2 ** draw(st.integers(4, 12))
    e = draw(st.integers(3, 5))
    levels = [low_rank(draw, m, s + 1) for s in range(e)]
    a = [[G**e * (i == j) - sum(G**s * R[i][j] for s, R in enumerate(levels)) for j in range(m)] for i in range(m)]
    if draw(st.booleans()):
        i, j, k = draw(st.permutations(range(m)))[:3]
        c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        a[i] = [c * x + d * y for x, y in zip(a[j], a[k])]
    if draw(st.booleans()):
        col = draw(st.integers(0, m - 1))
        for row in a:
            row[col] = 0
    if draw(st.booleans()):
        a[0][0] = 0
    return [[F(x) for x in row] for row in a]


class TestEliminationWithSharedFactors:
    """Matrices whose Schur blocks carry a common factor of more than 64 bits with their
    denominator, so the elimination divides it out; the other tests' entries never get there."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(planted_systems())
    def test_planted_factor_against_references(self, a):
        m = len(a)
        expected = (gauss_jordan(a, [F(0)] * m)[0], gauss_jordan_kernel(a))
        assert _bareiss(a) == reference_bareiss(a, [F(0)] * m)[::2] == expected
        rows = [[x.numerator for x in row] for row in a]
        assert reference_eliminate(rows, F(1)) == expected

    def test_large_reduced_system(self):
        # y^(4) = L y(tau) at J = 64, built as the benchmark's large instance: tau takes 64
        # distinct values T k / 128 on 64..67 pieces cut on a grid of T / 272, L = rho / (K_4 T^4)
        rng = random.Random(1)
        T = F(rng.randint(1, 9), rng.randint(1, 4))
        J = 64
        pieces = J + rng.randint(0, 3)
        cuts = sorted(rng.sample(range(1, 4 * (J + 4)), pieces - 1))
        bps = [F(0)] + [T * F(c, 4 * (J + 4)) for c in cuts] + [T]
        distinct = [T * F(k, 2 * J) for k in rng.sample(range(2 * J + 1), J)]
        values = distinct + [rng.choice(distinct) for _ in range(pieces - J)]
        rng.shuffle(values)
        L = F(rng.randint(4, 15), 16) / (favard_closed_form(4) * T**4)
        sys = reduce_system(4, T, L, StepFunction(tuple(bps), tuple(values), T))
        rows, factors = sys._integer_rows()
        det, kernel = _eliminate(rows, _scale(factors))
        assert det == reference_bareiss(fraction_matrix(sys), [F(0)] * sys.size)[0] != 0
        assert kernel is None


wide = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**64), 2**64))


@st.composite
def integer_systems(draw):
    """(rows, (p, q)): an m x m integer matrix, m = 0..20, and a scale p / q with p != 0.
    Either full rank with entries of up to 64 bits, or U V of rank r < m with each row then
    multiplied by its own factor of up to 64 bits, so the rows' entries differ in size;
    sometimes a column is zero, and sometimes the top-left k x k block is zero, so the first
    k columns pivot below row k - 1 (and k > m / 2 makes the matrix singular)."""
    m = draw(st.integers(0, 20))
    if m and draw(st.booleans()):
        factors = draw(st.lists(st.integers(1, 2**64), min_size=m, max_size=m))
        a = [[f * x for x in row] for f, row in zip(factors, low_rank(draw, m, draw(st.integers(0, m - 1))))]
    else:
        a = [draw(st.lists(wide, min_size=m, max_size=m)) for _ in range(m)]
    if m and draw(st.booleans()):
        col = draw(st.integers(0, m - 1))
        for row in a:
            row[col] = 0
    if m >= 2 and draw(st.booleans()):
        k = draw(st.integers(1, m - 1))
        for row in a[:k]:
            row[:k] = [0] * k
    return a, (draw(st.integers(-50, 50).filter(bool)), draw(st.integers(1, 50)))


class TestSmallestPivotAgainstFirstNonzero:
    """``_eliminate`` pivots on the entry of fewest bits in each column, ``reference_eliminate``
    on the first nonzero one: the row order differs, the pivot columns, determinant and kernel
    vector do not."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(integer_systems())
    def test_determinant_and_kernel_match(self, system):
        a, (p, q) = system
        det, kernel = _eliminate([list(row) for row in a], (p, q))
        assert (det, kernel) == reference_eliminate([list(row) for row in a], F(p, q))
        if kernel is not None:
            assert all(sum(x * v for x, v in zip(row, kernel)) == 0 for row in a)

    def test_pivot_is_the_entry_of_fewest_bits(self):
        # the rows are changed in place, so the pivot row shows: 1 has fewer bits than 2^70 + 1,
        # where the first nonzero entry and the largest entry would both keep row 0 in place
        rows = [[2**70 + 1, 1], [1, 1]]
        assert _eliminate(rows, (1, 1)) == (2**70, None)  # the sign is kept through the swap
        assert rows[0] == [1, 1]

    def test_pivot_tie_goes_to_the_lowest_row(self):
        # 3 and 2 both have two bits: row 0 stays the pivot row
        rows = [[3, 1], [2, 1]]
        assert _eliminate(rows, (1, 1)) == (1, None)
        assert rows[0] == [3, 1]

    def test_benchmark_and_golden_instances(self):
        # every instance of the seed-1 solve workload and every golden solve instance
        singular = 0
        for name, payload in solve_payloads().items():
            rows, factors = payload_reduction(payload)._integer_rows()
            expected = reference_eliminate([list(row) for row in rows], F(*_scale(factors)))
            assert _eliminate(rows, _scale(factors)) == expected, name
            singular += expected[0] == 0
        assert singular > 50


# ------------------------------------------------------------ reductions

PERIODS = (F(1), F(3, 2), F(2), F(5, 3))


@st.composite
def step_instances(draw, periods=PERIODS):
    """(n, T, L, xi, tau, p): tau on a grid of T/12, p on a grid of T/10, so their
    breakpoints interleave and sometimes coincide; tau values repeat and include
    0 and T; p has zero pieces."""
    n = draw(st.integers(1, 4))
    T = draw(st.sampled_from(periods))
    tau_bps = [F(0)] + [T * F(k, 12) for k in sorted(draw(st.sets(st.integers(1, 11), max_size=6)))] + [T]
    pool = [F(0), T, T / 3, T / 2, T * F(3, 4), T * F(1, 7)]
    tau_vals = draw(st.lists(st.sampled_from(pool), min_size=len(tau_bps) - 1, max_size=len(tau_bps) - 1))
    p_bps = [F(0)] + [T * F(k, 10) for k in sorted(draw(st.sets(st.integers(1, 9), max_size=5)))] + [T]
    weights = [F(0), F(0), F(1, 2), F(3), F(7, 5)]
    p_vals = draw(st.lists(st.sampled_from(weights), min_size=len(p_bps) - 1, max_size=len(p_bps) - 1))
    L = draw(st.sampled_from([F(1), F(5, 2), F(1, 9)]))
    xi = draw(st.sampled_from([F(0), F(1, 3), F(-2), F(5, 7)]))
    tau = StepFunction(tuple(tau_bps), tuple(tau_vals), T)
    p = StepFunction(tuple(p_bps), tuple(p_vals), T)
    return n, T, L, xi, tau, p


class TestReductionsAgainstDoubleLoops:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(step_instances(), st.data())
    def test_reduce_system(self, instance, data):
        n, T, L, xi, tau, _ = instance
        sys = reduce_system(n, T, L, tau)
        samples, kernel, constraint = reference_reduce_system(n, T, L, tau, F(0))
        assert list(sys.sample_points) == samples
        matrix = fraction_matrix(sys)
        assert matrix == reference_assemble(kernel, constraint)
        assert list(sys.rows) == [reference_clear(row) for row in matrix]
        assert sys.size == len(matrix)
        # a shift xi of the kernel is a rank-one term the constant column absorbs
        shifted = reference_assemble(*reference_reduce_system(n, T, L, tau, xi)[1:])
        assert _bareiss(shifted)[0] == sys.determinant()
        values = data.draw(st.lists(entries, min_size=len(samples), max_size=len(samples)))
        t = data.draw(st.sampled_from(list(tau.breakpoints) + [T / 5, T * F(9, 7), F(-1, 3)]))
        expected = reference_reconstruct(n, T, L, tau, values, F(2, 3), t)
        assert reconstruct_solution(sys, tuple(values), F(2, 3))(t) == expected

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(step_instances())
    def test_reduce_weighted(self, instance):
        n, T, _, _, tau, p = instance
        sys = reduce_weighted(n, T, p, tau)
        samples, kernel, constraint = reference_reduce_weighted(n, T, p, tau)
        assert list(sys.sample_points) == samples
        matrix = fraction_matrix(sys)
        assert matrix == reference_assemble(kernel, constraint)
        assert list(sys.rows) == [reference_clear(row) for row in matrix]

    def test_adversarial_denominators(self):
        # deviation values T k / p for distinct primes p, breakpoints on a grid of T / 29 and
        # weight breakpoints on one of T / 31: the per-row grids differ in every row
        T = F(7, 3)
        values = [T * F(1, 11), T * F(2, 13), T * F(3, 17), T * F(5, 19), T * F(4, 23), T, F(0)]
        bps = [F(0)] + [T * F(k, 29) for k in (2, 5, 9, 13, 14, 20, 27)] + [T]
        tau = StepFunction(bps, values + [T * F(3, 17)], T)
        p = StepFunction([F(0), T * F(4, 31), T * F(17, 31), T], [F(2, 5), F(0), F(9, 7)], T)
        for n in range(1, 5):
            for L, xi in ((F(1), F(0)), (F(5, 2), F(-2, 3))):
                sys = reduce_system(n, T, L, tau)
                samples, kernel, constraint = reference_reduce_system(n, T, L, tau, F(0))
                assert list(sys.sample_points) == samples
                matrix = fraction_matrix(sys)
                assert matrix == reference_assemble(kernel, constraint)
                assert list(sys.rows) == [reference_clear(row) for row in matrix]
                shifted = reference_assemble(*reference_reduce_system(n, T, L, tau, xi)[1:])
                assert _bareiss(shifted)[0] == sys.determinant()
            sys = reduce_weighted(n, T, p, tau)
            samples, kernel, constraint = reference_reduce_weighted(n, T, p, tau)
            assert list(sys.sample_points) == samples
            matrix = fraction_matrix(sys)
            assert matrix == reference_assemble(kernel, constraint)
            assert list(sys.rows) == [reference_clear(row) for row in matrix]


def reference_primitive(row, p, q):
    """p / q times ``row`` as a primitive integer row and its scale; a zero row keeps scale 1."""
    g = math.gcd(*row)
    if g == 0:
        return tuple(row), F(1)
    return tuple([x // g for x in row]), F(p * g, q)


def reference_step_kernel(n, T, tau, weight, c):
    """``_step_kernel`` as it was before it built B_{n+1}'s coefficients once per grid G:
    one ``_horner`` call per (sample, cut), raising G to each power again in every call."""
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
    cp, cq = c.numerator, c.denominator
    out = []
    for i, v in enumerate(keys):
        a, e = v * tq, tau.den * tp
        h = math.gcd(a, e)
        a, e = a // h, e // h
        G = math.lcm(Gc, e)
        a, m = a * (G // e), G // Gc
        E = [_horner(B.nums, (a - x * m) % G, G)[0] for x in N]
        row = [0] * len(keys)
        for k, j, w in pieces:
            row[j] += w * (E[k] - E[k + 1])
        M = W * B.den * G ** (n + 1) * cq
        ints = [cp * x for x in row]
        ints[i] += M
        out.append(reference_primitive([*ints, -M], 1, M))
    out.append(reference_primitive([*constraint, 0], tp, tq * W * Gc))
    rows, scales = zip(*out)
    return tuple([F(v, tau.den) for v in keys]), rows, scales


@st.composite
def multigrid_instances(draw):
    """(n, T, c, tau, p) with n up to 6, T not an integer, tau's values on the grids T k / d for
    several d, so the samples' grids G differ from row to row and some rows share one, and p
    a nonnegative step weight with zero pieces; c > 0 is the factor of either reduction."""
    n = draw(st.integers(1, 6))
    T = draw(st.sampled_from([F(5, 3), F(7, 2), F(2, 9), F(11, 4)]))
    cuts = sorted(draw(st.sets(st.integers(1, 47), min_size=1, max_size=7)))
    bps = [F(0)] + [T * F(k, 48) for k in cuts] + [T]
    grids = st.sampled_from([1, 2, 3, 5, 7, 12, 64])
    on_grids = st.builds(lambda d, k: T * F(k % (d + 1), d), grids, st.integers(0, 64))
    vals = draw(st.lists(on_grids, min_size=len(bps) - 1, max_size=len(bps) - 1))
    p_cuts = sorted(draw(st.sets(st.integers(1, 19), max_size=4)))
    p_bps = [F(0)] + [T * F(k, 20) for k in p_cuts] + [T]
    weights = st.sampled_from([F(0), F(1, 2), F(3), F(7, 5), F(13, 6)])
    p_vals = draw(st.lists(weights, min_size=len(p_bps) - 1, max_size=len(p_bps) - 1))
    c = draw(st.fractions(min_value=F(1, 10**6), max_value=1000, max_denominator=10**6))
    return n, T, c, StepFunction(bps, vals, T), StepFunction(p_bps, p_vals, T)


class TestStepKernelAgainstPerCutHorner:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(multigrid_instances(), st.booleans())
    def test_samples_rows_and_scales(self, instance, weighted):
        n, T, c, tau, p = instance
        weight = p.as_piecewise() if weighted else _UNIT
        expected = reference_step_kernel(n, T, tau.as_piecewise(), weight, c)
        # the pencil of either reduction, at the factor c
        pencil = _step_kernel(n, T, tau.as_piecewise(), weight)
        sys = ReducedSystem(n, T, tau, None if weighted else F(1), *pencil, c.as_integer_ratio())
        assert (sys.sample_points, sys.rows, sys.scales) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_both_reductions_at_every_order(self, n):
        T = F(7, 3)
        bps = [F(0)] + [T * F(k, 29) for k in (2, 5, 9, 13, 14, 20, 27)] + [T]
        # s / T on the grids 1/11, 1/13, 1/2, 1/64, 1 and 1/13 again
        tau = StepFunction(bps, [T * F(1, 11), T * F(2, 13), T / 2, T * F(3, 64), T, F(0), T * F(5, 13), T / 2], T)
        p = StepFunction([F(0), T * F(4, 31), T * F(17, 31), T], [F(2, 5), F(0), F(9, 7)], T)
        for L in (F(1), F(5, 2), F(1, 9)):
            sys = reduce_system(n, T, L, tau)
            c = L * T**n / math.factorial(n + 1)
            expected = reference_step_kernel(n, T, tau.as_piecewise(), _UNIT, c)
            assert (sys.sample_points, sys.rows, sys.scales) == expected
        sys = reduce_weighted(n, T, p, tau)
        c = T**n / math.factorial(n + 1)
        expected = reference_step_kernel(n, T, tau.as_piecewise(), p.as_piecewise(), c)
        assert (sys.sample_points, sys.rows, sys.scales) == expected


# ------------------------------------------------------------ integer rows

# periods whose reduced entries overflow or underflow a double at some order n
EXTREME_PERIODS = PERIODS + (F(10) ** 90, F(1, 10**100), F(10**150, 7))


def floats(matrix):
    """float(x) for every entry; None when one overflows."""
    try:
        return [[float(x) for x in row] for row in matrix]
    except OverflowError:
        return None


def hexes(matrix):
    return None if matrix is None else [[x.hex() for x in row] for row in matrix]


class TestIntegerRows:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(step_instances(EXTREME_PERIODS), st.booleans(), entries)
    def test_floats_and_elimination_match_the_fraction_matrix(self, instance, weighted, C):
        n, T, L, _, tau, p = instance
        sys = reduce_weighted(n, T, p, tau) if weighted else reduce_system(n, T, L, tau)
        matrix = fraction_matrix(sys)
        expected = floats(matrix)
        margin, svd_matrix = _margin(*sys._integer_rows())
        if expected is None:
            assert margin is None and svd_matrix is None
        else:
            assert hexes(svd_matrix.tolist()) == hexes(expected)
            assert margin == float(np.linalg.svd(np.array(expected), compute_uv=False)[-1])
        rows, factors = sys._integer_rows()
        scale = _scale(factors)
        assert F(*scale) == math.prod(sys.scales)
        det, kernel = _eliminate(rows, scale)
        assert (det, kernel) == _bareiss(matrix)
        # the forced system, with right-hand side -C T / L in the constraint row only, has the
        # homogeneous determinant and kernel vector; its solution is the constant -C/L
        rhs = [F(0)] * (sys.size - 1) + [-C * T / L]
        forced_det, solution, forced_kernel = reference_bareiss(matrix, rhs)
        assert (forced_det, forced_kernel) == (det, kernel)
        if det and not weighted:
            assert solution == [-C / L] * sys.size

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(step_instances(EXTREME_PERIODS), st.booleans())
    def test_rows_are_primitive_and_contraction_norm_is_the_reference_row_sum(self, instance, weighted):
        n, T, L, _, tau, p = instance
        sys = reduce_weighted(n, T, p, tau) if weighted else reduce_system(n, T, L, tau)
        assert all(math.gcd(*row) in (0, 1) for row in sys.rows)
        assert all(isinstance(s, F) and s > 0 for s in sys.scales)
        # the kernel A = I - M[:J, :J] of the Fraction matrix is the reference's at xi = 0 ...
        matrix = fraction_matrix(sys)
        J = sys.size - 1
        kernel = [[int(i == j) - matrix[i][j] for j in range(J)] for i in range(J)]
        reference = reference_reduce_weighted if weighted else reference_reduce_system
        args = (n, T, p, tau) if weighted else (n, T, L, tau)
        assert kernel == reference(*args, F(0))[1]
        # ... and the norm is the reference's largest absolute row sum at the median xi*(n)
        centred = reference(*args, min_abs_integral(n).xi_star)[1]
        assert contraction_norm(sys) == max([sum([abs(x) for x in row], F(0)) for row in centred])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(step_instances())
    def test_constant_weight_has_the_lipschitz_norm(self, instance):
        # a weight p = L carries L in its zero-mean row, so both kinds centre by the same term
        n, T, L, _, tau, _ = instance
        weighted = reduce_weighted(n, T, StepFunction.constant(L, T), tau)
        assert contraction_norm(weighted) == contraction_norm(reduce_system(n, T, L, tau))


def test_preimages_merge_equal_values():
    s = StepFunction((F(0), F(1, 4), F(1, 2), F(1)), (F(1), F(2), F(1)), F(1))
    pre = preimages(s)
    assert set(pre) == {F(1), F(2)}
    assert pre[F(1)] == [(F(0), F(1, 4)), (F(1, 2), F(1))]


# ------------------------------------------------------------ forced solve


class TestForcedSolveAgainstAugmentedElimination:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(step_instances(EXTREME_PERIODS), entries)
    def test_constant_solution_matches_the_augmented_route(self, instance, C):
        n, T, L, _, tau, _ = instance
        report = solve_periodic(n, T, L, tau, C)
        assert report == reference_solve_periodic(n, T, L, tau, C)
        if report.determinant:
            # M x = b exactly, with x the constant -C/L and b zero but in the constraint row
            sys = reduce_system(n, T, L, tau)
            x = [-C / L] * sys.size
            b = [F(0)] * (sys.size - 1) + [-C * T / L]
            assert [sum([a * v for a, v in zip(row, x)], F(0)) for row in fraction_matrix(sys)] == b

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kernel_vector_matches_the_augmented_route(self, n):
        # at the threshold the witness deviation makes the system singular: the forced solve
        # reports the homogeneous kernel vector, whatever C
        for T in (F(1), F(5, 2)):
            L = 1 / (favard_closed_form(n) * T**n)
            tau = build_witness(n, T).tau.as_step()
            for C in (F(0), F(1, 3), F(-7)):
                report = solve_periodic(n, T, L, tau, C)
                assert report.status == "nontrivial_kernel"
                assert report == reference_solve_periodic(n, T, L, tau, C)


# ------------------------------------------------------------ the pencil

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN_INSTANCES = Path(__file__).resolve().parent / "golden" / "instances"


def payload_steps(payload):
    """(n, T, tau, p) of a ``solve`` instance JSON, with p None for a Lipschitz instance."""
    n, T = payload["n"], F(payload["T"])

    def step(data):
        return StepFunction([F(b) for b in data["breakpoints"]], [F(v) for v in data["values"]], T)

    return n, T, step(payload["tau"]), step(payload["p"]) if payload["kind"] == "weighted" else None


def payload_reduction(payload):
    """The reduced system of a ``solve`` instance JSON."""
    n, T, tau, p = payload_steps(payload)
    return reduce_system(n, T, F(payload["L"]), tau) if p is None else reduce_weighted(n, T, p, tau)


def payload_system(payload):
    """The reduced system of a ``solve`` instance JSON and the reference kernel's
    (samples, rows, scales) for it."""
    n, T, tau, p = payload_steps(payload)
    L, weight = (F(payload["L"]), _UNIT) if p is None else (F(1), p.as_piecewise())
    c = L * T**n / math.factorial(n + 1)
    return payload_reduction(payload), reference_step_kernel(n, T, tau.as_piecewise(), weight, c)


def solve_payloads():
    sys.path.insert(0, str(BENCH))
    try:
        inputs = importlib.import_module("inputs")
    finally:
        sys.path.remove(str(BENCH))
    golden = {path.stem: json.loads(path.read_text()) for path in sorted(GOLDEN_INSTANCES.glob("*.json"))}
    return {**golden, **{inst.name: inst.payload for inst in inputs.solve_inputs(1)}}


class TestPencil:
    def test_views_match_the_reference_on_benchmark_and_golden_instances(self):
        # every instance of the seed-1 solve workload and every golden solve instance
        payloads = solve_payloads()
        assert len(payloads) > 7
        for name, payload in payloads.items():
            system, expected = payload_system(payload)
            assert (system.sample_points, system.rows, system.scales) == expected, name

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        step_instances(EXTREME_PERIODS),
        st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=50, max_denominator=40)),
        st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=50, max_denominator=40)),
    )
    def test_at_L_is_the_reduction_at_L(self, instance, L, L0):
        n, T, _, _, tau, _ = instance
        expected, moved = reduce_system(n, T, L, tau), reduce_system(n, T, L0, tau).at(L)
        assert moved == expected and moved.L == L
        assert (moved.rows, moved.scales, moved.sample_points) == (expected.rows, expected.scales, expected.sample_points)

    def test_at_L_rejects_negative_L_and_weighted_systems(self):
        tau = StepFunction((F(0), F(1, 2), F(1)), (F(1, 3), F(1)), F(1))
        with pytest.raises(ValueError, match="L must be >= 0"):
            reduce_system(2, F(1), F(1), tau).at(F(-1, 2))
        with pytest.raises(ValueError, match="only a Lipschitz system"):
            reduce_weighted(2, F(1), StepFunction.constant(2, 1), tau).at(F(1))

    def test_kind_is_read_off_L(self):
        # no stored kind can disagree with L, and both readers of the predicate refuse a weighted system
        assert "kind" not in {f.name for f in dataclasses.fields(ReducedSystem)}
        tau = StepFunction((F(0), F(1, 2), F(1)), (F(1, 3), F(1)), F(1))
        lipschitz, weighted = reduce_system(2, F(1), F(1), tau), reduce_weighted(2, F(1), StepFunction.constant(2, 1), tau)
        assert (lipschitz.kind, weighted.kind) == ("lipschitz", "weighted")
        with pytest.raises(ValueError, match="reconstruction applies to the Lipschitz reduction"):
            reconstruct_solution(weighted, (F(0), F(0)), F(0))


@st.composite
def weighted_instances(draw):
    """(n, T, p, tau) with n = 1..6, T in {1, 5/2, 1/3, 7}, p a nonnegative step on a grid of
    T/24 with zero pieces (at times only those) and tau on a grid of T/16 with values T k / 8."""
    n = draw(st.integers(1, 6))
    T = draw(st.sampled_from([F(1), F(5, 2), F(1, 3), F(7)]))

    def step(grid, most, values):
        bps = [F(0)] + [T * F(k, grid) for k in sorted(draw(st.sets(st.integers(1, grid - 1), max_size=most)))] + [T]
        return StepFunction(bps, draw(st.lists(values, min_size=len(bps) - 1, max_size=len(bps) - 1)), T)

    p = step(24, 6, st.sampled_from([F(0), F(0), F(1, 3), F(2), F(7, 5), F(13, 8)]))
    return n, T, p, step(16, 5, st.builds(lambda k: T * F(k, 8), st.integers(0, 8)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(weighted_instances())
def test_weight_l1_is_the_value_width_sum(instance):
    # read off the zero-mean row, weight_l1 is ||p||_L1, the sum of each value times its width
    n, T, p, tau = instance
    assert solve_weighted(n, T, p, tau).provenance["weight_l1"] == format_rational(reference_l1(p))
