"""The solver's exact paths against the slower code they replaced, kept here as references.

``gauss_jordan`` is the Fraction Gauss-Jordan solve the forced Lipschitz path
used before the single integer Bareiss elimination; it also returns the
determinant as the signed product of its pivots. ``gauss_jordan_kernel`` is
the Fraction Gauss-Jordan kernel vector singular systems used before the
elimination became rank-revealing. ``reference_reduce_system``,
``reference_reduce_weighted`` and ``reference_reconstruct`` are the
per-(sample, value, interval) double loops the reductions used before each
breakpoint was evaluated once per sample; ``reconstruct_solution`` now
integrates with periodic antiderivatives instead, so ``reference_reconstruct``
checks it by a different route. ``reference_assemble`` is the
layout of the full homogeneous matrix the reductions stored before
``ReducedSystem.matrix`` was derived from the kernel and constraint row.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from favard.numbers import bernoulli_polynomial, eval_periodic
from favard.solver import (
    StepFunction,
    _bareiss,
    fraction_determinant,
    nullspace_vector,
    reconstruct_solution,
    reduce_system,
    reduce_weighted,
)


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


def wrapped_kernel_integral(Bn1, n, a, lo, hi):
    """integral(PB_n(a - theta), theta = lo..hi) through the antiderivative PB_{n+1} / (n + 1)."""
    return (eval_periodic(Bn1, a - lo) - eval_periodic(Bn1, a - hi)) / (n + 1)


def reference_reduce_system(n, T, L, tau, xi):
    pre = tau.preimages()
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


def reference_reduce_weighted(n, T, p, tau):
    cuts = sorted(set(p.breakpoints) | set(tau.breakpoints))
    refined = list(zip(cuts, cuts[1:]))
    pre_vals = sorted(tau.preimages())
    Bn1 = bernoulli_polynomial(n + 1)
    factor = -(T**n) / F(math.factorial(n))
    kernel = []
    for s in pre_vals:
        row = []
        for v in pre_vals:
            acc = F(0)
            for lo, hi in refined:
                if tau((lo + hi) / 2) != v:
                    continue
                pv = p((lo + hi) / 2)
                if pv == 0:
                    continue
                acc += pv * wrapped_kernel_integral(Bn1, n, s / T, lo / T, hi / T)
            row.append(factor * acc)
        kernel.append(row)
    constraint = []
    for v in pre_vals:
        acc = F(0)
        for lo, hi in refined:
            if tau((lo + hi) / 2) == v:
                acc += p((lo + hi) / 2) * (hi - lo)
        constraint.append(acc)
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


def reference_reconstruct(n, T, L, tau, samples, constant, t):
    Bn1 = bernoulli_polynomial(n + 1)
    by_value = dict(zip(sorted(tau.preimages()), samples))
    total = F(0)
    for v, intervals in tau.preimages().items():
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
        det, solution, kernel = _bareiss(a, rhs)
        assert det == ref_det
        assert solution == ref_solution
        assert kernel == ref_kernel
        assert (solution is None) == (det == 0)
        assert fraction_determinant(a) == ref_det
        assert _bareiss(a) == (ref_det, None, ref_kernel)

    def test_swaps_and_singular_cases(self):
        # zero pivots at columns 0 and 1 force swaps; only the anti-diagonal term survives
        a = [[F(0), F(0), F(3)], [F(0), F(1, 2), F(7)], [F(5, 3), F(1), F(0)]]
        rhs = [F(1, 7), F(0), F(-2, 9)]
        assert _bareiss(a, rhs) == (*gauss_jordan(a, rhs), None)
        assert _bareiss(a, rhs)[0] == -F(3) * F(1, 2) * F(5, 3)
        singular = [[F(1, 2), F(1, 3)], [F(3, 2), F(1)]]
        assert _bareiss(singular, [F(1), F(2)]) == (F(0), None, [F(-2, 3), F(1)])
        assert _bareiss([], []) == (F(1), [], None)
        # rank 1 with a zero leading column: pivot at column 1, free columns 0 and 2
        a = [[F(0), F(2), F(4)], [F(0), F(-1), F(-2)], [F(0), F(0), F(0)]]
        assert _bareiss(a) == (F(0), None, [F(1), F(0), F(0)])
        a = [[F(0), F(0), F(3)], [F(0), F(1, 2), F(0)], [F(0), F(1), F(6)]]
        assert _bareiss(a, rhs) == (F(0), None, [F(1), F(0), F(0)])
        a = [[F(2), F(4), F(1)], [F(1), F(2), F(0)], [F(3), F(6), F(1)]]
        assert _bareiss(a) == (F(0), None, [F(-2), F(1), F(0)]) == (F(0), None, gauss_jordan_kernel(a))

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(rank_deficient_systems())
    def test_rank_deficient_kernel(self, system):
        a, rhs = system
        m = len(a)
        ref_det, ref_solution = gauss_jordan(a, [F(0)] * m if rhs is None else rhs)
        ref_kernel = gauss_jordan_kernel(a)
        det, solution, kernel = _bareiss(a, rhs)
        assert det == ref_det
        assert solution == (None if rhs is None else ref_solution)
        assert kernel == ref_kernel
        assert nullspace_vector(a) == ref_kernel
        assert (kernel is None) == (det != 0)
        if kernel is not None:
            assert any(kernel)
            assert all(sum(x * v for x, v in zip(row, kernel)) == 0 for row in a)


# ------------------------------------------------------------ reductions

PERIODS = (F(1), F(3, 2), F(2), F(5, 3))


@st.composite
def step_instances(draw):
    """(n, T, L, xi, tau, p): tau on a grid of T/12, p on a grid of T/10, so their
    breakpoints interleave and sometimes coincide; tau values repeat and include
    0 and T; p has zero pieces."""
    n = draw(st.integers(1, 4))
    T = draw(st.sampled_from(PERIODS))
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
        sys = reduce_system(n, T, L, tau, xi=xi)
        samples, kernel, constraint = reference_reduce_system(n, T, L, tau, xi)
        assert list(sys.sample_points) == samples
        assert [list(row) for row in sys.kernel_matrix] == kernel
        assert list(sys.constraint_row) == constraint
        assert [list(row) for row in sys.matrix] == reference_assemble(kernel, constraint)
        assert sys.size == len(sys.matrix)
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
        assert [list(row) for row in sys.kernel_matrix] == kernel
        assert list(sys.constraint_row) == constraint
        assert [list(row) for row in sys.matrix] == reference_assemble(kernel, constraint)
