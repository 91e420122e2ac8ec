import random
from fractions import Fraction as F

import numpy as np
import pytest
from test_solver_reference import fraction_matrix, reference_assemble, reference_reduce_system

from favard.constants import favard_closed_form
from favard.exact import Polynomial
from favard.sampling import random_deviation, random_weight
from favard.solver import (
    StepFunction,
    _bareiss,
    contraction_norm,
    fraction_determinant,
    nullspace_vector,
    reconstruct_solution,
    reduce_system,
    reduce_weighted,
    solve_periodic,
    solve_weighted,
    uniqueness_margin,
)
from favard.witness import build_witness, tabulated_deviation


def witness_tau(n, T=F(1)):
    return build_witness(n, T).tau.as_step()


class TestStepFunction:
    def test_eval_and_wrap(self):
        s = StepFunction((F(0), F(1, 3), F(1)), (F(2), F(5)), F(1))
        assert s(0) == 2
        assert s(F(1, 3)) == 5  # right-continuous
        assert s(F(4, 3)) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction((F(0), F(1, 2)), (F(1),), F(1))
        with pytest.raises(ValueError):
            StepFunction((F(0), F(1)), (F(1), F(2)), F(1))


class TestDeterminant:
    def test_known_determinants(self):
        assert fraction_determinant([[F(2)]]) == 2
        m = [[F(1), F(2)], [F(3), F(4)]]
        assert fraction_determinant(m) == -2
        m = [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]
        assert fraction_determinant(m) == F(1, 2) * F(1, 7) - F(1, 3) * F(1, 5)

    def test_random_against_float(self):
        rng = random.Random(13)
        for _ in range(20):
            size = rng.randint(2, 5)
            m = [[F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(size)] for _ in range(size)]
            exact = fraction_determinant([row[:] for row in m])
            approx = np.linalg.det(np.array([[float(x) for x in r] for r in m]))
            assert abs(float(exact) - approx) < 1e-8 * max(1.0, abs(approx))

    def test_singular(self):
        m = [[F(1), F(2)], [F(2), F(4)]]
        assert fraction_determinant(m) == 0

    def test_non_square_matrices_are_rejected(self):
        # a 1 x 2 matrix has the kernel (-2, 1), but neither wrapper answers for a non-square one
        for matrix in (((F(1), F(2)),), ((F(1),), (F(2),))):
            for f in (fraction_determinant, nullspace_vector):
                with pytest.raises(ValueError, match="matrix must be square"):
                    f(matrix)

    def test_nullspace_vector_is_exact_kernel(self):
        sys = reduce_system(2, 1, F(32), witness_tau(2))
        matrix = fraction_matrix(sys)
        vec = nullspace_vector(matrix)
        assert vec is not None
        for row in matrix:
            assert sum(a * b for a, b in zip(row, vec)) == 0


class TestReduction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_witness_tau_singular_at_threshold(self, n):
        K = favard_closed_form(n)
        sys = reduce_system(n, 1, 1 / K, witness_tau(n))
        assert sys.determinant() == 0
        report = uniqueness_margin(sys)
        assert report.status == "nontrivial_kernel"
        # kernel vector proportional to the witness samples (+1, -1)
        v = report.solution_samples
        assert v is not None and len(v) == 2
        assert v[0] == -v[1] != 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_witness_tau_regular_below_threshold(self, n):
        K = favard_closed_form(n)
        sys = reduce_system(n, 1, F(1, 2) / K, witness_tau(n))
        assert sys.determinant() != 0
        assert uniqueness_margin(sys).status == "unique"

    def test_random_below_threshold_all_unique(self):
        rng = random.Random(51)
        for n in (2, 3):
            K = favard_closed_form(n)
            L = F(9, 10) / K
            for _ in range(30):
                tau = random_deviation(rng, F(1))
                assert reduce_system(n, F(1), L, tau).determinant() != 0

    def test_constant_deviation_unique(self):
        tau = StepFunction.constant(F(0), F(1))
        for n in (1, 2, 3):
            K = favard_closed_form(n)
            sys = reduce_system(n, 1, F(1, 2) / K, tau)
            assert uniqueness_margin(sys).status == "unique"

    def test_xi_invariance_exact(self):
        # the rows carry no shift xi: the reference's rank-one xi term leaves the determinant as is
        rng = random.Random(3)
        tau = random_deviation(rng, F(1))
        base = reduce_system(2, 1, F(16), tau).determinant()
        for xi in (F(1, 3), F(-2, 7), F(5, 48), F(1), F(-3)):
            assert _bareiss(reference_assemble(*reference_reduce_system(2, 1, F(16), tau, xi)[1:]))[0] == base

    def test_rejects_deviation_outside_period(self):
        tau = StepFunction((F(0), F(1)), (F(3, 2),), F(1))
        with pytest.raises(ValueError):
            reduce_system(1, 1, F(1), tau)

    def test_near_singular_band(self):
        n = 2
        K = favard_closed_form(n)
        L = (1 - F(1, 10**12)) / K
        report = uniqueness_margin(reduce_system(n, 1, L, witness_tau(n)))
        assert report.determinant != 0
        assert report.status == "near_singular"

    def test_near_singular_recheck_overflow_keeps_flag(self):
        # the zero-mean row divided by T overflows a double: the unscaled verdict stands
        T = F(1, 10**300)
        p = StepFunction.constant(F(10**320), T)
        tau = StepFunction.constant(F(0), T)
        report = solve_weighted(1, T, p, tau)
        assert report.status == "near_singular"
        assert report.margin == 1.0
        assert report.determinant == 10**20

    def test_exact_vs_float_consistency(self):
        rng = random.Random(77)
        events = []
        for _ in range(46):
            n = rng.randint(1, 3)
            K = favard_closed_form(n)
            L = F(rng.randint(10, 90), 100) / K
            tau = random_deviation(rng, F(1))
            rep = uniqueness_margin(reduce_system(n, 1, L, tau))
            events.append((rep.determinant == 0, rep.margin < 1e-8))
        for n in (1, 2, 3, 4):
            rep = uniqueness_margin(reduce_system(n, 1, 1 / favard_closed_form(n), witness_tau(n)))
            events.append((rep.determinant == 0, rep.margin < 1e-8))
        assert all(zero == small for zero, small in events)


class TestSolvePeriodic:
    def test_constant_solution(self):
        tau = StepFunction.constant(F(1, 2), F(1))
        report = solve_periodic(1, 1, 2, tau, -2)
        assert report.status == "unique"
        assert report.solution_samples == (F(1),)
        sys = reduce_system(1, 1, 2, tau)
        y = reconstruct_solution(sys, report.solution_samples, report.constant)
        for t in (F(0), F(1, 3), F(7, 8)):
            assert y(t) == 1

    def test_homogeneous_below_threshold_trivial(self):
        rng = random.Random(9)
        tau = random_deviation(rng, F(1))
        report = solve_periodic(2, 1, 16, tau, 0)
        assert report.status == "unique"
        assert all(v == 0 for v in report.solution_samples)

    def test_witness_kernel_reported(self):
        report = solve_periodic(2, 1, 32, witness_tau(2), 0)
        assert report.status == "nontrivial_kernel"
        v = report.solution_samples
        assert v[0] == -v[1] != 0

    def test_constant_solution_general(self):
        # below threshold with constant deviation the solution is -C/L everywhere
        tau = StepFunction.constant(F(1, 4), F(1))
        report = solve_periodic(3, 1, 12, tau, F(5, 7))
        assert report.status == "unique"
        assert all(v == F(-5, 7) / 12 for v in report.solution_samples)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_forced_stays_unique_where_homogeneous_is_near_singular(self, n):
        # just below the threshold the homogeneous verdict is near_singular (margin about
        # 1e-12); the forced solve reports the constant -C/L whatever the float margin
        tau = tabulated_deviation(n, 1).as_step()
        L = (1 - F(1, 10**12)) / favard_closed_form(n)
        homogeneous = uniqueness_margin(reduce_system(n, 1, L, tau))
        assert homogeneous.status == "near_singular"
        report = solve_periodic(n, 1, L, tau, 1)
        assert report.status == "unique"
        assert (report.determinant, report.margin) == (homogeneous.determinant, homogeneous.margin)
        assert report.solution_samples == (-1 / L,) * len(report.solution_samples)
        assert report.constant == -1 / L

    def test_reconstruction_fixed_point(self):
        # y built by periodic antiderivatives, for any sample values v and constant,
        # takes at s_i the value the reduction's row i gives, sum_j A_ij v_j + C_1;
        # for a solved (here: non-constant kernel) vector that is v_i itself
        rng = random.Random(29)
        for n in (1, 2, 3, 4):
            for T in (F(1), F(5, 2)):
                tau = random_deviation(rng, T)
                sys = reduce_system(n, T, F(10), tau)
                v = tuple([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in sys.sample_points])
                y = reconstruct_solution(sys, v, F(1, 3))
                # row i of the matrix is [I - A | -1]_i, so sum_j A_ij v_j + C_1 = v_i - M_i . (v, C_1)
                matrix = fraction_matrix(sys)
                rows = [x - sum([a * b for a, b in zip(row, (*v, F(1, 3)))]) for x, row in zip(v, matrix)]
                assert [y(s) for s in sys.sample_points] == rows
        L = 1 / favard_closed_form(2)
        report = solve_periodic(2, 1, L, witness_tau(2), 0)
        sys = reduce_system(2, 1, L, witness_tau(2))
        y = reconstruct_solution(sys, report.solution_samples, report.constant)
        assert tuple([y(s) for s in sys.sample_points]) == report.solution_samples != (0, 0)

    def test_L_zero_degenerate(self):
        tau = StepFunction.constant(F(0), F(1))
        report = solve_periodic(2, 1, 0, tau, 1)
        assert report.status == "nontrivial_kernel"
        assert report.to_json_dict() == {
            "status": "nontrivial_kernel",
            "margin": 0.0,
            "determinant": "0",
            "provenance": {"route": "degenerate_L0", "kind": "lipschitz"},
        }

    def test_L_zero_still_validates(self):
        # the instance is reduced before the degenerate verdict, so bad inputs raise
        bad_tau = StepFunction((F(0), F(1, 2), F(1)), (F(3, 4), F(7, 4)), F(1))
        with pytest.raises(ValueError, match=r"tau\.values\[1\] = 7/4"):
            solve_periodic(2, 1, 0, bad_tau, 1)
        with pytest.raises(ValueError, match="n must be >= 1"):
            solve_periodic(0, 1, 0, StepFunction.constant(F(0), F(1)), 1)

    def test_L_zero_homogeneous_matches_forced_path(self):
        # every constant solves y^(n) = 0, so the homogeneous verdict is never "unique"
        tau = StepFunction((F(0), F(1, 2), F(1)), (F(3, 4), F(1, 4)), F(1))
        report = uniqueness_margin(reduce_system(2, 1, 0, tau))
        assert report.status == "nontrivial_kernel"
        assert report.determinant == 0
        assert report.provenance["route"] == "degenerate_L0"
        assert report == solve_periodic(2, 1, 0, tau, 0)

    def test_margin_overflow_keeps_exact_verdict(self):
        T = F(10) ** 400
        tau = StepFunction((F(0), T / 10, T), (F(0), T / 2), T)
        report = uniqueness_margin(reduce_system(2, T, 1, tau))
        assert report.margin is None
        assert report.status == "unique"
        assert report.determinant == reduce_system(2, T, 1, tau).determinant() != 0
        assert "float64" in report.provenance["margin_unavailable"]
        forced = solve_periodic(2, T, 1, tau, 3)
        assert forced.margin is None and "margin_unavailable" in forced.provenance
        assert forced.status == "unique"
        assert forced.solution_samples == (F(-3), F(-3)) and forced.constant == -3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reconstruction_satisfies_ode(self, n):
        # y^(n) = L y(tau) + C exactly on every piece, read off by differentiating the
        # pieces n times, and y, .., y^(n-1) agree across the period end. The forced
        # problem's unique solution is the constant -C/L; the witness deviation at the
        # threshold gives a non-constant one from the kernel vector, with C = 0.
        for T in (F(1), F(5, 2)):
            forced = StepFunction((0, T / 3, 3 * T / 4, T), (T / 2, 0, 7 * T / 8), T)
            critical = 1 / (favard_closed_form(n) * T**n)
            cases = ((forced, F(7), F(2, 5), "unique"), (witness_tau(n, T), critical, 0, "nontrivial_kernel"))
            for tau, L, C, status in cases:
                report = solve_periodic(n, T, L, tau, C)
                assert report.status == status
                y = reconstruct_solution(reduce_system(n, T, L, tau), report.solution_samples, report.constant)
                assert all([p.degree <= 0 for p in y.pieces]) == (status == "unique")
                d = y
                for _ in range(n):
                    assert d.value_in_unit(F(0)) == d.left_limit_in_unit(F(1))
                    d = d.derivative()
                assert d.breakpoints == tau.as_piecewise().breakpoints
                assert list(d.pieces) == [Polynomial.const(L * y(v) + C) for v in tau.values]

    def test_witness_singular_at_nonunit_period(self):
        T = F(5, 2)
        K = favard_closed_form(2)
        sys = reduce_system(2, T, 1 / (K * T**2), witness_tau(2, T))
        assert sys.determinant() == 0
        below = reduce_system(2, T, F(1, 2) / (K * T**2), witness_tau(2, T))
        assert below.determinant() != 0


class TestWeighted:
    def test_below_threshold_unique(self):
        rng = random.Random(41)
        for _ in range(20):
            p = random_weight(rng, F(1), F(39, 10))
            tau = random_deviation(rng, F(1))
            assert solve_weighted(1, F(1), p, tau).status == "unique"

    def test_second_order_half_threshold(self):
        # threshold for n = 2 is 4/K_1 = 16; integral 8 stays unique
        rng = random.Random(43)
        for _ in range(10):
            p = random_weight(rng, F(1), F(8))
            tau = random_deviation(rng, F(1))
            assert solve_weighted(2, F(1), p, tau).status == "unique"

    def test_zero_weight_degenerate(self):
        p = StepFunction.constant(F(0), F(1))
        tau = StepFunction.constant(F(0), F(1))
        report = solve_weighted(1, F(1), p, tau)
        assert report.status == "nontrivial_kernel"

    def test_negative_weight_rejected(self):
        p = StepFunction.constant(F(-1), F(1))
        tau = StepFunction.constant(F(0), F(1))
        with pytest.raises(ValueError):
            reduce_weighted(1, F(1), p, tau)

    def test_concentration_margins_decrease(self):
        margins = []
        for k in range(1, 6):
            eps = F(1, 2**k)
            width = F(1, 2 ** (k + 3))
            height = (4 + eps) / 2 / width
            bps = (F(0), width, F(1, 2), F(1, 2) + width, F(1))
            p = StepFunction(bps, (height, F(0), height, F(0)), F(1))
            tau = StepFunction(bps, (F(1, 2), F(0), F(0), F(0)), F(1))
            margins.append(solve_weighted(1, F(1), p, tau).margin)
        assert all(a > b for a, b in zip(margins, margins[1:]))
        assert margins[-1] < margins[0] / 8


class TestContraction:
    def test_norm_bounded_by_contraction_factor(self):
        rng = random.Random(61)
        for _ in range(20):
            n = rng.randint(1, 3)
            T = (F(1), F(5, 2), F(1, 3))[rng.randrange(3)]
            rho = F(rng.randint(10, 99), 100)
            L = rho / (favard_closed_form(n) * T**n)
            sys = reduce_system(n, T, L, random_deviation(rng, T))
            assert contraction_norm(sys) <= rho

    def test_without_centering_norm_can_exceed(self):
        # the shift is what makes the operator a contraction: for n = 2 (xi* = 1/48) the
        # uncentred row sums overshoot the factor on this deviation and the centred norm does not
        tau = StepFunction(
            (F(0), F(7, 16), F(39, 64), F(49, 64), F(25, 32), F(1)),
            (F(0), F(7, 8), F(1, 2), F(7, 16), F(3, 16)),
            F(1),
        )
        K = favard_closed_form(2)
        rho = F(99, 100)
        _, kernel, _ = reference_reduce_system(2, 1, rho / K, tau, F(0))
        assert max([sum([abs(x) for x in row]) for row in kernel]) > rho
        assert contraction_norm(reduce_system(2, 1, rho / K, tau)) <= rho

