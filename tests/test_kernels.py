import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from favard import kernels
from favard.constants import favard_closed_form
from favard.exact import Polynomial
from favard.kernels import (
    centered_abs_integral,
    green_apply,
    green_eval,
    green_solution_polynomial,
    min_abs_integral,
    phi_eval,
    phi_samples,
)
from favard.numbers import bernoulli_polynomial


def lagrange_interpolate(points):
    """Reference: the exact interpolating polynomial through distinct rational points (Newton form)."""
    xs = [F(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    coef = [F(y) for _, y in points]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = Polynomial.zero()
    basis = Polynomial.const(1)
    for i, c in enumerate(coef):
        poly = poly + basis * c
        basis = basis * Polynomial.of(-xs[i], 1)
    return poly


def test_lagrange_interpolation():
    p = Polynomial.of(F(1, 3), -2, 0, 5)
    nodes = [F(i, 7) for i in range(5)]
    rebuilt = lagrange_interpolate([(x, p(x)) for x in nodes])
    assert rebuilt == p
    with pytest.raises(ValueError):
        lagrange_interpolate([(F(0), F(1)), (F(0), F(2))])


def reference_green_solution_polynomial(n, T, f):
    """Reference: u interpolated from exact samples of the Green integral. u is a single
    polynomial of degree at most n + deg f + 1 on [0, T], pinned down by that many nodes."""
    T = F(T)
    degree = n + max(f.degree, 0) + 1
    nodes = [T * F(i, degree + 1) for i in range(degree + 2)]
    return lagrange_interpolate([(x, green_apply(n, T, f, x)) for x in nodes])


def phi_poly(n):
    """p with phi_n(2 pi u) = p(u) pi^(n-1) on [0, 1), built from B_n directly."""
    return bernoulli_polynomial(n) * F(-(2 ** (n - 1)), math.factorial(n))


def phi_series_value(n, u, terms, chunk=200_000):
    """Series reference: float partial Fourier sum (1/pi) * sum(k^(-n) cos(2 pi k u - n pi/2), k <= terms)."""
    total = 0.0
    phase = n * math.pi / 2
    for start in range(1, terms + 1, chunk):
        k = np.arange(start, min(start + chunk, terms + 1), dtype=np.float64)
        total += float(np.sum(np.cos(2 * math.pi * k * u - phase) / k**n))
    return total / math.pi


def phi_series_tail_bound(n, terms):
    """Upper bound (2/pi) * sum(k^(-n), k > terms) on the series tail via integral comparison; n >= 2."""
    return 2.0 / math.pi * (terms ** (1 - n)) / (n - 1)


class TestPhi:
    def test_examples(self):
        assert phi_eval(1, F(1, 4)) == F(1, 4)  # phi_1(pi/2) = 1/4
        assert phi_eval(2, 0) == F(-1, 6)  # phi_2(0) = -pi/6
        assert phi_eval(3, 0) == 0

    def test_phi1_is_linear_sawtooth(self):
        # phi_1(2 pi u) = 1/2 - u away from the jump
        for u in (F(1, 8), F(1, 3), F(2, 3), F(99, 100)):
            assert phi_eval(1, u) == F(1, 2) - u

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_eval(1, F(3, 2))
        with pytest.raises(ValueError):
            phi_eval(0, F(1, 2))

    @pytest.mark.parametrize("count", [0, -3])
    def test_samples_need_a_positive_count(self, count):
        with pytest.raises(ValueError):
            phi_samples(3, count)

    def test_zero_mean_exact(self):
        for n in range(1, 11):
            assert phi_poly(n).integrate(0, 1) == 0

    def test_closed_form_vs_series(self):
        rng = random.Random(23)
        terms = 10_000
        for n in range(2, 9):
            bound = phi_series_tail_bound(n, terms) + 1e-9  # float-roundoff slack
            for _ in range(25):
                u = F(rng.randint(0, 10**4 - 1), 10**4)
                value = float(phi_eval(n, u)) * math.pi ** (n - 1)
                assert abs(value - phi_series_value(n, float(u), terms)) <= bound

    def test_closed_form_vs_series_n1(self):
        # slow 1/k decay: 10^6 terms at points away from the jump
        for u in (F(1, 8), F(1, 3), F(5, 8), F(13, 16)):
            assert abs(float(phi_eval(1, u)) - phi_series_value(1, float(u), 10**6)) < 1e-6


class TestMinAbsIntegral:
    def test_central_identity_exact(self):
        for n in range(1, 9):
            ms = min_abs_integral(n)
            assert ms.exact
            assert ms.value_coeff == favard_closed_form(n) * 2**n

    def test_wrong_median_measure_raises(self, monkeypatch):
        split = kernels.level_split

        def measure_off_by_a_quarter(*args):
            m_lo, m_hi, est, err = split(*args)
            return m_lo + F(1, 4), m_hi + F(1, 4), est, err

        monkeypatch.setattr(kernels, "level_split", measure_off_by_a_quarter)
        with pytest.raises(AssertionError, match="not 1/2"):
            min_abs_integral(4)

    def test_n1(self):
        ms = min_abs_integral(1)
        assert ms.xi_star == 0
        assert ms.value_coeff == F(1, 2)  # value = pi/2
        assert abs(ms.value - math.pi / 2) < 1e-15

    def test_n2_median(self):
        ms = min_abs_integral(2)
        assert ms.xi_star == F(1, 48)  # xi* = pi/48
        assert ms.pi_power == 1
        assert abs(ms.value - math.pi**2 / 8) < 1e-15

    def test_min_abs_integral_n20_exact(self):
        # K_0..K_20 from K_{m+1} = sum(K_k K_{m-k}, k = 0..m) / (8 (m + 1)), computed here
        ks = [F(1), F(1, 4)]
        for m in range(1, 20):
            ks.append(sum(ks[k] * ks[m - k] for k in range(m + 1)) / (8 * (m + 1)))
        ms = min_abs_integral(20)
        assert ms.exact
        assert ms.value_coeff == 2**20 * ks[20]

    def test_structural_median_n1_to_30(self):
        # odd n: antisymmetric about 1/2, median 0; even n: symmetric and monotone, median p(1/4)
        for n in range(1, 31):
            ms = min_abs_integral(n)
            assert ms.exact
            p = phi_poly(n)
            assert ms.xi_star == (0 if n % 2 else p(F(1, 4)))

    def test_odd_orders_center_at_zero(self):
        for n in (1, 3, 5, 7):
            assert min_abs_integral(n).xi_star == 0

    def test_float_agreement(self):
        for n in range(1, 9):
            ms = min_abs_integral(n)
            assert abs(ms.value - float(favard_closed_form(n)) * (2 * math.pi) ** n) <= 1e-8

    def test_convexity_in_xi(self):
        rng = random.Random(31)
        for n in (1, 2, 3, 4):
            p = phi_poly(n)
            lo = min(p(F(i, 16)) for i in range(17))
            hi = max(p(F(i, 16)) for i in range(17))
            for _ in range(12):
                x1 = lo + (hi - lo) * F(rng.randint(0, 64), 64)
                x2 = lo + (hi - lo) * F(rng.randint(0, 64), 64)
                j1, e1 = centered_abs_integral(n, x1)
                j2, e2 = centered_abs_integral(n, x2)
                jm, em = centered_abs_integral(n, (x1 + x2) / 2)
                left = float(jm) * math.pi**n
                right = (float(j1) + float(j2)) / 2 * math.pi**n
                slack = float(em + (e1 + e2) / 2) * math.pi**n
                assert left <= right + slack + 1e-12


class TestGreen:
    def test_point_values(self):
        assert green_eval(2, 1, 0, F(1, 3)) == 0
        assert green_eval(2, 1, F(1, 2), F(1, 2)) == F(-1, 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pointwise_kernel_integrates_to_green_apply(self, n):
        # G(t, .) is one polynomial of degree n on [0, t] and one on [t, T]: interpolate
        # each from green_eval and integrate against f exactly
        f = Polynomial.of(F(-1, 2), 1, F(1, 3))
        for T in (F(1), F(5, 2)):
            for t in (F(0), T / 3, T * F(5, 7)):
                total = F(0)
                for lo, hi in ((F(0), t), (t, T)):
                    if lo == hi:
                        continue
                    nodes = [lo + (hi - lo) * F(i, n) for i in range(n + 1)]
                    g = lagrange_interpolate([(s, green_eval(n, T, t, s)) for s in nodes])
                    total += (g * f).integrate(lo, hi)
                assert total == green_apply(n, T, f, t)

    def test_requires_second_order(self):
        with pytest.raises(ValueError):
            green_eval(1, 1, 0, 0)
        with pytest.raises(ValueError):
            green_solution_polynomial(1, 1, Polynomial.const(1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_residual_exact(self, n):
        for T in (F(1), F(5, 2)):
            for f in (bernoulli_polynomial(1), Polynomial.of(F(-1, 2), 1, F(1, 3))):
                u = green_solution_polynomial(n, T, f)
                d = u
                for _ in range(n):
                    d = d.derivative()
                assert d == f
                assert u(0) == 0 and u(T) == 0
                d = u
                for i in range(1, n - 1):
                    d = d.derivative()
                    assert d(0) == d(T)

    def test_solution_matches_green_integral(self):
        f = Polynomial.of(0, 1)
        u = green_solution_polynomial(3, F(1), f)
        for t in (F(0), F(1, 7), F(3, 11), F(12, 13), F(1)):
            assert u(t) == green_apply(3, F(1), f, t)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_interpolation_route(self, n, monkeypatch):
        forcings = [
            Polynomial.const(1),
            bernoulli_polynomial(1),
            Polynomial.of(F(3, 2), F(-1, 3), F(5, 7)),  # mean over [0, T] is never 0 here
            Polynomial.of(F(1, 5), -2, 0, F(7, 3)),
        ]
        cases = [(T, f) for T in (F(1), F(5, 2), F(1, 3)) for f in forcings]
        expected = [reference_green_solution_polynomial(n, T, f) for T, f in cases]
        calls = []
        monkeypatch.setattr(kernels, "green_apply", lambda *args: calls.append(args))
        assert [green_solution_polynomial(n, T, f) for T, f in cases] == expected
        assert calls == []

    def test_uncorrected_scale_fails_residual(self):
        # the commonly printed prefactor T^n/n! yields u^(n) = T f, not f:
        # the dimensional discrepancy this module documents and corrects
        T = F(5, 2)
        f = bernoulli_polynomial(1)
        u = green_solution_polynomial(3, T, f)
        d = u
        for _ in range(3):
            d = d.derivative()
        assert d == f
        assert (u * T).derivative().derivative().derivative() == T * f != f
