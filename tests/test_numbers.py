import random
from fractions import Fraction as F
from math import comb

import pytest

from favard import numbers
from favard.constants import favard_closed_form
from favard.exact import Polynomial
from favard.numbers import (
    bernoulli_numbers,
    bernoulli_numbers_tangent,
    bernoulli_polynomial,
    euler_numbers,
    euler_numbers_zigzag,
    eval_periodic,
    zigzag_numbers,
)


def test_bernoulli_known_values():
    assert bernoulli_numbers(0) == [F(1)]
    assert bernoulli_numbers(4) == [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30)]
    assert bernoulli_numbers(12)[12] == F(-691, 2730)


def test_bernoulli_routes_agree():
    assert bernoulli_numbers(40) == bernoulli_numbers_tangent(40)


def test_euler_known_values():
    assert euler_numbers(2) == [1, 0, -1]
    es = euler_numbers(10)
    assert es[4] == 5
    assert es[6] == -61
    assert es[10] == -50521


def test_euler_routes_agree():
    assert euler_numbers(30) == euler_numbers_zigzag(30)


def test_zigzag_sequence():
    assert zigzag_numbers(8) == [1, 1, 1, 2, 5, 16, 61, 272, 1385]


def test_table_validates_sign_patterns():
    bern, eul = bernoulli_numbers(31), euler_numbers(31)
    assert len(bern) == len(eul) == 32
    for k in range(2, 16):
        assert bern[2 * k + 1] == 0
    for k in range(1, 15):
        assert (-1) ** (k + 1) * bern[2 * k] > 0
        assert eul[2 * k - 1] == 0
        assert (-1) ** k * eul[2 * k] > 0


def test_table_growth_keeps_prefixes(monkeypatch):
    monkeypatch.setattr(numbers, "_table", ((F(1),), (1,)))
    small = bernoulli_numbers(3)
    large = bernoulli_numbers(40)
    again = bernoulli_numbers(3)
    assert type(small) is type(large) is type(again) is list
    assert small == again == large[:4]
    assert euler_numbers(3) == euler_numbers(40)[:4]


def _corrupt_last(route):
    def corrupted(n_max):
        out = route(n_max)
        out[-1] += 1
        return out

    return corrupted


@pytest.mark.parametrize("name", ["bernoulli_numbers_tangent", "euler_numbers_zigzag"])
def test_corrupted_check_route_is_caught(monkeypatch, name):
    # every number reaching K_n or a Bernoulli polynomial passes through the checked table
    monkeypatch.setattr(numbers, name, _corrupt_last(getattr(numbers, name)))
    for use in (favard_closed_form, bernoulli_polynomial):
        monkeypatch.setattr(numbers, "_table", ((F(1),), (1,)))
        with pytest.raises(AssertionError, match="routes disagree"):
            use(6)


class TestBernoulliPolynomial:
    def test_low_degree(self):
        assert bernoulli_polynomial(1) == Polynomial.of(F(-1, 2), 1)
        assert bernoulli_polynomial(2) == Polynomial.of(F(1, 6), -1, 1)
        assert bernoulli_polynomial(3)(F(1, 4)) == F(3, 64)

    def test_derivative_identity_as_polynomials(self):
        # B_n' = n B_{n-1} holds coefficientwise, hence at every rational point
        for n in range(1, 31):
            assert bernoulli_polynomial(n).derivative() == n * bernoulli_polynomial(n - 1)

    def test_derivative_identity_random_points(self):
        rng = random.Random(5)
        for n in range(1, 13):
            p, q = bernoulli_polynomial(n).derivative(), bernoulli_polynomial(n - 1)
            for _ in range(100):
                t = F(rng.randint(0, 10**6 - 1), 10**6)
                assert p(t) == n * q(t)

    def test_zero_mean(self):
        for n in range(1, 31):
            assert bernoulli_polynomial(n).integrate(0, 1) == 0

    def test_symmetry(self):
        # B_n(1 - t) = (-1)^n B_n(t) as a polynomial identity
        for n in range(31):
            p = bernoulli_polynomial(n)
            assert p.compose_linear(1, -1) == (-1) ** n * p

    def test_built_once_and_matches_recurrence(self):
        # B_0..B_40 from the recurrence sum(C(n+1, j) B_j, j = 0..n) = 0, built here independently
        bern = []
        for n in range(41):
            bern.append(F(1) if n == 0 else -sum(comb(n + 1, j) * bern[j] for j in range(n)) / (n + 1))
        for n in range(41):
            p = bernoulli_polynomial(n)
            assert p is bernoulli_polynomial(n)
            assert p.coeffs == tuple(comb(n, k) * bern[n - k] for k in range(n + 1))

    def test_value_at_zero_is_number(self):
        bern = bernoulli_numbers(20)
        for n in range(21):
            assert bernoulli_polynomial(n)(0) == bern[n]


class TestPeriodicBernoulli:
    def test_examples(self):
        assert eval_periodic(bernoulli_polynomial(2), F(-1, 2)) == F(-1, 12)
        assert eval_periodic(bernoulli_polynomial(1), F(7, 4)) == F(1, 4)
        assert eval_periodic(bernoulli_polynomial(3), 0) == 0

    def test_continuity_across_integers(self):
        # for n >= 2 the left limit at 1 equals the value at 0
        for n in range(2, 16):
            p = bernoulli_polynomial(n)
            assert p(1) == p(0)
