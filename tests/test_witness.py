import dataclasses
import json
import math
from fractions import Fraction as F

import pytest
from test_exact import piecewise_from_json

from favard import witness
from favard.constants import favard_closed_form
from favard.exact import PiecewisePolynomial, Polynomial, StepFunction
from favard.numbers import bernoulli_polynomial
from favard.witness import (
    DeviationMap,
    build_witness,
    extremal_ratio,
    tabulated_deviation,
    verify_witness,
    witness_extrema,
)

PERIODS = (F(1), F(5, 2), F(1, 3))


def reference_auxiliary_solution(n, T, L, C=0):
    """Closed-form periodic solution of x^(n) = -L h(t), in u = t/T on two pieces:

        x = C + (2 L T^n / (n+1)!) (B_{n+1}(1/2) - B_{n+1}(0) + B_{n+1}(u) - PB_{n+1}(u - 1/2)),

    split where {u - 1/2} jumps: it is u + 1/2 on [0, 1/2) and u - 1/2 on [1/2, 1).
    x(0) = C. ``build_witness`` integrates h instead; this form checks it.
    """
    T, L, C = F(T), F(L), F(C)
    Bn1 = bernoulli_polynomial(n + 1)
    scale = 2 * L * T**n / math.factorial(n + 1)
    base = Polynomial.const(Bn1(F(1, 2)) - Bn1(F(0))) + Bn1
    piece_lo = (base - Bn1.compose_linear(F(1, 2), 1)) * scale
    piece_hi = (base - Bn1.compose_linear(F(-1, 2), 1)) * scale
    return PiecewisePolynomial((F(0), F(1, 2), F(1)), (piece_lo, piece_hi), T).plus_constant(C)


def test_step_sign():
    h = build_witness(1, F(1)).h
    assert h(0) == 1 and h(F(1, 4)) == 1 and h(F(3, 4)) == -1
    assert h(F(5, 4)) == 1  # periodic wrap
    assert h.as_piecewise().mean() == 0


@pytest.mark.parametrize("T", PERIODS + (F(7),))
def test_square_wave_as_piecewise(T):
    h = build_witness(2, T).h
    # the general constructor shares no step code with StepFunction
    assert h.as_piecewise() == PiecewisePolynomial((0, F(1, 2), 1), (Polynomial.const(1), Polynomial.const(-1)), T)
    assert h(T / 2) == -1 and h(-T / 4) == -1 and h(3 * T) == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_deviation_as_step(n):
    for T in PERIODS:
        tau = build_witness(n, T).tau
        assert tau.as_step() == StepFunction((F(0), T / 2, T), (tau.first, tau.second), T)


def test_deviation_validation():
    with pytest.raises(ValueError):
        DeviationMap(period=F(1), first=F(5, 4), second=F(0))


class TestBuildWitness:
    def test_n2_example(self):
        w = build_witness(2, F(1))
        assert w.L_crit == 32
        assert abs(w.y(F(1, 4))) == 1
        assert w.y(F(3, 4)) == -w.y(F(1, 4))
        assert w.C == 0

    def test_n1_example(self):
        w = build_witness(1, F(1))
        assert w.L_crit == 4
        assert w.y(0) - w.y(F(1, 2)) in (2, -2)

    def test_n4_example(self):
        w = build_witness(4, F(1))
        assert w.L_crit == F(6144, 5)
        assert {w.tau.first, w.tau.second} == {F(1, 4), F(3, 4)}

    def test_derived_tau_matches_tabulated(self):
        # the builder takes tau from the table and checks y(tau.first) = sigma = -y(tau.second)
        for n in range(1, 15):
            for T in PERIODS + (F(97),):
                w = build_witness(n, T)
                assert w.tau == tabulated_deviation(n, T)
                data = w.to_json_dict()
                assert data["tabulated_tau"] == data["tau"] == w.tau.to_json_dict()
                assert w.y(w.tau.first) == w.sigma == -w.y(w.tau.second)

    def test_orientation_flag(self):
        # y is -L_crit times the n-fold antiderivative of h, so sigma = -1 for every order
        for n in range(1, 9):
            assert build_witness(n, F(1)).sigma == -1

    @pytest.mark.parametrize("n", range(1, 15))
    @pytest.mark.parametrize("T", PERIODS + (F(97),))
    def test_matches_closed_form(self, n, T):
        # integrating h n times gives the Bernoulli closed form, shifted by C = y(0)
        w = build_witness(n, T)
        assert w.y == reference_auxiliary_solution(n, T, w.L_crit, 0).plus_constant(w.C)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            build_witness(0, F(1))
        with pytest.raises(ValueError):
            build_witness(2, F(-1))


class TestVerifyWitness:
    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("T", PERIODS)
    def test_all_pass(self, n, T):
        report = verify_witness(build_witness(n, T))
        assert report.all_passed

    def test_odd_high_order_nonunit_period(self):
        assert verify_witness(build_witness(7, F(5, 2))).all_passed

    def test_tampered_constant_fails_sampling(self):
        w = build_witness(2, F(1))
        bad = dataclasses.replace(w, y=w.y.plus_constant(F(1, 1000)), C=w.C + F(1, 1000))
        report = verify_witness(bad)
        assert not report.all_passed
        fail = report.first_failure
        assert fail.name == "sampling_identity"
        assert fail.discrepancy == F(1, 1000)

    def test_tampered_solution_fails_differential_and_boundary_checks(self):
        # adding eps u^2 to every piece moves y^(2) by 2 eps and breaks y(0) = y(1-) by eps
        w = build_witness(2, F(1))
        eps = F(1, 1000)
        y = PiecewisePolynomial(w.y.breakpoints, tuple(p + Polynomial.of(0, 0, eps) for p in w.y.pieces), w.T)
        report = verify_witness(dataclasses.replace(w, y=y))
        assert [c.name for c in report.checks] == [
            "differential_identity",
            "periodic_boundary_conditions",
            "sampling_identity",
            "threshold_identity",
        ]
        assert [c.passed for c in report.checks] == [False, False, False, True]
        assert report.checks[0].discrepancy == 2 * eps
        assert report.checks[1].discrepancy == eps

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_swapped_deviation_fails_sampling(self, n):
        # the sampling check is what certifies the tabulated deviation: swapped branches
        # sample y at -sigma and sigma, each off by exactly 2
        w = build_witness(n, F(5, 2))
        swapped = dataclasses.replace(w.tau, first=w.tau.second, second=w.tau.first)
        report = verify_witness(dataclasses.replace(w, tau=swapped))
        assert [c.name for c in report.checks if not c.passed] == ["sampling_identity"]
        assert report.first_failure.discrepancy == 2

    def test_builder_rejects_a_wrong_table(self, monkeypatch):
        def swapped(n, T):
            tau = tabulated_deviation(n, T)
            return dataclasses.replace(tau, first=tau.second, second=tau.first)

        monkeypatch.setattr(witness, "tabulated_deviation", swapped)
        with pytest.raises(AssertionError, match="not sigma h"):
            build_witness(3, F(5, 2))

    def test_tampered_threshold_fails(self):
        w = build_witness(3, F(1))
        bad = dataclasses.replace(w, L_crit=w.L_crit + 1)
        report = verify_witness(bad)
        assert not report.all_passed


def test_scaling_law():
    # t -> t/T maps the (n, T) witness onto the (n, 1) witness; L scales by T^n
    for n in (1, 2, 3, 5, 8):
        for T in (F(5, 2), F(1, 3)):
            w_T = build_witness(n, T)
            w_1 = build_witness(n, F(1))
            assert w_T.y.pieces == w_1.y.pieces
            assert w_T.y.breakpoints == w_1.y.breakpoints
            assert w_T.L_crit * T**n == w_1.L_crit
            assert w_T.C == w_1.C


def test_amplitude_exactly_two():
    for n in range(1, 11):
        for T in PERIODS:
            hi, lo = witness_extrema(build_witness(n, T))
            assert hi - lo == 2
            assert {hi, lo} == {F(1), F(-1)}


def test_extremal_ratio_attains_best_constant():
    for n in range(1, 9):
        for T in PERIODS:
            w = build_witness(n, T)
            assert extremal_ratio(w) == favard_closed_form(n) * T**n


class TestAuxiliarySolution:
    def test_n1_difference(self):
        y = reference_auxiliary_solution(1, F(1), F(4), 0)
        assert abs(y(0) - y(F(1, 2))) == 2

    def test_n2_antisymmetry(self):
        y = reference_auxiliary_solution(2, F(1), F(32), 0)
        assert y(F(1, 4)) + y(F(3, 4)) == 0

    def test_n3_differential_identity(self):
        y = reference_auxiliary_solution(3, F(1), F(192), F(7, 13))
        d = y
        for _ in range(3):
            d = d.derivative()
        assert (d.value_in_unit(F(1, 4)), d.value_in_unit(F(3, 4))) == (F(-192), F(192))

    def test_constant_shifts(self):
        base = reference_auxiliary_solution(4, F(1), F(10), 0)
        shifted = reference_auxiliary_solution(4, F(1), F(10), F(3, 7))
        assert shifted(F(1, 5)) - base(F(1, 5)) == F(3, 7)


def test_witness_json_round_trip():
    w = build_witness(3, F(5, 2))
    payload = json.loads(json.dumps(w.to_json_dict()))
    # 1 / (K_3 T^3) = 192 * 8 / 125
    assert payload["L_crit"] == "1536/125"
    assert piecewise_from_json(payload["y"]) == w.y
