import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favard.exact import (
    PiecewisePolynomial,
    Polynomial,
    StepFunction,
    format_rational,
    frac_part,
    to_float,
    to_rational,
)


def test_rational_string_round_trip():
    for x in (F(3, 4), F(-7, 2), F(5), F(0), F(-1)):
        assert to_rational(format_rational(x)) == x
    assert format_rational(F(8, 2)) == "4"
    assert format_rational(F(-3, 9)) == "-1/3"


def test_to_float():
    # a normal double with a finite result: exactly float(x) ** (1 / root) * pi ** pi_power
    for x, root, m in ((F(-7, 3), 1, 5), (F(2), 3, 0), (F(9, 4), -2, 0), (F(1, 10**300), 1, 40)):
        assert to_float(x, root, m) == float(x) ** (1.0 / root) * math.pi**m
    assert to_float(F(0), 1, 700) == 0.0
    # out of the double range on the way, in range at the end: from the logs
    assert to_float(F(-1, 10**400), 1, 810) == pytest.approx(-(10 ** (810 * math.log10(math.pi) - 400)), rel=1e-12)
    assert to_float(F(10**400), 400) == pytest.approx(10.0, rel=1e-12)
    assert to_float(F(1, 10**400), -400) == pytest.approx(10.0, rel=1e-12)
    # out of the double range at the end
    assert to_float(F(10**400), 1, 1) is None
    assert to_float(F(10**300), 1, 100) is None


def test_frac_part():
    assert frac_part(F(-1, 2)) == F(1, 2)
    assert frac_part(F(7, 4)) == F(3, 4)
    assert frac_part(F(3)) == 0


rationals = st.builds(F, st.integers(-(10**9), 10**9), st.integers(1, 10**6))
eval_points = st.one_of(
    rationals,
    st.just(F(0)),
    st.integers(-(10**6), 10**6),
    rationals.map(format_rational),
)


def reference_horner(coeffs, x):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestPolynomial:
    @settings(max_examples=400, derandomize=True)
    @given(st.lists(rationals, max_size=13), eval_points)
    def test_call_matches_fraction_horner(self, coeffs, x):
        p = Polynomial(tuple(coeffs))
        got = p(x)
        want = reference_horner(p.coeffs, F(x))
        assert type(got) is F
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert p(x) == got  # the cached integer form gives the same value again

    @settings(max_examples=400, derandomize=True)
    @given(st.lists(rationals, max_size=13), eval_points, st.booleans())
    def test_sign_matches_value(self, coeffs, x, vanish):
        p = Polynomial(tuple(coeffs))
        if vanish:  # a root at x, so the zero sign is exercised too
            p = p * Polynomial.of(-F(x), 1)
        value = reference_horner(p.coeffs, F(x))
        assert p.sign(x) == (value > 0) - (value < 0)

    def test_sign_edge_cases(self):
        assert Polynomial.zero().sign(F(3, 7)) == 0
        assert Polynomial.const(F(-5, 3)).sign(F(-2, 9)) == -1
        assert Polynomial.const(7).sign(0) == 1
        p = Polynomial.of(-2, 0, 1)  # u^2 - 2
        assert [p.sign(x) for x in (F(-3, 2), F(-7, 5), 0, F(7, 5), F(3, 2))] == [1, -1, -1, -1, 1]
        assert Polynomial.of(F(-1, 3), 1).sign("1/3") == 0

    def test_call_edge_cases(self):
        assert Polynomial.zero()(F(3, 7)) == 0
        assert Polynomial.const(F(-5, 3))(F(-2, 9)) == F(-5, 3)
        p = Polynomial.of(F(1, 6), -1, 1)
        assert p(0) == F(1, 6)
        assert p("-1/2") == F(1, 6) + F(1, 2) + F(1, 4)
        assert p(-3) == F(1, 6) + 3 + 9

    def test_cache_leaves_value_semantics_alone(self):
        p, q = Polynomial.of(F(1, 2), 3), Polynomial.of(F(1, 2), 3)
        p(F(1, 3))
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)

    def test_normalization_and_degree(self):
        p = Polynomial.of(1, 2, 0, 0)
        assert p.degree == 1
        assert Polynomial.of(0, 0).is_zero
        assert Polynomial.zero().degree == -1

    def test_arithmetic(self):
        p = Polynomial.of(1, 2, 3)
        q = Polynomial.of(0, -2, -3)
        assert (p + q) == Polynomial.of(1)
        assert (p * q)(F(1, 2)) == p(F(1, 2)) * q(F(1, 2))
        assert (p * F(1, 3))(2) == p(2) / 3

    def test_calculus_round_trip(self):
        p = Polynomial.of(F(1, 6), -1, 1)
        assert p.antiderivative().derivative() == p
        assert p.derivative() == Polynomial.of(-1, 2)
        assert p.integrate(F(1, 4), F(1, 2)) == F(-1, 64)

    def test_compose_linear(self):
        p = Polynomial.of(0, 0, 1)  # u^2
        shifted = p.compose_linear(F(1, 2), 1)
        assert shifted == Polynomial.of(F(1, 4), 1, 1)
        reflected = p.compose_linear(1, -1)  # (1-u)^2
        assert reflected(F(1, 4)) == F(9, 16)

    def test_string_round_trip(self):
        p = Polynomial.of(F(1, 3), F(-2, 7), 5)
        assert Polynomial.from_strings(p.to_strings()) == p


class TestPiecewisePolynomial:
    def make_step(self):
        return PiecewisePolynomial.step((0, F(1, 2), 1), (1, -1), 1)

    def test_right_continuity_at_breakpoints(self):
        h = self.make_step()
        assert h(0) == 1
        assert h(F(1, 2)) == -1  # right piece owns its left endpoint
        assert h(F(499, 1000)) == 1
        assert h(1) == 1  # wraps to the first piece

    def test_left_limit(self):
        h = self.make_step()
        assert h.left_limit_in_unit(F(1, 2)) == 1
        assert h.left_limit_in_unit(1) == -1
        assert h.left_limit_in_unit(0) == -1

    def test_periodic_wrap(self):
        h = self.make_step()
        assert h(F(5, 4)) == 1
        assert h(F(-1, 4)) == -1

    def test_mean_and_integrals(self):
        h = self.make_step()
        assert h.mean() == 0
        # zero mean, so integrals are differences of the periodic antiderivative
        F1 = h.antiderivative()
        assert F1(1) - F1(0) == 0
        assert F1(F(1, 2)) - F1(0) == F(1, 2)
        assert F1(F(5, 4)) - F1(F(1, 4)) == 0

    def test_antiderivative_round_trip(self):
        h = self.make_step()
        F1 = h.antiderivative()
        assert F1(0) == 0
        assert F1.derivative().pieces == h.pieces
        # triangle wave peaks at T/2
        assert F1(F(1, 2)) == F(1, 2)

    def test_antiderivative_requires_zero_mean(self):
        pw = PiecewisePolynomial.step((0, 1), (1,), 1)
        with pytest.raises(ValueError):
            pw.antiderivative()
        tilted = PiecewisePolynomial(
            (0, F(1, 3), 1), (Polynomial.of(1, -2), Polynomial.of(0, 0, 3)), F(5, 2)
        )
        assert tilted.mean() != 0
        with pytest.raises(ValueError, match="zero mean"):
            tilted.antiderivative()

    @settings(max_examples=150, derandomize=True)
    @given(
        st.lists(st.lists(rationals, max_size=5), min_size=1, max_size=5),
        st.fractions(min_value=F(1, 8), max_value=8, max_denominator=16),
        st.data(),
    )
    def test_antiderivative_derivative_recovers_pieces(self, raw, period, data):
        cuts = data.draw(
            st.lists(
                st.builds(F, st.integers(1, 63), st.just(64)),
                min_size=len(raw) - 1,
                max_size=len(raw) - 1,
                unique=True,
            )
        )
        pw = PiecewisePolynomial(
            (F(0), *sorted(cuts), F(1)), tuple(Polynomial(tuple(c)) for c in raw), period
        ).zero_mean()
        F1 = pw.antiderivative()
        assert F1(0) == 0
        assert F1.derivative().pieces == pw.pieces

    def test_scaled_period(self):
        h = PiecewisePolynomial.step((0, F(1, 2), 1), (1, -1), F(5, 2))
        assert h(F(5, 4)) == -1  # u = 1/2
        assert h.antiderivative()(F(5, 4)) == F(5, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial.step((0, F(1, 2)), (1,), 1)
        with pytest.raises(ValueError):
            PiecewisePolynomial.step((0, F(1, 2), F(1, 2), 1), (1, 2, 3), 1)
        with pytest.raises(ValueError):
            PiecewisePolynomial.step((0, 1), (1,), 0)

    def test_json_round_trip(self):
        pw = PiecewisePolynomial(
            (0, F(1, 3), 1),
            (Polynomial.of(F(1, 2), -1), Polynomial.of(0, 0, F(3, 7))),
            F(5, 2),
        )
        data = json.loads(json.dumps(pw.to_json_dict()))
        assert PiecewisePolynomial.from_json_dict(data) == pw


@st.composite
def steps_and_points(draw):
    """A step function on one of the periods 1, 5/2, 1/3, 7 and a point t: a breakpoint or an
    interior point, shifted by a whole number of periods (negative t included)."""
    T = draw(st.sampled_from((F(1), F(5, 2), F(1, 3), F(7))))
    cuts = sorted(draw(st.sets(st.integers(1, 63), max_size=6)))
    bps = [F(0)] + [T * F(c, 64) for c in cuts] + [T]
    vals = draw(st.lists(st.builds(F, st.integers(-20, 20), st.just(4)), min_size=len(bps) - 1, max_size=len(bps) - 1))
    base = draw(st.one_of(st.sampled_from(bps), st.fractions(min_value=0, max_value=T, max_denominator=256)))
    return StepFunction(bps, vals, T), base + draw(st.integers(-3, 3)) * T


class TestStepFunction:
    @settings(max_examples=300, derandomize=True)
    @given(steps_and_points())
    def test_as_piecewise_agrees(self, case):
        step, t = case
        assert step.as_piecewise()(t) == step(t)

    def test_as_piecewise_partition(self):
        s = StepFunction((F(0), F(5, 6), F(5, 2)), (F(1), F(-3)), F(5, 2))
        assert s.as_piecewise() == PiecewisePolynomial.step((0, F(1, 3), 1), (1, -3), F(5, 2))

