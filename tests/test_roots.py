from fractions import Fraction as F

import pytest
from test_roots_reference import poly_divmod, poly_gcd

from favard.exact import Polynomial
from favard.numbers import bernoulli_polynomial
from favard.roots import (
    _square_free_sequence,
    count_roots,
    isolate_roots,
    level_split,
    sign_segments,
    sturm_sequence,
)


def test_poly_divmod():
    a = Polynomial.of(-1, 0, 1)  # u^2 - 1
    b = Polynomial.of(1, 1)  # u + 1
    q, r = poly_divmod(a, b)
    assert q == Polynomial.of(-1, 1)
    assert r.is_zero


def test_gcd_and_square_free():
    double = Polynomial.of(F(-1, 2), 1) * Polynomial.of(F(-1, 2), 1) * Polynomial.of(1, 1)
    g = poly_gcd(double, double.derivative())
    assert g == Polynomial.of(F(-1, 2), 1)
    # (u - 1/2)(u + 1) = (2u^2 + u - 1) / 2, as primitive integer coefficients
    assert _square_free_sequence(double)[0] == [-1, 1, 2]
    assert _square_free_sequence(-double)[0] == [1, -1, -2]


def test_count_roots_sturm():
    p = Polynomial.of(0, -1, 0, 1)  # u^3 - u: roots -1, 0, 1
    assert count_roots(p, F(-2), F(2)) == 3
    assert count_roots(p, F(1, 2), F(2)) == 1
    seq = sturm_sequence(_square_free_sequence(p)[0])
    assert seq == [[0, -1, 0, 1], [-1, 0, 3], [0, 1], [1]]
    assert count_roots(p, -1, 1) == 2  # (-1, 1] holds 0 and 1


def test_count_roots_rejects_reversed_interval():
    p = Polynomial.of(F(-1, 4), 0, 1)  # u^2 - 1/4
    assert count_roots(p, F(0), F(1)) == 1
    assert count_roots(p, F(1), F(1)) == 0
    with pytest.raises(ValueError, match="need a <= b"):
        count_roots(p, F(1), F(0))


def test_isolate_rational_and_irrational():
    # (u - 1/3)(u^2 - 2): rational root 1/3 exact, sqrt(2) enclosed
    p = Polynomial.of(F(-1, 3), 1) * Polynomial.of(-2, 0, 1)
    encs = isolate_roots(p, F(0), F(2), width=F(1, 10**8))
    assert len(encs) == 2
    exact = [e for e in encs if e.exact]
    boxed = [e for e in encs if not e.exact]
    assert len(exact) == 1 and exact[0].low == F(1, 3)
    assert len(boxed) == 1
    lo, hi = boxed[0].low, boxed[0].high
    assert lo * lo < 2 < hi * hi
    assert hi - lo <= F(1, 10**8)


def test_irrational_enclosures_can_hold_a_rational_root():
    # (u - 1/2)((u - 1/2)^2 - 2 10^-30): 1/2 exactly, and 1/2 -+ sqrt(2) 10^-15 in enclosures
    # that hold no other root: the width-level cell (1/2 - 2^-44, 1/2] also holds 1/2, so the
    # left root gets the dyadic sub-cell that holds it alone; 1/2 is outside (1/2, 1/2 + 2^-44]
    h = Polynomial.of(F(-1, 2), 1)
    p = h * (h * h - Polynomial.const(F(2, 10**30)))
    step = F(1, 2**44)
    encs = isolate_roots(p, F(0), F(1))
    half = F(1, 2)
    left = (half - F(1, 2**49), half - F(1, 2**50))
    assert [(e.low, e.high) for e in encs] == [left, (half, half), (half, half + step)]
    old = [(half - step, half), (half, half + step)]  # when the rational roots were subtracted first
    for e, (low, high) in zip((encs[0], encs[2]), old):
        assert count_roots(p, e.low, e.high) == 1
        assert low <= e.low < e.high <= high
        assert not e.low < half <= e.high
    segments, _ = sign_segments(p, F(0), F(1))
    assert segments == [(F(0), left[0], -1), (left[1], half, 1), (half + step, F(1), 1)]


def test_isolate_no_roots():
    p = Polynomial.of(1, 0, 1)
    assert isolate_roots(p, F(-1), F(1)) == []


def test_sign_segments():
    p = Polynomial.of(0, -1, 0, 1)  # sign pattern on [-2, 2]: - + - +
    segments, encs = sign_segments(p, F(-2), F(2))
    assert [s for _, _, s in segments] == [-1, 1, -1, 1]
    assert all(e.exact for e in encs)


def test_measure_below_exact():
    B2 = bernoulli_polynomial(2)
    lo, hi, _, _ = level_split(B2, F(0), F(1), B2(F(1, 4)))
    assert lo == hi == F(1, 2)


def test_measure_below_enclosure():
    import math

    p = Polynomial.of(-2, 0, 1)  # u^2 - 2 <= 0 on [0, sqrt(2)]
    lo, hi, _, _ = level_split(p, F(0), F(2), F(0), width=F(1, 10**9))
    assert hi - lo <= F(1, 10**9)
    assert float(lo) <= math.sqrt(2) <= float(hi) + 1e-9


def test_abs_integral_exact():
    B1 = bernoulli_polynomial(1)
    _, _, val, err = level_split(B1, F(0), F(1), F(0))
    assert err == 0
    assert val == F(1, 4)


def test_abs_integral_irrational_crossing():
    import math

    p = Polynomial.of(-2, 0, 1)
    _, _, val, err = level_split(p, F(0), F(2), F(0), width=F(1, 10**10))
    # antiderivative u^3/3 - 2u; split at sqrt(2), computed in floats
    r = math.sqrt(2)
    prim = lambda u: u**3 / 3 - 2 * u
    expect = abs(prim(r) - prim(0)) + abs(prim(2) - prim(r))
    assert err > 0
    assert abs(float(val) - expect) <= float(err) + 1e-12


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        isolate_roots(Polynomial.zero(), F(0), F(1))


@pytest.mark.parametrize("width", [F(0), F(-1)])
def test_non_positive_width_rejected(width):
    # bisection to a width <= 0 never ends
    with pytest.raises(ValueError, match="width"):
        isolate_roots(Polynomial.of(-2, 0, 1), F(0), F(2), width=width)
