import math
import random
from fractions import Fraction as F

import pytest
from test_exact_reference import max_abs_in_unit

from favard.constants import (
    ROUTES,
    favard_closed_form,
    favard_generating,
    favard_recurrence,
    favard_series_numeric,
    favard_table,
)
from favard.exact import StepFunction
from favard.sampling import periodic_antiderivatives, random_step_numerators

KNOWN = {
    1: F(1, 4),
    2: F(1, 32),
    3: F(1, 192),
    4: F(5, 6144),
    5: F(1, 7680),
    6: F(61, 2949120),
}


def test_closed_form_known_values():
    for n, v in KNOWN.items():
        assert favard_closed_form(n) == v
    assert favard_closed_form(0) == 1


def test_recurrence_seed_and_first_step():
    ks = favard_recurrence(3)
    assert ks[0] == 1 and ks[1] == F(1, 4)
    # one step by hand: K_2 = (1/16)(K_0 K_1 + K_1 K_0)
    assert ks[2] == F(1, 16) * (2 * F(1, 4)) == F(1, 32)
    assert ks[3] == F(1, 192)


def test_generating_coefficients():
    ks = favard_generating(6)
    assert ks[3] == F(1, 192)  # (1/3)(1/64) from the cubic tangent term
    assert ks[5] == F(1, 7680)  # 2 x^5 / 15 at x = t/4
    assert ks[2] == F(1, 32) and ks[4] == F(5, 6144)


def test_route_agreement_to_30():
    table = favard_table(30)
    assert table.all_routes_agree()
    assert set(table.entries) == set(range(31))
    for n, v in KNOWN.items():
        assert table.value(n) == v


def test_single_route_tables():
    for route in ROUTES:
        t = favard_table(8, route)
        assert t.value(5) == F(1, 7680)
        assert all(e.routes_agreeing == frozenset({route}) for e in t.entries.values())


def test_table_records_a_disagreeing_route(monkeypatch):
    # a route that is off at one order drops out of that entry only; the closed form keeps the value
    import favard.constants as constants

    def off_at_3(n_max):
        ks = favard_recurrence(n_max)
        ks[3] += 1
        return ks

    monkeypatch.setattr(constants, "favard_recurrence", off_at_3)
    table = favard_table(6)
    assert not table.all_routes_agree()
    assert table.entries[3].value == F(1, 192)
    assert table.entries[3].routes_agreeing == frozenset({"closed_form", "generating"})
    assert all(table.entries[n].routes_agreeing == frozenset(ROUTES) for n in (0, 1, 2, 4, 5, 6))


def test_table_rejects_bad_input():
    with pytest.raises(ValueError):
        favard_table(0)
    with pytest.raises(ValueError):
        favard_table(5, "fourier")


class TestSeriesNumeric:
    def test_n1_pi_over_2(self):
        sa = favard_series_numeric(1, 1e-10)
        assert abs(sa.value - math.pi / 2) <= 1e-10

    def test_n2_pi_sq_over_8(self):
        sa = favard_series_numeric(2, 1e-10)
        assert abs(sa.value - math.pi**2 / 8) <= 1e-10

    def test_n12_close_to_4_over_pi(self):
        sa = favard_series_numeric(12, 1e-8)
        assert abs(sa.value - 4 / math.pi) < 1e-5

    def test_tail_bound_honesty(self):
        for n in range(1, 11):
            sa = favard_series_numeric(n, 1e-9)
            exact = float(favard_closed_form(n)) * (2 * math.pi) ** n
            assert abs(sa.value - exact) <= sa.tail_bound + 1e-12

    def test_tail_meets_requested_tolerance(self):
        for rel in (1e-6, 1e-10):
            sa = favard_series_numeric(3, rel)
            assert sa.tail_bound <= rel * abs(sa.value)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            favard_series_numeric(0)
        with pytest.raises(ValueError):
            favard_series_numeric(2, -1.0)


def test_limit_convergence_rate():
    # K_n (2 pi)^n stays within (4/pi) * 1.2 * 3^-(n+1) of 4/pi from n = 4 on;
    # past n ~ 28 the bound drops under float resolution, hence the ulp slack
    for n in range(4, 31):
        value = float(favard_closed_form(n)) * (2 * math.pi) ** n
        assert abs(value - 4 / math.pi) <= (4 / math.pi) * 1.2 * 3.0 ** (-(n + 1)) + 1e-14


def test_derivative_inequality_random_suite():
    # smaller companion of the acceptance suite: admissible periodic functions
    # obey max|x| <= K_n sup|x^(n)| on a dense rational grid
    rng = random.Random(17)
    grid = [F(i, 64) for i in range(64)]
    for n in range(1, 6):
        K = favard_closed_form(n)
        for _ in range(50):
            cuts, vals = random_step_numerators(rng)
            w = StepFunction([F(k, 32) for k in cuts], [F(v, 8) for v in vals], 1).as_piecewise().zero_mean()
            sup_w = max(abs(p(F(0))) for p in w.pieces)
            if sup_w == 0:
                continue
            x = periodic_antiderivatives(w, n)
            pts = list(grid) + list(x.breakpoints[:-1])
            assert max_abs_in_unit(x, pts) <= K * sup_w
