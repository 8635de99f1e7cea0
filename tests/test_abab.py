"""Two-color endpoints: critical constants and oracle-driven series."""

import math
from fractions import Fraction

import pytest

from linkcensus import abab, oracle
from linkcensus.series import derivative

F = Fraction


def test_critical_constants_closed_forms():
    cc = abab.critical_constants()
    assert cc.g_critical == pytest.approx(math.pi * (math.pi - 4) ** 2 / 16, abs=1e-15)
    assert cc.t_critical == pytest.approx(math.pi / 2 * (4 - math.pi), abs=1e-15)
    assert cc.growth == pytest.approx(16 / (math.pi * (math.pi - 4) ** 2), abs=1e-12)


def test_coupling_identity_to_twelve_digits():
    cc = abab.critical_constants()
    assert cc.g_critical / cc.t_critical**2 == pytest.approx(1 / (4 * math.pi), abs=1e-12)


def test_growth_matches_printed_value():
    assert abab.critical_constants().growth == pytest.approx(6.91167, abs=1e-3)


def test_two_color_growth_exceeds_single_color():
    assert abab.critical_constants().growth > 6.75


def test_raw_series_first_coefficient():
    series = abab.two_color_series(3)
    assert series[1] == 1


def test_raw_series_matches_loop_polynomials_at_two():
    series = abab.two_color_series(4)
    polys = oracle.free_energy_polynomials(4)
    for V in range(1, 5):
        expected = sum((c * F(2) ** k for k, c in polys[V].items()), F(0))
        assert series[V] == expected


def test_marked_vertex_identity_against_direct_enumeration():
    # four times the derivative of the raw count is the color-summed
    # four-point series; check it against the enumerator head-on
    raw = abab.two_color_series(4)
    direct = oracle.g4_series(3, n=2, color_boundary=True)
    assert 4 * derivative(raw) == direct


def test_renormalization_head():
    assert abab.renormalization(4).coeffs == (1, 2, 2, 2, 8)


def test_reduced_series_head():
    series = abab.two_color_series(5, reduced=True)
    assert series.coeffs == (0, 1, F(1, 2), F(1, 3), 1, F(16, 5))


def test_reduced_growth_estimate_brackets_expected_value():
    estimate = abab.reduced_growth_estimate(5)
    assert 6.0 < estimate < 8.0

