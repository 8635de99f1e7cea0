"""Closed forms of the quartic model, raw and renormalized, plus spectral data."""

import math
from fractions import Fraction

import pytest
from reference import g2_scaled_series

from linkcensus import onematrix as om
from linkcensus import oracle as oc
from linkcensus.series import Series, compose, derivative, mul

F = Fraction


# -- raw series ----------------------------------------------------------------


def test_endpoint_series_is_three_to_k_catalan():
    assert om.a2_raw_series(5).coeffs == (1, 3, 18, 135, 1134, 10206)


def test_raw_endpoint_relation_annihilates_the_series():
    assert om.raw_endpoint().relation.eval_series(om.a2_raw_series(30)).is_zero()


def test_two_point_series():
    assert om.g2_raw_series(5).coeffs == (1, 2, 9, 54, 378, 2916)


def test_four_point_series():
    assert om.g4_raw_series(5).coeffs == (2, 9, 54, 378, 2916, 24057)


def test_connected_four_point_series():
    assert om.gamma_raw_series(5).coeffs == (0, 1, 10, 90, 810, 7425)


def test_free_energy_series():
    assert om.free_energy_raw_series(5).coeffs == (
        0, F(1, 2), F(9, 8), F(9, 2), F(189, 8), F(729, 5))


def test_genus_free_energy_series():
    assert om.free_energy_genus1_series(5).coeffs == (
        0, F(1, 4), F(15, 8), F(33, 2), F(2511, 16), F(15633, 10))
    # genus 2 needs three vertices
    assert om.free_energy_genus2_series(5).coeffs == (
        0, 0, 0, F(15, 4), F(2007, 16), F(28323, 10))


def test_gamma_and_free_energy_vanish_at_zero():
    assert om.gamma_raw_series(4)[0] == 0
    assert om.free_energy_raw_series(4)[0] == 0


def test_four_point_from_resolvent_moments():
    # independent closed form for the fourth moment: 2 (a^2)^3 - 9 g (a^2)^4
    order = 8
    a2 = om.a2_raw_series(order)
    g = Series.identity(order)
    direct = 2 * a2**3 - 9 * mul(g, a2**4)
    assert om.g4_raw_series(order) == direct


def test_two_point_dyson_identity():
    # a two-point diagram is bare or opens into a four-point one: G2 = 1 + g G4
    order = 9
    g = Series.identity(order)
    assert om.g2_raw_series(order) == 1 + mul(g, om.g4_raw_series(order))


def test_free_energy_derivative_is_quarter_g4():
    order = 9
    assert derivative(om.free_energy_raw_series(order)) == om.g4_raw_series(order - 1) / 4


# -- renormalized series ---------------------------------------------------------


def test_reduced_endpoint_series():
    assert om.a2_reduced_series(4).coeffs == (1, 3, 6, 21, 90)


def test_renormalization_series():
    assert om.t_series(4).coeffs == (1, 2, 1, 2, 6)


def test_reduced_tangle_series():
    assert om.gamma_reduced_series(6).coeffs == (0, 1, 2, 6, 22, 91, 408)


def test_reduced_free_energy_series():
    assert om.free_energy_reduced_series(6).coeffs == (
        0, F(1, 2), F(1, 8), F(1, 6), F(3, 8), F(11, 10), F(91, 24))


def test_unit_two_point_constraint_holds_to_order_ten():
    order = 10
    t = om.t_series(order)
    reduced_g2 = om.substitute_renormalized(om.g2_raw_series(order), t, legs=2)
    assert reduced_g2 == Series.one(order)


def test_renormalization_recovered_from_raw_two_point():
    order = 10
    assert om.solve_unit_two_point(om.g2_raw_series(order)) == om.t_series(order)


RAW_TWO_POINT = {
    "t=2/3": lambda: g2_scaled_series(F(2, 3), 8),
    "t=2": lambda: g2_scaled_series(F(2), 8),
    "oracle-n=2": lambda: oc.g2_series(5, n=2),
    "oracle-n=1/2": lambda: oc.g2_series(4, n=F(1, 2)),
    "order-0": lambda: om.g2_raw_series(0),
    "order-1": lambda: om.g2_raw_series(1),
}


@pytest.mark.parametrize("name", RAW_TWO_POINT)
def test_solved_renormalization_gives_unit_two_point(name):
    g2 = RAW_TWO_POINT[name]()
    t = om.solve_unit_two_point(g2)
    assert om.substitute_renormalized(g2, t, legs=2) == Series.one(g2.order)


@pytest.mark.parametrize("t", [F(2, 3), F(1), F(5, 4), F(2)])
def test_scaling_property_of_two_point(t):
    order = 10
    lhs = g2_scaled_series(t, order)
    inner = Series.identity(order) * (1 / t**2)
    rhs = compose(om.g2_raw_series(order), inner) * (1 / t)
    assert lhs == rhs


def test_reduced_tangles_by_scaling_substitution():
    # independent route: renormalize the raw four-point data directly
    order = 8
    t = om.t_series(order)
    via_substitution = om.substitute_renormalized(om.gamma_raw_series(order), t, legs=4)
    assert via_substitution == om.gamma_reduced_series(order)


def test_reduced_free_energy_integrates_reduced_four_point():
    order = 8
    assert derivative(om.free_energy_reduced_series(order)) == (
        om.g4_reduced_series(order - 1) / 4)


# -- numeric evaluation -----------------------------------------------------------


def test_endpoint_values():
    assert om.a2_raw(0.0) == 1.0
    assert om.a2_raw(1 / 12) == pytest.approx(2.0, abs=1e-12)


def test_raw_domain_error():
    with pytest.raises(om.SingularityError):
        om.a2_raw(0.09)
    with pytest.raises(om.SingularityError):
        om.g2_raw(-0.01)


def test_reduced_domain_error():
    with pytest.raises(om.SingularityError):
        om.a2_reduced(0.1482)


def test_reduced_numeric_branch():
    assert om.a2_reduced(0.0) == pytest.approx(1.0, abs=1e-14)
    # the defining equation flattens at the endpoint; sqrt(eps) accuracy there
    assert om.a2_reduced(4 / 27) == pytest.approx(2.0, abs=1e-6)
    assert om.a2_reduced(0.1) == pytest.approx(om.a2_reduced(0.1 + 1e-12), abs=1e-9)


@pytest.mark.parametrize("g", [0.0, 0.01, 0.03])
def test_numeric_matches_series_tail(g):
    order = 40
    partial = sum(float(c) * g**k for k, c in enumerate(om.gamma_raw_series(order).coeffs))
    assert om.gamma_raw(g) == pytest.approx(partial, rel=1e-10, abs=1e-12)


def test_wigner_semicircle_at_zero_coupling():
    for lam in (-1.5, 0.0, 0.3, 1.9):
        assert om.density(0.0, lam) == pytest.approx(
            math.sqrt(4 - lam**2) / (2 * math.pi), abs=1e-14)


def test_density_outside_support_rejected():
    with pytest.raises(om.SingularityError, match="support"):
        om.density(0.05, 3.0)


def test_density_normalization_and_moments():
    g = 1 / 20
    assert om.density_moment(g, 0) == pytest.approx(1.0, abs=1e-9)
    assert om.density_moment(g, 2) == pytest.approx(om.g2_raw(g), abs=1e-9)
    assert om.density_moment(g, 4) == pytest.approx(om.g4_raw(g), abs=1e-9)


def test_density_nonnegative_on_support():
    for i in range(20):
        g = 0.08 * i / 19
        a = math.sqrt(om.a2_raw(g))
        for j in range(21):
            lam = -2 * a + 4 * a * j / 20
            assert om.density(g, lam) >= -1e-15


def test_resolvent_decays_like_inverse_lambda():
    g = 0.05
    for lam in (50.0, 200.0, -120.0, 80j + 3):
        value = om.resolvent(g, lam)
        assert abs(lam * value - 1.0) < 5.0 / abs(lam) ** 2 * 10


def test_resolvent_imaginary_part_matches_density():
    g = 0.06
    lam = 0.7
    w = om.resolvent(g, lam + 1e-9j)
    assert -w.imag / math.pi == pytest.approx(om.density(g, lam), abs=1e-5)


@pytest.mark.parametrize("k", range(21))
def test_density_moments_at_zero_coupling_are_catalan(k):
    # the semicircle's even moments are Catalan numbers, its odd moments vanish
    expected = math.comb(k, k // 2) // (k // 2 + 1) if k % 2 == 0 else 0
    scale = math.comb(k + 1, (k + 1) // 2) // ((k + 1) // 2 + 1)
    assert om.density_moment(0.0, k) == pytest.approx(expected, rel=1e-12, abs=1e-12 * scale)


@pytest.mark.parametrize("k", [-1, 2.0, "2", None])
def test_density_moment_rejects_bad_order(k):
    with pytest.raises(ValueError, match="nonnegative int"):
        om.density_moment(0.05, k)


def test_numeric_reduced_free_energy_matches_series():
    series = om.free_energy_reduced_series(30)
    for g in (0.01, 0.03, 0.06):
        partial = sum(float(c) * g**k for k, c in enumerate(series.coeffs))
        assert om.free_energy_reduced(g) == pytest.approx(partial, abs=1e-10)


def test_numeric_reduced_free_energy_derivative_is_four_point_over_four():
    h = 1e-6
    for i in range(1, 10):
        g = float(om.REDUCED_CRITICAL_G) * i / 10
        slope = (om.free_energy_reduced(g + h) - om.free_energy_reduced(g - h)) / (2 * h)
        assert slope == pytest.approx((om.gamma_reduced(g) + 2) / 4, abs=1e-8)


def test_numeric_reduced_free_energy_endpoints():
    assert om.free_energy_reduced(0.0) == 0.0
    # at u = 2 the closed form is log(3/2)/2 - 1/8 and is flat in u
    assert om.free_energy_reduced(4 / 27) == pytest.approx(math.log(1.5) / 2 - 1 / 8, abs=1e-12)
