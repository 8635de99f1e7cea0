"""Skeleton calculus, the flype fixed point, its quintic, and the singularity."""

import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from reference import (
    ascending,
    discriminant_root_sympy,
    discriminant_sympy,
    quintic_sympy,
    square_free_sympy,
    sympy_in_g,
)

from linkcensus import flype
from linkcensus import onematrix as om
from linkcensus.series import BivariatePoly, Series, SeriesError, compose, reversion

F = Fraction


# -- the 2PI <-> full tangle dictionary -----------------------------------------


def test_d_of_gamma_at_zero():
    assert flype.d_of_gamma(Series.zero(4)).is_zero()


def test_d_of_gamma_of_plain_variable():
    assert flype.d_of_gamma(Series.identity(4)).coeffs == (0, 1, -2, 2, -2)


def test_skeleton_series_at_zero():
    assert flype.skeleton_series(Series.zero(4)).is_zero()


def test_skeleton_series_is_schroeder_like():
    assert flype.skeleton_series(Series.identity(6)).coeffs == (0, 1, 2, 6, 22, 90, 394)


def test_round_trip_fixed_series():
    gamma = Series.from_coeffs([0, 1, 2, 6], 6)
    assert flype.skeleton_series(flype.d_of_gamma(gamma)) == gamma


def test_round_trip_random_series():
    rng = random.Random(424242)
    for _ in range(15):
        order = rng.randint(2, 10)
        coeffs = [0, 1] + [rng.randint(-3, 3) for _ in range(order - 1)]
        gamma = Series.from_coeffs(coeffs, order)
        assert flype.skeleton_series(flype.d_of_gamma(gamma)) == gamma
        d = flype.d_of_gamma(gamma)
        assert flype.d_of_gamma(flype.skeleton_series(d)) == d


def test_zero_constant_term_is_required():
    with pytest.raises(SeriesError):
        flype.d_of_gamma(Series.one(3))
    with pytest.raises(SeriesError):
        flype.skeleton_series(Series.one(3))
    with pytest.raises(SeriesError):
        flype.zeta_of_gamma(Series.one(3))


def test_skeletons_by_composition_match_closed_form():
    # composing the tangle series with the inverse of the 2PI series must
    # reproduce the closed skeleton form evaluated on the slot variable
    order = 6
    gamma = om.gamma_reduced_series(order)
    d = flype.d_of_gamma(gamma)
    skeletons = compose(gamma, reversion(d))
    assert skeletons == flype.skeleton_series(Series.identity(order))


# -- the 2PI skeleton series ------------------------------------------------------


def test_zeta_vanishes_at_zero():
    assert flype.zeta_of_gamma(Series.zero(6)).is_zero()


def test_zeta_starts_at_order_five_on_the_counting_branch():
    zeta = flype.zeta_of_gamma(om.gamma_reduced_series(8))
    assert zeta.coeffs[:5] == (0, 0, 0, 0, 0)
    assert zeta.coeffs[5:] == (1, 10, 74, 492)


def test_zeta_equals_twopi_minus_crossing():
    order = 8
    gamma = om.gamma_reduced_series(order)
    lhs = flype.zeta_of_gamma(gamma)
    rhs = flype.d_of_gamma(gamma) - Series.identity(order)
    assert lhs == rhs


# -- the flype fixed point ---------------------------------------------------------


def test_gamma_tilde_low_orders():
    assert flype.gamma_tilde(5).coeffs == (0, 1, 2, 4, 10, 29)


def test_gamma_tilde_agrees_with_tangles_through_order_two():
    gt = flype.gamma_tilde(12)
    gamma = om.gamma_reduced_series(12)
    assert gt.coeffs[:3] == gamma.coeffs[:3]
    assert gt.coeffs[3] < gamma.coeffs[3]


def test_gamma_tilde_counts_are_positive_integers():
    gt = flype.gamma_tilde(12)
    for c in gt.coeffs[1:]:
        assert c.denominator == 1
        assert c > 0


def test_gamma_tilde_never_exceeds_tangle_counts():
    gt = flype.gamma_tilde(12)
    gamma = om.gamma_reduced_series(12)
    assert all(gt.coeffs[p] <= gamma.coeffs[p] for p in range(13))
    first_strict = next(p for p in range(13) if gt.coeffs[p] < gamma.coeffs[p])
    assert first_strict == 3


def test_gamma_tilde_refuses_an_inverse_that_misses_the_flype_equation(monkeypatch):
    def moved_reversion(s):
        r = reversion(s)
        return r + Series.from_coeffs([0] * 7 + [1], r.order)

    monkeypatch.setattr(flype, "reversion", moved_reversion)
    with pytest.raises(flype.BranchMismatchError, match="does not solve the flype equation"):
        flype.gamma_tilde(10)


def test_coupling_at_the_zeta_branch_point_is_the_critical_coupling():
    # At W = 1/4, where zeta's (1 - 4W)^{3/2} radical vanishes, the squared
    # flype equation g^2 + c g + z - W (1 - W)/(1 + W) = 0 has rational
    # coefficients; its root is the critical coupling, reached without the
    # quintic or its discriminant.
    w = F(1, 4)
    z = -2 / (1 + w) + 2 - w - (1 + 10 * w - 2 * w**2) / (2 * (w + 2) ** 3)
    c = 1 - w - z
    radicand = c * c - 4 * z + 4 * w * (1 - w) / (1 + w)
    assert (z, c, radicand) == (F(1, 540), F(101, 135), F(21001, 135**2))
    quadratic = (z - w * (1 - w) / (1 + w), c, 1)
    assert tuple(135 * k for k in quadratic) == (-20, 101, 135)
    g = (math.sqrt(radicand) - c) / 2
    assert g == pytest.approx((math.sqrt(21001) - 101) / 270, abs=1e-15)


def test_quintic_shape():
    quintic = flype.flype_quintic()
    assert quintic.degree_y() == 5
    assert quintic.degree_x() == 4


def test_quintic_equals_the_sympy_elimination():
    assert flype.flype_quintic() == quintic_sympy(flype._flype_series(12))


def test_quintic_annihilates_the_series():
    gt = flype.gamma_tilde(12)
    assert flype.flype_quintic().eval_series(gt).is_zero()


def test_skeleton_functions_invariants():
    gamma = om.gamma_reduced_series(8)
    d_2pi = flype.d_of_gamma(gamma)
    zeta = flype.zeta_of_gamma(gamma)
    for series in (gamma, flype.gamma_tilde(8)):
        assert series.coeffs[:3] == (0, 1, 2)
    assert d_2pi.coeffs[:2] == (0, 1)
    assert zeta.valuation() >= 2
    assert d_2pi == Series.identity(8) + zeta
    assert d_2pi == flype.d_of_gamma(gamma)


# -- singularity --------------------------------------------------------------------


def test_discriminant_root_matches_quadratic_minimal_polynomial():
    sing = flype.flype_singularity()
    assert sing.minimal_polynomial == (-20, 101, 135)
    expected = (math.sqrt(21001) - 101) / 270
    assert sing.g_critical == pytest.approx(expected, abs=1e-12)


def test_growth_constant():
    sing = flype.flype_singularity()
    expected = (101 + math.sqrt(21001)) / 40
    assert sing.growth == pytest.approx(expected, abs=1e-10)
    assert abs(sing.growth - 6.14793) < 1e-5


def test_fold_tracking_agreement():
    sing = flype.flype_singularity()
    assert sing.agreement <= 1e-10


def test_flype_growth_is_smaller_than_diagram_growth():
    assert flype.flype_singularity().growth < 6.75


@pytest.mark.parametrize("system, g_c, minpoly", [
    (om.raw_endpoint(), om.RAW_CRITICAL_G, (-1, 12)),
    (om.reduced_cubic(), om.REDUCED_CRITICAL_G, (-4, 27)),
])
def test_certified_endpoint_roots_are_the_domain_constants(system, g_c, minpoly):
    root, found = flype.discriminant_root(system.relation)
    assert root == (g_c, g_c)
    assert found == minpoly


def test_discriminant_root_of_a_hand_made_relation():
    # y^2 - y + g: discriminant 1 - 4 g
    relation = BivariatePoly.from_dict({(0, 2): 1, (0, 1): -1, (1, 0): 1})
    root, minpoly = flype.discriminant_root(relation)
    assert root == (F(1, 4), F(1, 4))
    assert minpoly == (-1, 4)


def test_flype_discriminant_root_is_bracketed_to_1e_30():
    (lo, hi), minpoly = flype.discriminant_root(flype.flype_quintic())
    assert minpoly == (-20, 101, 135)
    assert isinstance(lo, F) and isinstance(hi, F)
    assert 0 < hi - lo <= F(1, 10**30)

    def value(g):
        return 135 * g * g + 101 * g - 20

    assert value(lo) < 0 < value(hi)


def test_discriminant_root_refuses_a_discriminant_without_positive_root():
    # y^2 + g + 1: discriminant -4 (g + 1), whose only root is -1
    relation = BivariatePoly.from_dict({(0, 2): 1, (1, 0): 1, (0, 0): 1})
    with pytest.raises(flype.BranchMismatchError, match="no positive real root"):
        flype.discriminant_root(relation)


def test_discriminant_root_does_not_take_zero_for_positive():
    # y^2 - g^2: discriminant 4 g^2, whose only root 0 is isolated as the interval (0, 0)
    relation = BivariatePoly.from_dict({(0, 2): 1, (2, 0): -1})
    with pytest.raises(flype.BranchMismatchError, match="no positive real root"):
        flype.discriminant_root(relation)


def test_discriminant_root_refuses_a_relation_free_of_y():
    # g^2 - 1: the discriminant in y is zero, as in sympy
    relation = BivariatePoly.from_dict({(2, 0): 1, (0, 0): -1})
    assert flype._discriminant(relation) == []
    with pytest.raises(flype.BranchMismatchError, match="no positive real root"):
        flype.discriminant_root(relation)


def test_discriminant_coefficients_are_integers():
    coeffs = flype.flype_discriminant()
    assert all(isinstance(c, int) for c in coeffs)
    assert any(c != 0 for c in coeffs)


def test_fold_tracking_refuses_a_seed_off_the_counting_branch():
    quintic = flype.flype_quintic()
    with pytest.raises(flype.BranchMismatchError, match="lost the counting branch"):
        flype._fold_by_tracking(quintic, Series.zero(10))
    moved = flype.gamma_tilde(10) + F(1, 100)
    with pytest.raises(flype.BranchMismatchError, match="lost the counting branch"):
        flype._fold_by_tracking(quintic, moved)


def test_singularity_refuses_a_fold_that_misses_the_discriminant_root(monkeypatch):
    g_c = (math.sqrt(21001) - 101) / 270
    monkeypatch.setattr(flype, "_fold_by_tracking", lambda quintic, seed: g_c + 1e-9)
    with pytest.raises(flype.BranchMismatchError, match="differ by"):
        flype.flype_singularity()


def test_discriminant_root_of_an_irreducible_cubic():
    # y^2 - (g^3 - 2): discriminant 4 (g^3 - 2)
    relation = BivariatePoly.from_dict({(0, 2): 1, (3, 0): -1, (0, 0): 2})
    (lo, hi), minpoly = flype.discriminant_root(relation)
    assert minpoly == (-2, 0, 0, 1)
    assert 0 < hi - lo <= F(1, 10**30)
    assert lo**3 < 2 < hi**3


def test_discriminant_root_splits_off_a_rational_root_of_its_owner():
    # y^2 - (2g - 3)(g^2 - 2): one square-free part holds 3/2 and sqrt(2)
    relation = BivariatePoly.from_dict({(0, 2): 1, (3, 0): -2, (2, 0): 3, (1, 0): 4, (0, 0): -6})
    assert flype._square_free_parts(flype._discriminant(relation)) == [([6, -4, -3, 2], 1)]
    (lo, hi), minpoly = flype.discriminant_root(relation)
    assert minpoly == (-2, 0, 1)
    assert 0 < hi - lo <= F(1, 10**30)
    assert lo * lo < 2 < hi * hi


def test_a_rational_root_off_the_dyadic_grid_is_exact():
    # y^2 - (27g - 4)(g^2 - 2): 4/27 shares its square-free part with sqrt(2)
    relation = BivariatePoly.from_dict({(0, 2): 1, (3, 0): -27, (2, 0): 4, (1, 0): 54, (0, 0): -8})
    assert flype.discriminant_root(relation) == ((F(4, 27), F(4, 27)), (-4, 27))


def test_discriminant_root_refuses_a_quartic_minimal_polynomial():
    # y^2 + g^4 - 2: discriminant -4 (g^4 - 2), irreducible over the rationals
    relation = BivariatePoly.from_dict({(0, 2): 1, (4, 0): 1, (0, 0): -2})
    with pytest.raises(flype.BranchMismatchError, match="quartic"):
        flype.discriminant_root(relation)


# -- the integer certificate against sympy ------------------------------------------


def _matches_sympy(relation) -> bool:
    """Compare each stage of `discriminant_root` with sympy; True if a root was certified.

    The discriminant must equal sympy's, and so must its square-free parts.
    Where sympy finds a smallest positive root, the certified bracket must
    lie inside sympy's isolating interval (refined to 1e-12) and the minimal
    polynomial must be sympy's irreducible factor with that root; unless the
    root is irrational and its square-free part keeps degree 4 or more after
    its rational roots are split off, which must be refused.
    """
    disc = flype._discriminant(relation)
    assert tuple(disc) == ascending(discriminant_sympy(relation))
    parts = flype._square_free_parts(disc)
    assert {(tuple(part), k) for part, k in parts} == square_free_sympy(disc)
    reference = discriminant_root_sympy(relation, F(1, 10**12))
    if reference is None:
        with pytest.raises(flype.BranchMismatchError, match="no positive real root"):
            flype.discriminant_root(relation)
        return False
    (lo, hi), factor, owner = reference
    irrational_degree = sum(f.degree() for f, _ in sympy_in_g(owner).factor_list()[1]
                            if f.degree() > 1)
    if lo < hi and irrational_degree > 3:
        with pytest.raises(flype.BranchMismatchError, match="certified up to degree 3"):
            flype.discriminant_root(relation)
        return False
    (a, b), minpoly = flype.discriminant_root(relation)
    assert minpoly == factor
    assert lo <= a <= b <= hi
    assert (a == b) == (lo == hi)
    assert b - a <= F(1, 10**30)
    return True


@pytest.mark.parametrize("relation", [
    om.raw_endpoint().relation,
    om.reduced_cubic().relation,
    flype.flype_quintic(),
    BivariatePoly.from_dict({(0, 2): 1, (0, 1): -1, (1, 0): 1}),
], ids=["raw", "reduced", "flype", "hand-made"])
def test_discriminant_certificate_matches_sympy(relation):
    assert _matches_sympy(relation)


def _random_relation(rng):
    """y-degree 2..5, g-degree at most 3; half carry a factor linear in y."""
    n, deg_g = rng.randint(2, 5), rng.choice((1, 1, 2, 3))
    split = rng.random() < 0.5
    base_n, base_g = (n - 1, deg_g - 1) if split else (n, deg_g)
    terms = {(i, j): rng.choice((0, 0, rng.randint(-4, 4)))
             for j in range(base_n) for i in range(base_g + 1)}
    terms[(rng.randint(0, base_g), base_n)] = rng.choice((-3, -2, -1, 1, 2, 3))
    if split:  # times y + b + c g, which squares a resultant into the discriminant
        factor = {(0, 1): 1, (0, 0): rng.randint(-3, 3), (1, 0): rng.randint(-2, 2)}
        product = {}
        for (i, j), c in terms.items():
            for (k, m), d in factor.items():
                product[i + k, j + m] = product.get((i + k, j + m), 0) + c * d
        terms = product
    return BivariatePoly.from_dict(terms)


def test_discriminant_certificate_matches_sympy_on_random_relations():
    rng = random.Random(11)
    certified = sum(_matches_sympy(_random_relation(rng)) for _ in range(450))
    assert certified >= 100


def test_square_free_parts_match_sympy_on_repeated_roots():
    rng = random.Random(21)
    points = [F(n, d) for n in range(-6, 7) for d in (1, 2, 3)]
    for _ in range(100):
        coeffs = _from_roots(rng.choice(points) for _ in range(rng.randint(1, 8)))
        coeffs = [rng.choice((-2, 1, 3)) * c for c in coeffs]
        parts = flype._square_free_parts(coeffs)
        assert {(tuple(part), k) for part, k in parts} == square_free_sympy(coeffs)


# -- exact real-root counts ----------------------------------------------------------


def _sympy_count(coeffs, lo, hi):
    """The reference: sympy's Sturm count of distinct roots in [lo, hi]."""
    x = sp.Symbol("x")
    return int(sp.Poly(list(reversed(coeffs)), x, domain=sp.QQ).count_roots(lo, hi))


def _from_roots(roots):
    """Integer coefficients, ascending, of prod (d x - n) over the roots n/d."""
    coeffs = [1]
    for root in roots:
        root = F(root)
        n, d = root.numerator, root.denominator
        shifted = [0] + coeffs
        coeffs = [d * s - n * c for s, c in zip(shifted, coeffs + [0])]
    return coeffs


def test_sturm_counts_match_sympy_wherever_the_tracker_counts(monkeypatch):
    calls = []

    def recording(coeffs, lo, hi):
        count = count_real_roots(coeffs, lo, hi)
        calls.append((coeffs, lo, hi, count))
        return count

    count_real_roots = flype._count_real_roots
    monkeypatch.setattr(flype, "_count_real_roots", recording)
    flype._fold_by_tracking(flype.flype_quintic(), flype.gamma_tilde(10))
    window = [call for call in calls if call[1:3] == (F(1, 20), F(9, 20))]
    # the seed window, then the scan points 3/25 + k/200 and the dyadic bisection
    assert len(window) == len(calls) - 1 >= 40
    assert {count for *_, count in window} == {0, 2}
    for coeffs, lo, hi, count in calls:
        assert len(coeffs) == 6
        assert count == _sympy_count(coeffs, lo, hi)


@pytest.mark.parametrize("roots, lo, hi", [
    ([F(1, 3), 2, -5], F(1, 3), 1),           # a root at lo
    ([F(1, 3), 2, -5], 0, F(1, 3)),           # a root at hi
    ([F(1, 3), 2, -5], F(1, 3), F(1, 3)),     # a degenerate interval on a root
    ([F(1, 3), 2, -5], -5, 2),                # roots at both ends
    ([F(1, 3), 2, -5], F(1, 2), F(3, 2)),     # no root inside
    ([1, 1, 3, -2], 0, 2),                    # a double root inside
    ([1, 1, 3, -2], 1, 3),                    # a double root at lo, a simple one at hi
    ([-1, -1, 1, 2, 3], -1, 0),               # a double root at lo, below every other
    ([-1, -1, 1, 2, 3], -2, -1),              # a double root at hi
    ([F(1, 2)] * 3 + [F(5, 7)] * 2, 0, 1),    # two repeated roots
    ([F(1, 2)] * 3 + [F(5, 7)] * 2, F(1, 2), F(5, 7)),
    ([0, 0, 4], 0, 0),
])
def test_sturm_counts_at_endpoint_and_repeated_roots(roots, lo, hi):
    coeffs = _from_roots(roots)
    lo, hi = F(lo), F(hi)
    distinct = sum(lo <= root <= hi for root in set(map(F, roots)))
    assert flype._count_real_roots(coeffs, lo, hi) == distinct == _sympy_count(coeffs, lo, hi)


def test_sturm_counts_match_sympy_on_random_polynomials():
    rng = random.Random(20)
    points = [F(n, d) for n in range(-6, 7) for d in (1, 2, 3)]
    for _ in range(150):
        if rng.random() < 0.5:
            # rational roots, some repeated, some at the interval ends
            coeffs = _from_roots(rng.choice(points) for _ in range(rng.randint(1, 6)))
        else:
            # sparse, either sign leading: remainders that drop several degrees
            coeffs = [rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(rng.randint(2, 7))]
            coeffs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
        lo, hi = sorted(rng.sample(points, 2))
        assert flype._count_real_roots(coeffs, lo, hi) == _sympy_count(coeffs, lo, hi)
