"""Exact series arithmetic: ring laws, composition, reversion, radicals, branches."""

import math
import pickle
import random
from fractions import Fraction

import pytest
from reference import (
    plain_add,
    plain_derivative,
    plain_div,
    plain_integrate,
    plain_mul,
    plain_reversion,
    plain_scale,
    plain_shift_down,
    plain_sqrt_series,
    plain_truncate,
)

from linkcensus import abab, flype
from linkcensus import onematrix as om
from linkcensus import oracle as oc
from linkcensus.series import (
    AlgebraicSystem,
    BivariatePoly,
    Series,
    SeriesError,
    add,
    compose,
    derivative,
    div,
    integrate,
    log_series,
    mul,
    newton_solve,
    reversion,
    sqrt_series,
)

F = Fraction


def S(*coeffs):
    return Series.from_coeffs(coeffs)


def rand_series(rng, order, unit=False, zero_constant=False):
    coeffs = [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(order + 1)]
    if unit:
        coeffs[0] = F(rng.choice([1, -1, 2]))
    if zero_constant:
        coeffs[0] = F(0)
        coeffs[1] = F(rng.choice([1, -1, 2, -2]))
    return Series.from_coeffs(coeffs)


# -- ring arithmetic ---------------------------------------------------------


def test_polynomial_product():
    a = Series.from_coeffs([1, 1], 2)
    b = Series.from_coeffs([1, -1], 2)
    assert mul(a, b) == S(1, 0, -1)


def test_geometric_inverse():
    geo = div(Series.one(6), S(1, -1, 0, 0, 0, 0, 0))
    assert geo == Series.from_coeffs([1] * 7)


def test_long_division():
    q = div(S(1, 2, 9), S(1, 1, 0))
    assert q == S(1, 1, 8)


def test_truncation_to_smaller_order():
    a = Series.from_coeffs([1, 2, 3], 5)
    b = Series.from_coeffs([1, 1], 2)
    assert (a + b).order == 2
    assert mul(a, b).order == 2


def test_division_by_nonunit_rejected():
    with pytest.raises(SeriesError, match="zero constant term"):
        div(Series.one(3), Series.identity(3))


def test_ring_axioms_on_random_series():
    rng = random.Random(20260808)
    for _ in range(40):
        order = rng.randint(2, 12)
        a, b, c = (rand_series(rng, order) for _ in range(3))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_div_mul_round_trip():
    rng = random.Random(7)
    for _ in range(25):
        order = rng.randint(1, 10)
        a = rand_series(rng, order)
        b = rand_series(rng, order, unit=True)
        assert mul(div(a, b), b) == a


# -- fraction-free kernels against the plain Fraction kernels -----------------


def wild_series(rng, order, constant=None):
    """Signed coefficients over denominators up to 10^6, with runs of zeros."""
    coeffs = []
    while len(coeffs) < order + 1:
        if rng.random() < 0.2:
            coeffs.extend([0] * rng.randint(1, 5))
        else:
            coeffs.append(F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))
    if constant is not None:
        coeffs[0] = constant
    return Series.from_coeffs(coeffs[: order + 1])


def small_digit_reversible(rng, order):
    """A zero constant term, a nonzero linear term and single-digit rationals.

    Single digits because reversion grows the numbers fast, and the Fraction
    reference with them (1.5 s at order 40 on 10^6-sized inputs).
    """
    linear = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    tail = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order - 1)]
    return Series.from_coeffs([0, linear] + tail)


def assert_same(got, want):
    assert got.order == want.order
    assert got == want
    assert got.coeffs == want.coeffs
    assert (got.num, got.den, hash(got)) == (want.num, want.den, hash(want))


def test_kernels_match_reference_through_order_40():
    rng = random.Random(20261018)
    more = random.Random(20261019)  # inputs of the checks below the first four
    for order in range(41):
        other = max(0, order + rng.randint(-3, 3))  # unequal operand orders
        a = wild_series(rng, order)
        b = wild_series(rng, other)
        unit = wild_series(rng, other, constant=F(rng.randint(1, 10**6), rng.randint(1, 10**6)))
        square = F(rng.randint(1, 1000) ** 2, rng.randint(1, 1000) ** 2)
        s = wild_series(rng, order, constant=square)
        assert_same(mul(a, b), plain_mul(a, b))
        assert_same(mul(b, a), plain_mul(b, a))
        assert_same(div(a, unit), plain_div(a, unit))
        assert_same(sqrt_series(s), plain_sqrt_series(s))
        assert_same(add(a, b), plain_add(a, b))
        assert_same(a - b, plain_add(a, plain_scale(b, F(-1))))
        assert_same(-a, plain_scale(a, F(-1)))
        factor = F(more.choice([-1, 1]) * more.randint(1, 10**6), more.randint(1, 10**6))
        whole = more.choice([-1, 1]) * more.randint(1, 10**6)
        for f in (factor, whole, F(0), 0):
            assert_same(a * f, plain_scale(a, F(f)))
            assert_same(f * a, plain_scale(a, F(f)))
        for f in (factor, whole):
            assert_same(a / f, plain_scale(a, 1 / F(f)))
        cut = more.randint(0, order)
        assert_same(a.truncate(cut), plain_truncate(a, cut))
        low = Series.from_coeffs([0] * cut + list(a.coeffs[cut:]))
        assert_same(low.shift_down(cut), plain_shift_down(low, cut))
        assert_same(derivative(a), plain_derivative(a))
        assert_same(integrate(a), plain_integrate(a))
        if order >= 1:
            rev = small_digit_reversible(more, order)
            assert_same(reversion(rev), plain_reversion(rev))


@pytest.mark.parametrize("b0", [F(-3, 7), F(10**9), F(-1), F(7, 10**6), F(-10**9, 13)])
def test_div_matches_reference_with_nonunit_constant_terms(b0):
    rng = random.Random(str(b0))
    for order in (0, 1, 5, 17, 40):
        a = wild_series(rng, order)
        b = wild_series(rng, max(0, order + rng.randint(-1, 2)), constant=b0)
        assert_same(div(a, b), plain_div(a, b))
        assert_same(div(Series.one(order), b), plain_div(Series.one(order), b))


@pytest.mark.parametrize("c0", [F(9, 4), F(49, 1024), F(1), F(10**12, 9)])
def test_sqrt_matches_reference_with_rational_square_constants(c0):
    rng = random.Random(str(c0))
    for order in (0, 1, 2, 9, 25, 40):
        s = wild_series(rng, order, constant=c0)
        root = sqrt_series(s)
        assert_same(root, plain_sqrt_series(s))
        assert root.coeffs[0] ** 2 == c0 and root.coeffs[0] > 0


# -- the canonical (num, den) form ---------------------------------------------


def assert_canonical(s):
    assert s.den > 0 and math.gcd(s.den, *s.num) == 1
    assert len(s.num) == s.order + 1


def assert_identical(x, y):
    assert x == y
    assert (x.num, x.den) == (y.num, y.den)
    assert hash(x) == hash(y)


def test_equal_series_share_one_canonical_form():
    assert_identical(S(F(2, 4), 1), S(F(1, 2), 1))
    assert_identical(Series(("2/4", "3/6")), Series((F(1, 2), F(1, 2))))
    assert S(F(2, 4), 1).num == (1, 2) and S(F(2, 4), 1).den == 2
    assert S(0, 0, 0).den == 1 and S(F(6, 4)).num == (3,)
    rng = random.Random(1018)
    for _ in range(20):
        order = rng.randint(1, 12)
        a, b = wild_series(rng, order), wild_series(rng, order)
        unit = wild_series(rng, order, constant=F(rng.randint(1, 99), rng.randint(1, 99)))
        kernels = [add(a, b), a - b, -a, a * F(-3, 7), a / F(-3, 7), mul(a, b), div(a, unit),
                   derivative(a), integrate(a), a.truncate(order - 1), compose(a, b - b[0]),
                   sqrt_series(mul(unit, unit))]
        for kernel in kernels:
            assert_canonical(kernel)
            assert_identical(kernel - kernel, Series.zero(kernel.order))
        cut = rng.randint(0, order)
        assert_identical(mul(a, b).truncate(cut), mul(a.truncate(cut), b.truncate(cut)))
        assert_identical(div(mul(a, unit), unit), a)
        assert_identical(sqrt_series(mul(unit, unit)) ** 2, mul(unit, unit))


def test_coefficients_are_fractions_and_floats_refused():
    s = Series.from_coeffs([1, "1/2", F(-3, 7)], 4)
    assert s.coeffs == (1, F(1, 2), F(-3, 7), 0, 0)
    assert all(type(c) is Fraction for c in s.coeffs)
    assert all(type(c) is Fraction for c in mul(s, s).coeffs)
    assert s[1] == F(1, 2) and list(s) == list(s.coeffs)
    for bad in (lambda: Series((1, 0.5)), lambda: Series.from_coeffs([1.0]),
                lambda: Series.from_coeffs([1, 2, 0.5], 1), lambda: Series.constant(0.5, 3)):
        with pytest.raises(SeriesError, match="exact rationals, got float"):
            bad()
    with pytest.raises(SeriesError, match="constant term"):
        Series(())


def test_series_is_immutable_and_keeps_its_repr():
    s = S(1, F(1, 2))
    for name, value in (("num", (2, 1)), ("den", 1), ("var", "W"), ("coeffs", ())):
        with pytest.raises(AttributeError):
            setattr(s, name, value)
    with pytest.raises(AttributeError):
        del s.num
    assert repr(s) == "Series(coeffs=(Fraction(1, 1), Fraction(1, 2)))"
    with pytest.raises(AttributeError):  # unpickling would assign the fields
        pickle.loads(pickle.dumps(s))
    assert len({s, S(F(2, 2), F(2, 4)), S(1, F(1, 3))}) == 2


# -- composition and reversion ------------------------------------------------


def test_compose_identity_inner():
    outer = S(0, 1, 1)
    assert compose(outer, Series.identity(2)) == outer


def test_compose_substitution():
    outer = Series.from_coeffs([1, 1, 1], 2)  # 1/(1-y) truncated
    inner = Series.from_coeffs([0, 0, 1], 4)  # g^2
    assert compose(outer, inner) == Series.from_coeffs([1, 0, 1, 0, 1], 4)


def test_compose_requires_zero_constant():
    with pytest.raises(SeriesError, match="zero constant"):
        compose(Series.one(3), Series.one(3))


def test_reversion_identity():
    assert reversion(Series.identity(5)) == Series.identity(5)


def test_reversion_catalan():
    # inverse of g - g^2 starts the Catalan numbers
    r = reversion(S(0, 1, -1, 0, 0))
    assert r == S(0, 1, 1, 2, 5)


def test_reversion_round_trip_fixed():
    s = Series.from_coeffs([0, 1, 3, 1], 6)
    assert compose(s, reversion(s)) == Series.identity(6)


def test_reversion_round_trips_random():
    rng = random.Random(99)
    for _ in range(20):
        order = rng.randint(2, 12)
        s = rand_series(rng, order, zero_constant=True)
        r = reversion(s)
        assert compose(s, r) == Series.identity(order)
        assert compose(r, s) == Series.identity(order)
        assert reversion(r) == s


# with m = isqrt(n), reversion builds h^i for i <= m and (h^m)^j for j <= n // m:
# orders on each side of a square change m and the last giant step
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 24, 25, 26])
def test_reversion_matches_reference_on_each_side_of_a_square(order):
    rng = random.Random(order)
    for _ in range(5):
        s = small_digit_reversible(rng, order)
        assert_same(reversion(s), plain_reversion(s))


def _reversion_inputs(monkeypatch, module, run):
    """Every series that ``run()`` hands to ``module.reversion``."""
    seen = []

    def recording(s):
        seen.append(s)
        return reversion(s)

    monkeypatch.setattr(module, "reversion", recording)
    run()
    return seen


# the package's own reversions: the flype coupling g(W) at the order that
# flype-certify runs, and the t(g) inputs of the closed-form, oracle and
# two-color renormalizations at the largest orders the tests and the CLI
# reach
PACKAGE_REVERSIONS = {
    "flype-coupling-60": (flype, lambda: flype._flype_series(60)),
    "t-closed-form-10": (om, lambda: om.solve_unit_two_point(om.g2_raw_series(10))),
    "t-oracle-5": (om, lambda: om.solve_unit_two_point(oc.g2_series(5))),
    "t-two-color-5": (om, lambda: abab.renormalization(5)),
}


@pytest.mark.parametrize("name", PACKAGE_REVERSIONS)
def test_reversion_matches_reference_on_package_inputs(monkeypatch, name):
    inputs = _reversion_inputs(monkeypatch, *PACKAGE_REVERSIONS[name])
    assert inputs
    for s in inputs:
        assert_same(reversion(s), plain_reversion(s))


def test_reversion_round_trips_the_flype_coupling(monkeypatch):
    (s,) = _reversion_inputs(monkeypatch, *PACKAGE_REVERSIONS["flype-coupling-60"])
    assert s.order == 60
    r = reversion(s)
    assert compose(s, r) == Series.identity(60)
    assert compose(r, s) == Series.identity(60)
    assert reversion(r) == s


def test_reversion_preconditions():
    with pytest.raises(SeriesError):
        reversion(S(1, 1))
    with pytest.raises(SeriesError):
        reversion(S(0, 0, 1))


# -- radicals and transcendental helpers --------------------------------------


def test_sqrt_binomial():
    s = sqrt_series(Series.from_coeffs([1, -12], 3))
    assert s == S(1, -6, -18, -108)


def test_sqrt_of_one():
    assert sqrt_series(Series.one(4)) == Series.one(4)


def test_sqrt_squares_back():
    s = S(1, 1, 1)
    r = sqrt_series(s)
    assert mul(r, r) == s


def test_sqrt_random_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        order = rng.randint(1, 12)
        s = rand_series(rng, order)
        sq = mul(s, s)
        if sq.coeffs[0] == 0:
            continue
        r = sqrt_series(sq)
        assert mul(r, r) == sq


def test_sqrt_rejects_non_square():
    with pytest.raises(SeriesError, match="square"):
        sqrt_series(S(2, 1))
    with pytest.raises(SeriesError):
        sqrt_series(S(0, 1))


def test_log_and_derivative():
    # log(1/(1-g)) = g + g^2/2 + g^3/3 + ...
    geo = div(Series.one(5), S(1, -1, 0, 0, 0, 0))
    lg = log_series(geo)
    assert lg == Series.from_coeffs([0, 1, F(1, 2), F(1, 3), F(1, 4), F(1, 5)])
    assert derivative(integrate(geo)) == geo


def test_log_at_order_zero_claims_no_linear_term():
    lg = log_series(Series.from_coeffs([1], 0))
    assert lg == Series.zero(0) and lg.order == 0
    assert log_series(Series.from_coeffs([1, 3], 1)) == S(0, 3)


# -- algebraic branches --------------------------------------------------------


def test_newton_square_root_branch():
    system = AlgebraicSystem(
        BivariatePoly.from_dict({(0, 2): 1, (0, 0): -1, (1, 0): -1}), F(1)
    )  # y^2 = 1 + g
    sol = newton_solve(system, 2)
    assert sol == S(1, F(1, 2), F(-1, 8))
    assert sol == sqrt_series(S(1, 1, 0))


def test_newton_catalan_shift():
    # y = g (1 + y)^2
    system = AlgebraicSystem(
        BivariatePoly.from_dict({(0, 1): 1, (1, 0): -1, (1, 1): -2, (1, 2): -1}), F(0)
    )
    assert newton_solve(system, 3) == S(0, 1, 2, 5)


def test_newton_residual_is_checked():
    system = AlgebraicSystem(
        BivariatePoly.from_dict({(0, 3): 1, (0, 2): -9, (0, 1): 24, (0, 0): -16, (1, 0): -27}),
        F(1),
    )
    sol = newton_solve(system, 8)
    assert system.relation.eval_series(sol).is_zero()
    assert sol.coeffs[:5] == (F(1), F(3), F(6), F(21), F(90))


def test_singular_jacobian_is_refused():
    with pytest.raises(SeriesError, match="dP/dy"):
        AlgebraicSystem(BivariatePoly.from_dict({(0, 2): 1, (1, 0): -1}), F(0))


def test_branch_point_must_lie_on_curve():
    with pytest.raises(SeriesError, match="branch point"):
        AlgebraicSystem(BivariatePoly.from_dict({(0, 1): 1, (0, 0): -1}), F(0))


# -- JSON interface ------------------------------------------------------------


def test_json_schema_and_round_trip():
    s = Series.from_coeffs([F(1), F(1, 2), F(-3, 7)])
    data = s.to_json_dict()
    assert data == {"var": "g", "order": 2, "coeffs": ["1", "1/2", "-3/7"]}


def test_json_integer_rendering():
    assert Series.from_coeffs([2, 4]).to_json_dict()["coeffs"] == ["2", "4"]


def test_coefficients_beyond_order_are_refused():
    s = S(1, 2)
    with pytest.raises(SeriesError):
        s[5]
