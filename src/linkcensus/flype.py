"""Skeleton calculus for tangles and the flype-equivalence correction.

A connected tangle decomposes uniquely into two-particle-irreducible (2PI)
pieces plugged into the slots of a fully two-particle-reducible skeleton.
Writing ``gamma`` for the renormalized tangle series and ``d`` for the 2PI
tangle series, the two directions of that decomposition are closed forms:

* ``d = gamma (1 - gamma) / (1 + gamma)``
* skeletons over a slot series x:  ``(1 - x - sqrt((1 - x)^2 - 4 x)) / 2``

and the matrix-model solution supplies ``zeta[gamma]``, the series of
nontrivial fully-2PI skeletons (``d = g + zeta``), as an explicit algebraic
expression in ``gamma`` alone.

Modding out flype moves changes only the reducible skeleton layer.  The
corrected skeleton generating function leads to the fixed-point equation

    W(g) = (1/2) [ (1 + g - zeta[W]) - sqrt((1 - g + zeta[W])^2
                                            - 8 zeta[W] - 8 g^2/(1 - g)) ]

whose solution counts flype-equivalence classes of tangles.  This module
computes that series two independent ways — inverting the squared equation,
a quadratic in g with an explicit root series in W, and Newton-expanding the
branch of a single quintic relation obtained by eliminating the radicals
with exact resultants — and it refuses to answer if the two disagree.  The
dominant singularity is then certified algebraically from the discriminant
of the quintic, as a rational interval of width at most 1e-30 around the
root of an exact minimal polynomial, and confirmed by tracking the branch to
its fold, where exact real-root counts of the quintic at rational points
locate the collision of the branch with its partner root.

The discriminant certifier, `discriminant_root`, takes any polynomial
relation; `linkcensus.census` certifies the raw and reduced growth constants
with it too, so this is the one module that imports sympy.  It uses sympy
only at the ``Poly`` level, for resultants, discriminants, factorization and
real-root isolation over ZZ; the real-root counts of the fold tracking are
fraction-free Sturm sequences on Python integers.  No sympy expression is
built, so sympy's lazily imported expression machinery is never loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import sympy as sp

from .series import (
    AlgebraicSystem,
    BivariatePoly,
    Series,
    SeriesError,
    div,
    mul,
    newton_solve,
    reversion,
    sqrt_series,
)

__all__ = [
    "BranchMismatchError",
    "FlypeSingularity",
    "d_of_gamma",
    "gamma_of_d",
    "zeta_of_gamma",
    "skeleton_series",
    "gamma_tilde",
    "flype_quintic",
    "flype_discriminant",
    "discriminant_root",
    "flype_singularity",
]


class BranchMismatchError(RuntimeError):
    """The series route and the algebraic route disagreed; refuse to answer."""


def d_of_gamma(gamma: Series) -> Series:
    """2PI tangle series from the full tangle series."""
    if gamma.coeffs[0] != 0:
        raise SeriesError("tangle series must have zero constant term")
    return div(mul(gamma, 1 - gamma), 1 + gamma)


def gamma_of_d(d: Series) -> Series:
    """Full tangle series rebuilt from the 2PI series (inverts d_of_gamma)."""
    if d.coeffs[0] != 0:
        raise SeriesError("2PI series must have zero constant term")
    return skeleton_series(d)


def skeleton_series(slot: Series) -> Series:
    """Fully two-particle-reducible skeletons with ``slot`` in every slot.

    For ``slot = g`` this is the Schroeder-type series 1, 2, 6, 22, 90, ...
    """
    if slot.coeffs[0] != 0:
        raise SeriesError("slot series must have zero constant term")
    one = Series.one(slot.order, slot.var)
    rad = mul(1 - slot, 1 - slot) - 4 * slot
    return (one - slot - sqrt_series(rad)) / 2


def zeta_of_gamma(gamma: Series) -> Series:
    """Nontrivial fully-2PI skeletons as a function of the tangle series.

    Exact expansion of
    ``-2/(1+gamma) + 2 - gamma - [1 + 10 gamma - 2 gamma^2
      - (1 - 4 gamma)^{3/2}] / (2 (gamma+2)^3)``;
    the expansion starts at order 5 on the renormalized branch.
    """
    if gamma.coeffs[0] != 0:
        raise SeriesError("tangle series must have zero constant term")
    one = Series.one(gamma.order, gamma.var)
    first = -2 * div(one, 1 + gamma) + 2 - gamma
    one_minus = 1 - 4 * gamma
    radical32 = mul(one_minus, sqrt_series(one_minus))
    numer = 1 + 10 * gamma - 2 * mul(gamma, gamma) - radical32
    denom = (2 + gamma) ** 3
    return first - div(numer, denom) / 2


def _flype_skeleton_map(g: Series, zeta: Series) -> Series:
    """The flype-corrected skeleton generating function of (g, zeta)."""
    one = Series.one(g.order, g.var)
    inner = mul(1 - g + zeta, 1 - g + zeta) - 8 * zeta - 8 * div(mul(g, g), 1 - g)
    return (one + g - zeta - sqrt_series(inner)) / 2


def _flype_series(order: int) -> Series:
    """The flype series W(g), as the compositional inverse of its coupling g(W).

    Squared, the flype equation is ``g^2 + c g + z - W (1 - W)/(1 + W) = 0``
    with ``z = zeta[W]`` and ``c = 1 - W - z``; its root through the origin is
    a series in W.  The unsquared map must return the inverse exactly, which
    keeps the paper's equation as the definition and rules out the branch
    that squaring admits.
    """
    w = Series.identity(order)
    z = zeta_of_gamma(w)
    c = 1 - w - z
    radicand = mul(c, c) - 4 * z + 4 * div(mul(w, 1 - w), 1 + w)
    w_of_g = reversion((sqrt_series(radicand) - c) / 2)
    if _flype_skeleton_map(Series.identity(order), zeta_of_gamma(w_of_g)) != w_of_g:
        raise BranchMismatchError("inverted series does not solve the flype equation")
    return w_of_g


# ---------------------------------------------------------------------------
# exact elimination to a single polynomial relation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _quintic_sympy() -> sp.Poly:
    """Eliminate the radicals from the implicit flype system exactly.

    Returns the integer polynomial P(g, W), a sympy ``Poly`` in (g, W) of
    degree five in W, whose branch through W(0) = 0 is the flype-class tangle
    series.  The two radicals are removed by one squaring each; the resultant
    in the auxiliary variable z (the 2PI slot series value) collapses the
    system to one polynomial, whose spurious factors are discarded by matching
    the series solution.  All arithmetic is on ``Poly`` objects over ZZ.
    """
    z, g, W = (
        sp.Poly.from_dict({exponents: 1}, *sp.symbols("z g W"), domain=sp.ZZ)
        for exponents in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    )
    # squaring the corrected-skeleton equation W = (1/2)[(1+g-z) - sqrt(...)]
    e1 = (1 - g) * ((1 + g - z - 2 * W) ** 2 - (1 - g + z) ** 2 + 8 * z) + 8 * g**2
    # clearing denominators and the (1-4W)^{3/2} radical from z = zeta[W]
    lhs = (
        2 * (1 + W) * (W + 2) ** 3 * z
        + 4 * (W + 2) ** 3
        - 2 * (1 + W) * (2 - W) * (W + 2) ** 3
        + (1 + W) * (1 + 10 * W - 2 * W**2)
    )
    e2 = lhs**2 - (1 + W) ** 2 * (1 - 4 * W) ** 3
    resultant = e1.resultant(e2)  # in the first generator, z
    series = _flype_series(12)
    quintic = None
    for poly, _mult in resultant.factor_list()[1]:
        if _sympy_poly_to_bivariate(poly).eval_series(series).is_zero():
            if quintic is not None:
                raise BranchMismatchError("two resultant factors match the series")
            quintic = poly
    if quintic is None or quintic.degree(1) != 5:
        raise BranchMismatchError("no quintic factor matches the series branch")
    # canonical sign: positive leading coefficient in (g, then W) ordering
    if quintic.LC() < 0:
        quintic = -quintic
    return quintic


def _sympy_poly_to_bivariate(poly: sp.Poly) -> BivariatePoly:
    """An integer ``Poly`` in (g, W) as a `BivariatePoly`."""
    return BivariatePoly.from_dict({(i, j): Fraction(int(c)) for (i, j), c in poly.terms()})


def flype_quintic() -> BivariatePoly:
    """The eliminated degree-five relation P(g, W) = 0 for flype classes."""
    return _sympy_poly_to_bivariate(_quintic_sympy())


def gamma_tilde(order: int) -> Series:
    """Series counting flype-equivalence classes of tangles: 1, 2, 4, 10, 29, ...

    Computed independently by reversion of the flype equation and by Newton
    expansion of the eliminated quintic; a mismatch raises `BranchMismatchError`.
    """
    if order < 1:
        raise SeriesError("order must be at least 1")
    by_inversion = _flype_series(order)
    system = AlgebraicSystem(flype_quintic(), Fraction(0))
    by_quintic = newton_solve(system, order)
    if by_inversion != by_quintic:
        raise BranchMismatchError(
            "inverted series and quintic branch disagree; wrong branch selected"
        )
    return by_inversion


# ---------------------------------------------------------------------------
# the dominant singularity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlypeSingularity:
    """Exact location of the flype-class singularity and its tracked fold."""

    minimal_polynomial: tuple   # integer coefficients, ascending, root = g_c
    g_critical: float
    growth: float               # 1/g_c
    fold_numeric: float         # from tracking the quintic branch to its fold
    agreement: float            # |g_critical - fold_numeric|


# largest accepted |g_critical - fold_numeric|
_FOLD_TOLERANCE = 1e-10
# width to which an irrational discriminant root is bracketed
_ROOT_WIDTH = Fraction(1, 10**30)


def _discriminant(relation: BivariatePoly) -> sp.Poly:
    """disc_y P(g, y) as an integer polynomial in g.

    P is taken as a polynomial in y with coefficients in ZZ[g], after its
    denominators are cleared; a constant factor does not move the roots.
    """
    scale = math.lcm(*(c.denominator for _, c in relation.terms))
    poly = sp.Poly.from_dict(
        {(j, i): int(c * scale) for (i, j), c in relation.terms},
        sp.Symbol("y"), sp.Symbol("g"), domain=sp.ZZ,
    )
    return poly.discriminant()  # in the first generator, y


@lru_cache(maxsize=None)
def flype_discriminant() -> tuple:
    """Discriminant (in W) of the flype quintic, as integer coefficients in g."""
    return tuple(int(c) for c in reversed(_discriminant(flype_quintic()).all_coeffs()))


def discriminant_root(relation: BivariatePoly) -> tuple:
    """Smallest positive root of disc_y P(g, y), certified, and its minimal polynomial.

    Returns ``((lo, hi), minimal_polynomial)``: Fractions bracketing the root,
    equal exactly when the root is rational and otherwise at most 1e-30
    apart, and the minimal polynomial as integer coefficients, ascending.
    The real roots of the square-free part of the discriminant are isolated
    in disjoint intervals; the irreducible factor with a root inside the
    smallest positive one is the minimal polynomial.  Interval endpoints may
    be roots of other factors (the root 0 sits at the left end of (0, hi)),
    so ownership is decided by roots strictly inside.  A discriminant without
    a positive real root raises `BranchMismatchError`.
    """
    disc = _discriminant(relation)
    intervals = [(_fraction(lo), _fraction(hi)) for (lo, hi), _ in disc.sqf_part().intervals()]
    positive = [(lo, hi) for lo, hi in intervals if lo >= 0 and hi > 0]
    if not positive:
        raise BranchMismatchError("discriminant has no positive real root")
    lo, hi = min(positive)

    def owns(coeffs: list) -> bool:
        if lo == hi:
            return _eval_sign(coeffs, lo) == 0
        at_ends = (_eval_sign(coeffs, lo) == 0) + (_eval_sign(coeffs, hi) == 0)
        return _count_real_roots(coeffs, lo, hi) > at_ends

    for factor, _mult in disc.factor_list()[1]:
        coeffs = [int(c) for c in reversed(factor.all_coeffs())]
        if owns(coeffs):
            break
    else:
        raise BranchMismatchError("no discriminant factor has a root in the isolating interval")
    if len(coeffs) == 2:
        root = Fraction(-coeffs[0], coeffs[1])
        return (root, root), tuple(coeffs)
    lo, hi = factor.refine_root(lo, hi, eps=_ROOT_WIDTH)
    return (_fraction(lo), _fraction(hi)), tuple(coeffs)


def _fraction(rational: sp.Rational) -> Fraction:
    return Fraction(int(rational.p), int(rational.q))


# ---------------------------------------------------------------------------
# exact real-root counts: fraction-free Sturm sequences on integer coefficients
# ---------------------------------------------------------------------------


def _eval_sign(coeffs: list, x: Fraction) -> int:
    """Sign of the integer polynomial (ascending ``coeffs``) at the rational x.

    Evaluated homogeneously: sum c_k n^k d^(deg - k), for x = n/d with d > 0,
    has the sign of the value and needs no division.
    """
    n, d = x.numerator, x.denominator
    acc, d_power = 0, 1
    for c in reversed(coeffs):
        acc = acc * n + c * d_power
        d_power *= d
    return (acc > 0) - (acc < 0)


def _primitive(coeffs: list) -> list:
    """``coeffs`` divided by their positive gcd, trailing zeros dropped."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    content = math.gcd(*coeffs)
    return [c // content for c in coeffs] if content > 1 else coeffs


def _pseudo_divide(a: list, b: list) -> tuple:
    """Primitive parts of the quotient and remainder of s a by b, some integer s > 0.

    Each step scales by |lc(b)| rather than lc(b), so that both keep the signs
    of the true quotient and remainder of a by b.
    """
    lead, sign, rest = abs(b[-1]), (b[-1] > 0) - (b[-1] < 0), list(a)
    quotient = [0] * max(len(a) - len(b) + 1, 1)
    while len(rest) >= len(b):
        shift, top = len(rest) - len(b), rest[-1] * sign
        quotient = [lead * q for q in quotient]
        quotient[shift] += top
        rest = [lead * c for c in rest]
        for k, c in enumerate(b):
            rest[k + shift] -= top * c
        while rest and rest[-1] == 0:
            rest.pop()
    return _primitive(quotient), _primitive(rest)


def _sturm_sequence(coeffs: list) -> list:
    """Sturm sequence of the square-free part of an integer polynomial."""
    chain = [_primitive(coeffs), _primitive([k * c for k, c in enumerate(coeffs)][1:])]
    while len(chain[-1]) > 1:
        _q, rem = _pseudo_divide(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    if len(chain[-1]) > 1:  # a repeated root: start over from p / gcd(p, p')
        return _sturm_sequence(_pseudo_divide(chain[0], chain[-1])[0])
    return chain


def _count_real_roots(coeffs: list, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the closed interval [lo, hi].

    Sturm's theorem counts the roots in (lo, hi] as the drop in sign
    variations from lo to hi; a root at lo itself is added separately.
    """
    if len(_primitive(coeffs)) < 2:
        return 0
    chain = _sturm_sequence(coeffs)

    def variations(x: Fraction) -> int:
        signs = [s for s in (_eval_sign(p, x) for p in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi) + (_eval_sign(chain[0], lo) == 0)


def _fold_by_tracking(bipoly: BivariatePoly, seed_series: Series) -> float:
    """Follow the counting branch of P(g, W) = 0 to its fold, in exact arithmetic.

    Below the fold, the counting branch and its partner are the two real
    roots of P(g, .) in the window 1/20 < W < 9/20.  At g_c they meet in a
    double root W = 1/4; P, dP/dW and dP/dg all vanish there, so the point is
    singular on the curve and the pair leaves the real axis like
    (g - g_c)^{3/2}.  The number of distinct real roots in the closed window
    is therefore 2 below the fold and 0 above it.  It is counted exactly at
    rational g = n/d: P(n/d, W) times a positive integer has integer
    coefficients, and a fraction-free Sturm sequence on them is evaluated
    homogeneously at the window ends.  At g = 3/25 the seed series must single
    out its root (the only one within 1/1000 of the series value) and the
    window must hold exactly two; a scan in steps of 1/200 then finds the
    first g where the count drops, and bisection on the count shrinks the
    bracket to 1e-13.
    """
    deg_w, deg_g = bipoly.degree_y(), bipoly.degree_x()
    scale = math.lcm(*(c.denominator for _, c in bipoly.terms))
    integer_terms = [(i, j, int(c * scale)) for (i, j), c in bipoly.terms]

    def real_roots(gv: Fraction, lo: Fraction, hi: Fraction) -> int:
        n, d = gv.numerator, gv.denominator
        coeffs = [0] * (deg_w + 1)
        for i, j, c in integer_terms:
            coeffs[j] += c * n**i * d ** (deg_g - i)
        return _count_real_roots(coeffs, lo, hi)

    def below_fold(gv: Fraction) -> bool:
        return real_roots(gv, Fraction(1, 20), Fraction(9, 20)) == 2

    g_safe = Fraction(3, 25)
    w_track = sum(c * g_safe**k for k, c in enumerate(seed_series.coeffs))
    near = real_roots(g_safe, w_track - Fraction(1, 1000), w_track + Fraction(1, 1000))
    if near != 1 or not below_fold(g_safe):
        raise BranchMismatchError("lost the counting branch during tracking")

    lo = g_safe
    for _ in range(200):
        hi = lo + Fraction(1, 200)
        if not below_fold(hi):
            break
        lo = hi
    else:
        raise BranchMismatchError("no branch collision found while tracking")
    while hi - lo > Fraction(1, 10**13):
        mid = (lo + hi) / 2
        if below_fold(mid):
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def flype_singularity() -> FlypeSingularity:
    """Locate the flype-class singularity exactly, then confirm it by tracking.

    The exact value is the smallest positive root of the discriminant of the
    eliminated quintic; the confirmation tracks the counting branch of the
    quintic to its fold.  A disagreement beyond ``_FOLD_TOLERANCE`` raises
    `BranchMismatchError`.
    """
    quintic = flype_quintic()
    (lo, hi), minpoly = discriminant_root(quintic)
    g_exact = float((lo + hi) / 2)
    fold = _fold_by_tracking(quintic, _flype_series(10))
    agreement = abs(g_exact - fold)
    if agreement > _FOLD_TOLERANCE:
        raise BranchMismatchError(
            f"exact discriminant root {g_exact!r} and tracked fold {fold!r} "
            f"differ by {agreement:g}"
        )
    return FlypeSingularity(
        minimal_polynomial=minpoly,
        g_critical=g_exact,
        growth=1.0 / g_exact,
        fold_numeric=fold,
        agreement=agreement,
    )
