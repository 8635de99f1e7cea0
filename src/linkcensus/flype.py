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
with it too.  The elimination, the discriminant, the square-free
decomposition, the rational-root splitting and the real-root isolation and
counting are all exact arithmetic on integer polynomials held as lists of
Python integers: no computer-algebra system is imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import zip_longest

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
    if gamma.num[0] != 0:
        raise SeriesError("tangle series must have zero constant term")
    return div(mul(gamma, 1 - gamma), 1 + gamma)


def skeleton_series(slot: Series) -> Series:
    """Fully two-particle-reducible skeletons with ``slot`` in every slot.

    For ``slot = g`` this is the Schroeder-type series 1, 2, 6, 22, 90, ...;
    for the 2PI series ``slot = d_of_gamma(gamma)`` it is ``gamma`` again.
    """
    if slot.num[0] != 0:
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
    if gamma.num[0] != 0:
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
#
# A polynomial in Z[g, W] is held as a list, indexed by the power of g, of
# integer coefficient lists in W (ascending).


def _g_add(p: list, q: list) -> list:
    return [_add(a, b) for a, b in zip_longest(p, q, fillvalue=[])]


def _g_mul(p: list, q: list) -> list:
    out = [[] for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for k, b in enumerate(q):
            out[i + k] = _add(out[i + k], _mul(a, b))
    return out


@lru_cache(maxsize=None)
def flype_quintic() -> BivariatePoly:
    """The eliminated degree-five relation P(g, W) = 0 for flype classes.

    The two radicals are removed by one squaring each.  Squaring the
    corrected-skeleton equation W = (1/2)[(1 + g - z) - sqrt(...)], with z the
    2PI slot series value zeta[W], gives a relation linear in z,

        e1 = (1 - g) [4 (g - z - W)(1 - W) + 8 z] + 8 g^2 = a1 z + a0,

    and clearing the denominators and the (1 - 4W)^{3/2} radical from
    z = zeta[W] gives e2 = (L1 z + L0)^2 - (1 + W)^2 (1 - 4W)^3.  Their
    resultant in z is therefore

        (L0 a1 - L1 a0)^2 - (1 + W)^2 (1 - 4W)^3 a1^2,

    which splits into its content in Z[W], the spurious 64 (W + 1)^2 (W + 2)^3,
    and its primitive part in g.  Exactly one of the two must annihilate the
    series solution, and it must have degree five in W.  All arithmetic is on
    Python integers.
    """
    w2_cubed = _power([2, 1], 3)                            # (W + 2)^3
    l1 = _mul([2, 2], w2_cubed)                             # 2 (1 + W)(W + 2)^3
    # 4 (W + 2)^3 - 2 (1 + W)(2 - W)(W + 2)^3 + (1 + W)(1 + 10W - 2W^2)
    l0 = _add(_mul([0, -2, 2], w2_cubed), [1, 11, 8, -2])
    one_minus_g = [[1], [-1]]
    a1 = _g_mul(one_minus_g, [[4, 4]])                      # 4 (1 - g)(1 + W)
    # 4 (1 - g)(g - W)(1 - W) + 8 g^2
    a0 = _g_add(_g_mul(one_minus_g, [[0, -4, 4], [4, -4]]), [[], [], [8]])
    cross = _g_add([_mul(l0, c) for c in a1], [_mul([-c for c in l1], c) for c in a0])
    radicand = _mul(_power([1, 1], 2), _power([1, -4], 3))  # (1 + W)^2 (1 - 4W)^3
    resultant = _g_add(_g_mul(cross, cross),
                       [_mul([-c for c in radicand], c) for c in _g_mul(a1, a1)])
    rows = [row for row in resultant if row]
    content = reduce(_gcd, rows)
    content = [math.gcd(*(math.gcd(*row) for row in rows)) * c for c in content]
    primitive = [_divide_exactly(row, content) for row in resultant]
    series = _flype_series(12)
    quintic = None
    for factor in (
        BivariatePoly.from_dict({(0, j): c for j, c in enumerate(content)}),
        BivariatePoly.from_dict(
            {(i, j): c for i, row in enumerate(primitive) for j, c in enumerate(row)}
        ),
    ):
        if factor.eval_series(series).is_zero():
            if quintic is not None:
                raise BranchMismatchError("two resultant factors match the series")
            quintic = factor
    if quintic is None or quintic.degree_y() != 5:
        raise BranchMismatchError("no quintic factor matches the series branch")
    # canonical sign: positive leading coefficient in (g, then W) ordering
    if quintic.terms[-1][1] < 0:
        quintic = BivariatePoly.from_dict({key: -c for key, c in quintic.terms})
    return quintic


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


def _discriminant(relation: BivariatePoly) -> list:
    """disc_y P(g, y) as integer coefficients in g, ascending.

    P is taken as a polynomial in y over Z[g] of degree n, after its
    denominators are cleared; a constant factor does not move the roots.  The
    resultant Res_y(P, dP/dy) is the determinant of a Sylvester matrix of
    size 2n - 1 whose entries have g-degree at most deg_g P, so it is found
    exactly from its values at the integers 0, 1, ..., (2n - 1) deg_g P.
    Then disc_y P = (-1)^(n(n-1)/2) Res_y(P, dP/dy) / lc_y P.  A P free of
    y has the zero discriminant.
    """
    scale = math.lcm(*(c.denominator for _, c in relation.terms))
    n, deg_g = relation.degree_y(), relation.degree_x()
    if n < 1:
        return []
    by_y = [[0] * (deg_g + 1) for _ in range(n + 1)]
    for (i, j), c in relation.terms:
        by_y[j][i] = int(c * scale)
    values = []
    for x in range((2 * n - 1) * deg_g + 1):
        at_x = [reduce(lambda acc, c: acc * x + c, reversed(coeffs), 0) for coeffs in by_y]
        values.append(_sylvester_determinant(at_x, [j * c for j, c in enumerate(at_x)][1:]))
    disc = _divide_exactly(_interpolate(values), _trim(by_y[n]))
    return disc if n * (n - 1) // 2 % 2 == 0 else [-c for c in disc]


@lru_cache(maxsize=None)
def flype_discriminant() -> tuple:
    """Discriminant (in W) of the flype quintic, as integer coefficients in g."""
    return tuple(_discriminant(flype_quintic()))


def discriminant_root(relation: BivariatePoly) -> tuple:
    """Smallest positive root of disc_y P(g, y), certified, and its minimal polynomial.

    Returns ``((lo, hi), minimal_polynomial)``: Fractions bracketing the root,
    equal exactly when the root is rational and otherwise at most 1e-30
    apart, and the minimal polynomial as primitive integer coefficients,
    ascending, with a positive leading coefficient.

    The discriminant is split into coprime square-free parts by gcds
    (Musser's algorithm).  Sturm bisection on their product isolates its
    smallest root in (0, inf) in an interval (lo, hi], and the part with a
    root there owns it.  A rational root n/d of the owner has d dividing its
    leading coefficient lc, so bracketing each real root of the owner to
    width 1/(2 lc^2) leaves one candidate, which ``Fraction.limit_denominator``
    finds and exact evaluation confirms.  If the root itself is rational it is
    returned exactly; other rational roots are divided out.  What is left has
    no rational root, so at degree 2 or 3 it is irreducible: the minimal
    polynomial.  Minimal polynomials are certified up to degree 3 only; a
    larger one raises `BranchMismatchError`.  No relation in this package
    reaches that: the raw and reduced roots are rational, and the flype root's
    minimal polynomial is 135 g^2 + 101 g - 20.  A discriminant without a
    positive real root raises `BranchMismatchError` too.
    """
    parts = _square_free_parts(_discriminant(relation))
    squarefree = reduce(_mul, (part for part, _mult in parts), [1])
    bracket = next(_isolate(squarefree, Fraction(0), _root_bound(squarefree)), None)
    if bracket is None:
        raise BranchMismatchError("discriminant has no positive real root")
    lo, hi = bracket
    for owner, _mult in parts:
        if _count_real_roots(owner, lo, hi) > (_eval_sign(owner, lo) == 0):
            break
    else:
        raise BranchMismatchError("no discriminant factor has a root in the isolating interval")
    lead, bound = owner[-1], _root_bound(owner)
    for a, b in list(_isolate(owner, -bound, bound)):
        a, b = _bisect(owner, a, b, Fraction(1, 2 * lead * lead))
        root = ((a + b) / 2).limit_denominator(lead)
        if _eval_sign(owner, root) != 0:
            continue
        if lo < root <= hi:
            return (root, root), (-root.numerator, root.denominator)
        owner = _divide_exactly(owner, [-root.numerator, root.denominator])
    degree = len(owner) - 1
    if degree > 3:
        name = {4: "quartic", 5: "quintic", 6: "sextic"}.get(degree, f"degree-{degree}")
        raise BranchMismatchError(
            f"the discriminant root lies on a {name} factor without rational roots; "
            "minimal polynomials are certified up to degree 3"
        )
    return _bisect(owner, lo, hi, _ROOT_WIDTH), tuple(owner)


# ---------------------------------------------------------------------------
# exact arithmetic on integer polynomials (ascending coefficient lists):
# gcds, square-free parts, determinants, fraction-free Sturm sequences
# ---------------------------------------------------------------------------


def _trim(coeffs: list) -> list:
    """``coeffs`` without trailing zeros."""
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def _add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return _trim(out)


def _mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def _power(a: list, k: int) -> list:
    return reduce(_mul, [a] * k, [1])


def _divide_exactly(a: list, b: list) -> list:
    """The quotient a / b, which must have integer coefficients and no remainder."""
    rest, quotient = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(quotient))):
        quotient[k], r = divmod(rest[k + len(b) - 1], b[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        for m, c in enumerate(b):
            rest[k + m] -= quotient[k] * c
    if any(rest):
        raise ArithmeticError("inexact polynomial division")
    return quotient


def _positive(coeffs: list) -> list:
    """``coeffs`` with the sign that makes the leading coefficient positive."""
    return [-c for c in coeffs] if coeffs and coeffs[-1] < 0 else coeffs


def _gcd(a: list, b: list) -> list:
    """Primitive gcd, with positive leading coefficient, by a primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _pseudo_divide(a, b)[1]
    return _positive(a)


def _square_free_parts(coeffs: list) -> list:
    """Musser's square-free decomposition: ``[(f_k, k), ...]`` with p = c prod f_k^k.

    The f_k are primitive, coprime, square-free and of positive degree, with
    positive leading coefficients; constants are dropped.
    """
    f = _primitive(coeffs)
    if len(f) < 2:
        return []
    c = _gcd(f, [k * x for k, x in enumerate(f)][1:])   # prod f_k^(k-1)
    w = _pseudo_divide(f, c)[0]                         # prod f_k
    parts, k = [], 1
    while len(w) > 1:
        y = _gcd(w, c)                                  # prod of the f_j with j > k
        z = _pseudo_divide(w, y)[0]                     # f_k
        if len(z) > 1:
            parts.append((_positive(z), k))
        w, c, k = y, _pseudo_divide(c, y)[0], k + 1
    return parts


def _sylvester_determinant(p: list, q: list) -> int:
    """Res(p, q) at the formal degrees len(p) - 1 and len(q) - 1: the Sylvester determinant."""
    size = len(p) + len(q) - 2
    rows = [[0] * k + p[::-1] + [0] * (size - k - len(p)) for k in range(len(q) - 1)]
    rows += [[0] * k + q[::-1] + [0] * (size - k - len(q)) for k in range(len(p) - 1)]
    # Bareiss elimination: every division is exact
    sign, previous = 1, 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap], sign = rows[swap], rows[k], -sign
        pivot = rows[k][k]
        for r in range(k + 1, size):
            row, factor = rows[r], rows[r][k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - factor * rows[k][j]) // previous
        previous = pivot
    return sign * rows[-1][-1]


def _interpolate(values: list) -> list:
    """The integer polynomial that takes ``values`` at 0, 1, ..., len(values) - 1.

    Newton's forward-difference form, sum_k (Delta^k f)(0) x(x-1)...(x-k+1) / k!,
    multiplied through by D! = (len(values) - 1)! to stay in the integers.
    """
    top = len(values) - 1
    total, falling, weight, row = [0] * len(values), [1], math.factorial(top), list(values)
    for k in range(len(values)):
        for i, c in enumerate(falling):
            total[i] += row[0] * weight * c      # weight = D! / k!
        row = [b - a for a, b in zip(row, row[1:])]
        falling = _mul(falling, [-k, 1])
        weight //= k + 1
    return _trim([c // math.factorial(top) for c in total])


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
    coeffs = _trim(coeffs)
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
    return (_variations(chain, lo) - _variations(chain, hi)
            + (_eval_sign(chain[0], lo) == 0))


def _variations(chain: list, x: Fraction) -> int:
    """Sign variations of the Sturm sequence ``chain`` at x, zeros skipped."""
    signs = [s for s in (_eval_sign(p, x) for p in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _root_bound(coeffs: list) -> Fraction:
    """A power of two above the absolute value of every root (Cauchy's bound)."""
    cauchy = 2 + max(map(abs, coeffs[:-1]), default=0) // abs(coeffs[-1])
    return Fraction(1 << cauchy.bit_length())


def _isolate(coeffs: list, lo: Fraction, hi: Fraction):
    """Yield, from left to right, intervals (a, b] that each hold one distinct root in (lo, hi].

    Bisection on Sturm counts: the roots in (a, b] number V(a) - V(b).
    """
    chain = _sturm_sequence(coeffs)
    stack = [(lo, hi, _variations(chain, lo), _variations(chain, hi))]
    while stack:
        a, b, v_a, v_b = stack.pop()
        if v_a - v_b == 1:
            yield a, b
        elif v_a - v_b > 1:
            mid = (a + b) / 2
            v_mid = _variations(chain, mid)
            stack += [(mid, b, v_mid, v_b), (a, mid, v_a, v_mid)]


def _bisect(coeffs: list, lo: Fraction, hi: Fraction, width: Fraction) -> tuple:
    """Shrink (lo, hi], which holds exactly one root of ``coeffs``, a simple one, to ``width``.

    Returns (r, r) if a bisection point is the root r.  Only signs are
    evaluated: just right of lo the sign is the opposite of that at hi, even
    when lo is another root.
    """
    sign_hi = _eval_sign(coeffs, hi)
    if sign_hi == 0:
        return hi, hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        sign = _eval_sign(coeffs, mid)
        if sign == 0:
            return mid, mid
        if sign == sign_hi:
            hi = mid
        else:
            lo = mid
    return lo, hi


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
