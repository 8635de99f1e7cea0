"""Planar solution of the quartic one-matrix model, raw and renormalized.

The raw model weights every four-valent gluing by ``g`` per vertex.  All of
its planar correlation data flows through one auxiliary quantity, the
endpoint parameter ``a^2(g) = (1 - sqrt(1 - 12 g)) / (6 g)`` of the
eigenvalue support:

* two-point function     ``G2 = a^2 (4 - a^2) / 3``
* connected four-point   ``Gamma = (a^2)^2 (a^2 - 1)(5 - 2 a^2) / 9``
* free energy            ``F = log(a^2)/2 - (a^2 - 1)(9 - a^2) / 24``
* genus-1 and genus-2 free energies, ``E1 = -log(2 - a^2) / 12`` and
  ``E2 = -(1 - a^2)^3 (82 + 21 a^2 - 3 a^4) / (720 (2 - a^2)^5)``

The renormalized ("reduced") model rescales the quadratic term so that the
two-point function is identically 1, which removes all self-energy
decorations from the counted diagrams.  Its endpoint parameter solves the
cubic ``27 g = (a^2 - 1)(4 - a^2)^2`` on the branch through ``a^2(0) = 1``,
and ``t(g) = a^2 (4 - a^2) / 3``.

The exact rational series are authoritative.  Float evaluations serve only
the spectral-density checks (the resolvent, the density, and its moments
against G2 and G4) and the series-tail checks (raw Gamma, reduced free
energy and Gamma).  They use only the standard library: closed forms and an
equally spaced rule exact for the density's moments.  Exact arithmetic lives
in `linkcensus.series`; floats never enter a series.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .series import (
    AlgebraicSystem,
    BivariatePoly,
    Series,
    SeriesError,
    compose,
    div,
    integrate,
    log_series,
    mul,
    newton_solve,
    reversion,
    sqrt_series,
)

__all__ = [
    "SingularityError",
    "RAW_CRITICAL_G",
    "REDUCED_CRITICAL_G",
    "a2_raw_series",
    "g2_raw_series",
    "g4_raw_series",
    "gamma_raw_series",
    "free_energy_raw_series",
    "free_energy_genus1_series",
    "free_energy_genus2_series",
    "raw_endpoint",
    "reduced_cubic",
    "a2_reduced_series",
    "t_series",
    "gamma_reduced_series",
    "g4_reduced_series",
    "free_energy_reduced_series",
    "solve_unit_two_point",
    "substitute_renormalized",
    "a2_raw",
    "g2_raw",
    "g4_raw",
    "gamma_raw",
    "resolvent",
    "density",
    "density_moment",
    "a2_reduced",
    "gamma_reduced",
    "free_energy_reduced",
]


class SingularityError(ValueError):
    """Numeric evaluation was requested at or beyond a branch singularity."""


RAW_CRITICAL_G = Fraction(1, 12)
REDUCED_CRITICAL_G = Fraction(4, 27)


# ---------------------------------------------------------------------------
# exact series
# ---------------------------------------------------------------------------


def a2_raw_series(order: int) -> Series:
    """Series of the raw endpoint parameter; coefficients are 3^k Catalan(k)."""
    root = sqrt_series(Series.from_coeffs([1, -12], order + 1))
    return (1 - root).shift_down(1) / 6


def g2_raw_series(order: int) -> Series:
    a2 = a2_raw_series(order)
    return mul(a2, 4 - a2) / 3


def gamma_raw_series(order: int) -> Series:
    a2 = a2_raw_series(order)
    return mul(mul(a2, a2), mul(a2 - 1, 5 - 2 * a2)) / 9


def g4_raw_series(order: int) -> Series:
    g2 = g2_raw_series(order)
    return gamma_raw_series(order) + 2 * mul(g2, g2)


def free_energy_raw_series(order: int) -> Series:
    if order < 1:
        return Series.zero(order)
    a2 = a2_raw_series(order)
    return log_series(a2) / 2 - mul(a2 - 1, 9 - a2) / 24


def free_energy_genus1_series(order: int) -> Series:
    """Genus-1 free energy ``E1 = -(1/12) log(2 - a^2)`` of the raw model.

    Its coefficient of g^V is the number of connected genus-1 gluings of V
    vertices over 4^V V! (Bessis, Itzykson and Zuber, Adv. Appl. Math. 1
    (1980) 109, in this module's sign convention): 1/4, 15/8, 33/2, ...
    """
    return -log_series(2 - a2_raw_series(order)) / 12


def free_energy_genus2_series(order: int) -> Series:
    """Genus-2 free energy of the raw model, exact in the endpoint parameter.

    ``E2 = -(1/720) (1 - a^2)^3 (82 + 21 a^2 - 3 a^4) / (2 - a^2)^5``, with
    coefficients normalized as in `free_energy_genus1_series`.
    """
    a2 = a2_raw_series(order)
    numer = (1 - a2) ** 3 * (82 + 21 * a2 - 3 * mul(a2, a2))
    return -div(numer, (2 - a2) ** 5) / 720


def raw_endpoint() -> AlgebraicSystem:
    """The quadratic relation pinning the raw endpoint parameter.

    ``3 g y^2 - y + 1 = 0`` with the branch through ``y(0) = 1``, the
    relation that `a2_raw_series` solves in closed form.
    """
    relation = BivariatePoly.from_dict({(1, 2): 3, (0, 1): -1, (0, 0): 1})
    return AlgebraicSystem(relation, Fraction(1))


def reduced_cubic() -> AlgebraicSystem:
    """The cubic relation pinning the reduced endpoint parameter.

    ``27 g = (y - 1)(4 - y)^2`` rewritten as ``P(g, y) = 0`` with the branch
    through ``y(0) = 1``.
    """
    relation = BivariatePoly.from_dict(
        {(0, 3): 1, (0, 2): -9, (0, 1): 24, (0, 0): -16, (1, 0): -27}
    )
    return AlgebraicSystem(relation, Fraction(1))


def a2_reduced_series(order: int) -> Series:
    return newton_solve(reduced_cubic(), order)


def t_series(order: int) -> Series:
    u = a2_reduced_series(order)
    return mul(u, 4 - u) / 3


def gamma_reduced_series(order: int) -> Series:
    """Counting series of renormalized tangle diagrams: 1, 2, 6, 22, 91, ..."""
    u = a2_reduced_series(order)
    four_minus = 4 - u
    return div(mul(u - 1, 5 - 2 * u), mul(four_minus, four_minus))


def g4_reduced_series(order: int) -> Series:
    # with the two-point function pinned to 1 the disconnected part is constant
    return gamma_reduced_series(order) + 2


def free_energy_reduced_series(order: int) -> Series:
    """Counting series of renormalized closed diagrams, from dF/dg = G4/4."""
    if order < 1:
        return Series.zero(order)
    return integrate(g4_reduced_series(order - 1) / 4)


def solve_unit_two_point(g2_raw: Series) -> Series:
    """Solve ``G2(t(g), g) = 1`` for ``t(g)`` by series reversion.

    ``g2_raw`` is the raw series ``G2(1, g)`` (from a closed form or from the
    enumeration oracle).  The scaling property turns the constraint into
    ``t = G2(1, x)`` with ``x = g / t^2``, so ``g = x G2(1, x)^2`` is explicit
    in x: its compositional inverse is ``x(g)``, and ``t = G2(1, x(g))``.
    """
    if g2_raw.num[0] == 0:
        raise SeriesError("raw two-point series must have a nonzero constant term")
    order = g2_raw.order
    if order < 1:
        return g2_raw
    x = reversion(mul(Series.identity(order), mul(g2_raw, g2_raw)))
    return compose(g2_raw, x)


def substitute_renormalized(raw: Series, t: Series, legs: int) -> Series:
    """Renormalize a raw 2n-point series: ``t^{-n} * raw(g / t(g)^2)``.

    ``legs`` is the number of external legs (2n); each leg pair carries one
    factor of 1/t and every vertex two.
    """
    if legs % 2 != 0 or legs < 0:
        raise SeriesError("legs must be a nonnegative even integer")
    order = min(raw.order, t.order)
    inv_t2 = div(Series.one(order), mul(t.truncate(order), t.truncate(order)))
    g = Series.identity(order) if order >= 1 else Series.zero(0)
    result = compose(raw, mul(g, inv_t2))
    for _ in range(legs // 2):
        result = div(result, t.truncate(result.order))
    return result


# ---------------------------------------------------------------------------
# double-precision evaluation
# ---------------------------------------------------------------------------


def _check_raw_domain(g: float) -> None:
    if not 0 <= g <= float(RAW_CRITICAL_G):
        raise SingularityError(
            f"raw model is only defined for 0 <= g <= 1/12, got g = {g}"
        )


def _check_reduced_domain(g: float) -> None:
    if not 0 <= g <= float(REDUCED_CRITICAL_G):
        raise SingularityError(
            f"reduced model is only defined for 0 <= g <= 4/27, got g = {g}"
        )


def a2_raw(g: float) -> float:
    """Raw endpoint parameter; the form below is stable down to g = 0."""
    _check_raw_domain(g)
    return 2.0 / (1.0 + math.sqrt(1.0 - 12.0 * g))


def g2_raw(g: float) -> float:
    a2 = a2_raw(g)
    return a2 * (4.0 - a2) / 3.0


def gamma_raw(g: float) -> float:
    a2 = a2_raw(g)
    return a2 * a2 * (a2 - 1.0) * (5.0 - 2.0 * a2) / 9.0


def g4_raw(g: float) -> float:
    return gamma_raw(g) + 2.0 * g2_raw(g) ** 2


def resolvent(g: float, lam: complex) -> complex:
    """Spectral resolvent; behaves as 1/lam at infinity (checked in tests)."""
    _check_raw_domain(g)
    a2 = a2_raw(g)
    lam = complex(lam)
    w = _sqrt_branch(lam, a2)
    return 0.5 * lam - 0.5 * g * lam**3 - (-0.5 * g * lam**2 + 0.5 - g * a2) * w


def _sqrt_branch(lam: complex, a2: float) -> complex:
    """sqrt(lam^2 - 4 a^2) on the branch asymptotic to lam at infinity."""
    w = ((lam - 2.0 * math.sqrt(a2)) ** 0.5) * ((lam + 2.0 * math.sqrt(a2)) ** 0.5)
    if (w * lam.conjugate()).real < 0:
        w = -w
    return w


def density(g: float, lam: float) -> float:
    """Eigenvalue density on the support [-2a, 2a]."""
    _check_raw_domain(g)
    a2 = a2_raw(g)
    if lam * lam > 4.0 * a2 + 1e-12:
        raise SingularityError(
            f"lambda = {lam} lies outside the spectral support [-{2*math.sqrt(a2):.6f}, {2*math.sqrt(a2):.6f}]"
        )
    inside = max(4.0 * a2 - lam * lam, 0.0)
    return (0.5 - 0.5 * g * lam * lam - g * a2) * math.sqrt(inside) / math.pi


def density_moment(g: float, k: int) -> float:
    """k-th moment of the density, exact up to rounding.

    With ``lam = 2 a sin(theta)`` the measure ``sqrt(4 a^2 - lam^2) dlam``
    becomes ``4 a^2 cos(theta)^2 dtheta``, so the integrand is a trigonometric
    polynomial of degree k + 4.  Its integral over [-pi/2, pi/2] is half the
    integral over a full period, which an equally spaced rule with more than
    k + 4 points computes exactly.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"moment order must be a nonnegative int, got {k!r}")
    _check_raw_domain(g)
    a2 = a2_raw(g)
    a = math.sqrt(a2)
    points = k + 6
    total = 0.0
    for j in range(points):
        theta = 2.0 * math.pi * j / points
        lam = 2.0 * a * math.sin(theta)
        total += lam**k * (0.5 - 0.5 * g * lam * lam - g * a2) * math.cos(theta) ** 2
    return 4.0 * a2 * total / points


def a2_reduced(g: float) -> float:
    """Reduced endpoint parameter, tracked continuously from a^2(0) = 1.

    On the physical branch ``a^2`` increases monotonically from 1 to 2 as g
    runs to 4/27, so bisection follows the branch without ever consulting
    closed-form cubic roots; a Newton polish finishes to machine precision.
    """
    _check_reduced_domain(g)
    target = 27.0 * g

    def rhs(u: float) -> float:
        return (u - 1.0) * (4.0 - u) ** 2

    lo, hi = 1.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if rhs(mid) < target:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    for _ in range(4):
        deriv = (4.0 - u) ** 2 - 2.0 * (u - 1.0) * (4.0 - u)
        if deriv == 0.0:
            break
        u -= (rhs(u) - target) / deriv
        u = min(max(u, 1.0), 2.0)
    return u


def gamma_reduced(g: float) -> float:
    u = a2_reduced(g)
    return (u - 1.0) * (5.0 - 2.0 * u) / (4.0 - u) ** 2


def free_energy_reduced(g: float) -> float:
    """Reduced free energy in closed form.

    Changing variables to ``u = a2_reduced(g)`` in dF/dg = (Gamma + 2)/4
    gives dF/du = (1 - u)/4 + 1/(2 (4 - u)), hence
    ``F = log(3 / (4 - u))/2 - (u - 1)^2/8`` with F(0) = 0.  The logarithm is
    taken as log1p((u - 1)/(4 - u)) to keep its relative accuracy near g = 0.
    """
    u = a2_reduced(g)
    return 0.5 * math.log1p((u - 1.0) / (4.0 - u)) - (u - 1.0) ** 2 / 8.0
