"""Two-color model endpoints and series cross-validation.

With two matrix colors the counting problem keeps one coupling ``g`` on the
line where same-color and cross-color quartic weights agree.  The critical
data of the renormalized two-color count are closed forms:

    g_c = pi (pi - 4)^2 / 16,    t_c = (pi / 2)(4 - pi),

tied together by ``g_c / t_c^2 = 1 / (4 pi)``, with growth ``1/g_c``.

Everything series-shaped here comes from the oracle at loop weight n = 2: the
raw free energy, the renormalization ``t(g)`` solved from the raw two-point
series, and the renormalized count, whose growth `reduced_growth_estimate`
brackets.  The general two-coupling model away from the counting line is out
of scope; only the endpoints above are implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import onematrix, oracle
from .series import Series, derivative, integrate

__all__ = [
    "CriticalConstants",
    "critical_constants",
    "two_color_series",
    "renormalization",
    "reduced_growth_estimate",
]


@dataclass(frozen=True)
class CriticalConstants:
    g_critical: float
    t_critical: float
    growth: float
    # g_c / t_c^2 - 1/(4 pi): zero by algebra for the two hard-coded closed
    # forms, so it measures float rounding only, not the constants
    identity_residual: float


def critical_constants() -> CriticalConstants:
    """Closed-form two-color critical constants.

    The three numbers are hard-coded closed forms, not computed from any
    count.  ``g_c / t_c^2 = 1/(4 pi)`` is an algebraic identity of the two
    expressions, so its residual can only measure float rounding: it is
    carried as a rounding diagnostic, not as a check of the constants.
    """
    g_c = math.pi * (math.pi - 4.0) ** 2 / 16.0
    t_c = 0.5 * math.pi * (4.0 - math.pi)
    growth = 16.0 / (math.pi * (math.pi - 4.0) ** 2)
    residual = g_c / t_c**2 - 1.0 / (4.0 * math.pi)
    if abs(residual) > 1e-12:
        raise ArithmeticError(f"two-color identity residual {residual:g} out of range")
    return CriticalConstants(g_critical=g_c, t_critical=t_c, growth=growth,
                             identity_residual=residual)


def renormalization(vmax: int) -> Series:
    """The two-color t(g) making the oracle's G2 at n = 2 unity, by reversion."""
    return onematrix.solve_unit_two_point(oracle.g2_series(vmax, n=2))


def two_color_series(order: int, *, reduced: bool = False) -> Series:
    """Two-color diagram-counting series from the oracle at loop weight 2.

    Raw: the free energy of the two-color model.  Reduced: integral of a
    quarter of the renormalized color-summed four-point series, whose raw
    version is read off as four times the derivative of the raw count (the
    marked-vertex identity, cross-checked against direct enumeration in the
    test suite).
    """
    raw = oracle.free_energy_series(order, n=2)
    if not reduced:
        return raw
    if order < 1:
        return Series.zero(order)
    # color-summed raw four-point series from the marked-vertex identity
    g4_sum_raw = 4 * derivative(raw)
    t = renormalization(order - 1)
    g4_sum_reduced = onematrix.substitute_renormalized(g4_sum_raw, t, legs=4)
    return integrate(g4_sum_reduced / 4)


def reduced_growth_estimate(order: int = 5) -> float:
    """Loose few-term growth estimate for the renormalized two-color count.

    The last coefficient ratio, debiased to first order in 1/p by the
    expected decay class p^-3 log p of this sequence.  Meant only as a
    sanity bracket around the exact growth, which is certified by closed
    forms in `critical_constants`; the exponent class itself is never
    fitted from the few available terms.
    """
    series = two_color_series(order, reduced=True)
    coeffs = series.coeffs
    ps = [p for p in range(1, len(coeffs)) if coeffs[p] != 0]
    if len(ps) < 2 or ps[-1] - ps[-2] != 1:
        raise ValueError("need two consecutive nonzero coefficients")
    p = ps[-1]
    r_last = float(coeffs[p] / coeffs[p - 1])
    return r_last / (1.0 - 3.0 / p + 1.0 / (p * math.log(p)))