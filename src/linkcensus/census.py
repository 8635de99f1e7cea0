"""Counting sequences, coefficient asymptotics, and the constants table.

This is the reporting layer: it assembles the sequences produced elsewhere
(closed forms, the enumeration oracle, the implicit flype branch) into named
`CountingSequence` objects, estimates growth constants and exponents from
their coefficients by the ratio method with Richardson extrapolation, and
emits the side-by-side table of critical constants.

Estimation here is deliberately auditable: an `AsymptoticEstimate` carries
the full extrapolant sequence, and the headline number is simply its last
entry.  Exact singularity locations are certified algebraically in the
generating-function modules; the estimates below only corroborate them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, asdict
from fractions import Fraction

import sympy as sp

from . import abab, flype, onematrix, oracle
from .series import Series, rational_to_str

__all__ = [
    "CountingSequence",
    "AsymptoticEstimate",
    "ComponentTable",
    "ConstantRow",
    "ratio_asymptotics",
    "component_decomposition",
    "constants_report",
    "reduced_cubic_growth",
    "raw_growth",
    "sequence_from_series",
    "raw_link_diagrams",
    "reduced_link_diagrams",
    "reduced_tangles",
    "flype_tangle_classes",
    "oracle_link_diagrams",
    "load_external_sequence",
    "sequences_to_csv",
    "sequences_to_json",
    "constants_to_csv",
    "constants_to_json",
]

_PROVENANCES = ("closed-form", "oracle", "implicit-solve", "external")


@dataclass(frozen=True)
class CountingSequence:
    """A named coefficient sequence indexed by crossing number."""

    name: str
    coefficients: tuple  # Fraction per crossing number, starting at p = 0
    provenance: str

    def __post_init__(self) -> None:
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(
            self, "coefficients", tuple(Fraction(c) for c in self.coefficients)
        )

    def __len__(self) -> int:
        return len(self.coefficients)


def sequence_from_series(name: str, series: Series, provenance: str) -> CountingSequence:
    return CountingSequence(name, tuple(series.coeffs), provenance)


def raw_link_diagrams(order: int) -> CountingSequence:
    return sequence_from_series(
        "raw-link-diagrams", onematrix.free_energy_raw_series(order), "closed-form"
    )


def reduced_link_diagrams(order: int) -> CountingSequence:
    return sequence_from_series(
        "reduced-link-diagrams", onematrix.free_energy_reduced_series(order), "closed-form"
    )


def reduced_tangles(order: int) -> CountingSequence:
    return sequence_from_series(
        "reduced-tangles", onematrix.gamma_reduced_series(order), "closed-form"
    )


def flype_tangle_classes(order: int) -> CountingSequence:
    return sequence_from_series(
        "flype-tangle-classes", flype.gamma_tilde(order), "implicit-solve"
    )


def oracle_link_diagrams(vmax: int, n: Fraction | int = 1, **kwargs) -> CountingSequence:
    return sequence_from_series(
        f"oracle-link-diagrams-n{n}", oracle.free_energy_series(vmax, n, **kwargs), "oracle"
    )


def load_external_sequence(path: str, name: str | None = None) -> CountingSequence:
    """Import a user-supplied CSV (columns p, count) for side-by-side display."""
    coeffs: dict = {}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            coeffs[int(row["p"])] = Fraction(row["count"])
    top = max(coeffs) if coeffs else 0
    seq = tuple(coeffs.get(p, Fraction(0)) for p in range(top + 1))
    return CountingSequence(name or path, seq, "external")


# ---------------------------------------------------------------------------
# ratio asymptotics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Growth constant and power-law exponent estimated from coefficients.

    ``diagnostics`` is the deepest Richardson extrapolant sequence for the
    growth constant; the headline ``growth`` is its last entry.
    """

    growth: float
    exponent: float
    ratios: tuple
    diagnostics: tuple


def _richardson(points, levels: int):
    """Eliminate successive 1/p corrections from a sequence of (p, value)."""
    ps = [float(p) for p, _ in points]
    vals = [float(v) for _, v in points]
    for m in range(1, levels + 1):
        if len(vals) < 2:
            break
        vals = [
            (ps[i] * vals[i] - (ps[i] - m) * vals[i - 1]) / m
            for i in range(1, len(vals))
        ]
        ps = ps[1:]
    return list(zip(ps, vals))


def ratio_asymptotics(seq: CountingSequence, levels: int = 4) -> AsymptoticEstimate:
    """Domb-Sykes ratio analysis with Richardson extrapolation.

    Coefficients must form a single run of strictly positive terms after
    leading zeros; at least six nonzero terms are required.  The exponent is
    taken from the limiting slope of the ratios against 1/p, divided by the
    growth estimate.
    """
    coeffs = seq.coefficients
    start = 0
    while start < len(coeffs) and coeffs[start] == 0:
        start += 1
    terms = coeffs[start:]
    if len(terms) < 6:
        raise ValueError(
            f"{seq.name}: ratio analysis needs at least 6 nonzero terms, got {len(terms)}"
        )
    for k, c in enumerate(terms):
        p = start + k
        if c == 0:
            raise ValueError(f"{seq.name}: zero coefficient at index {p}")
        if c < 0:
            raise ValueError(f"{seq.name}: negative/alternating coefficient at index {p}")
    ratios = [
        (start + k, float(terms[k] / terms[k - 1])) for k in range(1, len(terms))
    ]
    depth = min(levels, len(ratios) - 1)
    growth_tab = _richardson(ratios, depth)
    growth = growth_tab[-1][1]

    # slope of r_p against 1/p tends to growth * exponent
    slopes = []
    for i in range(1, len(ratios)):
        p1, r1 = ratios[i - 1]
        p0, r0 = ratios[i]
        slope = (r0 - r1) / (1.0 / p0 - 1.0 / p1)
        slopes.append((p0, slope))
    slope_tab = _richardson(slopes, min(levels, len(slopes) - 1)) if len(slopes) > 1 else slopes
    exponent = slope_tab[-1][1] / growth

    return AsymptoticEstimate(
        growth=growth,
        exponent=exponent,
        ratios=tuple(r for _, r in ratios),
        diagnostics=tuple(v for _, v in growth_tab),
    )


# ---------------------------------------------------------------------------
# component decomposition (replica columns)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentTable:
    """Coefficients of the link count stratified by number of components.

    ``by_order[p][k]`` is the weight of diagrams with p crossings whose link
    has exactly k components; column k = 1 is the knot-diagram series.
    """

    by_order: dict

    def component_series(self, k: int) -> tuple:
        top = max(self.by_order) if self.by_order else 0
        return tuple(
            self.by_order.get(p, {}).get(k, Fraction(0)) for p in range(top + 1)
        )

    def knots(self) -> tuple:
        return self.component_series(1)

    def evaluate(self, n: Fraction | int) -> tuple:
        n = Fraction(n)
        top = max(self.by_order) if self.by_order else 0
        return tuple(
            sum((c * n**k for k, c in self.by_order.get(p, {}).items()), Fraction(0))
            for p in range(top + 1)
        )


def component_decomposition(order: int, *,
                            ceiling: int = oracle.DEFAULT_CEILING) -> ComponentTable:
    """Stratify the oracle's diagram counts by number of link components."""
    polys = oracle.free_energy_polynomials(order, ceiling=ceiling)
    return ComponentTable(by_order={0: {}, **polys})


# ---------------------------------------------------------------------------
# the constants table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantRow:
    name: str
    paper_value: object        # float, or a formula string for metadata rows
    computed_value: float | None
    abs_error: float | None
    anchor: str
    kind: str = "computed"     # "computed" | "conjecture"


def raw_growth() -> float:
    """Growth of raw diagram counts: reciprocal of the branch point of a^2."""
    return float(1 / onematrix.RAW_CRITICAL_G)


def reduced_cubic_growth() -> tuple:
    """Reduced-count growth from the discriminant of the endpoint cubic.

    Returns (g_c as Fraction, growth as float); the smallest positive root of
    the discriminant in the endpoint variable locates the fold of the branch.
    """
    g, y = sp.symbols("g y")
    cubic = (y - 1) * (4 - y) ** 2 - 27 * g
    disc = sp.discriminant(cubic, y)
    roots = [r for r in sp.solve(sp.Eq(disc, 0), g) if r.is_real and r > 0]
    g_c = min(roots)
    return Fraction(int(sp.numer(g_c)), int(sp.denom(g_c))), float(1 / g_c)


def constants_report(reduced_terms: int = 12) -> list:
    """Every headline constant, computed here, next to its reference value."""
    rows = []

    growth_raw = raw_growth()
    rows.append(ConstantRow(
        name="raw-growth",
        paper_value=12.0,
        computed_value=growth_raw,
        abs_error=abs(growth_raw - 12.0),
        anchor="branch point of the raw endpoint parameter",
    ))

    g_c_red, growth_red = reduced_cubic_growth()
    rows.append(ConstantRow(
        name="reduced-growth",
        paper_value=6.75,
        computed_value=growth_red,
        abs_error=abs(growth_red - 6.75),
        anchor="fold of the endpoint cubic (g_c = 4/27)",
    ))

    est = ratio_asymptotics(reduced_link_diagrams(reduced_terms))
    rows.append(ConstantRow(
        name="reduced-growth-ratio-estimate",
        paper_value=6.75,
        computed_value=est.growth,
        abs_error=abs(est.growth - 6.75),
        anchor=f"Domb-Sykes ratios of {reduced_terms} reduced-count coefficients",
    ))

    sing = flype.flype_singularity()
    flype_paper = (101.0 + math.sqrt(21001.0)) / 40.0
    rows.append(ConstantRow(
        name="flype-growth",
        paper_value=flype_paper,
        computed_value=sing.growth,
        abs_error=abs(sing.growth - flype_paper),
        anchor="smallest positive discriminant root of the flype quintic",
    ))
    rows.append(ConstantRow(
        name="flype-critical-coupling",
        paper_value=(math.sqrt(21001.0) - 101.0) / 270.0,
        computed_value=sing.g_critical,
        abs_error=abs(sing.g_critical - (math.sqrt(21001.0) - 101.0) / 270.0),
        anchor="root of 135 g^2 + 101 g - 20 certified on the counting branch",
    ))

    tc = abab.critical_constants()
    rows.append(ConstantRow(
        name="two-color-critical-coupling",
        paper_value=math.pi * (math.pi - 4.0) ** 2 / 16.0,
        computed_value=tc.g_critical,
        abs_error=abs(tc.g_critical - math.pi * (math.pi - 4.0) ** 2 / 16.0),
        anchor="two-color endpoint: g_c = pi (pi - 4)^2 / 16",
    ))
    rows.append(ConstantRow(
        name="two-color-growth",
        paper_value=6.91167,
        computed_value=tc.growth,
        abs_error=abs(tc.growth - 6.91167),
        anchor="reciprocal of the two-color critical coupling",
    ))
    rows.append(ConstantRow(
        name="two-color-coupling-identity",
        paper_value=1.0 / (4.0 * math.pi),
        computed_value=tc.g_critical / tc.t_critical**2,
        abs_error=abs(tc.g_critical / tc.t_critical**2 - 1.0 / (4.0 * math.pi)),
        anchor="g_c / t_c^2 at the two-color critical point",
    ))

    rows.append(ConstantRow(
        name="two-color-exponent-class",
        paper_value="p^-3 log p",
        computed_value=None,
        abs_error=None,
        anchor="expected coefficient decay class at the two-color point; "
               "not fitted from the few available terms",
        kind="conjecture",
    ))
    rows.append(ConstantRow(
        name="loop-weight-exponent-formula",
        paper_value="exponent -2 - 1/nu with n = -2 cos(pi nu), 0 < nu < 1",
        computed_value=None,
        abs_error=None,
        anchor="conjectured continuation in the loop weight n; "
               "recorded as metadata only, never used in any check",
        kind="conjecture",
    ))
    return rows


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def sequences_to_csv(sequences) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["name", "provenance", "p", "count"])
    for seq in sequences:
        for p, c in enumerate(seq.coefficients):
            writer.writerow([seq.name, seq.provenance, p, rational_to_str(c)])
    return out.getvalue()


def sequences_to_json(sequences) -> str:
    payload = [
        {
            "name": seq.name,
            "provenance": seq.provenance,
            "coefficients": [rational_to_str(c) for c in seq.coefficients],
        }
        for seq in sequences
    ]
    return json.dumps(payload, indent=2, sort_keys=True)


def constants_to_csv(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["name", "paper_value", "computed_value", "abs_error", "anchor", "kind"])
    for row in rows:
        writer.writerow([
            row.name,
            row.paper_value,
            "" if row.computed_value is None else repr(row.computed_value),
            "" if row.abs_error is None else f"{row.abs_error:.3e}",
            row.anchor,
            row.kind,
        ])
    return out.getvalue()


def constants_to_json(rows) -> str:
    return json.dumps([asdict(row) for row in rows], indent=2, sort_keys=True)
