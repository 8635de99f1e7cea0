"""Counting sequences, coefficient asymptotics, and the constants table.

This is the reporting layer: it assembles the sequences produced elsewhere
(closed forms, the enumeration oracle, the implicit flype branch) into named
`CountingSequence` objects, estimates growth constants and exponents from
their coefficients by the ratio method with Richardson extrapolation, and
emits the side-by-side table of critical constants.

Estimation here is deliberately auditable: an `AsymptoticEstimate` carries
the full extrapolant sequence, and the headline number is simply its last
entry.  Exact singularity locations are certified algebraically: the raw,
reduced and flype growth constants are reciprocals of the smallest positive
discriminant root of their polynomial relation (`flype.discriminant_root`),
and the estimates below only corroborate them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, asdict
from fractions import Fraction

from . import abab, flype, onematrix
from .series import BivariatePoly, Series

__all__ = [
    "CountingSequence",
    "AsymptoticEstimate",
    "ConstantRow",
    "ratio_asymptotics",
    "constants_report",
    "reduced_cubic_growth",
    "raw_growth",
    "sequence_from_series",
    "raw_link_diagrams",
    "reduced_link_diagrams",
    "reduced_tangles",
    "flype_tangle_classes",
    "load_external_sequence",
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


def load_external_sequence(path: str, name: str | None = None) -> CountingSequence:
    """Import a CSV (columns p, count) for display; a bad header or row raises ValueError."""
    coeffs: dict = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if not {"p", "count"} <= set(reader.fieldnames or ()):
            raise ValueError(f"{path}, line 1: need columns p and count, got {reader.fieldnames}")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            try:
                p, count = int(row["p"]), Fraction(row["count"])
            except (TypeError, ValueError):
                raise ValueError(f"{where}: unreadable row {row}") from None
            if p < 0 or p in coeffs:
                raise ValueError(f"{where}: {'repeated' if p in coeffs else 'negative'} p = {p}")
            coeffs[p] = count
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


def _rational_discriminant_root(relation: BivariatePoly) -> Fraction:
    """The certified smallest positive discriminant root of ``relation``.

    Its minimal polynomial ``c0 + c1 g`` must be linear; the root is -c0/c1.
    """
    _root, (c0, c1) = flype.discriminant_root(relation)
    return Fraction(-c0, c1)


def raw_growth() -> float:
    """Growth of raw diagram counts, certified from the raw endpoint relation.

    The discriminant of ``3 g y^2 - y + 1`` in y is 1 - 12 g, so the branch
    point is g_c = 1/12 and the growth 12.
    """
    return float(1 / _rational_discriminant_root(onematrix.raw_endpoint().relation))


def reduced_cubic_growth() -> tuple:
    """Reduced-count growth, certified from the reduced endpoint cubic.

    Returns (g_c as Fraction, growth as float); g_c = 4/27 is the smallest
    positive root of the cubic's discriminant in the endpoint variable, where
    the branch folds.
    """
    g_c = _rational_discriminant_root(onematrix.reduced_cubic().relation)
    return g_c, float(1 / g_c)


def constants_report(reduced_terms: int = 12) -> list:
    """Every headline constant, computed here, next to its reference value."""
    _g_c, growth_red = reduced_cubic_growth()
    est = ratio_asymptotics(reduced_link_diagrams(reduced_terms))
    sing = flype.flype_singularity()
    tc = abab.critical_constants()
    root21001 = math.sqrt(21001.0)
    computed = [
        ("raw-growth", 12.0, raw_growth(),
         "branch point of the raw endpoint parameter"),
        ("reduced-growth", 6.75, growth_red,
         "fold of the endpoint cubic (g_c = 4/27)"),
        ("reduced-growth-ratio-estimate", 6.75, est.growth,
         f"Domb-Sykes ratios of {reduced_terms} reduced-count coefficients"),
        ("flype-growth", (101.0 + root21001) / 40.0, sing.growth,
         "smallest positive discriminant root of the flype quintic"),
        ("flype-critical-coupling", (root21001 - 101.0) / 270.0, sing.g_critical,
         "root of 135 g^2 + 101 g - 20 certified on the counting branch"),
        ("two-color-critical-coupling", math.pi * (math.pi - 4.0) ** 2 / 16.0,
         tc.g_critical, "two-color endpoint: g_c = pi (pi - 4)^2 / 16"),
        ("two-color-growth", 6.91167, tc.growth,
         "reciprocal of the two-color critical coupling"),
        ("two-color-coupling-identity", 1.0 / (4.0 * math.pi),
         tc.g_critical / tc.t_critical**2,
         "g_c / t_c^2 at the two-color critical point"),
    ]
    rows = [ConstantRow(name=name, paper_value=paper, computed_value=value,
                        abs_error=abs(value - paper), anchor=anchor)
            for name, paper, value, anchor in computed]

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
