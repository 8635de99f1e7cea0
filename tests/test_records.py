"""The package's records: read-only NamedTuples with value equality and the
``Name(field=value, ...)`` repr, and two normalizing classes."""

from fractions import Fraction

import pytest

from linkcensus.abab import CriticalConstants
from linkcensus.census import AsymptoticEstimate, ConstantRow, CountingSequence
from linkcensus.flype import FlypeSingularity
from linkcensus.oracle import CountTable, TwoPointTable, VertexType
from linkcensus.series import AlgebraicSystem, BivariatePoly, SeriesError

F = Fraction

RECORDS = [
    (VertexType, {"name": "crossing", "strand_pairs": ((0, 2), (1, 3))}),
    (CountTable, {"vertex_counts": (("crossing", 1),), "planar_only": True,
                  "connected_only": False, "cells": {(0, 2, True): 2}}),
    (TwoPointTable, {"num_vertices": 1, "cells": {(0, 1, 1): 4}}),
    (BivariatePoly, {"terms": (((0, 1), F(1)), ((1, 0), F(-1)))}),
    (FlypeSingularity, {"minimal_polynomial": (-20, 101, 135), "g_critical": 0.16,
                        "growth": 6.1, "fold_numeric": 0.16, "agreement": 0.0}),
    (AsymptoticEstimate, {"growth": 6.75, "exponent": -2.5, "ratios": (1.0, 2.0),
                          "diagnostics": (6.7, 6.75)}),
    (ConstantRow, {"name": "raw-growth", "paper_value": 12.0, "computed_value": 12.0,
                   "abs_error": 0.0, "anchor": "branch point", "kind": "computed"}),
    (CriticalConstants, {"g_critical": 0.1, "t_critical": 0.2, "growth": 10.0}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_read_only_values_with_field_reprs(cls, fields):
    record = cls(**fields)
    assert record._fields == tuple(fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record == cls(**fields)
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"


def test_constant_row_defaults_to_computed():
    row = ConstantRow("raw-growth", 12.0, 12.0, 0.0, "branch point")
    assert row.kind == "computed" and row._asdict()["kind"] == "computed"


def test_counting_sequence_holds_fractions():
    seq = CountingSequence("mixed", [1, "1/2", F(3, 4)])
    assert seq.coefficients == (F(1), F(1, 2), F(3, 4))
    assert all(type(c) is Fraction for c in seq.coefficients)
    assert len(seq) == 3


def test_algebraic_system_holds_a_fraction_branch_point():
    system = AlgebraicSystem(BivariatePoly.from_dict({(0, 1): 1, (0, 0): -1}), 1)
    assert type(system.branch_point) is Fraction and system.branch_point == 1
    with pytest.raises(SeriesError, match="exact rationals, got float"):
        AlgebraicSystem(system.relation, 1.0)


def test_bivariate_terms_are_sorted_nonzero_fraction_pairs():
    poly = BivariatePoly.from_dict({(1, 0): -1, (0, 2): F(0), (0, 1): 2})
    assert poly.terms == (((0, 1), F(2)), ((1, 0), F(-1)))
    assert all(type(c) is F for _, c in poly.terms)
