"""Sequence assembly, ratio asymptotics, component columns, constants table."""

import json
from fractions import Fraction

import pytest

from linkcensus import census, oracle
from linkcensus import onematrix as om
from linkcensus.census import CountingSequence

F = Fraction


def geometric(base, terms):
    return CountingSequence("geometric", tuple(F(base) ** p for p in range(terms)),
                            "closed-form")


# -- ratio asymptotics --------------------------------------------------------


def test_geometric_growth_is_exact():
    est = census.ratio_asymptotics(geometric(5, 12))
    assert est.growth == pytest.approx(5.0, abs=1e-9)
    assert est.exponent == pytest.approx(0.0, abs=1e-6)


def test_synthetic_power_law():
    coeffs = tuple(F(4) ** p * F.from_float(p**-1.5) for p in range(1, 21))
    seq = CountingSequence("synthetic", (F(0),) + coeffs, "closed-form")
    est = census.ratio_asymptotics(seq)
    assert est.growth == pytest.approx(4.0, abs=1e-3)
    assert est.exponent == pytest.approx(-1.5, abs=0.1)


def test_reduced_diagram_growth_from_twelve_terms():
    est = census.ratio_asymptotics(census.reduced_link_diagrams(12))
    assert abs(est.growth - 6.75) / 6.75 < 0.02
    assert -4.5 < est.exponent < -2.5


def test_diagnostics_are_reported_in_full():
    est = census.ratio_asymptotics(geometric(3, 10))
    assert len(est.ratios) == 9
    assert est.growth == est.diagnostics[-1]


def test_zero_coefficient_is_named():
    seq = CountingSequence("gappy", (0, 1, 2, 0, 4, 5, 6, 7), "oracle")
    with pytest.raises(ValueError, match="index 3"):
        census.ratio_asymptotics(seq)


def test_alternating_sign_is_named():
    seq = CountingSequence("alternating", (0, 1, -2, 4, -8, 16, -32, 64), "oracle")
    with pytest.raises(ValueError, match="index 2"):
        census.ratio_asymptotics(seq)


def test_too_few_terms_rejected():
    with pytest.raises(ValueError, match="6 nonzero"):
        census.ratio_asymptotics(geometric(2, 5))


# -- sequences ----------------------------------------------------------------


def test_named_sequences_have_expected_heads():
    assert census.reduced_tangles(5).coefficients == (0, 1, 2, 6, 22, 91)
    assert census.flype_tangle_classes(5).coefficients == (0, 1, 2, 4, 10, 29)
    assert census.raw_link_diagrams(3).coefficients == (0, F(1, 2), F(9, 8), F(9, 2))


def test_flype_classes_never_exceed_diagram_counts():
    flype_seq = census.flype_tangle_classes(10)
    tangle_seq = census.reduced_tangles(10)
    assert all(a <= b for a, b in zip(flype_seq.coefficients, tangle_seq.coefficients))
    assert all(c.denominator == 1 for c in flype_seq.coefficients)


def test_unknown_provenance_rejected():
    with pytest.raises(ValueError):
        CountingSequence("x", (1, 2), "guesswork")


def test_external_sequence_loader(tmp_path):
    path = tmp_path / "external.csv"
    path.write_text("p,count\n1,1\n2,3\n4,17\n")
    seq = census.load_external_sequence(str(path), "imported")
    assert seq.provenance == "external"
    assert seq.coefficients == (0, 1, 3, 0, 17)


@pytest.mark.parametrize("text, message", [
    ("p,count\n1,1\n-2,5\n1,7\n", "line 3: negative p = -2"),
    ("p,count\n1,1\n2,5\n1,7\n", "line 4: repeated p = 1"),
    ("p,total\n1,1\n", r"line 1: need columns p and count, got \['p', 'total'\]"),
    ("count\n1\n", r"line 1: need columns p and count, got \['count'\]"),
    ("p,count\n1,1\n2\n", "line 3: unreadable row"),
    ("p,count\n1.5,1\n", "line 2: unreadable row"),
], ids=["negative-p", "repeated-p", "no-count-column", "no-p-column", "short-row",
        "non-integer-p"])
def test_external_sequence_loader_refuses_bad_rows(tmp_path, text, message):
    path = tmp_path / "external.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"external.csv, {message}"):
        census.load_external_sequence(str(path))


# -- component columns of the oracle's loop-weight polynomials ---------------------
# the coefficient of n^k at order p weighs the p-crossing diagrams whose link
# has exactly k components; column k = 1 is the knot-diagram series


def test_knot_column():
    polys = oracle.free_energy_polynomials(4)
    assert [polys[p].get(1, 0) for p in range(1, 5)] == [F(1, 2), F(1), F(7, 2), F(65, 4)]


def test_component_columns_vanish_beyond_strand_bound():
    polys = oracle.free_energy_polynomials(3)
    assert [polys[p].get(5, 0) for p in range(1, 4)] == [0, 0, 0]


def test_single_color_specialization_identity():
    polys = oracle.free_energy_polynomials(4)
    at_one = [0] + [sum(polys[p].values()) for p in range(1, 5)]
    assert at_one == list(om.free_energy_raw_series(4).coeffs)


# -- constants table ---------------------------------------------------------------


@pytest.fixture(scope="module")
def report():
    return census.constants_report()


def _row(report, name):
    return next(r for r in report if r.name == name)


def test_raw_growth_row(report):
    row = _row(report, "raw-growth")
    assert row.computed_value == 12.0
    assert row.abs_error == 0.0


def test_reduced_growth_row(report):
    row = _row(report, "reduced-growth")
    assert row.computed_value == pytest.approx(6.75, abs=1e-12)
    g_c, growth = census.reduced_cubic_growth()
    assert g_c == F(4, 27)
    assert growth == 6.75


def test_flype_growth_row(report):
    row = _row(report, "flype-growth")
    assert row.computed_value == pytest.approx(6.14793, abs=1e-5)
    assert row.abs_error < 1e-9


def test_two_color_rows(report):
    row = _row(report, "two-color-growth")
    assert row.computed_value == pytest.approx(6.9116, abs=1e-3)
    ident = _row(report, "two-color-coupling-identity")
    assert ident.abs_error < 1e-12


def test_conjecture_rows_are_flagged_and_unevaluated(report):
    for name in ("two-color-exponent-class", "loop-weight-exponent-formula"):
        row = _row(report, name)
        assert row.kind == "conjecture"
        assert row.computed_value is None
        assert row.abs_error is None


def test_ratio_estimate_row_is_close(report):
    row = _row(report, "reduced-growth-ratio-estimate")
    assert abs(row.computed_value - 6.75) / 6.75 < 0.02


# -- emitters -----------------------------------------------------------------------


def test_constants_csv_schema(report):
    text = census.constants_to_csv(report)
    header = text.splitlines()[0]
    assert header == "name,paper_value,computed_value,abs_error,anchor,kind"
    assert "flype-growth" in text


def test_constants_json_round_trip(report):
    payload = json.loads(census.constants_to_json(report))
    names = {row["name"] for row in payload}
    assert "two-color-growth" in names
    assert all(set(row) >= {"name", "paper_value", "computed_value", "abs_error", "anchor"}
               for row in payload)
