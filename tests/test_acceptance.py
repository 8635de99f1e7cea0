"""Acceptance gate: every headline requirement at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to watch them).  The
oracle checks of criterion 1 reach V = 6 under `oracle.CEILING`, and V = 7
where a test raises that constant for its own duration (planar searches,
about 7 s together); the totals of criterion 2 and the genus strata of
criterion 2b reach V = 5.  Tables are computed once per session and shared through the
module-level caches.  Only V = 6 of criteria 2 and 2b (about 20 s of
all-genus enumeration, one table for both, in one process on a 2-core VM)
stays behind the LINKCENSUS_SLOW_TESTS switch.
"""

import math
import os
from fractions import Fraction

import pytest

from linkcensus import abab, census, flype
from linkcensus import onematrix as om
from linkcensus import oracle as oc
from linkcensus.series import Series

F = Fraction
VMAX = 5
VDEEP = 6
VGATE = 7


def report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status} {label}" + (f" [{detail}]" if detail else ""), flush=True)
    assert ok, f"{label}: {detail}"


# -- 1. oracle vs closed forms, exact, V = 1..5 (two-point and tangles to 6) --------


def test_criterion_1_free_energy_oracle_equivalence():
    closed = om.free_energy_raw_series(VMAX)
    counted = oc.free_energy_series(VMAX)
    ok = closed == counted
    report("1a closed-diagram counts == oracle (V <= 5, exact rationals)", ok,
           f"closed {closed.coeffs} vs oracle {counted.coeffs}")


def test_criterion_1_two_point_oracle_equivalence():
    closed = om.g2_raw_series(VDEEP)
    counted = oc.g2_series(VDEEP)
    ok = closed == counted
    report("1b two-point counts == oracle (V <= 6, exact rationals)", ok,
           f"closed {closed.coeffs} vs oracle {counted.coeffs}")


def test_criterion_1_tangle_oracle_equivalence():
    closed = om.gamma_raw_series(VDEEP)
    counted = oc.gamma_series(VDEEP)
    ok = closed == counted
    report("1c connected-four-point counts == oracle (V <= 6, exact rationals)", ok,
           f"closed {closed.coeffs} vs oracle {counted.coeffs}")


def test_criterion_1_optional_v6_free_energy():
    closed = om.free_energy_raw_series(VDEEP)
    counted = oc.free_energy_series(VDEEP)
    report("1d closed-diagram counts == oracle at V = 6", closed == counted)


# criteria 1a-1c at V = 7, above the ceiling: planar searches only


@pytest.fixture
def gate_ceiling(monkeypatch):
    monkeypatch.setattr(oc, "CEILING", VGATE)


def test_criterion_1_free_energy_oracle_equivalence_v7(gate_ceiling):
    closed = om.free_energy_raw_series(VGATE)
    counted = oc.free_energy_series(VGATE)
    report("1a closed-diagram counts == oracle at V = 7", closed == counted,
           f"closed {closed.coeffs[VGATE]} vs oracle {counted.coeffs[VGATE]}")


def test_criterion_1_two_point_oracle_equivalence_v7(gate_ceiling):
    closed = om.g2_raw_series(VGATE)
    counted = oc.g2_series(VGATE)
    report("1b two-point counts == oracle at V = 7", closed == counted,
           f"closed {closed.coeffs[VGATE]} vs oracle {counted.coeffs[VGATE]}")


def test_criterion_1_tangle_oracle_equivalence_v7(gate_ceiling):
    closed = om.gamma_raw_series(VGATE)
    counted = oc.gamma_series(VGATE)
    report("1c connected-four-point counts == oracle at V = 7", closed == counted,
           f"closed {closed.coeffs[VGATE]} vs oracle {counted.coeffs[VGATE]}")


# -- 2. double-factorial totals ------------------------------------------------------


def test_criterion_2_double_factorial_totals():
    mismatches = []
    for V in range(1, VMAX + 1):
        total = oc.enumerate_pairings(V).total()
        expected = oc.double_factorial(4 * V - 1)
        if total != expected:
            mismatches.append((V, total, expected))
    report("2 all-pairings totals equal (4V-1)!! for V = 1..5", not mismatches,
           str(mismatches) if mismatches else "exact")


@pytest.mark.slow
def test_criterion_2_double_factorial_total_v6():
    total = oc.enumerate_pairings(VDEEP).total()
    expected = oc.double_factorial(4 * VDEEP - 1)
    report("2 all-pairings total equals (23)!! at V = 6", total == expected,
           f"{total} vs {expected}")


# -- 2b. genus strata ------------------------------------------------------------------


def _genus_series(order: int) -> dict:
    return {1: om.free_energy_genus1_series(order), 2: om.free_energy_genus2_series(order)}


def _connected_genus_sums(V: int) -> dict:
    """Connected all-genus cells of genus 1 and 2 summed over strands, over 4^V V!."""
    table = oc.enumerate_pairings(V)
    sums = {1: F(0), 2: F(0)}
    for (h, _strands, connected), count in table.cells.items():
        if connected and h in sums:
            sums[h] += F(count, table.wick_normalization())
    return sums


def test_criterion_2b_genus_strata():
    closed = _genus_series(VMAX)
    sums = [_connected_genus_sums(V) for V in range(1, VMAX + 1)]
    counted = {h: (F(0),) + tuple(by_genus[h] for by_genus in sums) for h in closed}
    ok = all(closed[h].coeffs == counted[h] for h in closed)
    report("2b connected genus-1 and genus-2 counts == E1, E2 for V = 1..5 (exact)", ok,
           "; ".join(f"genus {h}: " + ", ".join(map(str, counted[h][1:])) for h in closed))


@pytest.mark.slow
def test_criterion_2b_genus_strata_v6():
    closed = _genus_series(VDEEP)
    counted = _connected_genus_sums(VDEEP)
    ok = all(closed[h].coeffs[VDEEP] == counted[h] for h in closed)
    report("2b connected genus-1 and genus-2 counts == E1, E2 at V = 6", ok,
           "; ".join(f"genus {h}: {counted[h]} vs {closed[h].coeffs[VDEEP]}" for h in closed))


# -- 3. unit two-point constraint ----------------------------------------------------


def test_criterion_3_unit_two_point_series_identity():
    order = 10
    reduced = om.substitute_renormalized(
        om.g2_raw_series(order), om.t_series(order), legs=2)
    ok = reduced == Series.one(order)
    report("3 renormalized two-point function == 1 through order 10 (exact)", ok,
           str(reduced.coeffs))


# -- 4. growth constants ---------------------------------------------------------------


def test_criterion_4_raw_growth():
    growth = census.raw_growth()
    report("4a raw growth constant == 12 (algebraic)", growth == 12.0, f"{growth!r}")


def test_criterion_4_reduced_growth_exact_and_estimated():
    g_c, growth = census.reduced_cubic_growth()
    exact_ok = g_c == F(4, 27) and growth == 6.75
    est = census.ratio_asymptotics(census.reduced_link_diagrams(12))
    ratio_ok = abs(est.growth - 6.75) / 6.75 < 0.02
    report("4b reduced growth == 27/4 exact; 12-term ratio estimate within 2%",
           exact_ok and ratio_ok,
           f"exact g_c={g_c}, estimate={est.growth:.4f}")


def test_criterion_4_flype_growth():
    sing = flype.flype_singularity()
    target = (101 + math.sqrt(21001)) / 40
    exact_ok = abs(sing.growth - target) <= 1e-10
    fold_ok = sing.agreement <= 1e-8
    report("4c flype growth == (101+sqrt(21001))/40 to 1e-10; fold agrees to 1e-8",
           exact_ok and fold_ok,
           f"growth={sing.growth!r}, fold gap={sing.agreement:.2e}")


def test_criterion_4_two_color_growth():
    cc = abab.critical_constants()
    growth_ok = abs(cc.growth - 6.91167) <= 1e-3
    identity_ok = abs(cc.g_critical / cc.t_critical**2 - 1 / (4 * math.pi)) <= 1e-12
    report("4d two-color growth matches 6.91167 to 1e-3 with coupling identity to 1e-12",
           growth_ok and identity_ok,
           f"growth={cc.growth!r}, identity residual={cc.identity_residual:.2e}")


# -- 5. flype-class series -------------------------------------------------------------


def test_criterion_5_flype_class_series():
    order = 100
    gt = flype.gamma_tilde(order)  # raises if the two routes disagree
    residual_zero = flype.flype_quintic().eval_series(gt).is_zero()
    integral = all(c.denominator == 1 and c > 0 for c in gt.coeffs[1:])
    gamma = om.gamma_reduced_series(order)
    dominated = all(gt.coeffs[p] <= gamma.coeffs[p] for p in range(order + 1))
    strict = any(gt.coeffs[p] < gamma.coeffs[p] for p in range(order + 1))
    report("5 flype-class series: zero residual, positive integers, dominated "
           "with strict deficit by order 100",
           residual_zero and integral and dominated and strict,
           f"counts={tuple(int(c) for c in gt.coeffs[:13])}...")


def test_criterion_5b_flype_coefficient_extrapolation():
    est = census.ratio_asymptotics(census.flype_tangle_classes(100))
    target = (101 + math.sqrt(21001)) / 40
    growth_gap = abs(est.growth - target)
    exponent_gap = abs(est.exponent + 2.5)
    report("5b 100-term ratio extrapolation of the flype classes: growth within 1e-6 "
           "of (101+sqrt(21001))/40, exponent within 1e-4 of -5/2",
           growth_gap <= 1e-6 and exponent_gap <= 1e-4,
           f"growth gap={growth_gap:.2e}, exponent={est.exponent!r}")


# -- 6. spectral density -----------------------------------------------------------------


def test_criterion_6_spectral_density_checks():
    worst = 0.0
    for i in range(20):
        g = 0.08 * i / 19
        worst = max(worst, abs(om.density_moment(g, 0) - 1.0))
        worst = max(worst, abs(om.density_moment(g, 2) - om.g2_raw(g)))
        worst = max(worst, abs(om.density_moment(g, 4) - om.g4_raw(g)))
    report("6 density normalization and moments 2/4 at 20 couplings to 1e-9",
           worst <= 1e-9, f"worst deviation {worst:.2e}")


# -- 7. replica decomposition --------------------------------------------------------------


def test_criterion_7_replica_decomposition():
    polys = oc.free_energy_polynomials(VMAX)
    polys_ok = all(
        polys[p] and all(c > 0 for c in polys[p].values()) and max(polys[p]) <= p + 1
        for p in range(1, VMAX + 1)
    )
    at_one = tuple([0] + [sum(polys[p].values()) for p in range(1, VMAX + 1)])
    n_one_ok = at_one == om.free_energy_raw_series(VMAX).coeffs
    # the coefficient of n^1: diagrams whose link has one component (knots)
    knots = tuple([0] + [polys[p].get(1, 0) for p in range(1, VMAX + 1)])
    knots_ok = len(knots) == VMAX + 1 and knots[1] == F(1, 2) and all(
        c > 0 for c in knots[1:])
    report("7 loop-weight polynomials with n=1 specialization exact and a "
           "knot column through p = 5",
           polys_ok and n_one_ok and knots_ok,
           f"knot column={knots}")


# -- 8. scope statement ------------------------------------------------------------------


def test_criterion_8_external_tables_out_of_scope():
    # large-scale published censuses are not reproduced here; the checks above
    # substitute exact oracle equivalence plus algebraic singularities. an
    # import hook exists for side-by-side display only and nothing asserts
    # against it.
    hook_exists = callable(census.load_external_sequence)
    nothing_external = all(
        row.anchor and "external" not in row.anchor for row in census.constants_report()
    )
    report("8 external census comparison is display-only (out of scope)",
           hook_exists and nothing_external)
