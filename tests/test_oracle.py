"""The exhaustive pairing enumerator: engines, stratification, series assembly."""

import math
from fractions import Fraction
from functools import cache

import pytest

from linkcensus import abab
from linkcensus import onematrix as om
from linkcensus import oracle as oc
from linkcensus.oracle import CROSSING, TANGENCY
from linkcensus.series import Series, log_series
from reference import (
    _enumerate_plain,
    _four_leg_connected,
    _has_vacuum_component,
    _twopi_reference,
    _two_two_cut,
    classify_pairing,
    iter_pairings,
)

F = Fraction


# -- single-vertex ground truth ---------------------------------------------------


def test_single_crossing_table():
    table = oc.enumerate_pairings(1)
    assert table.cells == {(0, 1, True): 2, (1, 2, True): 1}
    assert table.total() == 3


def test_single_tangency_table():
    table = oc.enumerate_pairings(1, oc.VertexModel.generalized(),
                                  type_counts={"tangency": 1, "crossing": 0})
    assert table.cells == {(0, 1, True): 1, (0, 2, True): 1, (1, 1, True): 1}


@pytest.mark.parametrize("V", [1, 2, 3])
def test_double_factorial_totals(V):
    table = oc.enumerate_pairings(V)
    assert table.total() == oc.double_factorial(4 * V - 1)


def test_euler_characteristic_bounds():
    table = oc.enumerate_pairings(3)
    for (genus, strands, connected), count in table.cells.items():
        assert genus >= 0
        assert strands >= 1
        assert count > 0


# -- fast engine against the reference engine --------------------------------------


@pytest.mark.parametrize("V", [1, 2, 3])
def test_fast_matches_reference_closed(V):
    fast = oc.enumerate_pairings(V)
    plain = _enumerate_plain((CROSSING.strand_pairs,) * V, 0)
    assert fast.cells == dict(sorted(plain.items()))


def _unflagged(cells, connected=None):
    """Reference marked cells without their four-leg connectivity element:
    summed over it, or only those whose element equals ``connected``."""
    out = {}
    for (h, kin, kext, conn4), count in cells.items():
        if connected is None or conn4 == connected:
            key = (h, kin, kext)
            out[key] = out.get(key, 0) + count
    return out


@pytest.mark.parametrize("V,legs", [(0, 2), (1, 2), (2, 2), (0, 4), (1, 4), (2, 4)])
def test_fast_matches_reference_marked(V, legs):
    fast = oc.two_point_table(V, legs, planar_only=False)
    plain = _enumerate_plain((CROSSING.strand_pairs,) * V, legs)
    assert fast.cells == _unflagged(plain)


@pytest.mark.parametrize("V", [1, 2, 3])
def test_planar_mode_equals_genus_zero_slice(V):
    planar = oc.enumerate_pairings(V, planar_only=True)
    full = oc.enumerate_pairings(V)
    assert planar.cells == {k: v for k, v in full.cells.items() if k[0] == 0}


@pytest.mark.parametrize("V", [1, 2, 3])
def test_connected_mode_equals_connected_slice(V):
    conn = oc.enumerate_pairings(V, connected_only=True)
    full = oc.enumerate_pairings(V)
    assert conn.cells == {k: v for k, v in full.cells.items() if k[2]}


@pytest.mark.parametrize("n", [F(1), F(1, 2), F(2), F(3)])
def test_four_point_minus_gamma_is_two_point_pairs(n):
    """Planar, with a fixed external color, G4 - Γ = 2·G2²: a disconnected
    four-leg diagram is two two-point diagrams on the two non-crossing
    splits of the legs.  G4 comes from the plain four-leg search and Γ from
    gamma mode, so this checks the gamma seal prune past the reference
    engine's V <= 3."""
    vmax = 6
    g2 = oc.g2_series(vmax, n)
    pairs = g2 * g2
    for V in range(vmax + 1):
        g4 = oc.two_point_table(V, 4).coefficient(n)
        gamma = oc.two_point_table(V, 4, gamma_only=True).coefficient(n)
        assert g4 - gamma == 2 * pairs[V]


def test_disconnected_cells_from_connected_convolution():
    """Labeled first-block recursion rebuilds every cell from connected ones."""
    vmax = 4
    conn = {V: {k: v for k, v in oc.enumerate_pairings(V).cells.items() if k[2]}
            for V in range(1, vmax + 1)}

    def convolve(V):
        # all[V][cell] including disconnected, by splitting off vertex 0's block
        if V == 0:
            return {(0, 0): 1}
        out = {}
        for s in range(1, V + 1):
            ways = math.comb(V - 1, s - 1)
            for (h1, k1, _c), c1 in conn[s].items():
                for (h2, k2), c2 in convolve(V - s).items():
                    key = (h1 + h2, k1 + k2)
                    out[key] = out.get(key, 0) + ways * c1 * c2
        return out

    for V in range(1, vmax + 1):
        rebuilt = convolve(V)
        table = oc.enumerate_pairings(V)
        merged = {}
        for (h, k, _conn), c in table.cells.items():
            merged[(h, k)] = merged.get((h, k), 0) + c
        assert merged == rebuilt


# -- rotation-orbit branching against the reference engine, both wirings -----------

WIRINGS = [CROSSING, TANGENCY]


@cache
def _reference(vertex_type, V, legs):
    """Reference cells with no filter; every search mode is a slice of them."""
    return _enumerate_plain((vertex_type.strand_pairs,) * V, legs)


def _slice(cells, keep):
    return {key: count for key, count in cells.items() if keep(key)}


@pytest.mark.parametrize("vertex_type", WIRINGS, ids=lambda vt: vt.name)
@pytest.mark.parametrize("V,planar", [(1, False), (2, False), (3, False), (4, False),
                                      (1, True), (2, True), (3, True), (4, True)])
def test_orbit_engine_matches_reference_closed(vertex_type, V, planar):
    off = oc._strand_offsets(vertex_type)
    want = _reference(vertex_type, V, 0)
    if planar:
        want = _slice(want, lambda key: key[0] == 0)
    species = ((off, V),)
    assert oc._closed_cells(species, planar) == want
    assert oc._fast_search(0, species, planar, False) == _slice(want, lambda key: key[2])


@pytest.mark.parametrize("vertex_type", WIRINGS, ids=lambda vt: vt.name)
@pytest.mark.parametrize("V,legs", [(0, 2), (1, 2), (2, 2), (3, 2),
                                    (0, 4), (1, 4), (2, 4), (3, 4)])
@pytest.mark.parametrize("planar", [False, True])
def test_orbit_engine_matches_reference_marked(vertex_type, V, legs, planar):
    species = [(oc._strand_offsets(vertex_type), V)]
    want = _reference(vertex_type, V, legs)
    if planar:
        want = _slice(want, lambda key: key[0] == 0)
    assert oc._fast_search(legs, species, planar, False) == _unflagged(want)
    if legs == 2:
        return
    gamma = _unflagged(want, connected=True)
    assert oc._fast_search(4, species, planar, False, gamma_only=True) == gamma
    # the 2PI diagrams are some of the connected ones
    twopi = oc._fast_search(4, species, planar, True, gamma_only=True)
    assert all(0 < count <= gamma.get(key, 0) for key, count in twopi.items())
    if V <= 2:
        assert twopi == _twopi_reference((vertex_type.strand_pairs,) * V, planar)


# The all-genus search walks the whole free list: it never takes the planar
# ring walk (odd steps along the glued half-edge's ring) nor its refusals, so
# the genus-0 slice of its tables checks that pruning independently, at a V
# the reference engine cannot reach.  The tangency four-leg tables take about
# 4 s all genus (2.2 s plain, 1.8 s gamma, best of two runs in one process
# on a 2-core host), so they run only on request.
@pytest.mark.parametrize("vertex_type,legs,gamma", [
    pytest.param(vt, legs, gamma, id=f"{vt.name}-{mode}",
                 marks=pytest.mark.slow if vt is TANGENCY and legs == 4 else ())
    for vt in WIRINGS
    for mode, legs, gamma in [("closed", 0, False), ("leg2", 2, False),
                              ("leg4", 4, False), ("gamma", 4, True)]
])
def test_planar_search_equals_genus_zero_slice_at_v4(vertex_type, legs, gamma):
    species = ((oc._strand_offsets(vertex_type), 4),)
    full = oc._fast_search(legs, species, False, False, gamma)
    planar = oc._fast_search(legs, species, True, False, gamma)
    assert planar
    assert planar == _slice(full, lambda key: key[0] == 0)


def _four_leg_gluing(V, legs_at, edges):
    """The matching with leg e at vertex ``legs_at[e]`` and the given internal
    edges, each vertex handing out its half-edges in order."""
    matching = [-1] * (4 + 4 * V)
    free = [iter(range(4 + 4 * v, 8 + 4 * v)) for v in range(V)]
    ends = [(e, next(free[v])) for e, v in enumerate(legs_at)]
    ends += [(next(free[u]), next(free[v])) for u, v in edges]
    for a, b in ends:
        matching[a], matching[b] = b, a
    assert -1 not in matching
    assert _four_leg_connected(matching, 4, V) and not _has_vacuum_component(matching, 4, V)
    return tuple(matching)


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


# At V <= 3 the reference's 2PI comparison cannot tell its cut rule from a
# looser one: a side with one vertex and two legs has at most two edges
# across, and the count is always even.  These hand-built gluings can.
@pytest.mark.parametrize("V,legs_at,edges,cut", [
    # K4 with one leg at each vertex: every 2/2 split has 4 edges across
    (4, (0, 1, 2, 3), K4_EDGES, False),
    # two doubled edges joined by two edges: {0, 1} | {2, 3} is a two-edge cut
    (4, (0, 1, 2, 3), [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)], True),
    # a K4 core with a self-loop blob on two of its legs: the split
    # {4, 5} | core has two edges across, but its blob side is disconnected
    (6, (0, 1, 4, 5), K4_EDGES + [(2, 4), (3, 5), (4, 4), (5, 5)], False),
])
def test_reference_two_particle_cut_rule(V, legs_at, edges, cut):
    assert _two_two_cut(_four_leg_gluing(V, legs_at, edges), V) is cut


def test_relabeling_invariance_mixed_model():
    orders = [
        (CROSSING.strand_pairs, TANGENCY.strand_pairs, CROSSING.strand_pairs),
        (CROSSING.strand_pairs, CROSSING.strand_pairs, TANGENCY.strand_pairs),
        (TANGENCY.strand_pairs, CROSSING.strand_pairs, CROSSING.strand_pairs),
    ]
    tables = [_enumerate_plain(patterns, 0) for patterns in orders]
    assert tables[0] == tables[1] == tables[2]


def test_mixed_model_total_and_planar_cells():
    table = oc.enumerate_pairings(2, oc.VertexModel.generalized(),
                                  type_counts={"crossing": 1, "tangency": 1})
    assert table.total() == oc.double_factorial(7)
    planar_conn = {k: v for k, v in table.cells.items() if k[2] and k[0] == 0}
    assert planar_conn == {(0, 1, True): 20, (0, 2, True): 16}


# -- several vertex species in one search --------------------------------------------

THIRD = oc.VertexType("third", ((0, 3), (1, 2)))
SPLITS = [counts for V in (2, 3)
          for counts in [(c, t, V - c - t) for c in range(V + 1) for t in range(V + 1 - c)]
          if sum(1 for count in counts if count) >= 2]


def _species(counts):
    return tuple((oc._strand_offsets(vt), count)
                 for vt, count in zip((CROSSING, TANGENCY, THIRD), counts))


@cache
def _mixed_reference(counts):
    patterns = []
    for vt, count in zip((CROSSING, TANGENCY, THIRD), counts):
        patterns.extend([vt.strand_pairs] * count)
    return _enumerate_plain(tuple(patterns), 0)


@pytest.mark.parametrize("counts", SPLITS, ids=lambda counts: "-".join(map(str, counts)))
@pytest.mark.parametrize("planar", [False, True])
def test_species_engine_matches_reference(counts, planar):
    species = _species(counts)
    want = _mixed_reference(counts)
    if planar:
        want = _slice(want, lambda key: key[0] == 0)
    assert oc._closed_cells(species, planar) == want
    assert oc._fast_search(0, species, planar, False) == _slice(want, lambda key: key[2])
    # the counts do not depend on which species holds the lowest labels
    assert oc._closed_cells(species[::-1], planar) == want


@pytest.mark.parametrize("planar", [False, True])
def test_closed_search_counts_connected_gluings_only(planar):
    # vacuum components come from the first-block recursion, never the search
    for vt in (CROSSING, TANGENCY, THIRD):
        off = oc._strand_offsets(vt)
        for V in range(1, 5):
            cells = oc._fast_search(0, ((off, V),), planar, False)
            assert cells and all(connected for _h, _k, connected in cells)
    for counts in SPLITS:
        cells = oc._fast_search(0, _species(counts), planar, False)
        assert cells and all(connected for _h, _k, connected in cells)


def test_mixed_disconnected_cells_from_connected_convolution():
    """Two-species labeled first-block recursion: the block holding the
    lowest label (a crossing while any are left) rebuilds every cell."""
    vmax = 4
    model = oc.VertexModel.generalized()

    def table(a, b, connected_only):
        counts = {"crossing": a, "tangency": b}
        return oc.enumerate_pairings(a + b, model, type_counts=counts,
                                     connected_only=connected_only).cells

    contents = [(a, b) for a in range(vmax + 1) for b in range(vmax + 1 - a) if a + b]
    conn = {ab: table(*ab, True) for ab in contents}

    @cache
    def convolve(a, b):
        if a == b == 0:
            return {(0, 0): 1}
        out = {}
        for s, u in contents:
            if s > a or u > b:
                continue
            if a and not s:
                continue  # the lowest label is a crossing, so its block has one
            ways = math.comb(a - 1, s - 1) * math.comb(b, u) if a else math.comb(b - 1, u - 1)
            for (h1, k1, _c), c1 in conn[(s, u)].items():
                for (h2, k2), c2 in convolve(a - s, b - u).items():
                    key = (h1 + h2, k1 + k2)
                    out[key] = out.get(key, 0) + ways * c1 * c2
        return out

    for a, b in contents:
        merged = {}
        for (h, k, _conn), c in table(a, b, False).items():
            merged[(h, k)] = merged.get((h, k), 0) + c
        assert merged == convolve(a, b)


@pytest.mark.parametrize("n", [F(1), F(2), F(1, 2)])
def test_planar_cells_exponentiate_the_free_energy(n):
    """The exponential formula, by a series logarithm rather than the
    first-block recursion: the planar gluings of every content, vacuum
    components included, sum to exp of the planar free energy."""
    vmax = 6
    coeffs = [F(1)]
    for V in range(1, vmax + 1):
        cells = oc.enumerate_pairings(V, planar_only=True).cells
        coeffs.append(F(sum(c * n**k for (_h, k, _conn), c in cells.items()),
                        4**V * math.factorial(V)))
    free = log_series(Series.from_coeffs(coeffs, vmax))
    assert free == oc.free_energy_series(vmax, n)
    if n == 1:
        assert free == om.free_energy_raw_series(vmax)


@pytest.mark.parametrize("tangencies", [1, 2, 3])
def test_mixed_total_at_four_vertices(tangencies):
    table = oc.enumerate_pairings(4, oc.VertexModel.generalized(),
                                  type_counts={"crossing": 4 - tangencies,
                                               "tangency": tangencies})
    assert table.total() == oc.double_factorial(15)


# -- two-point tables and series -----------------------------------------------------


def test_two_point_coefficients_match_closed_forms():
    assert oc.g2_series(3) == om.g2_raw_series(3)
    assert oc.g4_series(3) == om.g4_raw_series(3)
    assert oc.gamma_series(3) == om.gamma_raw_series(3)


def test_boundary_strand_count_is_consistent():
    table = oc.two_point_table(2, 2)
    assert all(kext == 1 for (_h, _kin, kext) in table.cells)
    table4 = oc.two_point_table(2, 4)
    assert {kext for (_h, _kin, kext) in table4.cells} <= {1, 2}


def test_free_energy_polynomials_low_orders():
    polys = oc.free_energy_polynomials(4)
    assert polys[1] == {1: F(1, 2)}
    assert polys[2] == {1: F(1), 2: F(1, 8)}
    assert polys[3] == {1: F(7, 2), 2: F(1)}
    assert polys[4] == {1: F(65, 4), 2: F(57, 8), 3: F(1, 4)}


def test_loop_polynomials_positive_and_degree_bounded():
    polys = oc.free_energy_polynomials(4)
    for V, poly in polys.items():
        assert all(c > 0 for c in poly.values())
        assert max(poly) <= V + 1


def test_free_energy_specializations():
    assert oc.free_energy_series(4, n=1) == om.free_energy_raw_series(4)
    two_color = oc.free_energy_series(4, n=2)
    assert two_color.coeffs == (0, 1, F(5, 2), 11, 63)


def test_half_loop_weight_is_rational():
    series = oc.free_energy_series(3, n=F(1, 2))
    assert series[1] == F(1, 4)


def test_reduced_tangles_from_oracle_data_alone():
    order = 4
    t = om.solve_unit_two_point(oc.g2_series(order))
    reduced = om.substitute_renormalized(oc.gamma_series(order), t, legs=4)
    assert reduced == om.gamma_reduced_series(order)


def test_twopi_tangle_series_raw():
    assert oc.twopi_gamma_series(5).coeffs == (0, 1, 8, 60, 464, 3743)


def test_twopi_tangles_renormalize_to_skeleton_form():
    from linkcensus import flype

    order = 3
    t = om.solve_unit_two_point(oc.g2_series(order))
    reduced_2pi = om.substitute_renormalized(oc.twopi_gamma_series(order), t, legs=4)
    expected = flype.d_of_gamma(om.gamma_reduced_series(order))
    assert reduced_2pi == expected
    assert reduced_2pi.coeffs == (0, 1, 0, 0)


def test_twopi_tangles_renormalize_to_skeleton_form_deeper():
    from linkcensus import flype

    order = 5
    t = om.solve_unit_two_point(oc.g2_series(order))
    reduced_2pi = om.substitute_renormalized(oc.twopi_gamma_series(order), t, legs=4)
    assert reduced_2pi == flype.d_of_gamma(om.gamma_reduced_series(order))


# -- interfaces ----------------------------------------------------------------------


def test_ceiling_is_enforced_with_message():
    with pytest.raises(oc.CeilingError, match="ceiling 6"):
        oc.enumerate_pairings(7)
    with pytest.raises(oc.CeilingError):
        oc.two_point_table(9, 2)


@pytest.mark.parametrize("build", [
    oc.free_energy_polynomials,
    oc.free_energy_series,
    oc.g2_series,
    oc.g4_series,
    oc.gamma_series,
    oc.twopi_gamma_series,
    abab.renormalization,
    abab.two_color_series,
    lambda V: abab.two_color_series(V, reduced=True),
], ids=["free_energy_polynomials", "free_energy_series", "g2_series", "g4_series",
        "gamma_series", "twopi_gamma_series", "renormalization", "two_color_series",
        "two_color_series_reduced"])
def test_series_builders_refuse_beyond_the_ceiling_before_any_search(monkeypatch, build):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before refusing")

    monkeypatch.setattr(oc, "_fast_search", no_search)
    with pytest.raises(oc.CeilingError, match="V = 7 exceeds the enumeration ceiling 6"):
        build(7)
    # the ceiling is read at call time
    monkeypatch.setattr(oc, "CEILING", 2)
    with pytest.raises(oc.CeilingError, match="V = 3 exceeds the enumeration ceiling 2"):
        build(3)


def test_twopi_flag_needs_the_four_leg_boundary():
    with pytest.raises(ValueError, match="four-leg boundary"):
        oc.two_point_table(3, 2, twopi=True)
    with pytest.raises(ValueError, match="four-leg boundary"):
        oc.two_point_table(3, 2, gamma_only=True)
    with pytest.raises(ValueError, match="gamma_only=True"):
        oc.two_point_table(3, 4, twopi=True)


def test_twopi_table_keeps_the_2pi_part_of_the_gamma_table():
    assert oc.two_point_table(3, 4, gamma_only=True).coefficient(1) == 90
    assert oc.two_point_table(3, 4, gamma_only=True, twopi=True).coefficient(1) == 60


def test_vertex_model_validation():
    with pytest.raises(ValueError):
        oc.VertexModel((oc.VertexType("bad", ((0, 1), (1, 2))),))


def test_iter_pairings_counts():
    assert sum(1 for _ in iter_pairings(1)) == 3
    assert sum(1 for _ in iter_pairings(1, legs=2)) == 15


def test_classify_pairing_single_crossing():
    faces, kin, kext, comps = classify_pairing((1, 0, 3, 2), (CROSSING.strand_pairs,))
    assert (faces, kin, comps) == (3, 1, 1)


def test_csv_export_schema():
    table = oc.enumerate_pairings(1)
    text = oc.count_table_csv([table])
    lines = text.strip().split("\n")
    assert lines[0] == "V,vertex_type_counts,genus,strands,connected,count"
    assert "1,crossing=1,0,1,true,2" in lines
    assert "1,crossing=1,1,2,true,1" in lines


def test_cache_is_keyed_by_wiring_not_name():
    crossing = oc.enumerate_pairings(2)
    # a type named "crossing" but wired as a tangency must not get the cached crossing table
    odd = oc.VertexType("crossing", TANGENCY.strand_pairs)
    table = oc.enumerate_pairings(2, oc.VertexModel((odd,)))
    assert table.cells == oc.enumerate_pairings(2, oc.VertexModel((TANGENCY,))).cells
    assert table.cells != crossing.cells
    assert table.vertex_counts == (("crossing", 2),)
    # the same wiring under another name (and strand order) shares the counts, not the label
    renamed = oc.VertexType("x", ((3, 1), (2, 0)))
    table = oc.enumerate_pairings(2, oc.VertexModel((renamed,)))
    assert table.cells == crossing.cells
    assert table.vertex_counts == (("x", 2),)


def test_cached_cells_are_read_only():
    tables = [oc.enumerate_pairings(2), oc.two_point_table(2, 2)]
    for table in tables:
        key = next(iter(table.cells))
        with pytest.raises(TypeError):
            table.cells[key] = 99
    assert sum(oc.enumerate_pairings(2).cells.values()) == oc.double_factorial(7)
