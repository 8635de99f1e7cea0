"""The exhaustive pairing enumerator: engines, stratification, series assembly."""

import gc
import math
import random
import sys
from fractions import Fraction
from functools import cache
from itertools import permutations

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
    table = oc.enumerate_pairings(1, type_counts={"tangency": 1, "crossing": 0})
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
    species = ((oc._strand_offsets(CROSSING), V),)
    fast = oc._cached_cells(legs, species, False, False)
    plain = _enumerate_plain((CROSSING.strand_pairs,) * V, legs)
    assert fast == _unflagged(plain)


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
THIRD = oc.VertexType("third", ((0, 3), (1, 2)))


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
    if planar:
        assert oc._gamma_cells(species[0][0], V) == gamma
    # the 2PI diagrams are some of the connected ones
    twopi = oc._fast_search(4, species, planar, True)
    assert all(0 < count <= gamma.get(key, 0) for key, count in twopi.items())
    if V <= 2:
        assert twopi == _twopi_reference((vertex_type.strand_pairs,) * V, planar)


# the third wiring stops at V = 2: its reference at V = 3 takes about 21 s
# (2,027,025 matchings, on a 2-core host), and the test below pins its
# tables to the tangency's, which are checked here at V = 3.  The other two
# share their references with the test above
@pytest.mark.parametrize("vertex_type,V", [
    pytest.param(vt, V, id=f"{V}-{vt.name}")
    for vt in WIRINGS + [THIRD] for V in range(3 if vt is THIRD else 4)
])
def test_gamma_cells_match_reference(vertex_type, V):
    """The tangle cells, the planar four-leg cells less 2 C(V, j) times each
    pair of two-leg cells at j and V - j, are the reference's planar
    connected four-leg cells, for each of the three wirings."""
    want = _slice(_reference(vertex_type, V, 4), lambda key: key[0] == 0)
    cells = oc._gamma_cells(oc._strand_offsets(vertex_type), V)
    assert cells == _unflagged(want, connected=True)
    assert list(cells) == sorted(cells)


def test_third_wiring_tables_are_the_tangency_tables():
    """The third wiring pairs the legs (0, 3), (1, 2): the tangency's (0, 1),
    (2, 3) turned by one leg.  Turning every vertex's legs relabels its
    half-edges and changes no gluing's faces or loops, so the two wirings
    give the same tables, cell for cell."""
    third, tangency = oc._strand_offsets(THIRD), oc._strand_offsets(TANGENCY)
    for legs in (0, 2, 4):
        for planar, vmax in ((True, 4), (False, 3)):
            for V in range(0 if legs else 1, vmax + 1):
                cells = oc._fast_search(legs, ((third, V),), planar, False)
                assert cells
                assert cells == oc._fast_search(legs, ((tangency, V),), planar, False)
    for V in range(4):
        assert oc._gamma_cells(third, V) == oc._gamma_cells(tangency, V)


# The all-genus search walks the whole free list: it never takes the planar
# ring walk (odd steps along the glued half-edge's ring) nor its refusals, so
# the genus-0 slice of its tables checks that pruning independently, at a V
# the reference engine cannot reach.  The tangency four-leg table takes about
# 2.2 s all genus (in one process on a 2-core host), so it runs only on
# request.
@pytest.mark.parametrize("vertex_type,legs", [
    pytest.param(vt, legs, id=f"{vt.name}-{mode}",
                 marks=pytest.mark.slow if vt is TANGENCY and legs == 4 else ())
    for vt in WIRINGS
    for mode, legs in [("closed", 0), ("leg2", 2), ("leg4", 4)]
])
def test_planar_search_equals_genus_zero_slice_at_v4(vertex_type, legs):
    species = ((oc._strand_offsets(vertex_type), 4),)
    full = oc._fast_search(legs, species, False, False)
    planar = oc._fast_search(legs, species, True, False)
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
    table = oc.enumerate_pairings(2, type_counts={"crossing": 1, "tangency": 1})
    assert table.total() == oc.double_factorial(7)
    planar_conn = {k: v for k, v in table.cells.items() if k[2] and k[0] == 0}
    assert planar_conn == {(0, 1, True): 20, (0, 2, True): 16}


# -- several vertex species in one search --------------------------------------------

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

    def table(a, b, connected_only):
        counts = {"crossing": a, "tangency": b}
        return oc.enumerate_pairings(a + b, type_counts=counts,
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


# -- the transposition table ---------------------------------------------------------

# every mode at a V the table has states to repeat in, for each wiring alone
# and mixed at V = 4; 2PI searches keep the table off, and stay listed to pin
# that, and the tangle rows rebuild the tangle cells from fresh two-leg and
# four-leg searches, which run with the table.  The other wirings at each
# mode's top V take 1-6 s apiece (on a 2-core host), so they run only on
# request
TABLE_CASES = [
    pytest.param(legs, tuple(V if k == i else 0 for k in range(3)), planar, twopi, gamma,
                 id=f"{vt.name}-{mode}-v{V}",
                 marks=pytest.mark.slow if vt is not CROSSING and V == vmax else ())
    for i, vt in enumerate((CROSSING, TANGENCY, THIRD))
    for mode, legs, planar, twopi, gamma, vmax in [
        ("closed-planar", 0, True, False, False, 6),
        ("closed-all", 0, False, False, False, 5),
        ("leg2-planar", 2, True, False, False, 5),
        ("leg4-planar", 4, True, False, False, 5),
        ("gamma-planar", 4, True, False, True, 5),
        ("twopi-planar", 4, True, True, False, 4),
    ]
    for V in range(1, vmax + 1)
] + [
    pytest.param(0, counts, planar, False, False,
                 id=f"mixed-{'-'.join(map(str, counts))}-{'planar' if planar else 'all'}")
    for counts in [(c, t, 4 - c - t) for c in range(5) for t in range(5 - c)]
    if sum(1 for count in counts if count) >= 2
    for planar in (True, False)
]


@pytest.mark.parametrize("legs,counts,planar,twopi,gamma", TABLE_CASES)
def test_transposition_table_keeps_every_cell(monkeypatch, legs, counts, planar, twopi, gamma):
    species = _species(counts)
    if gamma:
        # uncached, so that each build searches afresh
        monkeypatch.setattr(oc, "_cached_cells", oc._cached_cells.__wrapped__)
        (off, V), = [(off, count) for off, count in species if count]
        build = lambda: oc._gamma_cells.__wrapped__(off, V)
    else:
        build = lambda: oc._fast_search(legs, species, planar, twopi)
    with_table = build()
    monkeypatch.setattr(oc, "_search_table", lambda planar_only: None)
    assert build() == with_table


def test_search_recursion_has_no_cell_variables():
    """A comprehension or inner function in `rec` that read its locals would
    turn them into cell variables, read through one more indirection, and
    grow its frame; one such version ran a V = 7 search three times slower
    (9.6 s against 3.2 s)."""
    rec = next(code for code in oc._fast_search.__code__.co_consts
               if getattr(code, "co_name", None) == "rec")
    assert rec.co_cellvars == ()


def _table_grid(vplanar, vall, vmixed, vtwopi):
    """`_fast_search` argument sets: each wiring alone at legs 0, 2 and 4,
    planar to ``vplanar`` and all-genus to ``vall``; every pair of wirings
    mixed, in both label orders, to ``vmixed``; and 2PI to ``vtwopi``."""
    offs = [oc._strand_offsets(vt) for vt in (CROSSING, TANGENCY, THIRD)]
    grid = [(legs, ((off, V),), planar, False)
            for off in offs for legs in (0, 2, 4)
            for planar, vmax in ((True, vplanar), (False, vall))
            for V in range(vmax + 1)]
    grid += [(legs, ((p, a), (q, V - a)), planar, False)
             for p, q in permutations(offs, 2)
             for V in range(2, vmixed + 1) for a in range(1, V)
             for legs in (0, 2, 4) for planar in (True, False)]
    grid += [(4, ((offs[0], V),), planar, True)
             for V in range(vtwopi + 1) for planar in (True, False)]
    return grid


@pytest.mark.parametrize("sizes", [
    pytest.param((5, 3, 2, 3), id="small"),
    pytest.param((6, 4, 3, 4), id="large", marks=pytest.mark.slow),
])
def test_shared_tables_keep_every_cell(sizes):
    """Searches that share their transposition tables, in two shuffled
    orders, find the cells that each finds alone on fresh tables."""
    grid = _table_grid(*sizes)
    alone = []
    for args in grid:
        oc._search_table.cache_clear()
        alone.append(oc._fast_search(*args))
    for seed in (1, 2):
        order = list(range(len(grid)))
        random.Random(seed).shuffle(order)
        oc._search_table.cache_clear()
        for i in order:
            assert oc._fast_search(*grid[i]) == alone[i], grid[i]
    oc._search_table.cache_clear()


def test_repeated_search_finds_its_work_in_the_table():
    """A search run again expands no new state, and a planar search stores
    nothing in the all-genus table of its wirings."""
    off = oc._strand_offsets(CROSSING)
    oc._search_table.cache_clear()
    first = oc._fast_search(0, ((off, 4),), True, False)
    table = oc._search_table(True)
    size = len(table)
    assert size
    assert oc._fast_search(0, ((off, 4),), True, False) == first
    assert len(table) == size
    assert not oc._search_table(False)
    oc._search_table.cache_clear()
    oc._fast_search(4, ((off, 3),), True, True)
    assert oc._search_table.cache_info().currsize == 0


def test_table_values_are_untracked_by_the_collector():
    """Every memo value is a dict of packed integer cells, which the cyclic
    collector does not track, so its passes never walk the tables."""
    off = oc._strand_offsets(CROSSING)
    oc._search_table.cache_clear()
    oc._fast_search(2, ((off, 4),), True, False)
    oc._fast_search(0, ((off, 4),), False, False)
    for planar in (True, False):
        table = oc._search_table(planar)
        assert table
        for sub in table.values():
            assert type(sub) is dict and not gc.is_tracked(sub)
            assert all(type(cell) is int and type(c) is int for cell, c in sub.items())
    oc._search_table.cache_clear()


def test_wiring_sets_share_the_table():
    """The key names untouched vertices by their wiring, not by their label
    order, so a tangency search finds what a crossing/tangency search of
    larger content expanded, and still finds its own cells."""
    cross, tang = oc._strand_offsets(CROSSING), oc._strand_offsets(TANGENCY)
    args = (0, ((tang, 3),), False, False)
    oc._search_table.cache_clear()
    alone = oc._fast_search(*args)
    fresh = len(oc._search_table(False))
    oc._search_table.cache_clear()
    oc._fast_search(0, ((cross, 1), (tang, 3)), False, False)
    before = len(oc._search_table(False))
    assert oc._fast_search(*args) == alone
    assert len(oc._search_table(False)) - before < fresh
    oc._search_table.cache_clear()


def test_one_wiring_in_two_species_is_one_species():
    """The key tail counts the untouched vertices of one wiring together,
    whichever species lists them, so three crossings and one more search as
    four: the same cells, from states all in the table that four left."""
    off = oc._strand_offsets(CROSSING)
    for planar in (True, False):
        for legs in (0, 2, 4):
            oc._search_table.cache_clear()
            one = oc._fast_search(legs, ((off, 4),), planar, False)
            size = len(oc._search_table(planar))
            assert oc._fast_search(legs, ((off, 3), (off, 1)), planar, False) == one
            assert len(oc._search_table(planar)) == size, (legs, planar)
    oc._search_table.cache_clear()


class _Stop(Exception):
    pass


@pytest.mark.parametrize("k", [1, 7, 50, 200, 400])
def test_interrupted_search_leaves_the_table_sound(k):
    """A search stopped at its k-th `rec` call leaves only whole subtrees in
    the shared table: the same search run again on that table finds the
    cells of one on a fresh table."""
    args = (0, ((oc._strand_offsets(CROSSING), 5),), False, False)
    oc._search_table.cache_clear()
    fresh = oc._fast_search(*args)
    oc._search_table.cache_clear()
    calls = 0

    def stop_at_k(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "rec":
            calls += 1
            if calls == k:
                raise _Stop

    previous = sys.gettrace()
    sys.settrace(stop_at_k)
    try:
        with pytest.raises(_Stop):
            oc._fast_search(*args)
    finally:
        sys.settrace(previous)
    assert calls == k
    assert oc._fast_search(*args) == fresh
    oc._search_table.cache_clear()


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
    table = oc.enumerate_pairings(4, type_counts={"crossing": 4 - tangencies,
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


def test_vertex_types_are_named():
    with pytest.raises(ValueError, match="unknown vertex type 'third'"):
        oc.enumerate_pairings(2, type_counts={"crossing": 1, "third": 1})


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


def test_cached_cells_are_read_only():
    tables = [oc.enumerate_pairings(2), oc.two_point_table(2, 2)]
    for table in tables:
        key = next(iter(table.cells))
        with pytest.raises(TypeError):
            table.cells[key] = 99
    assert sum(oc.enumerate_pairings(2).cells.values()) == oc.double_factorial(7)
