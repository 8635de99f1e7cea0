"""Exhaustive Wick-pairing enumeration over fat graphs.

This module is the ground truth of the package: it counts perfect matchings
("gluings") of the half-edges of labeled four-valent vertices, stratified by

* genus of the glued surface (faces are cycles of rotation∘matching),
* strand count (closed loops obtained by running straight through each
  vertex according to its strand pattern),
* connectivity,
* two-particle irreducibility (2PI) of connected four-point diagrams, on
  request, as a restriction to the diagrams that no pair of internal edges
  cuts into exactly two components carrying two legs each,

and exposes the counts as `CountTable` objects whose entries, divided by the
Wick normalization ``4^V V!`` per vertex type, are the exact coefficients of
the counting series cross-checked against the closed forms elsewhere in the
package.

Every table, for one vertex species or several, comes from one engine that
searches connected gluings only, maintaining the boundary structure of the
partially glued surface incrementally, with one gluing move.  Gluing two
half-edges on the same boundary cycle splits it (possibly completing
faces); gluing across two cycles merges them.  A fresh vertex is a new
boundary cycle of its four legs in a new component, so gluing to it merges
two components and adds no handle; across two cycles of the one component
grown so far a merge adds a handle, which is exactly the move the planar
mode prunes.  So planar mode looks for active partners only on the glued
half-edge's own boundary cycle, and only at odd steps along it: every cycle
starts even, a fresh vertex grows it by two, and an even step would split
it into two odd arcs, which no planar gluing can ever close.  The last
gluing is not made: once every vertex is placed, the two half-edges left
free end one strand segment, and their gluing is classified in place: it
closes one loop, and two faces if they share a ring or one if not.  A
closed table with vacuum components is not searched: it follows from the
connected tables of its vertex content and of every smaller one by the
labeled first-block recursion (the exponential formula), in which the
component holding the lowest label is one connected block.  Nor is the
connected four-point part (the tangles): a planar four-leg diagram that is not
connected is two two-leg diagrams on a non-crossing split of the legs, so
its cells are the four-leg cells less products of two-leg cells, and a
cell that goes negative raises `ArithmeticError`.  The Wick
factor ``4^V V!`` per species is a symmetry the search divides out as it
goes: the not-yet-touched labeled vertices of one species are
interchangeable (the ``V!``), so touching one branches once per species with
an integer multiplicity instead of once per label; and the rotations of a
vertex that preserve its strand wiring (all four for a crossing, the
half-turn for a tangency; the ``4^V``) map the completions of one glued leg
onto those of another, so a fresh vertex is glued once per rotation orbit of
its legs, weighted by the orbit size.  Neither changes any invariant of the
completions.  The tests check the engine cell for cell against a plain
engine that classifies every matching from scratch.

Enumeration runs in one process, in one depth-first search per connected
table, whose recursion returns the cells of each node's subtree, counted
from that node, for its parent to shift and weight.  A cell packs its
faces, internal loops and boundary loops into one integer, so shifting a
cell is one addition.  A transposition table memoizes the recursion, so
each distinct open boundary is expanded once: the key holds the boundary
rings of the active free half-edges, their pairing into open strand
segments with each segment's external flag, and the untouched vertices of
each wiring, and a table entry is what the recursion returns for that
state; it is stored only once its subtree is whole.  2PI, whose leaf test
reads the whole matching, has no table.  The genus, with its Euler parity
check, is read once per distinct cell of the root at the end of the search.
Since a subtree's cells depend on nothing above its node, and the key names
the untouched vertices by their wiring, one table per mode serves every
search for the life of the process, whatever its wirings, V and legs, so
each search reuses the boundaries that earlier ones expanded;
``_search_table.cache_clear()`` frees the tables.
The cells of each search, and each closed table built from them, are
cached for the life of the process, keyed by the search's own arguments
(so by the vertex wiring, not the type name), and every table built from
them shares one read-only ``cells`` mapping.

One counting convention worth stating: a planar gluing already stands for
the two diagrams related by swapping every over/under choice, so the counts
here carry no additional factor of two and consumers must not divide again.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, prod
from types import MappingProxyType

from .series import Series

__all__ = [
    "CeilingError",
    "VertexType",
    "CountTable",
    "TwoPointTable",
    "CROSSING",
    "TANGENCY",
    "CEILING",
    "enumerate_pairings",
    "two_point_table",
    "free_energy_polynomials",
    "free_energy_series",
    "g2_series",
    "g4_series",
    "gamma_series",
    "twopi_gamma_series",
    "count_table_csv",
    "double_factorial",
]

# the most vertices any table is enumerated at; read at call time, so a run
# that means to go further raises it for its own duration.  Raising it also
# grows the transposition tables, about 7x per V, and they outlive their
# searches until ``_search_table.cache_clear()`` frees them, one table per
# mode shared by every wiring: crossing searches leave 5,398 states with
# 45,028 cells in the all-genus table after V = 6, and 32,178 states with
# 345,684 cells after V = 7, where the process peaks at 47 MB (Python
# 3.11); one that also builds the planar closed, two-leg and four-leg
# tables up to V = 8 keeps 72,746 more states in the planar table and
# peaks at 83 MB
CEILING = 6


class CeilingError(ValueError):
    """The requested vertex count exceeds `CEILING`, the enumeration ceiling.

    Every table builder and series builder raises it before any search.
    """

    def __init__(self, vertices: int, ceiling: int) -> None:
        super().__init__(vertices, ceiling)
        self.vertices = vertices
        self.ceiling = ceiling

    def __str__(self) -> str:
        return f"V = {self.vertices} exceeds the enumeration ceiling {self.ceiling}"


@dataclass(frozen=True)
class VertexType:
    """A four-valent vertex species: its name and strand wiring."""

    name: str
    strand_pairs: tuple  # pairing of the legs 0..3 into two through-strands


CROSSING = VertexType("crossing", ((0, 2), (1, 3)))
TANGENCY = VertexType("tangency", ((0, 1), (2, 3)))


@dataclass(frozen=True)
class CountTable:
    """Exact pairing counts for closed diagrams at fixed vertex content.

    ``cells`` maps ``(genus, strands, connected)`` to the number of labeled
    pairings; for disconnected entries the genus is the sum over components.
    It is read-only: the same mapping is handed to every caller.
    """

    vertex_counts: tuple  # ((type name, count), ...)
    planar_only: bool
    connected_only: bool
    cells: Mapping

    @property
    def num_vertices(self) -> int:
        return sum(c for _, c in self.vertex_counts)

    def total(self) -> int:
        return sum(self.cells.values())

    def wick_normalization(self) -> int:
        return prod(4**c * factorial(c) for _, c in self.vertex_counts)


@dataclass(frozen=True)
class TwoPointTable:
    """Counts for diagrams with one marked boundary carrying 2 or 4 legs.

    ``cells`` maps ``(genus, internal_strands, boundary_strands)`` to counts.
    A plain table holds every diagram whose internal components all touch
    the boundary; one built with ``gamma_only`` holds the connected
    four-point part (all four legs on one internal component), the plain
    cells less the two-leg pairs, and one also built with ``twopi`` only its
    2PI diagrams, those that no pair of internal edges cuts into exactly two
    components with two legs on each.  Like `CountTable.cells`, ``cells`` is
    read-only.
    """

    num_vertices: int
    cells: Mapping

    def coefficient(self, n: Fraction | int = 1, *, color_boundary: bool = False) -> Fraction:
        """Wick-normalized coefficient with loop weight ``n``.

        ``color_boundary`` also weights the loops running through the marked
        boundary (the color-summed four-point correlator); otherwise boundary
        loops carry weight 1 (a fixed external color).
        """
        n = Fraction(n)
        acc = Fraction(0)
        for (h, kin, kext), c in self.cells.items():
            weight = n ** (kin + kext) if color_boundary else n**kin
            acc += c * weight
        norm = 4**self.num_vertices * factorial(self.num_vertices)
        return acc / norm


def double_factorial(n: int) -> int:
    """(n)!! for odd n (the number of perfect matchings of n+1 points)."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# ---------------------------------------------------------------------------
# enumeration engine
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _search_table(planar_only) -> dict:
    """The transposition table shared by every `_fast_search` in this mode,
    for the life of the process (see `_fast_search` for why one serves every
    wiring set, V and legs); ``_search_table.cache_clear()`` frees both."""
    return {}


def _fast_search(legs, species, planar_only, twopi):
    """Incremental enumeration of connected gluings over labeled vertices of
    one or more species.

    ``species`` lists ``(strand_offsets, count)`` in label order: the first
    ``count`` labels carry the first wiring, and so on.  ``strand_offsets``
    encodes a wiring as a map of the legs 0..3 (e.g. crossings map
    j -> j+2 mod 4).  Untouched vertices of one wiring are interchangeable
    as labels, whichever species lists them, so touching a fresh vertex
    branches once per wiring with multiplicity equal to the number of its
    vertices still untouched.  They are also interchangeable under the
    rotations ``j -> j+k mod 4`` that preserve the wiring, so only one leg
    per rotation orbit is glued, with the orbit size as a further
    multiplicity (one orbit of 4 for a crossing, two orbits of 2 for a
    tangency).  A closed diagram (``legs=0``) starts
    on the lowest label, so on the first species with a nonzero count, with
    weight 1; every other vertex is reached by gluing, so the search counts
    only gluings without vacuum components.  Returns the cells dict.

    Each call of the recursion makes one gluing on entry and undoes it on
    exit, keeping:

    * the boundary cycles of the partial surface as doubly linked rings over
      the unmatched half-edges (``nxt``/``prv``), with faces counted from
      the adjacency of the two glued half-edges;
    * the open strand segments, each unmatched half-edge holding the other
      end of its own (``oth``) and its external flag (``sext``): gluing the
      two ends of one segment closes a loop, gluing two segments joins them.

    The rest of a node's state is two immutable arguments, which each child
    gets anew, so nothing undoes them:

    * ``free``, the tuple of the active free half-edges in id order: those
      of the legs and of the vertices touched so far.  The child of an
      active partner t gets it less s0 and t, and the child of a fresh
      vertex gets it less s0 and then the vertex's other three legs, whose
      ids exceed every active one, so the order holds;
    * ``tail``, the untouched vertices: each wiring that has any, as a
      negative code that no boundary entry of a key can equal, in code
      order, and its count.  The child of a fresh vertex gets it with that
      wiring's count one lower, and the pair dropped at zero.

    Every vertex's four legs start as a boundary ring of their own, in
    rotation order, in a component of their own.  Every active half-edge
    lies in the one component grown so far, so gluing inside one boundary
    cycle splits it, and gluing across two cycles merges them: a handle,
    which is what ``planar_only`` prunes, unless the other cycle is the ring
    of a fresh vertex, whose gluing joins two components and so adds no
    handle (the genus is read from the faces either way).  A gluing a-b
    reads its faces off ``nxt``: a and b neighbors on one ring close the
    face between them (two if they are the whole ring), and one alone on
    its ring closes a face if the other is alone too, and otherwise the
    other just leaves its ring; any other gluing splices the rings with four
    pointer writes, which split one ring into two arcs or merge two into one
    and close nothing.  No case writes a's or b's own pointers, so the undo
    reads the splice back from them.  The lowest free half-edge s0 is glued
    first; its partners are the rest of ``free``, or in planar mode only the
    members of its own boundary ring at odd steps from it (``nxt``,
    ``nxt^3``, ... up to ``prv``), and then one leg per rotation orbit of a
    fresh vertex.  A ring of n splits into arcs of k and
    n - 2 - k, and a fresh vertex adds 2, so an odd ring stays odd and never
    closes; every ring starts even, and the odd steps are exactly the
    gluings that keep both arcs even (a non-crossing matching on a cycle
    pairs points at odd distance).

    There is one leaf path: the last gluing.  With every vertex placed and
    two half-edges s0, t free, the search does not glue them but classifies
    the completion s0-t in place.  The two end the one open strand segment
    left, so it closes one loop, external by that segment's flag; and they
    are either a ring of 2, whose gluing closes two faces, or each alone on
    its ring, which closes one.  The root's cells are keyed by total faces,
    and the genus comes from them once per distinct cell at the end of the
    search: the Euler numerator is even on every gluing, so an odd one (a
    face miscounted) raises `ArithmeticError` rather than floor to a genus.
    With two free half-edges and vertices left, gluing them would close the
    component early, so only fresh vertices are tried.  Two marked legs and
    no vertex is a leaf at the root.

    ``twopi`` (four marked legs) keeps only the 2PI diagrams: the leaf
    completes the matching and keeps it if every leg is glued to a vertex
    and no pair of its internal edges cuts it into two components with two
    legs each.  A disconnected diagram always has such a pair (one cycle
    edge from each of its two components), so every one kept is a
    connected four-point diagram.  Closed cells are keyed
    ``(genus, strands, True)``, marked ones
    ``(genus, internal strands, boundary strands)``.

    Cells are packed integers, ``faces << 20 | internal loops << 10 |
    boundary loops``.  A gluing of V vertices closes fewer than 2V + 4 faces
    or loops, far below the 1,024 that would overflow a 10-bit field at any
    V that can be searched, so adding two packed cells adds their fields.
    Each call returns ``(shift, cells)``: the packed faces and loops that
    its own gluing closed, and the cells of the subtree below it relative to
    its node, unweighted, keyed by the faces and loops closed below it.  A
    parent merges each child's cells once, each shifted by one addition of
    the child's ``shift`` and times its multiplicity (1 for an active
    partner, the untouched count times the orbit size for a fresh vertex),
    so a table value is a dict of ints, which the cyclic collector does not
    track.  Many partial gluings leave the same open boundary: the same
    rings, the same strand ends and the same untouched vertices, and the
    rest of the search depends on that state alone, so a transposition table
    memoizes the recursion: a table entry is what ``rec`` returns for that
    state; it is stored only once its subtree is whole, so a search that
    raises leaves no partial entry.  The key holds, for each member of
    ``free`` in order, its ring successor and the other end of its strand
    segment (both as ranks in ``free``) and the segment's external flag,
    and then ``tail`` as it is.  Nothing below a node reads ``legs``, ``V``
    or the species but through its state: a fresh vertex's ids exceed every
    active one, every vertex is placed when the tail is empty, and the
    genus is read at the end from the search's own V and legs.  So the
    table outlives the call: every search in the same mode, of any wirings,
    V and legs, shares one (`_search_table`), and reuses the subtrees that
    earlier searches expanded, a mixed search those of single-wiring ones
    and back.
    ``twopi``, whose leaf test reads the whole matching, has no table.
    """
    V = sum(count for _, count in species)
    S = legs + 4 * V
    # the partner of each glued half-edge on the current path; only the 2PI
    # leaf test reads it, at a leaf, once it has stored the last gluing
    match = [-1] * S
    # the rings are built once: each vertex's legs in rotation order, and the
    # marked legs in order.  Every gluing is undone exactly, so a vertex's
    # ring is as built here whenever the search touches it.
    nxt = [0] * S
    prv = [0] * S
    for lo, n in ((0, legs), *((legs + 4 * i, 4) for i in range(V))):
        for k in range(n):
            nxt[lo + k] = lo + (k + 1) % n
            prv[lo + k] = lo + (k - 1) % n
    # strand segments: each unmatched half-edge ends an open one, whose
    # other end is ``oth`` and whose external flag both ends carry in ``sext``
    oth = [0] * S
    sext = [False] * S

    # each wiring by its code, a negative int that no boundary entry of a
    # key equals: the other end of each leg's strand, and the order nrot of
    # the rotations j -> j+k that keep it, a subgroup of Z4 whose orbits on
    # the legs are the residues mod 4 // nrot, each of nrot legs, so legs
    # 0 .. 4 // nrot - 1 stand for all.  ``untouched`` counts the vertices
    # of each wiring, species of one wiring together; ``lowest`` is the
    # wiring of the lowest label
    wirings = {}
    untouched = {}
    lowest = None
    for off, count in species:
        code = -1 - sum(o << 2 * j for j, o in enumerate(off))
        nrot = sum(all(off[(j + k) & 3] == (off[j] + k) & 3 for j in range(4))
                   for k in range(4))
        wirings[code] = off, nrot
        untouched[code] = untouched.get(code, 0) + count
        if count and lowest is None:
            lowest = code

    # the first active ring: the marked legs, or else the four legs of the
    # lowest label (weight 1); ``fresh`` is the first id past it, leg 0 of
    # the next vertex to touch
    fresh = legs
    if legs == 2:
        oth[:2] = 1, 0
        sext[:2] = True, True
    elif legs == 4:
        oth[:4] = 2, 3, 0, 1
        sext[:4] = True, True, True, True
    elif V:
        untouched[lowest] -= 1
        oth[:4] = wirings[lowest][0]  # its strands
        fresh = 4
    else:
        return {}
    # the untouched vertices as the key's tail: each wiring code that has
    # any, in code order, and their count, so not the label order
    tail = ()
    for code in sorted(untouched):
        if untouched[code]:
            tail += code, untouched[code]

    # the transposition table, from a state key to what ``rec`` returns for
    # that state: the cells of its subtree, counted from its node.  It is
    # shared with every search in this mode; 2PI, whose leaf test reads the
    # whole matching, has none.  ``rk`` ranks the active half-edges, for
    # the key and the partners
    table = None if twopi else _search_table(planar_only)
    rk = [0] * S

    def rec(a, b, fresh, free, tail,
            match=match, nxt=nxt, prv=prv, oth=oth, sext=sext,
            planar_only=planar_only, twopi=twopi,
            wirings=wirings, table=table, rk=rk):
        # the packed cell of the faces and loops that the gluing a-b itself
        # closes, returned beside the cells below it for the caller to shift
        # them by
        shift = 0
        if a >= 0:
            # ---- glue a-b (the root call, a = -1, glues nothing); what
            # this block binds is read back by the undo at the end, so the
            # rest of the body leaves those names alone ----
            match[a] = b
            match[b] = a
            # a-b closes the strand segment they both end (a loop) or
            # joins their two segments into one
            oa = oth[a]
            ob = oth[b]
            if oa == b:
                shift = 1 if sext[a] else 1 << 10
            else:
                oth[oa] = ob
                oth[ob] = oa
                if sext[a] != sext[b]:
                    sext[oa] = sext[ob] = True
            # boundary rings: a and b leave theirs, and the faces come
            # from their adjacency alone.  Neighbors close the face between
            # them (two if they are the whole ring); one alone on its ring
            # closes a face with the other alone, and otherwise the other
            # just leaves its ring; any other gluing splits one ring or
            # merges two with the same four writes, closing nothing
            pa = prv[a]
            sa = nxt[a]
            pb = prv[b]
            sb = nxt[b]
            if sa == b:
                if sb == a:
                    shift += 2 << 20
                else:
                    shift += 1 << 20
                    nxt[pa] = sb
                    prv[sb] = pa
            elif sb == a:
                shift += 1 << 20
                nxt[pb] = sa
                prv[sa] = pb
            elif sa == a:
                if sb == b:
                    shift += 1 << 20
                else:
                    nxt[pb] = sb
                    prv[sb] = pb
            elif sb == b:
                nxt[pa] = sa
                prv[sa] = pa
            else:
                nxt[pa] = sb
                prv[sb] = pa
                nxt[pb] = sa
                prv[sa] = pb

        # ---- the transposition table: the rest of the search depends on
        # this node's state alone, so each distinct state is expanded once.
        # The key: for each active half-edge in ``free``, its ring successor
        # and the other end of its strand segment, both as ranks in
        # ``free``, and its segment's external flag; then ``tail`` ----
        nfree = len(free)
        for i, f in enumerate(free):
            rk[f] = i
        sub = None
        if table is not None:
            key = []
            for f in free:
                key.append((rk[nxt[f]] * nfree + rk[oth[f]]) * 2 + sext[f])
            key = (*key, *tail)
            sub = table.get(key)
        if sub is None:
            sub = {}
            s0 = free[0]
            if nfree == 2 and not tail:
                # ---- the leaf: every vertex placed, and the last gluing
                # s0-t classified in place.  s0 and t end the one open strand
                # segment, so it closes one loop, external by its flag, and
                # two faces if they are a ring of 2, one if each is alone ----
                t = free[1]
                if not (twopi and _leaf_two_particle_reducible(s0, t)):
                    sub[(2 << 20 if nxt[s0] == t else 1 << 20)
                        + (1 if sext[s0] else 1 << 10)] = 1
            else:
                # each child's result, with its multiplicity
                kids = []
                # -- partners among the active half-edges, by their places
                # in ``free``: all past s0, or in planar mode those at odd
                # steps along s0's own boundary ring up to prv[s0] (a partner
                # on another cycle would add a handle, and one at an even
                # step would leave two odd arcs, which never close), ranked
                # before any child overwrites ``rk``.  With vertices left,
                # gluing the last two half-edges is a dead end --
                places = range(1, nfree) if nfree > 2 else ()
                if planar_only and places:
                    t = nxt[s0]
                    places = [rk[t]]
                    while t != prv[s0]:
                        t = nxt[nxt[t]]
                        places.append(rk[t])
                for i in places:
                    t = free[i]
                    child = free[1:i] + free[i + 1:]
                    kids.append((1, rec(s0, t, fresh, child, tail)))

                # -- partners on a fresh vertex: touch the next label, wire its
                # strands by a wiring that has untouched vertices, and glue s0
                # to one leg per orbit; the other three legs join ``free``
                # after every active one, and the wiring's count drops by
                # one in the child's tail --
                for k in range(0, len(tail), 2):
                    m = tail[k + 1]
                    off, nrot = wirings[tail[k]]
                    down = (tail[:k + 1] + (m - 1,) + tail[k + 2:] if m > 1
                            else tail[:k] + tail[k + 2:])
                    new = (fresh, fresh + 1, fresh + 2, fresh + 3)
                    oth[fresh] = fresh + off[0]
                    oth[fresh + 1] = fresh + off[1]
                    oth[fresh + 2] = fresh + off[2]
                    oth[fresh + 3] = fresh + off[3]
                    for j in range(4 // nrot):
                        child = free[1:] + new[:j] + new[j + 1:]
                        kids.append((m * nrot, rec(s0, fresh + j, fresh + 4, child, down)))

                # -- each child's cells, shifted by the faces and loops its
                # own gluing closed and weighted by its multiplicity --
                for w, (f, cells) in kids:
                    for cell, c in cells.items():
                        cell += f
                        sub[cell] = sub.get(cell, 0) + w * c
            # stored only once whole, so a search that raises leaves no
            # partial entry
            if table is not None:
                table[key] = sub

        if a >= 0:
            # ---- undo the gluing ----
            nxt[prv[a]] = a
            prv[nxt[a]] = a
            nxt[prv[b]] = b
            prv[nxt[b]] = b
            if oa != b:
                oth[oa] = a
                oth[ob] = b
                sext[oa] = sext[a]
                sext[ob] = sext[b]
        return shift, sub

    def _leaf_two_particle_reducible(x, y) -> bool:
        # with the leaf's last gluing x-y made: is a leg glued to a leg, or
        # is there a pair of internal edges whose removal leaves exactly two
        # components with two legs on each?  That also drops
        # every other disconnected diagram: its two internal components
        # carry two legs each, so each has 2v - 1 edges on v vertices and a
        # cycle, and removing one cycle edge from each leaves both whole.
        # Half-edge s is on vertex (s - legs) // 4, which is -1 for a leg
        match[x], match[y] = y, x
        edges = [((s - legs) // 4, (match[s] - legs) // 4)
                 for s in range(legs, S) if s < match[s]]
        leg_at = [(match[e] - legs) // 4 for e in range(legs)]
        if -1 in leg_at:
            return True
        for i, j in combinations(range(len(edges)), 2):
            parent = list(range(V))
            comps = V
            for u, v in edges[:i] + edges[i + 1:j] + edges[j + 1:]:
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                if u != v:
                    parent[u] = v
                    comps -= 1
            if comps == 2:
                sides = []
                for u in leg_at:
                    while parent[u] != u:
                        u = parent[u]
                    sides.append(u)
                if sides.count(sides[0]) == 2:
                    return True
        return False

    return _genus_cells(rec(-1, -1, fresh, tuple(range(fresh)), tail)[1], legs, V)


def _genus_cells(by_faces, legs, V):
    """A search's cells, keyed by the packed total faces and loops its leaves
    recorded, keyed by genus instead.  The Euler numerator 2 - chi is even on
    every gluing, so an odd one means a face was miscounted."""
    E = (legs + 4 * V) // 2
    cells = {}
    for cell, count in by_faces.items():
        faces, kint, kext = cell >> 20, cell >> 10 & 1023, cell & 1023
        euler = 2 + V - faces if legs == 0 else 1 - V + E - faces
        if euler & 1:
            raise ArithmeticError(f"odd Euler numerator {euler} at a leaf: "
                                  "a face count is off by one")
        cells[(euler // 2, kint, True) if legs == 0 else (euler // 2, kint, kext)] = count
    return cells


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cached_cells(legs, species, planar_only, twopi) -> Mapping:
    """`_fast_search` memoized by its own arguments, as sorted read-only cells."""
    cells = _fast_search(legs, species, planar_only, twopi)
    return MappingProxyType(dict(sorted(cells.items())))


@lru_cache(maxsize=None)
def _gamma_cells(off, V) -> Mapping:
    """The connected four-point cells of ``V`` vertices of wiring ``off``
    (planar), as sorted read-only cells: the four-leg cells less the
    disconnected ones.

    A planar four-leg diagram that is not connected is two two-leg diagrams,
    one on each side of a non-crossing split of the legs ({0, 1} | {2, 3} or
    {1, 2} | {3, 0}), with j of the V labels on one side; the external
    strands join them into one boundary loop.  So each pair of two-leg cells
    at j and V - j, times 2 C(V, j), comes off the cell (0, internal loops
    of both, 1).  A cell that goes negative means a two-leg or four-leg
    count is wrong, and raises `ArithmeticError`.
    """
    cells = dict(_cached_cells(4, ((off, V),), True, False))
    for j in range(V + 1):
        ways = 2 * comb(V, j)
        for (_h, k1, _e), c1 in _cached_cells(2, ((off, j),), True, False).items():
            for (_h, k2, _e), c2 in _cached_cells(2, ((off, V - j),), True, False).items():
                key = (0, k1 + k2, 1)
                cells[key] = cells.get(key, 0) - ways * c1 * c2
    if any(c < 0 for c in cells.values()):
        raise ArithmeticError(f"negative connected four-point count at V = {V}: "
                              "a two-leg or four-leg count is off")
    return MappingProxyType({key: c for key, c in sorted(cells.items()) if c})


@lru_cache(maxsize=None)
def _closed_cells(species, planar_only) -> Mapping:
    """Every closed gluing, vacuum components included, as sorted read-only cells.

    Built from connected tables by the labeled first-block recursion (the
    exponential formula of the free energy): the component holding the
    lowest label, of the first species i with vertices, holds j_i >= 1 of
    the m_i vertices of species i, chosen in C(m_i - 1, j_i - 1) ways, and
    j_k of the m_k of each other species k, chosen in C(m_k, j_k) ways.  It
    is a connected gluing of that content; the rest is any closed gluing of
    the remaining vertices.  Genus and strand count add across the blocks,
    so a planar table convolves planar connected tables.  ``species`` is as
    for `_fast_search`; counts of 0 are allowed.
    """
    wirings = tuple(off for off, _ in species)

    def connected(counts):
        content = tuple((off, c) for off, c in zip(wirings, counts) if c)
        return _cached_cells(0, content, planar_only, False)

    @lru_cache(maxsize=None)
    def total(counts):
        """{(genus, strands): gluings} over every closed gluing of ``counts``."""
        if not any(counts):
            return {(0, 0): 1}
        i = next(k for k, c in enumerate(counts) if c)
        out: dict = {}
        for block in product(*(range(1 if k == i else 0, c + 1) for k, c in enumerate(counts))):
            ways = prod(comb(c - 1, j - 1) if k == i else comb(c, j)
                        for k, (c, j) in enumerate(zip(counts, block)))
            rest = total(tuple(c - j for c, j in zip(counts, block)))
            for (h1, k1, _conn), c1 in connected(block).items():
                for (h2, k2), c2 in rest.items():
                    key = (h1 + h2, k1 + k2)
                    out[key] = out.get(key, 0) + ways * c1 * c2
        return out

    counts = tuple(c for _, c in species)
    cells = dict(connected(counts))
    for (h, k), c in total(counts).items():
        c -= cells.get((h, k, True), 0)
        if c:
            cells[(h, k, False)] = c
    return MappingProxyType(dict(sorted(cells.items())))


def _strand_offsets(vertex_type: VertexType) -> tuple:
    off = [0] * 4
    for p, q in vertex_type.strand_pairs:
        off[p] = q
        off[q] = p
    return tuple(off)


def _check_ceiling(V: int) -> None:
    if V > CEILING:
        raise CeilingError(V, CEILING)


def enumerate_pairings(num_vertices: int, *, type_counts: dict | None = None,
                       planar_only: bool = False, connected_only: bool = False) -> CountTable:
    """Count every gluing of closed diagrams at the given vertex content.

    For crossings alone ``num_vertices`` suffices; otherwise pass
    ``type_counts``, mapping ``"crossing"`` and ``"tangency"`` to their
    counts.  Either way one search runs, with the species labeled in order
    of their type names.  ``planar_only`` restricts to genus zero (with
    pruning during the search), ``connected_only`` to single-component
    gluings.
    """
    if type_counts is None:
        type_counts = {CROSSING.name: num_vertices}
    types = {vt.name: vt for vt in (CROSSING, TANGENCY)}
    for name in type_counts:
        if name not in types:
            raise ValueError(f"unknown vertex type {name!r}: expected 'crossing' or 'tangency'")
    if any(count < 0 for count in type_counts.values()):
        raise ValueError("vertex type counts must be nonnegative")
    V = sum(type_counts.values())
    if V != num_vertices:
        raise ValueError("type_counts must sum to num_vertices")
    if V < 1:
        raise ValueError("enumeration needs V >= 1")
    _check_ceiling(V)
    active = [(types[name], count) for name, count in sorted(type_counts.items()) if count > 0]
    species = tuple((_strand_offsets(vt), c) for vt, c in active)
    if connected_only:
        cells = _cached_cells(0, species, planar_only, False)
    else:
        cells = _closed_cells(species, planar_only)
    counts = tuple((vt.name, count) for vt, count in active)
    return CountTable(vertex_counts=counts, planar_only=planar_only,
                      connected_only=connected_only, cells=cells)


def two_point_table(num_vertices: int, legs: int, *, twopi: bool = False,
                    gamma_only: bool = False) -> TwoPointTable:
    """Count planar gluings with one marked boundary carrying ``legs`` half-edges.

    Every marked series is planar, so the table holds genus zero only; the
    search prunes the rest.

    ``gamma_only`` keeps only connected four-point diagrams and needs the
    four-leg boundary: the plain four-leg cells less the disconnected ones,
    which are products of two two-leg tables (`_gamma_cells`).  ``twopi``
    needs ``gamma_only`` too: it keeps only the 2PI diagrams, from a
    four-leg search whose leaf drops a leg glued to a leg and tries every
    pair of internal edges as a cut, which drops the disconnected diagrams
    too.
    """
    if legs not in (2, 4):
        raise ValueError("the marked boundary carries 2 or 4 legs")
    if num_vertices < 0:
        raise ValueError("num_vertices must be nonnegative")
    if (gamma_only or twopi) and legs != 4:
        raise ValueError("gamma_only and twopi apply to the four-leg boundary")
    if twopi and not gamma_only:
        raise ValueError("twopi restricts connected four-point diagrams; pass gamma_only=True")
    _check_ceiling(num_vertices)
    off = _strand_offsets(CROSSING)
    if gamma_only and not twopi:
        cells = _gamma_cells(off, num_vertices)
    else:
        cells = _cached_cells(legs, ((off, num_vertices),), True, twopi)
    return TwoPointTable(num_vertices=num_vertices, cells=cells)


# ---------------------------------------------------------------------------
# series assembly
# ---------------------------------------------------------------------------


def free_energy_polynomials(vmax: int) -> dict:
    """Free-energy coefficients as polynomials in the loop weight n.

    Returns ``{V: {k: coefficient of n^k}}`` for 1 <= V <= vmax: the
    connected planar gluings with k strands, whose cells are all keyed
    ``(0, k, True)``, divided by 4^V V!.
    """
    _check_ceiling(vmax)
    out: dict = {}
    for V in range(1, vmax + 1):
        table = enumerate_pairings(V, planar_only=True, connected_only=True)
        norm = table.wick_normalization()
        out[V] = {k: Fraction(c, norm) for (_h, k, _conn), c in table.cells.items()}
    return out


def free_energy_series(vmax: int, n: Fraction | int = 1) -> Series:
    """Oracle free-energy series at loop weight ``n`` (exact)."""
    n = Fraction(n)
    coeffs = [Fraction(0)] * (vmax + 1)
    for V, poly in free_energy_polynomials(vmax).items():
        coeffs[V] = sum((c * n**k for k, c in poly.items()), Fraction(0))
    return Series.from_coeffs(coeffs, vmax)


def _marked_series(vmax: int, legs: int, n: Fraction | int = 1, *,
                   color_boundary: bool = False, gamma_only: bool = False,
                   twopi: bool = False) -> Series:
    """Planar marked-boundary coefficients at V = 0..vmax, as one series."""
    _check_ceiling(vmax)
    coeffs = [two_point_table(V, legs, gamma_only=gamma_only, twopi=twopi)
              .coefficient(n, color_boundary=color_boundary) for V in range(vmax + 1)]
    return Series.from_coeffs(coeffs, vmax)


def g2_series(vmax: int, n: Fraction | int = 1) -> Series:
    """Oracle two-point series with a fixed external color (planar)."""
    return _marked_series(vmax, 2, n)


def g4_series(vmax: int, n: Fraction | int = 1, *, color_boundary: bool = False) -> Series:
    """Oracle four-point series (planar).

    With ``color_boundary`` the boundary loops are also weighted by ``n``,
    which is the color-summed correlator whose quarter is d/dg of the free
    energy of the n-color model.
    """
    return _marked_series(vmax, 4, n, color_boundary=color_boundary)


def gamma_series(vmax: int) -> Series:
    """Oracle connected four-point (tangle) series, one color, planar."""
    return _marked_series(vmax, 4, gamma_only=True)


def twopi_gamma_series(vmax: int) -> Series:
    """Oracle series of two-particle-irreducible tangles (one color, planar)."""
    return _marked_series(vmax, 4, gamma_only=True, twopi=True)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def count_table_csv(tables) -> str:
    """Render count tables as CSV with one row per cell."""
    lines = ["V,vertex_type_counts,genus,strands,connected,count"]
    for table in tables:
        type_desc = ";".join(f"{name}={count}" for name, count in table.vertex_counts)
        for (genus, strands, connected), count in sorted(table.cells.items()):
            lines.append(
                f"{table.num_vertices},{type_desc},{genus},{strands},"
                f"{str(bool(connected)).lower()},{count}"
            )
    return "\n".join(lines) + "\n"
