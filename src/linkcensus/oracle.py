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
two gluings are not made: once every vertex is placed and four half-edges
are free, each way to pair them is classified in place, its faces read off
the boundary rings and its loops off the strand segments.  A closed table
with vacuum components is not searched: it follows from the connected
tables of its vertex content and of every smaller one by the labeled
first-block recursion (the exponential formula), in which the component
holding the lowest label is one connected block.  The Wick
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
table.  The cells of each search, and each closed table built from them,
are cached for the life of the process, keyed by the search's own arguments
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
    "VertexModel",
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
# that means to go further raises it for its own duration
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
class VertexModel:
    """The vertex species available to the enumeration."""

    vertex_types: tuple

    def __post_init__(self) -> None:
        for vt in self.vertex_types:
            legs = sorted(leg for pair in vt.strand_pairs for leg in pair)
            if legs != [0, 1, 2, 3]:
                raise ValueError(f"vertex type {vt.name!r} does not wire 4 legs into 2 strands")

    @classmethod
    def one_matrix(cls) -> "VertexModel":
        """Single crossing-type vertex (quartic coupling)."""
        return cls((CROSSING,))

    @classmethod
    def generalized(cls) -> "VertexModel":
        """Crossing plus tangency vertices (two independent quartic couplings)."""
        return cls((CROSSING, TANGENCY))

    def by_name(self, name: str) -> VertexType:
        for vt in self.vertex_types:
            if vt.name == name:
                return vt
        raise KeyError(name)


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
    four-point part (all four legs on one internal component) and nothing
    else, and one also built with ``twopi`` only its 2PI diagrams, those
    that no pair of internal edges cuts into exactly two components with two
    legs on each.  Like `CountTable.cells`, ``cells`` is read-only.
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


def _fast_search(legs, species, planar_only, twopi, gamma_only=False):
    """Incremental enumeration of connected gluings over labeled vertices of
    one or more species.

    ``species`` lists ``(strand_offsets, count)`` in label order: the first
    ``count`` labels carry the first wiring, and so on.  ``strand_offsets``
    encodes a wiring as a map of the legs 0..3 (e.g. crossings map
    j -> j+2 mod 4).  Untouched vertices of one species are interchangeable
    as labels, so touching a fresh vertex branches once per species with
    multiplicity equal to the number of that species still untouched.  They
    are also interchangeable under the rotations ``j -> j+k mod 4`` that
    preserve the wiring, so only one leg per rotation orbit is glued, with
    the orbit size as a further multiplicity (one orbit of 4 for a crossing,
    two orbits of 2 for a tangency).  A closed diagram (``legs=0``) starts
    on the lowest label, so on the first species with a nonzero count, with
    weight 1; every other vertex is reached by gluing, so the search counts
    only gluings without vacuum components.  Returns the cells dict.

    Each call of the recursion makes one gluing on entry and undoes it on
    exit, with O(1) amortized rollback, keeping:

    * the boundary cycles of the partial surface as doubly linked rings over
      the unmatched half-edges (``nxt``/``prv``/``cyc``/``csz``), with faces
      counted as cycles empty out;
    * a sorted free list of every unmatched half-edge (``fnx``/``fpv``),
      whose first ``nfree`` members are the active ones: those of the legs
      and of the vertices touched so far, which have the lowest ids;
    * rollback union-find structures for internal components (``ipar``,
      gamma mode only) and strand segments (``spar``; closing a segment
      closes one loop).

    Every vertex's four legs start as a boundary ring of their own, in
    rotation order, in a component of their own.  Every active half-edge
    lies in the one component grown so far, so gluing inside one boundary
    cycle splits it, and gluing across two cycles merges them: a handle,
    which is what ``planar_only`` prunes, unless the other cycle is the ring
    of a fresh vertex, whose gluing joins two components and so adds no
    handle (the genus is read from the faces at the leaf either way).  The
    lowest free half-edge is glued first; its partners are the rest of the
    active free list, or in planar mode only the members of its own boundary
    ring at odd steps from it (``nxt``, ``nxt^3``, ...), and then one leg per
    rotation orbit of a fresh vertex.  A ring of n splits into arcs of k and
    n - 2 - k, and a fresh vertex adds 2, so an odd ring stays odd and never
    closes; every ring starts even, and the odd steps are exactly the
    gluings that keep both arcs even (a non-crossing matching on a cycle
    pairs points at odd distance).

    There is one leaf path: the last two gluings.  With every vertex
    placed and four half-edges s0, t, u, v free, the search does not glue
    s0 to each partner t but classifies each completion {s0-t, u-v} in
    place.  Its new faces are the cycles of ``nxt``∘matching on the four,
    read off the sizes of their rings: s0 and t on one ring of 4 close three
    if adjacent and one if opposite (a handle), and so on.  Its new loops are
    two if s0 and t end one strand segment, else one, each internal or
    external by the flags of the segments in it.  The Euler numerator of
    the genus is even on every gluing, so an odd one (a face miscounted)
    raises `ArithmeticError` rather than floor to a genus.  With two free
    half-edges and vertices left, gluing them would close the component
    early, so only fresh vertices are tried; two marked legs and no vertex,
    the one table that starts with two free half-edges, is answered before
    the search.

    ``gamma_only`` (four marked legs) keeps only gluings whose internal graph
    stays a single component carrying all four legs: leg-leg matches are
    skipped and a branch dies the moment an internal component runs out of
    free half-edges while anything else is still open.  Every surviving leaf
    is then a connected four-point diagram.  ``twopi`` (with ``gamma_only``)
    keeps only the 2PI ones: the leaf completes the matching and skips it if
    some pair of its internal edges cuts it into two components with two
    legs each.  Closed cells are keyed ``(genus, strands, True)``, marked
    ones ``(genus, internal strands, boundary strands)``.
    """
    V = sum(count for _, count in species)
    S = legs + 4 * V
    E = S // 2
    HEAD = S
    match = [-1] * S
    # ``vx`` maps a half-edge to its vertex (V for a marked leg), and the
    # rings are built once: each vertex's legs in rotation order with its
    # label as cycle id, the marked legs with id V.  Every gluing is undone
    # exactly, so a vertex's ring is as built here whenever the search
    # touches it; ids above V go to the rings that splitting gluings make.
    nxt = [0] * S
    prv = [0] * S
    cyc = [0] * S
    csz = [0] * (V + 1 + E)
    vx = [0] * S
    for cid, lo, n in ((V, 0, legs), *((i, legs + 4 * i, 4) for i in range(V))):
        for k in range(n):
            nxt[lo + k] = lo + (k + 1) % n
            prv[lo + k] = lo + (k - 1) % n
            cyc[lo + k] = vx[lo + k] = cid
        csz[cid] = n
    # the free list holds every unmatched half-edge in id order, so the legs
    # of the untouched vertices follow the nfree active ones
    fnx = list(range(1, S + 1)) + [0]
    fpv = [HEAD] + list(range(S))
    # internal components and their counts of still-unmatched internal
    # half-edges, for the gamma_only seal prune
    ipar = list(range(V + 1))
    ifree = [0] * (V + 1)
    # strand structure over half-edges
    spar = list(range(S))
    sext = [False] * S

    cells: dict = {}
    # per species, flat for the hot loop: its index, for each of legs 1..3
    # the lower leg of the strand through it (the root of its strand
    # segment on a fresh vertex), and its rotation orbits; ``left`` counts
    # its untouched vertices.  The rotations j -> j+k of a vertex that keep
    # its strand wiring form a subgroup of Z4 of order nrot; its orbits on the
    # legs are the residues mod 4 // nrot, each of nrot legs, so legs
    # 0 .. 4 // nrot - 1 stand for all
    kinds = []
    for sp, (off, _count) in enumerate(species):
        nrot = sum(all(off[(j + k) & 3] == (off[j] + k) & 3 for j in range(4))
                   for k in range(4))
        kinds.append((sp, *(min(k, off[k]) for k in (1, 2, 3)), nrot, range(4 // nrot)))
    left = [count for _, count in species]

    # the first active ring: the marked legs, or else the four legs of the
    # lowest label (of the first species with a nonzero count, weight 1)
    ninst = 0
    if legs == 2:
        if not V:
            # the one gluing, of the two legs to each other: two faces and
            # the boundary loop
            return {(0, 0, 1): 1}
        spar[1] = 0
        sext[0] = True
    elif legs == 4:
        spar[2] = 0
        spar[3] = 1
        sext[0] = True
        sext[1] = True
    elif V:
        sp = next(sp for sp, count in enumerate(left) if count)
        left[sp] -= 1
        spar[1:4] = kinds[sp][1:4]  # its strands, wired as on a fresh vertex
        ninst = 1
    else:
        return cells

    ncid_box = [V + 1]

    # Legs have the lowest ids and s0 is the lowest free half-edge, so every
    # leg is glued before any internal half-edge: while s0 is a leg, no two
    # vertices have been joined (each is its own internal component), and
    # once s0 is internal, so is every partner.
    def rec(a, b, weight, ninst, faces, kint, kext, nfree,
            match=match, nxt=nxt, prv=prv, cyc=cyc, csz=csz, fnx=fnx, fpv=fpv,
            ipar=ipar, ifree=ifree, spar=spar, sext=sext,
            vx=vx, cells=cells, V=V, legs=legs, HEAD=HEAD, E=E,
            planar_only=planar_only, gamma_only=gamma_only, twopi=twopi,
            kinds=kinds, left=left):
        if a >= 0:
            # ---- glue a-b (the root call, a = -1, glues nothing); what
            # this block binds is read back by the undo at the end, so the
            # rest of the body leaves those names alone ----
            fnx[fpv[a]] = fnx[a]
            fpv[fnx[a]] = fpv[a]
            fnx[fpv[b]] = fnx[b]
            fpv[fnx[b]] = fpv[b]
            match[a] = b
            match[b] = a
            rs = a
            while spar[rs] != rs:
                rs = spar[rs]
            rt = b
            while spar[rt] != rt:
                rt = spar[rt]
            s_child = -1
            s_oldflag = False
            if rs == rt:
                if sext[rs]:
                    kext += 1
                else:
                    kint += 1
            else:
                s_child = rt
                s_oldflag = sext[rs]
                spar[rt] = rs
                if sext[rt]:
                    sext[rs] = True
            i_child = -1
            ifree_root = -1
            if gamma_only and b >= legs:
                vb = vx[b]
                if a >= legs:
                    ria = vx[a]
                    while ipar[ria] != ria:
                        ria = ipar[ria]
                    rib = vb
                    while ipar[rib] != rib:
                        rib = ipar[rib]
                    if ria != rib:
                        ipar[rib] = ria
                        i_child = rib
                        ifree_root = ria
                        ifree_old = ifree[ria]
                        ifree[ria] = ifree_old + ifree[rib] - 2
                    else:
                        ifree_root = ria
                        ifree_old = ifree[ria]
                        ifree[ria] = ifree_old - 2
                else:
                    # a is a leg, so b's vertex is still its own component
                    ifree_root = vb
                    ifree_old = ifree[vb]
                    ifree[vb] = ifree_old - 1
            # boundary cycles
            ca = cyc[a]
            cb = cyc[b]
            pa = prv[a]
            sa = nxt[a]
            pb = prv[b]
            sb = nxt[b]
            relabeled = None
            relabel_to = -1
            old_ca = csz[ca]
            old_cb = csz[cb]
            new_cid = False
            if ca == cb:
                n = old_ca
                if n == 2:
                    faces += 2
                elif sa == b:
                    faces += 1
                    nxt[pa] = sb
                    prv[sb] = pa
                    csz[ca] = n - 2
                elif sb == a:
                    faces += 1
                    nxt[pb] = sa
                    prv[sa] = pb
                    csz[ca] = n - 2
                else:
                    # walk at most half the ring to find the shorter arc
                    half = (n - 2) >> 1
                    walked = []
                    x = sa
                    while len(walked) <= half:
                        if x == b:
                            break
                        walked.append(x)
                        x = nxt[x]
                    else:
                        walked = []
                        x = sb
                        while x != a:
                            walked.append(x)
                            x = nxt[x]
                    nxt[pb] = sa
                    prv[sa] = pb
                    nxt[pa] = sb
                    prv[sb] = pa
                    cid = ncid_box[0]
                    ncid_box[0] += 1
                    new_cid = True
                    for x in walked:
                        cyc[x] = cid
                    relabeled = walked
                    relabel_to = ca
                    csz[cid] = len(walked)
                    csz[ca] = n - 2 - len(walked)
            else:
                na = old_ca
                nb = old_cb
                if na == 1 and nb == 1:
                    faces += 1
                elif na == 1:
                    nxt[pb] = sb
                    prv[sb] = pb
                    csz[cb] = nb - 1
                elif nb == 1:
                    nxt[pa] = sa
                    prv[sa] = pa
                    csz[ca] = na - 1
                else:
                    nxt[pa] = sb
                    prv[sb] = pa
                    nxt[pb] = sa
                    prv[sa] = pb
                    if na <= nb:
                        keep, drop, start = cb, ca, sa
                    else:
                        keep, drop, start = ca, cb, sb
                    relabeled = []
                    x = start
                    while cyc[x] != keep:
                        relabeled.append(x)
                        cyc[x] = keep
                        x = nxt[x]
                    relabel_to = drop
                    csz[keep] = na + nb - 2

        s0 = fnx[HEAD]
        if gamma_only and s0 >= legs:
            ir0 = vx[s0]
            while ipar[ir0] != ir0:
                ir0 = ipar[ir0]
            ifree0 = ifree[ir0]
        else:
            ir0 = -1
            ifree0 = 0
        # every vertex placed and four half-edges free: each completion
        # {s0-t, u-v} is a leaf, classified in place instead of glued
        leaf = nfree == 4 and ninst == V
        if leaf:
            f1 = fnx[s0]
            f2 = fnx[f1]
            f3 = fnx[f2]
            c0 = cyc[s0]
            seg0 = s0
            while spar[seg0] != seg0:
                seg0 = spar[seg0]

        # -- partners among the active half-edges: the rest of the active
        # free list, or in planar mode the partners at odd steps along s0's
        # own boundary ring (a partner on another cycle would add a handle,
        # and one at an even step would leave two odd arcs, which never
        # close).  With vertices left, gluing the last two half-edges is a
        # dead end --
        if planar_only:
            t = prv[s0]
            ncand = csz[cyc[s0]] >> 1
        else:
            t = s0
            ncand = nfree - 1
        for _ in range(ncand if nfree > 2 else 0):
            t = nxt[nxt[t]] if planar_only else fnx[t]
            if gamma_only:
                # keep the internal graph one open component over all 4 legs
                if ir0 < 0:
                    if t < legs:
                        continue  # leg paired with leg: never connected
                    newf = ifree[vx[t]] - 1
                else:
                    r2 = vx[t]
                    while ipar[r2] != r2:
                        r2 = ipar[r2]
                    newf = ifree0 - 2 if ir0 == r2 else ifree0 + ifree[r2] - 2
                if newf == 0:
                    continue  # an internal component sealed before the end
            if not leaf:
                rec(s0, t, weight, ninst, faces, kint, kext, nfree - 2)
                continue
            # ---- the leaf: the last two gluings s0-t and u-v ----
            if t == f1:
                u, v = f2, f3
            elif t == f2:
                u, v = f1, f3
            else:
                u, v = f1, f2
            # the faces they close are the cycles of nxt∘μ on s0, t, u, v,
            # set by the ring sizes: one ring of 2 holding s0 and t closes
            # two faces, two rings of 1 one, and u-v then does the same with
            # what is left; s0, t on a ring of 3 (beside a ring of 1) close
            # two, on rings of 2 and 1 one; on one ring of 4, adjacent pairs
            # close three and opposite pairs one (a handle); on two rings
            # (2 + 2 or 3 + 1) they close two
            ct = cyc[t]
            size = csz[c0] if ct == c0 else csz[c0] + csz[ct]
            if size == 2:
                closed = (2 if ct == c0 else 1) + (2 if cyc[u] == cyc[v] else 1)
            elif size == 3:
                closed = 2 if ct == c0 else 1
            elif ct == c0:
                closed = 3 if t == nxt[s0] or t == prv[s0] else 1
            else:
                closed = 2
            # the Euler numerator 2 - chi is even on every gluing, so an odd
            # one means a face was miscounted
            euler = 2 + V - faces - closed if legs == 0 else 1 - V + E - faces - closed
            if euler & 1:
                raise ArithmeticError(f"odd Euler numerator {euler} at a leaf: "
                                      "a face count is off by one")
            genus = euler // 2
            # the loops: s0-t closes the strand segment they both end and u-v
            # the other one, or else s0-t joins two segments and u-v closes
            # the result; a loop is external if a segment in it is
            segt = t
            while spar[segt] != segt:
                segt = spar[segt]
            if segt == seg0:
                segu = u
                while spar[segu] != segu:
                    segu = spar[segu]
                ext = sext[seg0] + sext[segu]
                kint_t = kint + 2 - ext
                kext_t = kext + ext
            elif sext[seg0] or sext[segt]:
                kint_t = kint
                kext_t = kext + 1
            else:
                kint_t = kint + 1
                kext_t = kext
            if twopi and _leaf_two_particle_reducible(s0, t, u, v):
                continue
            key = (genus, kint_t, True) if legs == 0 else (genus, kint_t, kext_t)
            cells[key] = cells.get(key, 0) + weight

        # -- partners on a fresh vertex: touch the next label, wire its
        # strands by its species, and glue s0 to one leg per orbit --
        if ninst < V:
            b0 = legs + 4 * ninst
            ifree[ninst] = 4
            for sp, w1, w2, w3, nrot, orbit_legs in kinds:
                m = left[sp]
                if not m:
                    continue
                left[sp] = m - 1
                spar[b0 + 1] = b0 + w1
                spar[b0 + 2] = b0 + w2
                spar[b0 + 3] = b0 + w3
                wfresh = weight * m * nrot
                for j in orbit_legs:
                    rec(s0, b0 + j, wfresh, ninst + 1, faces, kint, kext, nfree + 2)
                left[sp] = m

        if a >= 0:
            # ---- undo the gluing ----
            if new_cid:
                ncid_box[0] -= 1
            if relabeled is not None:
                for x in relabeled:
                    cyc[x] = relabel_to
            csz[ca] = old_ca
            csz[cb] = old_cb
            nxt[prv[a]] = a
            prv[nxt[a]] = a
            nxt[prv[b]] = b
            prv[nxt[b]] = b
            if ifree_root >= 0:
                ifree[ifree_root] = ifree_old
            if i_child >= 0:
                ipar[i_child] = i_child
            if s_child >= 0:
                spar[s_child] = s_child
                sext[rs] = s_oldflag
            match[a] = -1
            match[b] = -1
            fpv[fnx[b]] = b
            fnx[fpv[b]] = b
            fpv[fnx[a]] = a
            fnx[fpv[a]] = a

    def _leaf_two_particle_reducible(s0, t, x, y) -> bool:
        # with the leaf's last two gluings s0-t and x-y made: is there a pair
        # of internal edges whose removal leaves exactly two components with
        # two legs on each?
        match[s0], match[t], match[x], match[y] = t, s0, y, x
        edges = [(vx[s], vx[match[s]]) for s in range(legs, S) if s < match[s]]
        leg_at = [vx[match[e]] for e in range(legs)]
        match[s0] = match[t] = match[x] = match[y] = -1
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

    rec(-1, -1, 1, ninst, 0, 0, 0, legs + 4 * ninst)
    return cells


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cached_cells(legs, species, planar_only, twopi, gamma_only) -> Mapping:
    """`_fast_search` memoized by its own arguments, as sorted read-only cells."""
    cells = _fast_search(legs, species, planar_only, twopi, gamma_only)
    return MappingProxyType(dict(sorted(cells.items())))


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
        return _cached_cells(0, content, planar_only, False, False)

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


def enumerate_pairings(num_vertices: int, model: VertexModel | None = None, *,
                       type_counts: dict | None = None, planar_only: bool = False,
                       connected_only: bool = False) -> CountTable:
    """Count every gluing of closed diagrams at the given vertex content.

    For a single vertex species ``num_vertices`` suffices; for mixed species
    pass ``type_counts`` (name -> count).  Either way one search runs, with
    the species labeled in order of their type names.  ``planar_only``
    restricts to genus zero (with pruning during the search),
    ``connected_only`` to single-component gluings.
    """
    model = model or VertexModel.one_matrix()
    if type_counts is None:
        type_counts = {model.vertex_types[0].name: num_vertices}
    if any(count < 0 for count in type_counts.values()):
        raise ValueError("vertex type counts must be nonnegative")
    V = sum(type_counts.values())
    if V != num_vertices:
        raise ValueError("type_counts must sum to num_vertices")
    if V < 1:
        raise ValueError("enumeration needs V >= 1")
    _check_ceiling(V)
    active = [(model.by_name(name), count) for name, count in sorted(type_counts.items())
              if count > 0]
    # the counts depend on the wiring, not on what the caller named it
    species = tuple((_strand_offsets(vt), c) for vt, c in active)
    if connected_only:
        cells = _cached_cells(0, species, planar_only, False, False)
    else:
        cells = _closed_cells(species, planar_only)
    counts = tuple((vt.name, count) for vt, count in active)
    return CountTable(vertex_counts=counts, planar_only=planar_only,
                      connected_only=connected_only, cells=cells)


def two_point_table(num_vertices: int, legs: int, *, planar_only: bool = True,
                    twopi: bool = False, gamma_only: bool = False) -> TwoPointTable:
    """Count gluings with one marked boundary carrying ``legs`` half-edges.

    ``gamma_only`` keeps only connected four-point diagrams (pruning the
    search) and needs the four-leg boundary; it is the one source of the
    connected four-point part, since a plain four-leg table does not say
    which of its diagrams are connected.  ``twopi`` needs ``gamma_only``
    too: it keeps only the 2PI diagrams, trying every pair of internal edges
    as a cut at the leaf.
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
    species = ((_strand_offsets(CROSSING), num_vertices),)
    cells = _cached_cells(legs, species, planar_only, twopi, gamma_only)
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
