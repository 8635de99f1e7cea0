"""Plain reference engines for the oracle and series tests.

The oracle reference walks every matching of the half-edges and classifies
each one from scratch: no incremental state, no pruning, no symmetry.  That
makes it slow, (4V + legs - 1)!! leaves per table, and easy to read.  Only
the rotation and strand permutations, which depend on the vertices alone,
are built once per table.  The tests compare the oracle's search with it
cell for cell.  The 2PI reference (`_twopi_reference`) finds a two-particle
cut among the splits of the vertices into two sides, where the engine tries
pairs of edges.  Nothing here comes from the package but `linkcensus.series`,
so the references stay independent of the code they check.

The series kernels (`plain_mul`, `plain_div`, `plain_sqrt_series`, and
`plain_add`, `plain_scale`, `plain_truncate`, `plain_shift_down`,
`plain_derivative`, `plain_integrate`, `plain_reversion`) do every
coefficient operation in `Fraction` arithmetic, the textbook recurrences
term by term.  The tests compare the integer-numerator kernels of
`linkcensus.series` with them for exact equality.

`g2_scaled_series` expands the two-point function at a general quadratic
weight from its own endpoint relation, an independent source for the
scaling property that the renormalization relies on.

The computer-algebra references at the end use sympy, which the package
itself does not import: the flype quintic by resultant and factorization
(`quintic_sympy`), discriminants, square-free decompositions and the
certified discriminant root (`discriminant_root_sympy`).  The tests compare
the integer-polynomial code of `linkcensus.flype` with them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy as sp

from linkcensus.series import (AlgebraicSystem, BivariatePoly, Series, SeriesError, mul,
                               newton_solve)


def classify_pairing(matching, vertex_patterns, legs: int = 0):
    """Classify one gluing: (faces, internal loops, boundary loops, internal components).

    ``matching`` covers ``legs`` boundary half-edges (ids 0..legs-1, one marked
    boundary vertex) followed by blocks of 4 per internal vertex.
    ``vertex_patterns`` lists the strand pairing of each internal vertex.
    """
    sigma, strand = _vertex_permutations(vertex_patterns, legs)
    faces, kin, kext = _faces_and_loops(matching, sigma, strand, legs)
    comps = len(set(_vertex_components(matching, legs, len(vertex_patterns))))
    return faces, kin, kext, comps


def _vertex_permutations(vertex_patterns, legs: int = 0):
    """The rotation and strand permutations of the half-edges: (sigma, strand).

    They depend on the vertices alone, so a table builds them once.
    """
    V = len(vertex_patterns)
    S = legs + 4 * V

    # rotation permutation: cyclic within the boundary and within each vertex
    sigma = list(range(S))
    if legs:
        for j in range(legs):
            sigma[j] = (j + 1) % legs
    for v in range(V):
        b = legs + 4 * v
        for j in range(4):
            sigma[b + j] = b + (j + 1) % 4

    # strand transition involution
    strand = list(range(S))
    if legs == 2:
        strand[0], strand[1] = 1, 0
    elif legs == 4:
        strand[0], strand[1], strand[2], strand[3] = 2, 3, 0, 1
    for v, pattern in enumerate(vertex_patterns):
        b = legs + 4 * v
        for p, q in pattern:
            strand[b + p] = b + q
            strand[b + q] = b + p
    return sigma, strand


def _faces_and_loops(matching, sigma, strand, legs):
    """(faces, internal loops, boundary loops) of one gluing."""
    S = len(sigma)

    # faces: cycles of sigma∘matching
    faces = 0
    seen = [False] * S
    for s in range(S):
        if seen[s]:
            continue
        faces += 1
        x = s
        while not seen[x]:
            seen[x] = True
            x = sigma[matching[x]]

    loops_internal = 0
    loops_boundary = 0
    seen = [False] * S
    for s in range(S):
        if seen[s]:
            continue
        x = s
        touches_boundary = False
        while not seen[x]:
            seen[x] = True
            if x < legs:
                touches_boundary = True
            y = strand[x]
            seen[y] = True
            if y < legs:
                touches_boundary = True
            x = matching[y]
        if touches_boundary:
            loops_boundary += 1
        else:
            loops_internal += 1
    return faces, loops_internal, loops_boundary


def _vertex_components(matching, legs, V) -> list:
    """The internal component of each vertex, as one representative vertex
    per component (the marked boundary never counts as a connector)."""
    parent = list(range(V))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for s in range(legs, legs + 4 * V):
        t = matching[s]
        if t >= legs and s < t:
            a, b = find((s - legs) // 4), find((t - legs) // 4)
            if a != b:
                parent[a] = b
    return [find(v) for v in range(V)]


def _leg_components(matching, legs, roots) -> list:
    """The component each leg hangs off, for the legs matched to a vertex."""
    return [roots[(matching[e] - legs) // 4] for e in range(legs) if matching[e] >= legs]


def iter_pairings(num_vertices: int, legs: int = 0):
    """Yield every matching of the ``legs + 4*num_vertices`` half-edges.

    The lowest unmatched half-edge takes each later one in turn; an explicit
    stack of (unmatched half-edges, index of the next partner) replaces the
    recursion, so each matching is yielded from one frame.
    """
    S = legs + 4 * num_vertices
    matching = [-1] * S
    stack = [(list(range(S)), 1)]
    while stack:
        free, i = stack.pop()
        if not free:
            yield tuple(matching)
        elif i < len(free):
            a, b = free[0], free[i]
            matching[a], matching[b] = b, a
            stack.append((free, i + 1))
            stack.append((free[1:i] + free[i + 1 :], 1))


def _enumerate_plain(vertex_patterns, legs):
    """Reference counting: classify every matching at the leaf."""
    V = len(vertex_patterns)
    cells: dict = {}
    E = (legs + 4 * V) // 2
    sigma, strand = _vertex_permutations(vertex_patterns, legs)
    for matching in iter_pairings(V, legs):
        faces, kin, kext = _faces_and_loops(matching, sigma, strand, legs)
        roots = _vertex_components(matching, legs, V)
        if legs == 0:
            comps = len(set(roots))
            chi = V - E + faces
            genus = (2 * comps - chi) // 2
            key = (genus, kin, comps == 1)
        else:
            # every internal component must touch the boundary (vacuum parts cancel)
            attached = _leg_components(matching, legs, roots)
            if not set(roots) <= set(attached):
                continue
            chi = (V + 1) - E + faces
            genus = (2 - chi) // 2
            conn4 = legs == 4 and len(attached) == 4 and len(set(attached)) == 1
            key = (genus, kin, kext, conn4)
        cells[key] = cells.get(key, 0) + 1
    return cells


def _twopi_reference(vertex_patterns, planar):
    """Connected four-leg cells of the two-particle irreducible gluings only."""
    V = len(vertex_patterns)
    cells: dict = {}
    sigma, strand = _vertex_permutations(vertex_patterns, 4)
    for matching in iter_pairings(V, 4):
        if _has_vacuum_component(matching, 4, V) or not _four_leg_connected(matching, 4, V):
            continue
        faces, kin, kext = _faces_and_loops(matching, sigma, strand, 4)
        genus = (2 - (V + 1) + (2 + 2 * V) - faces) // 2
        if (planar and genus) or _two_two_cut(matching, V):
            continue
        key = (genus, kin, kext)
        cells[key] = cells.get(key, 0) + 1
    return cells


def _two_two_cut(matching, V) -> bool:
    """Does some split of the vertices into two sides, each connected on its
    own and carrying two of the four legs, have exactly two internal edges
    running between the sides?"""
    ends = [((s - 4) // 4, (matching[s] - 4) // 4)
            for s in range(4, 4 + 4 * V) if s < matching[s]]
    leg_at = [(matching[e] - 4) // 4 for e in range(4)]
    for mask in range(1, 2**V - 1):
        side = [mask >> v & 1 for v in range(V)]
        across = sum(side[u] != side[v] for u, v in ends)
        if (across == 2 and sum(side[v] for v in leg_at) == 2
                and _induced_connected(ends, side, 0) and _induced_connected(ends, side, 1)):
            return True
    return False


def _induced_connected(ends, side, which) -> bool:
    """Do the vertices on side ``which`` span a connected subgraph by themselves?"""
    members = {v for v, s in enumerate(side) if s == which}
    reached = {min(members)}
    grew = True
    while grew:
        grew = False
        for u, v in ends:
            if u in members and v in members and (u in reached) != (v in reached):
                reached |= {u, v}
                grew = True
    return reached == members


def _has_vacuum_component(matching, legs, V) -> bool:
    """Does some internal component touch no leg?"""
    roots = _vertex_components(matching, legs, V)
    return not set(roots) <= set(_leg_components(matching, legs, roots))


def _four_leg_connected(matching, legs, V) -> bool:
    """Do all the legs hang off vertices of one internal component?"""
    attached = _leg_components(matching, legs, _vertex_components(matching, legs, V))
    return len(attached) == legs and len(set(attached)) == 1


# -- series kernels ------------------------------------------------------------


def plain_mul(a: Series, b: Series) -> Series:
    order = min(a.order, b.order)
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        ai = a.coeffs[i]
        if not ai:
            continue
        for j in range(order + 1 - i):
            bj = b.coeffs[j]
            if bj:
                out[i + j] += ai * bj
    return Series(tuple(out))


def plain_div(a: Series, b: Series) -> Series:
    if b.coeffs[0] == 0:
        raise SeriesError("division by a series with zero constant term")
    order = min(a.order, b.order)
    inv0 = Fraction(1) / b.coeffs[0]
    out = [Fraction(0)] * (order + 1)
    for k in range(order + 1):
        s = a.coeffs[k]
        for j in range(1, k + 1):
            bj = b.coeffs[j]
            if bj:
                s -= bj * out[k - j]
        out[k] = s * inv0
    return Series(tuple(out))


def plain_sqrt_series(s: Series) -> Series:
    c0 = s.coeffs[0]
    if c0 <= 0:
        raise SeriesError("sqrt needs a positive rational square as constant term")
    pn, qd = c0.numerator, c0.denominator
    rn, rd = math.isqrt(pn), math.isqrt(qd)
    if rn * rn != pn or rd * rd != qd:
        raise SeriesError(f"constant term {c0} is not the square of a rational")
    r0 = Fraction(rn, rd)
    out = [r0]
    for k in range(1, s.order + 1):
        acc = s.coeffs[k]
        for j in range(1, k):
            acc -= out[j] * out[k - j]
        out.append(acc / (2 * r0))
    return Series(tuple(out))


def plain_add(a: Series, b: Series) -> Series:
    order = min(a.order, b.order)
    return Series(tuple(a.coeffs[k] + b.coeffs[k] for k in range(order + 1)))


def plain_scale(s: Series, factor: Fraction) -> Series:
    """Every coefficient times ``factor``; negation is the factor -1."""
    return Series(tuple(factor * c for c in s.coeffs))


def plain_truncate(s: Series, order: int) -> Series:
    return Series(s.coeffs[: order + 1])


def plain_shift_down(s: Series, k: int) -> Series:
    if any(s.coeffs[:k]):
        raise SeriesError(f"series is not divisible by g^{k}")
    return Series(s.coeffs[k:])


def plain_derivative(s: Series) -> Series:
    if s.order == 0:
        return Series((Fraction(0),))
    return Series(tuple(k * s.coeffs[k] for k in range(1, s.order + 1)))


def plain_integrate(s: Series) -> Series:
    return Series((Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(s.coeffs)))


def plain_reversion(s: Series) -> Series:
    """Lagrange inversion in Fractions: [w^k] r = [w^(k-1)] (w/s)^k / k, with
    every power (w/s)^k built in turn by one more product."""
    n = s.order
    out = [Fraction(0), 1 / s.coeffs[1]]
    if n > 1:
        base = plain_div(Series.one(n - 1), Series(s.coeffs[1:]))
        power = base
        for k in range(2, n + 1):
            power = plain_mul(power, base)
            out.append(power.coeffs[k - 1] / k)
    return Series(tuple(out))


# -- the two-point series at a general quadratic weight ---------------------------


def g2_scaled_series(t: Fraction, order: int) -> Series:
    """Two-point series of the model with quadratic weight ``t`` (exact in g).

    Solves ``t y - 3 g y^2 = 1`` for the endpoint parameter by Newton
    expansion and substitutes into ``G2 = t y^2 - 4 g y^3``.  The tests pin
    the scaling property ``G2(t, g) = G2(1, g / t^2) / t``, on which
    `linkcensus.onematrix.solve_unit_two_point` relies, against it.
    """
    t = Fraction(t)
    if t <= 0:
        raise SeriesError("the quadratic weight must be positive")
    relation = BivariatePoly.from_dict({(0, 1): t, (1, 2): -3, (0, 0): -1})
    y = newton_solve(AlgebraicSystem(relation, Fraction(1) / t), order)
    g = Series.identity(order)
    return t * mul(y, y) - 4 * mul(g, mul(y, mul(y, y)))


# ---------------------------------------------------------------------------
# computer-algebra references for the flype elimination and discriminant roots
# ---------------------------------------------------------------------------


def _bivariate(poly: sp.Poly) -> BivariatePoly:
    """An integer ``Poly`` in (g, W) as a `BivariatePoly`."""
    return BivariatePoly.from_dict({(i, j): Fraction(int(c)) for (i, j), c in poly.terms()})


def quintic_sympy(series: Series) -> BivariatePoly:
    """The flype quintic: sympy's resultant in z of the squared system, then `factor_list`.

    The factor that annihilates ``series``, the flype series W(g) to a few
    orders, with a positive leading coefficient in (g, then W) order.
    """
    z, g, W = (
        sp.Poly.from_dict({exponents: 1}, *sp.symbols("z g W"), domain=sp.ZZ)
        for exponents in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    )
    e1 = (1 - g) * ((1 + g - z - 2 * W) ** 2 - (1 - g + z) ** 2 + 8 * z) + 8 * g**2
    lhs = (
        2 * (1 + W) * (W + 2) ** 3 * z
        + 4 * (W + 2) ** 3
        - 2 * (1 + W) * (2 - W) * (W + 2) ** 3
        + (1 + W) * (1 + 10 * W - 2 * W**2)
    )
    e2 = lhs**2 - (1 + W) ** 2 * (1 - 4 * W) ** 3
    (quintic,) = [poly for poly, _mult in e1.resultant(e2).factor_list()[1]
                  if _bivariate(poly).eval_series(series).is_zero()]
    return _bivariate(-quintic if quintic.LC() < 0 else quintic)


def sympy_in_g(coeffs) -> sp.Poly:
    """Integer coefficients in g, ascending, as a sympy ``Poly`` over ZZ."""
    return sp.Poly(list(reversed(list(coeffs))) or [0], sp.Symbol("g"), domain=sp.ZZ)


def ascending(poly: sp.Poly) -> tuple:
    return tuple(int(c) for c in reversed(poly.all_coeffs())) if not poly.is_zero else ()


def discriminant_sympy(relation: BivariatePoly) -> sp.Poly:
    """disc_y P(g, y) by sympy, after the denominators of P are cleared."""
    scale = math.lcm(*(c.denominator for _, c in relation.terms))
    poly = sp.Poly.from_dict(
        {(j, i): int(c * scale) for (i, j), c in relation.terms},
        sp.Symbol("y"), sp.Symbol("g"), domain=sp.ZZ,
    )
    return poly.discriminant()


def square_free_sympy(coeffs) -> set:
    """sympy's square-free decomposition: {(ascending coefficients, multiplicity)}."""
    return {(ascending(f), k) for f, k in sympy_in_g(coeffs).sqf_list()[1]}


def discriminant_root_sympy(relation: BivariatePoly, eps: Fraction):
    """The smallest positive discriminant root by sympy's root isolation and factorization.

    Returns ``((lo, hi), factor, owner)``, or None without a positive root:
    sympy's isolating interval of the root, refined to width ``eps`` (lo ==
    hi when the root is rational); the
    irreducible factor of the discriminant that has the root; and the
    square-free part of the discriminant that has it, as ascending integer
    coefficients.
    """
    disc = discriminant_sympy(relation)
    if disc.degree() < 1:
        return None
    intervals = [(lo, hi) for (lo, hi), _ in disc.sqf_part().intervals()]
    positive = [(lo, hi) for lo, hi in intervals if lo >= 0 and hi > 0]
    if not positive:
        return None
    lo, hi = min(positive)

    def has_root(factor: sp.Poly) -> bool:
        if lo == hi:
            return factor.eval(lo) == 0
        at_ends = (factor.eval(lo) == 0) + (factor.eval(hi) == 0)
        return factor.count_roots(lo, hi) > at_ends

    (factor,) = [f for f, _ in disc.factor_list()[1] if has_root(f)]
    (owner,) = [f for f, _ in disc.sqf_list()[1] if has_root(f)]
    # the root is the factor's smallest positive one too; isolating the
    # factor's own roots, rather than refining the interval found for the
    # square-free part, avoids sympy's RefinementFailed on some cubics
    lo, hi = min((lo, hi) for (lo, hi), _ in factor.intervals(eps=eps) if hi > 0 and lo >= 0)
    return ((Fraction(int(lo.p), int(lo.q)), Fraction(int(hi.p), int(hi.q))),
            ascending(factor), ascending(owner))
