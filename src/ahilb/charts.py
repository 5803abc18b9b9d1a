"""Per-triangle chart data: coordinates, monomial bases, curve degrees.

Every basic triangle gives an affine chart of the resolution, with three
coordinates read off the line table (see `ChartSet`).  The torus-fixed
point of the chart carries a monomial basis of the cluster ring: for each
character the unique exponent-minimal monomial of that weight.  Those
generators drive everything downstream, so they are built once per
triangulation and kept in a ChartSet, together with the degree of every
tautological bundle on every compact curve, which `relations` and
`cohomology` read.  Each chart's table is a tuple of its |A| generators
indexed by character id (`group.char_id`, the order of
`group.characters()`); a table walked across an edge shares each
generator that does not move with its parent's.  A ChartSet is read-only
once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from . import intmat
from .errors import InvariantViolationError
from .group import MONO_ONE


@dataclass
class Chart:
    triangle: int
    coords: tuple  # three (numerator, denominator) monomial pairs, dual order


@dataclass
class AGraph:
    table: tuple  # generator monomial of each character, indexed by `group.char_id`
    socle: frozenset


def build_agraph(group, tri_index, vertices, coords) -> AGraph:
    """Generators by best-first search on the vertex-pairing sum.

    The generator of a character is the monomial of that weight whose
    pairings against all three (unscaled) triangle vertices are minimal;
    any other monomial of the class exceeds it by a nonnegative nonzero
    integer combination of the dual basis, each unit of which adds |A|
    to the pairing sum.  Popping candidates in pairing-sum order therefore
    meets each class's generator strictly first, so the first monomial
    seen per character is final and everything else is discarded unexpanded.

    `ChartSet` builds only its root table this way and derives the rest by
    edge transitions; the tests keep this search as the oracle for those.
    `coords` are the chart's coordinates, for the minimality check.
    """
    order = group.order
    P = vertices
    S = (
        P[0][0] + P[1][0] + P[2][0],
        P[0][1] + P[1][1] + P[2][1],
        P[0][2] + P[1][2] + P[2][2],
    )
    reduce = group.reduce
    found = {}  # character -> generator
    heap = [(0, MONO_ONE)]
    seen = {MONO_ONE}
    while heap and len(found) < order:
        _, m = heappop(heap)
        chi = reduce(m)
        if chi in found:
            continue
        found[chi] = m
        for child in (
            (m[0] + 1, m[1], m[2]),
            (m[0], m[1] + 1, m[2]),
            (m[0], m[1], m[2] + 1),
        ):
            if min(child) > 0 or max(child) > order or child in seen:
                continue  # xyz-multiples and huge exponents are never minimal
            seen.add(child)
            heappush(heap, (child[0] * S[0] + child[1] * S[1] + child[2] * S[2], child))
    if len(found) != order:
        raise InvariantViolationError(
            f"chart basis has {len(found)} monomials, expected {order}",
            detail={"triangle": tri_index},
        )
    table = tuple(map(found.__getitem__, group.characters()))
    return _checked_agraph(tri_index, table, coords)


def _checked_agraph(tri_index, table, coords) -> AGraph:
    """The AGraph of a table, once its division closure and minimality check out.

    Minimality takes one membership test per chart coordinate num/den.  A
    generator m has the smaller monomial m + den - num of its weight
    exactly when num divides m, because `ratio_split` gives num and den
    disjoint supports; and in a table closed under division some generator
    is divisible by num exactly when num is itself a generator.
    """
    members = frozenset(table)
    socle = []
    for m in members:
        a, b, c = m
        if ((a and (a - 1, b, c) not in members)
                or (b and (a, b - 1, c) not in members)
                or (c and (a, b, c - 1) not in members)):
            raise InvariantViolationError(
                "chart basis is not closed under division",
                detail={"triangle": tri_index, "monomial": m},
            )
        if ((a + 1, b, c) not in members
                and (a, b + 1, c) not in members
                and (a, b, c + 1) not in members):
            socle.append(m)
    for num, _ in coords:
        if num in members:
            raise InvariantViolationError(
                "chart generator is not weight-minimal",
                detail={"triangle": tri_index, "monomial": num},
            )
    return AGraph(table, frozenset(socle))


def _transition_table(table, u, edge, near, far, chars):
    """The neighbour's table across `edge`, from this side's `table`, and its degrees.

    The edge ratio u pairs to zero with both edge vertices, so along
    m + k*u a generator keeps its weight and its pairings there; the
    neighbour's generator is the octant point of that line that pairs
    least with the neighbour's far vertex `far`.  With v = +-u oriented
    so that v pairs positively with `far`, that is m - q*v for the
    largest q the octant allows: q = min over v_i > 0 of m_i // v_i,
    which is the degree of the weight-chi bundle on the edge's curve.
    This side's far vertex `near` must pair negatively with v, or the
    support function is not convex across the edge.  Returns the table
    and {chi: q} for the generators that move (q > 0), keyed by the
    characters `chars` in table order; the generators that do not move
    are shared with this table.
    """
    s = u[0] * far[0] + u[1] * far[1] + u[2] * far[2]
    if s == 0 or intmat.vec_dot(u, edge.a) or intmat.vec_dot(u, edge.b):
        raise InvariantViolationError(
            "edge ratio does not separate the far vertex from the edge",
            detail={"edge": (edge.a, edge.b)},
        )
    v0, v1, v2 = v = u if s > 0 else (-u[0], -u[1], -u[2])
    if intmat.vec_dot(v, near) >= 0:
        raise InvariantViolationError(
            "support function is not convex", detail={"edge": (edge.a, edge.b)}
        )
    # v vanishes on a nonzero vertex of the octant, so at most two v_i > 0
    pos = [(i, v[i]) for i in range(3) if v[i] > 0]
    (i, vi), (j, vj) = pos[0], pos[-1]
    out = list(table)
    moved = {}
    for k, m in enumerate(table):
        q = m[i] // vi
        r = m[j] // vj
        if r < q:
            q = r
        if q:
            out[k] = (m[0] - q * v0, m[1] - q * v1, m[2] - q * v2)
            moved[chars[k]] = q
    return tuple(out), moved


def _check_same_table(walked, table, u, edge, chars):
    """Across an edge off the walk's tree, the transitioned table is the stored one.

    The first generator that differs is reported, by its character in
    `chars`, and by whether it differs by a multiple of u: on the edge's
    line it is the wrong extreme point, so the support function is not
    convex; off it, no transition joins them.
    """
    if walked == table:
        return
    k = next(k for k, m in enumerate(walked) if table[k] != m)
    diff = intmat.vec_sub(table[k], walked[k])
    n = next(i for i in range(3) if u[i])
    d = diff[n] // u[n]
    on_u = diff == (d * u[0], d * u[1], d * u[2])
    raise InvariantViolationError(
        "support function is not convex" if on_u
        else "generator difference is not an integer multiple of the edge ratio",
        detail={"edge": (edge.a, edge.b), "character": chars[k]},
    )


class ChartSet:
    """Charts, monomial bases and curve degrees for a whole triangulation.

    Chart coordinate i of a triangle is the line table's ratio of its side
    opposite vertex i (`Triangle.edges[i]`), signed positive at that vertex,
    where it must pair to exactly |A|; given the line table, that holds
    exactly when the triangle is basic.  The `basic` stage proves |det| =
    |A|^2 and the `ratios` stage proves each ratio invariant, vanishing on
    its line and minimal, so the signed ratios are the dual basis of the
    vertices (Fulton, *Introduction to Toric Varieties*, 2.1).

    Triangle 0's table comes from `build_agraph`; a breadth-first walk
    crosses every interior edge once, from whichever of its triangles it
    built first (`_transition_table`), taking each triangle's sides in
    ascending edge id.  Across a tree edge of the walk the transitioned
    table becomes the neighbour's, checked for division closure and
    minimality; across any other edge it must equal the table already
    stored.  Either way the crossing gives the edge's column of the degree
    table, {chi: q} for the characters of nonzero degree q on the edge's
    curve; `_degree` holds these columns by edge id, with an empty column
    for each boundary edge.  A triangle the walk cannot reach is an error.
    """

    def __init__(self, triangulation):
        self.triangulation = T = triangulation
        self.group = g = triangulation.group
        chars = g.characters()
        tris, edges, lines = T.triangles, T.edges, T.lines
        self.charts = []
        for ti, tri in enumerate(tris):
            coords = []
            for p, ei in zip(tri.vertices, tri.edges):
                ln = lines[edges[ei].line]
                s = intmat.vec_dot(ln.u, p)
                if abs(s) != g.order:
                    raise InvariantViolationError("chart requested for a non-basic triangle",
                                                  detail={"vertices": tri.vertices})
                coords.append((ln.plus, ln.minus) if s > 0 else (ln.minus, ln.plus))
            self.charts.append(Chart(ti, tuple(coords)))
        self.agraphs = [None] * len(tris)
        self.agraphs[0] = build_agraph(g, 0, tris[0].vertices, self.charts[0].coords)
        # per edge: character -> nonzero degree, filled as the walk crosses it
        columns = [None if e.interior else {} for e in edges]
        queue = [0]
        for ti in queue:
            tri = tris[ti]
            table = self.agraphs[ti].table
            for i in (2, 1, 0):  # ascending edge id
                ei = tri.edges[i]
                if columns[ei] is not None:
                    continue
                e = edges[ei]
                t1, t2 = e.triangles
                tj = t2 if t1 == ti else t1
                nbr = tris[tj]
                u = lines[e.line].u
                walked, columns[ei] = _transition_table(
                    table, u, e, tri.vertices[i], nbr.vertices[nbr.edges.index(ei)], chars
                )
                if self.agraphs[tj] is not None:
                    _check_same_table(walked, self.agraphs[tj].table, u, e, chars)
                    continue
                self.agraphs[tj] = _checked_agraph(tj, walked, self.charts[tj].coords)
                queue.append(tj)
        if len(queue) != len(tris):
            missing = self.agraphs.index(None)
            raise InvariantViolationError(
                "triangle not reachable across interior edges",
                detail={"triangle": missing},
            )
        self._degree = tuple(columns)

    def degree_on_curve(self, chi, edge_index):
        """Transition exponent of the weight-chi bundle across an interior edge."""
        e = self.triangulation.edges[edge_index]
        if not e.interior:
            raise InvariantViolationError(
                "degrees are defined on interior edges only", detail={"edge": (e.a, e.b)}
            )
        return self._degree[edge_index].get(self.group.reduce(chi), 0)
