"""Per-triangle chart data: coordinates, monomial bases, curve degrees.

Every basic triangle gives an affine chart of the resolution.  Its three
coordinates are the invariant ratios dual to the vertex basis, and the
torus-fixed point of the chart carries a monomial basis of the cluster
ring: for each character the unique exponent-minimal monomial of that
weight.  Those generators drive everything downstream, so they are built
once per triangulation and kept in a ChartSet, together with the degree of
every tautological bundle on every compact curve.  Only the first table
comes from a best-first search (`build_agraph`); every other one follows
from a neighbour's across their shared edge, walking the dual graph
breadth-first, and every table passes the same checks either way.  The
degree table is filled in one edge-major pass, which also checks that the
support function is convex across every interior edge; a ChartSet is
read-only once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from . import intmat
from .errors import InvariantViolationError
from .group import MONO_ONE, ratio_split


@dataclass
class Chart:
    triangle: int
    coords: tuple  # three (numerator, denominator) monomial pairs, dual order


@dataclass
class AGraph:
    table: dict  # character -> generator monomial
    socle: frozenset


def chart_coords(group, vertices) -> tuple:
    """Dual basis of the (unscaled) vertex basis, as monomial ratios."""
    m = [list(v) for v in vertices]
    d = intmat.det3(m)
    order = group.order
    if abs(d) != order * order:
        raise InvariantViolationError("chart requested for a non-basic triangle")
    adj = intmat.adjugate3(m)
    # rows of order * m^{-1}: integer because the unscaled vertices base N
    duals = []
    for i in range(3):
        vec = []
        for j in range(3):
            q, rem = divmod(order * adj[j][i], d)
            if rem:
                raise InvariantViolationError("dual basis is not integral")
            vec.append(q)
        u = tuple(vec)
        if not group.is_invariant(u):
            raise InvariantViolationError("chart coordinate is not invariant")
        duals.append(ratio_split(u))
    return tuple(duals)


def build_agraph(group, tri_index, vertices) -> AGraph:
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
    """
    order = group.order
    P = vertices
    S = (
        P[0][0] + P[1][0] + P[2][0],
        P[0][1] + P[1][1] + P[2][1],
        P[0][2] + P[1][2] + P[2][2],
    )
    reduce = group.reduce
    table = {}
    heap = [(0, MONO_ONE)]
    seen = {MONO_ONE}
    while heap and len(table) < order:
        _, m = heappop(heap)
        chi = reduce(m)
        if chi in table:
            continue
        table[chi] = m
        for child in (
            (m[0] + 1, m[1], m[2]),
            (m[0], m[1] + 1, m[2]),
            (m[0], m[1], m[2] + 1),
        ):
            if min(child) > 0 or max(child) > order or child in seen:
                continue  # xyz-multiples and huge exponents are never minimal
            seen.add(child)
            heappush(heap, (child[0] * S[0] + child[1] * S[1] + child[2] * S[2], child))
    return _checked_agraph(order, tri_index, table)


def _checked_agraph(order, tri_index, table) -> AGraph:
    """The AGraph of a table, once its size and division closure check out."""
    if len(table) != order:
        raise InvariantViolationError(
            f"chart basis has {len(table)} monomials, expected {order}",
            detail={"triangle": tri_index},
        )
    members = frozenset(table.values())
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
    return AGraph(table, frozenset(socle))


def _far_vertex(tri, edge):
    """The vertex of `tri` off `edge`."""
    return next(v for v in tri.vertices if v not in (edge.a, edge.b))


def _transition_table(table, u, edge, far):
    """The neighbour's table across `edge`, from this side's `table`.

    The edge ratio u pairs to zero with both edge vertices, so along
    m + k*u a generator keeps its weight and its pairings there; the
    neighbour's generator is the octant point of that line that pairs
    least with the neighbour's far vertex `far`.  With v = +-u oriented
    so that v pairs positively with `far`, that is m - q*v for the
    largest q the octant allows: q = min over v_i > 0 of m_i // v_i.
    Generators with q = 0 are shared with this table, and so are the
    character keys.
    """
    s = u[0] * far[0] + u[1] * far[1] + u[2] * far[2]
    if s == 0 or intmat.vec_dot(u, edge.a) or intmat.vec_dot(u, edge.b):
        raise InvariantViolationError(
            "edge ratio does not separate the far vertex from the edge",
            detail={"edge": (edge.a, edge.b)},
        )
    v0, v1, v2 = v = u if s > 0 else (-u[0], -u[1], -u[2])
    # v vanishes on a nonzero vertex of the octant, so at most two v_i > 0
    pos = [(i, v[i]) for i in range(3) if v[i] > 0]
    (i, vi), (j, vj) = pos[0], pos[-1]
    out = {}
    for chi, m in table.items():
        q = m[i] // vi
        r = m[j] // vj
        if r < q:
            q = r
        out[chi] = (m[0] - q * v0, m[1] - q * v1, m[2] - q * v2) if q else m
    return out


def _check_minimality_step(chart, graph):
    # a generator shifted down by one chart coordinate must leave the octant;
    # otherwise a smaller monomial of the same weight exists and the triangle
    # cannot have been basic
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = [
        intmat.vec_sub(den, num) for num, den in chart.coords
    ]
    for m in graph.table.values():
        x, y, z = m
        if ((x + a0 >= 0 and y + a1 >= 0 and z + a2 >= 0)
                or (x + b0 >= 0 and y + b1 >= 0 and z + b2 >= 0)
                or (x + c0 >= 0 and y + c1 >= 0 and z + c2 >= 0)):
            raise InvariantViolationError(
                "chart generator is not weight-minimal",
                detail={"triangle": chart.triangle, "monomial": m},
            )


class ChartSet:
    """Charts, monomial bases and curve degrees for a whole triangulation.

    Triangle 0's table comes from `build_agraph`; a breadth-first walk
    over the interior edges derives each other table from the table of
    the triangle it was reached from (`_transition_table`).  Every table
    is checked for size, division closure and minimality as it is built,
    a triangle the walk cannot reach is an error, and `_curve_degrees`
    then checks the transition across every interior edge, tree edges
    included.
    """

    def __init__(self, triangulation):
        self.triangulation = T = triangulation
        self.group = triangulation.group
        order = self.group.order
        tris = T.triangles
        self.charts = [
            Chart(ti, chart_coords(self.group, tri.vertices))
            for ti, tri in enumerate(tris)
        ]
        neighbours = [[] for _ in tris]
        for ei in T.interior_edges():
            e = T.edges[ei]
            t1, t2 = e.triangles
            neighbours[t1].append((t2, e))
            neighbours[t2].append((t1, e))
        self.agraphs = [None] * len(tris)
        root = build_agraph(self.group, 0, tris[0].vertices)
        _check_minimality_step(self.charts[0], root)
        self.agraphs[0] = root
        queue = [0]
        for ti in queue:
            table = self.agraphs[ti].table
            for tj, e in neighbours[ti]:
                if self.agraphs[tj] is not None:
                    continue
                walked = _transition_table(table, T.lines[e.line].u, e, _far_vertex(tris[tj], e))
                graph = _checked_agraph(order, tj, walked)
                _check_minimality_step(self.charts[tj], graph)
                self.agraphs[tj] = graph
                queue.append(tj)
        if len(queue) != len(tris):
            missing = next(ti for ti, g in enumerate(self.agraphs) if g is None)
            raise InvariantViolationError(
                "triangle not reachable across interior edges",
                detail={"triangle": missing},
            )
        # the one degree store: character -> degrees on interior_edges(), in order;
        # and its sparse support: per edge column, the characters of nonzero degree
        self._degree, self.curve_support = self._curve_degrees()
        # interior edge index -> its position in every degree row
        self.edge_column = {ei: j for j, ei in enumerate(triangulation.interior_edges())}

    def _curve_degrees(self):
        """Degree of every character on every interior edge, in one edge-major pass.

        Across an interior edge the two generators of weight chi differ by
        d times the edge ratio u, and |d| is the degree of the weight-chi
        bundle on the curve.  The same pass checks that the support function
        is convex across the edge: each side's generator pairs no larger than
        the other side's at its own opposite vertex.  Returns the rows by
        character and, per column, the characters whose generators differ
        across the edge, which are exactly those of nonzero degree.
        """
        T = self.triangulation
        chars = self.group.characters()
        columns = []
        support = []
        for ei in T.interior_edges():
            e = T.edges[ei]
            t1, t2 = e.triangles
            w1 = _far_vertex(T.triangles[t1], e)
            w2 = _far_vertex(T.triangles[t2], e)
            u = T.lines[e.line].u
            u0, u1, u2 = u
            k = next(i for i in range(3) if u[i])
            uk = u[k]
            # pairing of d * u at w1 and w2, per unit of d
            s1, s2 = intmat.vec_dot(u, w1), intmat.vec_dot(u, w2)
            tab1, tab2 = self.agraphs[t1].table, self.agraphs[t2].table
            column = []
            nonzero = []
            for chi in chars:
                r1, r2 = tab1[chi], tab2[chi]
                if r1 == r2:
                    column.append(0)
                    continue
                diff = (r1[0] - r2[0], r1[1] - r2[1], r1[2] - r2[2])
                d = diff[k] // uk
                if diff != (d * u0, d * u1, d * u2):
                    raise InvariantViolationError(
                        "generator difference is not an integer multiple of the edge ratio",
                        detail={"edge": (e.a, e.b), "character": chi},
                    )
                if d * s2 < 0 or d * s1 > 0:
                    raise InvariantViolationError(
                        "support function is not convex",
                        detail={"edge": (e.a, e.b), "character": chi},
                    )
                column.append(abs(d))
                nonzero.append(chi)
            columns.append(column)
            support.append(tuple(nonzero))
        rows = zip(*columns) if columns else [()] * len(chars)
        return dict(zip(chars, rows)), tuple(support)

    def degree_on_curve(self, chi, edge_index):
        """Transition exponent of the weight-chi bundle across an interior edge."""
        column = self.edge_column.get(edge_index)
        if column is None:
            raise InvariantViolationError("degrees are defined on interior edges only")
        return self.degree_row(chi)[column]

    def degree_row(self, chi):
        """Degrees of the weight-chi bundle on all interior edges, in order."""
        return self._degree[self.group.reduce(chi)]
