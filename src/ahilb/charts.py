"""Per-triangle chart data: coordinates, monomial bases, curve degrees.

Every basic triangle gives an affine chart of the resolution.  Its three
coordinates are the invariant ratios dual to the vertex basis, and the
torus-fixed point of the chart carries a monomial basis of the cluster
ring: for each character the unique exponent-minimal monomial of that
weight.  Those generators drive everything downstream, so they are built
once per triangulation and kept in a ChartSet, together with the degree of
every tautological bundle on every compact curve.  That degree table is
filled in one edge-major pass, which also checks that the support function
is convex across every interior edge; a ChartSet is read-only once built.
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
    vertices: tuple
    coords: tuple  # three (numerator, denominator) monomial pairs, dual order


@dataclass
class AGraph:
    triangle: int
    table: dict  # character -> generator monomial
    members: frozenset
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
    if len(table) != order:
        raise InvariantViolationError(
            f"chart basis has {len(table)} monomials, expected {order}",
            detail={"triangle": tri_index},
        )
    members = frozenset(table.values())
    for m in members:
        for i in range(3):
            if m[i]:
                div = tuple(m[j] - (1 if j == i else 0) for j in range(3))
                if div not in members:
                    raise InvariantViolationError(
                        "chart basis is not closed under division",
                        detail={"triangle": tri_index, "monomial": m},
                    )
    socle = frozenset(
        m for m in members
        if all(tuple(m[j] + (1 if j == i else 0) for j in range(3)) not in members
               for i in range(3))
    )
    return AGraph(tri_index, table, members, socle)


def _check_minimality_step(chart, graph):
    # a generator shifted down by one chart coordinate must leave the octant;
    # otherwise a smaller monomial of the same weight exists and the triangle
    # cannot have been basic
    shifts = [intmat.vec_sub(den, num) for num, den in chart.coords]
    for m in graph.members:
        for s in shifts:
            down = intmat.vec_add(m, s)
            if down[0] >= 0 and down[1] >= 0 and down[2] >= 0:
                raise InvariantViolationError(
                    "chart generator is not weight-minimal",
                    detail={"triangle": chart.triangle, "monomial": m},
                )


def _transition_exponent(diff, u, e, chi):
    """The d with diff = d * u, found component by component, naming any failure."""
    d = None
    for i in range(3):
        if u[i]:
            q, rem = divmod(diff[i], u[i])
            if rem:
                raise InvariantViolationError(
                    "no integer transition exponent on edge",
                    detail={"edge": (e.a, e.b), "character": chi},
                )
            if d is None:
                d = q
            elif d != q:
                raise InvariantViolationError(
                    "inconsistent transition exponent on edge",
                    detail={"edge": (e.a, e.b), "character": chi},
                )
        elif diff[i]:
            raise InvariantViolationError(
                "generator difference is not a multiple of the edge ratio",
                detail={"edge": (e.a, e.b), "character": chi},
            )
    return d if d is not None else 0


class ChartSet:
    """Charts, monomial bases and curve degrees for a whole triangulation."""

    def __init__(self, triangulation):
        self.triangulation = triangulation
        self.group = triangulation.group
        self.charts = []
        self.agraphs = []
        for ti, tri in enumerate(triangulation.triangles):
            chart = Chart(ti, tri.vertices, chart_coords(self.group, tri.vertices))
            graph = build_agraph(self.group, ti, tri.vertices)
            _check_minimality_step(chart, graph)
            self.charts.append(chart)
            self.agraphs.append(graph)
        # the one degree store: character -> degrees on interior_edges(), in order
        self._degree = self._curve_degrees()
        # interior edge index -> its position in every degree row
        self.edge_column = {ei: j for j, ei in enumerate(triangulation.interior_edges())}

    def generator(self, chi, tri_index):
        return self.agraphs[tri_index].table[self.group.reduce(chi)]

    def _curve_degrees(self):
        """Degree of every character on every interior edge, in one edge-major pass.

        Across an interior edge the two generators of weight chi differ by
        d times the edge ratio u, and |d| is the degree of the weight-chi
        bundle on the curve.  The same pass checks that the support function
        is convex across the edge: each side's generator pairs no larger than
        the other side's at its own opposite vertex (the edge-major form of
        `support_convexity_violations`).
        """
        T = self.triangulation
        chars = self.group.characters()
        columns = []
        for ei in T.interior_edges():
            e = T.edges[ei]
            t1, t2 = e.triangles
            w1 = next(v for v in T.triangles[t1].vertices if v not in (e.a, e.b))
            w2 = next(v for v in T.triangles[t2].vertices if v not in (e.a, e.b))
            line = T.lines[e.line]
            u = intmat.vec_sub(line.plus, line.minus)
            u0, u1, u2 = u
            k = next(i for i in range(3) if u[i])
            uk = u[k]
            # pairing of d * u at w1 and w2, per unit of d
            s1, s2 = intmat.vec_dot(u, w1), intmat.vec_dot(u, w2)
            tab1, tab2 = self.agraphs[t1].table, self.agraphs[t2].table
            column = []
            for chi in chars:
                r1, r2 = tab1[chi], tab2[chi]
                if r1 == r2:
                    column.append(0)
                    continue
                diff = (r1[0] - r2[0], r1[1] - r2[1], r1[2] - r2[2])
                d = diff[k] // uk
                if diff != (d * u0, d * u1, d * u2):
                    d = _transition_exponent(diff, u, e, chi)
                if d * s2 < 0 or d * s1 > 0:
                    raise InvariantViolationError(
                        "support function is not convex",
                        detail={"edge": (e.a, e.b), "character": chi},
                    )
                column.append(abs(d))
            columns.append(column)
        rows = zip(*columns) if columns else [()] * len(chars)
        return dict(zip(chars, rows))

    def degree_on_curve(self, chi, edge_index):
        """Transition exponent of the weight-chi bundle across an interior edge."""
        column = self.edge_column.get(edge_index)
        if column is None:
            raise InvariantViolationError("degrees are defined on interior edges only")
        return self.degree_row(chi)[column]

    def degree_row(self, chi):
        """Degrees of the weight-chi bundle on all interior edges, in order."""
        return self._degree[self.group.reduce(chi)]

    def conv_region(self, chi, monomial):
        """Triangles whose generator of weight chi is the given monomial."""
        chi = self.group.reduce(chi)
        return [ti for ti, g in enumerate(self.agraphs) if g.table.get(chi) == monomial]

    def conv_regions(self, chi):
        chi = self.group.reduce(chi)
        out = {}
        for ti, g in enumerate(self.agraphs):
            out.setdefault(g.table[chi], []).append(ti)
        return out

    def region_is_convex(self, tri_indices):
        """Exact convexity of a union of triangles inside the simplex."""
        T = self.triangulation
        pts = set()
        for ti in tri_indices:
            pts.update(T.triangles[ti].vertices)
        hull = _hull_2d([(p[0], p[1]) for p in pts])
        inside = set(tri_indices)
        for ti, tri in enumerate(T.triangles):
            if all(_in_hull((v[0], v[1]), hull) for v in tri.vertices):
                if ti not in inside:
                    return False
        return True

    def support_convexity_violations(self, chi):
        """Wall crossings breaking convexity of the support function.

        The support function evaluates each point through the generator of
        a triangle containing it; minimality makes that the smallest value
        among the neighbours, so across every interior edge the triangle
        owning a vertex must pair <= the other side's generator there.
        """
        chi = self.group.reduce(chi)
        T = self.triangulation
        bad = []
        for ei in T.interior_edges():
            t1, t2 = T.edges[ei].triangles
            for a, b in ((t1, t2), (t2, t1)):
                ra = self.agraphs[a].table[chi]
                rb = self.agraphs[b].table[chi]
                for w in T.triangles[b].vertices:
                    if intmat.vec_dot(rb, w) > intmat.vec_dot(ra, w):
                        bad.append((ei, a, b, w))
        return bad


def _hull_2d(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and intmat.cross2(
            intmat.vec_sub(lower[-1], lower[-2]), intmat.vec_sub(p, lower[-2])
        ) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and intmat.cross2(
            intmat.vec_sub(upper[-1], upper[-2]), intmat.vec_sub(p, upper[-2])
        ) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _in_hull(p, hull):
    if len(hull) == 1:
        return p == hull[0]
    if len(hull) == 2:
        a, b = hull
        d = intmat.vec_sub(b, a)
        w = intmat.vec_sub(p, a)
        return intmat.cross2(d, w) == 0 and 0 <= intmat.vec_dot(d, w) <= intmat.vec_dot(d, d)
    n = len(hull)
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        if intmat.cross2(intmat.vec_sub(b, a), intmat.vec_sub(p, a)) < 0:
            return False
    return True
