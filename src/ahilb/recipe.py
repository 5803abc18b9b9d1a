"""Character decoration of the triangulation.

Interior lines are marked with the common weight of their ratio monomials.
Each interior vertex is looked up once in the case table `_CASES`, by its
valency and the edge counts of the characters through it, which gives its
case, its relation's right side and its mark (two at a triple intersection
of straight lines, where the pair is computed from the socles of the six
incident charts and verified against the projection-monomial
construction); the `relations` stage reads the right side off the mark.
The result partitions the nontrivial characters: each marks exactly one
line, vertex, or is the designated second character of a triple
intersection, which the pipeline's `partition` stage checks.  Each regular
triangle's side ratios are checked against the tesselation's side-ratio
identity, which the `ratios` stage runs.  The quiver's chart is the first
whose coordinates place the simplex barycentre in its triangle.
"""

from __future__ import annotations

from . import intmat
from .errors import InvariantViolationError, CorrespondenceError
from .fan import simplex_corners
from .group import MONO_ONE, monomial_mul
from .record import Record

CASE_P2 = "P2"
CASE_SCROLL = "scroll"
CASE_BLOWNUP = "blownup_scroll"
CASE_DP6 = "dP6"

_CASE_NUMBER = {CASE_P2: 1, CASE_SCROLL: 2, CASE_BLOWNUP: 3, CASE_DP6: 4}

# (valency, sorted edge counts of the characters through the vertex) -> case;
# a (2, 2, 2) vertex is dP6 only when each character's two edges lie on one line
_CASES = {
    (3, (3,)): CASE_P2,
    (4, (2, 2)): CASE_SCROLL,
    (5, (1, 2, 2)): CASE_BLOWNUP,
    (6, (1, 1, 2, 2)): CASE_BLOWNUP,
    (6, (2, 2, 2)): CASE_DP6,
}

# the failure of a vertex that matches no case, by valency
_MISSES = {
    3: "valency-3 vertex whose three lines are not equally marked",
    4: "valency-4 vertex without two marked pairs",
    5: "valency-5 vertex without two marked pairs",
    6: "valency-6 vertex matching no marking case",
}


class VertexMark(Record):
    __slots__ = ("vertex", "valency", "case", "marks", "through", "rhs")

    def __init__(self, vertex, valency, case, marks, through, rhs):
        self.vertex = vertex
        self.valency = valency
        self.case = case
        self.marks = marks  # one character, or the (type-iii, type-ii) ordered pair
        self.through = through  # character -> sorted incident edge ids
        self.rhs = rhs  # the relation's right side: the characters marking two edges

    @property
    def case_number(self):
        return _CASE_NUMBER[self.case]

    def mark_ii(self):
        """The character that indexes the virtual bundle at this vertex."""
        return self.marks[-1]


class Decoration(Record):
    __slots__ = ("line_marks", "vertex_marks", "partition")

    def __init__(self, line_marks, vertex_marks, partition):
        self.line_marks = line_marks  # line index -> character (interior lines only)
        self.vertex_marks = vertex_marks  # vertex -> VertexMark
        self.partition = partition  # "line" | "vertex" | "second" -> sorted character lists


def mark_lines(triangulation):
    """Characters of the interior lines, plus the connectivity of equal marks.

    Lines sharing a character must form a single chain through common
    vertices (they are then one line "passing through" those vertices).
    """
    T = triangulation
    trivial = T.group.reduce(MONO_ONE)
    marks = {}
    by_char = {}
    for li, ln in enumerate(T.lines):
        if ln.kind == "boundary":
            continue
        if ln.character == trivial:
            raise InvariantViolationError(
                "an interior line carries the trivial character", detail={"line": li}
            )
        marks[li] = ln.character
        by_char.setdefault(ln.character, []).append(li)
    for chi, lis in by_char.items():
        if len(lis) == 1:
            continue
        # walk from the first line to the lines sharing a point with one reached
        points = {li: {p for ei in T.lines[li].edges for p in (T.edges[ei].a, T.edges[ei].b)}
                  for li in lis}
        reached, stack = {lis[0]}, [lis[0]]
        while stack:
            here = points[stack.pop()]
            for li in lis:
                if li not in reached and here & points[li]:
                    reached.add(li)
                    stack.append(li)
        if len(reached) != len(lis):
            raise CorrespondenceError(
                "lines with one character do not form a single through-line",
                detail={"character": chi, "lines": lis},
            )
    return marks


def mark_vertex(triangulation, chart_set, vertex, edge_ids):
    """Look the interior vertex up in `_CASES` and mark it.

    The relation's right side is the characters that mark two edges, sorted;
    at a P2 vertex, the one character twice.  Outside dP6 the mark is their
    sum, whose generator must lie in the socle of every chart at the vertex:
    its character id is among the chart's `ChartSet.socle_ids`, so no table
    is read.
    """
    T = triangulation
    g = T.group
    through = {}
    for ei in edge_ids:
        through.setdefault(T.lines[T.edges[ei].line].character, []).append(ei)
    valency, pattern = len(edge_ids), tuple(sorted(map(len, through.values())))
    case = _CASES.get((valency, pattern))
    if case == CASE_DP6 and any(len({T.edges[ei].line for ei in eis}) != 1
                                for eis in through.values()):
        case = None
    if case is None:
        raise InvariantViolationError(
            _MISSES.get(valency, f"interior vertex of valency {valency}"),
            detail={"vertex": vertex, "pattern": pattern},
        )
    if case == CASE_P2:
        rhs = tuple(through) * 2
    else:
        rhs = tuple(sorted(chi for chi, eis in through.items() if len(eis) == 2))
    if case == CASE_DP6:
        marks = _dp6_marks(T, chart_set, vertex, rhs)
    else:
        marks = (g.char_sum(rhs),)
        k = g.char_id(marks[0])
        for ti in T.vertex_triangles[vertex]:
            if k not in chart_set.socle_ids[ti]:
                raise InvariantViolationError(
                    "vertex mark generator missing from a socle",
                    detail={"vertex": vertex, "character": marks[0]},
                )
    return VertexMark(vertex, valency, case, marks, through, rhs)


def _dp6_marks(T, chart_set, vertex, line_chars):
    """The (type-iii, type-ii) pair at a triple intersection, by the socle method.

    The characters common to the socles of the six charts at the vertex, less
    the line characters and the trivial one, must be two, and must equal the
    projection-monomial pair.  (A valency-6 interior vertex lies on six
    triangles.)
    """
    g = T.group
    chars = g.characters()
    common = set.intersection(*(set(chart_set.socle_ids[ti]) for ti in T.vertex_triangles[vertex]))
    cands = {chars[k] for k in common} - set(line_chars) - {g.reduce(MONO_ONE)}
    if len(cands) != 2:
        raise InvariantViolationError(
            "socle method did not isolate two characters at a triple intersection",
            detail={"vertex": vertex, "candidates": sorted(cands)},
        )
    a, b = sorted(cands)
    proj = projection_pair(T, chart_set, vertex)
    if proj != (a, b):
        raise InvariantViolationError(
            "socle method disagrees with the projection-monomial method",
            detail={"vertex": vertex, "socle": (a, b), "projection": proj},
        )
    # ordered: lex-smaller canonical representative first = kept in the
    # degree-2 cohomology basis; the other spawns the virtual bundle
    return (a, b)


def projection_pair(T, chart_set, vertex):
    """Marks of a triple intersection from the two plane-projection maps.

    Each of the three straight lines has a pure power of one variable on
    one ratio side; combining each pure side with the matching part of the
    next line's mixed side yields the two monomial triples defining the
    maps to the plane.  Their common weights are the two marks.
    """
    g = T.group
    lines = sorted({T.edges[ei].line for ei in T.vertex_edges[vertex]})
    pure = {}
    mixed = {}
    for li in lines:
        ln = T.lines[li]
        for side, other in ((ln.plus, ln.minus), (ln.minus, ln.plus)):
            support = [i for i in range(3) if side[i]]
            if len(support) == 1:
                v = support[0]
                if v in pure:
                    raise InvariantViolationError(
                        "two lines share a pure variable",
                        detail={"vertex": vertex, "line": li, "variable": v},
                    )
                pure[v] = side
                mixed[v] = other
                break
        else:
            raise InvariantViolationError(
                "straight line without a pure ratio side", detail={"vertex": vertex, "line": li}
            )
    # the three lines of a triple intersection (one per character) now have
    # three different pure variables, so they cover x, y and z

    def part(m, var):
        return tuple(m[i] if i == var else 0 for i in range(3))

    x, y, z = 0, 1, 2
    triple1 = (
        monomial_mul(pure[y], part(mixed[x], z)),
        monomial_mul(part(mixed[y], x), pure[z]),
        monomial_mul(pure[x], part(mixed[z], y)),
    )
    triple2 = (
        monomial_mul(pure[x], part(mixed[y], z)),
        monomial_mul(part(mixed[x], y), pure[z]),
        monomial_mul(part(mixed[z], x), pure[y]),
    )
    out = []
    for triple in (triple1, triple2):
        ws = {g.weight(m) for m in triple}
        if len(ws) != 1:
            raise InvariantViolationError(
                "projection monomials are not equally weighted",
                detail={"vertex": vertex, "triple": triple},
            )
        out.append(ws.pop())
    return tuple(sorted(out))


def decorate(triangulation, chart_set) -> Decoration:
    T = triangulation
    line_marks = mark_lines(T)
    # an interior vertex has no zero coordinate, so none of its edges lies on a simplex side
    vertex_marks = {v: mark_vertex(T, chart_set, v, T.vertex_edges[v])
                    for v in T.interior_vertices}
    partition = classify_characters(line_marks, vertex_marks)
    return Decoration(line_marks, vertex_marks, partition)


def classify_characters(line_marks, vertex_marks):
    """Buckets of line, vertex and second (dP6 type-iii) marks.

    The `partition` stage checks that they cover the nontrivial characters
    exactly once.
    """
    buckets = {"line": set(line_marks.values()), "vertex": set(), "second": set()}
    for vm in vertex_marks.values():
        if vm.case == CASE_DP6:
            buckets["second"].add(vm.marks[0])
            buckets["vertex"].add(vm.marks[1])
        else:
            buckets["vertex"].add(vm.marks[0])
    return {k: sorted(v) for k, v in buckets.items()}


# ---------------------------------------------------------------------------
# regular triangles: the side-ratio identity


def _side_ratios(T, regular_index, kind):
    """The three side ratios of a regular triangle of side r, checked.

    Side i runs from vertex i to vertex i+1; its ratio is the line table's
    u of its edge at one end (whose line passes through the other end),
    signed positive at the opposite vertex.  A vertex and the unit steps
    along its two sides are a basis of the scaled lattice (det = |A|^2), and
    u is primitive in the invariant lattice, so u is r|A| at the opposite
    vertex, r steps from its side, and 0 at the other two.  The three ratios
    thus sum to r(1,1,1), which they match on the vertices, a basis of Q^3;
    at r = 1 they are a basic triangle's dual basis.  In a corner frame (z
    the corner variable) the sum reads d-a = e-b-c = f = r, and in a meeting
    of champions the cyclic identities.  Every side lies on a line from a
    simplex corner E_c, where u_c = 0: a corner triangle has E_c as a
    vertex, and a champion's ratios have one zero each, at three different
    coordinates.
    """
    g = T.group
    reg = T.regular_triangles[regular_index]
    where = {"regular": regular_index}
    if reg.kind != kind:
        raise InvariantViolationError(
            f"regular triangle is not a {kind} triangle", detail={**where, "kind": reg.kind}
        )
    if kind == "corner" and simplex_corners(g.order)[reg.corner] not in reg.vertices:
        raise InvariantViolationError(
            "corner triangle without its corner as a vertex", detail={**where, "corner": reg.corner}
        )
    vmap, v = T.vertex_edges, reg.vertices
    ratios = []
    for p, q, opposite in zip(v, v[1:] + v[:1], v[2:] + v[:2]):
        # from the end with fewer edges: a simplex corner has one per corner line
        end, (x, y, z) = (p, q) if len(vmap[p]) <= len(vmap[q]) else (q, p)
        at_end = (T.lines[T.edges[ei].line].u for ei in vmap[end])
        u = next((u for u in at_end if u[0] * x + u[1] * y + u[2] * z == 0), None)
        if u is None:
            raise InvariantViolationError("side of a regular triangle along no edge",
                                          detail={**where, "side": (p, q)})
        if intmat.vec_dot(u, opposite) < 0:
            u = intmat.vec_neg(u)
        if 0 not in u:
            raise InvariantViolationError(
                "side of a regular triangle on no line from a simplex corner",
                detail={**where, "side": (p, q), "ratio": u},
            )
        ratios.append(u)
    zeros = sorted(tuple(j for j in range(3) if u[j] == 0) for u in ratios)
    if kind == "champion" and zeros != [(0,), (1,), (2,)]:
        raise InvariantViolationError(
            "champion sides not on lines from three different corners",
            detail={**where, "ratios": ratios},
        )
    total = tuple(map(sum, zip(*ratios)))
    if total != (reg.side,) * 3:
        raise InvariantViolationError(
            "side ratios of a regular triangle do not sum to r(1,1,1)",
            detail={**where, "r": reg.side, "sum": total},
        )
    return ratios


def corner_region_characters(triangulation, regular_index):
    """Weights of the monomial rectangle attached to a corner regular triangle.

    In the corner's frame z is the corner variable and x the first other
    variable missing from the far side's ratio; f is the far side's
    z-exponent and d the largest x-exponent of the side ratios.  Returns,
    for k = 0..r in turn, the characters of z^(f-k) and x^(d-i) z^(f-k)
    for i = 0..r.
    """
    g = triangulation.group
    ratios = _side_ratios(triangulation, regular_index, "corner")
    reg = triangulation.regular_triangles[regular_index]
    corner, r = reg.corner, reg.side
    # the two sides through E_c have no z; the far side is the other one
    far = next(u for u in ratios if u[corner])
    f = far[corner]
    xvar = next(i for i in range(3) if i != corner and far[i] == 0)
    d = max(u[xvar] for u in ratios)

    def mono(xe, ze):
        m = [0, 0, 0]
        m[xvar] = xe
        m[corner] = ze
        return tuple(m)

    x_exponents = (0, *range(d, d - r - 1, -1))
    return [g.weight(mono(xe, f - k)) for k in range(r + 1) for xe in x_exponents]


def champion_identities(triangulation, regular_index):
    """Check the side-ratio identity of a meeting of champions (see `_side_ratios`)."""
    _side_ratios(triangulation, regular_index, "champion")
    return True


# ---------------------------------------------------------------------------
# quiver fundamental domain


class QuiverEmbedding(Record):
    __slots__ = ("chart", "placements")

    def __init__(self, chart, placements):
        self.chart = chart  # triangle whose monomial basis supplies the representatives
        self.placements = placements  # character -> exponent representative


def quiver_embedding(chart_set) -> QuiverEmbedding:
    """One hexagon per character in the plane of monomials mod (1,1,1).

    Representatives are the monomial basis of the first chart containing
    the simplex barycentre: one monomial per character, closed under
    division, hence a connected fundamental domain of the periodic hexagon
    plane.  The barycentre (|A|/3)(1,1,1) pairs with chart coordinate
    num/den to |A|/3 (deg num - deg den), which is |A| times its barycentric
    coordinate at the vertex where that coordinate pairs to |A| (`ChartSet`),
    so a chart contains it exactly when deg num >= deg den for all three.
    Only the charts, their tables and their group are read.
    """
    g = chart_set.group
    chosen = next((ti for ti, coords in enumerate(chart_set.coords)
                   if all(sum(num) >= sum(den) for num, den in coords)), None)
    if chosen is None:
        raise InvariantViolationError("no chart contains the barycentre",
                                      detail={"order": g.order, "charts": len(chart_set.coords)})
    placements = dict(zip(g.characters(), chart_set.agraphs[chosen].table))
    _check_embedding(g, placements)
    return QuiverEmbedding(chosen, placements)


def hexagon_position(monomial):
    """Centre of a monomial's hexagon: the class modulo multiples of xyz."""
    return (monomial[0] - monomial[2], monomial[1] - monomial[2])


# the six neighbours of a hexagon; the edge to neighbour k runs between its
# drawn corners k and k+1
HEX_STEPS = ((1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1), (1, 0))


def _check_embedding(group, placements):
    if len(placements) != group.order:
        raise CorrespondenceError("quiver domain does not have |A| hexagons",
                                  detail={"hexagons": len(placements), "order": group.order})
    for chi, m in placements.items():
        if group.weight(m) != chi:
            raise CorrespondenceError("quiver representative has the wrong weight",
                                      detail={"character": chi, "monomial": m})
    # with the weights right no two characters share a hexagon: two monomials
    # on one differ by a power of the invariant xyz
    cells = {hexagon_position(m) for m in placements.values()}
    # connectivity under the six unit steps of the hexagon plane
    start = min(cells)
    stack = [start]
    reached = {start}
    while stack:
        c = stack.pop()
        for dx, dy in HEX_STEPS:
            n = (c[0] + dx, c[1] + dy)
            if n in cells and n not in reached:
                reached.add(n)
                stack.append(n)
    if reached != cells:
        raise CorrespondenceError("quiver fundamental domain is disconnected",
                                  detail={"start": start, "unreached": sorted(cells - reached)})
