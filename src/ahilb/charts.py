"""Per-triangle chart data: coordinates, monomial bases, curve degrees.

Every basic triangle gives an affine chart of the resolution, with three
coordinates read off the line table (see `ChartSet`).  The torus-fixed
point of the chart carries a monomial basis of the cluster ring: for each
character the unique exponent-minimal monomial of that weight.  Those
generators drive everything downstream.  A ChartSet builds and checks
them once per triangulation, together with the degree of every
tautological bundle on every compact curve, which `relations` and
`cohomology` read.  Each chart's table is a tuple of its |A| generators
indexed by character id (`group.char_id`, the order of
`group.characters()`); a table walked across an edge shares each
generator that does not move with its parent's.

A table has one slot per weight, so a neighbour m +- e_a of the
generator m of id k is in table W exactly when the slot of its weight
holds it: W[up[a][k]] == m + e_a, with `up` and its inverse `dn` built
once per group (`_weight_steps`).  The walk checks each derived table by
such lookups around the generators that moved into it (`_moves_checker`),
and builds no set of a table's generators.  `_checked_socle` checks every
generator against a set of them: it checks table 0, names the first
failure in table order when the walk finds one, and is the tests' oracle.

The degree column of an edge says which generators move across it, and
by how much: {id: q} for the character ids of nonzero degree q, keyed by
the group's shared id objects (`group.char_ids`), the same index as the
tables'.  So the ChartSet keeps the degree table and table 0 but not the
|A| tables of |A| generators, and every reader of the degree table looks
characters up by id, never by exponent triple.  `ChartSet.agraphs` is a
read-only view that rebuilds the tables: reading it in order costs one
replay per table, and indexing replays along the walk tree.  `ahilb check` at
`1/1601(1,7,1593)` peaks at 37 MB, against 79 MB with every table kept.
A ChartSet is read-only once built.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from heapq import heappop, heappush
from itertools import count

from . import intmat
from .errors import InvariantViolationError
from .group import MONO_ONE
from .record import Record


class AGraph(Record):
    __slots__ = ("table", "socle")

    def __init__(self, table, socle):
        self.table = table  # generator monomial of each character, indexed by `group.char_id`
        self.socle = socle  # frozenset


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
    socle = map(table.__getitem__, _checked_socle(tri_index, table, coords))
    return AGraph(table, frozenset(socle))


def _checked_socle(tri_index, table, coords):
    """The character ids of a table's socle, once its division closure and
    minimality check out.

    Every generator is tested against a set of the table's generators, and
    the first failure in table order is raised.  `build_agraph` checks
    table 0 this way; the walk checks the other tables around their moved
    generators and calls this only to report a failure it has found.

    Minimality takes one membership test per chart coordinate num/den.  A
    generator m has the smaller monomial m + den - num of its weight
    exactly when num divides m, because `ratio_split` gives num and den
    disjoint supports; and in a table closed under division some generator
    is divisible by num exactly when num is itself a generator.
    """
    members = frozenset(table)
    socle = []
    for k, m in enumerate(table):
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
            socle.append(k)
    for num, _ in coords:
        if num in members:
            raise InvariantViolationError(
                "chart generator is not weight-minimal",
                detail={"triangle": tri_index, "monomial": num},
            )
    return tuple(socle)


def _weight_steps(group):
    """`up[a][k]` is the id of character k plus e_a, and `dn[a]` the inverse of `up[a]`.

    A table has one slot per weight, so the monomial m + e_a, where m has
    character id k, lies in table W exactly when W[up[a][k]] == m + e_a,
    and m - e_a exactly when W[dn[a][k]] == m - e_a.
    """
    char_id, chars = group.char_id, group.characters()
    up = (
        tuple(char_id((x + 1, y, z)) for x, y, z in chars),
        tuple(char_id((x, y + 1, z)) for x, y, z in chars),
        tuple(char_id((x, y, z + 1)) for x, y, z in chars),
    )
    dn = []
    for step in up:
        back = [0] * len(step)
        for k, j in enumerate(step):
            back[j] = k
        dn.append(tuple(back))
    return up, tuple(dn)


def _moves_checker(group):
    """The walk's check of a table derived across a tree edge, around its moved generators.

    `check(tj, walked, table, column, socle, coords)` returns the socle ids
    of triangle tj's table `walked`, which `_transition_table` made from
    the checked `table` (socle ids `socle`) by moving the generators at
    the ids of its degree column `column`, the moved ids; `coords` are
    tj's chart coordinates.  It checks what `_checked_socle` checks, by
    lookups by weight (`_weight_steps`) at a few ids, with no set of the
    table's generators built:
    - Division closure.  A generator that did not move has its parent's
      divisors, each still there unless it was vacated.  So `walked` is
      closed exactly when every moved generator's new monomial has its
      divisors, and no multiple of a vacated monomial stays.  Each moved
      id vacates its old monomial, since that weight's one slot now holds
      the new one.
    - The socle.  Whether id j is in it reads slots j and up[a][j] only,
      and a crossing changes only the moved ids' slots; up[a][j] is a
      moved id k exactly when j = dn[a][k].  So the moved ids and their
      dn[a] ids are decided again by the socle's definition, and every
      other id keeps the parent's status.
    - Minimality, one lookup W[id(num)] == num per chart coordinate.
    On any fault it runs `_checked_socle` on the whole table, which
    raises the first failure in table order.  Should that pass, a moved
    id kept its generator, and the check raises itself.
    """
    (u0, u1, u2), (d0, d1, d2) = _weight_steps(group)
    char_id = cache(group.char_id)  # a chart numerator is a side of a line, shared by many charts

    def check(tj, walked, table, column, socle, coords):
        W = walked
        near = set(column)  # the ids whose socle status the crossing can change
        for k in column:
            a, b, c = W[k]
            x, y, z = table[k]
            if (W[u0[k]] == (x + 1, y, z) or W[u1[k]] == (x, y + 1, z)
                    or W[u2[k]] == (x, y, z + 1)):
                break  # a multiple of the vacated monomial stays
            if ((a and W[d0[k]] != (a - 1, b, c)) or (b and W[d1[k]] != (a, b - 1, c))
                    or (c and W[d2[k]] != (a, b, c - 1))):
                break  # a divisor of the new monomial is missing
            near.add(d0[k])
            near.add(d1[k])
            near.add(d2[k])
        else:
            if all(W[char_id(num)] != num for num, _ in coords):
                out = [k for k in socle if k not in near]
                for k in near:
                    a, b, c = W[k]
                    if (W[u0[k]] != (a + 1, b, c) and W[u1[k]] != (a, b + 1, c)
                            and W[u2[k]] != (a, b, c + 1)):
                        out.append(k)
                out.sort()
                return tuple(out)
        _checked_socle(tj, walked, coords)
        raise InvariantViolationError(
            "moved generators do not account for the walked table", detail={"triangle": tj}
        )

    return check


def _transition_table(table, u, edge, near, far, ids):
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
    and its degree column, {id: q} for the generators that move (q > 0),
    keyed by the shared character ids `ids` (`group.char_ids`) in ascending
    order; the generators that do not move are shared with this table.

    Since m >= 0, q > 0 exactly when m_i >= v_i for each v_i > 0, so the
    scan compares first and divides only at the generators that move
    (about a tenth of them at |A| = 401).
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
    column = {}
    for k, m in zip(ids, table):
        if m[i] >= vi and m[j] >= vj:
            q = m[i] // vi
            r = m[j] // vj
            if r < q:
                q = r
            out[k] = (m[0] - q * v0, m[1] - q * v1, m[2] - q * v2)
            column[k] = q
    return tuple(out), column


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

    `coords[ti]` holds triangle ti's three chart coordinates, each a
    (numerator, denominator) pair of monomials.  Coordinate i is the line
    table's ratio of the side opposite vertex i (`Triangle.edges[i]`),
    signed positive at that vertex, where it must pair to exactly |A|;
    given the line table, that holds exactly when the triangle is basic.
    The `basic` stage proves |det| = |A|^2 and the `ratios` stage proves
    each ratio invariant, vanishing on its line and minimal, so the signed
    ratios are the dual basis of the vertices (Fulton, *Introduction to
    Toric Varieties*, 2.1).

    Triangle 0's table comes from `build_agraph`, and a walk crosses every
    interior edge once (`_transition_table`).  Once a triangle's table is
    built, the walk crosses at once each of its sides whose neighbour is
    built, where the transitioned table must equal the neighbour's, and
    queues the others.  The next tree edge is the lightest queued side
    whose edge is not crossed yet: sides on tesselating lines (no zero in
    the ratio u) before sides on corner lines, then the larger |u|_1
    first, then in the order queued.  Few generators move across a light
    edge, and the heavy ones lie on the corner lines of the corner with
    the large weight (Craw-Reid, math/9909085), so at `1/401(1,7,393)` the
    tree edges move 6,108 generators (52,721 at 1601) where a breadth-first
    tree moved 21,290 (296,245).  Across a tree edge the transitioned table
    becomes the neighbour's, checked for division closure and minimality,
    and its socle found, only around the generators that moved
    (`_moves_checker`, by lookups by weight from the parent's socle ids).
    Either way the crossing gives the edge's column of the degree table,
    {id: q} for the character ids of nonzero degree q on the edge's curve,
    each key the group's shared id object (`group.char_ids`); `_degree`
    holds these columns by edge id, with an empty column for each boundary
    edge.  The tables are canonical, so the order of the walk changes no
    table, socle or column.  A triangle the walk cannot reach is an error.

    A table is dropped once all its sides are crossed, so only the walk's
    frontier is alive: at most 56 tables at |A| = 401 and 206 at 1601
    (breadth-first: 31 and 56), and 801 on `1/1601(1,1,1599)`.  Crossing
    the sides between built tables at once is what keeps the frontier that
    small: left to the heap, a table waits for its heavy sides, and 173
    tables were alive at 401, 692 at 1601 and all 1,600 on
    `1/1601(1,1,1599)`.  What is kept is table 0, the character ids of
    each socle (`socle_ids`), each triangle's walk parent and the edge
    crossed from it, and the degree columns.  Those say every table: each
    generator m whose id is in a column moves to m - q*v across the edge,
    with v the edge ratio oriented toward the new triangle's far vertex,
    whichever side the walk crossed from, and every other generator stays.
    `agraphs` rebuilds the tables that way (`_AGraphs`).
    """

    def __init__(self, triangulation):
        self.triangulation = T = triangulation
        self.group = g = triangulation.group
        chars, ids = g.characters(), g.char_ids()
        check = _moves_checker(g)
        tris, edges, lines = T.triangles, T.edges, T.lines
        self.coords = []
        for tri in tris:
            coords = []
            for p, ei in zip(tri.vertices, tri.edges):
                ln = lines[edges[ei].line]
                s = intmat.vec_dot(ln.u, p)
                if abs(s) != g.order:
                    raise InvariantViolationError("chart requested for a non-basic triangle",
                                                  detail={"vertices": tri.vertices})
                coords.append((ln.plus, ln.minus) if s > 0 else (ln.minus, ln.plus))
            self.coords.append(tuple(coords))
        graph = build_agraph(g, 0, tris[0].vertices, self.coords[0])
        root = graph.table
        self.socle_ids = socles = [None] * len(tris)
        socles[0] = tuple(k for k, m in enumerate(root) if m in graph.socle)
        parent = [None] * len(tris)  # walk parent, and the edge crossed from it
        # per edge: character id -> nonzero degree, filled as the walk crosses it
        columns = [None if e.interior else {} for e in edges]
        # per line: tesselating lines (no zero in u) first, then the larger |u|_1
        norms = [sum(map(abs, ln.u)) for ln in lines]
        top = 1 + max(norms, default=0)
        rank = [(0 in ln.u) * top - n for ln, n in zip(lines, norms)]
        live = {}  # the tables built with a side not yet crossed
        left = [0] * len(tris)  # the sides queued from each table and not yet crossed
        heap = []  # (rank, push order, triangle, side) toward a triangle not built then
        order = count()

        def cross(ti, i, table):
            """Cross side i of triangle ti from its `table` and store the edge's column.

            Returns the triangle across the side and its transitioned table.
            """
            tri = tris[ti]
            ei = tri.edges[i]
            e = edges[ei]
            tj = sum(e.triangles) - ti
            nbr = tris[tj]
            walked, columns[ei] = _transition_table(
                table, lines[e.line].u, e, tri.vertices[i], nbr.vertices[nbr.edges.index(ei)], ids
            )
            return tj, walked

        def settle(ti, table):
            """Cross triangle ti's sides to built tables, and queue the others."""
            for i in (2, 1, 0):  # ascending edge id
                ei = tris[ti].edges[i]
                if columns[ei] is not None:
                    continue
                e = edges[ei]
                tj = sum(e.triangles) - ti
                if socles[tj] is None:
                    heappush(heap, (rank[e.line], next(order), ti, i))
                    left[ti] += 1
                    continue
                _, walked = cross(ti, i, table)
                _check_same_table(walked, live[tj], lines[e.line].u, e, chars)
                left[tj] -= 1
                if not left[tj]:
                    del live[tj]
            if left[ti]:
                live[ti] = table

        settle(0, root)
        while heap:
            _, _, ti, i = heappop(heap)
            ei = tris[ti].edges[i]
            if columns[ei] is not None:
                continue  # crossed when its other triangle was built
            table = live[ti]
            left[ti] -= 1
            if not left[ti]:
                del live[ti]
            tj, walked = cross(ti, i, table)
            socles[tj] = check(tj, walked, table, columns[ei], socles[ti], self.coords[tj])
            parent[tj] = (ti, ei)
            settle(tj, walked)
        if None in socles:
            raise InvariantViolationError(
                "triangle not reachable across interior edges",
                detail={"triangle": socles.index(None)},
            )
        self._degree = tuple(columns)
        self.agraphs = _AGraphs(T, root, parent, socles, self._degree)

    def degree_on_curve(self, chi, edge_index):
        """Transition exponent of the weight-chi bundle across an interior edge."""
        e = self.triangulation.edges[edge_index]
        if not e.interior:
            raise InvariantViolationError(
                "degrees are defined on interior edges only", detail={"edge": (e.a, e.b)}
            )
        return self._degree[edge_index].get(self.group.char_id(chi), 0)


class _AGraphs(Sequence):
    """`ChartSet.agraphs`: each triangle's AGraph, rebuilt from table 0 and the degree columns.

    Indexing moves one copy of table 0 across the walk tree's edges up
    from the triangle indexed (the tree is 84 edges deep at |A| = 401 and
    255 at 1601, against 24 and 45 breadth-first), and keeps no table.
    Iteration goes in triangle order, one replay per table (`replayed`).
    """

    def __init__(self, triangulation, root, parent, socle_ids, columns):
        self._triangulation = triangulation
        self._parent = parent
        self._socle_ids = socle_ids
        self._columns = columns
        self._root = root

    def __len__(self):
        return len(self._parent)

    def __getitem__(self, ti):
        if not -len(self) <= ti < len(self):
            raise IndexError("chart index out of range")
        ti %= len(self)
        return self._agraph(ti, self._table(ti))

    def __iter__(self):
        return self.replayed(lambda ti, table, prev, column: self._agraph(ti, table))

    def replayed(self, fill):
        """`fill(ti, table, prev, column)` for each triangle ti in order, as its table is rebuilt.

        Triangle ti's table is replayed from its latest earlier neighbour's
        across their shared edge, whose degree column `column` ({id: q})
        holds exactly the ids whose generator differs between the two, and
        `prev` is what `fill` gave for that neighbour.  A triangle with no
        earlier neighbour is indexed instead, with `prev` and `column` None.
        Each table and its value are held until the last triangle rebuilt
        from them: one replay per table, and at most 173 held at |A| = 1601.
        """
        T = self._triangulation
        source = [None] * len(self)  # latest earlier neighbour, and the edge to it
        last = [0] * len(self)  # the last triangle rebuilt from each
        for ti, tri in enumerate(T.triangles):
            for ei in tri.edges:
                e = T.edges[ei]
                s = sum(e.triangles) - ti
                if e.interior and s < ti and (source[ti] is None or s > source[ti][0]):
                    source[ti] = (s, ei)
            if source[ti] is not None:
                last[source[ti][0]] = ti
        held = {}  # triangle -> (table, value)
        for ti, src in enumerate(source):
            if src is None:
                table = self._table(ti)
                value = fill(ti, table, None, None)
            else:
                s, ei = src
                prev_table, prev = held.pop(s) if last[s] == ti else held[s]
                table = self._replay(prev_table, ei, ti)
                value = fill(ti, table, prev, self._columns[ei])
            if last[ti] > ti:
                held[ti] = table, value
            yield value

    def _agraph(self, ti, table):
        return AGraph(table, frozenset(map(table.__getitem__, self._socle_ids[ti])))

    def _replay(self, table, ei, ti):
        """Triangle ti's table from its neighbour's `table` across edge ei."""
        out = list(table)
        self._move(out, ei, ti)
        return tuple(out)

    def _move(self, out, ei, ti):
        """Move the generators in list `out` across edge ei, toward triangle ti."""
        T = self._triangulation
        tri = T.triangles[ti]
        u = T.lines[T.edges[ei].line].u
        far = tri.vertices[tri.edges.index(ei)]
        v0, v1, v2 = u if intmat.vec_dot(u, far) > 0 else intmat.vec_neg(u)
        for k, q in self._columns[ei].items():
            m = out[k]
            out[k] = (m[0] - q * v0, m[1] - q * v1, m[2] - q * v2)

    def _table(self, ti):
        """Triangle ti's table, table 0 moved across every edge of ti's walk-tree path.

        Each crossing adds -q*v to the generators of its column, and these
        moves add up in any order, so they are made up the path into one
        copy of table 0: one copy and the path's moves, however deep the tree.
        """
        out = list(self._root)
        while ti:
            parent, ei = self._parent[ti]
            self._move(out, ei, ti)
            ti = parent
        return tuple(out)
