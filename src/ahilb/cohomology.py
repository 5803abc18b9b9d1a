"""Virtual bundles, compact surfaces, and the duality certificate.

Each interior vertex carries a compact exceptional surface (the star of
its ray, a smooth complete toric surface) and a rank-0 virtual bundle
built from its relation.  The integer pairing matrix between second
Chern classes and surfaces must be the identity (`duality_matrix`), and
the degree rows of the surviving bundles must base the degree-2 lattice
(`h2_basis_check`).  `mckay_certificate` then states the result from the
partition, without checking anything again.

Both checks read the degree table's sparse columns (`ChartSet._degree`,
one {id: q} dict of nonzero degrees per edge, by edge id, keyed by
character id), so they cost time in proportion to its nonzeros.  Each
bundle side and basis character is mapped to its id once, where it comes
in, and every later lookup is by id; a failure still names a character
by its exponent triple or label.  A character with degree 0 on every
boundary curve of a surface restricts to the zero class there (Fulton,
*Intersection Theory*, 3.2), and c2 of a side adds the products of its
characters' classes in pairs, so a side with fewer than two characters
in a surface's support pairs to 0 with it.

Most of the remaining pairs vanish for a second reason.  On a smooth
complete toric surface with rays u_0, ..., u_{n-1} and boundary curves
C_i, an integer vector d is the degree vector (D.C_i) of a divisor class
D exactly when sum_i d_i u_i = 0: Pic is Z^n modulo the principal
divisors (<m, u_i>)_i, the intersection form identifies Pic with its
dual, and the dual of that quotient is the d annihilating every
(<m, u_i>)_i.  Rationally this says d lies in the image of the curves'
intersection matrix, which is what the wall recurrence of
`SurfaceCalculus._restriction` tests when it closes up; so realisable
<=> sum_i d_i u_i = 0 <=> the recurrence closes.  Now let u_l = -u_k be
an opposite pair of rays.  The line R u_k is a union of two rays of the
fan, so no cone crosses it and N -> N / Z u_k maps the fan onto the fan
of P^1: a ruling S -> P^1 (Fulton, *Introduction to Toric Varieties*,
2.4-2.5).  C_k and C_l map isomorphically onto P^1 and every other C_i
to a fixed point, so the fibre F has degree vector e_k + e_l, and F^2 = 0
since two fibres are disjoint.  A character whose degree vector is
q (e_k + e_l) is realised (q u_k + q u_l = 0), and by the nondegeneracy
of the form its class is q F; any two such classes, of one ruling, pair
to q q' F^2 = 0.  So a side whose characters in the support are all such
multiples of one fibre adds 0 however many it holds, the same character
held twice included; a non-fibre character held twice still adds its
self-intersection, so sides are counted with multiplicity.

The duality matrix is checked in two passes over the surfaces, each
building one `SurfaceCalculus` (support and restriction memo, by
character id) at a time and dropping it before the next: a support pass
that pairs the diagonal and sets, per character id, a bitmask of the
surfaces whose support holds it; then a pass over only the surfaces
where some bundle side holds two support characters, which reads their
rulings and pairs there the sides not all on one ruling
(`duality_matrix`).  The masks take |A| * b4 bits, against the degree
table's tens of bytes per nonzero, and the error reported is still the
first failing entry in row-major order.
The degree-2 lattice is certified by a unitriangular peel of the degree
matrix where one exists, and by `intmat.ZSpan` otherwise.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping

from . import intmat
from .errors import CorrespondenceError, InvariantViolationError
from .fan import QuotientMap
from .group import MONO_ONE
from .recipe import CASE_BLOWNUP, CASE_DP6, CASE_P2, CASE_SCROLL
from .record import Record


class VirtualBundle(Record):
    __slots__ = ("index", "vertex", "plus", "minus")

    def __init__(self, index, vertex, plus, minus):
        self.index = index  # the type-(ii) character
        self.vertex = vertex
        self.plus = plus  # characters
        self.minus = minus


class CompactSurface(Record):
    __slots__ = ("vertex", "rays", "edge_ids", "self_intersections", "surface_type")

    def __init__(self, vertex, rays, edge_ids, self_intersections, surface_type):
        self.vertex = vertex
        self.rays = rays  # cyclically ordered primitive rays of the star fan
        self.edge_ids = edge_ids  # boundary curves, matching rays
        self.self_intersections = self_intersections
        self.surface_type = surface_type


def virtual_bundle(group, vertex_mark, relation) -> VirtualBundle:
    """Rank-0, degree-0 formal difference attached to one interior vertex.

    Degree 0 is the relation's equal character sums, checked in `relations`.
    """
    trivial = group.reduce(MONO_ONE)
    plus = tuple(sorted(relation.rhs))
    minus = tuple(sorted(relation.lhs + (trivial,)))
    if len(plus) != len(minus):
        raise InvariantViolationError(
            "virtual bundle sides have different ranks",
            detail={"vertex": vertex_mark.vertex, "plus": plus, "minus": minus},
        )
    return VirtualBundle(vertex_mark.mark_ii(), vertex_mark.vertex, plus, minus)


def angle_cmp(d1, d2):
    """Counter-clockwise order of plane directions, starting from the +x axis."""
    h1 = 0 if (d1[1] > 0 or (d1[1] == 0 and d1[0] > 0)) else 1
    h2 = 0 if (d2[1] > 0 or (d2[1] == 0 and d2[0] > 0)) else 1
    if h1 != h2:
        return -1 if h1 < h2 else 1
    c = intmat.cross2(d1, d2)
    return -1 if c > 0 else (1 if c < 0 else 0)


def surface_star(triangulation, vertex) -> CompactSurface:
    """Star fan of an interior vertex as a smooth complete toric surface.

    The rays u_0, ..., u_{n-1}, in counter-clockwise order, must have
    cross2(u_{i-1}, u_i) = 1 all around the cycle: the fan is then smooth
    and complete, and nothing else needs checking.  Each (u_i, u_{i+1}) is
    a basis and cross2(u_i, u_{i-1} + u_{i+1}) = -1 + 1 = 0, so the wall
    relation u_{i-1} + u_{i+1} = -C_i^2 u_i holds, and cross2(u_{i+1},
    u_{i-1}) = -C_i^2 cross2(u_{i+1}, u_i) = C_i^2.  Noether's formula
    sum C_i^2 = 12 - 3n holds on every smooth complete toric surface
    (Fulton, *Introduction to Toric Varieties*, 2.5).
    """
    T = triangulation
    g = T.group
    if min(vertex) == 0:
        raise InvariantViolationError(
            "compact surfaces sit over interior vertices", detail={"vertex": vertex}
        )
    qm = QuotientMap(g, vertex)
    rays = []
    for ei in T.vertex_edges[vertex]:
        e = T.edges[ei]
        # a basic triangle's edge is one primitive lattice step (the `basic` check)
        rays.append((qm.proj(intmat.vec_sub(e.b if e.a == vertex else e.a, vertex)), ei))
    rays.sort(key=functools.cmp_to_key(lambda a, b: angle_cmp(a[0], b[0])))
    u = [r[0] for r in rays]
    n = len(u)
    if any(intmat.cross2(u[i - 1], u[i]) != 1 for i in range(n)):
        raise InvariantViolationError(
            "star fan is not smooth and complete", detail={"vertex": vertex}
        )
    selfint = [intmat.cross2(u[(i + 1) % n], u[i - 1]) for i in range(n)]
    return CompactSurface(
        vertex, tuple(u), tuple(r[1] for r in rays), tuple(selfint), _surface_type(selfint, vertex)
    )


def _surface_type(selfint, vertex):
    """The surface's case from its self-intersection cycle.

    After `surface_star`'s check, three or four rays need no other.  In the
    basis (u_0, u_1), cross2 = 1 around the cycle forces u_2 = -u_0 - u_1
    for three rays, the plane with cycle (1, 1, 1).  For four rays it forces
    u_2 = -u_0 + y u_1 and u_3 = p u_0 - u_1 with yp = 0, a Hirzebruch
    surface with cycle (-p, -y, p, y), a rotation of (0, a, 0, -a).
    """
    n = len(selfint)
    if n == 3:
        return CASE_P2
    if n == 4:
        return CASE_SCROLL
    if n == 6 and all(c == -1 for c in selfint):
        return CASE_DP6
    if n in (5, 6):
        return CASE_BLOWNUP
    raise InvariantViolationError(f"star fan with {n} rays",
                                  detail={"vertex": vertex, "cycle": selfint})


class SurfaceCalculus:
    """Restriction classes and pairings on one compact surface, by character id."""

    def __init__(self, chart_set, surface, mark_char):
        self.surface = surface
        self.mark_char = mark_char
        self._chars = chart_set.group.characters()  # to name a character in a failure
        # the boundary curves' degree columns, in ray order (n >= 3 curves)
        self._columns = [chart_set._degree[ei] for ei in surface.edge_ids]
        # ids of nonzero degree on some boundary curve; all others restrict to 0
        self.support = frozenset().union(*self._columns)
        self._zero = ((0,) * len(surface.rays),) * 2  # (alpha, d) of every degree-0 character
        self._restrictions = {}  # character id -> (alpha, d)

    def _restriction(self, k):
        """Boundary degrees d and a class alpha with Q alpha = d, as (alpha, d),
        of the character of id k.

        Q is the boundary curves' intersection matrix, so row i of Q alpha = d
        is the wall relation alpha_{i-1} + C_i^2 alpha_i + alpha_{i+1} = d_i.
        Principal divisors span ker Q and take any values on the basis
        (u_0, u_1), so if any rational solution exists, one has
        alpha_0 = alpha_1 = 0 and the recurrence determines it: d is realised
        iff the recurrence closes up.
        """
        entry = self._restrictions.get(k)
        if entry is None:
            d = tuple([column.get(k, 0) for column in self._columns])
            entry = self._zero
            if any(d):
                selfint, n = self.surface.self_intersections, len(d)
                alpha = [0, 0]
                for i in range(1, n + 1):
                    alpha.append(d[i % n] - alpha[i - 1] - selfint[i % n] * alpha[i])
                if alpha[n] or alpha[n + 1]:
                    raise InvariantViolationError(
                        "degree vector is not realised by a divisor class",
                        detail={"vertex": self.surface.vertex, "character": self._chars[k]},
                    )
                entry = (tuple(alpha[:n]), d)
            self._restrictions[k] = entry
        return entry

    def rulings(self):
        """The fibre multiples of each ruling: for every opposite pair of rays
        u_l = -u_k, the character ids whose degree vector is q (e_k + e_l),
        as {(k, l): set of ids}.  Every two characters of one set pair
        to 0 (F^2 = 0, see the module docstring).

        It reads the degrees only, with no recurrence, so it never raises.
        """
        rays, columns = self.surface.rays, self._columns
        out = {}
        for k, l in itertools.combinations(range(len(rays)), 2):
            x, y = rays[k]
            if rays[l] == (-x, -y):
                ck, cl = columns[k], columns[l]
                on = {i for i in ck.keys() & cl.keys() if ck[i] == cl[i]}
                on.difference_update(*(c for m, c in enumerate(columns) if m != k and m != l))
                out[k, l] = on
        return out

    def c2_pairing(self, bundle):
        """Second Chern number of a rank-0, c1-0 virtual bundle on the surface.

        `bundle` holds its sides `plus` and `minus` as character ids, as
        `duality_matrix` maps them (`by_id`).
        """
        return self._pair_sum(bundle.plus) - self._pair_sum(bundle.minus)

    def _pair_sum(self, ids):
        # each side adds alpha_i . Q alpha_j = alpha_i . d_j over its pairs i < j;
        # a character outside the support has alpha = 0, so its pairs add 0
        live = [k for k in ids if k in self.support]
        if len(live) < 2:
            return 0
        pairs = itertools.combinations(map(self._restriction, live), 2)
        return sum(intmat.vec_dot(alpha, d) for (alpha, _), (_, d) in pairs)


class SurfaceCalculators(Mapping):
    """Vertex -> a new `SurfaceCalculus` of its surface at each lookup; none is kept.

    `duality_matrix` looks a vertex up once in each pass that needs it (every
    vertex in the support pass, then only the crowded surfaces) and drops
    each calculator before the next lookup, so through this map one
    calculator is alive at a time.
    """

    def __init__(self, chart_set, surfaces, decoration):
        self._chart_set = chart_set
        self._surfaces = surfaces  # vertex -> CompactSurface
        self._marks = decoration.vertex_marks

    def __getitem__(self, v):
        return SurfaceCalculus(self._chart_set, self._surfaces[v], self._marks[v].mark_ii())

    def __iter__(self):
        return iter(self._surfaces)

    def __len__(self):
        return len(self._surfaces)


def build_surfaces(triangulation, decoration):
    """The star fan of every interior vertex, by vertex, of its marking's type."""
    out = {}
    for v in sorted(decoration.vertex_marks):
        surf = surface_star(triangulation, v)
        case = decoration.vertex_marks[v].case
        if surf.surface_type != case:
            raise InvariantViolationError(
                "star-fan surface type disagrees with the marking case",
                detail={"vertex": v, "star": surf.surface_type, "mark": case},
            )
        out[v] = surf
    return out


def build_virtual_bundles(group, decoration, relations):
    """One bundle per relation, in the relations' order (by vertex)."""
    return [virtual_bundle(group, decoration.vertex_marks[r.vertex], r) for r in relations]


def by_id(group, bundle):
    """`bundle` with its sides as character ids, the form `SurfaceCalculus.c2_pairing` reads."""
    cid = group.char_id
    return VirtualBundle(
        bundle.index, bundle.vertex, tuple(map(cid, bundle.plus)), tuple(map(cid, bundle.minus))
    )


def duality_matrix(group, bundles, calculators):
    """Check that the pairing of the virtual bundles against the compact
    surfaces is the identity; its size b4 when it is.

    Row i is the bundle of the i-th vertex in order and column j the
    surface of the j-th, so the diagonal pairs each bundle with its own
    surface.  A side of a bundle pairs to 0 on a surface when it has fewer
    than two characters in the surface's support (`_pair_sum`), or when
    those it has all restrict to multiples of one ruling's fibre
    (`SurfaceCalculus.rulings`); so `c2_pairing` runs on the diagonal, and
    off it only where some side has two support characters, counted with
    multiplicity, not all on one ruling.  Every other entry is 0, which the
    identity expects off the diagonal, and cannot fail: `c2_pairing` would
    restrict nothing on a short side, and only realisable fibre multiples
    on a ruled one.

    `calculators` maps each vertex to its `SurfaceCalculus`; through
    `SurfaceCalculators` each lookup builds a new one, and the walk drops it
    before the next, in two passes:

    - support: every calculator, once, in vertex order.  Bit j of `supp[k]`
      marks the j-th surface whose support holds id k, and the diagonal is
      paired.  A few AND/ORs of `supp` over each side's ids (a repeated id
      counted twice, the side's own row left out) then give the crowded
      surfaces, where some side holds two support ids, and `supp` is
      dropped;
    - crowded: only those surfaces' calculators, ascending, each read once
      for its rulings.  A side is ruled on a surface when its support ids
      all lie in one ruling, so a crowded side left unruled there holds an
      id outside the largest ruling: the rows of such sides, found from
      those ids through `holders` (id -> side keys), are paired in
      ascending order with the same calculator.

    The masks are bitsets over the b4 surfaces, |A| * b4 bits in all (0.76
    MB at `1/3203(1,7,3195)`), and are dropped before the second pass;
    `holders` has one entry per character of a side.  A column stops at its
    first failure, and the failure with the least (row, column), the first
    in row-major order, is reported by its characters.  No matrix is kept:
    the document writes the b4 identity rows.  The bundles' sides are
    mapped to character ids once, here (`by_id`).
    """
    verts = sorted(calculators)
    rows = [b.vertex for b in bundles]
    if rows != verts:
        raise CorrespondenceError(
            "virtual bundles are not one per surface in vertex order",
            detail={"bundle_vertices": rows, "surface_vertices": verts},
        )
    bundles = [by_id(group, b) for b in bundles]
    sides = [ids for b in bundles for ids in (b.plus, b.minus)]  # key 2i + 0 plus, 2i + 1 minus
    fails = {}  # column -> (row, error) of its first failure
    supp = [0] * group.order  # by character id: bit j set when surface j's support holds it
    for j, v in enumerate(verts):
        calc, bit = calculators[v], 1 << j
        for k in calc.support:
            supp[k] |= bit
        _pair_rows(group, bundles, calc, j, (j,), fails)
        del calc  # before the next one is built
    crowded = 0  # the surfaces where a side, off its own row, holds two support ids
    for key, ids in enumerate(sides):
        once = twice = 0
        for k in ids:
            twice |= once & supp[k]
            once |= supp[k]
        crowded |= twice & ~(1 << (key >> 1))
    del supp
    holders = [[] for _ in range(group.order)]  # by character id: the keys of the sides holding it
    for key, ids in enumerate(sides):
        for k in ids:
            holders[k].append(key)
    for j in _bits(crowded):
        calc = calculators[verts[j]]
        support, slots = calc.support, list(calc.rulings().values())
        # a side is ruled when its support ids all lie in one slot, so a crowded,
        # unruled side holds an id outside the largest slot
        rows = set()
        for k in support.difference(max(slots, key=len, default=())):
            for key in holders[k]:
                i, ids = key >> 1, sides[key]
                if i != j and i not in rows:
                    live = support.intersection(ids)  # k is in it; k held twice counts twice
                    if (len(live) > 1 or ids.count(k) > 1) and not any(map(live.issubset, slots)):
                        rows.add(i)
        _pair_rows(group, bundles, calc, j, sorted(rows), fails)
        del calc  # before the next one is built
    if fails:
        raise min((i, j, exc) for j, (i, exc) in fails.items())[2]
    return len(verts)


def _bits(mask):
    """The positions of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pair_rows(group, bundles, calc, j, rows, fails):
    """Pair `rows`, ascending, with column j's calculator, and record the
    column's first failure in `fails` as column -> (row, error).

    `bundles` hold their sides as character ids (`by_id`).  A failure the
    column already has (its diagonal's, paired first) ends the rows after it.
    """
    for i in rows:
        if j in fails and fails[j][0] < i:
            return
        b = bundles[i]
        expected = 1 if i == j else 0
        try:
            entry = calc.c2_pairing(b)
        except InvariantViolationError as exc:
            fails[j] = i, exc
            return
        if entry != expected:
            fails[j] = i, CorrespondenceError(
                "duality pairing is not the identity",
                detail={
                    "m": group.char_label(b.index),
                    "n": group.char_label(calc.mark_char),
                    "entry": entry,
                    "expected": expected,
                },
            )
            return


def unitriangular_peel(chart_set, basis_chars):
    """Basis characters paired with edge columns in a unitriangular minor.

    Repeatedly take an edge column in which exactly one live character has
    nonzero degree, that degree being 1, and retire that character.  Listed
    in retirement order, the characters and their columns index a square
    minor of the degree matrix with ones on the diagonal and zeros below
    it, so when every character retires, the columns generate Z^b2.  A
    shorter list means the peel stalled, which proves nothing either way.
    The peel runs on character ids, each basis character mapped once.
    """
    g = chart_set.group
    live = set(map(g.char_id, basis_chars))
    columns = chart_set._degree
    count = [0] * len(columns)  # live characters of nonzero degree, per column
    columns_of = {k: [] for k in live}
    for j, column in enumerate(columns):
        for k in column:
            if k in live:
                count[j] += 1
                columns_of[k].append(j)
    ready = [j for j in reversed(range(len(columns))) if count[j] == 1]
    chars = g.characters()
    peeled = []
    while ready:
        j = ready.pop()
        if count[j] != 1:
            continue
        k = next(k for k in columns[j] if k in live)
        if columns[j][k] != 1:
            continue
        live.remove(k)
        peeled.append((chars[k], j))
        for i in columns_of[k]:
            count[i] -= 1
            if count[i] == 1:
                ready.append(i)
    return peeled


def h2_basis_check(chart_set, decoration):
    """Degree rows of the surviving bundles base the degree-2 lattice.

    The matrix of curve degrees of the type (i)/(iii) characters must be
    surjective onto Z^b2 (all elementary divisors 1): shown by a complete
    `unitriangular_peel`, or else by `intmat.ZSpan` on every edge column.
    That each type (ii) row is the integer combination given by its relation
    is the degree-row check of the relations (`check_bundle_degrees`, in
    `relations`).
    """
    basis_chars = sorted(
        set(decoration.partition["line"]) | set(decoration.partition["second"])
    )
    b2 = len(basis_chars)
    if len(unitriangular_peel(chart_set, basis_chars)) < b2:
        # the nonempty columns are the interior edges': each has its line's mark
        ids = list(map(chart_set.group.char_id, basis_chars))
        columns = [[column.get(k, 0) for k in ids] for column in chart_set._degree if column]
        if not intmat.columns_generate_full_lattice(columns, b2):
            raise CorrespondenceError(
                "degree matrix of surviving bundles is not a unimodular basis",
                detail={"b2": b2, "edges": len(columns)},
            )
    return {"b2": b2, "unimodular": True, "relation_rows": True}


def mckay_certificate(group, decoration):
    """The result, stated: the characters biject with a basis of H*(Y, Z).

    It restates what earlier stages proved and checks nothing itself: the
    counts 1 + b2 + b4 = |A| with b2 and b4 the age counts in
    `completeness`, the identity pairing in `duality`, and the unimodular
    degree rows in `h2_basis`.
    """
    part = decoration.partition
    return {
        "order": group.order,
        "h0": 1,
        "b2": len(part["line"]) + len(part["second"]),
        "b4": len(part["vertex"]),
        "partition": {k: len(v) for k, v in part.items()},
        "pass": True,
    }
