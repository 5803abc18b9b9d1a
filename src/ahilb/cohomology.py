"""Virtual bundles, compact surfaces, and the duality certificate.

Each interior vertex carries a compact exceptional surface (the star of
its ray, a smooth complete toric surface) and a rank-0 virtual bundle
built from its relation.  The integer pairing matrix between second
Chern classes and surfaces must be the identity (`duality_matrix`), and
the degree rows of the surviving bundles must base the degree-2 lattice
(`h2_basis_check`).  `mckay_certificate` then states the result from the
partition, without checking anything again.

Both checks read the degree table's sparse columns (`ChartSet._degree`,
one {chi: q} dict of nonzero degrees per edge, by edge id), so they cost
time in proportion to its nonzeros.  A character with degree 0 on every
boundary curve of a surface restricts to the zero class there (Fulton,
*Intersection Theory*, 3.2), so a bundle none of whose characters meets
a surface's boundary pairs to 0 with it, and only the other pairs are
computed.
The degree-2 lattice is certified by a unitriangular peel of the degree
matrix where one exists, and by `intmat.ZSpan` otherwise.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import intmat
from .errors import CorrespondenceError, InvariantViolationError
from .fan import QuotientMap
from .group import MONO_ONE
from .recipe import CASE_BLOWNUP, CASE_DP6, CASE_P2, CASE_SCROLL


@dataclass
class VirtualBundle:
    index: tuple  # the type-(ii) character
    vertex: tuple
    plus: tuple  # characters
    minus: tuple


@dataclass
class CompactSurface:
    vertex: tuple
    rays: tuple  # cyclically ordered primitive rays of the star fan
    edge_ids: tuple  # boundary curves, matching rays
    self_intersections: tuple
    surface_type: str


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
    """Star fan of an interior vertex as a smooth complete toric surface."""
    T = triangulation
    g = T.group
    if min(vertex) == 0:
        raise InvariantViolationError(
            "compact surfaces sit over interior vertices", detail={"vertex": vertex}
        )
    qm = QuotientMap(g, vertex)
    rays = []
    for ei in T.vertex_edge_map()[vertex]:
        e = T.edges[ei]
        # a basic triangle's edge is one primitive lattice step (the `basic` check)
        rays.append((qm.proj(intmat.vec_sub(e.b if e.a == vertex else e.a, vertex)), ei))
    rays.sort(key=functools.cmp_to_key(lambda a, b: angle_cmp(a[0], b[0])))
    n = len(rays)
    selfint = []
    for i in range(n):
        u_prev = rays[(i - 1) % n][0]
        u = rays[i][0]
        u_next = rays[(i + 1) % n][0]
        if intmat.cross2(u, u_next) != 1:
            raise InvariantViolationError(
                "star fan is not smooth and complete", detail={"vertex": vertex}
            )
        s = intmat.vec_add(u_prev, u_next)
        # wall relation u_prev + u_next = -(C^2) u: solve in the basis (u, u_next)
        a = intmat.cross2(s, u_next)
        b = intmat.cross2(u, s)
        if b != 0:
            raise InvariantViolationError(
                "wall relation failed in star fan", detail={"vertex": vertex}
            )
        selfint.append(-a)
    stype = _surface_type(selfint, vertex)
    if sum(selfint) != 12 - 3 * n:
        raise InvariantViolationError(
            "self-intersection cycle violates the Noether count",
            detail={"vertex": vertex, "cycle": selfint},
        )
    return CompactSurface(
        vertex,
        tuple(r[0] for r in rays),
        tuple(r[1] for r in rays),
        tuple(selfint),
        stype,
    )


def _surface_type(selfint, vertex):
    n = len(selfint)
    detail = {"vertex": vertex, "cycle": selfint}
    if n == 3:
        if tuple(selfint) != (1, 1, 1):
            raise InvariantViolationError("three-ray star fan that is not the plane", detail=detail)
        return CASE_P2
    if n == 4:
        cyc = list(selfint)
        for shift in range(4):
            c = cyc[shift:] + cyc[:shift]
            if c[0] == 0 and c[2] == 0 and c[1] == -c[3]:
                return CASE_SCROLL
        raise InvariantViolationError(f"four-ray star fan with cycle {selfint}", detail=detail)
    if n == 6 and all(c == -1 for c in selfint):
        return CASE_DP6
    if n in (5, 6):
        return CASE_BLOWNUP
    raise InvariantViolationError(f"star fan with {n} rays", detail=detail)


class SurfaceCalculus:
    """Restriction classes and pairings on one compact surface."""

    def __init__(self, chart_set, surface, mark_char):
        self.surface = surface
        self.mark_char = mark_char
        # the boundary curves' degree columns, in ray order (n >= 3 curves)
        self._columns = [chart_set._degree[ei] for ei in surface.edge_ids]
        # characters of nonzero degree on some boundary curve; all others restrict to 0
        self.support = frozenset().union(*self._columns)
        self._zero = ((0,) * len(surface.rays),) * 2  # (alpha, d) of every degree-0 character
        self._restrictions = {}  # character -> (alpha, d)

    def _restriction(self, chi):
        """Boundary degrees d and a class alpha with Q alpha = d, as (alpha, d).

        Q is the boundary curves' intersection matrix, so row i of Q alpha = d
        is the wall relation alpha_{i-1} + C_i^2 alpha_i + alpha_{i+1} = d_i.
        Principal divisors span ker Q and take any values on the basis
        (u_0, u_1), so if any rational solution exists, one has
        alpha_0 = alpha_1 = 0 and the recurrence determines it: d is realised
        iff the recurrence closes up.
        """
        entry = self._restrictions.get(chi)
        if entry is None:
            d = tuple([column.get(chi, 0) for column in self._columns])
            entry = self._zero
            if any(d):
                selfint, n = self.surface.self_intersections, len(d)
                alpha = [0, 0]
                for i in range(1, n + 1):
                    alpha.append(d[i % n] - alpha[i - 1] - selfint[i % n] * alpha[i])
                if alpha[n] or alpha[n + 1]:
                    raise InvariantViolationError(
                        "degree vector is not realised by a divisor class",
                        detail={"vertex": self.surface.vertex, "character": chi},
                    )
                entry = (tuple(alpha[:n]), d)
            self._restrictions[chi] = entry
        return entry

    def c2_pairing(self, bundle):
        """Second Chern number of a rank-0, c1-0 virtual bundle on the surface.

        The bundle's characters are canonical, as `virtual_bundle` takes
        them from the relations.
        """
        return self._pair_sum(bundle.plus) - self._pair_sum(bundle.minus)

    def _pair_sum(self, chars):
        # each side adds alpha_i . Q alpha_j = alpha_i . d_j over its pairs i < j;
        # a character outside the support has alpha = 0, so its pairs add 0
        live = [chi for chi in chars if chi in self.support]
        if len(live) < 2:
            return 0
        pairs = itertools.combinations(map(self._restriction, live), 2)
        return sum(intmat.vec_dot(alpha, d) for (alpha, _), (_, d) in pairs)


def build_surfaces(triangulation, chart_set, decoration):
    out = {}
    for v in sorted(decoration.vertex_marks):
        surf = surface_star(triangulation, v)
        vm = decoration.vertex_marks[v]
        if surf.surface_type != vm.case:
            raise InvariantViolationError(
                "star-fan surface type disagrees with the marking case",
                detail={"vertex": v, "star": surf.surface_type, "mark": vm.case},
            )
        out[v] = SurfaceCalculus(chart_set, surf, vm.mark_ii())
    return out


def build_virtual_bundles(group, decoration, relations):
    """One bundle per relation, in the relations' order (by vertex)."""
    return [virtual_bundle(group, decoration.vertex_marks[r.vertex], r) for r in relations]


def duality_matrix(group, bundles, surfaces):
    """Pairing of the virtual bundles against the compact surfaces.

    Rows and columns are ordered by vertex; each entry is compared with the
    identity as it is computed, and the first failing one is reported by
    its characters.  `c2_pairing` runs only where one of the bundle's
    characters meets the surface's boundary (`SurfaceCalculus.support`);
    every other entry is 0, which the identity expects off the diagonal.
    """
    verts = sorted(surfaces)
    column = {v: j for j, v in enumerate(verts)}
    touching = {}  # character -> columns of the surfaces in whose support it lies
    for j, v in enumerate(verts):
        for chi in surfaces[v].support:
            touching.setdefault(chi, set()).add(j)
    matrix = []
    for b in bundles:
        hits = set()
        for chi in b.plus + b.minus:
            hits.update(touching.get(chi, ()))
        own = column.get(b.vertex)
        checked = hits if own is None else hits | {own}
        row = [0] * len(verts)
        for j in sorted(checked):
            v = verts[j]
            entry = surfaces[v].c2_pairing(b) if j in hits else 0
            expected = 1 if j == own else 0
            if entry != expected:
                raise CorrespondenceError(
                    "duality pairing is not the identity",
                    detail={
                        "m": group.char_label(b.index),
                        "n": group.char_label(surfaces[v].mark_char),
                        "entry": entry,
                        "expected": expected,
                    },
                )
            row[j] = entry
        matrix.append(row)
    return matrix


def unitriangular_peel(chart_set, basis_chars):
    """Basis characters paired with edge columns in a unitriangular minor.

    Repeatedly take an edge column in which exactly one live character has
    nonzero degree, that degree being 1, and retire that character.  Listed
    in retirement order, the characters and their columns index a square
    minor of the degree matrix with ones on the diagonal and zeros below
    it, so when every character retires, the columns generate Z^b2.  A
    shorter list means the peel stalled, which proves nothing either way.
    """
    live = set(basis_chars)
    columns = chart_set._degree
    count = [0] * len(columns)  # live characters of nonzero degree, per column
    columns_of = {chi: [] for chi in live}
    for j, column in enumerate(columns):
        for chi in column:
            if chi in live:
                count[j] += 1
                columns_of[chi].append(j)
    ready = [j for j in reversed(range(len(columns))) if count[j] == 1]
    peeled = []
    while ready:
        j = ready.pop()
        if count[j] != 1:
            continue
        chi = next(c for c in columns[j] if c in live)
        if columns[j][chi] != 1:
            continue
        live.remove(chi)
        peeled.append((chi, j))
        for k in columns_of[chi]:
            count[k] -= 1
            if count[k] == 1:
                ready.append(k)
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
        columns = [[column.get(c, 0) for c in basis_chars] for column in chart_set._degree if column]
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
