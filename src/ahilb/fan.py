"""Triangulation of the junior simplex.

Pipeline: per-corner line fans, whose rays and strengths come from the
Hirzebruch-Jung continued-fraction recurrence of the corner cone, the
knock-out tournament that partitions the simplex into regular triangles,
and the regular tesselation into basic triangles.  Every edge is labelled
with the minimal invariant monomial ratio vanishing on its line.  The
scaled lattice is `AbelianGroup.lattice_basis`; no step solves a lattice
system.

All geometry is exact.  Points live in the plane {sum = |A|} with integer
coordinates ("scaled" coordinates); the plane is embedded into Z^2 by
dropping the last coordinate, which preserves all incidence predicates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import intmat
from .errors import InputError, InvariantViolationError
from .group import AbelianGroup, ratio_split

# ---------------------------------------------------------------------------
# lattice helpers


def proj2(p):
    return (p[0], p[1])


def unproj(order, q):
    return (q[0], q[1], order - q[0] - q[1])


def primitive_step(group, d):
    """Largest lattice vector with d = r*step; returns (step, r)."""
    c = intmat.content(d)
    for g in divisors_desc(c):
        cand = tuple(x // g for x in d)
        if group.in_lattice(cand):
            return cand, g
    raise InvariantViolationError(f"direction {d} is not a lattice vector")


def divisors_desc(n):
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out, reverse=True)


class QuotientMap:
    """Exact coordinates on (scaled lattice)/Z*w for a primitive lattice w."""

    def __init__(self, group, w):
        B = group.lattice_basis
        den = intmat.det3(B)
        coords = intmat.vec_mat(w, intmat.adjugate3(B))  # den * (w in the basis B)
        if any(x % den for x in coords):
            raise InvariantViolationError(f"{w} is not a lattice point")
        coords = tuple(x // den for x in coords)
        if intmat.content(coords) != 1:
            raise InvariantViolationError(f"{w} is not primitive in the lattice")
        A, _ = intmat.complete_unimodular(coords)
        self.newbasis = [intmat.vec_mat(a, B) for a in A]  # rows; row 0 == w
        if self.newbasis[0] != tuple(w):
            raise InvariantViolationError(f"completed basis does not start with {w}")
        m = [list(row) for row in self.newbasis]
        d = intmat.det3(m)
        adj = intmat.adjugate3(m)
        self._den = d
        self._adj = adj  # p @ adj / d = coords of p in newbasis

    def proj(self, p):
        num = intmat.vec_mat(p, self._adj)
        out = []
        for x in num[1:]:
            q, rem = divmod(x, self._den)
            if rem:
                raise InvariantViolationError("point is not in the lattice")
            out.append(q)
        return (out[0], out[1])

    def lift(self, v):
        b1, b2 = self.newbasis[1], self.newbasis[2]
        return tuple(v[0] * a + v[1] * b for a, b in zip(b1, b2))


# ---------------------------------------------------------------------------
# step 1: corner fans

CORNERS = (0, 1, 2)


@dataclass
class CornerLine:
    corner: int
    dir2: tuple  # primitive direction in the corner quotient lattice
    step: tuple  # primitive lattice step in the simplex plane
    strength: int
    u: tuple  # canonical invariant normal (ratio key)
    plus: tuple
    minus: tuple
    path: list = field(default_factory=list)  # lattice points outward
    # knock-out results
    death_t: Fraction | None = None
    final_strength: int | None = None
    battles: list = field(default_factory=list)

    def endpoint(self):
        k = self.death_t if self.death_t is not None else len(self.path)
        return self.path[int(k) - 1]


def corner_fan(group, corner):
    """Interior lines from one corner with Jung-Hirzebruch strengths.

    The rays are the Hirzebruch-Jung continued-fraction chain of the
    projected simplex cone in the corner quotient lattice (`_hj_chain`):
    consecutive rays form bases and v_{j-1} + v_{j+1} = a_j v_j, where the
    strength a_j >= 2 is the j-th continued-fraction digit.
    """
    order = group.order
    E = [tuple(order if i == c else 0 for i in range(3)) for c in CORNERS]
    qm = QuotientMap(group, E[corner])
    others = [c for c in CORNERS if c != corner]
    PA = qm.proj(E[others[0]])
    PB = qm.proj(E[others[1]])
    if intmat.cross2(PA, PB) < 0:
        PA, PB = PB, PA
    chain = _hj_chain(intmat.primitive(PA), intmat.primitive(PB))

    lines = []
    for j in range(1, len(chain) - 1):
        a = intmat.cross2(chain[j - 1], chain[j + 1])
        # exactness of the recurrence v_{j-1} + v_{j+1} = a * v_j
        lhs = intmat.vec_add(chain[j - 1], chain[j + 1])
        if lhs != intmat.vec_scale(a, chain[j]):
            raise InvariantViolationError(
                "continued-fraction recurrence failed at corner fan",
                detail={"corner": corner, "ray": chain[j]},
            )
        if a < 2:
            raise InvariantViolationError(f"interior line of strength {a} < 2")
        lines.append(_make_corner_line(group, corner, E[corner], qm, chain[j], a))
    for j in range(len(chain) - 1):
        if intmat.cross2(chain[j], chain[j + 1]) != 1:
            raise InvariantViolationError("corner fan is not basic")
    return lines


def _make_corner_line(group, corner, Ec, qm, ray, strength):
    order = group.order
    w = qm.lift(ray)
    d = intmat.vec_sub(intmat.vec_scale(order, w), intmat.vec_scale(sum(w), Ec))
    step, _ = primitive_step(group, d)
    if all(step[i] <= 0 for i in CORNERS if i != corner):
        step = intmat.vec_neg(step)
    if any(step[i] <= 0 for i in CORNERS if i != corner):
        raise InvariantViolationError("corner line does not point into the simplex")
    path = []
    p = Ec
    while True:
        p = intmat.vec_add(p, step)
        if min(p) < 0:
            break
        path.append(p)
        if min(p) == 0:
            break
    if not path:
        raise InvariantViolationError("corner line leaves the simplex immediately")
    u, plus, minus = line_ratio(group, Ec, intmat.vec_add(Ec, step))
    return CornerLine(corner, ray, step, strength, u, plus, minus, path)


def _hj_chain(vA, vB):
    """Rays of the Hirzebruch-Jung resolution of the cone (vA, vB), vA to vB.

    vA, vB are primitive with cross2(vA, vB) = D > 0.  v_1 is the lattice
    point with cross2(vA, v_1) = 1 and 0 <= cross2(v_1, vB) < D; then
    v_{j+1} = a_j v_j - v_{j-1} with a_j = ceil(cross2(v_{j-1}, vB) /
    cross2(v_j, vB)) until vB (Fulton, Introduction to Toric Varieties, 2.6).
    """
    D = intmat.cross2(vA, vB)
    if D <= 0:
        raise InvariantViolationError("degenerate corner cone")
    _, s, t = intmat.exgcd(vA[0], vA[1])
    p0 = (-t, s)  # cross2(vA, p0) == 1
    chain = [vA, intmat.vec_sub(p0, intmat.vec_scale(intmat.cross2(p0, vB) // D, vA))]
    c_prev = D
    while chain[-1] != vB:
        c = intmat.cross2(chain[-1], vB)
        if c <= 0:
            raise InvariantViolationError(
                "continued-fraction chain passes the far side of the corner cone",
                detail={"from": vA, "to": vB, "ray": chain[-1]},
            )
        a = -(-c_prev // c)
        chain.append(intmat.vec_sub(intmat.vec_scale(a, chain[-1]), chain[-2]))
        c_prev = c
    return chain


# ---------------------------------------------------------------------------
# ratios


def line_ratio(group, p, q):
    """Canonical (u, plus, minus) for the line through two plane points.

    u is the primitive invariant exponent vector vanishing on the line,
    signed so that the positive part beats the negative part in lex order;
    the ratio is plus : minus.
    """
    u0 = intmat.cross3(p, q)
    if u0 == (0, 0, 0):
        raise InvariantViolationError("points are collinear with the origin")
    u0 = intmat.primitive(u0)
    r = group.order
    g = r
    for e in group.scaled_generators:
        g = gcd(g, intmat.vec_dot(u0, e) % r)
    k = r // gcd(g, r) if g else 1
    u = intmat.vec_scale(k, u0)
    plus, minus = ratio_split(u)
    if plus < minus:
        u = intmat.vec_neg(u)
        plus, minus = minus, plus
    return u, plus, minus


def monomial_knockout(ratio_a, ratio_b):
    """Remark-style local rule: compare exponents of the shared variable.

    ratio_* is a (plus, minus) monomial pair.  Returns "first" or "second"
    for the line that extends, or "both_die" on an exact tie.
    """
    sup_a = {i for i in range(3) if ratio_a[0][i] or ratio_a[1][i]}
    sup_b = {i for i in range(3) if ratio_b[0][i] or ratio_b[1][i]}
    shared = sup_a & sup_b
    if len(shared) != 1:
        raise InputError(
            "knock-out rule needs ratios sharing exactly one monomial variable",
            detail={"shared": sorted(shared)},
        )
    s = shared.pop()
    ea = ratio_a[0][s] + ratio_a[1][s]
    eb = ratio_b[0][s] + ratio_b[1][s]
    if ea < eb:
        return "first"
    if eb < ea:
        return "second"
    return "both_die"


# ---------------------------------------------------------------------------
# step 2: knock-out


@dataclass
class Battle:
    lattice_point: tuple | None
    participants: list  # line indices
    winner: int | None


@dataclass
class Partition:
    group: AbelianGroup
    corner_lines: list
    regular_triangles: list
    battles: list
    champion_point: tuple | None


@dataclass
class RegularTriangle:
    vertices: tuple  # CCW corner cycle
    side: int
    steps: tuple
    kind: str  # "corner" | "champion"
    corner: int | None


def knockout(group):
    """Run the tournament and cut the simplex into regular triangles."""
    lines = [ln for c in CORNERS for ln in corner_fan(group, c)]
    order = group.order
    E = [tuple(order if i == c else 0 for i in range(3)) for c in CORNERS]

    # all pairwise crossings between lines from different corners
    point_parts = {}  # 2d fraction point -> {line index: param along that line}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            li, lj = lines[i], lines[j]
            if li.corner == lj.corner:
                continue
            ci, cj = proj2(E[li.corner]), proj2(E[lj.corner])
            di, dj = proj2(li.step), proj2(lj.step)
            den = intmat.cross2(di, dj)
            if den == 0:
                raise InvariantViolationError("parallel interior lines cannot occur")
            dc = intmat.vec_sub(cj, ci)
            t = Fraction(intmat.cross2(dc, dj), den)
            s = Fraction(intmat.cross2(dc, di), den)
            if t <= 0 or s <= 0:
                raise InvariantViolationError("interior lines must cross inside")
            pt = (ci[0] + t * di[0], ci[1] + t * di[1])
            point_parts.setdefault(pt, {})[i] = t
            point_parts.setdefault(pt, {})[j] = s

    # crossing points of each line by parameter along it; a point where
    # three lines meet is entered once per line, not once per crossing pair
    per_line = [[] for _ in lines]
    for pt, parts in point_parts.items():
        for k, t in parts.items():
            per_line[k].append((t, pt))
    for crossings in per_line:
        crossings.sort()

    death = [None] * len(lines)
    for _ in range(2 * len(lines) + 8):
        changed = False
        for i, ln in enumerate(lines):
            new_death = None
            for t, pt in per_line[i]:
                parts = point_parts[pt]
                rivals = [k for k in parts if k != i and _reaches(death, parts, k)]
                if not rivals:
                    continue
                if not all(
                    monomial_knockout((ln.plus, ln.minus), (lines[k].plus, lines[k].minus))
                    == "first"
                    for k in rivals
                ):
                    new_death = t
                    break
            if new_death != death[i]:
                death[i] = new_death
                changed = True
        if not changed:
            break
    else:
        raise InvariantViolationError("knock-out tournament did not stabilise")

    battles = _resolve_battles(group, lines, point_parts, death)
    champion_point = None
    for b in battles:
        if b.winner is None and len(b.participants) == 3:
            if champion_point is not None:
                raise InvariantViolationError("two side-0 champion meetings")
            champion_point = b.lattice_point

    for i, ln in enumerate(lines):
        ln.death_t = death[i]
        if death[i] is not None:
            if death[i] != int(death[i]):
                raise InvariantViolationError("line dies at a non-lattice parameter")
        else:
            exit_pt = ln.path[-1]
            if min(exit_pt) != 0:
                raise InvariantViolationError(
                    "surviving line leaves the simplex at a non-lattice point"
                )

    regular = _extract_faces(group, lines, battles)
    total = sum(t.side * t.side for t in regular)
    if total != order:
        raise InvariantViolationError(
            f"regular partition covers {total} basic triangles, expected {order}"
        )
    return Partition(group, lines, regular, battles, champion_point)


def _reaches(death, parts, k):
    """Whether line k is still alive at a crossing; parts maps line -> its parameter there."""
    return death[k] is None or death[k] >= parts[k]


def _resolve_battles(group, lines, point_parts, death):
    order = group.order
    battles = []
    defeats = {i: [] for i in range(len(lines))}

    realized = []
    for pt, parts in point_parts.items():
        ks = [k for k in parts if _reaches(death, parts, k)]
        if len(ks) >= 2:
            realized.append((pt, ks))

    for pt, ks in realized:
        if len(ks) > 3 or len({lines[k].corner for k in ks}) != len(ks):
            raise InvariantViolationError("battle with repeated corners")
        if pt[0].denominator != 1 or pt[1].denominator != 1:
            raise InvariantViolationError(f"battle at non-lattice point {pt}")
        lp = unproj(order, (int(pt[0]), int(pt[1])))
        if not group.in_lattice(lp):
            raise InvariantViolationError(f"battle at non-lattice point {lp}")
        winner = None
        for i in ks:
            if all(
                monomial_knockout(
                    (lines[i].plus, lines[i].minus), (lines[k].plus, lines[k].minus)
                )
                == "first"
                for k in ks
                if k != i
            ):
                winner = i
                break
        for i in ks:
            if i != winner:
                if death[i] != point_parts[pt][i]:
                    raise InvariantViolationError("defeated line does not die in place")
        if winner is not None:
            defeats[winner].append((point_parts[pt][winner], len(ks) - 1))
        battles.append((pt, ks, winner, lp))

    out = []
    for pt, ks, winner, lp in sorted(battles, key=lambda b: (b[0][0], b[0][1])):
        strengths = {}
        for k in ks:
            t = point_parts[pt][k]
            strengths[k] = lines[k].strength - sum(c for tt, c in defeats[k] if tt < t)
        smax = max(strengths.values())
        top = [k for k, s in strengths.items() if s == smax]
        strength_winner = top[0] if len(top) == 1 else None
        if strength_winner != winner:
            raise InvariantViolationError(
                "strength rule disagrees with the monomial rule",
                detail={"point": lp, "strengths": strengths},
            )
        out.append(Battle(lp, ks, winner))
        for k in ks:
            lines[k].battles.append((lp, strengths[k], winner == k))

    for i, ln in enumerate(lines):
        ln.final_strength = ln.strength - sum(c for _, c in defeats[i])
    return out


def _extract_faces(group, lines, battles):
    order = group.order
    E = [tuple(order if i == c else 0 for i in range(3)) for c in CORNERS]

    segments = [(E[0], E[1]), (E[1], E[2]), (E[0], E[2])]
    for ln in lines:
        segments.append((E[ln.corner], ln.endpoint()))

    nodes = {proj2(E[c]) for c in CORNERS}
    for ln in lines:
        nodes.add(proj2(ln.endpoint()))
    for b in battles:
        nodes.add(proj2(b.lattice_point))

    adj = {}
    for a3, b3 in segments:
        a, b = proj2(a3), proj2(b3)
        d = intmat.vec_sub(b, a)
        onseg = []
        for p in nodes:
            w = intmat.vec_sub(p, a)
            if intmat.cross2(d, w) == 0 and 0 <= intmat.vec_dot(d, w) <= intmat.vec_dot(d, d):
                onseg.append((intmat.vec_dot(d, w), p))
        onseg.sort()
        for (_, p), (_, q) in zip(onseg, onseg[1:]):
            adj.setdefault(p, set()).add(q)
            adj.setdefault(q, set()).add(p)

    faces = _walk_faces(adj)
    regular = []
    champion_seen = False
    for cyc in faces:
        corners = _cycle_corners(cyc)
        if len(corners) != 3:
            raise InvariantViolationError(
                f"knock-out face with {len(corners)} corners is not a triangle"
            )
        tri = [unproj(order, c) for c in corners]
        reg = _regular_triangle(group, tri)
        if reg.kind == "champion":
            if champion_seen:
                raise InvariantViolationError("two meeting-of-champions triangles")
            champion_seen = True
        regular.append(reg)
    regular.sort(key=lambda t: t.vertices)
    return regular


def angle_cmp(d1, d2):
    """Counter-clockwise order of plane directions, starting from the +x axis."""
    h1 = 0 if (d1[1] > 0 or (d1[1] == 0 and d1[0] > 0)) else 1
    h2 = 0 if (d2[1] > 0 or (d2[1] == 0 and d2[0] > 0)) else 1
    if h1 != h2:
        return -1 if h1 < h2 else 1
    c = intmat.cross2(d1, d2)
    return -1 if c > 0 else (1 if c < 0 else 0)


def _walk_faces(adj):
    ordered = {}
    for v, nbrs in adj.items():
        ordered[v] = sorted(
            nbrs, key=functools.cmp_to_key(
                lambda a, b: angle_cmp(intmat.vec_sub(a, v), intmat.vec_sub(b, v))
            )
        )

    seen = set()
    faces = []
    for v in adj:
        for w in adj[v]:
            if (v, w) in seen:
                continue
            cyc = []
            a, b = v, w
            while (a, b) not in seen:
                seen.add((a, b))
                cyc.append(a)
                nbrs = ordered[b]
                idx = nbrs.index(a)
                c = nbrs[(idx - 1) % len(nbrs)]
                a, b = b, c
            area2 = 0
            for i in range(len(cyc)):
                p, q = cyc[i], cyc[(i + 1) % len(cyc)]
                area2 += intmat.cross2(p, q)
            if area2 > 0:
                faces.append(cyc)
    return faces


def _cycle_corners(cyc):
    n = len(cyc)
    corners = []
    for i in range(n):
        d1 = intmat.vec_sub(cyc[i], cyc[i - 1])
        d2 = intmat.vec_sub(cyc[(i + 1) % n], cyc[i])
        if intmat.cross2(d1, d2) != 0:
            corners.append(cyc[i])
    return corners


def _regular_triangle(group, tri):
    order = group.order
    # canonical rotation: lex-smallest corner first, cyclic (CCW) order kept,
    # so the output is independent of where the face walk started
    start = min(range(3), key=lambda i: tri[i])
    tri = [tri[(start + i) % 3] for i in range(3)]
    E = {tuple(order if i == c else 0 for i in range(3)): c for c in CORNERS}
    steps = []
    sides = []
    for i in range(3):
        d = intmat.vec_sub(tri[(i + 1) % 3], tri[i])
        step, r = primitive_step(group, d)
        steps.append(step)
        sides.append(r)
    if len(set(sides)) != 1:
        raise InvariantViolationError(f"face with side counts {sides} is not regular")
    r = sides[0]
    s1, s2 = steps[0], intmat.vec_neg(steps[2])
    # the sum-zero directions of the scaled lattice have d1 x d2 = +-|A|(1,1,1),
    # so for p in the plane {sum = |A|}, det(p, s1, s2) = +-|A|^2 * [d1, d2 : s1, s2]
    if abs(intmat.det3([tri[0], s1, s2])) != order * order:
        raise InvariantViolationError("face is not a regular (unimodular) triangle")
    corner_hits = [E[v] for v in tri if v in E]
    if corner_hits:
        return RegularTriangle(tuple(tri), r, (s1, s2), "corner", min(corner_hits))
    return RegularTriangle(tuple(tri), r, (s1, s2), "champion", None)


# ---------------------------------------------------------------------------
# step 3: tesselation and the decorated triangulation


@dataclass
class Line:
    u: tuple
    plus: tuple
    minus: tuple
    character: tuple
    kind: str  # "corner" | "boundary" | "tesselating"
    corner: int | None
    strength: int | None
    final_strength: int | None
    edges: list
    endpoints: tuple


@dataclass
class Edge:
    a: tuple
    b: tuple
    line: int
    interior: bool
    triangles: list


@dataclass
class Triangle:
    vertices: tuple  # lex-sorted
    orientation: str  # "up" | "down" within its regular triangle
    regular: int


class Triangulation:
    """Basic triangles, edges and ratio-labelled lines of the regular partition.

    Construction checks how many triangles each edge borders.  The pipeline
    checks the vertex set and Euler counts (`euler`), unimodularity
    (`basic`), and the weights and minimality of line ratios (`ratios`).
    """

    def __init__(self, group, partition):
        self.group = group
        self.partition = partition
        self.regular_triangles = partition.regular_triangles
        self.triangles = []
        self.points = set()
        self._build_triangles()
        self._build_edges()
        self._group_lines()

    # -- construction ---------------------------------------------------------

    def _build_triangles(self):
        for ri, reg in enumerate(self.regular_triangles):
            A = reg.vertices[0]
            s1, s2 = reg.steps
            r = reg.side
            for a in range(r):
                for b in range(r - a):
                    p = intmat.vec_add(A, intmat.vec_add(intmat.vec_scale(a, s1), intmat.vec_scale(b, s2)))
                    up = (p, intmat.vec_add(p, s1), intmat.vec_add(p, s2))
                    self.triangles.append(Triangle(tuple(sorted(up)), "up", ri))
                    if a + b <= r - 2:
                        down = (
                            intmat.vec_add(p, s1),
                            intmat.vec_add(p, s2),
                            intmat.vec_add(p, intmat.vec_add(s1, s2)),
                        )
                        self.triangles.append(Triangle(tuple(sorted(down)), "down", ri))
        self.triangles.sort(key=lambda t: t.vertices)
        for t in self.triangles:
            self.points.update(t.vertices)
        self.points = sorted(self.points)

    def _build_edges(self):
        pairs = {}
        for ti, t in enumerate(self.triangles):
            v = t.vertices
            for i in range(3):
                key = tuple(sorted((v[i], v[(i + 1) % 3])))
                pairs.setdefault(key, []).append(ti)
        self.edges = []
        for key in sorted(pairs):
            a, b = key
            interior = not any(a[i] == 0 and b[i] == 0 for i in range(3))
            n = len(pairs[key])
            if interior and n != 2 or not interior and n != 1:
                raise InvariantViolationError(
                    f"edge {key} borders {n} triangles", detail={"interior": interior}
                )
            self.edges.append(Edge(a, b, -1, interior, pairs[key]))

    def _group_lines(self):
        corner_by_u = {}
        for ln in self.partition.corner_lines:
            corner_by_u[ln.u] = ln
        groups = {}
        for ei, e in enumerate(self.edges):
            u, plus, minus = line_ratio(self.group, e.a, e.b)
            groups.setdefault((u, plus, minus), []).append(ei)
        self.lines = []
        for (u, plus, minus) in sorted(groups):
            eids = groups[(u, plus, minus)]
            chi = self.group.weight(plus)
            zero_coords = sum(1 for x in u if x == 0)
            cl = corner_by_u.get(u)
            if zero_coords >= 2:
                kind, corner, s0, s1 = "boundary", None, None, None
            elif cl is not None:
                kind, corner, s0, s1 = "corner", cl.corner, cl.strength, cl.final_strength
            else:
                kind, corner, s0, s1 = "tesselating", None, None, None
            pts = sorted({p for ei in eids for p in (self.edges[ei].a, self.edges[ei].b)})
            li = len(self.lines)
            self.lines.append(
                Line(u, plus, minus, chi, kind, corner, s0, s1, sorted(eids), (pts[0], pts[-1]))
            )
            for ei in eids:
                self.edges[ei].line = li

    # -- queries ----------------------------------------------------------------

    def interior_vertices(self):
        return [p for p in self.points if min(p) > 0]

    def boundary_vertices(self):
        return [p for p in self.points if min(p) == 0]

    def vertex_edge_map(self):
        """vertex -> ids of its incident edges, ascending; built once."""
        if not hasattr(self, "_vertex_edges"):
            self._vertex_edges = {}
            for ei, e in enumerate(self.edges):
                self._vertex_edges.setdefault(e.a, []).append(ei)
                self._vertex_edges.setdefault(e.b, []).append(ei)
        return self._vertex_edges

    def interior_edges(self):
        if not hasattr(self, "_interior_edges"):
            self._interior_edges = [ei for ei, e in enumerate(self.edges) if e.interior]
        return self._interior_edges

    def triangles_at(self, v):
        """Ids of the triangles with vertex v, ascending; the index is built once."""
        if not hasattr(self, "_vertex_triangles"):
            self._vertex_triangles = {}
            for ti, t in enumerate(self.triangles):
                for p in t.vertices:
                    self._vertex_triangles.setdefault(p, []).append(ti)
        return self._vertex_triangles.get(v, [])


def triangulate(group) -> Triangulation:
    """Full pipeline: corner fans, knock-out, tesselation, ratio labels."""
    return Triangulation(group, knockout(group))
