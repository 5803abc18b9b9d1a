"""Triangulation of the junior simplex.

Pipeline: per-corner line fans, whose rays and strengths come from the
Hirzebruch-Jung continued-fraction recurrence of the corner cone, the
knock-out tournament that decides how far each line runs, and the regular
tesselation into basic triangles.  The regular triangles are the corner
triangles, each between two consecutive rays of a corner's fan, and at
most one champion triangle, the region they leave uncovered.  Every edge
is labelled with the minimal invariant monomial ratio vanishing on its
line.  No step solves a lattice system: a corner line's step is its ray
lifted to the sum-zero sublattice (`corner_fan`), any other step the least
multiple of a primitive direction pairing to 0 mod |A| with the rows of
`dual_basis` (`primitive_step`), and a line's ratio the least invariant
multiple of its normal (`group.least_multiple`).

All geometry is exact.  Points live in the plane {sum = |A|} with integer
coordinates ("scaled" coordinates); the plane is embedded into Z^2 by
dropping the last coordinate, which preserves all incidence predicates.
"""

from __future__ import annotations

from collections import Counter

from . import intmat
from .errors import InputError, InvariantViolationError
from .group import least_multiple, ratio_split
from .record import Record

# ---------------------------------------------------------------------------
# lattice helpers


def proj2(p):
    return (p[0], p[1])


def primitive_step(group, d):
    """Largest lattice vector with d = r*step; returns (step, r)."""
    c = intmat.content(d)
    if c:
        p = tuple([x // c for x in d])
        m = least_multiple(group.order, p, group.dual_basis)
        if c % m == 0:
            return intmat.vec_scale(m, p), c // m
    raise InvariantViolationError(f"direction {d} is not a lattice vector", detail={"direction": d})


class QuotientMap:
    """Exact coordinates on (scaled lattice)/Z*w for a primitive lattice w.

    With B the HNF basis of the scaled lattice, c = (w in the basis B) and V
    unimodular with c @ V = e_1 (`intmat.complete_unimodular`), `proj` keeps
    the last two coordinates of (p in the basis B) @ V.  V is unimodular, so
    the map is onto Z^2, and its kernel is the multiples of c @ V = e_1,
    that is, Z*w.  p in the basis B is p @ adj / den, so the map keeps the
    two columns of adj @ V, stored as two integer triples when the map is
    built: a projection is two dot products and two exact divisions.
    """

    def __init__(self, group, w):
        adj, den = group.lattice_inverse
        coords = intmat.vec_mat(w, adj)  # den * (w in the basis B)
        if any(x % den for x in coords):
            raise InvariantViolationError(f"{w} is not a lattice point", detail={"point": w})
        coords = tuple(x // den for x in coords)
        if intmat.content(coords) != 1:
            raise InvariantViolationError(
                f"{w} is not primitive in the lattice", detail={"point": w}
            )
        self._den = den
        _, v1, v2 = zip(*intmat.complete_unimodular(coords))
        # the last two columns of adj @ V
        self._cols = tuple(tuple(intmat.vec_dot(row, v) for row in adj) for v in (v1, v2))

    def proj(self, p):
        (a0, a1, a2), (b0, b1, b2) = self._cols
        x, y, z = p
        q0, r0 = divmod(x * a0 + y * a1 + z * a2, self._den)
        q1, r1 = divmod(x * b0 + y * b1 + z * b2, self._den)
        if r0 or r1:
            raise InvariantViolationError("point is not in the lattice", detail={"point": p})
        return (q0, q1)


# ---------------------------------------------------------------------------
# step 1: corner fans

CORNERS = (0, 1, 2)


def simplex_corners(order):
    """The corners E_c of the simplex {sum = order}, indexed by c in CORNERS."""
    return ((order, 0, 0), (0, order, 0), (0, 0, order))


def on_simplex_side(p, q):
    """Whether the segment from p to q lies on a side of the simplex."""
    return any(p[i] == 0 == q[i] for i in CORNERS)


class CornerLine(Record):
    __slots__ = ("corner", "dir2", "step", "strength", "u", "plus", "minus", "origin", "reach",
                 "death_t", "final_strength", "battles")

    def __init__(self, corner, dir2, step, strength, u, plus, minus, origin, reach,
                 death_t=None, final_strength=None, battles=None):
        self.corner = corner
        self.dir2 = dir2  # primitive direction in the corner quotient lattice
        self.step = step  # primitive lattice step in the simplex plane
        self.strength = strength
        self.u = u  # canonical invariant normal (ratio key)
        self.plus = plus
        self.minus = minus
        self.origin = origin  # the corner E_c
        self.reach = reach  # lattice steps from the corner to the simplex boundary
        # knock-out results
        self.death_t = death_t
        self.final_strength = final_strength
        self.battles = [] if battles is None else battles

    def endpoint(self):
        """Where the line dies, or else leaves the simplex."""
        k = self.reach if self.death_t is None else self.death_t
        return intmat.vec_add(self.origin, intmat.vec_scale(k, self.step))


def corner_fan(group, corner):
    """Interior lines from one corner with Jung-Hirzebruch strengths.

    The rays are the Hirzebruch-Jung continued-fraction chain of the
    projected simplex cone in the corner quotient lattice (`_hj_chain`):
    consecutive rays form bases and v_{j-1} + v_{j+1} = a_j v_j, where the
    strength a_j >= 2 is the j-th continued-fraction digit.

    A line's step is its ray's lift to the sum-zero sublattice L0 of the
    scaled lattice N.  Every point of N has coordinate sum divisible by |A|,
    so N is the direct sum of L0 and Z*E_c, and `proj` maps L0 isomorphically
    onto Z^2.  The side E_a - E_c lies in L0 and projects to k_A v_A with
    k_A its content, so s_A = (E_a - E_c) / k_A lifts v_A; likewise s_B.
    With D = cross2(v_A, v_B), a ray is v = (c v_A + d v_B) / D for
    c = cross2(v, v_B) and d = cross2(v_A, v), so its lift is
    (c s_A + d s_B) / D, an exact division.  It is primitive in L0, and so
    in N, since L0 is N cut by a plane through 0.

    Each step points into the simplex, at least one whole step deep.  On the
    chain c_j, d_j > 0 (`_hj_chain`), and f_j = c_j + d_j = cross2(v_j,
    v_B - v_A) is linear in v_j, so f_{j-1} + f_{j+1} = a_j f_j >= 2 f_j:
    f is convex in j and equals D at both ends, so f_j <= D.  The step's
    coordinates are c|A| / (k_A D) > 0 at a, d|A| / (k_B D) > 0 at b, and at
    the corner -(c / k_A + d / k_B)|A| / D, of size at most f|A| / D <= |A|.
    """
    E = simplex_corners(group.order)
    Ec = E[corner]
    qm = QuotientMap(group, Ec)
    sides = []
    for c in CORNERS:
        if c != corner:
            side = intmat.vec_sub(E[c], Ec)
            P = qm.proj(side)
            k = intmat.content(P)
            sides.append((tuple([x // k for x in P]), tuple([x // k for x in side])))
    (vA, sA), (vB, sB) = sides
    D = intmat.cross2(vA, vB)
    if D < 0:
        (vA, sA), (vB, sB), D = (vB, sB), (vA, sA), -D
    chain = _hj_chain(vA, vB)

    lines = []
    for j in range(1, len(chain) - 1):
        v = chain[j]
        lift = intmat.vec_add(intmat.vec_scale(intmat.cross2(v, vB), sA),
                              intmat.vec_scale(intmat.cross2(vA, v), sB))
        step = tuple([x // D for x in lift])
        u, plus, minus = line_ratio(group, Ec, intmat.vec_add(Ec, step))
        lines.append(CornerLine(corner, v, step, intmat.cross2(chain[j - 1], chain[j + 1]),
                                u, plus, minus, Ec, group.order // -step[corner]))
    return lines


def _hj_chain(vA, vB):
    """Rays of the Hirzebruch-Jung resolution of the cone (vA, vB), vA to vB.

    vA, vB are primitive with cross2(vA, vB) = D > 0.  v_1 is the lattice
    point with cross2(vA, v_1) = 1 and 0 <= cross2(v_1, vB) < D; then
    v_{j+1} = a_j v_j - v_{j-1} with a_j = ceil(cross2(v_{j-1}, vB) /
    cross2(v_j, vB)) until vB (Fulton, Introduction to Toric Varieties, 2.6).

    The chain is basic, with strengths a_j >= 2 and v_{j-1} + v_{j+1} =
    a_j v_j, so `corner_fan` need not check it.  Write c_j = cross2(v_j, vB)
    and d_j = cross2(vA, v_j), so c_0 = D > c_1 >= 0 and d_0 = 0 < d_1 = 1.
    Each step keeps cross2(v_j, v_{j+1}) = cross2(v_{j-1}, v_j) = 1, and
    c_{j+1} = a_j c_j - c_{j-1} lies in [0, c_j) by the choice of a_j, so c
    strictly decreases.  While c_j > 0, c_{j-1} > c_j gives a_j >= 2, so
    d_{j+1} - d_j >= d_j - d_{j-1} > 0.  Once c_j = 0, the primitive v_j is
    +-vB, and d_j > 0 makes it vB.  Finally cross2(v_{j-1}, v_{j+1}) =
    a_j cross2(v_{j-1}, v_j) = a_j.
    """
    D = intmat.cross2(vA, vB)
    if D <= 0:
        raise InvariantViolationError("degenerate corner cone", detail={"from": vA, "to": vB})
    _, s, t = intmat.exgcd(vA[0], vA[1])
    p0 = (-t, s)  # cross2(vA, p0) == 1
    chain = [vA, intmat.vec_sub(p0, intmat.vec_scale(intmat.cross2(p0, vB) // D, vA))]
    c_prev = D
    while chain[-1] != vB:
        c = intmat.cross2(chain[-1], vB)
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
        raise InvariantViolationError("points are collinear with the origin",
                                      detail={"points": (p, q)})
    u0 = intmat.primitive(u0)
    u = intmat.vec_scale(least_multiple(group.order, u0, group.scaled_generators), u0)
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


class Battle(Record):
    __slots__ = ("lattice_point", "participants", "winner")

    def __init__(self, lattice_point, participants, winner):
        self.lattice_point = lattice_point  # or None
        self.participants = participants  # line indices
        self.winner = winner  # line index or None


class Partition(Record):
    __slots__ = ("group", "corner_lines", "regular_triangles", "battles", "champion_point")

    def __init__(self, group, corner_lines, regular_triangles, battles, champion_point):
        self.group = group
        self.corner_lines = corner_lines
        self.regular_triangles = regular_triangles
        self.battles = battles
        self.champion_point = champion_point  # or None


class RegularTriangle(Record):
    __slots__ = ("vertices", "side", "steps", "kind", "corner")

    def __init__(self, vertices, side, steps, kind, corner):
        self.vertices = vertices  # CCW corner cycle
        self.side = side
        self.steps = steps
        self.kind = kind  # "corner" | "champion"
        self.corner = corner  # or None


def knockout(group):
    """Run the tournament and cut the simplex into regular triangles.

    Steps are primitive in the group lattice, so lines can fight only where
    they cross a whole number of steps from their corners: the battle table
    holds those crossings by lattice point.  Any other crossing keeps the
    first whole step past it on each line, which an integer death reaches
    exactly when the line runs through it; no two lines may both do so.
    On every tested group the tournament's first pass finds each death and
    the second confirms it; the pass bound stays as a guard.
    """
    fans = [corner_fan(group, c) for c in CORNERS]
    lines = [ln for corner_lines in fans for ln in corner_lines]
    order = group.order

    # each pair of lines from different corners crosses once, inside; lines
    # start at their corners, so the offsets between origins are corner differences
    corners = [proj2(e) for e in simplex_corners(order)]
    corner_diff = [[intmat.vec_sub(b, a) for b in corners] for a in corners]
    step2 = [proj2(ln.step) for ln in lines]
    # the lines are listed corner by corner; fan_end[c] is past corner c's last
    fan_end = [sum(map(len, fans[:c + 1])) for c in CORNERS]
    point_parts = {}  # lattice point -> {line index: steps along that line}
    per_line = [{} for _ in lines]  # steps along the line -> lattice point
    off_lattice = []  # (i, first whole step past the crossing on i, j, the same on j)
    for i, li in enumerate(lines):
        di0, di1 = step2[i]
        diffs = corner_diff[li.corner]
        for j in range(fan_end[li.corner], len(lines)):
            dj0, dj1 = step2[j]
            den = di0 * dj1 - di1 * dj0
            if den == 0:
                raise InvariantViolationError("parallel interior lines cannot occur",
                                              detail=_named(lines, (i, j)))
            dc0, dc1 = diffs[lines[j].corner]
            tn, sn = dc0 * dj1 - dc1 * dj0, dc0 * di1 - dc1 * di0
            if den < 0:
                den, tn, sn = -den, -tn, -sn
            if tn <= 0 or sn <= 0:
                raise InvariantViolationError("interior lines must cross inside",
                                              detail=_named(lines, (i, j)))
            if tn % den:
                off_lattice.append((i, -(-tn // den), j, -(-sn // den)))
                continue
            t, s = tn // den, sn // den
            pt = intmat.vec_add(li.origin, intmat.vec_scale(t, li.step))
            point_parts.setdefault(pt, {}).update({i: t, j: s})
            per_line[i][t] = per_line[j][s] = pt
    crossings = [sorted(steps.items()) for steps in per_line]

    death = [None] * len(lines)
    for _ in range(2 * len(lines) + 8):
        changed = []  # lines whose death moved in this pass
        for i, ln in enumerate(lines):
            new_death = None
            for t, pt in crossings[i]:
                parts = point_parts[pt]
                rivals = [k for k in parts if k != i and _reaches(death, k, parts[k])]
                if rivals and not all(
                    monomial_knockout((ln.plus, ln.minus), (lines[k].plus, lines[k].minus))
                    == "first"
                    for k in rivals
                ):
                    new_death = t
                    break
            if new_death != death[i]:
                death[i] = new_death
                changed.append(i)
        if not changed:
            break
    else:
        raise InvariantViolationError("knock-out tournament did not stabilise",
                                      detail=_named(lines, changed))

    for i, ti, j, tj in off_lattice:
        if _reaches(death, i, ti) and _reaches(death, j, tj):
            raise InvariantViolationError("two lines meet off the lattice",
                                          detail=_named(lines, (i, j)))
    battles = _resolve_battles(lines, point_parts, death)
    meetings = [b.lattice_point for b in battles if b.winner is None and len(b.participants) == 3]
    if len(meetings) > 1:
        raise InvariantViolationError("two side-0 champion meetings", detail={"points": meetings})

    for i, ln in enumerate(lines):
        ln.death_t = death[i]
        if death[i] is None and order % -ln.step[ln.corner]:
            raise InvariantViolationError(
                "surviving line leaves the simplex at a non-lattice point",
                detail={"corner": ln.corner, "step": ln.step},
            )

    regular = _corner_triangles(group, fans)
    champion = _champion_triangle(regular)
    if champion is not None:
        regular.append(_regular_triangle(group, champion))
    regular.sort(key=lambda t: t.vertices)
    total = sum(t.side * t.side for t in regular)
    if total != order:
        raise InvariantViolationError(
            f"regular partition covers {total} basic triangles, expected {order}",
            detail={"regular_triangles": len(regular), "covered": total, "order": order},
        )
    return Partition(group, lines, regular, battles, meetings[0] if meetings else None)


def _named(lines, ks):
    """Detail naming lines by corner and step."""
    return {"lines": [{"corner": lines[k].corner, "step": lines[k].step} for k in ks]}


def _reaches(death, k, t):
    """Whether line k is still alive t steps from its corner."""
    return death[k] is None or death[k] >= t


def _resolve_battles(lines, point_parts, death):
    battles = []
    defeats = {i: [] for i in range(len(lines))}
    for pt, parts in point_parts.items():
        ks = [k for k in parts if _reaches(death, k, parts[k])]
        if len(ks) < 2:
            continue
        if len(ks) > 3 or len({lines[k].corner for k in ks}) != len(ks):
            raise InvariantViolationError("battle with repeated corners",
                                          detail={"point": pt, **_named(lines, ks)})
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
        alive = [i for i in ks if i != winner and death[i] != parts[i]]
        if alive:
            raise InvariantViolationError("defeated line does not die in place",
                                          detail={"point": pt, **_named(lines, alive)})
        if winner is not None:
            defeats[winner].append((parts[winner], len(ks) - 1))
        battles.append((pt, ks, winner))

    out = []
    for pt, ks, winner in sorted(battles, key=lambda b: b[0]):
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
                detail={"point": pt, "strengths": strengths},
            )
        out.append(Battle(pt, ks, winner))
        for k in ks:
            lines[k].battles.append((pt, strengths[k], winner == k))

    for i, ln in enumerate(lines):
        ln.final_strength = ln.strength - sum(c for _, c in defeats[i])
    return out


def _corner_triangles(group, fans):
    """Regular triangles between consecutive rays at each corner E_c.

    The rays are a simplex side, the corner's lines in `_hj_chain` order and
    the other side, each as far as it runs (to the far corner, or to the
    line's endpoint).  Rays of lattice steps s1, s2 and lengths k1, k2 bound
    (E_c, E_c + r s1, E_c + r s2), r = min(k1, k2).  A triangle on a whole
    simplex side comes from both its corners and is kept once.
    """
    E = simplex_corners(group.order)
    found = {}
    for c, lines in zip(CORNERS, fans):
        a, b = (o for o in CORNERS if o != c)
        # `corner_fan` may swap the ends of its chain: the side next to the
        # first line turns toward it the way the chain turns
        if len(lines) >= 2:
            first = proj2(lines[0].step)
            toward = intmat.cross2(proj2(intmat.vec_sub(E[a], E[c])), first) > 0
            if toward != (intmat.cross2(first, proj2(lines[1].step)) > 0):
                a, b = b, a
        ends = [E[a]] + [ln.endpoint() for ln in lines] + [E[b]]
        rays = [primitive_step(group, intmat.vec_sub(p, E[c])) for p in ends]
        for (s1, k1), (s2, k2) in zip(rays, rays[1:]):
            r = min(k1, k2)
            tri = (E[c], intmat.vec_add(E[c], intmat.vec_scale(r, s1)),
                   intmat.vec_add(E[c], intmat.vec_scale(r, s2)))
            found.setdefault(frozenset(tri), tri)
    return [_regular_triangle(group, tri) for tri in found.values()]


def _champion_triangle(corner_triangles):
    """Corners of the one region the corner triangles leave uncovered, or None.

    Its boundary is the unit lattice steps on exactly one corner triangle's
    side and off the simplex boundary; its corners are where that turns.
    """
    cover = Counter()
    for reg in corner_triangles:
        p = reg.vertices[0]
        s1, s2 = reg.steps
        # once around the boundary, r unit steps a side
        for d in (s1, intmat.vec_sub(s2, s1), intmat.vec_neg(s2)):
            for _ in range(reg.side):
                q = intmat.vec_add(p, d)
                cover[min(p, q), max(p, q)] += 1
                p = q
    nbrs = {}
    for (p, q), n in cover.items():
        if n == 1 and not on_simplex_side(p, q):
            nbrs.setdefault(p, []).append(q)
            nbrs.setdefault(q, []).append(p)
    if not nbrs:
        return None
    turns = []
    for p, qs in nbrs.items():
        if len(qs) != 2:
            raise InvariantViolationError(
                f"champion boundary has {len(qs)} steps at a point", detail={"point": p}
            )
        if intmat.cross3(intmat.vec_sub(qs[0], p), intmat.vec_sub(qs[1], p)) != (0, 0, 0):
            turns.append(p)
    if len(turns) != 3:
        raise InvariantViolationError(f"champion region has {len(turns)} corners, not 3",
                                      detail={"corners": turns})
    return turns


def _regular_triangle(group, tri):
    order = group.order
    # canonical order: counterclockwise in the (x, y) projection, lex-smallest
    # corner first, so the output is independent of how the corners came
    tri = list(tri)
    if intmat.cross2(*(proj2(intmat.vec_sub(v, tri[0])) for v in tri[1:])) < 0:
        tri[1], tri[2] = tri[2], tri[1]
    start = min(range(3), key=lambda i: tri[i])
    tri = [tri[(start + i) % 3] for i in range(3)]
    E = {Ec: c for c, Ec in zip(CORNERS, simplex_corners(order))}
    steps, sides = zip(*(
        primitive_step(group, intmat.vec_sub(q, p)) for p, q in zip(tri, tri[1:] + tri[:1])
    ))
    if len(set(sides)) != 1:
        raise InvariantViolationError(f"face with side counts {list(sides)} is not regular",
                                      detail={"triangle": tuple(tri), "sides": list(sides)})
    r = sides[0]
    s1, s2 = steps[0], intmat.vec_neg(steps[2])
    # the sum-zero directions of the scaled lattice have d1 x d2 = +-|A|(1,1,1),
    # so for p in the plane {sum = |A|}, det(p, s1, s2) = +-|A|^2 * [d1, d2 : s1, s2]
    if abs(intmat.det3([tri[0], s1, s2])) != order * order:
        raise InvariantViolationError("face is not a regular (unimodular) triangle",
                                      detail={"triangle": tuple(tri), "sides": list(sides)})
    corner_hits = [E[v] for v in tri if v in E]
    if corner_hits:
        return RegularTriangle(tuple(tri), r, (s1, s2), "corner", min(corner_hits))
    return RegularTriangle(tuple(tri), r, (s1, s2), "champion", None)


# ---------------------------------------------------------------------------
# step 3: tesselation and the decorated triangulation


class Line(Record):
    __slots__ = ("u", "plus", "minus", "character", "kind", "corner", "strength",
                 "final_strength", "edges", "endpoints")

    def __init__(self, u, plus, minus, character, kind, corner, strength, final_strength,
                 edges, endpoints):
        self.u = u
        self.plus = plus
        self.minus = minus
        self.character = character
        self.kind = kind  # "corner" | "boundary" | "tesselating"
        self.corner = corner  # or None, as are the strengths
        self.strength = strength
        self.final_strength = final_strength
        self.edges = edges
        self.endpoints = endpoints


class Edge(Record):
    __slots__ = ("a", "b", "line", "interior", "triangles")

    def __init__(self, a, b, line, interior, triangles):
        self.a = a
        self.b = b
        self.line = line
        self.interior = interior
        self.triangles = triangles


class Triangle(Record):
    __slots__ = ("vertices", "orientation", "regular", "edges")

    def __init__(self, vertices, orientation, regular, edges=()):
        self.vertices = vertices  # lex-sorted
        self.orientation = orientation  # "up" | "down" within its regular triangle
        self.regular = regular
        self.edges = edges  # edge ids, descending; edges[i] is the side opposite vertices[i]


class Triangulation:
    """Basic triangles, edges and ratio-labelled lines of the regular partition.

    Construction checks how many triangles each edge borders and builds
    every incidence index (a triangle's sides, an edge's triangles and line,
    a line's edges, a vertex's edges and triangles), so the object is not
    written to after it.  Each index is an attribute, read directly:
    `points`, `edges`, `lines` and `triangles`; `interior_vertices` and
    `boundary_vertices` (the points with no zero coordinate, and the rest,
    each in `points` order); `interior_edges` (ids, ascending); and
    `vertex_edges` and `vertex_triangles`, which map each point to the ids
    of its edges and of its triangles, ascending.  The pipeline checks the vertex set and Euler
    counts (`euler`), unimodularity (`basic`), and the line table that chart
    coordinates and side ratios are read from (`ratios`).
    """

    def __init__(self, group, partition):
        self.group = group
        self.partition = partition
        self.regular_triangles = partition.regular_triangles
        self.triangles = []
        self._build_triangles()
        self._build_edges()
        self._group_lines()
        self._build_indices()

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
        self.points = sorted({p for t in self.triangles for p in t.vertices})

    def _build_edges(self):
        pairs = {}  # the sides opposite lex-sorted vertices are sorted pairs
        for ti, t in enumerate(self.triangles):
            a, b, c = t.vertices
            for key in ((b, c), (a, c), (a, b)):
                pairs.setdefault(key, []).append(ti)
        self.edges = []
        ids = {}  # sorted vertex pair -> edge id
        for key in sorted(pairs):
            a, b = key
            interior = not on_simplex_side(a, b)
            n = len(pairs[key])
            if interior and n != 2 or not interior and n != 1:
                raise InvariantViolationError(
                    f"edge {key} borders {n} triangles", detail={"interior": interior}
                )
            ids[key] = len(self.edges)
            self.edges.append(Edge(a, b, -1, interior, pairs[key]))
        for t in self.triangles:
            a, b, c = t.vertices
            t.edges = (ids[b, c], ids[a, c], ids[a, b])

    def _group_lines(self):
        corner_by_u = {}
        for ln in self.partition.corner_lines:
            corner_by_u[ln.u] = ln
        # line_ratio depends on an edge only through the normal cross3(a, b),
        # and every edge of a line has the same one: each is one primitive
        # lattice step b - a along it, and cross3(a, b) = cross3(a, b - a)
        ratios = {}  # cross3(a, b) -> (u, plus, minus)
        groups = {}
        for ei, e in enumerate(self.edges):
            normal = intmat.cross3(e.a, e.b)
            ratio = ratios.get(normal)
            if ratio is None:
                ratio = ratios[normal] = line_ratio(self.group, e.a, e.b)
            groups.setdefault(ratio, []).append(ei)
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

    def _build_indices(self):
        self.interior_vertices = [p for p in self.points if min(p) > 0]
        self.boundary_vertices = [p for p in self.points if min(p) == 0]
        self.interior_edges = [ei for ei, e in enumerate(self.edges) if e.interior]
        self.vertex_edges = {}  # vertex -> ids of its incident edges, ascending
        for ei, e in enumerate(self.edges):
            self.vertex_edges.setdefault(e.a, []).append(ei)
            self.vertex_edges.setdefault(e.b, []).append(ei)
        self.vertex_triangles = {}  # vertex -> ids of the triangles with it, ascending
        for ti, t in enumerate(self.triangles):
            for p in t.vertices:
                self.vertex_triangles.setdefault(p, []).append(ti)


def triangulate(group) -> Triangulation:
    """Full pipeline: corner fans, knock-out, tesselation, ratio labels."""
    return Triangulation(group, knockout(group))
