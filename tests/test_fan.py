import functools
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ahilb import fan, intmat, pipeline
from ahilb.cohomology import angle_cmp
from ahilb.errors import InputError, InvariantViolationError
from ahilb.fan import QuotientMap, corner_fan, knockout, monomial_knockout, triangulate
from ahilb.group import _scaled_lattice, build_group
from ahilb.pipeline import run_pipeline
from conftest import replaced
from test_acceptance import _cyclic_family_up_to_30


def hj_digits(n, q):
    """Continued-fraction digits of n/q with minus signs: n/q = [[a1,a2,...]]."""
    out = []
    while q:
        a = -(-n // q)  # ceil
        out.append(a)
        n, q = q, a * q - n
    return out


def corner_strength_oracle(r, w1, w2):
    """Strengths at a corner with transverse weights (w1, w2), gcd(w1, r) = 1."""
    assert gcd(w1, r) == 1
    q = (w2 * pow(w1, -1, r)) % r
    if q == 0:
        return []
    return hj_digits(r, q)


@pytest.mark.parametrize(
    "spec,corner,expected",
    [
        ("1/11(1,2,8)", 2, [6, 2]),  # 11/2 = 6 - 1/2 for the plane z = 0
        ("1/11(1,2,8)", 0, [3, 4]),
        ("1/11(1,2,8)", 1, [2, 3, 2, 2]),
    ],
)
def test_corner_strengths_11(spec, corner, expected):
    g = build_group(spec)
    fan = corner_fan(g, corner)
    assert [ln.strength for ln in fan] == expected


def test_corner_strengths_against_continued_fractions():
    rng = random.Random(23)
    for _ in range(25):
        r = rng.randrange(3, 40)
        a = rng.randrange(0, r)
        b = rng.randrange(0, r)
        c = (-a - b) % r
        if gcd(gcd(a, b), gcd(c, r)) != 1:
            continue
        g = build_group(f"1/{r}({a},{b},{c})")
        weights = (a, b, c)
        for corner in range(3):
            w1, w2 = (weights[i] for i in range(3) if i != corner)
            if gcd(w1, g.order) != 1:
                continue  # transverse action not in normal form; skip the oracle
            got = [ln.strength for ln in corner_fan(g, corner)]
            want = corner_strength_oracle(g.order, w1, w2)
            assert got == want or got == want[::-1]


def test_trivial_group_has_no_interior_lines():
    g = build_group("1")
    assert all(corner_fan(g, c) == [] for c in range(3))


def test_knockout_battle_story_11():
    """The strength-3 line from e1 defeats the strength-2 line from e3 and
    extends with strength 2; the champions then die together at (3,6,2)."""
    g = build_group("1/11(1,2,8)")
    part = knockout(g)
    by_corner = {}
    for ln in part.corner_lines:
        by_corner.setdefault(ln.corner, []).append(ln)
    e1_line3 = next(ln for ln in by_corner[0] if ln.strength == 3)
    e3_line2 = next(ln for ln in by_corner[2] if ln.strength == 2)
    assert [(pt, s, win) for pt, s, win in e1_line3.battles if pt == (6, 1, 4)] == [
        ((6, 1, 4), 3, True)
    ]
    assert e3_line2.death_t is not None and e3_line2.endpoint() == (6, 1, 4)
    assert e1_line3.final_strength == 2
    assert part.champion_point == (3, 6, 2)
    # exactly one regular triangle of side > 1
    assert sorted(t.side for t in part.regular_triangles) == [1, 1, 1, 1, 1, 1, 1, 2]


def test_regular_sides_30():
    g = build_group("1/30(25,2,3)")
    part = knockout(g)
    assert sorted(t.side for t in part.regular_triangles) == [2, 2, 2, 3, 3]
    assert part.champion_point is None  # long-side case


def test_champion_triangle_7():
    part = knockout(build_group("1/7(1,2,4)"))
    kinds = sorted(t.kind for t in part.regular_triangles)
    assert kinds.count("champion") == 1


@pytest.mark.parametrize(
    "spec",
    ["1", "1/2(1,1,0)", "1/3(1,1,1)", "1/6(1,2,3)", "1/7(1,2,4)", "1/11(1,2,8)",
     "1/30(25,2,3)", "1/3(1,2,0);1/3(0,1,2)", "1/12(1,5,6)", "1/13(1,3,9)"],
)
def test_triangle_count_and_euler(spec):
    g = build_group(spec)
    T = triangulate(g)
    assert len(T.triangles) == g.order
    I = len(T.interior_vertices)
    B = len(T.boundary_vertices)
    assert 2 * I + B - 2 == g.order
    assert I == g.age_counts()[2]


@pytest.mark.parametrize(
    "specs",
    [_cyclic_family_up_to_30(), ["1/3(1,2,0);1/3(0,1,2)"], ["1/6(1,2,3);1/3(1,1,1)"]],
    ids=["family-to-30", "3x3", "6x3"],
)
def test_incidence_attributes_match_their_definitions(specs):
    """Each incidence index of a triangulation equals its definition, recomputed
    from `points`, `edges` and `triangles`."""
    for spec in specs:
        T = triangulate(build_group(spec))
        tris, edges = T.triangles, T.edges
        assert T.interior_vertices == [p for p in T.points if all(p)], spec
        assert T.boundary_vertices == [p for p in T.points if not all(p)], spec
        # an interior edge is a side of two triangles, a boundary edge of one
        bordering = [[ti for ti, t in enumerate(tris) if e.a in t.vertices and e.b in t.vertices]
                     for e in edges]
        assert [e.triangles for e in edges] == bordering, spec
        assert [len(b) for b in bordering] == [1 + e.interior for e in edges], spec
        assert T.interior_edges == [ei for ei, b in enumerate(bordering) if len(b) == 2], spec
        assert T.vertex_edges == {
            p: [ei for ei, e in enumerate(edges) if p in (e.a, e.b)] for p in T.points
        }, spec
        assert T.vertex_triangles == {
            p: [ti for ti, t in enumerate(tris) if p in t.vertices] for p in T.points
        }, spec


@pytest.mark.parametrize(
    "spec",
    ["1/2(1,1,0)", "1/7(1,2,4)", "1/11(1,2,8)", "1/30(25,2,3)", "1/3(1,2,0);1/3(0,1,2)"],
)
def test_triangles_basic(spec):
    g = build_group(spec)
    T = triangulate(g)
    for t in T.triangles:
        assert abs(intmat.det3(list(t.vertices))) == g.order**2


def test_up_down_counts():
    g = build_group("1/30(25,2,3)")
    T = triangulate(g)
    per_regular = {}
    for t in T.triangles:
        key = (t.regular, t.orientation)
        per_regular[key] = per_regular.get(key, 0) + 1
    for ri, reg in enumerate(T.regular_triangles):
        r = reg.side
        assert per_regular.get((ri, "up"), 0) == r * (r + 1) // 2
        assert per_regular.get((ri, "down"), 0) == r * (r - 1) // 2


def test_edge_adjacency():
    T = triangulate(build_group("1/11(1,2,8)"))
    for e in T.edges:
        assert len(e.triangles) == (2 if e.interior else 1)


def test_monomial_knockout_rule():
    # ratios y^c : z^f vs x^a : y^e share only y; smaller exponent extends
    ya_zf = ((0, 2, 0), (0, 0, 5))
    xa_ye = ((3, 0, 0), (0, 4, 0))
    assert monomial_knockout(ya_zf, xa_ye) == "first"  # c=2 < e=4
    assert monomial_knockout(xa_ye, ya_zf) == "second"
    tie = ((0, 4, 0), (0, 0, 5))
    assert monomial_knockout(tie, xa_ye) == "both_die"
    with pytest.raises(InputError):
        monomial_knockout(((1, 0, 0), (0, 2, 0)), ((0, 0, 3), (0, 0, 0)))
    with pytest.raises(InputError):  # two shared variables
        monomial_knockout(((1, 0, 0), (0, 2, 0)), ((2, 0, 0), (0, 3, 0)))


def test_ratio_weights_and_yz3_line(run11):
    g, T = run11.group, run11.triangulation
    for ln in T.lines:
        assert g.weight(ln.plus) == g.weight(ln.minus) == ln.character
    # a curve parametrised by y : z^3 exists
    ratios = {(ln.plus, ln.minus) for ln in T.lines}
    assert ((0, 1, 0), (0, 0, 3)) in ratios or ((0, 0, 3), (0, 1, 0)) in ratios


def test_boundary_ratio_pure_power(run11):
    g, T = run11.group, run11.triangulation
    # the side opposite e1 lies in the plane of zero x-exponent
    side = [ln for ln in T.lines if ln.kind == "boundary"
            and all(p[0] == 0 for p in ln.endpoints)]
    assert len(side) == 1
    plus, minus = side[0].plus, side[0].minus
    assert minus == (0, 0, 0)
    assert len([i for i in range(3) if plus[i]]) == 1
    assert side[0].character == g.reduce((0, 0, 0))


def test_minimal_ratio_oracle(run11):
    """Brute-force the least invariant relation vanishing on each line."""
    g, T = run11.group, run11.triangulation
    n = g.order
    for ln in T.lines:
        a, b = ln.endpoints
        best = None
        for i in range(-n, n + 1):
            for j in range(-n, n + 1):
                for k in range(-n, n + 1):
                    u = (i, j, k)
                    if u == (0, 0, 0) or intmat.vec_dot(u, a) or intmat.vec_dot(u, b):
                        continue
                    if not g.is_invariant(u):
                        continue
                    size = abs(i) + abs(j) + abs(k)
                    if best is None or size < best[0]:
                        best = (size, {u, tuple(-x for x in u)})
        assert best is not None
        assert intmat.vec_sub(ln.plus, ln.minus) in best[1]


def test_lines_cover_edges(run30):
    T = run30.triangulation
    for ei, e in enumerate(T.edges):
        assert ei in T.lines[e.line].edges


def test_corner_line_metadata(run11):
    T = run11.triangulation
    kinds = {ln.kind for ln in T.lines}
    assert kinds == {"corner", "boundary", "tesselating"}
    for ln in T.lines:
        if ln.kind == "corner":
            assert ln.strength >= 2 and ln.final_strength is not None
        else:
            assert ln.strength is None


def test_points_are_lattice_points(run30):
    g, T = run30.group, run30.triangulation
    juniors = set(g.junior_points())
    corners = {tuple(g.order if i == c else 0 for i in range(3)) for c in range(3)}
    assert set(T.points) == juniors | corners


def test_strength_versus_monomial_rule_consistency():
    # the dual bookkeeping raises on disagreement; run a spread of groups
    rng = random.Random(41)
    for _ in range(15):
        r = rng.randrange(5, 60)
        a = rng.randrange(0, r)
        b = rng.randrange(0, r)
        c = (-a - b) % r
        if gcd(gcd(a, gcd(b, c)), r) != 1:
            continue
        triangulate(build_group(f"1/{r}({a},{b},{c})"))


# ---------------------------------------------------------------------------
# differential tests: the corner fans, the regular partition and the
# regular-triangle check against the lattice-point hull, the planar face
# walk and the direction-basis solve they replaced


def _oracle_points_in_triangle(PA, PB):
    """Integer points of conv{0, PA, PB} except the origin."""
    verts = [(0, 0), PA, PB]
    xs = [v[0] for v in verts]
    out = []
    for x in range(min(xs), max(xs) + 1):
        lo, hi = None, None
        for i in range(3):
            a, b = verts[i], verts[(i + 1) % 3]
            if a[0] == b[0]:
                if a[0] == x:
                    ys = sorted((a[1], b[1]))
                    lo = ys[0] if lo is None else min(lo, ys[0])
                    hi = ys[1] if hi is None else max(hi, ys[1])
                continue
            if not (min(a[0], b[0]) <= x <= max(a[0], b[0])):
                continue
            y = Fraction(a[1] * (b[0] - x) + b[1] * (x - a[0]), b[0] - a[0])
            lo = y if lo is None else min(lo, y)
            hi = y if hi is None else max(hi, y)
        if lo is None:
            continue
        for y in range(lo.__ceil__(), hi.__floor__() + 1):
            if (x, y) != (0, 0) and _oracle_in_triangle((x, y), verts):
                out.append((x, y))
    return out


def _oracle_in_triangle(p, verts):
    signs = set()
    for i in range(3):
        a, b = verts[i], verts[(i + 1) % 3]
        c = intmat.cross2(intmat.vec_sub(b, a), intmat.vec_sub(p, a))
        if c:
            signs.add(c > 0)
    return len(signs) <= 1


def _oracle_hull_chain(points, PA, PB):
    """Radially visible boundary chain from ray PA to ray PB, flats kept."""
    by_ray = {}
    for p in points:
        d = intmat.primitive(p)
        cur = by_ray.get(d)
        if cur is None or abs(p[0]) + abs(p[1]) < abs(cur[0]) + abs(cur[1]):
            by_ray[d] = p
    reps = sorted(by_ray.values(), key=functools.cmp_to_key(lambda a, b: -intmat.cross2(a, b)))
    assert reps[0] == intmat.primitive(PA) and reps[-1] == intmat.primitive(PB)
    stack = []
    for p in reps:
        while len(stack) >= 2 and intmat.cross2(
            intmat.vec_sub(p, stack[-2]), intmat.vec_sub(stack[-1], stack[-2])
        ) <= 0:
            stack.pop()
        stack.append(p)
    chain = []
    for a, b in zip(stack, stack[1:]):
        chain.append(a)
        d1 = intmat.vec_sub(b, a)
        flats = [
            q for q in by_ray.values()
            if q not in (a, b)
            and intmat.cross2(d1, intmat.vec_sub(q, a)) == 0
            and 0 < intmat.vec_dot(d1, intmat.vec_sub(q, a)) < intmat.vec_dot(d1, d1)
        ]
        flats.sort(key=lambda q: intmat.vec_dot(d1, intmat.vec_sub(q, a)))
        chain.extend(flats)
    chain.append(stack[-1])
    return chain


def _oracle_corner_dirs(g, corner):
    E = [tuple(g.order if i == c else 0 for i in range(3)) for c in range(3)]
    qm = QuotientMap(g, E[corner])
    PA, PB = (qm.proj(E[c]) for c in range(3) if c != corner)
    if intmat.cross2(PA, PB) < 0:
        PA, PB = PB, PA
    return _oracle_hull_chain(_oracle_points_in_triangle(PA, PB), PA, PB)[1:-1]


def _oracle_direction_basis(g):
    from test_group import _left_kernel  # test_group imports this module

    B = _scaled_lattice(g.scaled_generators, g.order)
    kern = _left_kernel([[sum(row)] for row in B])
    return [intmat.vec_mat(k, B) for k in kern]


def _oracle_unimodular(dbasis, s1, s2):
    c1 = intmat.solve_int(dbasis, s1)
    c2 = intmat.solve_int(dbasis, s2)
    return c1 is not None and c2 is not None and abs(intmat.cross2(c1, c2)) == 1


@functools.cache
def _differential_specs():
    return (
        _cyclic_family_up_to_30()
        + [f"1/401(1,{b},{400 - b})" for b in (7, 11, 13, 17, 19, 23)]
        + [f"1/{r}(1,1,{r - 2})" for r in (299, 300, 301)]
        + ["1/3(1,2,0);1/3(0,1,2)", "1/6(1,2,3);1/3(1,1,1)", "1/4(1,1,2);1/2(1,1,0);1/2(0,1,1)"]
    )


@functools.cache
def _knockout(spec):
    """One knock-out per differential spec, shared by the tests that read it."""
    return knockout(build_group(spec))


def _oracle_regular_triangles(group, lines, battles):
    """Faces of the planar graph of simplex sides and knocked-out lines."""
    order = group.order
    E = [tuple(order if i == c else 0 for i in range(3)) for c in range(3)]
    segments = [(E[0], E[1]), (E[1], E[2]), (E[0], E[2])]
    segments += [(E[ln.corner], ln.endpoint()) for ln in lines]
    nodes = {fan.proj2(p) for p in E + [ln.endpoint() for ln in lines]}
    nodes |= {fan.proj2(b.lattice_point) for b in battles}
    adj = {}
    for a3, b3 in segments:
        a, b = fan.proj2(a3), fan.proj2(b3)
        d = intmat.vec_sub(b, a)
        onseg = sorted(
            (intmat.vec_dot(d, intmat.vec_sub(p, a)), p)
            for p in nodes
            if intmat.cross2(d, intmat.vec_sub(p, a)) == 0
            and 0 <= intmat.vec_dot(d, intmat.vec_sub(p, a)) <= intmat.vec_dot(d, d)
        )
        for (_, p), (_, q) in zip(onseg, onseg[1:]):
            adj.setdefault(p, set()).add(q)
            adj.setdefault(q, set()).add(p)
    ordered = {
        v: sorted(nbrs, key=functools.cmp_to_key(
            lambda a, b: angle_cmp(intmat.vec_sub(a, v), intmat.vec_sub(b, v))))
        for v, nbrs in adj.items()
    }
    seen = set()
    regular = []
    for v in adj:
        for w in adj[v]:
            cyc = []
            a, b = v, w
            while (a, b) not in seen:
                seen.add((a, b))
                cyc.append(a)
                nbrs = ordered[b]
                a, b = b, nbrs[(nbrs.index(a) - 1) % len(nbrs)]
            area2 = sum(intmat.cross2(p, q) for p, q in zip(cyc, cyc[1:] + cyc[:1]))
            if area2 <= 0:
                continue
            corners = [
                q for p, q, r in zip(cyc[-1:] + cyc[:-1], cyc, cyc[1:] + cyc[:1])
                if intmat.cross2(intmat.vec_sub(q, p), intmat.vec_sub(r, q))
            ]
            assert len(corners) == 3, corners
            tri = [(x, y, order - x - y) for x, y in corners]
            regular.append(fan._regular_triangle(group, tri))
    assert sum(t.kind == "champion" for t in regular) <= 1
    return sorted(regular, key=lambda t: t.vertices)


def test_regular_triangles_match_the_face_walk():
    for spec in _differential_specs():
        part = _knockout(spec)
        want = _oracle_regular_triangles(part.group, part.corner_lines, part.battles)
        assert part.regular_triangles == want, spec


def test_shortened_line_fails_euler(monkeypatch):
    """A corner triangle cut one step short leaves a gap the partition check reports."""
    spec = "1/10(1,4,5)"  # two lines from e3 survive to the far side
    survivor = next(ln for ln in knockout(build_group(spec)).corner_lines if ln.death_t is None)
    real_corner_fan = fan.corner_fan

    def shortened(group, corner):
        lines = real_corner_fan(group, corner)
        for ln in lines:
            if ln.dir2 == survivor.dir2 and ln.corner == survivor.corner:
                ln.reach -= 1
        return lines

    monkeypatch.setattr(fan, "corner_fan", shortened)
    report = run_pipeline(spec, which="fan").report
    assert report.failure["check"] == "euler"
    assert report.checks["euler"]["status"] == "fail"
    assert report.failure["error"].startswith("champion boundary has")


def test_corner_fans_match_the_lattice_point_hull():
    for spec in _differential_specs():
        g = build_group(spec)
        for corner in range(3):
            got = [ln.dir2 for ln in corner_fan(g, corner)]
            assert got == _oracle_corner_dirs(g, corner), (spec, corner)


def _primitive_vectors():
    coord = st.integers(-40, 40)
    return st.tuples(coord, coord).filter(lambda v: intmat.content(v) == 1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_primitive_vectors(), _primitive_vectors())
def test_hj_chain_matches_the_lattice_point_hull(vA, vB):
    if intmat.cross2(vA, vB) < 0:
        vA, vB = vB, vA
    if intmat.cross2(vA, vB) == 0:
        return
    want = _oracle_hull_chain(_oracle_points_in_triangle(vA, vB), vA, vB)
    assert fan._hj_chain(vA, vB) == want


def _accepts_face(g, tri):
    try:
        fan._regular_triangle(g, tri)
    except InvariantViolationError as exc:
        assert "not a regular (unimodular) triangle" in str(exc)
        return False
    return True


def test_regular_triangle_check_matches_the_direction_basis_solve():
    for spec in _differential_specs():
        g = build_group(spec)
        dbasis = _oracle_direction_basis(g)
        for reg in _knockout(spec).regular_triangles:
            v0, r = reg.vertices[0], reg.side
            s1, s2 = reg.steps
            # the face itself; a unimodular reshear; a face of index 3 whose
            # sides s1 + s2, s2 - 2 s1, s1 - 2 s2 are still primitive
            for a, b in [
                (s1, s2),
                (intmat.vec_add(s1, s2), s2),
                (intmat.vec_add(s1, s2), intmat.vec_sub(intmat.vec_scale(2, s2), s1)),
            ]:
                tri = [v0] + [intmat.vec_add(v0, intmat.vec_scale(r, d)) for d in (a, b)]
                assert _accepts_face(g, tri) == _oracle_unimodular(dbasis, a, b), (spec, a, b)
            assert _accepts_face(g, list(reg.vertices))


def test_scaled_face_is_rejected():
    g = build_group("1/11(1,2,8)")
    reg = max(knockout(g).regular_triangles, key=lambda t: t.side)
    scaled = [intmat.vec_scale(2, v) for v in reg.vertices]
    with pytest.raises(InvariantViolationError, match="not a regular .unimodular. triangle") as err:
        fan._regular_triangle(g, scaled)
    assert err.value.detail == {"triangle": tuple(scaled), "sides": [2 * reg.side] * 3}


def test_face_with_unequal_sides_is_named():
    # the side-2 corner triangle of 1/11(1,2,8) with one side cut to a single step
    g = build_group("1/11(1,2,8)")
    tri = ((1, 2, 8), (11, 0, 0), (2, 4, 5))
    with pytest.raises(InvariantViolationError) as err:
        fan._regular_triangle(g, tri)
    assert str(err.value) == "face with side counts [2, 1, 1] is not regular"
    assert err.value.detail == {"triangle": tri, "sides": [2, 1, 1]}


# ---------------------------------------------------------------------------
# differential test: the integer knock-out against the `Fraction` crossing
# table, tournament and battle resolution it replaced


def _oracle_knockout(group):
    """The knock-out on `Fraction` crossings, with its three lattice checks."""
    fans = [corner_fan(group, c) for c in range(3)]
    lines = [ln for corner_lines in fans for ln in corner_lines]
    order = group.order

    point_parts = {}  # 2d fraction point -> {line index: param along that line}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            li, lj = lines[i], lines[j]
            if li.corner == lj.corner:
                continue
            ci, cj = fan.proj2(li.origin), fan.proj2(lj.origin)
            di, dj = fan.proj2(li.step), fan.proj2(lj.step)
            den = intmat.cross2(di, dj)
            assert den != 0
            dc = intmat.vec_sub(cj, ci)
            t = Fraction(intmat.cross2(dc, dj), den)
            s = Fraction(intmat.cross2(dc, di), den)
            assert t > 0 and s > 0
            pt = (ci[0] + t * di[0], ci[1] + t * di[1])
            point_parts.setdefault(pt, {})[i] = t
            point_parts.setdefault(pt, {})[j] = s

    per_line = [[] for _ in lines]
    for pt, parts in point_parts.items():
        for k, t in parts.items():
            per_line[k].append((t, pt))
    for crossings in per_line:
        crossings.sort()

    death = [None] * len(lines)

    def reaches(parts, k):
        return death[k] is None or death[k] >= parts[k]

    def beats_all(i, ks):
        ratio = (lines[i].plus, lines[i].minus)
        return all(monomial_knockout(ratio, (lines[k].plus, lines[k].minus)) == "first"
                   for k in ks if k != i)

    for _ in range(2 * len(lines) + 8):
        changed = False
        for i in range(len(lines)):
            new_death = None
            for t, pt in per_line[i]:
                parts = point_parts[pt]
                rivals = [k for k in parts if k != i and reaches(parts, k)]
                if rivals and not beats_all(i, rivals):
                    new_death = t
                    break
            if new_death != death[i]:
                death[i] = new_death
                changed = True
        if not changed:
            break
    else:
        raise AssertionError("tournament did not stabilise")

    defeats = {i: [] for i in range(len(lines))}
    realized = []
    for pt, parts in point_parts.items():
        ks = [k for k in parts if reaches(parts, k)]
        if len(ks) < 2:
            continue
        assert len({lines[k].corner for k in ks}) == len(ks) <= 3
        assert pt[0].denominator == 1 and pt[1].denominator == 1, "battle off the lattice"
        lp = (int(pt[0]), int(pt[1]), order - int(pt[0]) - int(pt[1]))
        assert _oracle_in_lattice(group, lp), "battle off the lattice"
        winner = next((i for i in ks if beats_all(i, ks)), None)
        assert all(death[i] == parts[i] for i in ks if i != winner)
        if winner is not None:
            defeats[winner].append((parts[winner], len(ks) - 1))
        realized.append((pt, ks, winner, lp))

    battles = []
    for pt, ks, winner, lp in sorted(realized, key=lambda b: (b[0][0], b[0][1])):
        strengths = {
            k: lines[k].strength
            - sum(c for tt, c in defeats[k] if tt < point_parts[pt][k])
            for k in ks
        }
        top = [k for k, s in strengths.items() if s == max(strengths.values())]
        assert (top[0] if len(top) == 1 else None) == winner, "strength rule disagrees"
        battles.append(fan.Battle(lp, ks, winner))
        for k in ks:
            lines[k].battles.append((lp, strengths[k], winner == k))
    meetings = [b.lattice_point for b in battles if b.winner is None and len(b.participants) == 3]
    assert len(meetings) <= 1

    for i, ln in enumerate(lines):
        ln.final_strength = ln.strength - sum(c for _, c in defeats[i])
        if death[i] is not None:
            assert death[i].denominator == 1, "line dies at a non-lattice parameter"
            ln.death_t = int(death[i])
    regular = fan._corner_triangles(group, fans)
    champion = fan._champion_triangle(regular)
    if champion is not None:
        regular.append(fan._regular_triangle(group, champion))
    regular.sort(key=lambda t: t.vertices)
    return fan.Partition(group, lines, regular, battles, meetings[0] if meetings else None)


def test_integer_knockout_matches_the_fraction_oracle():
    for spec in _differential_specs():
        part = _knockout(spec)
        want = _oracle_knockout(part.group)
        assert [(ln.death_t, ln.final_strength, ln.battles) for ln in part.corner_lines] == [
            (ln.death_t, ln.final_strength, ln.battles) for ln in want.corner_lines
        ], spec
        assert all(type(ln.death_t) in (int, type(None)) for ln in part.corner_lines), spec
        assert part.battles == want.battles, spec
        assert part.regular_triangles == want.regular_triangles, spec
        assert part.champion_point == want.champion_point, spec


def test_lines_that_meet_off_the_lattice_fail_euler(monkeypatch):
    """With a knock-out rule under which no line dies, lines run through
    crossings between lattice points, and the one off-lattice check names them."""
    spec = "1/11(1,2,8)"
    g = build_group(spec)
    all_lines = {(ln.corner, ln.step) for c in range(3) for ln in corner_fan(g, c)}
    monkeypatch.setattr(fan, "monomial_knockout", lambda ratio_a, ratio_b: "first")
    report = run_pipeline(spec, which="fan").report
    assert report.failure["check"] == "euler"
    assert report.failure["error"] == "two lines meet off the lattice"
    named = [(ln["corner"], ln["step"]) for ln in report.failure["detail"]["lines"]]
    assert len(named) == 2 and named[0][0] != named[1][0]
    assert set(named) <= all_lines


def test_line_lookup_matches_the_per_edge_ratio():
    """Edges grouped by a cached ratio per line normal, against one `line_ratio` per edge."""
    for spec in _differential_specs():
        part = _knockout(spec)
        T = fan.Triangulation(part.group, part)
        groups = {}
        for ei, e in enumerate(T.edges):
            groups.setdefault(fan.line_ratio(part.group, e.a, e.b), []).append(ei)
        assert [(ln.u, ln.plus, ln.minus, ln.edges) for ln in T.lines] == [
            (*key, groups[key]) for key in sorted(groups)
        ], spec


def test_non_lattice_direction_is_named():
    g = build_group("1/11(1,2,8)")
    with pytest.raises(InvariantViolationError) as err:
        fan.primitive_step(g, (3, 0, -3))
    assert str(err.value) == "direction (3, 0, -3) is not a lattice vector"
    assert err.value.detail == {"direction": (3, 0, -3)}


@pytest.mark.parametrize(
    "w, message",
    [
        ((1, 0, -1), "(1, 0, -1) is not a lattice point"),
        ((2, 4, 16), "(2, 4, 16) is not primitive in the lattice"),
    ],
)
def test_quotient_map_rejects_a_bad_point(w, message):
    with pytest.raises(InvariantViolationError) as err:
        QuotientMap(build_group("1/11(1,2,8)"), w)
    assert str(err.value) == message
    assert err.value.detail == {"point": w}


def test_projection_rejects_an_off_lattice_point():
    qm = QuotientMap(build_group("1/11(1,2,8)"), (1, 2, 8))
    assert qm.proj((2, 4, 16)) == (0, 0)
    with pytest.raises(InvariantViolationError) as err:
        qm.proj((1, 0, -1))
    assert str(err.value) == "point is not in the lattice"
    assert err.value.detail == {"point": (1, 0, -1)}


def _oracle_proj(g, w, p):
    """`QuotientMap(g, w).proj(p)` in the form it replaced: adj @ V's two kept
    columns held as rows of pairs, p multiplied through them, then divided."""
    adj, den = g.lattice_inverse
    coords = [x // den for x in intmat.vec_mat(w, adj)]
    _, v1, v2 = zip(*intmat.complete_unimodular(coords))
    kept = [(intmat.vec_dot(row, v1), intmat.vec_dot(row, v2)) for row in adj]
    (q0, r0), (q1, r1) = (divmod(x, den) for x in intmat.vec_mat(p, kept))
    return (q0, q1) if not (r0 or r1) else None


def test_projection_matches_the_transposed_form_on_every_star():
    """Every interior vertex's rays project as in the transpose-and-divide
    form, on the order-30 family and the six compute-large groups."""
    specs = _cyclic_family_up_to_30() + [f"1/401(1,{b},{400 - b})" for b in (7, 11, 13, 17, 19, 23)]
    rays = 0
    for spec in specs:
        g = build_group(spec)
        T = triangulate(g)
        for v in T.interior_vertices:
            qm = QuotientMap(g, v)
            for ei in T.vertex_edges[v]:
                e = T.edges[ei]
                p = intmat.vec_sub(e.b if e.a == v else e.a, v)
                assert qm.proj(p) == _oracle_proj(g, v, p), (spec, v, p)
                rays += 1
    assert rays > 5000


# ---------------------------------------------------------------------------
# negative controls: the raises of the corner fans and of `line_ratio`


def test_collinear_points_are_named():
    with pytest.raises(InvariantViolationError) as err:
        fan.line_ratio(build_group("1/11(1,2,8)"), (1, 2, 8), (2, 4, 16))
    assert str(err.value) == "points are collinear with the origin"
    assert err.value.detail == {"points": ((1, 2, 8), (2, 4, 16))}


def _oracle_lift(g, w, v):
    """A lattice point over v under `QuotientMap(g, w).proj`, in its completed frame.

    The rows of V^-1 complete w to a basis of the scaled lattice (in the HNF
    basis B), and v picks the combination of the last two.
    """
    adj, den = g.lattice_inverse
    V = intmat.complete_unimodular([x // den for x in intmat.vec_mat(w, adj)])
    d = intmat.det3(V)
    A = [tuple(d * x for x in row) for row in intmat.adjugate3(V)]
    B = _scaled_lattice(g.scaled_generators, g.order)
    return intmat.vec_mat(intmat.vec_add(intmat.vec_scale(v[0], A[1]),
                                         intmat.vec_scale(v[1], A[2])), B)


def _oracle_corner_fan(g, corner):
    """The lift path `corner_fan` replaced: (dir2, step, reach, u, plus, minus, strength).

    Each ray is lifted through the completion, moved along the corner into
    the sum-zero plane, cut to its primitive lattice step and turned into
    the simplex.
    """
    order = g.order
    E = fan.simplex_corners(order)
    Ec = E[corner]
    qm = QuotientMap(g, Ec)
    PA, PB = (qm.proj(E[c]) for c in range(3) if c != corner)
    if intmat.cross2(PA, PB) < 0:
        PA, PB = PB, PA
    chain = fan._hj_chain(intmat.primitive(PA), intmat.primitive(PB))
    out = []
    for j in range(1, len(chain) - 1):
        w = _oracle_lift(g, Ec, chain[j])
        step, _ = fan.primitive_step(
            g, intmat.vec_sub(intmat.vec_scale(order, w), intmat.vec_scale(sum(w), Ec)))
        if all(step[i] <= 0 for i in range(3) if i != corner):
            step = intmat.vec_neg(step)
        assert all(step[i] > 0 for i in range(3) if i != corner)
        reach = order // -step[corner]
        assert reach >= 1
        u, plus, minus = fan.line_ratio(g, Ec, intmat.vec_add(Ec, step))
        out.append((chain[j], step, reach, u, plus, minus,
                    intmat.cross2(chain[j - 1], chain[j + 1])))
    return out


def test_corner_fan_matches_the_completion_lift():
    """Sum-zero lifts against the completion path at every corner of the differential specs.

    Each step is also checked to be the exact quotient by D of the ray's
    combination of the two side steps, as `corner_fan`'s docstring proves.
    """
    for spec in _differential_specs():
        g = build_group(spec)
        E = fan.simplex_corners(g.order)
        for corner in range(3):
            lines = corner_fan(g, corner)
            got = [(ln.dir2, ln.step, ln.reach, ln.u, ln.plus, ln.minus, ln.strength)
                   for ln in lines]
            assert got == _oracle_corner_fan(g, corner), (spec, corner)
            qm = QuotientMap(g, E[corner])
            sides = []  # (primitive projection, side step over it) per other corner
            for c in range(3):
                if c != corner:
                    side = intmat.vec_sub(E[c], E[corner])
                    k = intmat.content(qm.proj(side))
                    sides.append((intmat.primitive(qm.proj(side)), tuple(x // k for x in side)))
            if intmat.cross2(sides[0][0], sides[1][0]) < 0:
                sides.reverse()
            (vA, sA), (vB, sB) = sides
            D = intmat.cross2(vA, vB)
            for ln in lines:
                combo = intmat.vec_add(intmat.vec_scale(intmat.cross2(ln.dir2, vB), sA),
                                       intmat.vec_scale(intmat.cross2(vA, ln.dir2), sB))
                assert intmat.vec_scale(D, ln.step) == combo, (spec, corner, ln.dir2)


def test_corner_fan_chains_are_basic_with_strengths_at_least_two():
    """What `_hj_chain`'s docstring proves, at every corner of the differential specs.

    The chain from one side of the corner cone through the line directions
    to the other is basic, and each line's strength a >= 2 satisfies
    v_{j-1} + v_{j+1} = a v_j.
    """
    strengths = Counter()
    for spec in _differential_specs():
        g = build_group(spec)
        E = fan.simplex_corners(g.order)
        for corner in range(3):
            qm = QuotientMap(g, E[corner])
            PA, PB = (qm.proj(E[c]) for c in range(3) if c != corner)
            if intmat.cross2(PA, PB) < 0:
                PA, PB = PB, PA
            lines = corner_fan(g, corner)
            chain = [intmat.primitive(PA), *(ln.dir2 for ln in lines), intmat.primitive(PB)]
            assert all(intmat.cross2(v, w) == 1 for v, w in zip(chain, chain[1:])), (spec, corner)
            for j, ln in enumerate(lines, 1):
                assert ln.strength >= 2, (spec, corner, j)
                assert (intmat.vec_add(chain[j - 1], chain[j + 1])
                        == intmat.vec_scale(ln.strength, chain[j])), (spec, corner, j)
                strengths[ln.strength] += 1
    assert min(strengths) == 2 and max(strengths) > 100


def test_degenerate_corner_cone_is_named():
    with pytest.raises(InvariantViolationError) as err:
        fan._hj_chain((0, 1), (1, 0))
    assert str(err.value) == "degenerate corner cone"
    assert err.value.detail == {"from": (0, 1), "to": (1, 0)}


def _stand_in_fans(monkeypatch, lines):
    """`corner_fan` returning the given lines, each at its own corner."""
    monkeypatch.setattr(fan, "corner_fan",
                        lambda group, corner: [ln for ln in lines if ln.corner == corner])


def _named(*lines):
    return {"lines": [{"corner": ln.corner, "step": ln.step} for ln in lines]}


def test_parallel_lines_are_named(monkeypatch):
    g = build_group("1/11(1,2,8)")
    line = corner_fan(g, 0)[0]
    twin = replaced(line, corner=1, origin=fan.simplex_corners(g.order)[1])
    _stand_in_fans(monkeypatch, [line, twin])
    with pytest.raises(InvariantViolationError) as err:
        knockout(g)
    assert str(err.value) == "parallel interior lines cannot occur"
    assert err.value.detail == _named(line, twin)


def test_lines_crossing_outside_are_named(monkeypatch):
    g = build_group("1/11(1,2,8)")
    line, other = corner_fan(g, 0)[0], corner_fan(g, 1)[0]
    away = replaced(other, step=intmat.vec_neg(other.step))
    _stand_in_fans(monkeypatch, [line, away])
    with pytest.raises(InvariantViolationError) as err:
        knockout(g)
    assert str(err.value) == "interior lines must cross inside"
    assert err.value.detail == _named(line, away)


def test_unsettled_tournament_names_its_moving_lines(monkeypatch):
    """A rule that reverses its verdict on each pair at every call never settles."""
    calls = Counter()

    def flipping(ratio_a, ratio_b):
        calls[ratio_a, ratio_b] += 1
        return "second" if calls[ratio_a, ratio_b] % 2 else "first"

    monkeypatch.setattr(fan, "monomial_knockout", flipping)
    with pytest.raises(InvariantViolationError) as err:
        knockout(build_group("1/30(25,2,3)"))
    assert str(err.value) == "knock-out tournament did not stabilise"
    assert err.value.detail == {"lines": [{"corner": 0, "step": (-5, 2, 3)},
                                          {"corner": 2, "step": (10, 2, -12)}]}


def test_two_champion_meetings_are_named(monkeypatch):
    meetings = [(3, 3, 5), (4, 2, 5)]
    monkeypatch.setattr(fan, "_resolve_battles", lambda lines, point_parts, death: [
        fan.Battle(pt, [0, 1, 2], None) for pt in meetings])
    with pytest.raises(InvariantViolationError) as err:
        knockout(build_group("1/11(1,2,8)"))
    assert str(err.value) == "two side-0 champion meetings"
    assert err.value.detail == {"points": meetings}


def test_survivor_off_the_lattice_is_named(monkeypatch):
    """A lone line of twice a real step: 2 does not divide 11 steps of the corner."""
    g = build_group("1/11(1,2,8)")
    line = corner_fan(g, 0)[0]
    doubled = replaced(line, step=intmat.vec_scale(2, line.step))
    _stand_in_fans(monkeypatch, [doubled])
    with pytest.raises(InvariantViolationError) as err:
        knockout(g)
    assert str(err.value) == "surviving line leaves the simplex at a non-lattice point"
    assert err.value.detail == {"corner": 0, "step": (-10, 2, 8)}


def test_partition_area_shortfall_is_named(monkeypatch):
    """Without its champion triangle, 1/7(1,2,4) covers 6 of its 7 basic triangles."""
    monkeypatch.setattr(fan, "_champion_triangle", lambda corner_triangles: None)
    with pytest.raises(InvariantViolationError) as err:
        knockout(build_group("1/7(1,2,4)"))
    assert str(err.value) == "regular partition covers 6 basic triangles, expected 7"
    assert err.value.detail == {"regular_triangles": 6, "covered": 6, "order": 7}


def test_champion_region_with_four_corners_is_named():
    """Two stand-in unit triangles sharing a side leave a parallelogram uncovered."""
    p, s1, s2 = (3, 3, 5), (1, -1, 0), (1, 0, -1)
    q, r = intmat.vec_add(p, s1), intmat.vec_add(p, s2)
    first = SimpleNamespace(vertices=(p, q, r), steps=(s1, s2), side=1)
    second = SimpleNamespace(vertices=(q, intmat.vec_add(q, s2), r),
                             steps=(s2, intmat.vec_sub(s2, s1)), side=1)
    with pytest.raises(InvariantViolationError) as err:
        fan._champion_triangle([first, second])
    assert str(err.value) == "champion region has 4 corners, not 3"
    assert err.value.detail == {"corners": [p, q, r, (5, 2, 4)]}


def test_battle_with_repeated_corners_is_named():
    lines = corner_fan(build_group("1/11(1,2,8)"), 0)
    with pytest.raises(InvariantViolationError) as err:
        fan._resolve_battles(lines, {(3, 3, 5): {0: 1, 1: 2}}, [None, None])
    assert str(err.value) == "battle with repeated corners"
    assert err.value.detail == {"point": (3, 3, 5), **_named(*lines)}


def test_defeated_line_that_runs_on_is_named():
    """A real battle resolved with no line dead: both losers are named."""
    part = knockout(build_group("1/11(1,2,8)"))
    lines = [replaced(ln, battles=[]) for ln in part.corner_lines]
    battle = next(b for b in part.battles if b.winner is not None)
    pt = battle.lattice_point
    parts = {pt: {k: intmat.content(intmat.vec_sub(pt, lines[k].origin))
                  // intmat.content(lines[k].step) for k in battle.participants}}
    with pytest.raises(InvariantViolationError) as err:
        fan._resolve_battles(lines, parts, [None] * len(lines))
    assert str(err.value) == "defeated line does not die in place"
    losers = [lines[k] for k in battle.participants if k != battle.winner]
    assert err.value.detail == {"point": pt, **_named(*losers)}


# ---------------------------------------------------------------------------
# differential test: the closed-form lattice step and ratio minimality
# against the divisor search and element-set probe they replaced


def _oracle_divisors_desc(n):
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out, reverse=True)


@functools.cache
def _oracle_element_set(group):
    """Held for the groups of `_knockout`, which the cache keeps alive anyway."""
    return frozenset(group.elements)


def _oracle_in_lattice(group, point):
    """Membership in the scaled lattice |A|*N: the point mod |A| is a group element."""
    r = group.order
    return (point[0] % r, point[1] % r, point[2] % r) in _oracle_element_set(group)


def _oracle_primitive_step(group, d):
    """Largest lattice vector with d = r*step, trying each divisor r of the content."""
    c = intmat.content(d)
    for g in _oracle_divisors_desc(c):
        cand = tuple(x // g for x in d)
        if _oracle_in_lattice(group, cand):
            return cand, g
    raise InvariantViolationError(f"direction {d} is not a lattice vector", detail={"direction": d})


def _oracle_minimal(group, u):
    """Whether no proper root u / d of the invariant u is invariant."""
    return not any(group.is_invariant(tuple(x // d for x in u))
                   for d in _oracle_divisors_desc(intmat.content(u))[:-1])


def _step_outcome(step, group, d):
    try:
        return step(group, d)
    except InvariantViolationError as exc:
        return str(exc), exc.detail


def test_primitive_step_matches_the_divisor_search(monkeypatch):
    """Every call the knock-out makes, on every differential spec."""
    calls = []
    closed_form = fan.primitive_step

    def recorded(group, d):
        calls.append((group, d))
        return closed_form(group, d)

    monkeypatch.setattr(fan, "primitive_step", recorded)
    for spec in _differential_specs():
        knockout(_knockout(spec).group)
    assert len(calls) > 30_000
    for group, d in calls:
        assert closed_form(group, d) == _oracle_primitive_step(group, d), (group, d)


def test_non_lattice_directions_match_the_divisor_search():
    """Seeded sum-zero directions, most off the lattice, and the zero direction."""
    rng = random.Random(0)
    raised = 0
    for spec in _differential_specs():
        g = _knockout(spec).group
        n = 2 * g.order
        for _ in range(8):
            a, b = rng.randint(-n, n), rng.randint(-n, n)
            d = (a, b, -a - b)
            got = _step_outcome(fan.primitive_step, g, d)
            assert got == _step_outcome(_oracle_primitive_step, g, d), (spec, d)
            raised += isinstance(got[0], str)
        zero = _step_outcome(fan.primitive_step, g, (0, 0, 0))
        assert zero == _step_outcome(_oracle_primitive_step, g, (0, 0, 0))
        assert zero == ("direction (0, 0, 0) is not a lattice vector", {"direction": (0, 0, 0)})
    assert raised > 2_000


def _ratios_verdict(group, line):
    """The `ratios` stage on a stand-in triangulation of one line: None, or its error."""
    art = SimpleNamespace(group=group, triangulation=SimpleNamespace(
        lines=[line], regular_triangles=[]))
    try:
        pipeline._check_ratios(art)
    except InvariantViolationError as exc:
        return str(exc)
    return None


def test_ratio_minimality_matches_the_divisor_loop():
    """Every line of every differential spec, as built and as twice and three times itself."""
    checked = 0
    for spec in _differential_specs():
        part = _knockout(spec)
        g = part.group
        for ln in fan.Triangulation(g, part).lines:
            for k in (1, 2, 3):
                u = intmat.vec_scale(k, ln.u)
                got = _ratios_verdict(g, SimpleNamespace(u=u, plus=ln.plus, minus=ln.minus,
                                                         endpoints=ln.endpoints))
                want = None if _oracle_minimal(g, u) else (
                    "ratio is not the minimal invariant relation")
                assert got == want, (spec, u)
                assert (got is None) == (k == 1), (spec, u)
                checked += 1
    assert checked > 3 * 10_000
