import functools
import gc
import itertools
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from ahilb import charts, intmat
from ahilb.charts import AGraph, ChartSet, build_agraph
from ahilb.errors import InvariantViolationError
from ahilb.fan import triangulate
from ahilb.group import MONO_ONE, build_group, ratio_split
from ahilb.pipeline import run_pipeline
from conftest import chi, conv_region, conv_regions
from test_acceptance import _cyclic_family_runs
from test_fan import _differential_specs


def chart_coords(group, vertices):
    """Dual basis of the (unscaled) vertex basis, as monomial ratios, by the adjugate.

    The oracle of `ChartSet`'s coordinates, which it reads off the line table.
    """
    m = [list(v) for v in vertices]
    d = intmat.det3(m)
    order = group.order
    where = {"vertices": tuple(vertices)}
    if abs(d) != order * order:
        raise InvariantViolationError("chart requested for a non-basic triangle", detail=where)
    adj = intmat.adjugate3(m)
    # rows of order * m^{-1}: integer because the unscaled vertices base N
    duals = []
    for i in range(3):
        vec = []
        for j in range(3):
            q, rem = divmod(order * adj[j][i], d)
            if rem:
                raise InvariantViolationError("dual basis is not integral", detail=where)
            vec.append(q)
        u = tuple(vec)
        if not group.is_invariant(u):
            raise InvariantViolationError("chart coordinate is not invariant", detail=where)
        duals.append(ratio_split(u))
    return tuple(duals)


def _far(tri, ei):
    """The vertex of `tri` opposite its side `ei`."""
    return tri.vertices[tri.edges.index(ei)]


def test_trivial_chart_is_xyz(run_trivial):
    C = run_trivial.charts
    coords = {c for c in C.coords[0]}
    assert coords == {((1, 0, 0), (0, 0, 0)), ((0, 1, 0), (0, 0, 0)), ((0, 0, 1), (0, 0, 0))}


@pytest.mark.parametrize("spec", ["1/11(1,2,8)", "1/30(25,2,3)", "1/3(1,2,0);1/3(0,1,2)"])
def test_dual_basis_property(spec):
    g = build_group(spec)
    C = ChartSet(triangulate(g))
    for t, coords in zip(C.triangulation.triangles, C.coords):
        for i, (num, den) in enumerate(coords):
            u = intmat.vec_sub(num, den)
            assert g.is_invariant(u)
            for j, P in enumerate(t.vertices):
                assert intmat.vec_dot(u, P) == (g.order if i == j else 0)


def test_coordinates_match_the_adjugate():
    """Read off the line table, they equal the adjugate's dual basis on every triangle."""
    runs, _ = _cyclic_family_runs()
    triangles = 0
    for spec in _differential_specs():
        C = runs[spec].charts if spec in runs else ChartSet(triangulate(build_group(spec)))
        for ti, tri in enumerate(C.triangulation.triangles):
            assert C.coords[ti] == chart_coords(C.group, tri.vertices), (spec, ti)
        triangles += len(C.coords)
    assert triangles > 10000


def test_triangle_edges_are_the_opposite_sides(run30):
    T = run30.triangulation
    for ti, tri in enumerate(T.triangles):
        assert list(tri.edges) == sorted(tri.edges, reverse=True)
        for p, ei in zip(tri.vertices, tri.edges):
            e = T.edges[ei]
            assert {e.a, e.b} == set(tri.vertices) - {p}
            assert ti in e.triangles


def test_explicit_chart_11(run11):
    """Frozen coordinates of an up triangle in the side-2 corner triangle."""
    T, C = run11.triangulation, run11.charts
    ti = next(
        i for i, t in enumerate(T.triangles)
        if t.vertices == ((6, 1, 4), (7, 3, 1), (11, 0, 0))
    )
    assert set(C.coords[ti]) == {
        ((0, 0, 3), (0, 1, 0)),   # z^3 / y
        ((0, 4, 0), (0, 0, 1)),   # y^4 / z
        ((1, 0, 0), (0, 2, 1)),   # x / y^2 z
    }


@pytest.mark.parametrize(
    "spec",
    ["1", "1/2(1,1,0)", "1/7(1,2,4)", "1/11(1,2,8)", "1/30(25,2,3)",
     "1/3(1,2,0);1/3(0,1,2)"],
)
def test_agraph_bijective_and_closed(spec):
    art = run_pipeline(spec, which="recipe")
    g, C = art.group, art.charts
    for graph in C.agraphs:
        assert len(graph.table) == g.order
        assert graph.table[g.char_id(MONO_ONE)] == MONO_ONE
        members = set(graph.table)
        assert len(members) == g.order
        for m in members:
            for i in range(3):
                if m[i]:
                    d = tuple(m[j] - (j == i) for j in range(3))
                    assert d in members


def test_generator_weights(run30):
    g, C = run30.group, run30.charts
    for graph in C.agraphs:
        assert len(graph.table) == g.order
        for c in g.characters():
            assert g.weight(graph.table[g.char_id(c)]) == c


def test_minimiser_consistency_brute_force():
    """Each generator pairs minimally against all three vertices among its class."""
    for spec in ["1/7(1,2,4)", "1/11(1,2,8)"]:
        g = build_group(spec)
        T = triangulate(g)
        _assert_minimisers(g, [t.vertices for t in T.triangles])


def test_minimiser_consistency_large_skew_group():
    # a staircase that once stressed the search: check one chart exhaustively
    g = build_group("1/151(77,71,3)")
    T = triangulate(g)
    _assert_minimisers(g, [T.triangles[0].vertices, T.triangles[77].vertices])


def _assert_minimisers(g, triangles):
    n = g.order
    box = [
        (i, j, k)
        for i in range(n + 1)
        for j in range(n + 1)
        for k in range(n + 1)
        if min(i, j, k) == 0
    ]
    by_char = {}
    for m in box:
        by_char.setdefault(g.reduce(m), []).append(m)
    for vertices in triangles:
        graph = build_agraph(g, 0, vertices, chart_coords(g, vertices))
        for c in g.characters():
            gen = graph.table[g.char_id(c)]
            pair = [intmat.vec_dot(gen, P) for P in vertices]
            for m in by_char[c]:
                assert all(
                    pair[i] <= intmat.vec_dot(m, P) for i, P in enumerate(vertices)
                )


def test_r3_equals_xy_on_four_triangles(run11):
    g, C = run11.group, run11.charts
    chi3 = chi(g, 3)
    assert len(conv_region(C, chi3, (1, 1, 0))) == 4


def test_six_conv_regions_chi3(run11):
    g, T, C = run11.group, run11.triangulation, run11.charts
    chi3 = chi(g, 3)
    regions = conv_regions(C, chi3)
    assert len(regions) == 6
    assert set(regions) == {
        (3, 0, 0), (1, 1, 0), (0, 7, 0), (1, 0, 3), (0, 0, 10), (0, 3, 1)
    }
    covered = sorted(ti for tis in regions.values() for ti in tis)
    assert covered == list(range(len(T.triangles)))
    for tis in regions.values():
        assert _region_is_convex(C, tis)


def test_conv_region_trivial_character(run11):
    g, T, C = run11.group, run11.triangulation, run11.charts
    regions = conv_regions(C, g.reduce(MONO_ONE))
    assert set(regions) == {MONO_ONE}
    assert len(regions[MONO_ONE]) == len(T.triangles)


def test_conv_region_never_generator_is_empty(run11):
    g, C = run11.group, run11.charts
    # y^2 z^4 has weight chi_3 but generates nowhere (it is never minimal)
    chi3 = chi(g, 3)
    assert g.weight((0, 2, 4)) == chi3
    assert conv_region(C, chi3, (0, 2, 4)) == []


def test_degree_three_on_y_z3_curve(run11):
    g, T, C = run11.group, run11.triangulation, run11.charts
    chi3 = chi(g, 3)
    degs = []
    for ln in T.lines:
        if {ln.plus, ln.minus} == {(0, 1, 0), (0, 0, 3)}:
            for ei in ln.edges:
                if T.edges[ei].interior:
                    degs.append(C.degree_on_curve(chi3, ei))
    assert 3 in degs


def test_degree_zero_for_trivial_character(run11):
    g, T, C = run11.group, run11.triangulation, run11.charts
    triv = g.reduce(MONO_ONE)
    assert all(C.degree_on_curve(triv, ei) == 0 for ei in T.interior_edges)


def test_marked_line_degree_one(run30):
    g, T, C = run30.group, run30.triangulation, run30.charts
    for ei in T.interior_edges:
        line = T.lines[T.edges[ei].line]
        assert C.degree_on_curve(line.character, ei) == 1


def _transition_exponent_oracle(C, chi, edge_index):
    """Degree on one interior edge by the per-(character, edge) transition rule."""
    T = C.triangulation
    e = T.edges[edge_index]
    t1, t2 = e.triangles
    line = T.lines[e.line]
    u = intmat.vec_sub(line.plus, line.minus)
    k = C.group.char_id(chi)
    diff = intmat.vec_sub(C.agraphs[t1].table[k], C.agraphs[t2].table[k])
    d = None
    for i in range(3):
        if u[i]:
            q, rem = divmod(diff[i], u[i])
            assert rem == 0, "no integer transition exponent on edge"
            assert d is None or d == q, "inconsistent transition exponent on edge"
            d = q
        else:
            assert diff[i] == 0, "generator difference is not a multiple of the edge ratio"
    return abs(d if d is not None else 0)


@pytest.mark.parametrize(
    "spec", ["1/11(1,2,8)", "1/30(25,2,3)", "1/3(1,2,0);1/3(0,1,2)", "1/101(1,2,98)"]
)
def test_degree_table_matches_transition_rule(spec):
    C = ChartSet(triangulate(build_group(spec)))
    T = C.triangulation
    interior = T.interior_edges
    assert interior
    for chi in C.group.characters():
        expected = [_transition_exponent_oracle(C, chi, ei) for ei in interior]
        assert [C.degree_on_curve(chi, ei) for ei in interior] == expected
    boundary = next(ei for ei, e in enumerate(T.edges) if not e.interior)
    with pytest.raises(InvariantViolationError, match="interior edges only") as err:
        C.degree_on_curve(C.group.characters()[1], boundary)
    e = T.edges[boundary]
    assert err.value.detail == {"edge": (e.a, e.b)}


def _pairwise_degrees(C):
    """Degree columns by comparing the two tables of every interior edge.

    Across an interior edge the two generators of weight chi differ by
    d times the edge ratio u, and |d| is the degree of the weight-chi
    bundle on the curve; each side's generator must pair no larger than
    the other side's at its own far vertex.  Returns, per edge by edge id,
    {chi: |d|} for the characters whose generators differ across it, and {}
    for a boundary edge.
    """
    T = C.triangulation
    chars = C.group.characters()
    tables = [graph.table for graph in C.agraphs]
    columns = []
    for ei, e in enumerate(T.edges):
        if not e.interior:
            columns.append({})
            continue
        t1, t2 = e.triangles
        w1 = _far(T.triangles[t1], ei)
        w2 = _far(T.triangles[t2], ei)
        u = T.lines[e.line].u
        k = next(i for i in range(3) if u[i])
        s1, s2 = intmat.vec_dot(u, w1), intmat.vec_dot(u, w2)
        tab1, tab2 = tables[t1], tables[t2]
        column = {}
        for c, r1, r2 in zip(chars, tab1, tab2):  # tables are in character-id order
            if r1 == r2:
                continue
            diff = intmat.vec_sub(r1, r2)
            d = diff[k] // u[k]
            assert diff == tuple(d * x for x in u), "generator difference is not a multiple of u"
            assert d * s2 >= 0 and d * s1 <= 0, "support function is not convex"
            column[c] = abs(d)
        columns.append(column)
    return tuple(columns)


def _by_id(group, columns):
    """Character-keyed degree columns, keyed by character id as `ChartSet._degree` is."""
    return tuple({group.char_id(c): q for c, q in column.items()} for column in columns)


def _assert_keys_are_shared_ids(C):
    """Every key of every degree column is the group's shared id object."""
    ids = C.group.char_ids()
    assert all(k is ids[k] for column in C._degree for k in column)


def _shift_first_cross_edge(monkeypatch, shift, chars):
    """Make the walk shift one generator on its first edge off the spanning tree.

    Such an edge joins two triangles the walk has already built, so the
    shifted table is compared with the stored one, not stored.  Returns a
    list that receives the edge and the character, of the group's `chars`,
    that were shifted.
    """
    original = charts._transition_table
    built = {0}
    shifted = []

    def corrupt(table, u, edge, near, far, ids):
        out, column = original(table, u, edge, near, far, ids)
        if not shifted and built.issuperset(edge.triangles):
            c = sorted(chars)[1]
            out = _shifted(out, chars.index(c), shift(u))
            shifted.append(((edge.a, edge.b), c))
        built.update(edge.triangles)
        return out, column

    monkeypatch.setattr(charts, "_transition_table", corrupt)
    return shifted


def _shifted(table, k, step):
    """`table` with its generator at index k moved by `step`."""
    out = list(table)
    out[k] = intmat.vec_add(out[k], step)
    return tuple(out)


def test_transition_off_the_edge_ratio_is_reported(monkeypatch):
    # (1, 0, 0) is no multiple of an edge ratio, whose two monomials are both nonconstant
    g = build_group("1/11(1,2,8)")
    shifted = _shift_first_cross_edge(monkeypatch, lambda u: (1, 0, 0), g.characters())
    with pytest.raises(InvariantViolationError) as err:
        ChartSet(triangulate(g))
    assert str(err.value) == "generator difference is not an integer multiple of the edge ratio"
    edge, character = shifted[0]
    assert err.value.detail == {"edge": edge, "character": character}


@pytest.mark.parametrize("sign", [1, -1])
def test_transition_along_the_edge_ratio_is_not_convex(monkeypatch, sign):
    """The stored generator lies on the transition's line but is not its extreme point."""
    g = build_group("1/11(1,2,8)")
    shifted = _shift_first_cross_edge(monkeypatch, lambda u: tuple(sign * x for x in u),
                                      g.characters())
    with pytest.raises(InvariantViolationError) as err:
        ChartSet(triangulate(g))
    assert str(err.value) == "support function is not convex"
    edge, character = shifted[0]
    assert err.value.detail == {"edge": edge, "character": character}


def test_far_vertices_on_one_side_of_an_edge_are_not_convex(run11):
    T, C = run11.triangulation, run11.charts
    for ei in T.interior_edges:
        e = T.edges[ei]
        t1, t2 = e.triangles
        w1 = _far(T.triangles[t1], ei)
        w2 = _far(T.triangles[t2], ei)
        u = T.lines[e.line].u
        ids = C.group.char_ids()
        table, _ = charts._transition_table(C.agraphs[t1].table, u, e, w1, w2, ids)
        assert table == C.agraphs[t2].table
        # the other far vertex on the same side, or on the edge's plane
        for near in (w2, e.a):
            with pytest.raises(InvariantViolationError, match="^support function is not convex$") as err:
                charts._transition_table(C.agraphs[t1].table, u, e, near, w2, ids)
            assert err.value.detail == {"edge": (e.a, e.b)}


def test_socle_trivial(run_trivial):
    assert run_trivial.charts.agraphs[0].socle == frozenset({(0, 0, 0)})


def test_socle_y2_at_valency3_vertex(run11):
    g, T, C = run11.group, run11.triangulation, run11.charts
    chi4 = chi(g, 4)
    v = (3, 6, 2)
    gens = set()
    for ti in T.vertex_triangles[v]:
        graph = C.agraphs[ti]
        m = graph.table[g.char_id(chi4)]
        assert m in graph.socle
        gens.add(m)
    assert (0, 2, 0) in gens  # y^2 = y^{2b} with b = 1


def test_vertex_mark_in_socle_everywhere(run30):
    g, T, C, D = run30.group, run30.triangulation, run30.charts, run30.decoration
    for v, vm in D.vertex_marks.items():
        for ti in T.vertex_triangles[v]:
            graph = C.agraphs[ti]
            for m in vm.marks:
                assert graph.table[g.char_id(m)] in graph.socle


def test_corner_membership_iff_variable_absent():
    """A corner of the simplex lies in a region iff its variable misses the monomial."""
    rng = random.Random(13)
    specs = ["1/11(1,2,8)", "1/14(1,9,4)", "1/9(1,3,5)", "1/3(1,2,0);1/3(0,1,2)"]
    for spec in specs:
        art = run_pipeline(spec, which="recipe")
        g, T, C = art.group, art.triangulation, art.charts
        corner_tris = [
            set(T.vertex_triangles[tuple(g.order if i == c else 0 for i in range(3))])
            for c in range(3)
        ]
        for c in g.characters():
            regions = conv_regions(C, c)
            for m, tis in regions.items():
                for corner in range(3):
                    touches = bool(corner_tris[corner] & set(tis))
                    assert touches == (m[corner] == 0)


def _clip(poly, a, b):
    """Half-plane clip keeping the left side of a->b, exact."""
    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        sp = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        sq = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
        if sp >= 0:
            out.append(p)
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            t = Fraction(sp, sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _poly_area2(poly):
    s = 0
    for i in range(len(poly)):
        p, q = poly[i], poly[(i + 1) % len(poly)]
        s += p[0] * q[1] - p[1] * q[0]
    return s


def test_wedge_divisibility(run11):
    """If generators at a shared vertex are x^a z^c and y^b z^d, then
    z^min(c,d) divides the generator on every triangle meeting the wedge
    spanned by the vertex and the two corners e1, e2."""
    g, T, C = run11.group, run11.triangulation, run11.charts
    order = g.order
    E1, E2 = (order, 0, 0), (0, order, 0)
    for c in g.characters():
        regions = conv_regions(C, c)
        gen_at = {}
        for m, tis in regions.items():
            for ti in tis:
                gen_at[ti] = m
        for v in T.points:
            tis = T.vertex_triangles[v]
            pairs = [
                (gen_at[t1], gen_at[t2])
                for t1 in tis
                for t2 in tis
                if gen_at[t1][1] == 0 and gen_at[t2][0] == 0
                and gen_at[t1][0] > 0 and gen_at[t2][1] > 0
            ]
            for m1, m2 in pairs:
                zmin = min(m1[2], m2[2])
                if zmin == 0:
                    continue
                wedge = [(E1[0], E1[1]), (v[0], v[1]), (E2[0], E2[1])]
                if _poly_area2(wedge) < 0:
                    wedge.reverse()
                for ti, t in enumerate(T.triangles):
                    poly = [(p[0], p[1]) for p in t.vertices]
                    if _poly_area2(poly) < 0:
                        poly.reverse()
                    clipped = list(poly)
                    for i in range(3):
                        a, b = wedge[i], wedge[(i + 1) % 3]
                        clipped = _clip(clipped, a, b)
                        if not clipped:
                            break
                    if clipped and _poly_area2(clipped) > 0:
                        assert gen_at[ti][2] >= zmin


def _region_is_convex(C, tri_indices):
    """Exact convexity of a union of triangles inside the simplex."""
    T = C.triangulation
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


def _support_convexity_violations(C, chi):
    """Wall crossings breaking convexity of the support function.

    The support function evaluates each point through the generator of
    a triangle containing it; minimality makes that the smallest value
    among the neighbours, so across every interior edge the triangle
    owning a vertex must pair <= the other side's generator there.
    """
    k = C.group.char_id(chi)
    T = C.triangulation
    bad = []
    for ei in T.interior_edges:
        t1, t2 = T.edges[ei].triangles
        for a, b in ((t1, t2), (t2, t1)):
            ra = C.agraphs[a].table[k]
            rb = C.agraphs[b].table[k]
            for w in T.triangles[b].vertices:
                if intmat.vec_dot(rb, w) > intmat.vec_dot(ra, w):
                    bad.append((ei, a, b, w))
    return bad


def test_support_convexity(run11):
    C = run11.charts
    for c in run11.group.characters():
        assert _support_convexity_violations(C, c) == []


def test_non_basic_triangle_rejected():
    # a triangle's first vertex moved to twice its distance from the opposite side
    T = triangulate(build_group("1/11(1,2,8)"))
    tri = T.triangles[3]
    a, b, c = tri.vertices
    tri.vertices = vertices = (intmat.vec_sub(intmat.vec_scale(2, a), b), b, c)
    with pytest.raises(InvariantViolationError, match="^chart requested for a non-basic triangle$") as err:
        ChartSet(T)
    assert err.value.detail == {"vertices": vertices}
    with pytest.raises(InvariantViolationError, match="non-basic") as err:
        chart_coords(T.group, vertices)
    assert err.value.detail == {"vertices": vertices}


def _dict_walk(T):
    """The chart walk on dict tables, character -> generator: the oracle of `ChartSet`.

    Triangle 0's table is the search's; across each interior edge, from
    the triangle built first, every generator m moves to m - q*v, with v
    the edge ratio oriented toward the other far vertex and q the largest
    the octant allows.  Returns each triangle's table and socle, and the
    nonzero q of each edge as {chi: q} by edge id, {} for a boundary edge.
    """
    g, tris = T.group, T.triangles
    tables = [None] * len(tris)
    coords = chart_coords(g, tris[0].vertices)
    tables[0] = dict(zip(g.characters(), build_agraph(g, 0, tris[0].vertices, coords).table))
    columns = [None if e.interior else {} for e in T.edges]
    queue = [0]
    for ti in queue:
        for ei in sorted(tris[ti].edges):
            if columns[ei] is not None:
                continue
            e = T.edges[ei]
            tj = next(t for t in e.triangles if t != ti)
            u = T.lines[e.line].u
            v = u if intmat.vec_dot(u, _far(tris[tj], ei)) > 0 else intmat.vec_neg(u)
            pos = [(i, v[i]) for i in range(3) if v[i] > 0]
            (i, vi), (k, vk) = pos[0], pos[-1]
            walked, columns[ei] = {}, {}
            for c, m in tables[ti].items():
                q = min(m[i] // vi, m[k] // vk)
                walked[c] = (m[0] - q * v[0], m[1] - q * v[1], m[2] - q * v[2])
                if q:
                    columns[ei][c] = q
            if tables[tj] is None:
                tables[tj] = walked
                queue.append(tj)
            else:
                assert walked == tables[tj]
    socles = []
    for table in tables:
        members = set(table.values())
        socles.append(frozenset(
            (a, b, c) for a, b, c in members
            if (a + 1, b, c) not in members
            and (a, b + 1, c) not in members
            and (a, b, c + 1) not in members
        ))
    return tables, socles, tuple(columns)


def test_walked_tables_match_the_heap():
    """Every table the edge walk derives equals the best-first search's.

    Each table, socle and degree column also equals the dict-table walk's,
    and the degree table's columns equal those found by comparing the two
    tables of every interior edge, keyed by id, each key the group's
    shared id object.
    """
    runs, _ = _cyclic_family_runs()
    others = (
        [f"1/401(1,{b},{400 - b})" for b in (7, 11, 13, 17, 19, 23)]
        + ["1/3(1,2,0);1/3(0,1,2)", "1/6(1,2,3);1/3(1,1,1)", "1/4(1,1,2);1/2(1,1,0);1/2(0,1,1)"]
    )
    chart_sets = itertools.chain(
        ((spec, art.charts) for spec, art in runs.items()),
        ((spec, ChartSet(triangulate(build_group(spec)))) for spec in others),
    )
    for spec, C in chart_sets:
        g = C.group
        tables, socles, columns = _dict_walk(C.triangulation)
        for ti, (tri, got) in enumerate(zip(C.triangulation.triangles, C.agraphs)):
            want = build_agraph(g, ti, tri.vertices, chart_coords(g, tri.vertices))
            assert got.table == want.table and got.socle == want.socle, (spec, ti)
            assert len(got.table) == g.order, (spec, ti)
            assert dict(zip(g.characters(), got.table)) == tables[ti], (spec, ti)
            assert got.socle == socles[ti], (spec, ti)
        assert C._degree == _by_id(g, columns), spec
        assert C._degree == _by_id(g, _pairwise_degrees(C)), spec
        _assert_keys_are_shared_ids(C)


def test_degree_columns_of_a_repeated_weight_match_the_oracle():
    """On 1/401(1,1,399), whose columns are the densest of the ladder, the
    degree table is the character-keyed oracle's keyed by id, on shared ids."""
    C = ChartSet(triangulate(build_group("1/401(1,1,399)")))
    assert C._degree == _by_id(C.group, _pairwise_degrees(C))
    _assert_keys_are_shared_ids(C)


def _stored_walk(C):
    """The chart walk that stores every table: the oracle of the `agraphs` view.

    The walk of `ChartSet`, crossing each interior edge once from the
    triangle built first, with every table kept to the end.  Returns each
    triangle's AGraph and the degree columns by edge id.
    """
    T, g = C.triangulation, C.group
    tris, ids = T.triangles, g.char_ids()
    graphs = [None] * len(tris)
    graphs[0] = build_agraph(g, 0, tris[0].vertices, C.coords[0])
    columns = [None if e.interior else {} for e in T.edges]
    queue = [0]
    for ti in queue:
        tri = tris[ti]
        for i in (2, 1, 0):  # ascending edge id
            ei = tri.edges[i]
            if columns[ei] is not None:
                continue
            e = T.edges[ei]
            tj = next(t for t in e.triangles if t != ti)
            walked, columns[ei] = charts._transition_table(
                graphs[ti].table, T.lines[e.line].u, e, tri.vertices[i], _far(tris[tj], ei), ids
            )
            if graphs[tj] is not None:
                assert walked == graphs[tj].table
                continue
            socle = charts._checked_socle(tj, walked, C.coords[tj])
            graphs[tj] = AGraph(walked, frozenset(walked[k] for k in socle))
            queue.append(tj)
    assert len(queue) == len(tris)
    return graphs, tuple(columns)


@functools.cache
def _view_chart_sets():
    """(spec, ChartSet) of the goldens, the order-30 family, and larger and product groups."""
    runs, _ = _cyclic_family_runs()
    others = (
        ["1/11(1,2,8)", "1/30(25,2,3)", "1/300(1,1,298)"]
        + [f"1/401(1,{b},{400 - b})" for b in (7, 11, 13, 17, 19, 23)]
        + ["1/3(1,2,0);1/3(0,1,2)", "1/6(1,2,3);1/3(1,1,1)", "1/4(1,1,2);1/2(1,1,0);1/2(0,1,1)"]
    )
    return ([(spec, art.charts) for spec, art in runs.items()]
            + [(spec, ChartSet(triangulate(build_group(spec)))) for spec in others])


def test_agraphs_view_matches_the_stored_walk():
    """Read in order and by index, every table and socle is the stored walk's."""
    rng = random.Random(28)
    for spec, C in _view_chart_sets():
        graphs, columns = _stored_walk(C)
        assert C._degree == columns, spec
        assert len(C.agraphs) == len(graphs)
        assert list(C.agraphs) == graphs, spec
        assert [C.agraphs[ti] for ti in range(len(graphs))] == graphs, spec
        # in random order, each read twice
        order = list(range(len(graphs)))
        rng.shuffle(order)
        for ti in order[:50] + order[:50]:
            assert C.agraphs[ti] == graphs[ti], (spec, ti)
        assert C.agraphs[-1] == graphs[-1]
        for ti, graph in enumerate(graphs):
            assert C.socle_ids[ti] == tuple(k for k, m in enumerate(graph.table) if m in graph.socle)
        with pytest.raises(IndexError):
            C.agraphs[len(graphs)]


def test_each_column_is_the_same_from_either_side_of_its_edge():
    """The fact the view's replay rests on, on every interior edge.

    Crossing an edge from either triangle's table gives the other's table
    and the same degree column, the one the walk stored.
    """
    edges = 0
    for spec, C in _view_chart_sets():
        T, ids = C.triangulation, C.group.char_ids()
        tables = [graph.table for graph in C.agraphs]
        for ei in T.interior_edges:
            e = T.edges[ei]
            t1, t2 = e.triangles
            u = T.lines[e.line].u
            w1, w2 = _far(T.triangles[t1], ei), _far(T.triangles[t2], ei)
            to2, column12 = charts._transition_table(tables[t1], u, e, w1, w2, ids)
            to1, column21 = charts._transition_table(tables[t2], u, e, w2, w1, ids)
            assert to2 == tables[t2] and to1 == tables[t1], (spec, ei)
            assert column12 == column21 == C._degree[ei], (spec, ei)
        edges += len(T.interior_edges)
    assert edges > 10000


def _divide_first_transition_table(table, u, edge, near, far, ids):
    """The crossing scan that divides at every generator: the oracle of
    `_transition_table`, which compares first and divides only where a
    generator moves."""
    s = intmat.vec_dot(u, far)
    if s == 0 or intmat.vec_dot(u, edge.a) or intmat.vec_dot(u, edge.b):
        raise InvariantViolationError(
            "edge ratio does not separate the far vertex from the edge",
            detail={"edge": (edge.a, edge.b)},
        )
    v = u if s > 0 else intmat.vec_scale(-1, u)
    if intmat.vec_dot(v, near) >= 0:
        raise InvariantViolationError(
            "support function is not convex", detail={"edge": (edge.a, edge.b)}
        )
    pos = [(i, v[i]) for i in range(3) if v[i] > 0]
    (i, vi), (j, vj) = pos[0], pos[-1]
    out = list(table)
    column = {}
    for k, m in enumerate(table):
        q = min(m[i] // vi, m[j] // vj)
        if q:
            out[k] = intmat.vec_sub(m, intmat.vec_scale(q, v))
            column[ids[k]] = q
    return tuple(out), column


def test_comparison_scan_matches_the_divide_first_scan():
    """On every crossing, in both directions, the table and the degree
    column equal the divide-first scan's, and the column's keys are
    exactly the ids whose generator differs between the two tables, in
    ascending order: the ids `_moves_checker` checks around."""
    crossings = 0
    trivial = ChartSet(triangulate(build_group("1")))
    for spec, C in _view_chart_sets() + [("1", trivial)]:
        T, ids = C.triangulation, C.group.char_ids()
        tables = [graph.table for graph in C.agraphs]
        for ei in T.interior_edges:
            e = T.edges[ei]
            u = T.lines[e.line].u
            for t1, t2 in (e.triangles, e.triangles[::-1]):
                args = (tables[t1], u, e, _far(T.triangles[t1], ei), _far(T.triangles[t2], ei), ids)
                walked, column = charts._transition_table(*args)
                assert (walked, column) == _divide_first_transition_table(*args), (spec, ei, t1)
                differ = [k for k, m in enumerate(walked) if m != tables[t1][k]]
                assert list(column) == differ, (spec, ei, t1)
                crossings += 1
    assert not trivial.triangulation.interior_edges
    assert crossings > 20000


def test_a_run_keeps_no_table_past_the_walk():
    """The live heap after a full run at |A| = 401 holds the degree columns,
    not |A| tables: 5.4 MB when every table was kept, 2.6 MB without them."""
    tracemalloc.start()
    try:
        art = run_pipeline("1/401(1,7,393)")
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert art.report.passed
    assert live <= 4.0e6, live


def _check_minimality_step(ti, coords, graph):
    """Every generator against every chart coordinate: the oracle of the membership test.

    A generator shifted down by one chart coordinate must leave the
    octant; otherwise a smaller monomial of the same weight exists and
    the triangle cannot have been basic.
    """
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = [
        intmat.vec_sub(den, num) for num, den in coords
    ]
    for m in graph.table:
        x, y, z = m
        if ((x + a0 >= 0 and y + a1 >= 0 and z + a2 >= 0)
                or (x + b0 >= 0 and y + b1 >= 0 and z + b2 >= 0)
                or (x + c0 >= 0 and y + c1 >= 0 and z + c2 >= 0)):
            raise InvariantViolationError(
                "chart generator is not weight-minimal",
                detail={"triangle": ti, "monomial": m},
            )


def _is_weight_minimal(check):
    try:
        check()
    except InvariantViolationError as exc:
        assert str(exc) == "chart generator is not weight-minimal"
        return False
    return True


def test_minimality_membership_test_agrees_with_the_generator_scan():
    """On each chart's own table and on both neighbours' tables across every interior edge."""
    runs, _ = _cyclic_family_runs()
    rejected = 0
    for spec, art in runs.items():
        T, C = art.triangulation, art.charts
        graphs = list(C.agraphs)
        pairs = [(ti, ti) for ti in range(len(T.triangles))]
        for ei in T.interior_edges:
            t1, t2 = T.edges[ei].triangles
            pairs += [(t1, t2), (t2, t1)]
        for ti, tj in pairs:
            coords, graph = C.coords[tj], graphs[ti]
            scan = _is_weight_minimal(lambda: _check_minimality_step(tj, coords, graph))
            member = _is_weight_minimal(lambda: charts._checked_socle(tj, graph.table, coords))
            assert scan == member, (spec, ti, tj)
            assert scan == (ti == tj), (spec, ti, tj)
            rejected += not scan
    assert rejected > 0


def test_table_holding_a_coordinate_numerator_is_not_weight_minimal(monkeypatch):
    """A derived table left equal to its parent's holds a numerator of the new chart."""
    original = charts._transition_table
    built = {0}
    reached = []  # the triangles the walk reaches, in order

    def unmoved(table, u, edge, near, far, chars):
        _, column = original(table, u, edge, near, far, chars)
        if not built.issuperset(edge.triangles):
            tj = next(t for t in edge.triangles if t not in built)
            built.add(tj)
            reached.append(tj)
        return table, column

    monkeypatch.setattr(charts, "_transition_table", unmoved)
    g = build_group("1/11(1,2,8)")
    T = triangulate(g)
    with pytest.raises(InvariantViolationError, match="^chart generator is not weight-minimal$") as err:
        ChartSet(T)
    # the walk's first tree edge leaves triangle 0, and its table is the root's
    tj = reached[0]
    assert len(reached) == 1 and any(0 in e.triangles and tj in e.triangles for e in T.edges)
    root_vertices = T.triangles[0].vertices
    root = build_agraph(g, 0, root_vertices, chart_coords(g, root_vertices))
    coords = chart_coords(g, T.triangles[tj].vertices)
    num = next(n for n, _ in coords if n in root.table)
    assert err.value.detail == {"triangle": tj, "monomial": num}
    with pytest.raises(InvariantViolationError, match="not weight-minimal"):
        _check_minimality_step(tj, coords, AGraph(root.table, root.socle))


def test_full_run_builds_one_heap_table_per_chart_set(monkeypatch):
    calls = []
    original = charts.build_agraph

    def counted(group, tri_index, vertices, coords):
        calls.append(tri_index)
        return original(group, tri_index, vertices, coords)

    monkeypatch.setattr(charts, "build_agraph", counted)
    for spec in ("1/30(25,2,3)", "1/3(1,2,0);1/3(0,1,2)"):
        calls.clear()
        assert run_pipeline(spec).report.passed
        assert calls == [0], spec


@pytest.mark.parametrize("sign", [1, -1])
def test_corrupted_derived_table_fails_decoration(monkeypatch, sign):
    """Shift one generator of the first derived table along its edge ratio."""
    original = charts._transition_table
    corrupted = []

    def corrupt(table, u, edge, near, far, chars):
        out, column = original(table, u, edge, near, far, chars)
        if not corrupted:
            chi = sorted(chars)[1]
            out = _shifted(out, chars.index(chi), tuple(sign * b for b in u))
            # the shifted generator differs from its parent's, so its id is a key of the column
            column = dict(sorted({**column, chi: column.get(chi, 1)}.items()))
            corrupted.append(chi)
        return out, column

    monkeypatch.setattr(charts, "_transition_table", corrupt)
    art = run_pipeline("1/30(25,2,3)", which="recipe")
    failure = art.report.failure
    assert failure is not None and failure["check"] == "decoration"
    assert "triangle" in failure["detail"] or "edge" in failure["detail"]
    assert art.report.checks["decoration"]["status"] == "fail"
    corrupted.clear()
    with pytest.raises(InvariantViolationError):
        ChartSet(triangulate(build_group("1/30(25,2,3)")))


_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_weight_steps_are_inverse_permutations_that_find_neighbours():
    """`up[a]` and `dn[a]` are inverse permutations, and on every table of the
    order-30 family the lookup by weight agrees with set membership."""
    runs, _ = _cyclic_family_runs()
    hits = 0
    for spec, art in runs.items():
        g = art.group
        ids = list(range(g.order))
        up, dn = charts._weight_steps(g)
        for a in range(3):
            assert sorted(up[a]) == ids and [dn[a][j] for j in up[a]] == ids, spec
        for graph in art.charts.agraphs:
            W = graph.table
            members = set(W)
            for k, m in enumerate(W):
                for a, e in enumerate(_UNITS):
                    above, below = intmat.vec_add(m, e), intmat.vec_sub(m, e)
                    assert (W[up[a][k]] == above) == (above in members), (spec, m, a)
                    assert (W[dn[a][k]] == below) == (below in members), (spec, m, a)
                    hits += above in members
    assert hits > 0


def test_moved_generator_check_matches_the_full_check(monkeypatch, run_trivial):
    """Every walked table's socle ids, checked around its moved generators,
    are `_checked_socle`'s on the whole table, and every degree column is
    the one found by comparing the two tables of its edge.  Ids just below
    a moved id, which did not move themselves, both enter and leave the
    socle, so the check's re-decided ids are exercised both ways."""
    made = charts._moves_checker
    compared = []
    entered = left = 0

    def checker(group):
        check = made(group)
        _, dn = charts._weight_steps(group)

        def both(tj, walked, table, column, socle, coords):
            nonlocal entered, left
            got = check(tj, walked, table, column, socle, coords)
            assert got == charts._checked_socle(tj, walked, coords), tj
            compared.append(tj)
            below = {step[k] for step in dn for k in column}.difference(column)
            entered += len(below.difference(socle).intersection(got))
            left += len(below.intersection(socle).difference(got))
            return got

        return both

    chart_sets = _view_chart_sets() + [("1", run_trivial.charts)]
    monkeypatch.setattr(charts, "_moves_checker", checker)
    for spec, built in chart_sets:
        C = ChartSet(built.triangulation)
        assert C._degree == _by_id(C.group, _pairwise_degrees(C)), spec
    # every table but each root is walked across a tree edge
    assert len(compared) == sum(len(C.socle_ids) - 1 for _, C in chart_sets)
    assert entered > 0 and left > 0, (entered, left)


def test_the_walk_crosses_light_edges_first(monkeypatch):
    """The walk's tree keeps to the light edges: at 1/401(1,7,393) its tree
    edges move 6,108 generators, against 21,290 on the breadth-first tree,
    which kept crossing the corner lines of the heavy corner."""
    made = charts._moves_checker
    handed = []

    def checker(group):
        check = made(group)

        def counted(tj, walked, table, column, socle, coords):
            handed.append(len(column))
            return check(tj, walked, table, column, socle, coords)

        return counted

    monkeypatch.setattr(charts, "_moves_checker", checker)
    C = ChartSet(triangulate(build_group("1/401(1,7,393)")))
    assert len(handed) == len(C.socle_ids) - 1
    assert sum(handed) <= 7000, sum(handed)


@pytest.mark.parametrize("spec", ["1/30(25,2,3)", "1/401(1,7,393)", "1/6(1,2,3);1/3(1,1,1)"])
def test_the_walk_crosses_each_interior_edge_once(monkeypatch, spec):
    """One crossing per interior edge: a tree edge from a built triangle to a
    new one, and any other edge from the triangle built last to an earlier
    one, the orientations `relations.verify_all_relations` allows."""
    original = charts._transition_table
    T = triangulate(build_group(spec))
    built = [0]  # the triangles in the order the walk builds them
    crossed = []

    def walk(table, u, edge, near, far, ids):
        t1, t2 = edge.triangles
        ti, tj = (t1, t2) if near in T.triangles[t1].vertices else (t2, t1)
        crossed.append(T.edges.index(edge))
        if tj in built:
            assert ti == built[-1], (ti, tj)
        else:
            assert ti in built, (ti, tj)
            built.append(tj)
        return original(table, u, edge, near, far, ids)

    monkeypatch.setattr(charts, "_transition_table", walk)
    ChartSet(T)
    assert sorted(crossed) == T.interior_edges
    assert sorted(built) == list(range(len(T.triangles)))


def _spoil_first_tree_edge(monkeypatch, spoil):
    """Make the walk's first tree edge that `spoil` can spoil give a spoiled table.

    `spoil(tj, table, out, column, chars)` gets the parent's table
    and what `_transition_table` returned for triangle tj, and returns it
    spoiled, or None to leave this edge alone.  Returns a list that
    receives tj and its spoiled table.
    """
    original = charts._transition_table
    built = {0}
    spoiled = []

    def walk(table, u, edge, near, far, chars):
        out = original(table, u, edge, near, far, chars)
        if built.issuperset(edge.triangles):
            return out
        tj = next(t for t in edge.triangles if t not in built)
        built.add(tj)
        bad = None if spoiled else spoil(tj, table, *out, chars)
        if bad is None:
            return out
        spoiled.append((tj, bad[0]))
        return bad

    monkeypatch.setattr(charts, "_transition_table", walk)
    return spoiled


def _kept(j, table, out, column, chars):
    """The transition with the generator at id j left as the parent's."""
    kept = list(out)
    kept[j] = table[j]
    return tuple(kept), {k: q for k, q in column.items() if k != chars[j]}


def _step_further(tj, table, out, column, chars):
    """A moved generator taken one more unit along the edge, out of the octant."""
    k = next(iter(column))
    q = column[k]
    return _shifted(out, k, tuple((n - m) // q for n, m in zip(out[k], table[k]))), column


def _keep_a_vacated_multiple(tj, table, out, column, chars):
    """A moved generator left as the parent's, where it is a multiple of a
    vacated monomial; its new monomial divides no other, so no new monomial
    misses a divisor."""
    vacated = {table[k] for k in column}
    new = set(out)
    for j in column:
        if (any(intmat.vec_sub(table[j], e) in vacated for e in _UNITS)
                and all(intmat.vec_add(out[j], e) not in new for e in _UNITS)):
            return _kept(j, table, out, column, chars)
    return None


def _keep_every_generator(tj, table, out, column, chars):
    """The parent's table with nothing moved: closed, but holding a numerator
    of the new chart (`test_table_holding_a_coordinate_numerator_is_not_weight_minimal`)."""
    return table, {}


@pytest.mark.parametrize(
    "spec", ["1/11(1,2,8)", "1/30(25,2,3)", "1/101(1,2,98)", "1/6(1,2,3);1/3(1,1,1)"]
)
@pytest.mark.parametrize("spoil, error", [
    (_step_further, "chart basis is not closed under division"),
    (_keep_a_vacated_multiple, "chart basis is not closed under division"),
    (_keep_every_generator, "chart generator is not weight-minimal"),
])
def test_spoiled_tree_edge_fails_as_the_full_check(monkeypatch, spec, spoil, error):
    """A tree edge's table with a missing divisor of a moved generator, a kept
    multiple of a vacated one, or a chart numerator left in it fails with
    `_checked_socle`'s message and detail on that table.  Each spoils the
    part of the check that only it reaches: the divisors of new monomials,
    the multiples of vacated ones, and the minimality lookups."""
    g = build_group(spec)
    T = triangulate(g)
    spoiled = _spoil_first_tree_edge(monkeypatch, spoil)
    with pytest.raises(InvariantViolationError) as got:
        ChartSet(T)
    tj, table = spoiled[0]
    with pytest.raises(InvariantViolationError) as want:
        charts._checked_socle(tj, table, chart_coords(g, T.triangles[tj].vertices))
    assert str(got.value) == str(want.value) == error
    assert got.value.detail == want.value.detail
    assert want.value.detail["triangle"] == tj


def test_moved_ids_that_keep_their_generator_are_reported():
    """A moved id whose slot keeps its generator vacates nothing, so its
    multiples look kept while `_checked_socle` passes the table: the
    check raises itself."""
    C = ChartSet(triangulate(build_group("1/11(1,2,8)")))
    table = C.agraphs[0].table
    members = set(table)
    k = next(k for k, m in enumerate(table) if any(intmat.vec_add(m, e) in members for e in _UNITS))
    check = charts._moves_checker(C.group)
    with pytest.raises(InvariantViolationError) as err:
        check(0, table, table, {k: 1}, C.socle_ids[0], C.coords[0])
    assert str(err.value) == "moved generators do not account for the walked table"
    assert err.value.detail == {"triangle": 0}


_UNREACHABLE_UNDER_O = """
from ahilb.charts import ChartSet
from ahilb.errors import InvariantViolationError
from ahilb.fan import triangulate
from ahilb.group import build_group

T = triangulate(build_group("1/11(1,2,8)"))
for ei in T.triangles[5].edges:
    T.edges[ei].interior = False
try:
    ChartSet(T)
except InvariantViolationError as exc:
    print(exc.detail["triangle"])
"""


def test_unreachable_triangle_is_an_error():
    # the walk crosses no side of triangle 5 once its sides are marked boundary
    T = triangulate(build_group("1/11(1,2,8)"))
    for ei in T.triangles[5].edges:
        T.edges[ei].interior = False
    with pytest.raises(InvariantViolationError, match="not reachable") as err:
        ChartSet(T)
    assert err.value.detail == {"triangle": 5}
    # the same under -O, which would strip an assert
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNREACHABLE_UNDER_O],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "5"


def test_edge_off_its_ratio_is_an_error():
    # triangle 0's lowest interior side, doctored so that its second end leaves the edge's line
    T = triangulate(build_group("1/11(1,2,8)"))
    tri = T.triangles[0]
    ei = min(ei for ei in tri.edges if T.edges[ei].interior)
    e = T.edges[ei]
    e.b = _far(tri, ei)
    with pytest.raises(InvariantViolationError) as err:
        ChartSet(T)
    assert str(err.value) == "edge ratio does not separate the far vertex from the edge"
    assert err.value.detail == {"edge": (e.a, _far(tri, ei))}
