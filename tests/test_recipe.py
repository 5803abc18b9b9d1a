import pytest

from ahilb.errors import InvariantViolationError
from ahilb.group import MONO_ONE
from ahilb.pipeline import run_pipeline
from ahilb.recipe import (
    CASE_DP6,
    champion_identities,
    corner_region_characters,
    hexagon_position,
    mark_vertex,
    projection_pair,
)
from conftest import chi


def test_line_marks_11(run11):
    g, T, D = run11.group, run11.triangulation, run11.decoration
    # the three lines at the valency-3 vertex are all marked chi_2
    v = (3, 6, 2)
    vm = D.vertex_marks[v]
    assert vm.valency == 3 and vm.case == "P2"
    assert list(vm.through) == [chi(g, 2)]
    assert vm.marks == (chi(g, 4),)


def test_valency4_mark_11(run11):
    g, D = run11.group, run11.decoration
    vm = D.vertex_marks[(1, 2, 8)]
    assert vm.valency == 4 and vm.case == "scroll"
    assert set(vm.through) == {chi(g, 2), chi(g, 8)}
    assert vm.marks == (chi(g, 10),)


def test_partition_11(run11):
    g, D = run11.group, run11.decoration
    lab = lambda cs: sorted(g.char_label_index(c) for c in cs)
    assert lab(D.partition["line"]) == [1, 2, 5, 6, 8]
    assert lab(D.partition["vertex"]) == [3, 4, 7, 9, 10]
    assert D.partition["second"] == []


def test_boundary_lines_unmarked(run11):
    T, D = run11.triangulation, run11.decoration
    for li, ln in enumerate(T.lines):
        assert (ln.kind == "boundary") == (li not in D.line_marks)


def mark_iii(vm):
    """The type-iii mark of a triple intersection, None at any other vertex."""
    return vm.marks[0] if vm.case == CASE_DP6 else None


def test_dp6_marks_30(run30):
    g, D = run30.group, run30.decoration
    dp6 = [vm for vm in D.vertex_marks.values() if vm.case == CASE_DP6]
    assert len(dp6) == 2
    target = next(
        vm for vm in dp6 if set(vm.through) == {chi(g, 4), chi(g, 5), chi(g, 12)}
    )
    assert set(target.marks) == {chi(g, 7), chi(g, 14)}
    # the character sum identity at the triple intersection
    assert g.char_sum(target.marks) == g.char_sum(list(target.through))
    # under the lex tie-break on canonical representatives, chi_14 = (0,1,4)
    # stays in the degree-2 basis and chi_7 = (0,2,1) indexes the bundle
    assert mark_iii(target) == chi(g, 14)
    assert target.mark_ii() == chi(g, 7)


def test_dp6_split_in_partition(run30):
    g, D = run30.group, run30.decoration
    assert chi(g, 14) in D.partition["second"]
    assert chi(g, 7) in D.partition["vertex"]


def test_dp6_socle_equals_projection(run30):
    T, C, D = run30.triangulation, run30.charts, run30.decoration
    for v, vm in D.vertex_marks.items():
        if vm.case == CASE_DP6:
            assert projection_pair(T, C, v) == tuple(sorted(vm.marks))


def test_dp6_detection_is_three_straight_lines(run30):
    T, D = run30.triangulation, run30.decoration
    for vm in D.vertex_marks.values():
        straight = vm.valency == 6 and all(
            len(eis) == 2 and len({T.edges[ei].line for ei in eis}) == 1
            for eis in vm.through.values()
        )
        assert (vm.case == CASE_DP6) == straight


def test_every_character_once(run30):
    g, D = run30.group, run30.decoration
    seen = (
        list(D.partition["line"]) + list(D.partition["vertex"]) + list(D.partition["second"])
    )
    assert len(seen) == len(set(seen)) == g.order - 1
    assert g.reduce(MONO_ONE) not in seen


def test_partition_trivial(run_trivial):
    D = run_trivial.decoration
    assert D.partition == {"line": [], "vertex": [], "second": []}
    assert D.vertex_marks == {}


def test_valency5_has_distinct_fifth_line(run11):
    g, D = run11.group, run11.decoration
    for vm in D.vertex_marks.values():
        if vm.valency == 5:
            singles = [c for c, eis in vm.through.items() if len(eis) == 1]
            pairs = [c for c, eis in vm.through.items() if len(eis) == 2]
            assert len(singles) == 1 and len(pairs) == 2
            assert singles[0] not in pairs


def test_corner_region_characters_match_decoration(run11, run30):
    for art in (run11, run30):
        g, T, D = art.group, art.triangulation, art.decoration
        trivial = g.reduce(MONO_ONE)
        for ri, reg in enumerate(T.regular_triangles):
            if reg.kind != "corner":
                champion_identities(T, ri)
                continue
            region = set(corner_region_characters(T, ri))
            assert len(corner_region_characters(T, ri)) == (reg.side + 1) ** 2 + reg.side + 1
            tris = [ti for ti, t in enumerate(T.triangles) if t.regular == ri]
            edge_at = {(e.a, e.b): e for e in T.edges}
            verts, linechars = set(), set()
            for ti in tris:
                t = T.triangles[ti]
                verts.update(t.vertices)
                for i in range(3):
                    key = tuple(sorted((t.vertices[i], t.vertices[(i + 1) % 3])))
                    e = edge_at[key]
                    linechars.add(T.lines[e.line].character)
            marks = set()
            for v in verts:
                if v in D.vertex_marks:
                    marks.update(D.vertex_marks[v].marks)
            assert region == linechars | marks | {trivial}


def test_corner_region_side1_grid():
    # smallest case: a side-1 corner triangle lists the 2x2 monomial grid
    art = run_pipeline("1/2(1,1,0)", which="fan")
    T = art.triangulation
    reg = next(i for i, r in enumerate(T.regular_triangles) if r.kind == "corner")
    chars = corner_region_characters(T, reg)
    assert len(chars) == 6  # (r+1)^2 + (r+1) entries with repeats as weights


def test_corner_region_requires_corner_kind():
    art = run_pipeline("1/7(1,2,4)", which="fan")
    T = art.triangulation
    champ = next(i for i, r in enumerate(T.regular_triangles) if r.kind == "champion")
    with pytest.raises(InvariantViolationError):
        corner_region_characters(T, champ)


def test_quiver_embedding_counts(run11, run30, run_trivial):
    for art in (run11, run30, run_trivial):
        g, Q = art.group, art.quiver
        assert len(Q.placements) == g.order
        positions = {hexagon_position(m) for m in Q.placements.values()}
        assert len(positions) == g.order


def test_quiver_trivial(run_trivial):
    assert run_trivial.quiver.placements == {(0, 0, 0): (0, 0, 0)}


def test_quiver_tiles_plane():
    """Translating the domain by invariant vectors covers each cell once.

    A translate of placement m lands on the cell of a Laurent exponent w
    exactly when w - m is invariant (multiples of xyz move within a cell),
    so exhaustively checking a window of cells amounts to one weight
    comparison per (cell, placement) pair.
    """
    for spec in ["1/7(1,2,4)", "1/11(1,2,8)", "1/3(1,2,0);1/3(0,1,2)"]:
        art = run_pipeline(spec)
        g, Q = art.group, art.quiver
        for x in range(-5, 6):
            for y in range(-5, 6):
                w = (x, y, 0)
                covering = [
                    m for m in Q.placements.values() if g.weight(m) == g.weight(w)
                ]
                assert len(covering) == 1


def test_mark_vertex_rejects_boundary(run11):
    T, C = run11.triangulation, run11.charts
    vmap = {}
    for ei, e in enumerate(T.edges):
        vmap.setdefault(e.a, []).append(ei)
        vmap.setdefault(e.b, []).append(ei)
    boundary_vertex = next(p for p in T.boundary_vertices() if min(p) == 0)
    with pytest.raises(InvariantViolationError):
        mark_vertex(T, C, boundary_vertex, vmap[boundary_vertex][:3])
