import copy
import functools
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from ahilb import intmat, pipeline
from ahilb.errors import CorrespondenceError, InvariantViolationError
from ahilb.fan import line_ratio, simplex_corners, triangulate
from ahilb.group import MONO_ONE, build_group
from ahilb.pipeline import run_pipeline
from ahilb.recipe import (
    CASE_DP6,
    _check_embedding,
    _side_ratios,
    champion_identities,
    corner_region_characters,
    hexagon_position,
    mark_lines,
    mark_vertex,
    projection_pair,
    quiver_embedding,
)
from ahilb.relations import Relation
from conftest import chi, replaced
from test_acceptance import _cyclic_family_runs
from test_fan import _differential_specs
from test_group import _SWEEP_PRODUCTS


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
    T, D = run30.triangulation, run30.decoration
    for v, vm in D.vertex_marks.items():
        if vm.case == CASE_DP6:
            assert projection_pair(T, v) == tuple(sorted(vm.marks))


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
    with pytest.raises(InvariantViolationError, match="not a corner triangle") as exc:
        corner_region_characters(T, champ)
    assert exc.value.detail == {"regular": champ, "kind": "champion"}


# ---------------------------------------------------------------------------
# the side-ratio identity, against the two case analyses it replaced


def _oracle_corner_region_characters(triangulation, regular_index):
    """The corner-frame search: both frames tried, the far side's pure power found."""
    T = triangulation
    g = T.group
    reg = T.regular_triangles[regular_index]
    if reg.kind != "corner":
        raise InvariantViolationError("character rectangle needs a corner triangle")
    corner = reg.corner
    Ec = simplex_corners(g.order)[corner]
    side_lines = []
    for i in range(3):
        p, q = reg.vertices[i], reg.vertices[(i + 1) % 3]
        u, plus, minus = line_ratio(g, p, q)
        side_lines.append((frozenset((p, q)), u, plus, minus))
    through = [sl for sl in side_lines if Ec in sl[0]]
    across = [sl for sl in side_lines if Ec not in sl[0]]
    if len(through) != 2 or len(across) != 1:
        raise InvariantViolationError("corner triangle sides are mislabeled")

    others = [i for i in range(3) if i != corner]
    _, _, plus3, minus3 = across[0]
    for m_pure, m_other in ((plus3, minus3), (minus3, plus3)):
        if m_pure[corner] and all(m_pure[i] == 0 for i in others):
            break
    else:
        raise InvariantViolationError("far side of corner triangle has no pure power")
    f = m_pure[corner]
    support = [i for i in others if m_other[i]]
    if len(support) > 1 or m_other[corner]:
        raise InvariantViolationError("far side mixes both non-corner variables")
    r = reg.side

    def try_frame(xvar, yvar):
        c = m_other[yvar]
        if support and support[0] != yvar:
            return None
        exps = []
        for _, _, plus, minus in through:
            exps.append((plus[xvar] + minus[xvar], plus[yvar] + minus[yvar]))
        exps.sort()
        (a, e), (d, b) = exps
        if d - a == e - b - c == f == r:
            return a, b, c, d, e, xvar
        return None

    frame = try_frame(others[0], others[1]) or try_frame(others[1], others[0])
    if frame is None:
        raise InvariantViolationError("corner triangle violates the side-ratio identities")
    a, b, c, d, e, xvar = frame

    def mono(xe, ze):
        m = [0, 0, 0]
        m[xvar] = xe
        m[corner] = ze
        return tuple(m)

    chars = []
    for k in range(r + 1):
        chars.append(g.weight(mono(0, f - k)))
        for i in range(r + 1):
            chars.append(g.weight(mono(d - i, f - k)))
    return chars


def _oracle_champion_identities(triangulation, regular_index):
    """The variable-pair dictionary: cyclic exponent differences all +r or all -r."""
    T = triangulation
    g = T.group
    reg = T.regular_triangles[regular_index]
    if reg.kind != "champion":
        raise InvariantViolationError("not a meeting of champions")
    by_pair = {}
    for i in range(3):
        p, q = reg.vertices[i], reg.vertices[(i + 1) % 3]
        _, plus, minus = line_ratio(g, p, q)
        exps = tuple(plus[j] + minus[j] for j in range(3))
        sup = frozenset(j for j in range(3) if exps[j])
        if len(sup) != 2 or sup in by_pair:
            raise InvariantViolationError("champion sides are not two-variable ratios")
        by_pair[sup] = exps
    if set(by_pair) != {frozenset((0, 1)), frozenset((1, 2)), frozenset((0, 2))}:
        raise InvariantViolationError("champion sides do not cover the variable pairs")
    r = reg.side
    xy, yz, zx = (by_pair[frozenset(p)] for p in ((0, 1), (1, 2), (0, 2)))
    diffs = (xy[0] - zx[0], yz[1] - xy[1], zx[2] - yz[2])
    if not (diffs == (r, r, r) or diffs == (-r, -r, -r)):
        raise InvariantViolationError("champion triangle violates the cyclic side identities")
    return True


def _outcome(fn, T, regular_index):
    try:
        return fn(T, regular_index)
    except InvariantViolationError:
        return "raises"


def _assert_agrees_with_oracle(T, regular_index, label):
    for new, old in (
        (corner_region_characters, _oracle_corner_region_characters),
        (champion_identities, _oracle_champion_identities),
    ):
        assert _outcome(new, T, regular_index) == _outcome(old, T, regular_index), (label, new)


@functools.cache
def _triangulation(spec):
    return triangulate(build_group(spec))


def test_side_ratios_agree_with_the_case_analyses():
    """Both functions, on every regular triangle of the fan's differential specs."""
    kinds = set()
    for spec in _differential_specs():
        T = _triangulation(spec)
        for ri, reg in enumerate(T.regular_triangles):
            _assert_agrees_with_oracle(T, ri, (spec, ri))
            kinds.add(reg.kind)
    assert kinds == {"corner", "champion"}


def test_side_ratios_are_the_line_ratios_of_the_sides():
    """Read off the line table, each equals `line_ratio` signed at the opposite vertex."""
    sides = 0
    for spec in _differential_specs():
        T = _triangulation(spec)
        for ri, reg in enumerate(T.regular_triangles):
            v = reg.vertices
            want = []
            for p, q, opposite in zip(v, v[1:] + v[:1], v[2:] + v[:2]):
                u = line_ratio(T.group, p, q)[0]
                want.append(u if sum(a * b for a, b in zip(u, opposite)) > 0
                            else tuple(-x for x in u))
            assert _side_ratios(T, ri, reg.kind) == want, (spec, ri)
            sides += 3
    assert sides > 3000


def _with_regular(T, regular_index, **changes):
    """T's group, regular triangles and edge index, with one regular triangle changed."""
    regs = list(T.regular_triangles)
    regs[regular_index] = replaced(regs[regular_index], **changes)
    return SimpleNamespace(group=T.group, regular_triangles=regs, edges=T.edges,
                           lines=T.lines, vertex_edges=T.vertex_edges)


def _doctoring(rng, T, reg):
    """Changes to reg: its side, one vertex moved to another fan point, or its kind swapped."""
    how = rng.choice(["side", "vertex", "kind"])
    if how == "side":
        return {"side": reg.side + rng.choice([-1, 1, 2])}
    if how == "vertex":
        i = rng.randrange(3)
        verts = list(reg.vertices)
        verts[i] = rng.choice([p for p in T.points if p != verts[i]])
        return {"vertices": tuple(verts)}
    if reg.kind == "corner":
        return {"kind": "champion", "corner": None}
    return {"kind": "corner", "corner": rng.randrange(3)}


def test_side_ratios_reject_what_the_case_analyses_reject():
    """Seeded doctored regular triangles: both paths raise on the same ones."""
    rng = random.Random(0)
    specs = _differential_specs()
    outcomes = set()
    for _ in range(3000):
        T = _triangulation(rng.choice(specs))
        ri = rng.randrange(len(T.regular_triangles))
        fake = _with_regular(T, ri, **_doctoring(rng, T, T.regular_triangles[ri]))
        _assert_agrees_with_oracle(fake, ri, (T.group.order, fake.regular_triangles[ri]))
        outcomes.add(_outcome(corner_region_characters, fake, ri) == "raises")
    assert outcomes == {True, False}


def test_champion_identities_require_champion_kind():
    T = _triangulation("1/7(1,2,4)")
    assert T.regular_triangles[0].kind == "corner"
    with pytest.raises(InvariantViolationError, match="not a champion triangle") as exc:
        champion_identities(T, 0)
    assert exc.value.detail == {"regular": 0, "kind": "corner"}


def test_corner_triangle_without_its_corner_is_rejected():
    T = _triangulation("1/7(1,2,4)")
    assert T.regular_triangles[0].corner == 1  # the corner (0, 7, 0); (7, 0, 0) is no vertex
    with pytest.raises(InvariantViolationError, match="without its corner") as exc:
        corner_region_characters(_with_regular(T, 0, corner=0), 0)
    assert exc.value.detail == {"regular": 0, "corner": 0}


def test_side_off_the_corner_lines_is_rejected():
    T = _triangulation("1/11(1,2,8)")
    reg = T.regular_triangles[4]
    assert reg.vertices == ((0, 11, 0), (2, 4, 5), (3, 6, 2))
    # (2,4,5)-(6,1,4) lies on x y^2 = z^2, which passes through no simplex corner
    moved = _with_regular(T, 4, vertices=((0, 11, 0), (2, 4, 5), (6, 1, 4)))
    with pytest.raises(InvariantViolationError, match="no line from a simplex corner") as exc:
        corner_region_characters(moved, 4)
    assert exc.value.detail == {"regular": 4, "side": ((2, 4, 5), (6, 1, 4)), "ratio": (1, 2, -2)}


def test_side_along_no_edge_is_rejected():
    T = _triangulation("1/11(1,2,8)")
    assert T.regular_triangles[2].vertices == ((0, 0, 11), (11, 0, 0), (6, 1, 4))
    # no edge at (7, 3, 1) lies on a line through (0, 0, 11)
    moved = _with_regular(T, 2, vertices=((0, 0, 11), (11, 0, 0), (7, 3, 1)))
    with pytest.raises(InvariantViolationError, match="^side of a regular triangle along no edge$") as exc:
        corner_region_characters(moved, 2)
    assert exc.value.detail == {"regular": 2, "side": ((7, 3, 1), (0, 0, 11))}


def test_champion_sides_from_one_corner_are_rejected():
    T = _triangulation("1/7(1,2,4)")
    swapped = _with_regular(T, 0, kind="champion", corner=None)
    with pytest.raises(InvariantViolationError, match="three different corners") as exc:
        champion_identities(swapped, 0)
    assert exc.value.detail["regular"] == 0
    assert [u.count(0) for u in exc.value.detail["ratios"]] == [1, 1, 2]


def test_side_ratios_off_r_are_rejected():
    T = _triangulation("1/11(1,2,8)")
    assert T.regular_triangles[7].side == 2
    with pytest.raises(InvariantViolationError, match=r"do not sum to r\(1,1,1\)") as exc:
        corner_region_characters(_with_regular(T, 7, side=3), 7)
    assert exc.value.detail == {"regular": 7, "r": 3, "sum": (2, 2, 2)}


def test_wrong_regular_side_fails_the_ratios_check(monkeypatch):
    real_triangulate = pipeline.triangulate

    def lengthened(group):
        T = real_triangulate(group)
        T.regular_triangles[7] = replaced(T.regular_triangles[7], side=3)
        return T

    monkeypatch.setattr(pipeline, "triangulate", lengthened)
    art = run_pipeline("1/11(1,2,8)", which="fan")
    failure = art.report.failure
    assert failure["check"] == "ratios"
    assert failure["error"] == "side ratios of a regular triangle do not sum to r(1,1,1)"
    assert failure["detail"] == {"regular": 7, "r": 3, "sum": (2, 2, 2)}
    assert art.report.checks["basic"]["status"] == "pass"
    assert art.report.checks["ratios"]["status"] == "fail"


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
    boundary_vertex = next(p for p in T.boundary_vertices if min(p) == 0)
    with pytest.raises(InvariantViolationError):
        mark_vertex(T, C, boundary_vertex, vmap[boundary_vertex][:3])


# ---------------------------------------------------------------------------
# negative controls of the quiver domain checks


def _placements(spec):
    art = run_pipeline(spec, which="recipe")
    return art.group, dict(art.quiver.placements)


def test_quiver_domain_with_a_missing_hexagon_is_rejected():
    g, placements = _placements("1/11(1,2,8)")
    placements.pop(g.characters()[3])
    with pytest.raises(CorrespondenceError) as err:
        _check_embedding(g, placements)
    assert str(err.value) == "quiver domain does not have |A| hexagons"
    assert err.value.detail == {"hexagons": 10, "order": 11}


def test_quiver_representative_of_another_weight_is_rejected():
    g, placements = _placements("1/11(1,2,8)")
    a, b = g.characters()[1:3]
    placements[a], placements[b] = placements[b], placements[a]
    with pytest.raises(CorrespondenceError) as err:
        _check_embedding(g, placements)
    assert str(err.value) == "quiver representative has the wrong weight"
    assert err.value.detail == {"character": a, "monomial": placements[a]}


def test_disconnected_quiver_domain_is_rejected():
    # one representative moved by the invariant x^55: same weight, far from the rest
    g, placements = _placements("1/11(1,2,8)")
    chi = g.characters()[5]
    placements[chi] = moved = (placements[chi][0] + 55, *placements[chi][1:])
    cells = sorted(hexagon_position(m) for m in placements.values())
    with pytest.raises(CorrespondenceError) as err:
        _check_embedding(g, placements)
    assert str(err.value) == "quiver fundamental domain is disconnected"
    assert err.value.detail == {"start": cells[0], "unreached": [hexagon_position(moved)]}


# ---------------------------------------------------------------------------
# the case table and the quiver chart, against the searches they replaced


def _oracle_relations(triangulation, decoration):
    """The relations rebuilt from each vertex's case, valency and through-lines."""
    g = triangulation.group
    out = []
    for v in sorted(decoration.vertex_marks):
        vm = decoration.vertex_marks[v]
        through = sorted(vm.through)
        if vm.case == CASE_DP6:
            lhs, rhs = tuple(sorted(vm.marks)), tuple(through)
        else:
            if vm.valency == 3:
                rhs = (through[0], through[0])
            else:
                rhs = tuple(sorted(c for c, eis in vm.through.items() if len(eis) == 2))
            # the mark by valency: twice the P2 character, else the two pairs' sum
            lhs = (g.reduce(tuple(map(sum, zip(*rhs)))),)
        out.append(Relation(v, vm.case_number, lhs, rhs))
    return out


def _oracle_in_triangle_2d(p, verts):
    """Whether p lies in the closed triangle verts, of either orientation."""
    sgn = 0
    for i in range(3):
        a, b = verts[i], verts[(i + 1) % 3]
        c = intmat.cross2(intmat.vec_sub(b, a), intmat.vec_sub(p, a))
        if c == 0:
            continue
        s = 1 if c > 0 else -1
        if sgn == 0:
            sgn = s
        elif s != sgn:
            return False
    return True


def _oracle_quiver_chart(T):
    """The first triangle whose plane projection contains the barycentre's."""
    bc = (T.group.order, T.group.order)  # barycentre scaled by 3
    return next(ti for ti, tri in enumerate(T.triangles)
                if _oracle_in_triangle_2d(bc, [(3 * p[0], 3 * p[1]) for p in tri.vertices]))


@functools.cache
def _relations_runs():
    """The cached family runs, the seed-0 sweep products and 1/401(1,7,393)."""
    runs, _ = _cyclic_family_runs()
    extra = {spec: run_pipeline(spec, which="relations")
             for spec in _SWEEP_PRODUCTS + ["1/401(1,7,393)"]}
    return {**runs, **extra}


def test_relations_and_quiver_chart_match_the_oracles():
    cases = Counter()
    for spec, art in _relations_runs().items():
        T, D = art.triangulation, art.decoration
        assert art.relations == _oracle_relations(T, D), spec
        assert art.quiver.chart == _oracle_quiver_chart(T), spec
        cases.update(vm.case for vm in D.vertex_marks.values())
    assert set(cases) == {"P2", "scroll", "blownup_scroll", "dP6"}


def _with_lines(T, **changes):
    """A copy of T whose line li gets the field values changes[...][li]."""
    fake = copy.copy(T)
    fake.lines = list(T.lines)
    for field, by_line in changes.items():
        for li, value in by_line.items():
            fake.lines[li] = replaced(fake.lines[li], **{field: value})
    return fake


@pytest.mark.parametrize(
    "run, vertex, characters, valency, message, pattern",
    [
        # one of the three chi_2 lines at the P2 vertex remarked chi_1
        ("run11", (3, 6, 2), {10: 1}, 3,
         "valency-3 vertex whose three lines are not equally marked", (1, 2)),
        # one chi_8 line at the scroll vertex remarked chi_5
        ("run11", (1, 2, 8), {12: 5}, 4, "valency-4 vertex without two marked pairs", (1, 1, 2)),
        # the single chi_6 line at a blown-up scroll vertex remarked chi_2
        ("run11", (2, 4, 5), {5: 2}, 5, "valency-5 vertex without two marked pairs", (2, 3)),
        # the single chi_18 line remarked chi_10, which already marks a pair
        ("run30", (5, 4, 21), {13: 10}, 6, "valency-6 vertex matching no marking case", (1, 2, 3)),
        # the single chi_18 line remarked chi_5, the other single: pairs not straight
        ("run30", (5, 4, 21), {13: 5}, 6, "valency-6 vertex matching no marking case", (2, 2, 2)),
        # two of the P2 vertex's edges
        ("run11", (3, 6, 2), {}, 2, "interior vertex of valency 2", (2,)),
    ],
)
def test_a_vertex_matching_no_case_is_named(request, run, vertex, characters, valency,
                                            message, pattern):
    art = request.getfixturevalue(run)
    T, g = art.triangulation, art.group
    fake = _with_lines(T, character={li: chi(g, k) for li, k in characters.items()})
    with pytest.raises(InvariantViolationError) as err:
        mark_vertex(fake, art.charts, vertex, T.vertex_edges[vertex][:valency])
    assert str(err.value) == message
    assert err.value.detail == {"vertex": vertex, "pattern": pattern}


def test_a_trivially_marked_line_is_named(run11):
    T = run11.triangulation
    li = next(li for li, ln in enumerate(T.lines) if ln.kind != "boundary")
    with pytest.raises(InvariantViolationError) as err:
        mark_lines(_with_lines(T, character={li: T.group.reduce(MONO_ONE)}))
    assert str(err.value) == "an interior line carries the trivial character"
    assert err.value.detail == {"line": li}


def test_lines_of_one_character_apart_are_named(run30):
    # two lines whose characters mark no other line, and which share no point
    T = run30.triangulation
    alone = [li for li, ln in enumerate(T.lines) if ln.kind != "boundary"
             and sum(other.character == ln.character for other in T.lines) == 1]
    points = {li: {p for ei in T.lines[li].edges for p in (T.edges[ei].a, T.edges[ei].b)}
              for li in alone}
    a, b = next((a, b) for a in alone for b in alone if a < b and not points[a] & points[b])
    chi_a = T.lines[a].character
    with pytest.raises(CorrespondenceError) as err:
        mark_lines(_with_lines(T, character={b: chi_a}))
    assert str(err.value) == "lines with one character do not form a single through-line"
    assert err.value.detail == {"character": chi_a, "lines": [a, b]}


def _dp6_lines(art):
    """A dP6 vertex and its three lines, ascending."""
    T = art.triangulation
    v = next(v for v, vm in art.decoration.vertex_marks.items() if vm.case == CASE_DP6)
    return v, sorted({T.edges[ei].line for ei in T.vertex_edges[v]})


def test_a_straight_line_without_a_pure_side_is_named(run30):
    T = run30.triangulation
    v, (first, *_) = _dp6_lines(run30)
    fake = _with_lines(T, plus={first: (1, 1, 0)}, minus={first: (0, 1, 1)})
    with pytest.raises(InvariantViolationError) as err:
        projection_pair(fake, v)
    assert str(err.value) == "straight line without a pure ratio side"
    assert err.value.detail == {"vertex": v, "line": first}


def test_two_lines_with_one_pure_variable_are_named(run30):
    T = run30.triangulation
    v, (first, second, _) = _dp6_lines(run30)
    ln = T.lines[first]
    pure = ln.plus if sum(map(bool, ln.plus)) == 1 else ln.minus
    fake = _with_lines(T, plus={second: pure}, minus={second: (1, 1, 1)})
    with pytest.raises(InvariantViolationError) as err:
        projection_pair(fake, v)
    assert str(err.value) == "two lines share a pure variable"
    assert err.value.detail == {"vertex": v, "line": second,
                                "variable": next(i for i in range(3) if pure[i])}


def test_charts_missing_the_barycentre_are_named(run11):
    # the charts left once every one containing the barycentre is dropped
    C = copy.copy(run11.charts)
    C.coords = [c for c in C.coords if any(sum(num) < sum(den) for num, den in c)]
    with pytest.raises(InvariantViolationError) as err:
        quiver_embedding(C)
    assert str(err.value) == "no chart contains the barycentre"
    assert err.value.detail == {"order": 11, "charts": len(C.coords)}
