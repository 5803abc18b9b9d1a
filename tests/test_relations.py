import itertools
import random

import pytest

from ahilb import pipeline
from ahilb.errors import CorrespondenceError, InvariantViolationError
from ahilb.group import MONO_ONE
from ahilb.pipeline import run_pipeline
from ahilb.relations import (
    Relation,
    check_bundle_degrees,
    completeness_check,
    derive_relations,
    verify_all_relations,
)
from conftest import chi, replaced, verify_relation_chartwise
from test_cohomology import DIFFERENTIAL_SPECS


def rel_set(art):
    g = art.group
    lab = lambda cs: tuple(sorted(g.char_label_index(c) for c in cs))
    return {(r.case, lab(r.lhs), lab(r.rhs)) for r in art.relations}


def test_relations_11(run11):
    rels = rel_set(run11)
    assert (1, (4,), (2, 2)) in rels          # R4 = R2 (x) R2 at the valency-3 vertex
    assert (2, (10,), (2, 8)) in rels         # R10 = R2 (x) R8 at the valency-4 vertex
    assert len(run11.relations) == 5
    assert all(case in (1, 2, 3) for case, _, _ in rels)


def test_relations_30_dp6(run30):
    rels = rel_set(run30)
    assert (4, (7, 14), (4, 5, 12)) in rels   # R7 (x) R14 = R4 (x) R5 (x) R12


def test_chartwise_verification(run11, run30):
    for art in (run11, run30):
        assert verify_all_relations(art.charts, art.relations)


def test_character_sums_balance(run30):
    g = run30.group
    for r in run30.relations:
        assert g.char_sum(r.lhs) == g.char_sum(r.rhs)


def test_dp6_marks_off_the_line_sum_are_named(run30):
    """The `relations` stage alone checks that a triple intersection's marks sum right."""
    T, D = run30.triangulation, run30.decoration
    v = next(v for v, vm in D.vertex_marks.items() if vm.case == "dP6")
    vm = D.vertex_marks[v]
    doctored = replaced(D, vertex_marks={
        **D.vertex_marks, v: replaced(vm, marks=(vm.marks[0], vm.marks[0]))})
    with pytest.raises(InvariantViolationError) as err:
        derive_relations(T, doctored)
    assert str(err.value) == "relation sides have different character sums"
    assert err.value.detail == {"vertex": v}


def test_trivial_relation_verifies(run11):
    g = run11.group
    triv = g.reduce(MONO_ONE)
    rel = Relation((0, 0, 0), 1, (triv,), (triv,))
    ok, witness = verify_relation_chartwise(run11.charts, rel)
    assert ok and witness is None


def test_perturbed_relation_fails_with_witness(run11):
    g = run11.group
    good = next(r for r in run11.relations if r.case == 1)
    bad = Relation(good.vertex, good.case, (chi(g, 5),), good.rhs)
    ok, witness = verify_relation_chartwise(run11.charts, bad)
    assert not ok
    assert witness is not None and 0 <= witness < len(run11.triangulation.triangles)
    with pytest.raises(CorrespondenceError) as err:
        verify_all_relations(run11.charts, [bad])
    assert "witness_triangle" in err.value.detail


# -- the two halves of the `relations` stage against the chartwise oracle


def _halves(charts, rel):
    """Whether `rel` passes the root-chart half and the degree-row half."""
    out = []
    for check in (verify_all_relations, check_bundle_degrees):
        try:
            check(charts, [rel])
        except (CorrespondenceError, InvariantViolationError):
            out.append(False)
        else:
            out.append(True)
    return tuple(out)


def _monomial(g, table, chars):
    return tuple(map(sum, zip(*(table[g.char_id(c)] for c in chars))))


def _seeded_relations(art, rng, count):
    """Relations with equal character sums: random ones, and ones true on triangle 0."""
    g = art.group
    chars = g.characters()
    root = art.charts.agraphs[0].table
    out = []
    for _ in range(count):
        lhs = tuple(rng.choice(chars) for _ in range(rng.randint(1, 2)))
        rest = tuple(rng.choice(chars) for _ in range(rng.randint(0, 2)))
        last = next(c for c in chars if g.char_sum(rest + (c,)) == g.char_sum(lhs))
        out.append(Relation((0, 0, 0), 1, lhs, rest + (last,)))
    # two pairs with one product on triangle 0 have equal character sums too
    by_product = {}
    for pair in itertools.combinations_with_replacement(chars, 2):
        by_product.setdefault(_monomial(g, root, pair), []).append(pair)
    shared = [pairs for pairs in by_product.values() if len(pairs) > 1]
    for _ in range(count if shared else 0):
        lhs, rhs = rng.sample(rng.choice(shared), 2)
        out.append(Relation((0, 0, 0), 2, lhs, rhs))
    return out


def test_stage_halves_accept_exactly_what_the_chartwise_oracle_accepts():
    rng = random.Random(14)
    rows_only = 0
    for spec in DIFFERENTIAL_SPECS:
        art = run_pipeline(spec, which="relations")
        g, C = art.group, art.charts
        for rel in art.relations:
            assert _halves(C, rel) == (True, True)
            assert verify_relation_chartwise(C, rel) == (True, None)
        for rel in _seeded_relations(art, rng, 150):
            assert g.char_sum(rel.lhs) == g.char_sum(rel.rhs)
            root_ok, rows_ok = _halves(C, rel)
            ok, _ = verify_relation_chartwise(C, rel)
            assert ok == (root_ok and rows_ok), (spec, rel)
            rows_only += root_ok and not rows_ok
    assert rows_only > 0


def _doctored_run(monkeypatch, spec, pick):
    """Run `relations` on `spec` with one relation chosen by `pick(art, first_real)`."""
    art = run_pipeline(spec, which="recipe")
    real = pipeline.derive_relations(art.triangulation, art.decoration)
    doctored = pick(art, real[0])
    monkeypatch.setattr(pipeline, "derive_relations", lambda T, D: [doctored])
    return doctored, run_pipeline(spec, which="relations")


def test_relation_broken_on_the_root_chart_names_triangle_0(monkeypatch):
    def pick(art, real):
        g, root = art.group, art.charts.agraphs[0].table
        for lhs, rhs in itertools.combinations(
            itertools.combinations(g.characters(), 2), 2
        ):
            if g.char_sum(lhs) == g.char_sum(rhs) and _monomial(g, root, lhs) != _monomial(g, root, rhs):
                return Relation(real.vertex, real.case, lhs, rhs)

    rel, art = _doctored_run(monkeypatch, "1/30(25,2,3)", pick)
    assert verify_relation_chartwise(art.charts, rel) == (False, 0)
    assert art.report.failure == {
        "check": "relations",
        "error": "relation fails on a chart",
        "detail": {"vertex": rel.vertex, "witness_triangle": 0},
    }


def test_relation_broken_off_the_root_chart_names_a_curve(monkeypatch):
    def pick(art, real):
        g, C = art.group, art.charts
        root = C.agraphs[0].table
        for lhs, rhs in itertools.combinations(
            itertools.combinations(g.characters(), 2), 2
        ):
            if _monomial(g, root, lhs) == _monomial(g, root, rhs):
                rel = Relation(real.vertex, real.case, lhs, rhs)
                if not verify_relation_chartwise(C, rel)[0]:
                    return rel

    rel, art = _doctored_run(monkeypatch, "1/30(25,2,3)", pick)
    g, T, C = art.group, art.triangulation, art.charts
    assert g.char_sum(rel.lhs) == g.char_sum(rel.rhs)
    ok, witness = verify_relation_chartwise(C, rel)
    assert not ok and witness > 0

    def gap(ti):  # lhs minus rhs exponents on one chart
        table = C.agraphs[ti].table
        lhs, rhs = _monomial(g, table, rel.lhs), _monomial(g, table, rel.rhs)
        return tuple(a - b for a, b in zip(lhs, rhs))

    # the first interior edge across which the identity's gap changes
    e = next(T.edges[ei] for ei in T.interior_edges
             if gap(T.edges[ei].triangles[0]) != gap(T.edges[ei].triangles[1]))
    assert art.report.failure == {
        "check": "relations",
        "error": "virtual bundle has nonzero degree on a curve",
        "detail": {"vertex": rel.vertex, "edge": (e.a, e.b)},
    }


def test_completeness_counts(run11, run30, run_trivial):
    for art, b4 in ((run11, 5), (run30, 11), (run_trivial, 0)):
        report = completeness_check(art.triangulation, art.decoration, art.relations)
        assert report["relations"] == b4
        assert report["b4"] == art.group.age_counts()[2] == b4
        assert report["euler"] == art.group.order


def test_relation_count_matches_age2_on_many_groups():
    for spec in ["1/6(1,2,3)", "1/12(1,5,6)", "1/13(1,3,9)", "1/3(1,2,0);1/3(0,1,2)",
                 "1/2(1,1,0);1/2(0,1,1)"]:
        art = run_pipeline(spec)
        assert len(art.relations) == art.group.age_counts()[2]
        assert len(art.relations) == len(art.triangulation.interior_vertices)


def test_trivial_group_no_relations(run_trivial):
    assert run_trivial.relations == []
