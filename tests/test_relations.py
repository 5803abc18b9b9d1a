import pytest

from ahilb.errors import CorrespondenceError
from ahilb.group import MONO_ONE
from ahilb.pipeline import run_pipeline
from ahilb.relations import (
    Relation,
    completeness_check,
    verify_all_relations,
    verify_relation_chartwise,
)
from conftest import chi


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


def test_relation_broken_on_one_chart_names_that_chart(monkeypatch):
    art = run_pipeline("1/30(25,2,3)", which="relations")
    C = art.charts
    rel = next(r for r in art.relations if r.lhs[0] not in r.rhs)
    ti = len(C.agraphs) // 2
    table = dict(C.agraphs[ti].table)
    m = table[rel.lhs[0]]
    table[rel.lhs[0]] = (m[0] + 1, m[1], m[2])
    monkeypatch.setattr(C.agraphs[ti], "table", table)
    assert verify_relation_chartwise(C, rel) == (False, ti)
    with pytest.raises(CorrespondenceError) as err:
        verify_all_relations(C, art.relations)
    assert err.value.detail == {"vertex": rel.vertex, "witness_triangle": ti}


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
        assert len(art.relations) == len(art.triangulation.interior_vertices())


def test_trivial_group_no_relations(run_trivial):
    assert run_trivial.relations == []
