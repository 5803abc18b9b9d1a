"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s or in the captured output).  All comparisons are exact integer
equalities; the only tolerances are the stated wall-clock budgets.
"""

import functools
import random
import time
from math import gcd

import pytest

from ahilb.cli import main
from ahilb.cohomology import VirtualBundle, duality_matrix
from ahilb.errors import CorrespondenceError
from ahilb.pipeline import run_pipeline
from ahilb.relations import Relation, verify_all_relations
from ahilb.serialize import to_json
from conftest import (
    chi,
    conv_region,
    conv_regions,
    surface_calculators,
    verify_relation_chartwise,
)


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_golden_11():
    t0 = time.perf_counter()
    art = run_pipeline("1/11(1,2,8)")
    elapsed = time.perf_counter() - t0
    g, T, C, D = art.group, art.triangulation, art.charts, art.decoration

    # corner-e3 strengths {6, 2} from 11/2 = 6 - 1/2
    from ahilb.fan import corner_fan

    assert [ln.strength for ln in corner_fan(g, 2)] == [6, 2]

    # the strength-3 line from e1 defeats the strength-2 line from e3 and
    # extends with strength 2
    e1_line = next(
        ln for ln in T.partition.corner_lines if ln.corner == 0 and ln.strength == 3
    )
    assert any(win and s == 3 for _, s, win in e1_line.battles)
    assert e1_line.final_strength == 2
    e3_line = next(
        ln for ln in T.partition.corner_lines if ln.corner == 2 and ln.strength == 2
    )
    assert e3_line.death_t is not None

    # exactly one regular triangle of side > 1; 11 basic triangles
    assert sorted(r.side for r in T.regular_triangles if r.side > 1) == [2]
    assert len(T.triangles) == 11

    # marks: valency 3 -> chi4 on chi2-lines, valency 4 -> chi10
    v3 = next(vm for vm in D.vertex_marks.values() if vm.valency == 3)
    assert v3.marks == (chi(g, 4),) and set(v3.through) == {chi(g, 2)}
    v4 = next(vm for vm in D.vertex_marks.values() if vm.valency == 4)
    assert v4.marks == (chi(g, 10),)
    assert set(v4.through) == {chi(g, 2), chi(g, 8)}

    # generator xy of weight chi3 on exactly 4 triangles; 6 regions
    chi3 = chi(g, 3)
    assert len(conv_region(C, chi3, (1, 1, 0))) == 4
    assert len(conv_regions(C, chi3)) == 6

    # degree three on one of the curves with ratio y : z^3
    degs = [
        C.degree_on_curve(chi3, ei)
        for ln in T.lines
        if {ln.plus, ln.minus} == {(0, 1, 0), (0, 0, 3)}
        for ei in ln.edges
        if T.edges[ei].interior
    ]
    assert 3 in degs

    # relations R4 = R2 (x) R2 and R10 = R2 (x) R8
    lab = lambda cs: tuple(sorted(g.char_label_index(c) for c in cs))
    rels = {(r.case, lab(r.lhs), lab(r.rhs)) for r in art.relations}
    assert (1, (4,), (2, 2)) in rels
    assert (2, (10,), (2, 8)) in rels

    # duality matrix = 5x5 identity
    assert art.duality == 5

    assert art.report.passed
    assert elapsed < 1.0, f"golden run took {elapsed:.2f}s"
    _report("1 (golden 1/11(1,2,8))", True)


def test_criterion_2_golden_30():
    t0 = time.perf_counter()
    art = run_pipeline("1/30(25,2,3)")
    elapsed = time.perf_counter() - t0
    g, T, D = art.group, art.triangulation, art.decoration

    assert sorted(r.side for r in T.regular_triangles) == [2, 2, 2, 3, 3]

    dp6 = next(
        vm for vm in D.vertex_marks.values()
        if vm.case == "dP6" and set(vm.through) == {chi(g, 4), chi(g, 5), chi(g, 12)}
    )
    assert set(dp6.marks) == {chi(g, 7), chi(g, 14)}

    rel = next(r for r in art.relations if r.vertex == dp6.vertex)
    assert sorted(rel.lhs) == sorted((chi(g, 7), chi(g, 14)))
    assert sorted(rel.rhs) == sorted((chi(g, 4), chi(g, 5), chi(g, 12)))
    ok, witness = verify_relation_chartwise(art.charts, rel)
    assert ok and witness is None and len(art.charts.agraphs) == 30

    assert art.duality == g.age_counts()[2]

    part = D.partition
    covered = list(part["line"]) + list(part["vertex"]) + list(part["second"])
    assert len(covered) == len(set(covered)) == 29

    assert art.report.passed
    assert elapsed < 1.0, f"golden run took {elapsed:.2f}s"
    _report("2 (golden 1/30(25,2,3))", True)


def _cyclic_family_up_to_30():
    return list(_cyclic_family_specs())


@functools.cache
def _cyclic_family_specs():
    seen = {}
    for r in range(1, 31):
        for a in range(r):
            for b in range(a, r):
                c = (-a - b) % r
                if c < b:
                    continue
                if gcd(gcd(a, b), gcd(c, r)) != 1:
                    continue
                key = None
                g = None
                spec = f"1/{r}({a},{b},{c})"
                from ahilb.group import build_group

                g = build_group(spec)
                key = frozenset(g.elements)
                if key not in seen:
                    seen[key] = spec
    return tuple(sorted(seen.values()))


@functools.cache
def _cyclic_family_runs():
    """`run_pipeline` of every family spec, built once per session, and its seconds.

    The tests that read the runs leave them unchanged.
    """
    t0 = time.perf_counter()
    runs = {spec: run_pipeline(spec) for spec in _cyclic_family_up_to_30()}
    return runs, time.perf_counter() - t0


def _random_cyclic(rng, count, lo, hi):
    out = []
    while len(out) < count:
        r = rng.randrange(lo + 1, hi + 1)
        a = rng.randrange(0, r)
        b = rng.randrange(0, r)
        c = (-a - b) % r
        if gcd(gcd(a, gcd(b, c)), r) != 1:
            continue
        out.append(f"1/{r}({a},{b},{c})")
    return out


def _random_products(rng, count, max_order):
    from ahilb.group import build_group

    out = []
    seen = set()
    while len(out) < count:
        r1 = rng.randrange(2, 21)
        r2 = rng.randrange(2, 21)
        a, b = rng.randrange(0, r1), rng.randrange(0, r1)
        d, e = rng.randrange(0, r2), rng.randrange(0, r2)
        spec = f"1/{r1}({a},{b},{(-a-b) % r1});1/{r2}({d},{e},{(-d-e) % r2})"
        try:
            g = build_group(spec, max_order=max_order)
        except Exception:
            continue
        if g.is_cyclic or g.order > max_order or g.order < 4:
            continue
        key = frozenset(g.elements)
        if key in seen:
            continue
        seen.add(key)
        out.append(spec)
    return out


def test_criterion_3_property_suite():
    # the shared family runs count against the budget, whichever test built them
    family, build_seconds = _cyclic_family_runs()
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    assert len(family) >= 200  # the family is exhaustive up to symmetry
    specs = list(family)
    specs += _random_cyclic(rng, 50, 30, 200)
    specs += _random_products(rng, 10, 400)
    failures = []
    for spec in specs:
        art = family.get(spec) or run_pipeline(spec)
        if not art.report.passed:
            failures.append((spec, art.report.failure))
    elapsed = build_seconds + time.perf_counter() - t0
    print(f"  property suite: {len(specs)} groups in {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 300.0, f"property suite took {elapsed:.1f}s"
    _report(f"3 (property suite, {len(specs)} groups)", True)


def test_criterion_4_negative_controls(run11, capsys):
    # inadmissible input is rejected with exit code 1
    assert main(["compute", "1/11(1,2,9)"]) == 1
    capsys.readouterr()

    # a perturbed relation fails chart-wise with a witness
    g = run11.group
    good = next(r for r in run11.relations if r.case == 1)
    bad = Relation(good.vertex, good.case, (chi(g, 5),), good.rhs)
    ok, witness = verify_relation_chartwise(run11.charts, bad)
    assert not ok and witness is not None
    with pytest.raises(CorrespondenceError) as err:
        verify_all_relations(run11.charts, [bad])
    assert "witness_triangle" in err.value.detail

    # a perturbed duality entry is reported with its (m, n)
    b0 = run11.bundles[0]
    doctored = VirtualBundle(b0.index, b0.vertex, (chi(g, 5), chi(g, 5)), b0.minus)
    with pytest.raises(CorrespondenceError) as err:
        duality_matrix(g, [doctored] + run11.bundles[1:], surface_calculators(run11))
    detail = err.value.detail
    assert "m" in detail and "n" in detail
    _report("4 (negative controls)", True)


def test_criterion_5_determinism(tmp_path):
    a = to_json(run_pipeline("1/30(25,2,3)"))
    b = to_json(run_pipeline("1/30(25,2,3)"))
    assert a == b
    # and through the CLI
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["compute", "1/11(1,2,8)", "--json", str(p1), "--quiet"]) == 0
    assert main(["compute", "1/11(1,2,8)", "--json", str(p2), "--quiet"]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    _report("5 (byte-identical JSON)", True)
