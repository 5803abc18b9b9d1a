import dataclasses
import random
from types import SimpleNamespace

import pytest

from ahilb import intmat, pipeline
from ahilb.cohomology import (
    CompactSurface,
    SurfaceCalculus,
    VirtualBundle,
    _surface_type,
    duality_matrix,
    h2_basis_check,
    surface_star,
    unitriangular_peel,
    virtual_bundle,
)
from ahilb.errors import CorrespondenceError, InvariantViolationError
from ahilb.fan import QuotientMap
from ahilb.group import MONO_ONE
from ahilb.pipeline import run_pipeline
from conftest import chi, surface_calculators


def intersection_matrix(surface):
    """Boundary-curve pairing: adjacency ones, the cycle on the diagonal."""
    n = len(surface.rays)
    Q = [[0] * n for _ in range(n)]
    for i in range(n):
        Q[i][i] = surface.self_intersections[i]
        Q[i][(i + 1) % n] += 1
        Q[(i + 1) % n][i] += 1
    return Q


def restrict_c1(calc, chi):
    """Integer curve-coefficient vector pairing to the boundary degrees."""
    return calc._restriction(chi)[0]


def intersect(calc, alpha, beta):
    """The intersection number of two curve-coefficient vectors on calc's surface."""
    return intmat.vec_dot(alpha, intmat.vec_mat(beta, intersection_matrix(calc.surface)))


def test_virtual_bundle_shapes_11(run11):
    g = run11.group
    by_vertex = {b.vertex: b for b in run11.bundles}
    b = by_vertex[(3, 6, 2)]  # valency-3 vertex
    triv = g.reduce(MONO_ONE)
    assert sorted(b.plus) == sorted((chi(g, 2), chi(g, 2)))
    assert sorted(b.minus) == sorted((chi(g, 4), triv))
    assert b.index == chi(g, 4)


def test_virtual_bundle_dp6_30(run30):
    g = run30.group
    b = next(bb for bb in run30.bundles if bb.index == chi(g, 7))
    triv = g.reduce(MONO_ONE)
    assert sorted(b.plus) == sorted((chi(g, 4), chi(g, 5), chi(g, 12)))
    assert sorted(b.minus) == sorted((chi(g, 7), chi(g, 14), triv))


def test_virtual_bundles_rank_and_c1_zero(run30):
    g = run30.group
    for b in run30.bundles:
        assert len(b.plus) == len(b.minus)
        assert g.char_sum(b.plus) == g.char_sum(b.minus)


def test_surface_types(run11):
    types = {v: s.surface_type for v, s in run11.surfaces.items()}
    assert types[(3, 6, 2)] == "P2"
    assert types[(1, 2, 8)] == "scroll"
    cycles = {v: s.self_intersections for v, s in run11.surfaces.items()}
    assert sorted(cycles[(3, 6, 2)]) == [1, 1, 1]
    # the valency-4 vertex carries the scroll with fibre square zero
    c = list(cycles[(1, 2, 8)])
    for shift in range(4):
        rot = c[shift:] + c[:shift]
        if rot[0] == 0 and rot[2] == 0:
            break
    assert rot[0] == rot[2] == 0 and rot[1] == -rot[3] and abs(rot[1]) == 4


def test_dp6_surface_cycle(run30):
    dp6 = [s for s in run30.surfaces.values() if s.surface_type == "dP6"]
    assert len(dp6) == 2
    for s in dp6:
        assert s.self_intersections == (-1, -1, -1, -1, -1, -1)
        assert len(s.rays) == 6


def test_noether_cycle_sum(run30):
    for s in run30.surfaces.values():
        n = len(s.rays)
        assert sum(s.self_intersections) == 12 - 3 * n


def test_intersections_on_plane(run11):
    s = surface_calculators(run11)[(3, 6, 2)]
    g = run11.group
    # the through-line character restricts to the hyperplane class
    alpha = restrict_c1(s, chi(g, 2))
    assert intersect(s, alpha, alpha) == 1


def test_intersections_on_scroll(run11):
    s = surface_calculators(run11)[(1, 2, 8)]
    g = run11.group
    # the passing line's character restricts to a fibre: square zero
    alpha = restrict_c1(s, chi(g, 2))
    beta = restrict_c1(s, chi(g, 8))
    assert intersect(s, alpha, alpha) == 0
    assert intersect(s, alpha, beta) == 1


def test_intersections_on_dp6(run30):
    g = run30.group
    s = next(
        ss for ss in surface_calculators(run30).values()
        if ss.surface.surface_type == "dP6" and ss.mark_char == chi(g, 7)
    )
    c1 = restrict_c1(s, chi(g, 14))
    c2 = restrict_c1(s, chi(g, 7))
    assert intersect(s, c1, c2) == 2
    assert intersect(s, c1, c1) == 1  # a plane image class on the sixth del Pezzo
    # the three through-line classes pair like the three fibrations
    d = [restrict_c1(s, chi(g, i)) for i in (4, 5, 12)]
    assert sum(intersect(s, d[i], d[j]) for i in range(3) for j in range(i + 1, 3)) == 3


def test_trivial_character_restricts_to_zero(run11):
    g = run11.group
    triv = g.reduce(MONO_ONE)
    for s in surface_calculators(run11).values():
        alpha = restrict_c1(s, triv)
        assert all(intersect(s, alpha, restrict_c1(s, c)) == 0 for c in g.characters())


def test_duality_identity(run11, run30, run_trivial):
    assert run11.duality == [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    n = len(run30.duality)
    assert n == run30.group.age_counts()[2]
    assert run30.duality == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert run_trivial.duality == []


def test_perturbed_duality_entry_reported(run11):
    g = run11.group
    bundles = list(run11.bundles)
    calcs = surface_calculators(run11)
    # swap one character in one bundle: pairing must fail with named (m, n)
    bad = bundles[0]
    doctored = VirtualBundle(bad.index, bad.vertex, (chi(g, 5), chi(g, 5)), bad.minus)
    with pytest.raises(CorrespondenceError) as err:
        duality_matrix(g, [doctored] + bundles[1:], calcs)
    assert set(err.value.detail) >= {"m", "n", "entry", "expected"}
    assert err.value.detail["m"] == g.char_label(bad.index)
    # the same fault in the last bundle: every earlier row passes, so the
    # first failing entry is in the last row
    last = bundles[-1]
    doctored = VirtualBundle(last.index, last.vertex, (chi(g, 5), chi(g, 5)), last.minus)
    with pytest.raises(CorrespondenceError) as err:
        duality_matrix(g, bundles[:-1] + [doctored], calcs)
    row = {v: s.c2_pairing(doctored) for v, s in sorted(calcs.items())}
    v = next(v for v, entry in row.items() if entry != int(v == last.vertex))
    assert err.value.detail == {
        "m": g.char_label(last.index),
        "n": g.char_label(calcs[v].mark_char),
        "entry": row[v],
        "expected": int(v == last.vertex),
    }


def test_surface_star_rejects_boundary_vertex(run11):
    with pytest.raises(InvariantViolationError) as err:
        surface_star(run11.triangulation, (0, 0, 11))
    assert str(err.value) == "compact surfaces sit over interior vertices"
    assert err.value.detail == {"vertex": (0, 0, 11)}


def test_virtual_bundle_names_sides_of_different_ranks(run11):
    # negative control: the valency-3 relation with one more character on its right
    g = run11.group
    r = next(r for r in run11.relations if r.vertex == (3, 6, 2))
    grown = dataclasses.replace(r, rhs=r.rhs + (chi(g, 1),))
    with pytest.raises(InvariantViolationError) as err:
        virtual_bundle(g, run11.decoration.vertex_marks[r.vertex], grown)
    assert str(err.value) == "virtual bundle sides have different ranks"
    assert err.value.detail == {
        "vertex": (3, 6, 2),
        "plus": tuple(sorted(grown.rhs)),
        "minus": tuple(sorted(r.lhs + (g.reduce(MONO_ONE),))),
    }


@pytest.mark.parametrize(
    "cycle, message",
    [
        ([1, 1, 2], "three-ray star fan that is not the plane"),
        ([0, 1, 0, 2], "four-ray star fan with cycle [0, 1, 0, 2]"),
        ([-1] * 7, "star fan with 7 rays"),
    ],
)
def test_surface_type_names_the_vertex_and_cycle(cycle, message):
    with pytest.raises(InvariantViolationError) as err:
        _surface_type(cycle, (3, 6, 2))
    assert str(err.value) == message
    assert err.value.detail == {"vertex": (3, 6, 2), "cycle": cycle}


def test_surface_star_passes_its_vertex_to_the_shape_check(run11):
    """A stand-in star of seven rays, a smooth complete fan that no A-Hilb star has."""
    g = run11.group
    vertex = (3, 6, 2)
    qm = QuotientMap(g, vertex)
    rays = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    edges = [SimpleNamespace(a=vertex, b=intmat.vec_add(vertex, qm.lift(r))) for r in rays]
    star = SimpleNamespace(
        group=g, edges=edges, vertex_edge_map=lambda: {vertex: list(range(len(edges)))}
    )
    with pytest.raises(InvariantViolationError) as err:
        surface_star(star, vertex)
    assert str(err.value) == "star fan with 7 rays"
    assert err.value.detail == {"vertex": vertex, "cycle": [-2, -1, -1, -1, -1, -2, -1]}


def test_intersection_matrix_symmetry(run30):
    for s in run30.surfaces.values():
        Q = intersection_matrix(s)
        n = len(Q)
        assert all(Q[i][j] == Q[j][i] for i in range(n) for j in range(n))
        for i in range(n):
            assert Q[i][(i + 1) % n] == 1


def test_h2_basis(run11, run30, run_trivial):
    assert run11.h2 == {"b2": 5, "unimodular": True, "relation_rows": True}
    assert run30.h2["b2"] == 18 and run30.h2["unimodular"]
    assert run_trivial.h2 == {"b2": 0, "unimodular": True, "relation_rows": True}


def test_h2_smith_oracle(run11):
    """Independent Smith-form computation of the degree matrix."""
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    g, T, C, D = run11.group, run11.triangulation, run11.charts, run11.decoration
    basis_chars = sorted(set(D.partition["line"]) | set(D.partition["second"]))
    edges = T.interior_edges()
    M = sympy.Matrix(
        [[C.degree_on_curve(c, e) for e in edges] for c in basis_chars]
    )
    snf = smith_normal_form(M)
    divisors = [snf[i, i] for i in range(min(snf.shape))]
    assert divisors == [1, 1, 1, 1, 1]


def test_relation_rows_are_integer_combinations(run30):
    g, T, C = run30.group, run30.triangulation, run30.charts
    edges = T.interior_edges()
    for rel in run30.relations:
        lhs = [sum(C.degree_on_curve(c, e) for c in rel.lhs) for e in edges]
        rhs = [sum(C.degree_on_curve(c, e) for c in rel.rhs) for e in edges]
        assert lhs == rhs


def test_certificate(run11, run30, run_trivial):
    assert run11.certificate["pass"] and run11.certificate["b2"] == 5 and run11.certificate["b4"] == 5
    assert run_trivial.certificate["partition"] == {"line": 0, "second": 0, "vertex": 0}
    c30 = run30.certificate
    g30 = run30.group
    assert c30["b2"] == g30.age_counts()[1] and c30["b4"] == g30.age_counts()[2]
    assert 1 + c30["b2"] + c30["b4"] == g30.order


# -- the wall-relation restriction and the alpha . d pairing against the
#    lattice-solver path they replace, kept here as the oracle

DIFFERENTIAL_SPECS = ("1/11(1,2,8)", "1/30(25,2,3)", "1/3(1,2,0);1/3(0,1,2)", "1/101(1,2,98)")


@pytest.fixture(scope="module", params=DIFFERENTIAL_SPECS)
def differential_run(request):
    return run_pipeline(request.param)


def _oracle_restriction(chart_set, surface, chi):
    """Boundary degrees one curve at a time, then an HNF solve of Q alpha = d."""
    d = tuple(chart_set.degree_on_curve(chi, ei) for ei in surface.edge_ids)
    if not any(d):
        return (0,) * len(d), d
    alpha = intmat.solve_int(intersection_matrix(surface), d)
    assert alpha is not None
    return alpha, d


def _oracle_intersect(Q, alpha, beta):
    return sum(alpha[i] * Q[i][j] * beta[j] for i in range(len(alpha)) for j in range(len(beta)))


def _oracle_c2(chart_set, surface, bundle):
    Q = intersection_matrix(surface)
    plus = [_oracle_restriction(chart_set, surface, c)[0] for c in bundle.plus]
    minus = [_oracle_restriction(chart_set, surface, c)[0] for c in bundle.minus]
    if sum(map(any, plus)) < 2 and sum(map(any, minus)) < 2:
        return 0
    total = 0
    for side, sign in ((plus, 1), (minus, -1)):
        for i in range(len(side)):
            for j in range(i + 1, len(side)):
                total += sign * _oracle_intersect(Q, side[i], side[j])
    return total


def test_restriction_and_pairing_match_the_solver_oracle(differential_run):
    g = differential_run.group
    chars = g.characters()
    for calc in surface_calculators(differential_run).values():
        Q = intersection_matrix(calc.surface)
        new = {c: restrict_c1(calc, c) for c in chars}
        old = {c: _oracle_restriction(differential_run.charts, calc.surface, c) for c in chars}
        for c in chars:
            assert intmat.vec_mat(new[c], Q) == old[c][1], c
        nonzero = [c for c in chars if any(old[c][0])]
        assert all(not any(new[c]) for c in chars if c not in nonzero)
        # pairs with a zero class pair to 0 on both paths
        for c in nonzero:
            for c2 in nonzero:
                assert intersect(calc, new[c], new[c2]) == _oracle_intersect(
                    Q, old[c][0], old[c2][0]
                ), (c, c2)


def test_c2_pairing_matches_the_solver_oracle(differential_run):
    art = differential_run
    g = art.group
    chars = g.characters()
    rng = random.Random(7)
    bundles = list(art.bundles)
    while len(bundles) < len(art.bundles) + 20:
        plus = tuple(rng.choice(chars) for _ in range(rng.randint(1, 3)))
        minus = tuple(rng.choice(chars) for _ in range(rng.randint(1, 3)))
        if g.char_sum(plus) != g.char_sum(minus):
            bundles.append(VirtualBundle(plus[0], (0, 0, 0), plus, minus))
    for calc in surface_calculators(art).values():
        for b in bundles:
            assert calc.c2_pairing(b) == _oracle_c2(art.charts, calc.surface, b), (
                calc.surface.vertex, b
            )


class _FixedDegreeCharts:
    """Chart-set stand-in whose every character has the same boundary degrees."""

    def __init__(self, group, surface, degrees):
        # the degree columns by edge id, as `ChartSet._degree` keys them
        self._degree = {ei: dict.fromkeys(group.characters(), d) if d else {}
                        for ei, d in zip(surface.edge_ids, degrees)}


def test_unrealisable_degrees_are_reported(run11):
    g = run11.group
    plane = run11.surfaces[(3, 6, 2)]
    calc = SurfaceCalculus(_FixedDegreeCharts(g, plane, (1, 0, 0)), plane, chi(g, 4))
    with pytest.raises(InvariantViolationError) as err:
        restrict_c1(calc, chi(g, 2))
    assert err.value.detail["vertex"] == (3, 6, 2)
    assert err.value.detail["character"] == chi(g, 2)


def test_duality_and_h2_run_no_lattice_solver(monkeypatch):
    art = run_pipeline("1/30(25,2,3)", which="relations")
    calls = {"solve_int": 0, "hnf_transform": 0}
    for name in calls:
        original = getattr(intmat, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(intmat, name, counted)
    pipeline._check_duality(art)
    pipeline._check_h2(art)
    assert art.duality and art.h2["unimodular"]
    assert calls == {"solve_int": 0, "hnf_transform": 0}


# -- the sparse duality scan against the dense one it replaces, kept here as
#    the oracle: every bundle paired with every surface


def _dense_duality_matrix(group, bundles, surfaces):
    verts = sorted(surfaces)
    matrix = []
    for b in bundles:
        row = []
        for v in verts:
            entry = surfaces[v].c2_pairing(b)
            expected = 1 if b.vertex == v else 0
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
            row.append(entry)
        matrix.append(row)
    return matrix


def _duality_outcome(matrix_fn, group, bundles, surfaces):
    """The matrix, or the message and detail of the failure it raises."""
    try:
        return matrix_fn(group, bundles, surfaces)
    except CorrespondenceError as err:
        return str(err), err.detail


def _assert_duality_paths_agree(art, perturbations):
    g = art.group
    calcs = surface_calculators(art)
    assert duality_matrix(g, art.bundles, calcs) == _dense_duality_matrix(g, art.bundles, calcs)
    # one character of one bundle swapped for a random one: both paths must
    # name the same first failing entry, or both pass
    rng = random.Random(11)
    chars = g.characters()
    for _ in range(perturbations if art.bundles else 0):
        k = rng.randrange(len(art.bundles))
        b = art.bundles[k]
        plus = list(b.plus)
        plus[rng.randrange(len(plus))] = rng.choice(chars)
        bundles = list(art.bundles)
        bundles[k] = VirtualBundle(b.index, b.vertex, tuple(plus), b.minus)
        assert _duality_outcome(duality_matrix, g, bundles, calcs) == _duality_outcome(
            _dense_duality_matrix, g, bundles, calcs
        ), b


def test_sparse_duality_matches_the_dense_oracle(differential_run):
    _assert_duality_paths_agree(differential_run, 30)


def test_sparse_duality_matches_the_dense_oracle_at_199():
    _assert_duality_paths_agree(run_pipeline("1/199(1,5,193)"), 10)


def test_doctored_bundles_fail_alike_on_both_paths(run11):
    g = run11.group
    bundles = list(run11.bundles)
    calcs = surface_calculators(run11)
    triv = g.reduce(MONO_ONE)
    for k, plus, minus in (
        (0, (chi(g, 5), chi(g, 5)), bundles[0].minus),
        (len(bundles) - 1, (chi(g, 5), chi(g, 5)), bundles[-1].minus),
        # degree 0 everywhere: no surface is touched, so the diagonal entry 0 fails
        (2, (triv, triv), (triv, triv)),
    ):
        bad = bundles[k]
        doctored = list(bundles)
        doctored[k] = VirtualBundle(bad.index, bad.vertex, plus, minus)
        with pytest.raises(CorrespondenceError) as sparse:
            duality_matrix(g, doctored, calcs)
        with pytest.raises(CorrespondenceError) as dense:
            _dense_duality_matrix(g, doctored, calcs)
        assert str(sparse.value) == str(dense.value)
        assert sparse.value.detail == dense.value.detail
        assert sparse.value.detail["m"] == g.char_label(bad.index)


def test_duality_pairs_only_the_touching_surfaces(run30, monkeypatch):
    """Bundle-surface pairs with no character on the surface's boundary are skipped.

    The run keeps only the star fans; the calculators are rebuilt here.
    """
    assert run30.surfaces
    assert all(type(s) is CompactSurface for s in run30.surfaces.values())
    calcs = surface_calculators(run30)
    calls = []
    original = SurfaceCalculus.c2_pairing

    def counted(self, bundle):
        calls.append((self.surface.vertex, bundle.vertex))
        return original(self, bundle)

    monkeypatch.setattr(SurfaceCalculus, "c2_pairing", counted)
    duality_matrix(run30.group, run30.bundles, calcs)
    touching = {
        (v, b.vertex)
        for v, calc in calcs.items()
        for b in run30.bundles
        if calc.support.intersection(b.plus + b.minus)
    }
    assert sorted(calls) == sorted(touching)
    assert len(calls) < len(run30.bundles) * len(calcs)


# -- h2: the unitriangular peel, and the ZSpan fallback when it stalls


def _basis_characters(art):
    part = art.decoration.partition
    return sorted(set(part["line"]) | set(part["second"]))


def test_peel_retires_every_basis_character(differential_run):
    C = differential_run.charts
    basis = _basis_characters(differential_run)
    peeled = unitriangular_peel(C, basis)
    assert sorted(chi for chi, _ in peeled) == basis
    # a unitriangular minor: degree 1 on the diagonal, 0 below it
    for k, (chi, j) in enumerate(peeled):
        column = C._degree[j]
        assert column[chi] == 1
        assert all(column.get(later, 0) == 0 for later, _ in peeled[k + 1:])
    columns = [[column.get(chi, 0) for chi in basis] for column in C._degree]
    assert intmat.columns_generate_full_lattice(columns, len(basis))


class _DegreeColumns:
    """Chart-set stand-in given by its degree matrix, one list per edge column."""

    def __init__(self, chars, columns):
        self._degree = tuple({c: d for c, d in zip(chars, col) if d} for col in columns)


class _Partition:
    def __init__(self, line, second):
        self.partition = {"line": line, "second": second, "vertex": []}


def _zspan_calls(monkeypatch):
    calls = []
    original = intmat.columns_generate_full_lattice

    def counted(columns, n):
        calls.append(n)
        return original(columns, n)

    monkeypatch.setattr(intmat, "columns_generate_full_lattice", counted)
    return calls


def test_stalled_peel_falls_back_to_zspan(monkeypatch):
    a, b = (1, 0, 0), (2, 0, 0)
    charts = _DegreeColumns([a, b], [[1, 1], [1, 2]])  # no column has one live entry
    assert unitriangular_peel(charts, [a, b]) == []
    calls = _zspan_calls(monkeypatch)
    assert h2_basis_check(charts, _Partition([a], [b])) == {
        "b2": 2, "unimodular": True, "relation_rows": True,
    }
    assert calls == [2]


@pytest.mark.parametrize(
    "columns",
    [
        [[1, 1], [1, 3]],  # determinant 2, no column with one live entry
        [[2, 0], [1, 1]],  # determinant 2; the lone entry of the first column is 2
    ],
)
def test_stalled_peel_on_a_non_unimodular_matrix_fails(monkeypatch, columns):
    a, b = (1, 0, 0), (2, 0, 0)
    charts = _DegreeColumns([a, b], columns)
    assert unitriangular_peel(charts, [a, b]) == []
    calls = _zspan_calls(monkeypatch)
    with pytest.raises(CorrespondenceError) as err:
        h2_basis_check(charts, _Partition([a], [b]))
    assert str(err.value) == "degree matrix of surviving bundles is not a unimodular basis"
    assert err.value.detail == {"b2": 2, "edges": 2}
    assert calls == [2]


def test_complete_peel_needs_no_zspan(run30, monkeypatch):
    calls = _zspan_calls(monkeypatch)
    assert h2_basis_check(run30.charts, run30.decoration) == run30.h2
    assert calls == []
