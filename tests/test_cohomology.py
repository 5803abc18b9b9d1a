import functools
import itertools
import random
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest

from ahilb import intmat, pipeline
from ahilb.cohomology import (
    CompactSurface,
    SurfaceCalculators,
    SurfaceCalculus,
    VirtualBundle,
    _surface_type,
    by_id,
    duality_matrix,
    h2_basis_check,
    surface_star,
    unitriangular_peel,
    virtual_bundle,
)
from ahilb.errors import CorrespondenceError, InvariantViolationError
from ahilb.fan import triangulate
from ahilb.group import MONO_ONE, build_group
from ahilb.pipeline import run_pipeline
from conftest import chi, replaced, surface_calculators
from test_acceptance import _cyclic_family_runs
from test_fan import _differential_specs, _oracle_lift


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
    """Integer curve-coefficient vector pairing to the boundary degrees of character chi."""
    return calc._restriction(calc._chars.index(chi))[0]


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
    assert run11.duality == 5
    assert run30.duality == run30.group.age_counts()[2] == len(run30.surfaces)
    assert run_trivial.duality == 0


@pytest.mark.parametrize("shuffle", ["swap", "drop"])
def test_bundles_out_of_vertex_order_are_rejected(run11, shuffle):
    """Row i is claimed against column i, so bundle i must be the i-th vertex's."""
    bundles = list(run11.bundles)
    if shuffle == "swap":
        bundles[0], bundles[1] = bundles[1], bundles[0]
    else:
        bundles.pop()
    with pytest.raises(CorrespondenceError) as err:
        duality_matrix(run11.group, bundles, surface_calculators(run11))
    assert str(err.value) == "virtual bundles are not one per surface in vertex order"
    assert err.value.detail == {"bundle_vertices": [b.vertex for b in bundles],
                                "surface_vertices": sorted(run11.surfaces)}


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
    row = {v: s.c2_pairing(by_id(g, doctored)) for v, s in sorted(calcs.items())}
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
    grown = replaced(r, rhs=r.rhs + (chi(g, 1),))
    with pytest.raises(InvariantViolationError) as err:
        virtual_bundle(g, run11.decoration.vertex_marks[r.vertex], grown)
    assert str(err.value) == "virtual bundle sides have different ranks"
    assert err.value.detail == {
        "vertex": (3, 6, 2),
        "plus": tuple(sorted(grown.rhs)),
        "minus": tuple(sorted(r.lhs + (g.reduce(MONO_ONE),))),
    }


def test_star_cycles_satisfy_what_surface_star_proves():
    """Noether's count and the three- and four-ray cycles, on every interior vertex.

    These are the facts `surface_star` and `_surface_type` prove from the
    smoothness check, on the triangulations of the corner-fan differential
    specs.
    """
    lengths = Counter()
    for spec in _differential_specs():
        T = triangulate(build_group(spec))
        for v in T.interior_vertices:
            cycle = surface_star(T, v).self_intersections
            n = len(cycle)
            lengths[n] += 1
            assert sum(cycle) == 12 - 3 * n, (spec, v)
            if n == 3:
                assert cycle == (1, 1, 1), (spec, v)
            if n == 4:
                rotations = (cycle[k:] + cycle[:k] for k in range(4))
                assert any(c[0] == c[2] == 0 and c[1] == -c[3] for c in rotations), (spec, v)
    assert set(lengths) == {3, 4, 5, 6}, lengths


@pytest.mark.parametrize(
    "cycle, kind",
    [
        ([-1, -1, -1, 0, 0], "blownup_scroll"),
        ([-1, -1, -1, -1, -1, -1], "dP6"),
        ([-1, -1, -2, -1, -1, 0], "blownup_scroll"),
    ],
)
def test_surface_type_of_five_and_six_rays(cycle, kind):
    assert _surface_type(cycle, (3, 6, 2)) == kind


def test_surface_type_names_the_vertex_and_cycle():
    cycle = [-1] * 7
    with pytest.raises(InvariantViolationError) as err:
        _surface_type(cycle, (3, 6, 2))
    assert str(err.value) == "star fan with 7 rays"
    assert err.value.detail == {"vertex": (3, 6, 2), "cycle": cycle}


def test_surface_star_passes_its_vertex_to_the_shape_check(run11):
    """A stand-in star of seven rays, a smooth complete fan that no A-Hilb star has."""
    g = run11.group
    vertex = (3, 6, 2)
    rays = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    edges = [SimpleNamespace(a=vertex, b=intmat.vec_add(vertex, _oracle_lift(g, vertex, r)))
             for r in rays]
    star = SimpleNamespace(
        group=g, edges=edges, vertex_edges={vertex: list(range(len(edges)))}
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
    edges = T.interior_edges
    M = sympy.Matrix(
        [[C.degree_on_curve(c, e) for e in edges] for c in basis_chars]
    )
    snf = smith_normal_form(M)
    divisors = [snf[i, i] for i in range(min(snf.shape))]
    assert divisors == [1, 1, 1, 1, 1]


def test_relation_rows_are_integer_combinations(run30):
    g, T, C = run30.group, run30.triangulation, run30.charts
    edges = T.interior_edges
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


def _character_keyed_restriction(chart_set, surface, chi):
    """The wall recurrence on the degrees of character chi read one curve at a
    time (`degree_on_curve`): the oracle of `SurfaceCalculus._restriction`,
    which reads its character's id in the degree columns."""
    d = tuple(chart_set.degree_on_curve(chi, ei) for ei in surface.edge_ids)
    n = len(d)
    alpha = [0, 0]
    for i in range(1, n + 1):
        alpha.append(d[i % n] - alpha[i - 1] - surface.self_intersections[i % n] * alpha[i])
    assert alpha[n] == alpha[n + 1] == 0
    return tuple(alpha[:n]), d


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
            assert calc._restriction(g.char_id(c)) == _character_keyed_restriction(
                differential_run.charts, calc.surface, c
            ), c
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
            assert calc.c2_pairing(by_id(g, b)) == _oracle_c2(art.charts, calc.surface, b), (
                calc.surface.vertex, b
            )


class _FixedDegreeCharts:
    """Chart-set stand-in whose every character has the same boundary degrees."""

    def __init__(self, group, surface, degrees):
        # the degree columns by edge id, as `ChartSet._degree` keys them
        self.group = group
        self._degree = {ei: dict.fromkeys(group.char_ids(), d) if d else {}
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


# -- the column walk against the scans it replaces, kept here as oracles: the
#    row-major sparse scan, which pairs a bundle with every surface one of its
#    characters touches, and the dense one, which pairs it with every surface


def _row_major_duality_matrix(group, bundles, surfaces):
    verts = sorted(surfaces)
    column = {v: j for j, v in enumerate(verts)}
    touching = {}  # character id -> columns of the surfaces in whose support it lies
    for j, v in enumerate(verts):
        for k in surfaces[v].support:
            touching.setdefault(k, set()).add(j)
    matrix = []
    for b in map(functools.partial(by_id, group), bundles):
        hits = set()
        for k in b.plus + b.minus:
            hits.update(touching.get(k, ()))
        own = column.get(b.vertex)
        checked = hits if own is None else hits | {own}
        row = [0] * len(verts)
        for j in sorted(checked):
            v = verts[j]
            entry = surfaces[v].c2_pairing(b) if j in hits else 0
            expected = 1 if j == own else 0
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
            row[j] = entry
        matrix.append(row)
    return matrix


def _dense_duality_matrix(group, bundles, surfaces):
    verts = sorted(surfaces)
    matrix = []
    for b in map(functools.partial(by_id, group), bundles):
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


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _walked_identity(group, bundles, surfaces):
    """`duality_matrix` returns b4 once every entry passes: the b4 identity."""
    return _identity(duality_matrix(group, bundles, surfaces))


def _duality_outcome(matrix_fn, group, bundles, surfaces):
    """The matrix, or the message and detail of the failure it raises."""
    try:
        return matrix_fn(group, bundles, surfaces)
    except (CorrespondenceError, InvariantViolationError) as err:
        return str(err), err.detail


ORACLES = (_row_major_duality_matrix, _dense_duality_matrix)


def _assert_duality_paths_agree(art, perturbations):
    g = art.group
    calcs = surface_calculators(art)
    for oracle in ORACLES:
        assert oracle(g, art.bundles, calcs) == _walked_identity(g, art.bundles, calcs)
    # one character of one bundle swapped for a random one: every path must
    # name the same first failing entry, or all pass
    rng = random.Random(11)
    chars = g.characters()
    for _ in range(perturbations if art.bundles else 0):
        k = rng.randrange(len(art.bundles))
        b = art.bundles[k]
        plus = list(b.plus)
        plus[rng.randrange(len(plus))] = rng.choice(chars)
        bundles = list(art.bundles)
        bundles[k] = VirtualBundle(b.index, b.vertex, tuple(plus), b.minus)
        got = _duality_outcome(_walked_identity, g, bundles, calcs)
        for oracle in ORACLES:
            assert got == _duality_outcome(oracle, g, bundles, calcs), (oracle.__name__, b)


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
        with pytest.raises(CorrespondenceError) as walked:
            duality_matrix(g, doctored, calcs)
        for oracle in ORACLES:
            with pytest.raises(CorrespondenceError) as scanned:
                oracle(g, doctored, calcs)
            assert str(walked.value) == str(scanned.value)
            assert walked.value.detail == scanned.value.detail
        assert walked.value.detail["m"] == g.char_label(bad.index)


class _FailingCalculus:
    """A calculator whose restriction fails on one bundle, and pairs as `calc` otherwise."""

    def __init__(self, calc, bundle):
        self._calc, self._bundle = calc, bundle
        self.support, self.mark_char = calc.support, calc.mark_char
        self.rulings = calc.rulings

    def c2_pairing(self, b):
        if b.vertex == self._bundle.vertex:
            raise InvariantViolationError("degree vector is not realised by a divisor class",
                                          detail={"vertex": b.vertex})
        return self._calc.c2_pairing(b)


@pytest.mark.parametrize("failing, doctored", [(-1, 0), (0, -1)])
def test_failed_restriction_is_ordered_like_a_failed_entry(run11, failing, doctored):
    """A restriction that raises at one entry and a wrong entry elsewhere: the
    one first in row-major order is reported, on every path."""
    g = run11.group
    bundles = list(run11.bundles)
    bad = bundles[doctored]
    bundles[doctored] = VirtualBundle(bad.index, bad.vertex, (chi(g, 5), chi(g, 5)), bad.minus)
    calcs = surface_calculators(run11)
    v = bundles[failing].vertex
    calcs[v] = _FailingCalculus(calcs[v], bundles[failing])
    outcomes = {f.__name__: _duality_outcome(f, g, bundles, calcs)
                for f in (_walked_identity,) + ORACLES}
    assert len(set(map(repr, outcomes.values()))) == 1, outcomes
    message = outcomes["_walked_identity"][0]
    assert message == ("duality pairing is not the identity" if doctored == 0
                       else "degree vector is not realised by a divisor class")


def _opposite_pairs(surface):
    """The pairs k < l of the surface's rays with u_l = -u_k."""
    rays = surface.rays
    return [(k, l) for k, l in itertools.combinations(range(len(rays)), 2)
            if rays[l] == intmat.vec_scale(-1, rays[k])]


def _oracle_ruling(chart_set, surface, chi, pairs):
    """The opposite pair (k, l) among `pairs` with chi's boundary degrees
    q (e_k + e_l) for some q != 0, or None: the rule `SurfaceCalculus.rulings` reads."""
    d = tuple(chart_set.degree_on_curve(chi, ei) for ei in surface.edge_ids)
    for k, l in pairs:
        if d[k] and d == intmat.vec_scale(d[k], [int(i in (k, l)) for i in range(len(d))]):
            return k, l
    return None


def _short_side(calc, side):
    """Fewer than two of the side's character ids, with multiplicity, in the support."""
    return sum(k in calc.support for k in side) < 2


def _paired_entries(chart_set, bundles, calcs, ruled):
    """(column vertex, row vertex) of the entries the walk must pair: the
    diagonal, and the rows having a side that is neither short nor, when
    `ruled`, has all its support characters on one ruling (`_oracle_ruling`)."""
    g = chart_set.group
    chars = g.characters()
    bundles = [by_id(g, b) for b in bundles]
    out = set()
    for v, calc in calcs.items():
        rulings, opposite = {}, _opposite_pairs(calc.surface)

        def on_one_ruling(side):
            pairs = set()
            for k in side:
                if k in calc.support:
                    if k not in rulings:
                        rulings[k] = _oracle_ruling(chart_set, calc.surface, chars[k], opposite)
                    pairs.add(rulings[k])
            return len(pairs) == 1 and None not in pairs

        for b in bundles:
            if v == b.vertex or any(
                not _short_side(calc, side) and not (ruled and on_one_ruling(side))
                for side in (b.plus, b.minus)
            ):
                out.add((v, b.vertex))
    return out


def _pairing_calls(monkeypatch):
    """(surface vertex, bundle vertex) of each `c2_pairing` call from now on."""
    calls = []
    original = SurfaceCalculus.c2_pairing

    def counted(self, bundle):
        calls.append((self.surface.vertex, bundle.vertex))
        return original(self, bundle)

    monkeypatch.setattr(SurfaceCalculus, "c2_pairing", counted)
    return calls


def test_duality_pairs_only_the_touching_surfaces(run30, monkeypatch):
    """A pair is computed on the bundle's own surface, and elsewhere only
    where some side of the bundle has two characters, with multiplicity, in
    the surface's support that do not all restrict to multiples of one
    ruling's fibre; every other pair is 0 and is skipped.  The pairs
    computed are a strict subset of those of the rule without rulings
    (13 of its 19 here).

    The run keeps only the star fans; the calculators are rebuilt here.
    """
    assert run30.surfaces
    assert all(type(s) is CompactSurface for s in run30.surfaces.values())
    calcs = surface_calculators(run30)
    calls = _pairing_calls(monkeypatch)
    duality_matrix(run30.group, run30.bundles, calcs)
    pairing = _paired_entries(run30.charts, run30.bundles, calcs, ruled=True)
    assert sorted(calls) == sorted(pairing)
    crowded = _paired_entries(run30.charts, run30.bundles, calcs, ruled=False)
    assert pairing < crowded
    touching = {
        (v, b.vertex)
        for v, calc in calcs.items()
        for b in run30.bundles
        if calc.support.intersection(map(run30.group.char_id, b.plus + b.minus))
    }
    assert len(calls) < len(crowded) < len(touching) < len(run30.bundles) * len(calcs)


@functools.cache
def _ruling_runs():
    """(spec, run) of the goldens, the order-30 family, larger cyclic groups
    (the six compute-large ones and two with a repeated weight) and products."""
    runs, _ = _cyclic_family_runs()
    others = (
        ["1/11(1,2,8)", "1/30(25,2,3)", "1/300(1,1,298)", "1/401(1,1,399)"]
        + [f"1/401(1,{b},{400 - b})" for b in (7, 11, 13, 17, 19, 23)]
        + ["1/3(1,2,0);1/3(0,1,2)", "1/6(1,2,3);1/3(1,1,1)", "1/4(1,1,2);1/2(1,1,0);1/2(0,1,1)"]
    )
    return list(runs.items()) + [(spec, run_pipeline(spec)) for spec in others]


def test_characters_on_one_ruling_pair_to_zero():
    """Every two support characters the rule puts on one ruling have
    alpha_x . d_y = 0 through `_restriction`, the same character twice
    included.

    Each such d_y is q_y (e_k + e_l), so alpha_x . d_y = q_y alpha_x .
    (e_k + e_l); that is checked for every x of the ruling, and the pairs
    themselves on up to 16 per ruling.
    """
    rng = random.Random(32)
    rulings = pairs = 0
    for spec, art in _ruling_runs():
        characters = art.group.characters()
        for v, calc in surface_calculators(art).items():
            on = {pair: sorted(ids) for pair, ids in calc.rulings().items()}
            ruling = {chi: pair for pair, ids in on.items() for chi in ids}
            assert len(ruling) == sum(map(len, on.values())), (spec, v)
            opposite = _opposite_pairs(calc.surface)
            assert sorted(on) == opposite, (spec, v)
            for chi in calc.support:
                assert ruling.get(chi) == _oracle_ruling(
                    art.charts, calc.surface, characters[chi], opposite
                ), (spec, v, chi)
            n = len(calc.surface.rays)
            for (k, l), chars in on.items():
                fibre = tuple(int(i in (k, l)) for i in range(n))
                for chi in chars:
                    alpha, d = calc._restriction(chi)
                    assert d == intmat.vec_scale(d[k], fibre), (spec, v, chi)
                    assert intmat.vec_dot(alpha, fibre) == 0, (spec, v, chi)
                for _ in range(min(16, len(chars) ** 2)):
                    x, y = rng.choice(chars), rng.choice(chars)
                    assert intmat.vec_dot(calc._restriction(x)[0], calc._restriction(y)[1]) == 0
                rulings += 1
                pairs += len(chars) ** 2
    assert rulings > 1000 and pairs > 10**6


def _intersected_rulings(calc):
    """`SurfaceCalculus.rulings` with each fibre set built from the shared
    keys of the two opposite columns: the form it replaced."""
    rays, columns = calc.surface.rays, calc._columns
    out = {}
    for k, l in itertools.combinations(range(len(rays)), 2):
        x, y = rays[k]
        if rays[l] == (-x, -y):
            ck, cl = columns[k], columns[l]
            on = {i for i in ck.keys() & cl.keys() if ck[i] == cl[i]}
            on.difference_update(*(c for m, c in enumerate(columns) if m != k and m != l))
            out[k, l] = on
    return out


def test_rulings_match_the_intersected_keys_oracle():
    """One pass over a column gives the fibre sets of the shared-keys form
    on the goldens, the order-30 family and the six 1/401(1,b,400-b)."""
    fibres = 0
    for spec, art in _ruling_runs():
        for v, calc in surface_calculators(art).items():
            assert all(q > 0 for column in calc._columns for q in column.values()), (spec, v)
            on = calc.rulings()
            assert on == _intersected_rulings(calc), (spec, v)
            fibres += sum(map(len, on.values()))
    assert fibres > 10**5


def test_skipped_entries_are_zero_on_both_oracles():
    """Every entry the ruling rule skips, and the rule without rulings
    would pair, is 0 in the row-major and the dense oracles' matrices.  On
    1/r(1,1,r-2) only the diagonal is paired."""
    skipped = 0
    for spec, art in _ruling_runs():
        calcs = surface_calculators(art)
        rows = {b.vertex: i for i, b in enumerate(art.bundles)}
        columns = {v: j for j, v in enumerate(sorted(calcs))}
        paired = _paired_entries(art.charts, art.bundles, calcs, ruled=True)
        crowded = _paired_entries(art.charts, art.bundles, calcs, ruled=False)
        assert paired <= crowded, spec
        if spec in ("1/300(1,1,298)", "1/401(1,1,399)"):
            assert paired == {(v, v) for v in calcs} < crowded, spec
        entries = [(rows[b], columns[v]) for v, b in crowded - paired]
        assert all(i != j for i, j in entries), spec
        for oracle in ORACLES:
            matrix = oracle(art.group, art.bundles, calcs)
            assert all(matrix[i][j] == 0 for i, j in entries), (spec, oracle.__name__)
        skipped += len(entries)
    assert skipped > 50000


def _pair_column(group, bundles, calc, holders, j):
    """The column step that `duality_matrix`'s surface bitmasks replaced,
    kept as the oracle of which entries are paired: (row, error) of the
    column's first failure, or None.

    `bundles` hold their sides as character ids (`by_id`), and `holders`
    maps each id to 2 * row + side (0 plus, 1 minus), once per occurrence.
    A side with two support characters is skipped when they all lie in
    one of the calculator's `rulings`: its count of them, with
    multiplicity, equals its count of support characters.
    """
    live = holders.keys() & calc.support
    touching = Counter(itertools.chain.from_iterable(map(holders.get, live)))  # per side
    crowded = [key for key, n in touching.items() if n > 1 and key >> 1 != j]
    rows = {j}
    if crowded:
        ruled = set()  # the sides whose support characters all lie on one ruling
        for fibres in calc.rulings().values():
            on = Counter(itertools.chain.from_iterable(map(holders.get, live & fibres)))
            ruled.update(key for key, n in on.items() if n == touching[key])
        rows.update(key >> 1 for key in crowded if key not in ruled)
    for i in sorted(rows):
        b = bundles[i]
        expected = 1 if i == j else 0
        try:
            entry = calc.c2_pairing(b)
        except InvariantViolationError as exc:
            return i, exc
        if entry != expected:
            return i, CorrespondenceError(
                "duality pairing is not the identity",
                detail={
                    "m": group.char_label(b.index),
                    "n": group.char_label(calc.mark_char),
                    "entry": entry,
                    "expected": expected,
                },
            )
    return None


def _column_walk(group, bundles, calcs):
    """Run `_pair_column` on every column; True when no entry fails."""
    bundles = [by_id(group, b) for b in bundles]
    holders = {}
    for i, b in enumerate(bundles):
        for side, ids in enumerate((b.plus, b.minus)):
            for k in ids:
                holders.setdefault(k, []).append(2 * i + side)
    return all(_pair_column(group, bundles, calcs[v], holders, j) is None
               for j, v in enumerate(sorted(calcs)))


def _mixed_ruling_entries(group, bundles, calcs):
    """(surface vertex, bundle vertex) off the diagonal where a side's support
    characters, two or more, are all fibres but of two different rulings."""
    out = set()
    for v, calc in calcs.items():
        slot = {k: r for r, ids in enumerate(calc.rulings().values()) for k in ids}
        for b in map(functools.partial(by_id, group), bundles):
            for side in (b.plus, b.minus):
                live = [k for k in side if k in calc.support]
                if b.vertex != v and len(live) > 1 and all(k in slot for k in live) \
                        and len({slot[k] for k in live}) > 1:
                    out.add((v, b.vertex))
    return out


def test_pairing_calls_match_both_oracles_on_every_ruling_run(monkeypatch):
    """On every spec of `_ruling_runs`, the stage's `c2_pairing` calls are
    the entries of `_paired_entries(..., ruled=True)` and the rows of the
    column walk it replaced, each once: a side's own row is paired only on
    the diagonal.  A side whose support characters are fibres of two
    different rulings of a surface is paired there."""
    mixed = 0
    for spec, art in _ruling_runs():
        g, calcs = art.group, surface_calculators(art)
        calls = _pairing_calls(monkeypatch)
        assert duality_matrix(g, art.bundles, calcs) == len(calcs), spec
        walked = list(calls)
        calls.clear()
        assert _column_walk(g, art.bundles, calcs), spec
        assert sorted(walked) == sorted(calls), spec
        monkeypatch.undo()
        assert len(set(walked)) == len(walked), spec
        assert set(walked) == _paired_entries(art.charts, art.bundles, calcs, ruled=True), spec
        entries = _mixed_ruling_entries(g, art.bundles, calcs)
        assert entries <= set(walked), spec
        mixed += len(entries)
    assert mixed > 0


def test_a_non_fibre_character_held_twice_is_still_paired(run30, monkeypatch):
    """A side holding one support character twice is paired, unless that
    character is a fibre multiple; the outcome is the oracles'."""
    g, calcs = run30.group, surface_calculators(run30)
    seen = set()
    for v, calc in calcs.items():
        fibres = set().union(*calc.rulings().values())
        for k, b in enumerate(run30.bundles):
            if b.vertex == v or not _short_side(calc, by_id(g, b).minus):
                continue
            for x in sorted(calc.support):
                fibre = x in fibres
                alpha, d = calc._restriction(x)
                if fibre in seen or bool(intmat.vec_dot(alpha, d)) is fibre:
                    continue  # one of each, and a non-fibre one of nonzero square
                seen.add(fibre)
                bundles = list(run30.bundles)
                x = g.characters()[x]
                bundles[k] = VirtualBundle(b.index, b.vertex, (x, x), b.minus)
                calls = _pairing_calls(monkeypatch)
                got = _duality_outcome(_walked_identity, g, bundles, calcs)
                assert ((v, b.vertex) in calls) is not fibre, (v, x)
                monkeypatch.undo()
                for oracle in ORACLES:
                    assert got == _duality_outcome(oracle, g, bundles, calcs)
                if not fibre:
                    assert got[0] == "duality pairing is not the identity"
    assert seen == {True, False}


def test_unequal_degrees_on_an_opposite_pair_still_raise(run30, monkeypatch):
    """A fibre character of a skipped entry given unequal degrees on its
    opposite pair leaves every ruling: the entry is paired and fails on
    restriction, with the oracles' message, detail and row."""
    g, art = run30.group, run30
    calcs = surface_calculators(art)
    paired = _paired_entries(art.charts, art.bundles, calcs, ruled=True)
    v, w = min(_paired_entries(art.charts, art.bundles, calcs, ruled=False) - paired)
    b = next(b for b in art.bundles if b.vertex == w)
    side = next(side for side in (b.plus, b.minus)
                if not _short_side(calcs[v], map(g.char_id, side)))
    chi = next(c for c in side if g.char_id(c) in calcs[v].support)
    k, l = next(pair for pair, ids in calcs[v].rulings().items() if g.char_id(chi) in ids)
    columns = [dict(column) for column in art.charts._degree]
    columns[calcs[v].surface.edge_ids[l]][g.char_id(chi)] += 1
    doctored = dict(SurfaceCalculators(SimpleNamespace(_degree=columns, group=g), art.surfaces,
                                       art.decoration))
    raised = []
    original = SurfaceCalculus.c2_pairing

    def spied(self, bundle):
        try:
            return original(self, bundle)
        except InvariantViolationError:
            raised.append((bundle.vertex, self.surface.vertex))
            raise

    monkeypatch.setattr(SurfaceCalculus, "c2_pairing", spied)
    got = _duality_outcome(_walked_identity, g, art.bundles, doctored)
    first = min(raised)
    assert (w, v) in raised
    assert got == ("degree vector is not realised by a divisor class",
                   {"vertex": first[1], "character": chi})
    for oracle in ORACLES:
        raised.clear()
        assert _duality_outcome(oracle, g, art.bundles, doctored) == got, oracle.__name__
        assert raised == [first], oracle.__name__


def test_duality_stage_keeps_one_calculator_alive(monkeypatch):
    """Every `c2_pairing` call of the stage sees only its own calculator alive."""
    art = run_pipeline("1/101(1,2,98)", which="relations")
    alive = weakref.WeakSet()
    seen = []
    init, pairing = SurfaceCalculus.__init__, SurfaceCalculus.c2_pairing

    def tracked_init(self, *args):
        init(self, *args)
        alive.add(self)

    def tracked_pairing(self, bundle):
        seen.append(len(alive))
        return pairing(self, bundle)

    monkeypatch.setattr(SurfaceCalculus, "__init__", tracked_init)
    monkeypatch.setattr(SurfaceCalculus, "c2_pairing", tracked_pairing)
    pipeline._check_duality(art)
    assert art.duality and len(seen) >= len(art.surfaces)
    assert max(seen) == 1
    assert len(alive) == 0


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
    cid = C.group.char_id
    for k, (chi, j) in enumerate(peeled):
        column = C._degree[j]
        assert column[cid(chi)] == 1
        assert all(column.get(cid(later), 0) == 0 for later, _ in peeled[k + 1:])
    columns = [[column.get(cid(chi), 0) for chi in basis] for column in C._degree]
    assert intmat.columns_generate_full_lattice(columns, len(basis))
    assert peeled == _character_keyed_peel(C, basis)


def _character_keyed_peel(chart_set, basis_chars):
    """The peel on degree columns keyed by character: the oracle of `unitriangular_peel`."""
    chars = chart_set.group.characters()
    live = set(basis_chars)
    columns = [{chars[k]: q for k, q in column.items()} for column in chart_set._degree]
    count = [0] * len(columns)
    columns_of = {chi: [] for chi in live}
    for j, column in enumerate(columns):
        for chi in column:
            if chi in live:
                count[j] += 1
                columns_of[chi].append(j)
    ready = [j for j in reversed(range(len(columns))) if count[j] == 1]
    peeled = []
    while ready:
        j = ready.pop()
        if count[j] != 1:
            continue
        chi = next(c for c in columns[j] if c in live)
        if columns[j][chi] != 1:
            continue
        live.remove(chi)
        peeled.append((chi, j))
        for k in columns_of[chi]:
            count[k] -= 1
            if count[k] == 1:
                ready.append(k)
    return peeled


class _DegreeColumns:
    """Chart-set stand-in given by its degree matrix, one list per edge column."""

    def __init__(self, chars, columns):
        ids = {c: k for k, c in enumerate(chars)}
        self.group = SimpleNamespace(char_id=ids.__getitem__, characters=lambda: chars)
        self._degree = tuple({ids[c]: d for c, d in zip(chars, col) if d} for col in columns)


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
