import itertools
import random
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from ahilb import group, intmat
from ahilb.charts import ChartSet
from ahilb.errors import InputError, InvariantViolationError, ResourceLimitError
from ahilb.fan import triangulate
from ahilb.group import build_group, least_multiple, parse_group_spec, ratio_split
from test_acceptance import _cyclic_family_runs, _cyclic_family_up_to_30
from test_fan import _differential_specs


def test_parse_cyclic():
    spec = parse_group_spec("1/11(1,2,8)")
    assert spec.generators == ((11, (1, 2, 8)),)
    assert spec.text() == "1/11(1,2,8)"


def test_parse_product_and_whitespace():
    spec = parse_group_spec(" 1/3(1,2,0) ; 1/3(0,1,2) ")
    assert len(spec.generators) == 2


def test_parse_trivial():
    assert parse_group_spec("1").generators == ()
    assert build_group("1").order == 1


@pytest.mark.parametrize("bad", ["1/11(1,2,9)", "1/4(1,1,1)", "1/2(1,0,0)"])
def test_determinant_condition_rejected(bad):
    with pytest.raises(InputError):
        parse_group_spec(bad)


@pytest.mark.parametrize("bad", ["11(1,2,8)", "1/0(0,0,0)", "1/4(1,-1,0)", "1/4(1,4,3)", "", "   "])
def test_malformed_rejected(bad):
    with pytest.raises(InputError):
        parse_group_spec(bad)


def test_order_cap():
    with pytest.raises(ResourceLimitError):
        build_group("1/1009(1,2,1006)", max_order=1000)


def test_cyclic_11_elements():
    g = build_group("1/11(1,2,8)")
    assert g.order == 11
    expected = sorted(tuple((k * w) % 11 for w in (1, 2, 8)) for k in range(11))
    assert g.elements == expected


def test_product_closure_order_9():
    g = build_group("1/3(1,2,0);1/3(0,1,2)")
    assert g.order == 9
    # oracle: brute-force closure inside (Z/3)^3
    gens = [(1, 2, 0), (0, 1, 2)]
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    while frontier:
        e = frontier.pop()
        for h in gens:
            f = tuple((a + b) % 3 for a, b in zip(e, h))
            if f not in seen:
                seen.add(f)
                frontier.append(f)
    assert len(seen) == 9
    scaled = sorted(tuple(3 * x for x in e) for e in seen)
    assert g.elements == scaled
    assert not g.is_cyclic


def test_junior_points_11():
    g = build_group("1/11(1,2,8)")
    juniors = g.junior_points()
    oracle = sorted(
        tuple((k * w) % 11 for w in (1, 2, 8))
        for k in range(1, 11)
        if sum((k * w) % 11 for w in (1, 2, 8)) == 11
    )
    assert sorted(juniors) == oracle
    assert len(juniors) == 5
    assert all(min(p) > 0 for p in juniors)


def test_junior_point_on_edge():
    g = build_group("1/2(1,1,0)")
    assert g.junior_points() == [(1, 1, 0)]


def test_trivial_group_junior_empty():
    assert build_group("1").junior_points() == []


def test_ages():
    g = build_group("1/11(1,2,8)")
    assert g.age((0, 0, 0)) == 0
    assert g.age((1, 2, 8)) == 1
    counts = g.age_counts()
    assert counts == {0: 1, 1: 5, 2: 5}


def test_age_counts_sum_to_order():
    for spec in ["1/11(1,2,8)", "1/30(25,2,3)", "1/3(1,2,0);1/3(0,1,2)", "1/2(1,1,0)"]:
        g = build_group(spec)
        counts = g.age_counts()
        assert counts[0] == 1
        assert counts[0] + counts[1] + counts[2] == g.order


def test_weights_match_example():
    g = build_group("1/11(1,2,8)")
    w = g.weight
    assert w((2, 0, 0)) == w((0, 1, 0)) == w((0, 0, 3))
    assert g.char_label(w((0, 1, 0))) == "χ2"


def test_xyz_invariant():
    for spec in ["1/11(1,2,8)", "1/30(25,2,3)", "1/3(1,2,0);1/3(0,1,2)"]:
        g = build_group(spec)
        assert g.is_invariant((1, 1, 1))


def test_weight_x_30():
    g = build_group("1/30(25,2,3)")
    assert g.char_label_index(g.weight((1, 0, 0))) == 25


def test_character_count_by_box_enumeration():
    for spec in ["1/11(1,2,8)", "1/30(25,2,3)", "1/3(1,2,0);1/3(0,1,2)", "1/2(1,1,0)"]:
        g = build_group(spec)
        # oracle: count residues of a large exponent box modulo the invariants
        reps = {g.reduce((i, j, k)) for i in range(6) for j in range(6) for k in range(g.order + 3)}
        assert len(reps) == len(g.characters()) == g.order


def test_reduction_canonical():
    g = build_group("1/30(25,2,3)")
    rng = random.Random(7)
    for _ in range(200):
        m = tuple(rng.randrange(-60, 60) for _ in range(3))
        coeffs = [rng.randrange(-3, 4) for _ in range(3)]
        shift = [
            sum(coeffs[i] * g.dual_basis[i][j] for i in range(3)) for j in range(3)
        ]
        m2 = tuple(a + b for a, b in zip(m, shift))
        assert g.reduce(m) == g.reduce(m2)
        diff = tuple(a - b for a, b in zip(m, m2))
        assert g.is_invariant(diff)


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)),
    st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)),
)
def test_weight_multiplicative(m1, m2):
    g = build_group("1/30(25,2,3)")
    prod = tuple(a + b for a, b in zip(m1, m2))
    assert g.weight(prod) == g.char_sum([g.weight(m1), g.weight(m2)])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 24), st.integers(0, 23), st.integers(0, 23))
def test_random_cyclic_groups_consistent(r, a, b):
    a, b = a % r, b % r
    c = (-a - b) % r
    g = build_group(f"1/{r}({a},{b},{c})")
    assert g.order == r // __import__("math").gcd(r, __import__("math").gcd(a, __import__("math").gcd(b, c)))
    counts = g.age_counts()
    assert counts[0] + counts[1] + counts[2] == g.order
    # distinct characters biject with elements
    assert len(g.characters()) == g.order


def test_in_lattice():
    """Membership in the scaled lattice: the least multiple against the dual rows is 1."""
    g = build_group("1/11(1,2,8)")

    def in_lattice(point):
        return least_multiple(g.order, point, g.dual_basis) == 1

    assert in_lattice((1, 2, 8))
    assert in_lattice((12, 13, 19))  # (1,2,8) + 11*(1,1,1)
    assert in_lattice((-10, 2, 8))
    assert not in_lattice((1, 2, 7))
    assert in_lattice((0, 0, 11)) and in_lattice((0, 0, 0))


def test_char_labels_non_cyclic():
    g = build_group("1/3(1,2,0);1/3(0,1,2)")
    labels = {g.char_label(c) for c in g.characters()}
    assert len(labels) == 9
    assert all(l.startswith("χ(") for l in labels)


def test_equal_groups_from_different_generators():
    # 1/5(1,2,2) and 1/5(2,4,4) generate the same subgroup
    g1 = build_group("1/5(1,2,2)")
    g2 = build_group("1/5(2,4,4)")
    assert g1.elements == g2.elements
    assert g1.dual_basis == g2.dual_basis


# The closure search, rescale and kernel solve that `build_group` ran before
# it read every lattice off the HNF of the scaled lattice, and the lattices of
# every element one by one: the oracles of the tests below.


def _left_kernel(rows):
    """Basis of {x : x @ rows == 0}: the rows of `hnf_transform`'s U past the rank."""
    _, U, r = intmat.hnf_transform(rows)
    return [tuple(u) for u in U[r:]]


def _closure_elements(spec):
    """|A| and the sorted elements scaled by |A|, by closure at the lcm L of the declared orders."""
    L = lcm(*(r for r, _ in spec.generators))
    gens = [tuple((L // r) * a for a in w) for r, w in spec.generators]
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    while frontier:
        e = frontier.pop()
        for h in gens:
            f = tuple((a + b) % L for a, b in zip(e, h))
            if f not in seen:
                seen.add(f)
                frontier.append(f)
    order = len(seen)
    assert all(a * order % L == 0 for e in seen for a in e)
    return order, sorted(tuple(a * order // L for a in e) for e in seen)


def _kernel_invariant_lattice(generators, order):
    """HNF rows of {m : m . g == 0 mod |A| for every g}: the kernel of [generators | |A| I]."""
    gens = [h for h in generators if any(h)]
    if not gens:
        return [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rows = [[h[i] for h in gens] for i in range(3)]
    rows += [[order if j == i else 0 for j in range(len(gens))] for i in range(len(gens))]
    return [tuple(r) for r in intmat.hnf_rows([v[:3] for v in _left_kernel(rows)])]


def _all_elements_scaled_lattice(g):
    r = g.order
    return [tuple(row) for row in intmat.hnf_rows([(r, 0, 0), (0, r, 0), (0, 0, r)] + g.elements)]


def _reduced_box_characters(g):
    """Every point of the dual pivots' box reduced, deduplicated and sorted."""
    H = g.dual_basis
    box = itertools.product(range(H[0][0]), range(H[1][1]), range(H[2][2]))
    reps = sorted({g.reduce(m) for m in box})
    if g.is_cyclic:
        reps.sort(key=g.char_label_index)
    return reps


def _searched_distinguished(spec, elements, order):
    """The first generator of full declared and true order, else the least element of order |A|."""
    def full(e):
        return gcd(*e, order) == 1

    for r, w in spec.generators:
        if r == order and full(w):
            return w
    return next((e for e in elements if full(e)), None)


def test_lattices_from_generators_match_all_elements():
    specs = _cyclic_family_up_to_30() + _SWEEP_PRODUCTS + [
        "1/3(1,2,0);1/3(0,1,2)",
        "1/4(2,2,0)",
        "1/5(0,0,0)",
        "1/7(1,2,4);1/7(1,2,4)",
        "1/2(1,1,0);1/2(0,1,1)",
        "1/6(1,2,3);1/3(1,1,1)",
        "1/4(1,1,2);1/2(1,1,0);1/2(0,1,1)",
        # (6,3,3)/12 has order 4, so the lcm 60 of the declared orders does not divide |A|
        "1/12(6,3,3);1/10(1,6,3)",
    ]
    for spec in specs:
        g = build_group(spec)
        order, elements = _closure_elements(g.spec)
        assert (g.order, g.elements) == (order, elements), spec
        assert g.dual_basis == _kernel_invariant_lattice(g.scaled_generators, order), spec
        assert g.dual_basis == _kernel_invariant_lattice(g.elements, order), spec
        B = group._scaled_lattice(g.scaled_generators, g.order)
        assert B == _all_elements_scaled_lattice(g), spec
        assert g.distinguished == _searched_distinguished(g.spec, elements, order), spec
        assert g.characters() == _reduced_box_characters(g), spec
    assert build_group("1/12(6,3,3);1/10(1,6,3)").order == 40


def test_wrong_invariant_lattice_index_is_rejected(monkeypatch):
    unit = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    monkeypatch.setattr(group, "_invariant_lattice", lambda adj, order: unit)
    with pytest.raises(InputError) as err:
        build_group("1/11(1,2,8)")
    assert str(err.value) == "invariant lattice index does not equal the group order"
    assert err.value.detail == {"order": 11, "det": 1}


def test_adjugate_not_divisible_by_the_order_is_rejected():
    # adj of the basis of 11*N over 22, as if the scaled lattice had det 22^2
    adj, det = build_group("1/11(1,2,8)").lattice_inverse
    assert det == 121
    with pytest.raises(InvariantViolationError) as err:
        group._invariant_lattice(adj, 22)
    assert str(err.value) == "adjugate of the scaled lattice is not divisible by the group order"
    assert err.value.detail == {"order": 22, "columns": [[121, 0, 0], [-22, 11, 0], [-88, 0, 11]]}


# The loop `reduce` and the generator-expression `ratio_split` that the
# unrolled triples replaced: the oracles of the two tests below.


def _oracle_reduce(g, exponents):
    v = list(exponents)
    H = g.dual_basis
    for i in range(3):
        p = H[i][i]
        q = v[i] // p
        if q:
            for j in range(3):
                v[j] -= q * H[i][j]
    return (v[0], v[1], v[2])


def _oracle_ratio_split(u):
    plus = tuple(x if x > 0 else 0 for x in u)
    minus = tuple(-x if x < 0 else 0 for x in u)
    return plus, minus


# the four non-cyclic products of the benchmark's seed-0 sweep-small pass
_SWEEP_PRODUCTS = [
    "1/12(4,7,1);1/3(1,0,2)",
    "1/18(15,17,4);1/2(0,1,1)",
    "1/4(0,1,3);1/12(2,3,7)",
    "1/5(3,1,1);1/10(5,7,8)",
]


def test_reduce_matches_the_loop_oracle():
    """On exponents in [-2|A|, 2|A|]^3 and on every chart-table generator.

    The groups are the fan's differential specs and the sweep products.
    """
    runs, _ = _cyclic_family_runs()
    rng = random.Random(20)
    for spec in _differential_specs() + _SWEEP_PRODUCTS:
        C = runs[spec].charts if spec in runs else ChartSet(triangulate(build_group(spec)))
        g = C.group
        r = 2 * g.order
        for _ in range(60):
            m = (rng.randint(-r, r), rng.randint(-r, r), rng.randint(-r, r))
            assert g.reduce(m) == _oracle_reduce(g, m), (g, m)
        for m in set().union(*(a.table for a in C.agraphs)):
            assert g.reduce(m) == _oracle_reduce(g, m), (g, m)
        for line in C.triangulation.lines:
            assert ratio_split(line.u) == _oracle_ratio_split(line.u), (g, line.u)


def test_ratio_split_matches_the_generator_oracle():
    rng = random.Random(21)
    for _ in range(500):
        u = tuple(rng.choice([0, rng.randint(-40, 40), -(2**65), 2**65]) for _ in range(3))
        assert ratio_split(u) == _oracle_ratio_split(u), u
