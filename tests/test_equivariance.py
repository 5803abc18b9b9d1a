"""Equivariance: permuted coordinates and rescaled generators give the same artifacts.

The A-Hilb fan, the chart tables and the relations are canonical, so
permuting the coordinates of a spec permutes them, and `1/r(ka,kb,kc)`
with gcd(k, r) = 1 is the same group as `1/r(a,b,c)`, so it gives the
same artifacts.  Neither fact rests on a check in the package, so both
are oracles for all of them.  Ids and triangle order change under a
permutation, so artifacts are compared once mapped, not as JSON bytes.

One convention is not equivariant: at a dP6 vertex `_dp6_marks` orders
its two marks by canonical representative, so which one lands in the
partition's "second" bucket can change under a permutation.  The marks
themselves, as a set, do not.
"""

import itertools
import random
import re
from math import gcd

from ahilb.pipeline import run_pipeline
from test_acceptance import _cyclic_family_runs

SAMPLE = 100
PERMUTATIONS = [p for p in itertools.permutations(range(3)) if p != (0, 1, 2)]


def _weights(spec):
    r, a, b, c = map(int, re.fullmatch(r"1/(\d+)\((\d+),(\d+),(\d+)\)", spec).groups())
    return r, (a, b, c)


def _spec(r, w):
    return f"1/{r}({w[0]},{w[1]},{w[2]})"


def _mapped(art, perm, target_group):
    """The artifacts of `art` in the coordinates of a run whose coordinate i
    is `art`'s coordinate perm[i], with characters reduced in `target_group`."""
    def point(v):
        return tuple(v[p] for p in perm)

    def char(chi):
        return target_group.reduce(point(chi))

    T, C, D = art.triangulation, art.charts, art.decoration
    chars = art.group.characters()
    charts = {}
    for tri, graph in zip(T.triangles, C.agraphs):
        table = {char(chi): point(m) for chi, m in zip(chars, graph.table)}
        charts[frozenset(map(point, tri.vertices))] = (table, frozenset(map(point, graph.socle)))
    marks = {
        point(v): (vm.case, vm.valency, frozenset(map(char, vm.marks)), sorted(map(char, vm.rhs)))
        for v, vm in D.vertex_marks.items()
    }
    relations = {
        point(rel.vertex): (rel.case, sorted(map(char, rel.lhs)), sorted(map(char, rel.rhs)))
        for rel in art.relations
    }
    partition = {name: set(map(char, bucket)) for name, bucket in D.partition.items()}
    dp6 = {char(chi) for vm in D.vertex_marks.values() if vm.case == "dP6" for chi in vm.marks}
    return charts, marks, relations, partition, dp6


def _assert_equivariant(art, image, perm):
    """`image` is the run of `art`'s spec with coordinate i read from `art`'s perm[i]."""
    assert art.report.passed and image.report.passed, image.spec_text
    want = _mapped(art, perm, image.group)
    got = _mapped(image, (0, 1, 2), image.group)
    for name, w, g in zip(("charts", "vertex marks", "relations"), want, got):
        assert w == g, (image.spec_text, name)
    (w_part, w_dp6), (g_part, g_dp6) = want[3:], got[3:]
    assert w_dp6 == g_dp6, image.spec_text
    for bucket in w_part:
        assert w_part[bucket] ^ g_part[bucket] <= g_dp6, (image.spec_text, bucket)
    return w_part != g_part


def test_permuted_and_rescaled_specs_give_the_same_artifacts():
    """A seeded sample of the order-<=30 family, each spec under one
    coordinate permutation and one unit rescale."""
    runs, _ = _cyclic_family_runs()
    rng = random.Random(10)
    specs = rng.sample(sorted(s for s in runs if _weights(s)[0] > 2), SAMPLE)
    moved_partitions = 0
    for spec in specs:
        art = runs[spec]
        r, w = _weights(spec)
        perm = rng.choice(PERMUTATIONS)
        image = run_pipeline(_spec(r, [w[p] for p in perm]), which="relations")
        moved_partitions += _assert_equivariant(art, image, perm)
        k = rng.choice([k for k in range(2, r) if gcd(k, r) == 1])
        image = run_pipeline(_spec(r, [k * x % r for x in w]), which="relations")
        assert not _assert_equivariant(art, image, (0, 1, 2)), image.spec_text
    # the dP6 convention shows up in the sample, so the allowance is exercised
    assert moved_partitions > 0
