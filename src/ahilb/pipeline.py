"""End-to-end orchestration and the verification report.

A run walks the stage table `STAGES` in order and stops after the last
check of the requested family (`--check`); later stages neither run nor
build their artifacts, so their `Artifacts` fields stay None.  The check
families are contiguous slices of the table, so that prefix is exactly
what the requested checks depend on.  Stages before the family still run
and are enforced, but are reported as skipped.  Construction-time
invariant failures surface through the owning check (those of `ChartSet`,
including support-function convexity and the curve degrees, through
`decoration`), and a failure ends the run.  Every stage is a function
of `art` alone and no check samples at random, so a spec always gives the
same report.

Each fact is checked once, in the stage the report names for it: the
regular partition's area, the fan's vertex set and Euler counts in `euler`,
unimodular triangles in `basic`, the line table in `ratios` (each ratio
vanishes on its line, has equally weighted monomials, and is invariant
and minimal; every chart coordinate and side ratio is read off this
table), chart table sizes in `decoration` (by `ChartSet`), the exact
character cover in `partition`, and a relation's character sums (the
only check that a triple intersection's two marks sum to its three line
characters), its monomial identity on triangle 0's chart and its degree
rows (its virtual bundle's degree zero on every curve) in `relations`,
which together give the identity on every chart.  `certificate` states the result
that `completeness`, `duality` and `h2_basis` proved and checks nothing.
"""

from __future__ import annotations

import time

from . import intmat
from .charts import ChartSet
from .cohomology import (
    SurfaceCalculators,
    build_surfaces,
    build_virtual_bundles,
    duality_matrix,
    h2_basis_check,
    mckay_certificate,
)
from .errors import AHilbError, CorrespondenceError, InputError, InvariantViolationError
from .fan import simplex_corners, triangulate
from .group import DEFAULT_MAX_ORDER, MONO_ONE, build_group, least_multiple, parse_group_spec
from .recipe import champion_identities, corner_region_characters, decorate, quiver_embedding
from .record import Record
from .relations import (
    check_bundle_degrees,
    completeness_check,
    derive_relations,
    verify_all_relations,
)

# Each family is a contiguous slice of ALL_CHECKS, in table order (see STAGES).
CHECK_GROUPS = {
    "fan": ("euler", "basic", "ratios"),
    "recipe": ("decoration", "partition", "quiver"),
    "relations": ("relations", "completeness"),
    "cohomology": ("duality", "h2_basis"),
}


class RunReport(Record):
    __slots__ = ("spec", "counts", "checks", "timings", "failure")

    def __init__(self, spec, counts=None, checks=None, timings=None, failure=None):
        self.spec = spec
        self.counts = {} if counts is None else counts
        self.checks = {} if checks is None else checks
        self.timings = {} if timings is None else timings  # console only, never serialized
        self.failure = failure  # or the failing check's record

    @property
    def passed(self):
        return self.failure is None and all(
            c["status"] != "fail" for c in self.checks.values()
        )


class Artifacts(Record):
    __slots__ = ("spec_text", "group", "triangulation", "charts", "decoration", "quiver",
                 "relations", "surfaces", "bundles", "duality", "h2", "certificate", "report")

    def __init__(self, spec_text, group, triangulation=None, charts=None, decoration=None,
                 quiver=None, relations=None, surfaces=None, bundles=None, duality=None,
                 h2=None, certificate=None, report=None):
        self.spec_text = spec_text
        self.group = group
        self.triangulation = triangulation
        self.charts = charts
        self.decoration = decoration
        self.quiver = quiver
        self.relations = relations
        self.surfaces = surfaces  # interior vertex -> CompactSurface
        self.bundles = bundles
        self.duality = duality  # b4: the pairing is the b4 x b4 identity
        self.h2 = h2
        self.certificate = certificate
        self.report = report


def checks_for(which):
    if which == "all":
        return ALL_CHECKS
    if which in CHECK_GROUPS:
        return CHECK_GROUPS[which]
    raise InputError(f"unknown check group {which!r}; use {'|'.join(['all', *CHECK_GROUPS])}")


def run_pipeline(spec, which="all", max_order=DEFAULT_MAX_ORDER) -> Artifacts:
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    requested = checks_for(which)
    report = RunReport(
        spec.text(), checks={name: {"status": "skipped", "detail": {}} for name in ALL_CHECKS}
    )
    group = build_group(spec, max_order=max_order)
    art = Artifacts(spec.text(), group, report=report)
    for name, fn in STAGES[: ALL_CHECKS.index(requested[-1]) + 1]:
        t0 = time.perf_counter()
        try:
            detail = fn(art)
        except AHilbError as exc:
            report.timings[name] = time.perf_counter() - t0
            report.checks[name] = {"status": "fail", "detail": {"error": str(exc), **exc.detail}}
            report.failure = {"check": name, "error": str(exc), "detail": exc.detail}
            break
        report.timings[name] = time.perf_counter() - t0
        status = "pass" if name in requested else "skipped"
        report.checks[name] = {"status": status, "detail": detail or {}}
    report.counts = _counts(art)
    return art


def _counts(art):
    ages = art.group.age_counts()
    counts = {"order": art.group.order, "junior": ages[1], "age2": ages[2]}
    T = art.triangulation
    if T is not None:
        counts["triangles"] = len(T.triangles)
        counts["interior_vertices"] = len(T.interior_vertices)
        counts["boundary_vertices"] = len(T.boundary_vertices)
        counts["edges"] = len(T.edges)
        counts["lines"] = len(T.lines)
        counts["regular_triangles"] = len(T.regular_triangles)
        # a passing certificate has b2/b4 equal to the age counts
        counts["b2"] = ages[1]
        counts["b4"] = ages[2]
    return counts


def _build_fan(art):
    """Vertices are exactly the corners and the junior points; |A| triangles, 2I + B - 2 = |A|."""
    g = art.group
    art.triangulation = T = triangulate(g)
    order = g.order
    points, expected = set(T.points), set(simplex_corners(order)).union(g.junior_points())
    if points != expected:
        raise InvariantViolationError(
            "fan vertices differ from the simplex lattice points",
            detail={"missing": sorted(expected - points), "extra": sorted(points - expected)},
        )
    I = len(T.interior_vertices)
    B = len(T.boundary_vertices)
    counts = {"triangles": len(T.triangles), "interior": I, "boundary": B}
    if len(T.triangles) != order or 2 * I + B - 2 != order:
        raise InvariantViolationError("euler counts failed", detail=counts)
    return counts


def _check_basic(art):
    T = art.triangulation
    order = art.group.order
    for t in T.triangles:
        if abs(intmat.det3(list(t.vertices))) != order * order:
            raise InvariantViolationError("non-basic triangle", detail={"triangle": t.vertices})
    return {"triangles": len(T.triangles)}


def _check_ratios(art):
    """The character map, then the minimality certificate of every line label.

    Every dual basis row must pair to 0 mod |A| with every generator.
    `build_group` has checked that the rows span a sublattice of index |A|,
    so they then span exactly the invariant lattice, and `weight` is the
    character homomorphism Z^3 -> A^ on every monomial.  The line checks
    read `weight`, so this check comes first.

    An invariant u has no invariant proper root exactly when its content is
    the `least_multiple` of u/content(u) against the generators, which cut
    out M by the pairing into Z/|A| as the dual rows cut out the scaled lattice.
    """
    T = art.triangulation
    g = art.group
    for row in g.dual_basis:
        for gen in g.scaled_generators:
            if intmat.vec_dot(row, gen) % g.order:
                raise InvariantViolationError(
                    "weights are not multiplicative", detail={"row": row, "generator": gen}
                )
    for li, ln in enumerate(T.lines):
        u = ln.u
        where = {"line": li, "ratio": u}
        a, b = ln.endpoints
        if intmat.vec_dot(u, a) or intmat.vec_dot(u, b):
            raise InvariantViolationError("ratio does not vanish on its line", detail=where)
        if g.weight(ln.plus) != g.weight(ln.minus):
            raise InvariantViolationError("ratio monomials differ in weight", detail=where)
        if not g.is_invariant(u):
            raise InvariantViolationError("ratio is not invariant", detail=where)
        c = intmat.content(u)
        if not c or c != least_multiple(g.order, [x // c for x in u], g.scaled_generators):
            raise InvariantViolationError("ratio is not the minimal invariant relation",
                                          detail=where)
    corner_regions = 0
    for ri, reg in enumerate(T.regular_triangles):
        if reg.kind == "corner":
            corner_region_characters(T, ri)
            corner_regions += 1
        else:
            champion_identities(T, ri)
    return {"lines": len(T.lines), "corner_regions": corner_regions,
            "characters": len(g.characters())}


def _build_decoration(art):
    art.charts = ChartSet(art.triangulation)
    art.decoration = decorate(art.triangulation, art.charts)
    detail = _check_chart_properties(art)
    detail["vertices"] = len(art.decoration.vertex_marks)
    return detail


def _check_chart_properties(art):
    """The degree-one property of marked lines.

    `ChartSet` checks each table's size, division closure and minimality as
    it builds it, and support-function convexity and the transition across
    every interior edge as it crosses that edge, which also gives the
    edge's degrees; so they fail this stage too.
    """
    T = art.triangulation
    C = art.charts
    interior = T.interior_edges
    for ei in interior:
        e = T.edges[ei]
        if C.degree_on_curve(T.lines[e.line].character, ei) != 1:
            raise InvariantViolationError(
                "marked line without degree one", detail={"edge": (e.a, e.b)}
            )
    return {"interior_edges": len(interior)}


def _check_partition(art):
    """Exact cover: line, vertex and second marks take each nontrivial character once."""
    g = art.group
    part = art.decoration.partition
    sizes = {k: len(v) for k, v in part.items()}
    expected_vertex = len(art.decoration.vertex_marks)
    if sizes["vertex"] != expected_vertex:
        raise CorrespondenceError(
            "vertex marks are not pairwise distinct",
            detail={"marked": sizes["vertex"], "vertices": expected_vertex},
        )
    trivial = g.reduce(MONO_ONE)
    union = set().union(*part.values())
    nontrivial = set(g.characters()) - {trivial}
    if len(union) != sum(sizes.values()) or union != nontrivial:
        buckets = [set(v) for v in part.values()]
        raise CorrespondenceError(
            "characters do not split into line/vertex/second marks",
            detail={"missing": sorted(nontrivial - union),
                    "duplicated": sorted(c for c in union if sum(c in b for b in buckets) > 1),
                    "trivial_marked": trivial in union},
        )
    return sizes


def _check_quiver(art):
    art.quiver = quiver_embedding(art.charts)
    return {"hexagons": len(art.quiver.placements), "chart": art.quiver.chart}


def _check_relations(art):
    art.relations = derive_relations(art.triangulation, art.decoration)
    verify_all_relations(art.charts, art.relations)
    check_bundle_degrees(art.charts, art.relations)
    return {"relations": len(art.relations)}


def _check_completeness(art):
    return completeness_check(art.triangulation, art.decoration, art.relations)


def _check_duality(art):
    art.surfaces = build_surfaces(art.triangulation, art.decoration)
    art.bundles = build_virtual_bundles(art.group, art.decoration, art.relations)
    # each surface's calculator is built for its column and dropped after it
    calculators = SurfaceCalculators(art.charts, art.surfaces, art.decoration)
    art.duality = duality_matrix(art.group, art.bundles, calculators)
    return {"size": art.duality}


def _check_h2(art):
    art.h2 = h2_basis_check(art.charts, art.decoration)
    return art.h2


def _check_certificate(art):
    art.certificate = mckay_certificate(art.group, art.decoration)
    return art.certificate


# One row per check, in run order.  Each stage builds its artifacts onto
# `art`, checks them, and returns its detail dict.
STAGES = (
    ("euler", _build_fan),
    ("basic", _check_basic),
    ("ratios", _check_ratios),
    ("decoration", _build_decoration),
    ("partition", _check_partition),
    ("quiver", _check_quiver),
    ("relations", _check_relations),
    ("completeness", _check_completeness),
    ("duality", _check_duality),
    ("h2_basis", _check_h2),
    ("certificate", _check_certificate),
)
ALL_CHECKS = tuple(name for name, _ in STAGES)
