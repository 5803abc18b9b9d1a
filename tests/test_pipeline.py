import re
import traceback
from pathlib import Path

import pytest

import ahilb.pipeline as pipeline
import ahilb.recipe as recipe
from ahilb import cli, intmat
from ahilb.errors import CorrespondenceError, InputError
from ahilb.fan import simplex_corners, triangulate
from ahilb.group import AbelianGroup, build_group
from ahilb.pipeline import ALL_CHECKS, CHECK_GROUPS, checks_for, run_pipeline
from conftest import replaced


def test_check_families_are_ordered_slices_of_the_stage_table():
    # the run stops after the family's last check, which is only sound if
    # each family is a contiguous slice and the families follow table order
    start = 0
    for fam, names in CHECK_GROUPS.items():
        i = ALL_CHECKS.index(names[0])
        assert i >= start, fam
        assert ALL_CHECKS[i:i + len(names)] == names, fam
        start = i + len(names)
    assert checks_for("all") == ALL_CHECKS


def test_check_choices_are_the_families():
    """The parser's `--check` choices and the `checks_for` message both come from CHECK_GROUPS."""
    for name in ("compute", "check"):
        sub = cli.build_parser()._subparsers._group_actions[0].choices[name]
        action = next(a for a in sub._actions if a.dest == "check")
        assert action.choices == ["all", *CHECK_GROUPS]
    with pytest.raises(InputError) as err:
        checks_for("fans")
    assert str(err.value) == "unknown check group 'fans'; use all|fan|recipe|relations|cohomology"


def test_fan_family_stops_after_the_fan():
    art = run_pipeline("1/11(1,2,8)", which="fan")
    assert art.triangulation is not None
    assert art.charts is None and art.decoration is None
    checks, timings = art.report.checks, art.report.timings
    assert list(checks) == list(ALL_CHECKS)
    for name in ("euler", "basic", "ratios"):
        assert checks[name]["status"] == "pass"
        assert name in timings
    for name in ALL_CHECKS[3:]:
        assert checks[name] == {"status": "skipped", "detail": {}}
        assert name not in timings
    assert art.report.passed
    assert art.report.counts["triangles"] == 11


def test_recipe_family_builds_the_quiver_but_no_relations():
    art = run_pipeline("1/11(1,2,8)", which="recipe")
    assert art.quiver is not None and art.charts is not None
    assert art.relations is None
    checks = art.report.checks
    assert checks["euler"]["status"] == "skipped"
    assert checks["euler"]["detail"]["triangles"] == 11  # ran, not reported
    assert checks["quiver"]["status"] == "pass"
    assert checks["relations"] == {"status": "skipped", "detail": {}}


def test_all_times_every_stage():
    art = run_pipeline("1/11(1,2,8)")
    assert list(art.report.timings) == list(ALL_CHECKS)
    assert all(c["status"] == "pass" for c in art.report.checks.values())


def test_failure_ends_the_run(monkeypatch):
    def broken(*args):
        raise CorrespondenceError("broken decoration", detail={"why": "test"})

    monkeypatch.setattr(pipeline, "decorate", broken)
    art = run_pipeline("1/11(1,2,8)")
    checks = art.report.checks
    assert checks["decoration"]["status"] == "fail"
    assert art.report.failure["check"] == "decoration"
    assert list(art.report.timings) == list(ALL_CHECKS[:4])
    for name in ALL_CHECKS[4:]:
        assert checks[name] == {"status": "skipped", "detail": {}}


def test_ratios_rejects_a_dual_basis_that_is_not_invariant(monkeypatch):
    # negative control: one entry off, echelon shape kept, after the fan is built
    corrupted = {}
    triangulate = pipeline.triangulate

    def triangulate_then_corrupt(group):
        T = triangulate(group)
        a, b, c = group.dual_basis[1]
        group.dual_basis[1] = corrupted["row"] = (a, b, c + 1)
        return T

    monkeypatch.setattr(pipeline, "triangulate", triangulate_then_corrupt)
    art = run_pipeline("1/11(1,2,8)", which="fan")
    assert art.report.failure == {
        "check": "ratios",
        "error": "weights are not multiplicative",
        "detail": {"row": corrupted["row"], "generator": (1, 2, 8)},
    }
    assert [art.report.checks[n]["status"] for n in ("basic", "ratios")] == ["pass", "fail"]


def test_pipeline_solves_lattices_only_while_building_the_group(monkeypatch):
    callers = {"solve_int": [], "hnf_transform": []}
    for name, calls in callers.items():
        original = getattr(intmat, name)

        def counted(*args, _calls=calls, _original=original):
            _calls.append({frame.name for frame in traceback.extract_stack()})
            return _original(*args)

        monkeypatch.setattr(intmat, name, counted)
    assert run_pipeline("1/30(25,2,3)").report.passed
    assert callers["solve_int"] == []
    assert callers["hnf_transform"]
    assert all("build_group" in names for names in callers["hnf_transform"])


def test_euler_names_a_vertex_set_that_misses_a_junior_point(monkeypatch):
    # negative control: one junior point more than the fan has
    junior_points = AbelianGroup.junior_points
    monkeypatch.setattr(
        AbelianGroup, "junior_points", lambda self: junior_points(self) + [(1, 1, self.order - 2)]
    )
    art = run_pipeline("1/11(1,2,8)", which="fan")
    assert art.report.failure == {
        "check": "euler",
        "error": "fan vertices differ from the simplex lattice points",
        "detail": {"missing": [(1, 1, 9)], "extra": []},
    }


def test_basic_names_a_non_basic_triangle(monkeypatch):
    # negative control: one triangle's determinant doubled, everything else as built
    target = triangulate(build_group("1/11(1,2,8)")).triangles[3].vertices
    det3 = intmat.det3

    def doubled(m):
        d = det3(m)
        return 2 * d if tuple(map(tuple, m)) == target else d

    monkeypatch.setattr(intmat, "det3", doubled)
    art = run_pipeline("1/11(1,2,8)", which="fan")
    assert art.report.failure == {
        "check": "basic",
        "error": "non-basic triangle",
        "detail": {"triangle": target},
    }
    assert art.report.checks["euler"]["status"] == "pass"


def test_ratios_names_unequal_ratio_weights(monkeypatch):
    # negative control: the weight of one interior line's plus monomial shifted
    T = triangulate(build_group("1/11(1,2,8)"))
    li, plus = next((li, ln.plus) for li, ln in enumerate(T.lines) if ln.kind != "boundary")
    weight = AbelianGroup.weight

    def shifted(self, m):
        return weight(self, (m[0] + 1, m[1], m[2]) if m == plus else m)

    monkeypatch.setattr(AbelianGroup, "weight", shifted)
    art = run_pipeline("1/11(1,2,8)", which="fan")
    assert art.report.failure == {
        "check": "ratios",
        "error": "ratio monomials differ in weight",
        "detail": {"line": li, "ratio": T.lines[li].u},
    }
    assert [art.report.checks[n]["status"] for n in ("euler", "basic")] == ["pass", "pass"]


def _doctored_fan(monkeypatch, doctor):
    """Run the fan family on 1/11(1,2,8) with `doctor(T)` applied to its triangulation."""
    real_triangulate = pipeline.triangulate

    def doctored(group):
        T = real_triangulate(group)
        doctor(T)
        return T

    monkeypatch.setattr(pipeline, "triangulate", doctored)
    return run_pipeline("1/11(1,2,8)", which="fan")


def test_euler_names_the_counts(monkeypatch):
    # negative control: one triangle dropped after the fan is built
    art = _doctored_fan(monkeypatch, lambda T: T.triangles.pop())
    T = art.triangulation
    assert art.report.failure == {
        "check": "euler",
        "error": "euler counts failed",
        "detail": {"triangles": 10, "interior": len(T.interior_vertices),
                   "boundary": len(T.boundary_vertices)},
    }


def _line_with_content(T):
    """Index of a line whose ratio is a proper multiple of a lattice vector."""
    return next(li for li, ln in enumerate(T.lines) if intmat.content(ln.u) > 1)


@pytest.mark.parametrize(
    "error, doctor",
    [
        # an endpoint moved to a simplex corner off the line
        ("ratio does not vanish on its line",
         lambda ln: setattr(ln, "endpoints", (ln.endpoints[0], next(
             c for c in simplex_corners(11) if intmat.vec_dot(ln.u, c))))),
        # the ratio divided by its content: on the line, but a root of the invariant
        ("ratio is not invariant",
         lambda ln: setattr(ln, "u", tuple(x // intmat.content(ln.u) for x in ln.u))),
        # the ratio doubled: invariant, but not minimal
        ("ratio is not the minimal invariant relation",
         lambda ln: setattr(ln, "u", tuple(2 * x for x in ln.u))),
        # the zero ratio: it vanishes everywhere and is invariant, but is no line's relation
        pytest.param("ratio is not the minimal invariant relation",
                     lambda ln: setattr(ln, "u", (0, 0, 0)), id="zero ratio"),
    ],
)
def test_ratios_names_the_line_of_a_broken_ratio(monkeypatch, error, doctor):
    # negative control: the line table doctored after the fan is built
    doctored = []

    def doctor_one(T):
        li = _line_with_content(T)
        doctor(T.lines[li])
        doctored.append((li, T.lines[li].u))

    art = _doctored_fan(monkeypatch, doctor_one)
    li, u = doctored[0]
    assert art.report.failure == {
        "check": "ratios", "error": error, "detail": {"line": li, "ratio": u},
    }
    assert [art.report.checks[n]["status"] for n in ("euler", "basic")] == ["pass", "pass"]


def test_partition_names_a_repeated_vertex_mark(monkeypatch):
    # negative control: the second non-dP6 vertex gets the first one's mark
    seen = []
    mark_vertex = recipe.mark_vertex

    def repeated(*args):
        vm = mark_vertex(*args)
        if vm.case == recipe.CASE_DP6:
            return vm
        seen.append(vm.marks)
        return replaced(vm, marks=seen[0]) if len(seen) == 2 else vm

    monkeypatch.setattr(recipe, "mark_vertex", repeated)
    art = run_pipeline("1/30(25,2,3)", which="recipe")
    failure = art.report.failure
    assert (failure["check"], failure["error"]) == (
        "partition", "vertex marks are not pairwise distinct"
    )
    n = len(art.decoration.vertex_marks)
    assert failure["detail"] == {"marked": n - 1, "vertices": n}
    assert art.report.checks["decoration"]["status"] == "pass"


def test_partition_names_a_character_marked_twice(monkeypatch):
    # negative control: one line character also listed as a second mark
    classify_characters = recipe.classify_characters
    twice = []

    def doubled(*args):
        part = classify_characters(*args)
        twice.append(part["line"][0])
        part["second"] = sorted(part["second"] + twice)
        return part

    monkeypatch.setattr(recipe, "classify_characters", doubled)
    art = run_pipeline("1/11(1,2,8)", which="recipe")
    assert art.report.failure == {
        "check": "partition",
        "error": "characters do not split into line/vertex/second marks",
        "detail": {"missing": [], "duplicated": twice, "trivial_marked": False},
    }


def test_relations_names_a_degree_row_that_breaks_a_relation(monkeypatch):
    # negative control: after the root-chart identities pass, one nonzero
    # degree of a character on one side of a relation is raised by one
    verify_all_relations = pipeline.verify_all_relations
    broken = []

    def verify_then_corrupt(charts, relations):
        verify_all_relations(charts, relations)
        rel = relations[0]
        k = charts.group.char_id(next(c for c in rel.rhs if c not in rel.lhs))
        ei = next(ei for ei, column in enumerate(charts._degree) if k in column)
        charts._degree[ei][k] += 1
        broken.append((rel.vertex, ei))

    monkeypatch.setattr(pipeline, "verify_all_relations", verify_then_corrupt)
    art = run_pipeline("1/11(1,2,8)")
    failure = art.report.failure
    assert broken
    vertex, ei = broken[0]
    e = art.triangulation.edges[ei]
    assert failure == {
        "check": "relations",
        "error": "virtual bundle has nonzero degree on a curve",
        "detail": {"vertex": vertex, "edge": (e.a, e.b)},
    }
    assert art.report.checks["completeness"]["status"] == "skipped"
    assert art.report.checks["duality"]["status"] == "skipped"


def test_readme_names_every_check_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("Check names in the report:")
    paragraph = readme[start:readme.index("\n\n", start)]
    assert tuple(re.findall(r"`(\w+)`\s+\(", paragraph)) == ALL_CHECKS
