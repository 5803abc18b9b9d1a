import traceback

import ahilb.pipeline as pipeline
from ahilb import intmat
from ahilb.errors import CorrespondenceError
from ahilb.pipeline import ALL_CHECKS, CHECK_GROUPS, checks_for, run_pipeline


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
