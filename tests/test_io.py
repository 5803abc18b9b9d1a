import hashlib
import json
import os
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ahilb import cli, pipeline, serialize
from ahilb.cli import main
from ahilb.errors import CorrespondenceError, InputError
from ahilb.group import build_group, parse_group_spec
from ahilb.pipeline import run_pipeline
from ahilb.render import quiver_svg, triangulation_svg
from ahilb.serialize import build_document, from_json, to_json

from test_acceptance import _cyclic_family_runs

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "digests.json").read_text()
)


def oracle(art):
    """The reference layout `to_json` must reproduce byte for byte."""
    return json.dumps(build_document(art), sort_keys=True, indent=1, ensure_ascii=False) + "\n"


def group_from_document(doc):
    """The group of a JSON document, rebuilt from its generators."""
    gens = ";".join(f"1/{r}({w[0]},{w[1]},{w[2]})" for r, w in doc["group"]["generators"])
    return build_group(parse_group_spec(gens if gens else "1"))


def test_cli_compute_ok(tmp_path, capsys):
    out = tmp_path / "out.json"
    svg = tmp_path / "fan.svg"
    qsvg = tmp_path / "quiver.svg"
    code = main([
        "compute", "1/11(1,2,8)", "--check", "all",
        "--json", str(out), "--svg", str(svg), "--quiver-svg", str(qsvg),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["triangles"]) == 11
    assert doc["report"]["checks"]["certificate"]["status"] == "pass"
    assert svg.exists() and qsvg.exists()


def test_cli_rejects_sl_violation(capsys):
    assert main(["compute", "1/11(1,2,9)"]) == 1
    assert "determinant" in capsys.readouterr().err


def test_cli_rejects_garbage(capsys):
    assert main(["check", "eleven"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "-1/3(1,1,1)"],
        ["check", "1/3(1,1,1)", "--max-order=abc"],
        ["check", "1/3(1,1,1)", "--check", "nope"],
        ["nope", "1/3(1,1,1)"],
        ["check", "1/" + "9" * 5000 + "(1,1,1)"],  # more digits than `int` converts
    ],
)
def test_cli_usage_errors_are_input_errors(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: ahilb" in capsys.readouterr().out


def test_cli_max_order_flag(capsys):
    assert main(["check", "1/97(1,2,94)", "--max-order", "50"]) == 1
    assert main(["check", "1/97(1,2,94)", "--max-order", "97", "--quiet"]) == 0


def test_cli_env_cap(monkeypatch, capsys):
    monkeypatch.setenv("AHILB_MAX_ORDER", "5")
    assert main(["check", "1/11(1,2,8)"]) == 1


@pytest.mark.parametrize("argv, env", [
    (["--max-order", "0"], None),
    (["--max-order=-3"], None),
    ([], "0"),
    ([], "-3"),
])
def test_cli_non_positive_cap_is_a_usage_error(argv, env, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv("AHILB_MAX_ORDER", env)
    assert main(["check", "1/7(1,2,4)", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1
    assert "must be positive" in captured.err
    assert "above the cap" not in captured.err


def test_cli_check_families(capsys):
    for fam in ("fan", "recipe", "relations", "cohomology"):
        assert main(["check", "1/7(1,2,4)", "--check", fam, "--quiet"]) == 0


def test_cli_quiver_svg_needs_the_quiver(tmp_path, capsys):
    qsvg = tmp_path / "q.svg"
    assert main(["compute", "1/7(1,2,4)", "--check", "fan", "--quiver-svg", str(qsvg)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:") and "--quiver-svg" in err[0]
    assert not qsvg.exists()
    assert main(["compute", "1/7(1,2,4)", "--check", "recipe", "--quiver-svg", str(qsvg)]) == 0
    assert qsvg.exists()


@pytest.mark.parametrize("stage,check", [("decorate", "decoration"), ("triangulate", "euler")])
def test_cli_failed_run_skips_missing_views(stage, check, tmp_path, capsys, monkeypatch):
    import ahilb.pipeline as pipeline
    from ahilb.errors import CorrespondenceError

    def broken(*args):
        raise CorrespondenceError(f"broken {stage}")

    monkeypatch.setattr(pipeline, stage, broken)
    out, svg, qsvg = tmp_path / "out.json", tmp_path / "fan.svg", tmp_path / "q.svg"
    code = main(["compute", "1/7(1,2,4)", "--json", str(out), "--svg", str(svg),
                 "--quiver-svg", str(qsvg)])
    assert code == 2
    failure = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert failure["failure"]["check"] == check
    assert json.loads(out.read_text())["report"]["failure"]["check"] == check
    assert svg.exists() == (stage == "decorate")
    assert not qsvg.exists()


def test_cli_render_builds_only_the_views(tmp_path, capsys):
    svg, qsvg = tmp_path / "fan.svg", tmp_path / "q.svg"
    assert main(["render", "1/11(1,2,8)", "--svg", str(svg), "--quiver-svg", str(qsvg)]) == 0
    summary = capsys.readouterr().out.split()
    assert "quiver" in summary and "duality" not in summary
    assert svg.exists() and qsvg.exists()


@pytest.mark.parametrize("flag", ["--json", "--svg", "--quiver-svg"])
def test_cli_unwritable_output_is_an_input_error(flag, tmp_path, capsys):
    for path in (tmp_path / "missing" / "out", tmp_path):
        assert main(["compute", "1/3(1,1,1)", flag, str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"input error: cannot write {path}: ")
        assert "Traceback" not in captured.err


def test_cli_seed_is_an_input_error(capsys):
    assert main(["check", "1/11(1,2,8)", "--seed", "5"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")


def test_cli_30(capsys):
    assert main(["check", "1/30(25,2,3)", "--check", "all", "--quiet"]) == 0


def test_json_deterministic():
    a = to_json(run_pipeline("1/11(1,2,8)"))
    b = to_json(run_pipeline("1/11(1,2,8)"))
    assert a == b


def test_json_deterministic_across_hash_seeds(tmp_path):
    """Byte-identical output even under different interpreter hash seeds."""
    import subprocess
    import sys

    outs = []
    for seed in ("0", "4242"):
        path = tmp_path / f"seed{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        subprocess.run(
            [sys.executable, "-m", "ahilb.cli", "compute", "1/30(25,2,3)",
             "--json", str(path), "--quiet"],
            check=True, env=env,
        )
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_json_round_trip(run30):
    text = to_json(run30)
    doc = from_json(text)
    assert doc == build_document(run30)
    g = group_from_document(doc)
    assert g.elements == run30.group.elements
    assert json.dumps(doc, sort_keys=True, indent=1, ensure_ascii=False) + "\n" == text


@pytest.mark.parametrize(
    "spec",
    [
        "1/11(1,2,8)", "1/3(1,2,0);1/3(0,1,2)", "1/1(0,0,0)", "1/2(1,1,0)",
        # non-cyclic groups, whose labels are χ(a,b,c)
        "1/6(1,2,3);1/3(1,1,1)", "1/4(1,1,2);1/2(1,1,0);1/2(0,1,1)",
    ],
)
def test_to_json_matches_the_oracle(spec):
    art = run_pipeline(spec)
    assert to_json(art) == oracle(art)


@pytest.mark.parametrize("which", ["fan", "recipe", "relations", "cohomology", "all"])
def test_to_json_matches_the_oracle_on_each_check_family(which):
    # the second golden; "all" is its full run
    art = run_pipeline("1/30(25,2,3)", which=which)
    assert to_json(art) == oracle(art)


def test_to_json_matches_the_oracle_on_a_failed_run(monkeypatch):
    import ahilb.pipeline as pipeline
    from ahilb.errors import CorrespondenceError

    def broken(*args):
        raise CorrespondenceError("broken decoration", detail={"why": "test"})

    monkeypatch.setattr(pipeline, "decorate", broken)
    art = run_pipeline("1/30(25,2,3)")
    assert art.report.failure["check"] == "decoration" and art.charts is not None
    assert to_json(art) == oracle(art)


def test_to_json_matches_the_oracle_on_the_order_30_family():
    runs, _ = _cyclic_family_runs()
    differ = [spec for spec, art in runs.items() if to_json(art) != oracle(art)]
    assert not differ, differ


@pytest.mark.parametrize("spec", sorted(DIGESTS))
def test_to_json_matches_the_bench_digests(spec):
    text = to_json(run_pipeline(spec))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[spec]


def test_cli_json_file_matches_the_bench_digest(tmp_path, capsys):
    spec, out = "1/401(1,7,393)", tmp_path / "out.json"
    assert main(["compute", spec, "--json", str(out), "--quiet"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[spec]


def test_cli_json_file_joins_its_slices(tmp_path, monkeypatch, capsys):
    # slices far shorter than a line, across the labels' χ, two bytes in UTF-8
    monkeypatch.setattr(cli, "WRITE_SLICE", 7)
    spec, out = "1/11(1,2,8)", tmp_path / "out.json"
    assert main(["compute", spec, "--json", str(out), "--quiet"]) == 0
    assert out.read_bytes() == to_json(run_pipeline(spec)).encode("utf-8")


@pytest.mark.parametrize(
    "value",
    [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[], [{}]]],
        [True, 1, 0, False], [1, True], [-1, 0, -20], [[1, 2], [3]],
        None, True, 0, -7, 2**70, "χ", 'say "hi" \\ there\n', ["χ0", "a\tb"],
        float("nan"), 1.5, [1.5, float("inf"), -0.0], (1, (2, 3)),
        {"1": 1, "10": 10, "2": 2},
        {"b": [1, 2], "a": {"z": None, "y": [True, None]}},
    ],
)
def test_iterencode_matches_json_dumps(value):
    got = "".join(serialize._iterencode(value, 0))
    assert got == json.dumps(value, sort_keys=True, indent=1, ensure_ascii=False)


def test_iterencode_rejects_what_json_dumps_rejects():
    for value in ({(1, 2): 0}, [object()], {"a": {2}}):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=1, ensure_ascii=False)
        with pytest.raises(TypeError):
            "".join(serialize._iterencode(value, 0))


def test_to_json_takes_the_templated_path(monkeypatch, run30):
    expected = oracle(run30)

    def forbidden(*args, **kwargs):
        raise AssertionError("to_json fell back to the document oracle")

    encode = serialize._iterencode
    layout = serialize._record_layout
    records = []

    def no_record_field_by_field(o, level):
        # only a triangle record has an "orientation"; the record template's is a slot
        if isinstance(o, dict) and isinstance(o.get("orientation"), str):
            raise AssertionError("a triangle record was encoded field by field")
        return encode(o, level)

    def counted_layout(art):
        record = layout(art)

        def counted(*args):
            text = record(*args)
            records.append(type(text))
            return text

        return counted

    monkeypatch.setattr(serialize, "build_document", forbidden)
    monkeypatch.setattr(json, "dumps", forbidden)
    monkeypatch.setattr(serialize, "_iterencode", no_record_field_by_field)
    monkeypatch.setattr(serialize, "_record_layout", counted_layout)
    assert to_json(run30) == expected
    # every record was laid out from the template, as one string
    assert records == [str] * len(run30.triangulation.triangles)


def test_to_json_peak_memory_is_the_text_at_two_bytes_a_character():
    # the text is UCS-2 (the labels' χ) and grows in place, so it is held
    # once, at 2 bytes a character, beside one piece; measured 2.21 at
    # 1/199(1,5,193), where joining laid-out pieces held about 3.07
    art = run_pipeline("1/199(1,5,193)")
    tracemalloc.start()
    try:
        text = to_json(art)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * len(text), (peak, len(text))


def test_document_sections_come_in_key_order(monkeypatch, run11):
    # `to_json` appends the sections as `_document` yields them
    def broken(*args):
        raise CorrespondenceError("broken decoration", detail={"why": "test"})

    runs = [run11, run_pipeline("1/11(1,2,8)", which="fan"), run_pipeline("1/1(0,0,0)")]
    monkeypatch.setattr(pipeline, "decorate", broken)
    failed = run_pipeline("1/11(1,2,8)")
    assert failed.report.failure["check"] == "decoration"
    for art in runs + [failed]:
        keys = [key for key, _ in serialize._document(art, serialize._record)]
        assert keys == sorted(set(keys)), keys
        assert {"group", "report", "schema_version", "spec", "triangles"} <= set(keys)


def test_json_trivial(run_trivial):
    doc = build_document(run_trivial)
    assert len(doc["triangles"]) == 1
    assert doc["relations"] == []
    assert doc["duality_matrix"] == []
    assert doc["group"]["characters"] == [{"id": 0, "exps": [0, 0, 0], "label": "χ0"}]


def test_json_relation_shape(run11):
    doc = build_document(run11)
    rels = {(r["case"], tuple(r["lhs"]), tuple(sorted(r["rhs"]))) for r in doc["relations"]}
    assert (1, (4,), (2, 2)) in rels
    assert (2, (10,), (2, 8)) in rels


def test_json_schema_keys(run30):
    doc = build_document(run30)
    for key in [
        "schema_version", "spec", "group", "points", "lines", "edges", "triangles",
        "regular_triangles", "vertex_marks", "character_partition", "relations",
        "virtual_bundles", "surfaces", "duality_matrix", "h2_basis", "report",
        "quiver", "certificate",
    ]:
        assert key in doc
    assert doc["schema_version"] == 1
    # characters referenced by id everywhere
    ids = {c["id"] for c in doc["group"]["characters"]}
    for ln in doc["lines"]:
        assert ln["character"] in ids
    for vm in doc["vertex_marks"]:
        assert set(vm["marks"]) <= ids


def test_json_no_timings(run11):
    doc = build_document(run11)
    assert "timings" not in json.dumps(doc)


@pytest.mark.parametrize("version", [99, True, 1.0])
def test_from_json_rejects_wrong_schema(version):
    with pytest.raises(InputError):
        from_json(json.dumps({"schema_version": version}))


@pytest.mark.parametrize(
    "text",
    [
        "{oops",
        "",
        "[1, 2",
        pytest.param("[" * 200000, id="nested-200000-deep"),
        pytest.param('{"schema_version": ' + "9" * 5000 + "}", id="int-of-5000-digits"),
    ],
)
def test_from_json_rejects_text_that_is_not_json(text):
    with pytest.raises(InputError, match="not JSON"):
        from_json(text)


def test_svg_labels(run11):
    svg = triangulation_svg(run11)
    assert "χ4" in svg and "χ10" in svg and "χ2" in svg
    assert svg.count("<line ") == len(run11.triangulation.edges)


def test_svg_trivial_unlabeled(run_trivial):
    svg = triangulation_svg(run_trivial)
    assert svg.count("<line ") == 3
    assert "χ" not in svg.replace("e1", "").replace("e2", "").replace("e3", "")


def test_quiver_svg_hexagon_count(run11, run30):
    for art in (run11, run30):
        svg = quiver_svg(art)
        assert svg.count('polygon class="hex"') == art.group.order


def test_svg_deterministic(run11):
    assert triangulation_svg(run11) == triangulation_svg(run11)
    assert quiver_svg(run11) == quiver_svg(run11)


def test_report_failure_is_none_on_success(run11):
    assert run11.report.failure is None
    assert run11.report.passed
    statuses = {entry["status"] for entry in run11.report.checks.values()}
    assert statuses == {"pass"}


def _factor_text(r, a, b):
    return f"1/{r}({a},{b},{(-a - b) % r})"


_FACTOR = st.integers(1, 12).flatmap(
    lambda r: st.builds(_factor_text, st.just(r), st.integers(0, r - 1), st.integers(0, r - 1))
)
_SPEC_TEXT = st.one_of(
    st.lists(_FACTOR, min_size=1, max_size=3).map(";".join),
    st.lists(st.one_of(_FACTOR, st.text(max_size=12)), min_size=1, max_size=3).map(";".join),
    st.text(max_size=30),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_SPEC_TEXT)
def test_cli_check_exits_cleanly_on_any_spec_text(spec):
    # "--" keeps a spec that starts with "-" from being read as an option
    assert main(["check", "--quiet", "--max-order", "200", "--", spec]) in (0, 1, 2)
