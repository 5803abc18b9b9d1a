import hashlib
import json
import os
import re
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


@pytest.mark.parametrize("spec", ["", "   "])
def test_cli_rejects_a_blank_spec(spec, capsys):
    # an unset shell variable gives "": the grammar names the trivial group "1"
    assert main(["check", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: cannot parse group factor ''; expected 1/r(a,b,c)\n"


def test_cli_checks_the_trivial_group(capsys):
    assert main(["check", "1"]) == 0
    assert capsys.readouterr().out.startswith("1: |A|=1 ")


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
@pytest.mark.parametrize("level", [0, 1, 3])
def test_layout_matches_json_dumps(value, level):
    # the text json.dumps writes for `value` nested `level` deep, cut out of it
    nested = value
    for _ in range(level):
        nested = [nested]
    text = json.dumps(nested, sort_keys=True, indent=1, ensure_ascii=False)
    head = "".join("[\n" + " " * (i + 1) for i in range(level))
    tail = "".join("\n" + " " * i + "]" for i in reversed(range(level)))
    assert text.startswith(head) and text.endswith(tail)
    assert serialize._layout(value, level) == text[len(head):len(text) - len(tail)]


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_identity_layout_is_the_layout_of_the_identity(n):
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    for level in (0, 1, 3):
        assert serialize._identity_layout(n, level) == serialize._layout(identity, level)
    if n == 0:  # the trivial group
        assert serialize._identity_layout(n, 1) == "[]"


def test_to_json_takes_the_templated_path(monkeypatch, run30):
    expected = oracle(run30)

    def forbidden(*args, **kwargs):
        raise AssertionError("to_json fell back to the document oracle")

    dumps = json.dumps
    layout = serialize._record_layout
    orientations = {t.orientation for t in run30.triangulation.triangles}
    records = []

    def no_record_field_by_field(o, **kwargs):
        # every document has a schema_version; the edge template has a "triangles" key too
        if isinstance(o, dict) and "schema_version" in o:
            raise AssertionError("a whole document was encoded")
        # a triangle record's "orientation" is a triangle's; the record template's is a slot
        if isinstance(o, dict) and o.get("orientation") in orientations:
            raise AssertionError("a triangle record was encoded field by field")
        return dumps(o, **kwargs)

    def counted_layout(art):
        for text in layout(art):
            records.append(type(text))
            yield text

    monkeypatch.setattr(serialize, "build_document", forbidden)
    monkeypatch.setattr(json, "dumps", no_record_field_by_field)
    monkeypatch.setattr(serialize, "_record_layout", counted_layout)
    assert to_json(run30) == expected
    # every record was laid out from the template, as one string
    assert records == [str] * len(run30.triangulation.triangles)


def test_tail_sections_are_laid_out_before_the_first_record(monkeypatch, run30):
    doc = build_document(run30)
    join = serialize._join
    record_layout = serialize._record_layout
    events = []

    def spied_join(texts, level, brackets="[]"):
        text = join(texts, level, brackets)
        events.append(("join", text))
        return text

    def spied_record_layout(art):
        for record in record_layout(art):
            events.append(("record", None))
            yield record

    monkeypatch.setattr(serialize, "_join", spied_join)
    monkeypatch.setattr(serialize, "_record_layout", spied_record_layout)
    assert to_json(run30) == oracle(run30)
    first_record = events.index(("record", None))
    for key in ("vertex_marks", "virtual_bundles"):
        # the section's records filled from their template and joined
        assert ("join", serialize._layout(doc[key], 1)) in events[:first_record], key


def _holds_a_slot(o):
    """Whether a value holds a template's slot sentinel, so it lays out a template."""
    if isinstance(o, str):
        return o in (serialize._S, serialize._I)
    if isinstance(o, dict):
        return any(map(_holds_a_slot, o.values()))
    return isinstance(o, (list, tuple)) and any(map(_holds_a_slot, o))


def test_to_json_lays_out_only_templates_and_small_dicts_with_json_dumps(monkeypatch, run30):
    # `json.dumps` with `indent` runs CPython's pure-Python encoder: only the
    # small dict sections and each template's one layout may take it
    expected = oracle(run30)
    doc = build_document(run30)
    small = {key: doc[key] for key in ("certificate", "character_partition", "h2_basis", "report")}
    dumps, layout = json.dumps, serialize._layout
    calls = []

    def spied_dumps(o, **kwargs):
        if kwargs.get("indent") is not None:
            calls.append(("json.dumps", o))
        return dumps(o, **kwargs)

    def spied_layout(o, level):
        calls.append(("_layout", o))
        return layout(o, level)

    monkeypatch.setattr(json, "dumps", spied_dumps)
    monkeypatch.setattr(serialize, "_layout", spied_layout)
    assert to_json(run30) == expected
    slow = [(who, o) for who, o in calls if not _holds_a_slot(o) and o not in small.values()]
    assert not slow, slow
    for key, value in small.items():
        assert calls.count(("_layout", value)) == 1, key
    templates = [o for who, o in calls if who == "_layout" and _holds_a_slot(o)]
    # one per list section, nested list, triple depth and socle length, not one per record
    assert 0 < len(templates) < len(run30.triangulation.triangles), len(templates)


def sections_of(text):
    """The top-level sections of a document's text, by key, as written.

    JSON escapes a newline inside a string and every deeper line starts
    with two spaces or more, so a top-level key is what follows each
    newline that is followed by one space and a quote.
    """
    assert text.startswith("{\n") and text.endswith("\n}\n")
    parts = re.split(r'[{,]\n "(\w+)": ', text[:-3])
    assert parts[0] == ""
    return dict(zip(parts[1::2], parts[2::2]))


@pytest.mark.parametrize(
    "spec, which",
    [
        ("1/1(0,0,0)", "all"),  # the trivial group
        ("1/5(1,4,0)", "all"),  # b4 = 0: empty relations, surfaces, marks and bundles
        # non-cyclic groups, whose labels are χ(a,b,c)
        ("1/6(1,2,3);1/3(1,1,1)", "all"),
        ("1/4(1,1,2);1/2(1,1,0);1/2(0,1,1)", "all"),
        # more than 10 characters: "10" sorts before "2" in placements and through
        ("1/11(1,2,8)", "all"),
        *[("1/30(25,2,3)", which) for which in ("fan", "recipe", "relations", "cohomology", "all")],
        ("1/30(25,2,3)", "decoration fails"),
    ],
)
def test_each_section_matches_its_reference(spec, which, monkeypatch):
    if which == "decoration fails":
        def broken(*args):
            raise CorrespondenceError("broken decoration", detail={"why": "test"})

        monkeypatch.setattr(pipeline, "decorate", broken)
        which = "all"
    art = run_pipeline(spec, which=which)
    doc = build_document(art)
    sections = sections_of(to_json(art))
    assert list(sections) == sorted(doc)
    differ = [key for key in doc if sections[key] != serialize._layout(doc[key], 1)]
    assert not differ, differ


def test_section_runs_cover_empty_lists_and_string_key_order(run11, run30):
    doc = build_document(run_pipeline("1/5(1,4,0)"))
    assert doc["duality_matrix"] == []
    for key in ("relations", "surfaces", "vertex_marks", "virtual_bundles"):
        assert doc[key] == [], key

    def string_order_differs(keys):
        return sorted(keys, key=str) != sorted(keys, key=int)

    assert string_order_differs(build_document(run11)["quiver"]["placements"])
    assert any(string_order_differs(vm["through"]) for vm in build_document(run30)["vertex_marks"])


class _Replays:
    """`ChartSet.agraphs` whose `replayed` hands every `fill` no earlier record
    when `full`, so each record fills all its slots; it counts the records
    filled from an earlier one."""

    def __init__(self, agraphs, full):
        self._agraphs, self._full, self.patched = agraphs, full, 0

    def replayed(self, fill):
        def counted(ti, table, prev, column):
            if self._full:
                return fill(ti, table, None, None)
            self.patched += prev is not None
            return fill(ti, table, prev, column)

        return self._agraphs.replayed(counted)


def _records(art, full, monkeypatch):
    """The triangle records `_record_layout` writes, and how many it patched."""
    replays = _Replays(art.charts.agraphs, full)
    with monkeypatch.context() as m:
        m.setattr(art.charts, "agraphs", replays)
        return list(serialize._record_layout(art)), replays.patched


@pytest.mark.parametrize("spec", ["order <= 30 family", *sorted(DIGESTS)])
def test_patched_records_equal_full_fills(spec, monkeypatch):
    """Each record patched from the one its table was rebuilt from equals
    the record that fills every slot afresh."""
    arts = _cyclic_family_runs()[0].values() if spec == "order <= 30 family" else [run_pipeline(spec)]
    jumps = patched = 0  # records after a triangle that shares no edge with theirs
    for art in arts:
        records, n = _records(art, False, monkeypatch)
        assert records == _records(art, True, monkeypatch)[0], art.spec_text
        patched += n
        T = art.triangulation
        jumps += sum(not set(a.edges) & set(b.edges) for a, b in zip(T.triangles, T.triangles[1:]))
    assert jumps and patched


def test_records_format_only_the_moved_generators(monkeypatch, run30):
    """The writer formats exactly the slots whose generator moved: for each
    table rebuilt from a neighbour's, the ids in the crossed edge's degree
    column, and all |A| for a table with no earlier neighbour.  It compares
    no whole tables."""
    T, C = run30.triangulation, run30.charts
    level = serialize._RECORD_LEVEL + 2  # a generator, vertex or socle entry of a record
    formats = []

    class Counted(str):
        def __mod__(self, args):
            if self.level == level:
                formats.append(args)
            return str.__mod__(self, args)

    def counted_vec(n):
        template = Counted(serialize._template(serialize._V, n))
        template.level = n
        return template

    reference = "".join(_records(run30, True, monkeypatch)[0])
    expected = 0
    for ti, tri in enumerate(T.triangles):
        earlier = [(sum(T.edges[ei].triangles) - ti, ei) for ei in tri.edges
                   if T.edges[ei].interior and sum(T.edges[ei].triangles) - ti < ti]
        expected += len(C._degree[max(earlier)[1]]) if earlier else C.group.order
    monkeypatch.setattr(serialize, "cache", lambda f: f)  # count every format, not each triple once
    monkeypatch.setattr(serialize, "_vec", counted_vec)
    assert "".join(serialize._record_layout(run30)) == reference
    vertices_and_socles = sum(3 + len(C.socle_ids[ti]) for ti in range(len(T.triangles)))
    assert len(formats) - vertices_and_socles == expected < C.group.order * len(T.triangles)


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
        keys = [key for key, _ in serialize._document(art)]
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


_SVG_SHA256 = {
    "1/30(25,2,3)": (
        "b6076b0401d1bdb1b11221a0c2bb944c1ca118d6d9729e11cf1bcc7da4c022af",
        "2d37f0536177e31ba2aa58eb302dd9d0c2a89542b5e87c04d9b9b1ca25f520e5",
    ),
    "1/401(1,7,393)": (
        "b5e7c406746aad92d8ca09b4a73b958984b6aa00ab6e36de9adaa2e549edda1f",
        "5bd836498c5d400c3804455835606e661a44cde6cc1f19e4610efbc33cba0562",
    ),
}


@pytest.mark.parametrize("spec", sorted(_SVG_SHA256))
def test_svg_bytes_are_pinned(spec, run30):
    """Both drawings keep their bytes: the cached simplex positions and the
    hexagon corner offsets computed once give the floats computed per point."""
    art = run30 if spec == "1/30(25,2,3)" else run_pipeline(spec)
    digests = tuple(
        hashlib.sha256(svg.encode()).hexdigest() for svg in (triangulation_svg(art), quiver_svg(art))
    )
    assert digests == _SVG_SHA256[spec]


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
