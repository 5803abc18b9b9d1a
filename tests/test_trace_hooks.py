"""The traced benchmark (`perfbench/tracer.py`) patches names in `ahilb`.

It wraps `ChartSet.degree_on_curve` and reads `len(ChartSet._degree)`,
wraps `pipeline.check_bundle_degrees`, `pipeline.build_surfaces`,
`pipeline.duality_matrix` and `SurfaceCalculus.c2_pairing`,
wraps `pipeline.ChartSet` and counts `len(table)` over its charts, and
wraps `cli.to_json` and counts the bytes of the text it returns.
A refactor that renames or bypasses them would silently leave those spans
empty, so a traced run must still record calls on each.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
from tracer import Tracer
tracer = Tracer()
tracer.install()
import ahilb.pipeline
art = ahilb.pipeline.run_pipeline("1/30(25,2,3)")
assert art.report.passed
print(json.dumps({name: calls for name, (calls, _, _) in tracer.stats.items()}))
"""

CLI_SCRIPT = """
import json
import sys
from tracer import Tracer
tracer = Tracer()
tracer.install()
import ahilb.cli
code = ahilb.cli.main(["compute", "1/30(25,2,3)", "--json", sys.argv[1], "--quiet"])
calls = {name: calls for name, (calls, _, _) in tracer.stats.items()}
print(json.dumps({"code": code, "calls": calls, "counts": tracer.counts}))
"""


def _traced(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_run_records_the_degree_and_pairing_spans():
    calls = _traced(SCRIPT)
    for span in ("charts.degree_on_curve", "cohomology.bundle_degrees", "cohomology.surfaces",
                 "cohomology.duality", "cohomology.c2_pairing"):
        assert calls.get(span, 0) > 0, span


def test_traced_cli_run_records_the_chart_and_serialization_spans(tmp_path):
    path = tmp_path / "out.json"
    out = _traced(CLI_SCRIPT, str(path))
    assert out["code"] == 0
    for span in ("charts.chartset", "serialize.to_json"):
        assert out["calls"].get(span, 0) > 0, span
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert out["counts"]["charts.table_entries"] == doc["group"]["order"] * len(doc["triangles"])
    assert out["counts"]["serialize.json_bytes"] == path.stat().st_size
