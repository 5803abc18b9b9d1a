"""The traced benchmark (`perfbench/tracer.py`) patches names in `ahilb`.

It wraps `ChartSet.degree_on_curve` and reads `len(ChartSet._degree)`,
wraps `pipeline.check_bundle_degrees` and `SurfaceCalculus.c2_pairing`.
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


def test_traced_run_records_the_degree_and_pairing_spans():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.strip().splitlines()[-1])
    for span in ("charts.degree_on_curve", "cohomology.bundle_degrees", "cohomology.c2_pairing"):
        assert calls.get(span, 0) > 0, span
