"""Which `ahilb` modules a fresh process loads, and the patches that must
still reach a run.

`import ahilb` loads no submodule, `pipeline` binds the stages after the
fan family on the first run that reaches them, and `cli` binds the views a
call writes.  Each case runs in a fresh interpreter, because this process
has loaded every module already.  `-S` keeps site-packages hooks out, so
only the package's own imports count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
STAGE_MODULES = ["charts", "cohomology", "relations", "render", "serialize"]


def _fresh(script, *args):
    """Run `script` in a fresh interpreter: (exit code, stdout, stderr)."""
    out = subprocess.run([sys.executable, "-S", "-c", script, *args],
                         env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, timeout=120)
    return out.returncode, out.stdout, out.stderr


def _loaded_after(body, *args):
    """The `ahilb` submodules loaded after `body`, and whether `json` was."""
    script = (
        "import sys\n" + body + "\n"
        "loaded = sorted(m[len('ahilb.'):] for m in sys.modules if m.startswith('ahilb.'))\n"
        "has_json = 'json' in sys.modules\n"
        "import json\n"
        "print(json.dumps([loaded, has_json]))\n"
    )
    code, out, err = _fresh(script, *args)
    assert (code, err) == (0, ""), err
    return json.loads(out)


def test_import_ahilb_loads_no_submodule():
    assert _loaded_after("import ahilb") == [[], False]


def test_fan_check_loads_no_later_stage():
    loaded, has_json = _loaded_after(
        "import ahilb.cli\n"
        "assert ahilb.cli.main(['check', '1/11(1,2,8)', '--check', 'fan', '--quiet']) == 0"
    )
    assert not has_json
    assert not set(STAGE_MODULES) & set(loaded), loaded
    assert loaded == ["cli", "errors", "fan", "group", "intmat", "pipeline", "recipe", "record"]


def test_compute_with_views_loads_every_stage(tmp_path):
    loaded, has_json = _loaded_after(
        "import ahilb.cli\n"
        "assert ahilb.cli.main(['compute', '1/11(1,2,8)', '--json', sys.argv[1],"
        " '--svg', sys.argv[2], '--quiet']) == 0",
        str(tmp_path / "out.json"), str(tmp_path / "out.svg"),
    )
    assert has_json
    assert set(STAGE_MODULES) <= set(loaded), loaded


PATCHED_RUN = """
import sys
import ahilb.cli, ahilb.pipeline
stage = [m for m in ("charts", "cohomology", "relations", "serialize") if "ahilb." + m in sys.modules]
assert not stage, stage
calls = []

def spy(owner, name):
    real = getattr(owner, name)

    def wrapped(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    setattr(owner, name, wrapped)

spy(ahilb.pipeline, "duality_matrix")
spy(ahilb.pipeline, "ChartSet")
spy(ahilb.cli, "to_json")
code = ahilb.cli.main(["compute", "1/11(1,2,8)", "--json", sys.argv[1], "--quiet"])
print(code, sorted(set(calls)))
"""


def test_patches_made_before_the_first_run_are_called(tmp_path):
    """The tracer's contract: `getattr` and then `setattr` on `pipeline`
    and `cli`, before any stage module is loaded, replace what a run calls."""
    code, out, err = _fresh(PATCHED_RUN, str(tmp_path / "out.json"))
    assert (code, err) == (0, ""), err
    assert out.strip() == "0 ['ChartSet', 'duality_matrix', 'to_json']"
    assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["group"]["order"] == 11


def test_star_import_binds_every_name_to_its_module():
    script = """
import sys
from ahilb import *
import ahilb
names = ahilb.__all__
assert len(set(names)) == len(names)
for name in names:
    obj = globals()[name]
    home = obj.__module__
    assert home.startswith("ahilb.") and getattr(sys.modules[home], name) is obj, name
    assert getattr(ahilb, name) is obj, name
assert set(names) <= set(dir(ahilb))
print(len(names))
"""
    code, out, err = _fresh(script)
    assert (code, err) == (0, ""), err
    assert int(out) == 42


@pytest.mark.parametrize("module", ["ahilb", "ahilb.pipeline", "ahilb.cli"])
def test_an_unknown_name_raises_attribute_error(module):
    script = f"""
import {module} as m
try:
    m.no_such
except AttributeError as exc:
    print(exc)
"""
    code, out, err = _fresh(script)
    assert (code, err) == (0, ""), err
    assert out.strip() == f"module {module!r} has no attribute 'no_such'"


FAILING_FAN_CHECK = """
import sys
import ahilb.cli, ahilb.errors, ahilb.pipeline
if sys.argv[1] == "stage":
    ahilb.pipeline.simplex_corners = lambda order: [(0, 0, 0)]
else:
    def refuse(*args, **kwargs):
        raise ahilb.errors.CorrespondenceError("refused", detail={"at": (1, 2)})
    ahilb.pipeline.build_group = refuse
code = ahilb.cli.main(["check", "1/11(1,2,8)", "--check", "fan", "--quiet"])
late = [m for m in ("charts", "cohomology", "relations", "render") if "ahilb." + m in sys.modules]
print(code, late)
"""


@pytest.mark.parametrize("where, line", [
    ("stage", {"failure": {"check": "euler", "error": "fan vertices differ from the simplex "
                           "lattice points", "detail": {"missing": [[0, 0, 0]],
                           "extra": [[0, 0, 11], [0, 11, 0], [11, 0, 0]]}}}),
    ("run", {"failure": {"error": "refused", "detail": {"at": [1, 2]}}}),
])
def test_failing_fan_check_exits_2_with_one_json_line(where, line):
    code, out, err = _fresh(FAILING_FAN_CHECK, where)
    assert code == 0, err
    assert out.strip() == "2 []"
    assert err == json.dumps(line, sort_keys=True) + "\n"


CAPPED_RUN = """
import sys
import ahilb.cli
code = ahilb.cli.main(["check", "1/101(1,2,98)", "--max-order", "50"])
print(code, [m for m in ("charts", "cohomology", "relations") if "ahilb." + m in sys.modules])
"""


def test_a_spec_over_the_order_cap_loads_no_late_stage():
    """The cap refuses the spec before the late stages are bound."""
    code, out, err = _fresh(CAPPED_RUN)
    assert code == 0, err
    assert out.strip() == "1 []"
    assert err == "input error: generator orders multiply to 101, above the cap 50\n"
