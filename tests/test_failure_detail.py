"""Every failure the package builds names its object.

Each call of `InvariantViolationError` or `CorrespondenceError` in the
package, raised at once or built and raised later, passes `detail=`.  The
allowlist, by module and enclosing function with the count there, is
empty and may not grow: a new call without detail fails this test.
"""

import ast
from collections import Counter
from pathlib import Path

import ahilb

CHECKED = {"InvariantViolationError", "CorrespondenceError"}

WITHOUT_DETAIL = {}


def _calls_without_detail():
    found = Counter()

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in CHECKED
                    and not any(k.arg == "detail" for k in child.keywords)):
                found[module, function] += 1
            visit(child, module, function)

    for path in sorted(Path(ahilb.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.name, None)
    return found


def test_every_failure_outside_the_allowlist_carries_detail():
    assert _calls_without_detail() == Counter(WITHOUT_DETAIL)


def test_the_scan_sees_a_call_without_detail(tmp_path, monkeypatch):
    """The scan itself: a module with one bare call and one with detail."""
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "m.py").write_text(
        "def f():\n"
        "    raise CorrespondenceError('bare')\n"
        "def g():\n"
        "    return InvariantViolationError('named', detail={'x': 1})\n"
    )
    monkeypatch.setattr(ahilb, "__file__", str(tmp_path / "__init__.py"))
    assert _calls_without_detail() == Counter({("m.py", "f"): 1})
