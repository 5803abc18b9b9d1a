"""No invariant in the package may rest on `assert`: `python -O` strips it."""

import ast
from pathlib import Path

import ahilb


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(Path(ahilb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
