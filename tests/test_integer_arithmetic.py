"""Outside SVG rendering the package computes in plain integers: no floats,
no fractions and no tolerances."""

import ast
from pathlib import Path

import ahilb


def _non_integer_arithmetic(source, name):
    """`name:line what` for each import of fractions or decimal, true
    division and float literal in the source."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        found += [f"{name}:{node.lineno} imports {m}" for m in modules
                  if m.split(".")[0] in ("fractions", "decimal")]
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{name}:{node.lineno} true division")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{name}:{node.lineno} float literal")
    return found


def test_the_scan_finds_each_kind():
    source = "import decimal\nfrom fractions import Fraction\nx = 1 / 2\nx /= 3\ny = 0.5\nz = 7 // 2\n"
    assert sorted(_non_integer_arithmetic(source, "m.py")) == [
        "m.py:1 imports decimal", "m.py:2 imports fractions", "m.py:3 true division",
        "m.py:4 true division", "m.py:5 float literal",
    ]


def test_no_fractions_true_division_or_floats_outside_render():
    found = []
    for path in sorted(Path(ahilb.__file__).parent.glob("*.py")):
        if path.name != "render.py":
            found += _non_integer_arithmetic(path.read_text(encoding="utf-8"), path.name)
    assert found == []
