"""Line ratios are computed in one place: `fan.py` labels every line, and
every other module reads the ratio off the line table."""

import ast
from pathlib import Path

import ahilb


def _line_ratio_references(source, name):
    """`name:line how` for each import, name and attribute spelling `line_ratio`."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.ImportFrom):
            found += [f"{name}:{node.lineno} import" for alias in node.names
                      if alias.name == "line_ratio"]
        elif isinstance(node, ast.Name) and node.id == "line_ratio":
            found.append(f"{name}:{node.lineno} name")
        elif isinstance(node, ast.Attribute) and node.attr == "line_ratio":
            found.append(f"{name}:{node.lineno} attribute")
    return found


def test_the_scan_finds_each_kind():
    source = (
        "from .fan import line_ratio, simplex_corners\n"
        "u = line_ratio(g, p, q)\n"
        "v = fan.line_ratio(g, p, q)\n"
        "w = T.lines[0].u\n"
    )
    assert sorted(_line_ratio_references(source, "m.py")) == [
        "m.py:1 import", "m.py:2 name", "m.py:3 attribute",
    ]


def test_line_ratio_is_referenced_only_in_the_fan():
    found = []
    for path in sorted(Path(ahilb.__file__).parent.glob("*.py")):
        if path.name != "fan.py":
            found += _line_ratio_references(path.read_text(encoding="utf-8"), path.name)
    assert found == []
