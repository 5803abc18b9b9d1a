"""The core imports nothing outside the standard library and itself.

Every absolute import in `src/ahilb/*.py` must name a top-level module
that is in `sys.stdlib_module_names` or is `ahilb`; relative imports stay
inside the package.
"""

import ast
import sys
from pathlib import Path

import ahilb


def _absolute_imports():
    """(file name, line, top-level module name) of every absolute import."""
    for path in sorted(Path(ahilb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name.partition(".")[0]


def test_the_core_imports_only_the_standard_library():
    found = list(_absolute_imports())
    outside = [f for f in found if f[2] not in sys.stdlib_module_names and f[2] != "ahilb"]
    assert outside == []
    # the scan sees the package's imports at all
    assert {"__future__", "itertools", "math"} <= {name for _, _, name in found}
