"""Every function in the package is called from the package or exported,
and every attribute it stores is read in the package.

A helper that only the tests call belongs in the tests, and one that
nothing calls is dead.  A function counts as used when some `Name` or
`Attribute` in the package spells its name, or when `ahilb.__all__` lists it.
An attribute stored by `self.X = ...` counts as read when some loaded
`Attribute` in the package spells X; a bare name X, such as the argument
in `self.X = X`, does not read it.
"""

import ast
from pathlib import Path

import ahilb

ALLOWED = {
    # perfbench/tracer.py patches it to count lattice solves
    "solve_int",
    # argparse calls it on a usage error
    "_Parser.error",
}

# Stored attributes that only the tests read.  `tests/test_fan.py` pins the
# paper's worked examples by them: each corner line's direction in the
# corner's quotient lattice, and the knock-out's champion point.
ONLY_TESTS_READ = {"fan.py:self.dir2", "fan.py:self.champion_point"}


def _package_trees():
    root = Path(ahilb.__file__).parent
    for path in sorted(root.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree):
    """(qualified name, bare name) of every function and method, nested ones included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child.name))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def unreferenced_functions():
    trees = list(_package_trees())
    referenced = set(ahilb.__all__)
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    found = []
    for filename, tree in trees:
        for qualname, name in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the interpreter
            if name not in referenced and qualname not in ALLOWED:
                found.append(f"{filename}:{qualname}")
    return found


def _stored_attributes(tree):
    """Names X of every `self.X = ...`, `self.X += ...` and `self.X: T = ...`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for t in ast.walk(target):
                if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                        and t.value.id == "self"):
                    out.append(t.attr)
    return out


def unread_attributes(trees):
    read = {node.attr for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted({f"{filename}:self.{name}" for filename, tree in trees
                   for name in _stored_attributes(tree) if name not in read})


def test_every_function_has_a_caller_in_the_package():
    assert unreferenced_functions() == []


def test_every_allowed_name_is_still_defined():
    defined = {q for _, tree in _package_trees() for q, _ in _definitions(tree)}
    assert ALLOWED <= defined


def test_every_stored_attribute_is_read_in_the_package():
    assert unread_attributes(list(_package_trees())) == sorted(ONLY_TESTS_READ)


def test_an_attribute_only_stored_is_reported():
    source = (
        "class G:\n"
        "    def __init__(self, elements):\n"
        "        self.elements = elements\n"
        "        self.element_set = frozenset(elements)\n"
        "        self.count: int = 0\n"
        "        self.count += 1\n"
        "        self.a, self.b = 1, 2\n"
        "    def size(self):\n"
        "        return len(self.elements) + b\n"
    )
    trees = [("m.py", ast.parse(source))]
    # `self.b` is read only as the bare name `b`
    assert unread_attributes(trees) == [
        "m.py:self.a", "m.py:self.b", "m.py:self.count", "m.py:self.element_set"
    ]
