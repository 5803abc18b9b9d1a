"""The package's records are plain slotted classes that behave like the
dataclasses they replace: the same fields in the same order, the same
defaults, field-wise `==`, the same repr, and no hashing except on the
immutable `GroupSpec`.  Importing the package loads neither `dataclasses`
nor `inspect`."""

import copy
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ahilb
from ahilb.charts import AGraph
from ahilb.cohomology import CompactSurface, VirtualBundle
from ahilb.fan import Battle, CornerLine, Edge, Line, Partition, RegularTriangle, Triangle
from ahilb.group import GroupSpec
from ahilb.pipeline import Artifacts, RunReport
from ahilb.recipe import Decoration, QuiverEmbedding, VertexMark
from ahilb.record import Record
from ahilb.relations import Relation
from conftest import replaced

# The field lists of the former dataclasses, in declaration order.
FIELDS = {
    AGraph: ("table", "socle"),
    VirtualBundle: ("index", "vertex", "plus", "minus"),
    CompactSurface: ("vertex", "rays", "edge_ids", "self_intersections", "surface_type"),
    CornerLine: ("corner", "dir2", "step", "strength", "u", "plus", "minus", "origin", "reach",
                 "death_t", "final_strength", "battles"),
    Battle: ("lattice_point", "participants", "winner"),
    Partition: ("group", "corner_lines", "regular_triangles", "battles", "champion_point"),
    RegularTriangle: ("vertices", "side", "steps", "kind", "corner"),
    Line: ("u", "plus", "minus", "character", "kind", "corner", "strength", "final_strength",
           "edges", "endpoints"),
    Edge: ("a", "b", "line", "interior", "triangles"),
    Triangle: ("vertices", "orientation", "regular", "edges"),
    GroupSpec: ("generators",),
    RunReport: ("spec", "counts", "checks", "timings", "failure"),
    Artifacts: ("spec_text", "group", "triangulation", "charts", "decoration", "quiver",
                "relations", "surfaces", "bundles", "duality", "h2", "certificate", "report"),
    VertexMark: ("vertex", "valency", "case", "marks", "through", "rhs"),
    Decoration: ("line_marks", "vertex_marks", "partition"),
    QuiverEmbedding: ("chart", "placements"),
    Relation: ("vertex", "case", "lhs", "rhs"),
}

# Trailing defaults; `list` and `dict` stand for a fresh container per instance.
DEFAULTS = {
    CornerLine: {"death_t": None, "final_strength": None, "battles": list},
    Triangle: {"edges": ()},
    RunReport: {"counts": dict, "checks": dict, "timings": dict, "failure": None},
    Artifacts: {name: None for name in FIELDS[Artifacts][2:]},
}

RECORDS = sorted(FIELDS, key=lambda cls: cls.__name__)


def _twin(cls):
    """The dataclass the record replaces, built from FIELDS and DEFAULTS."""
    specs = []
    for name in FIELDS[cls]:
        default = DEFAULTS.get(cls, {}).get(name, dataclasses.MISSING)
        if default in (list, dict):
            specs.append((name, object, dataclasses.field(default_factory=default)))
        elif default is dataclasses.MISSING:
            specs.append(name)
        else:
            specs.append((name, object, dataclasses.field(default=default)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=cls is GroupSpec)


def _values(cls):
    """A distinct, non-default value for each field: strings (whose repr is not
    their str) and tuples holding a list (equal to a deep copy, not identical)."""
    return [(name, k, [k]) if k % 2 else name for k, name in enumerate(FIELDS[cls])]


def _required(cls):
    return [v for name, v in zip(FIELDS[cls], _values(cls)) if name not in DEFAULTS.get(cls, {})]


def _fresh_defaults(make, names):
    """Whether two instances from `make()` hold distinct containers in the named fields."""
    a, b = make(), make()
    return all(getattr(a, name) is not getattr(b, name) for name in names)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_slots_are_the_dataclass_fields_in_order(cls):
    assert issubclass(cls, Record)
    assert cls.__slots__ == FIELDS[cls]
    assert not hasattr(cls(*_values(cls)), "__dict__")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_matches_the_dataclass_twin(cls):
    twin = _twin(cls)
    assert repr(cls(*_values(cls))) == repr(twin(*_values(cls)))
    # defaults left out, so the reprs also show the default values
    assert repr(cls(*_required(cls))) == repr(twin(*_required(cls)))
    by_name = dict(zip(FIELDS[cls], _values(cls)))
    assert repr(cls(**by_name)) == repr(twin(**by_name))


def test_a_nested_repr_matches_the_dataclass_twin():
    marks = {(1, 2, 3): VertexMark((1, 2, 3), 3, "P2", ((0, 0, 1),), {}, ())}
    twin_marks = {(1, 2, 3): _twin(VertexMark)((1, 2, 3), 3, "P2", ((0, 0, 1),), {}, ())}
    assert (repr(Decoration({0: (0, 1, 0)}, marks, {"line": []}))
            == repr(_twin(Decoration)({0: (0, 1, 0)}, twin_marks, {"line": []})))


@pytest.mark.parametrize("cls", [CornerLine, RunReport], ids=lambda cls: cls.__name__)
def test_default_containers_are_fresh_per_instance(cls):
    names = [name for name, default in DEFAULTS[cls].items() if default in (list, dict)]
    assert _fresh_defaults(lambda: cls(*_required(cls)), names)
    record = cls(*_required(cls))
    assert all(getattr(record, name) == DEFAULTS[cls][name]() for name in names)


def test_a_shared_default_container_is_caught():
    # negative control: a record whose default dict is one object for all instances
    shared = {}

    class SharedDefault(Record):
        __slots__ = ("spec", "counts")

        def __init__(self, spec, counts=shared):
            self.spec = spec
            self.counts = counts

    assert not _fresh_defaults(lambda: SharedDefault("spec"), ["counts"])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_is_field_wise(cls):
    values = _values(cls)
    a = cls(*values)
    assert a == cls(*copy.deepcopy(values))
    assert not a != cls(*values)
    for k in range(len(values)):
        changed = list(values)
        changed[k] = ("changed", k)
        assert a != cls(*changed)
        assert not a == cls(*changed)
    # another class with the same fields and values is not equal
    assert a != _twin(cls)(*values)
    assert a != tuple(values)


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if cls is not GroupSpec],
                         ids=lambda cls: cls.__name__)
def test_mutable_records_are_unhashable(cls):
    record = cls(*_values(cls))
    with pytest.raises(TypeError):
        hash(record)
    name = FIELDS[cls][0]
    setattr(record, name, "new")
    assert getattr(record, name) == "new"
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_group_spec_is_hashable_and_immutable():
    gens = ((11, (1, 2, 8)),)
    spec = GroupSpec(gens)
    assert hash(spec) == hash(GroupSpec(((11, (1, 2, 8)),)))
    assert hash(spec) == hash(_twin(GroupSpec)(gens))
    assert {spec: 1}[GroupSpec(gens)] == 1
    with pytest.raises(AttributeError):
        spec.generators = ()
    with pytest.raises(AttributeError):
        del spec.generators
    with pytest.raises(AttributeError):
        spec.other = 1
    assert spec.generators == gens


@pytest.mark.parametrize("module", ["ahilb", "ahilb.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # -S keeps site-packages hooks out, so only the package's own imports count
    src = str(Path(ahilb.__file__).resolve().parent.parent)
    code = (f"import sys, {module}; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "[]\n"


def test_replaced_copies_a_record_with_fields_changed():
    rel = Relation((0, 0, 0), 1, ((0, 0, 1),), ((0, 0, 1),))
    grown = replaced(rel, rhs=((0, 0, 1), (0, 0, 2)), case=2)
    assert grown == Relation((0, 0, 0), 2, ((0, 0, 1),), ((0, 0, 1), (0, 0, 2)))
    assert rel == Relation((0, 0, 0), 1, ((0, 0, 1),), ((0, 0, 1),))
    with pytest.raises(TypeError, match="no field"):
        replaced(rel, cases=2)
