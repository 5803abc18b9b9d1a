import copy
import os
from pathlib import Path

import pytest

from ahilb.cohomology import SurfaceCalculators
from ahilb.pipeline import run_pipeline

# `pythonpath` in pyproject.toml reaches this process only; the CLI
# subprocesses some tests start import the package from this checkout too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def run11():
    return run_pipeline("1/11(1,2,8)")


@pytest.fixture(scope="session")
def run30():
    return run_pipeline("1/30(25,2,3)")


@pytest.fixture(scope="session")
def run_trivial():
    return run_pipeline("1")


def replaced(record, **changes):
    """A shallow copy of a record with the given fields changed.

    Unknown field names raise TypeError, as `dataclasses.replace` does.
    """
    unknown = sorted(set(changes) - set(type(record).__slots__))
    if unknown:
        raise TypeError(f"{type(record).__qualname__} has no field {unknown}")
    out = copy.copy(record)
    for name, value in changes.items():
        setattr(out, name, value)
    return out


def chi(group, index):
    """Character with a given label index of a cyclic group."""
    for c in group.characters():
        if group.char_label_index(c) == index:
            return c
    raise AssertionError(f"no character with index {index}")


def surface_calculators(art):
    """Vertex -> SurfaceCalculus of each of `art.surfaces`, all kept.

    The duality stage builds the same calculators one column at a time.
    """
    return dict(SurfaceCalculators(art.charts, art.surfaces, art.decoration))


def conv_region(charts, chi, monomial):
    """Triangles whose generator of weight chi is the given monomial."""
    k = charts.group.char_id(chi)
    return [ti for ti, g in enumerate(charts.agraphs) if g.table[k] == monomial]


def conv_regions(charts, chi):
    """Generator of weight chi -> the triangles where it generates."""
    k = charts.group.char_id(chi)
    out = {}
    for ti, g in enumerate(charts.agraphs):
        out.setdefault(g.table[k], []).append(ti)
    return out


def verify_relation_chartwise(chart_set, relation):
    """Check the literal monomial identity on every chart: the oracle of `relations`.

    Returns (True, None) or (False, witness_triangle_index).
    """
    cid = chart_set.group.char_id
    lhs_ids = [cid(chi) for chi in relation.lhs]
    rhs_ids = [cid(chi) for chi in relation.rhs]
    for ti, graph in enumerate(chart_set.agraphs):
        table = graph.table
        lhs = [0, 0, 0]
        for k in lhs_ids:
            m = table[k]
            lhs[0] += m[0]
            lhs[1] += m[1]
            lhs[2] += m[2]
        rhs = [0, 0, 0]
        for k in rhs_ids:
            m = table[k]
            rhs[0] += m[0]
            rhs[1] += m[1]
            rhs[2] += m[2]
        if lhs != rhs:
            return False, ti
    return True, None
