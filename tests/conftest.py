import os
from pathlib import Path

import pytest

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


def chi(group, index):
    """Character with a given label index of a cyclic group."""
    for c in group.characters():
        if group.char_label_index(c) == index:
            return c
    raise AssertionError(f"no character with index {index}")
