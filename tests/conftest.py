"""Shared fixtures: the reference grids and corpus are expensive enough to
build once per session, and several suites lean on the same instances."""

import os
from pathlib import Path

import pytest

import areafun
from areafun.experiments import corpus
from areafun.sphere import make_grid

# the subprocess tests start fresh interpreters; give them the package this
# test run imported, also when only pytest's pythonpath setting found it
_SRC = str(Path(areafun.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def grid3():
    return make_grid(3, 8192)


@pytest.fixture(scope="session")
def grid4():
    return make_grid(4, 65536, seed=1)


@pytest.fixture(scope="session")
def grids(grid3, grid4):
    return {3: grid3, 4: grid4}


@pytest.fixture(scope="session")
def entries():
    return corpus()


@pytest.fixture(scope="session")
def by_label(entries):
    return {e.label: e for e in entries}
