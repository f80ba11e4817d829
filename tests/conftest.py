"""Shared fixtures: the reference grids and corpus are expensive enough to
build once per session, and several suites lean on the same instances."""

import os
from pathlib import Path

import numpy as np
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


def fd_gradient_of_extension(f, x, h=1e-5):
    """Central differences of the gradient of f's 1-homogeneous extension at
    a point x, (n,), or at the rows of x, (m, n): an oracle for the exact
    derivatives."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    G = np.empty(x.shape)
    for a in range(n):
        ea = np.zeros(n)
        ea[a] = h
        G[..., a] = (f.extension_value(x + ea) - f.extension_value(x - ea)) / (2 * h)
    return G


def fd_hessian_of_extension(f, x, h=1e-4):
    """Central differences of the Hessian of f's 1-homogeneous extension, the
    twin of fd_gradient_of_extension: (n, n) at a point, (m, n, n) at rows."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    H = np.empty(x.shape + (n,))
    f0 = f.extension_value(x)
    for a in range(n):
        ea = np.zeros(n)
        ea[a] = h
        H[..., a, a] = (f.extension_value(x + ea) - 2 * f0 + f.extension_value(x - ea)) / h**2
        for b in range(a + 1, n):
            eb = np.zeros(n)
            eb[b] = h
            H[..., a, b] = H[..., b, a] = (
                f.extension_value(x + ea + eb)
                - f.extension_value(x + ea - eb)
                - f.extension_value(x - ea + eb)
                + f.extension_value(x - ea - eb)
            ) / (4 * h**2)
    return H
