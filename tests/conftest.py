"""Shared fixtures: anchor graphs, omega, an eigensolver warm-up, a
symmetrizer that wraps an arbitrary array as a one-matrix HermitianStack,
and the one reader of a report's catalog rows by name.

The warm-up fixture solves one small matrix on both eigen routes before any
test runs, so first-call set-up cost (loading LAPACK, allocating workspaces)
never lands inside a timed section.
"""

import numpy as np
import pytest
from hypothesis import settings

from mixedspec.eig import eigenvalues, oracle_eigenvalues
from mixedspec.graphs import parse_graph
from mixedspec.matrices import HermitianStack, omega_constant

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def hermitian_from_array(a: np.ndarray) -> HermitianStack:
    """Symmetrize (A + A*)/2 and wrap as a one-matrix stack; exact conjugate
    symmetry by construction."""
    a = np.asarray(a, dtype=np.complex128)
    h = (a + a.conj().T) / 2.0
    np.fill_diagonal(h, h.diagonal().real)
    return HermitianStack(h[None])


def catalog_row(report, name, j=None):
    """The CheckedBound of the catalog row ``name`` of ``report``; the
    per-j rows also need their ``j``."""
    [row] = [c for c in report.checked if c.result.name == name and c.result.j == j]
    return row


P2_TEXT = "2\n1 -> 2\n"
C3_TEXT = "3\n1 -> 2\n2 -> 3\n3 -> 1\n"
K13_TEXT = "4\n1 -- 2\n1 -- 3\n1 -- 4\n"


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    rng = np.random.Generator(np.random.PCG64(0))
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m = hermitian_from_array(a)
    eigenvalues(m)
    oracle_eigenvalues(m)


@pytest.fixture(scope="session")
def p2():
    return parse_graph(P2_TEXT)


@pytest.fixture(scope="session")
def c3():
    return parse_graph(C3_TEXT)


@pytest.fixture(scope="session")
def k13():
    return parse_graph(K13_TEXT)


@pytest.fixture(scope="session")
def omega():
    return omega_constant()
