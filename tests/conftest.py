"""Shared builders for the test suite."""

import sys

import numpy as np
import pytest

import gsis
import gsis.cli

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None
else:
    # Fixed examples, so a property test cannot make the suite flaky; a failure
    # prints the blob that replays it under @reproduce_failure.
    settings.register_profile("gsis", derandomize=True, print_blob=True)
    settings.load_profile("gsis")


def pytest_configure(config):
    # derandomize would override the seed, so a seeded run draws fresh examples
    if settings is not None and config.getoption("--hypothesis-seed", None) is not None:
        settings.load_profile("default")


INJECTIVE_SMIN = 1e-3  # an injective weight keeps this much of every unit vector of the span


def random_connected_graph(n, rng, extra_edges=None):
    """Path backbone plus random extra edges, random positive weights."""
    edges = {(i, i + 1) for i in range(n - 1)}
    extra = n if extra_edges is None else extra_edges
    for _ in range(extra):
        i, j = sorted(rng.integers(0, n, 2).tolist())
        if i != j:
            edges.add((i, j))
    edges = sorted(edges)
    weights = rng.uniform(0.5, 2.0, len(edges))
    return gsis.Graph(n, edges, weights)


def laplacian_shift_set(graph, second=None, rng=None):
    """ShiftSet of the Laplacian alone or with a commuting affine companion.

    Any second shift supported on the same edges that commutes with L and
    shares its eigenvectors is of the form a*I + b*L; a random such pair
    exercises the multi-shift code paths without leaving the edge set.
    """
    s1 = gsis.build_standard_shifts(graph, "laplacian")
    if second is None and rng is None:
        return gsis.ShiftSet((s1,))
    if second is None:
        a, b = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.0)
        second = a * np.eye(graph.n_vertices) + b * s1.matrix
    s2 = gsis.ShiftMatrix(second, graph)
    return gsis.ShiftSet((s1, s2))


@pytest.fixture
def p3():
    """Path on 3 vertices with its Laplacian decomposition."""
    graph = gsis.path_graph(3)
    shifts = gsis.ShiftSet((gsis.build_standard_shifts(graph, "laplacian"),))
    decomp = gsis.diagonalize_simultaneously(shifts)
    return graph, shifts, decomp


class DiagonalizationCounter:
    """Stand-in for the CLI's ``diagonalize_simultaneously`` that counts its calls.

    Each call appends its positional arguments to ``calls`` and runs the
    real decomposition, unless ``refuse`` holds a message: then the call
    fails with that message as an ``AssertionError``.
    """

    def __init__(self, real):
        self.calls = []
        self.refuse = None
        self._real = real

    def __call__(self, *args, **kwargs):
        if self.refuse is not None:
            raise AssertionError(self.refuse)
        self.calls.append(args)
        return self._real(*args, **kwargs)


@pytest.fixture
def diagonalizations(monkeypatch):
    """Count (or, with ``refuse`` set, refuse) the eigendecompositions the CLI runs."""
    counter = DiagonalizationCounter(gsis.cli.diagonalize_simultaneously)
    monkeypatch.setattr(gsis.cli, "diagonalize_simultaneously", counter)
    return counter


class DenseEighCounter:
    """Stand-in for ``np.linalg.eigh`` that counts its 2-D calls made from ``gsis.spectral``.

    The batched eigensolves of the tied-group rotation are 3-D and are not
    counted, so ``calls`` counts the N x N eigendecompositions alone.
    """

    def __init__(self, real):
        self.calls = 0
        self._real = real

    def __call__(self, a, *args, **kwargs):
        if np.ndim(a) == 2 and sys._getframe(1).f_globals.get("__name__") == "gsis.spectral":
            self.calls += 1
        return self._real(a, *args, **kwargs)


@pytest.fixture
def dense_eighs(monkeypatch):
    """Count the N x N ``eigh`` calls that ``gsis.spectral`` makes."""
    counter = DenseEighCounter(np.linalg.eigh)
    monkeypatch.setattr(np.linalg, "eigh", counter)
    return counter


class DenseShiftCounter:
    """Stand-in for the ``ShiftMatrix.matrix`` property that counts its reads.

    ``matrix`` is built on each read, so ``calls`` counts every N x N
    shift that is made.
    """

    def __init__(self, real):
        self.calls = 0
        self._real = real

    def __call__(self, shift):
        self.calls += 1
        return self._real(shift)


@pytest.fixture
def dense_shifts(monkeypatch):
    """Count the dense copies of shifts (``ShiftMatrix.matrix`` reads) that are built."""
    counter = DenseShiftCounter(gsis.ShiftMatrix.matrix.fget)
    monkeypatch.setattr(gsis.ShiftMatrix, "matrix", property(counter))
    return counter
