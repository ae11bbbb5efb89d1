"""A shift is exported from its edges, byte for byte as ``np.savetxt`` writes its dense matrix."""

import numpy as np
import pytest

import gsis
from gsis import io
from gsis.cli import main

from conftest import random_connected_graph


def assert_exported_like_savetxt(shift, tmp_path):
    path = io.save_shift_csv(tmp_path / "nested" / "shift.csv", shift)
    np.savetxt(tmp_path / "dense.csv", shift.matrix, delimiter=",")
    assert path.read_bytes() == (tmp_path / "dense.csv").read_bytes()


def _weighted_graph_with_an_isolated_vertex():
    graph = random_connected_graph(9, np.random.default_rng(4))
    return gsis.Graph(10, graph.edges, graph.weights)  # vertex 9 has no edge


def test_circulant_shifts_are_exported_like_savetxt(tmp_path):
    _, shifts = gsis.build_circulant(60, [1, 3])
    for shift in shifts:
        assert_exported_like_savetxt(shift, tmp_path)


@pytest.mark.parametrize("kind", gsis.SHIFT_KINDS)
def test_standard_shifts_are_exported_like_savetxt(kind, tmp_path):
    graph = _weighted_graph_with_an_isolated_vertex()
    if kind == "normalized_laplacian":  # undefined on an isolated vertex
        graph = random_connected_graph(9, np.random.default_rng(4))
    assert_exported_like_savetxt(gsis.build_standard_shifts(graph, kind), tmp_path)


def test_signed_zeros_are_exported_like_savetxt(tmp_path):
    graph = gsis.path_graph(4)
    dense = np.zeros((4, 4))
    dense[0, 1] = dense[1, 0] = -0.0
    dense[1, 2] = dense[2, 1] = 1.5
    dense[3, 3] = -0.0
    shift = gsis.ShiftMatrix(dense, graph)
    assert np.signbit(shift.edge_weights[0]) and np.signbit(shift.diagonal[3])
    assert_exported_like_savetxt(shift, tmp_path)


def test_graph_export_writes_the_shifts_like_savetxt(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["graph", "export", "--circulant", "12", "--q", "1,3", "--out", str(out)]) == 0
    _, shifts = gsis.build_circulant(12, [1, 3])
    for k, shift in enumerate(shifts):
        np.savetxt(tmp_path / "dense.csv", shift.matrix, delimiter=",")
        assert (out / f"shift_{k}.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()
