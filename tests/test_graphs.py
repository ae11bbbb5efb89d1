import tracemalloc

import numpy as np
import pytest

import gsis
from gsis.errors import DegenerateGraphError

from conftest import random_connected_graph


def test_graph_normalizes_edges():
    g = gsis.Graph(4, [(2, 0), (1, 2), (3, 2)])
    assert g.edges == ((0, 2), (1, 2), (2, 3))
    assert g.weights == (1.0, 1.0, 1.0)
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)
    assert g.weight_of(2, 3) == 1.0


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        gsis.Graph(3, [(0, 0)])  # self-loop
    with pytest.raises(ValueError):
        gsis.Graph(3, [(0, 1), (1, 0)])  # duplicate
    with pytest.raises(ValueError):
        gsis.Graph(3, [(0, 3)])  # out of range
    with pytest.raises(ValueError):
        gsis.Graph(3, [(0, 1)], [-1.0])  # nonpositive weight
    with pytest.raises(ValueError):
        gsis.Graph(0, [])


def test_adjacency_and_degrees():
    g = gsis.Graph(3, [(0, 1), (1, 2)], [2.0, 3.0])
    a = g.adjacency()
    assert np.array_equal(a, np.array([[0, 2, 0], [2, 0, 3], [0, 3, 0]], dtype=float))
    assert np.array_equal(g.degrees(), np.array([2.0, 5.0, 3.0]))


def test_standard_shift_kinds():
    g = gsis.cycle_graph(4)
    a = g.adjacency()
    lap = gsis.build_standard_shifts(g, "laplacian")
    assert np.allclose(lap.matrix, np.diag(a.sum(axis=1)) - a)
    adj = gsis.build_standard_shifts(g, "adjacency")
    assert np.array_equal(adj.matrix, a)
    # C4 is 2-regular, so the normalized Laplacian is I - A/2
    nl = gsis.build_standard_shifts(g, "normalized_laplacian")
    assert np.allclose(nl.matrix, np.eye(4) - a / 2.0)
    with pytest.raises(ValueError):
        gsis.build_standard_shifts(g, "resistance")


def test_normalized_laplacian_oracle_weighted():
    g = gsis.Graph(3, [(0, 1), (1, 2)], [2.0, 3.0])
    d = np.diag(g.degrees() ** -0.5)
    lap = np.diag(g.degrees()) - g.adjacency()
    nl = gsis.build_standard_shifts(g, "normalized_laplacian")
    assert np.allclose(nl.matrix, d @ lap @ d)


def test_normalized_laplacian_isolated_vertex_fails():
    g = gsis.Graph(3, [(0, 1)])
    with pytest.raises(DegenerateGraphError):
        gsis.build_standard_shifts(g, "normalized_laplacian")


def test_shift_matrix_validation():
    g = gsis.path_graph(3)
    with pytest.raises(ValueError):
        gsis.ShiftMatrix(np.zeros((3, 4)), g)
    asym = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        gsis.ShiftMatrix(asym, g)
    off_edge = np.zeros((3, 3))
    off_edge[0, 2] = off_edge[2, 0] = 1.0
    with pytest.raises(ValueError):
        gsis.ShiftMatrix(off_edge, g)
    ok = np.diag([1.0, 2.0, 3.0])
    s = gsis.ShiftMatrix(ok, g)
    gsis.ShiftMatrix(s.matrix, g)  # the stored matrix passes the same checks again
    with pytest.raises(ValueError):
        s.matrix[0, 0] = 5.0  # read-only


def test_check_commutative():
    g = gsis.path_graph(3)
    s1 = gsis.build_standard_shifts(g, "laplacian")
    s2 = gsis.ShiftMatrix(2.0 * np.eye(3) + 0.5 * s1.matrix, g)
    ok = gsis.check_commutative([s1, s2])
    assert ok.ok and ok.residual <= 1e-12

    # disjoint off-diagonal patterns on a triangle generically fail to commute
    tri = gsis.complete_graph(3)
    m1 = np.zeros((3, 3))
    m1[0, 1] = m1[1, 0] = 1.3
    m2 = np.zeros((3, 3))
    m2[1, 2] = m2[2, 1] = 0.7
    bad = gsis.check_commutative([gsis.ShiftMatrix(m1, tri), gsis.ShiftMatrix(m2, tri)])
    assert not bad.ok and bad.residual > 0.1


def test_shift_set_requires_commuting():
    tri = gsis.complete_graph(3)
    m1 = np.zeros((3, 3))
    m1[0, 1] = m1[1, 0] = 1.3
    m2 = np.zeros((3, 3))
    m2[1, 2] = m2[2, 1] = 0.7
    with pytest.raises(ValueError, match="shifts do not commute: largest commutator residual"):
        gsis.ShiftSet((gsis.ShiftMatrix(m1, tri), gsis.ShiftMatrix(m2, tri)))


def test_build_circulant_structure():
    g, shifts = gsis.build_circulant(10, [1, 3])
    assert shifts.n_shifts == 2 and g.n_vertices == 10
    s1 = shifts[0].matrix
    # rows: 1 on the diagonal, -1/2 at offsets +-q
    assert np.allclose(np.diag(s1), 1.0)
    assert s1[0, 1] == -0.5 and s1[0, 9] == -0.5 and s1[0, 2] == 0.0
    s3 = shifts[1].matrix
    assert s3[0, 3] == -0.5 and s3[0, 7] == -0.5 and s3[0, 1] == 0.0
    check = gsis.check_commutative(shifts)
    assert check.ok


@pytest.mark.parametrize("n, offsets", [(10, (1, 3)), (11, (2, 5)), (200, (1, 3, 7))])
def test_build_circulant_matches_the_dense_construction(n, offsets):
    _, shifts = gsis.build_circulant(n, offsets)
    v = np.arange(n)
    for q, shift in zip(offsets, shifts):
        dense = np.eye(n)
        dense[v, (v + q) % n] = -0.5
        dense[v, (v - q) % n] = -0.5
        assert np.array_equal(shift.matrix, dense)
    assert shifts.commutativity_residual == 0.0


def test_large_circulant_is_built_without_dense_matrices():
    tracemalloc.start()
    try:
        _, shifts = gsis.build_circulant(2000, (1, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all("matrix" not in vars(shift) for shift in shifts)
    assert peak < 16e6  # one dense 2000 x 2000 array alone is 32 MB
    dense = shifts[0].matrix  # built on first access, then kept
    assert shifts[0].matrix is dense and not dense.flags.writeable


def test_build_circulant_validation():
    with pytest.raises(ValueError):
        gsis.build_circulant(10, [5])  # q must be < N/2
    with pytest.raises(ValueError):
        gsis.build_circulant(10, [0])
    with pytest.raises(ValueError):
        gsis.build_circulant(10, [1, 1])
    with pytest.warns(UserWarning):
        gsis.build_circulant(10, [2])  # gcd(2, 10) > 1: disconnected


def test_named_graphs():
    p = gsis.path_graph(4)
    assert p.edges == ((0, 1), (1, 2), (2, 3))
    c = gsis.cycle_graph(4)
    assert (0, 3) in c.edges and len(c.edges) == 4
    k = gsis.complete_graph(4)
    assert len(k.edges) == 6


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(42)
    g = random_connected_graph(7, rng)
    path = tmp_path / "g.txt"
    gsis.write_edge_list(g, path)
    g2 = gsis.read_edge_list(path)
    assert g2.n_vertices == g.n_vertices
    assert g2.edges == g.edges
    assert np.allclose(g2.weights, g.weights)


def test_read_edge_list_parses_comments_and_defaults(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n3 2\n0 1\n1 2 2.5\n")
    g = gsis.read_edge_list(path)
    assert g.n_vertices == 3
    assert g.weights == (1.0, 2.5)
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n")
    with pytest.raises(ValueError):
        gsis.read_edge_list(bad)


def test_signal_validation():
    g = gsis.path_graph(3)
    s = gsis.Signal([1.0, 2.0, 3.0], g)
    assert np.array_equal(s.values, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        gsis.Signal([1.0, 2.0], g)
    with pytest.raises(ValueError):
        gsis.Signal([1.0, np.nan, 3.0], g)


def test_frobenius_tol_scales():
    assert gsis.frobenius_tol(np.zeros((3, 3))) == 1e-10
    assert gsis.frobenius_tol(np.full((2, 2), 50.0)) == pytest.approx(1e-8)
