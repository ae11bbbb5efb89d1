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
    a = g.adjacency()
    assert a[0, 2] and a[2, 0]
    assert not a[0, 1]
    assert a[2, 3] == 1.0


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


def test_graph_inputs_of_every_form_give_equal_graphs():
    edges, weights = [(2, 0), (1, 2), (3, 2)], [0.5, 2.0, 1.5]
    g = gsis.Graph(4, edges, weights)
    assert g.edges == ((0, 2), (1, 2), (2, 3)) and g.weights == (0.5, 2.0, 1.5)
    assert gsis.Graph(4, np.array(edges), iter(weights)) == g
    assert gsis.Graph(4, (e for e in edges), np.array(weights)) == g
    assert gsis.Graph(4, [(2.0, 0.0), (1, 2), (3, 2)], weights) == g  # integral floats pass
    # the input order does not matter; every weight and the vertex count are compared
    assert gsis.Graph(4, edges[::-1], weights[::-1]) == g
    assert hash(gsis.Graph(4, edges[::-1], weights[::-1])) == hash(g)
    assert gsis.Graph(4, edges, [0.5, 2.0, 1.25]) != g
    assert gsis.Graph(4, edges) != g
    assert gsis.Graph(5, edges, weights) != g
    assert (g == 4) is False and g != "g"  # a graph equals no other type


@pytest.mark.parametrize(
    "edges, weights, message",
    [
        ([(0.5, 2)], None, r"edges must be integers, got 0\.5"),  # used to become edge (0, 2)
        (np.array([[0.0, np.nan]]), None, "edges must be integers, got nan"),
        ([(0, 1, 2)], None, r"edges must be pairs \(i, j\)"),
        ([(0, 1), (2, 2)], None, r"self loop \(2, 2\) is not allowed"),
        ([(0, 1), (1, 3)], None, r"edge \(1, 3\) out of range for 3 vertices"),
        ([(0, 1)], [1.0, 2.0], "2 weights for 1 edges"),
        ([(0, 1)], [np.inf], "edge weights must be finite and positive"),
        ([(0, 1), (1, 0)], None, "duplicate edges are not allowed"),
    ],
)
def test_graph_rejects_bad_input_with_its_message(edges, weights, message):
    with pytest.raises(ValueError, match=message):
        gsis.Graph(3, edges, weights)


def test_library_paths_build_no_per_edge_tuples():
    graph, shifts = gsis.build_circulant(400, (1, 3))
    scheme = gsis.subset_sampler(400, range(140, 261))
    phi = np.zeros(400)
    phi[200] = 1.0
    result = gsis.reconstruct_krylov(shifts, [phi], scheme, np.cos(np.arange(140, 261) / 7.0), max_level=6)
    assert result.depth == 6
    assert "edges" not in vars(graph) and "weights" not in vars(graph)


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
    assert len(shifts) == 2 and g.n_vertices == 10
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
    first, second = shifts[0].matrix, shifts[0].matrix  # built on each read, kept by nothing
    assert first is not second and first.tobytes() == second.tobytes()
    assert not first.flags.writeable and not second.flags.writeable
    assert "matrix" not in vars(shifts[0])


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


def _complex_inputs():
    """Each library input that used to cast a complex array to float, dropping its imaginary part."""
    graph, shifts = gsis.build_circulant(12, (1, 3))
    z = np.cos(np.arange(12.0)) * (1 + 1j)
    scheme = gsis.subset_sampler(12, range(7))
    return [
        (lambda: gsis.gft(gsis.diagonalize_simultaneously(shifts), z), "signal"),
        (lambda: gsis.Signal(z, graph), "signal"),
        (lambda: gsis.ShiftMatrix(shifts[0].matrix * (1 + 1j), graph), "shift"),
        (lambda: gsis.SamplingScheme(scheme.matrix * (1 + 1j)), "sampling matrix"),
        (lambda: gsis.reconstruct_krylov(shifts, [np.eye(12)[3]], scheme, z[:7]), "y"),
    ]


@pytest.mark.parametrize("k", range(5), ids=["gft", "Signal", "ShiftMatrix", "SamplingScheme", "reconstruct_krylov"])
def test_a_complex_input_is_rejected_by_name(k):
    call, what = _complex_inputs()[k]
    with pytest.raises(ValueError, match=f"^{what} must be real, got dtype complex128$"):
        call()


def _signal_calls():
    """Each library call that takes one signal, with a list of values to give it."""
    graph, shifts = gsis.build_circulant(12, (1, 3))
    x = np.cos(np.arange(12.0)).tolist()
    scheme = gsis.subset_sampler(12, range(7))
    return [
        (lambda v: gsis.reconstruct_krylov(shifts, [np.eye(12)[3]], scheme, v, max_level=1).signal, x[:7]),
        (lambda v: gsis.apply_polynomial_filter(shifts, {(1, 0): 1.0, (0, 2): -0.5}, v), x),
        (lambda v: gsis.gft(gsis.diagonalize_simultaneously(shifts), v), x),
        (lambda v: gsis.Signal(v, graph).values, x),
        # with no basis to give the length, x0's own is read, and x0 is checked
        (lambda v: np.array(gsis.approximation_error([], v)), x),
    ]


@pytest.mark.parametrize(
    "k", range(5), ids=["reconstruct_krylov", "apply_polynomial_filter", "gft", "Signal", "approximation_error"]
)
@pytest.mark.parametrize("one_shot", [iter, lambda v: (a for a in v)], ids=["iterator", "generator"])
def test_a_signal_given_as_an_iterator_is_read_as_its_values(k, one_shot):
    call, values = _signal_calls()[k]
    assert call(one_shot(values)).tobytes() == call(values).tobytes()


def test_frobenius_tol_scales():
    assert gsis.frobenius_tol(np.zeros((3, 3))) == 1e-10
    assert gsis.frobenius_tol(np.full((2, 2), 50.0)) == pytest.approx(1e-8)


@pytest.mark.parametrize(
    "n, offsets, message",
    [(10, [1.5], "offsets must be integers, got 1.5"), (10.7, [1], "n_vertices must be integers, got 10.7")],
)
def test_circulant_sizes_follow_the_count_rule(n, offsets, message):
    # int() used to build offset 1 and 10 vertices here without a word
    with pytest.raises(ValueError, match=message):
        gsis.build_circulant(n, offsets)
    graph, shifts = gsis.build_circulant(11.0, [2.0, np.int64(3)])
    assert graph == gsis.build_circulant(11, [2, 3])[0] and len(shifts) == 2


def _edge_file(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    return gsis.read_edge_list(path)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: gsis.ShiftSet(()), "a shift set needs at least one shift"),
        (
            lambda tmp: gsis.ShiftSet(
                tuple(gsis.build_standard_shifts(g, "laplacian") for g in (gsis.path_graph(3), gsis.cycle_graph(3)))
            ),
            "all shifts in a set must share one graph",
        ),
        (lambda tmp: gsis.build_circulant(2, [1]), "a circulant graph needs at least 3 vertices"),
        (lambda tmp: gsis.cycle_graph(2), "a cycle needs at least 3 vertices"),
        (lambda tmp: gsis.build_circulant(10, []), "at least one offset is required"),
        (lambda tmp: _edge_file(tmp, "# only a comment\n\n"), "empty edge-list file"),
        (lambda tmp: _edge_file(tmp, "3\n0 1\n"), r"line 1: header must be 'N <edge_count>', got '3'"),
        (lambda tmp: _edge_file(tmp, "3 1\n0\n"), r"line 2: bad edge line '0'"),
        (lambda tmp: _edge_file(tmp, "3 1\n0 1 2.0 7\n"), r"line 2: bad edge line '0 1 2.0 7'"),
    ],
    ids=[
        "empty shift set",
        "shifts on two graphs",
        "circulant on 2 vertices",
        "cycle on 2 vertices",
        "circulant without offsets",
        "empty edge list",
        "header of one field",
        "edge line of one field",
        "edge line of four fields",
    ],
)
def test_graph_builders_reject_each_bad_input(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)


@pytest.mark.parametrize(
    "build, n, name",
    [
        (lambda n: gsis.Graph(n, [(0, 1)]), 4, "n_vertices"),
        (gsis.path_graph, 4, "n_vertices"),
        (gsis.cycle_graph, 5, "n_vertices"),
        (gsis.complete_graph, 4, "n"),
    ],
    ids=["Graph", "path_graph", "cycle_graph", "complete_graph"],
)
def test_graph_sizes_follow_the_count_rule(build, n, name):
    graph = build(float(n))
    assert graph == build(n) and type(graph.n_vertices) is int
    with pytest.raises(ValueError, match=rf"{name} must be integers, got {n + 0.5}"):
        build(n + 0.5)


@pytest.mark.parametrize("build", [gsis.path_graph, gsis.cycle_graph], ids=["path_graph", "cycle_graph"])
@pytest.mark.parametrize("n", [None, "5"], ids=["None", "string"])
def test_graph_builders_gate_a_non_number_size_first(build, n):
    # both used to raise a bare TypeError from n - 1 or n < 3
    with pytest.raises(ValueError, match=f"n_vertices must be integers, got {n!r}"):
        build(n)


def test_a_graph_size_is_a_positive_count():
    with pytest.raises(ValueError, match="n_vertices must be a positive integer, got 0"):
        gsis.Graph(0.0)
    with pytest.raises(ValueError, match="n_vertices must be integers, got None"):
        gsis.Graph(None)  # a non-number gets the count rule's message, not a bare TypeError
