"""The edge-list form of ShiftMatrix: vector applies, stored zeros, chains, graph lookups."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import gsis
from gsis.spaces import KrylovChain


@st.composite
def weighted_graphs(draw):
    """Random weighted graph; the top vertices may be left isolated."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reach = n - draw(st.integers(0, min(3, n - 1)))  # vertices >= reach stay isolated
    pairs = [(i, j) for i in range(reach) for j in range(i + 1, reach)]
    keep = rng.random(len(pairs)) < draw(st.sampled_from([0.1, 0.3, 1.0]))
    edges = [p for p, k in zip(pairs, keep) if k]
    return gsis.Graph(n, edges, rng.uniform(0.1, 5.0, len(edges))), rng


@settings(max_examples=80, deadline=None)
@given(case=weighted_graphs(), kind=st.sampled_from(gsis.SHIFT_KINDS))
def test_vector_apply_matches_the_dense_product(case, kind):
    graph, rng = case
    try:
        shift = gsis.build_standard_shifts(graph, kind)
    except gsis.DegenerateGraphError:
        return  # the normalized laplacian of a graph with an isolated vertex
    s = shift.matrix
    x = rng.standard_normal(graph.n_vertices)
    tol = 1e-14 * max(1.0, np.linalg.norm(s)) * np.linalg.norm(x)
    assert np.abs(shift @ x - s @ x).max() <= tol
    block = rng.standard_normal((graph.n_vertices, 3))
    assert np.array_equal(shift @ block, s @ block)


def test_sub_tolerance_noise_off_the_edge_set_is_stored_as_zero():
    graph = gsis.path_graph(6)
    lap = gsis.build_standard_shifts(graph, "laplacian").matrix
    noise = np.zeros((6, 6))
    noise[0, 4] = noise[4, 0] = 1e-13  # below 1e-10 * ||L||_F, outside the path
    noise[1, 5] = 3e-14
    noise[5, 1] = 2e-14  # asymmetric too, within tolerance
    shift = gsis.ShiftMatrix(lap + noise, graph)
    assert not shift.matrix[~graph.edge_mask()].any()
    assert np.array_equal(shift.matrix, lap)
    x = np.random.default_rng(1).standard_normal(6)
    assert np.allclose(shift @ x, shift.matrix @ x, rtol=0, atol=1e-14 * np.linalg.norm(x))


def test_vector_of_the_wrong_length_raises():
    shift = gsis.build_standard_shifts(gsis.path_graph(4), "adjacency")
    with pytest.raises(ValueError, match="length 5"):
        shift @ np.ones(5)


def test_chain_from_shift_matrices_equals_the_dense_chain():
    rng = np.random.default_rng(3)
    n = 201
    graph = gsis.Graph(
        n, sorted({(min(i, (i + q) % n), max(i, (i + q) % n)) for q in (1, 4) for i in range(n)})
    )
    # two commuting polynomials in the rotation by one vertex, with irregular weights
    rotation = np.roll(np.eye(n), 1, axis=1)
    hop1 = rotation + rotation.T
    hop4 = np.linalg.matrix_power(rotation, 4)
    hop4 = hop4 + hop4.T
    shifts = gsis.ShiftSet((
        gsis.ShiftMatrix(0.3 * np.eye(n) - 0.7 * hop1, graph),
        gsis.ShiftMatrix(1.9 * hop4 - 0.1 * hop1 - 2.0 * np.eye(n), graph),
    ))
    phi = rng.standard_normal(n)
    scheme = gsis.subset_sampler(n, range(40, 160))
    edge_list = KrylovChain(shifts, [phi], scheme.matrix)
    dense = KrylovChain([s.matrix for s in shifts], [phi], scheme.matrix)
    edge_list.grow_to(24)
    dense.grow_to(24)
    assert edge_list.depth == 24
    assert edge_list.dims == dense.dims
    assert np.abs(edge_list.basis - dense.basis).max() <= 1e-12


def test_graph_lookups_agree_with_the_adjacency_on_a_large_circulant():
    graph, _ = gsis.build_circulant(2000, (1, 3))
    a = graph.adjacency()
    for (i, j), w in zip(graph.edges, graph.weights):
        assert graph.has_edge(i, j) and graph.has_edge(j, i)
        assert graph.weight_of(j, i) == w == a[i, j]
    edges = set(graph.edges)
    rng = np.random.default_rng(4)
    for i, j in rng.integers(0, 2000, size=(500, 2)):
        assert graph.has_edge(i, j) == ((min(i, j), max(i, j)) in edges) == (a[i, j] != 0)
        if a[i, j] == 0:
            with pytest.raises(KeyError):
                graph.weight_of(i, j)
    assert np.array_equal(graph.edge_mask(), (a != 0) | np.eye(2000, dtype=bool))
