"""The edge-list form of ShiftMatrix: construction, vector applies, commutators, chains, lookups."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import gsis
from conftest import random_connected_graph
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


def _dense_standard_shift(graph, kind):
    """The classical shifts by their dense formulas."""
    a = graph.adjacency()
    deg = a.sum(axis=1)
    lap = np.diag(deg) - a
    if kind == "adjacency":
        return a
    if kind == "laplacian":
        return lap
    d = 1.0 / np.sqrt(deg)
    return d[:, None] * lap * d[None, :]


@settings(max_examples=80, deadline=None)
@given(case=weighted_graphs(), kind=st.sampled_from(gsis.SHIFT_KINDS))
def test_standard_shifts_equal_their_dense_formulas(case, kind):
    weighted, _ = case
    unweighted = gsis.Graph(weighted.n_vertices, weighted.edges)
    for graph in (unweighted, weighted):
        try:
            shift = gsis.build_standard_shifts(graph, kind)
        except gsis.DegenerateGraphError:
            return
        dense = _dense_standard_shift(graph, kind)
        err = np.abs(shift.matrix - dense).max()
        if graph is unweighted:
            assert err == 0.0  # every degree is an exact integer sum
        else:  # degree sums may round in another order
            assert err <= 1e-14 * max(1.0, np.linalg.norm(dense))


@st.composite
def shift_pairs(draw):
    """Two shifts on one random graph: commuting or not, as drawn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["laplacian polynomials", "circulant offsets", "random"]))
    if family == "circulant offsets":
        n = draw(st.integers(5, 30))
        # offset 1 keeps the graph connected
        offsets = [1] + draw(st.lists(st.integers(2, (n - 1) // 2), min_size=1, max_size=2, unique=True))
        graph, shifts = gsis.build_circulant(n, offsets)
        a, b = rng.uniform(-3.0, 3.0, 2)
        return shifts[0], gsis.ShiftMatrix(a * np.eye(n) + b * shifts[1].matrix, graph)
    graph, _ = draw(weighted_graphs())
    n = graph.n_vertices
    if family == "laplacian polynomials":
        # L and L^2 are shifts on the graph of L's two-hop support
        lap = gsis.build_standard_shifts(graph, "laplacian").matrix
        square = lap @ lap
        two_hop = gsis.Graph(n, [(i, j) for i, j in zip(*np.nonzero(square)) if i < j])
        c = rng.uniform(-2.0, 2.0, 5)
        return (
            gsis.ShiftMatrix(c[0] * np.eye(n) + c[1] * lap, two_hop),
            gsis.ShiftMatrix(c[2] * np.eye(n) + c[3] * lap + c[4] * square, two_hop),
        )
    mask = graph.edge_mask()

    def random_shift():
        m = np.where(mask, rng.standard_normal((n, n)), 0.0)
        return gsis.ShiftMatrix(m + m.T, graph)

    return random_shift(), random_shift()


@settings(max_examples=120, deadline=None)
@given(pair=shift_pairs())
def test_commutator_from_the_edges_equals_the_dense_commutator(pair):
    a, b = pair
    ma, mb = a.matrix, b.matrix
    dense = np.linalg.norm(ma @ mb - mb @ ma)
    check = gsis.check_commutative([a, b])
    scale = max(1.0, np.linalg.norm(ma) * np.linalg.norm(mb))
    assert abs(check.residual - dense) <= 1e-12 * scale
    tol = gsis.graphs.MATRIX_REL * max(1.0, np.linalg.norm(ma), np.linalg.norm(mb))
    if abs(dense - tol) > 1e-12 * scale:  # the verdict is the dense one away from the boundary
        assert check.ok == (dense <= tol)


@pytest.mark.parametrize("block", [1, 7, 50])
def test_commutator_in_row_blocks_equals_one_block(block, monkeypatch):
    rng = np.random.default_rng(11)
    graph = random_connected_graph(25, rng, extra_edges=60)
    mask = graph.edge_mask()
    m1, m2 = (np.where(mask, rng.standard_normal((25, 25)), 0.0) for _ in range(2))
    pair = [gsis.ShiftMatrix(m + m.T, graph) for m in (m1, m2)]
    whole = gsis.check_commutative(pair).residual
    monkeypatch.setattr(gsis.graphs, "_JOIN_BLOCK", block)
    assert gsis.check_commutative(pair).residual == pytest.approx(whole, rel=1e-13)
    dense = np.linalg.norm(pair[0].matrix @ pair[1].matrix - pair[1].matrix @ pair[0].matrix)
    assert whole == pytest.approx(dense, rel=1e-12)


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


def test_a_deep_chain_reads_no_dense_matrix():
    _, shifts = gsis.build_circulant(400, (1, 3))
    scheme = gsis.subset_sampler(400, range(140, 261))
    phi = np.zeros(400)
    phi[200] = 1.0
    y = np.cos(np.arange(140, 261) / 7.0)
    result = gsis.reconstruct_krylov(shifts, [phi], scheme, y, max_level=12)
    assert result.depth == 12
    assert not any("matrix" in vars(obj) for obj in (*shifts, scheme))


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
