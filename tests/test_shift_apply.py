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
    # a 2-D operand takes the dense product, or on the slots' side of the cost rule the vector apply per column
    expected = _columnwise(shift, block) if shift._slots_pay() else s @ block
    assert np.array_equal(shift @ block, expected)
    # numpy hands ndarray @ shift to the shift: x @ S is S @ x, and X @ S is (S @ X.T).T on the
    # slots' side of the rule; BLAS orders a transposed product's sums its own way, so there it is X @ matrix
    assert_same_bits(x @ shift, shift @ x)
    for slots in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gsis.ShiftMatrix, "_slots_pay", lambda shift: slots)
            assert_same_bits(block.T @ shift, (shift @ block).T if slots else block.T @ s)


def _columnwise(shift, x):
    """``S @ X`` as one vector apply per column."""
    return np.column_stack([shift @ c for c in x.T]) if x.shape[1] else np.zeros(x.shape)


def assert_same_bits(got, ref):
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()  # NaNs and signed zeros included


@settings(max_examples=80, deadline=None)
@given(case=weighted_graphs(), kind=st.sampled_from(gsis.SHIFT_KINDS))
def test_the_slot_apply_equals_the_vector_apply_column_by_column(case, kind):
    graph, rng = case
    try:
        shift = gsis.build_standard_shifts(graph, kind)
    except gsis.DegenerateGraphError:
        return
    n = graph.n_vertices
    for k in (1, 3, n):
        x = rng.standard_normal((n, k))
        ref = _columnwise(shift, x)
        # C-ordered, F-ordered and strided operands take different block copies
        for operand in (x, np.asfortranarray(x), np.repeat(x, 2, axis=1)[:, ::2]):
            assert_same_bits(shift._slot_apply(operand), ref)


def _irregular_shift():
    """A shift whose rows hold 0 to 4 entries: vertex 5 has none, and four diagonal entries are a kept -0.0."""
    graph = gsis.Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)], [1.5, 2.0, 0.25, 3.0, 0.5])
    m = -1.0 * gsis.build_standard_shifts(graph, "adjacency").matrix  # -0.0 on the diagonal of 0..4
    m[5, 5] = 0.0  # ... but +0.0, which is not stored, at the isolated vertex
    m[2, 2] = 0.75
    return gsis.ShiftMatrix(m, graph)


def test_the_slot_apply_skips_the_entries_a_row_lacks():
    shift = _irregular_shift()
    assert np.diff(shift._ptr).tolist() == [4, 3, 3, 3, 2, 0]
    assert np.signbit(shift._weights[shift._weights == 0.0]).all() and (shift._weights == 0.0).sum() == 4
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 4))
    x[4, 0] = np.inf  # met only by row 3's edge and row 4's kept -0.0, which makes a NaN
    x[5, 1] = np.nan  # column 5 is in no row
    x[:, 2] = np.copysign(0.0, rng.standard_normal(6))
    with np.errstate(invalid="ignore"):  # -0.0 * inf
        got, ref = shift._slot_apply(x), _columnwise(shift, x)
    assert_same_bits(got, ref)
    # a padded 0 * inf or 0 * nan would have spread to the other rows
    assert np.isfinite(got[[0, 1, 2, 5], 0]).all() and np.isneginf(got[3, 0]) and np.isnan(got[4, 0])
    assert np.isfinite(got[:, 1]).all()
    assert np.array_equal(got[5], np.zeros(4)) and not np.signbit(got[5]).any()


@pytest.mark.parametrize("block", [1, 7, 64])
def test_the_slot_apply_in_blocks_equals_one_block(block, monkeypatch):
    rng = np.random.default_rng(9)
    shifts = [_irregular_shift(), gsis.build_standard_shifts(random_connected_graph(30, rng), "normalized_laplacian")]
    cases = [(s, rng.standard_normal((s.n_vertices, k))) for s in shifts for k in (1, 5, 40)]
    monkeypatch.setattr(gsis.graphs, "_SLOT_BLOCK", block)
    for shift, x in cases:
        ref = _columnwise(shift, x)
        assert_same_bits(shift._slot_apply(x), ref)
        assert_same_bits(shift._slot_apply(np.asfortranarray(x)), ref)


def _community_laplacian(rng):
    """A Laplacian like the benchmark's 800-vertex graph: four 200-vertex communities of mean degree 6."""
    edges = set()
    for base in range(0, 800, 200):
        edges |= {(base + i, base + (i + 1) % 200) for i in range(200)}
        while len(edges) < (base // 200 + 1) * 600:
            a, b = sorted(base + rng.integers(0, 200, 2))
            if a != b:
                edges.add((int(a), int(b)))
    edges |= {(c + 7, c + 213) for c in range(0, 600, 200)}
    edges = sorted(edges)
    return gsis.build_standard_shifts(gsis.Graph(800, edges, rng.uniform(0.5, 1.5, len(edges))), "laplacian")


def test_the_cost_rule_takes_each_branch():
    _, circulant = gsis.build_circulant(1000, (1, 3))
    assert all(s._slots_pay() for s in circulant)  # 3 entries a row
    _, (s1, _) = gsis.build_circulant(300, (1, 3))
    _, (t1, _) = gsis.build_circulant(299, (1, 3))
    assert s1._slots_pay() and not t1._slots_pay()  # N / (longest row) >= _SLOT_RATIO
    laplacian = _community_laplacian(np.random.default_rng(6))
    assert np.diff(laplacian._ptr).max() > 8 and not laplacian._slots_pay()
    complete = gsis.build_standard_shifts(gsis.complete_graph(200), "laplacian")
    assert not complete._slots_pay()
    x = np.random.default_rng(7).standard_normal((1000, 5))
    assert_same_bits(circulant[0] @ x, _columnwise(circulant[0], x))
    y = x[:800]
    assert_same_bits(laplacian @ y, laplacian.matrix @ y)


def test_each_dense_shift_is_built_by_one_read_and_kept_by_nothing(dense_shifts):
    path = gsis.build_standard_shifts(gsis.path_graph(300), "laplacian")
    assert path._slots_pay()  # the images take the slots, so eigh reads the one dense shift
    gsis.diagonalize_simultaneously(gsis.ShiftSet((path,)))
    assert dense_shifts.calls == 1
    lap = gsis.build_standard_shifts(random_connected_graph(60, np.random.default_rng(15), 120), "laplacian")
    assert not lap._slots_pay()
    x = np.random.default_rng(16).standard_normal((60, 5))
    for k, product in enumerate((lambda: lap @ x, lambda: x.T @ lap, lambda: lap @ x), 2):
        product()
        assert dense_shifts.calls == k
    assert "matrix" not in vars(path) and "matrix" not in vars(lap)


@pytest.mark.parametrize("n", [12, 400], ids=["BLAS", "slots"])
def test_a_complex_block_keeps_its_imaginary_part(n):
    _, (shift, _) = gsis.build_circulant(n, (1, 3))
    assert shift._slots_pay() == (n == 400)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    got = shift @ x
    assert got.dtype == complex
    assert np.abs(got - shift.matrix @ x).max() <= 1e-14 * np.abs(x).max() * shift._frobenius_norm()


@pytest.mark.parametrize("n", [12, 400], ids=["BLAS", "slots"])
def test_a_stacked_operand_equals_its_2d_applies_and_caches_no_matrix(n):
    _, (shift, _) = gsis.build_circulant(n, (1, 3))
    assert shift._slots_pay() == (n == 400)
    x = np.random.default_rng(13).standard_normal((3, n, 4))
    left, right = shift @ x, x.transpose(0, 2, 1) @ shift
    assert left.shape == (3, n, 4) and right.shape == (3, 4, n)
    tol = 1e-14 * np.abs(x).max() * shift._frobenius_norm()
    for b in range(3):
        assert np.abs(left[b] - shift @ x[b]).max() <= tol
        assert np.abs(right[b] - x[b].T @ shift).max() <= tol
    assert "matrix" not in vars(shift)


def _unsorted_apply(shift, x):
    """Reference ``S @ x``: bincount over every entry, edges i -> j, then j -> i, then the diagonal."""
    i, j = np.array(shift.graph.edges, dtype=np.intp).reshape(-1, 2).T
    k = np.arange(shift.n_vertices)
    w = shift.edge_weights
    values = np.concatenate([w, w, shift.diagonal]) * x[np.concatenate([j, i, k])]
    return np.bincount(np.concatenate([i, j, k]), values, minlength=shift.n_vertices)


@settings(max_examples=80, deadline=None)
@given(case=weighted_graphs(), kind=st.sampled_from(gsis.SHIFT_KINDS))
def test_the_row_sorted_apply_is_bit_identical_to_the_unsorted_one(case, kind):
    graph, rng = case
    try:
        shift = gsis.build_standard_shifts(graph, kind)
    except gsis.DegenerateGraphError:
        return
    n = graph.n_vertices
    x = rng.standard_normal(n)
    zeros = np.copysign(0.0, rng.standard_normal(n))
    # the dense input -S stores -0.0 wherever S holds +0.0, as on an adjacency's diagonal
    for s in (shift, gsis.ShiftMatrix(-1.0 * shift.matrix, graph)):
        for v in (x, zeros, np.where(rng.random(n) < 0.3, zeros, x)):
            got, ref = s @ v, _unsorted_apply(s, v)
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


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
    mask = (graph.adjacency() != 0) | np.eye(n, dtype=bool)

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


def test_a_hub_vertex_keeps_the_commutator_on_the_edge_join(dense_shifts):
    graph = gsis.Graph(60, [(0, j) for j in range(1, 60)] + [(j, j + 1) for j in range(1, 59)])
    lap = gsis.build_standard_shifts(graph, "laplacian")
    assert not lap._slots_pay()  # the hub's row holds 60 entries
    assert gsis.check_commutative([lap, gsis.ShiftMatrix(2.0 * np.eye(60) + lap.matrix, graph)]).ok
    assert not gsis.check_commutative([lap, gsis.build_standard_shifts(graph, "adjacency")]).ok
    assert dense_shifts.calls == 1  # lap.matrix, for the second shift of the first pair


@pytest.mark.parametrize("block", [1, 7, 50])
def test_commutator_in_row_blocks_equals_one_block(block, monkeypatch):
    rng = np.random.default_rng(11)
    graph = random_connected_graph(25, rng, extra_edges=60)
    mask = (graph.adjacency() != 0) | np.eye(25, dtype=bool)
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
    assert not shift.matrix[(graph.adjacency() == 0) & ~np.eye(6, dtype=bool)].any()
    assert np.array_equal(shift.matrix, lap)
    x = np.random.default_rng(1).standard_normal(6)
    assert np.allclose(shift @ x, shift.matrix @ x, rtol=0, atol=1e-14 * np.linalg.norm(x))


def test_vector_of_the_wrong_length_raises():
    shift = gsis.build_standard_shifts(gsis.path_graph(4), "adjacency")
    with pytest.raises(ValueError, match="length 5"):
        shift @ np.ones(5)


@pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
def test_a_shift_without_entries_applies_as_float_zeros(kind):
    shift = gsis.build_standard_shifts(gsis.Graph(3, []), kind)
    out = shift @ np.ones(3)
    assert out.dtype == float and np.array_equal(out, np.zeros(3))


@st.composite
def windowed_operands(draw):
    """A shift, a row range ``[lo, hi)`` and a vector that vanishes off it, with signed zeros inside."""
    family = draw(st.sampled_from(["random", "circulant", "irregular"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "random":
        graph, _ = draw(weighted_graphs())
        # shuffled labels: a range's neighbours lie anywhere, so its window soon spans every row
        perm = rng.permutation(graph.n_vertices)
        edges = [tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in zip(graph._i, graph._j)]
        graph = gsis.Graph(graph.n_vertices, edges, graph._w)
        # isolated vertices leave rows with no entry in either shift
        shift = gsis.build_standard_shifts(graph, draw(st.sampled_from(["adjacency", "laplacian"])))
    elif family == "circulant":
        n = draw(st.integers(5, 60))
        offsets = {1} | draw(st.sets(st.integers(2, (n - 1) // 2), max_size=2))
        shift = gsis.build_circulant(n, sorted(offsets))[1][draw(st.integers(0, len(offsets) - 1))]
    else:
        shift = _irregular_shift()  # a kept -0.0 weight, and a vertex with no entry
    n = shift.n_vertices
    lo = draw(st.integers(0, n))
    hi = draw(st.integers(lo, n))
    x = np.zeros(n)
    x[lo:hi] = rng.standard_normal(hi - lo)
    zeros = np.flatnonzero(rng.random(n) < 0.2)
    x[zeros[(zeros >= lo) & (zeros < hi)]] = np.copysign(0.0, rng.standard_normal(1))
    return shift, lo, hi, x


@settings(max_examples=150, deadline=None)
@given(case=windowed_operands())
def test_the_window_apply_is_bit_identical_to_the_vector_apply(case):
    shift, lo, hi, x = case
    assert_same_bits(shift._window(lo, hi)(x), shift @ x)


def test_a_circulant_window_reads_only_the_rows_its_range_reaches():
    _, (s1, s3) = gsis.build_circulant(40, (1, 3))
    x = np.zeros(40)
    x[10:20] = np.random.default_rng(5).standard_normal(10)
    # [10, 20) reaches rows 7..22 of the offset-3 shift and rows 9..20 of the offset-1 one,
    # whose entries read x[4:26] and x[8:22]: a NaN anywhere else would show in a wider sum
    for shift, (a, b) in ((s3, (4, 26)), (s1, (8, 22))):
        poisoned = np.full(40, np.nan)
        poisoned[a:b] = x[a:b]
        assert_same_bits(shift._window(10, 20)(poisoned), shift @ x)
    # vertex 0 neighbours 37, and vertex 39 neighbours 0: the window reaches both ends
    x = np.zeros(40)
    x[[0, 1, 3]] = [1.0, -2.0, 0.5]
    assert_same_bits(s3._window(0, 4)(x), s3 @ x)
    assert_same_bits(s1._window(39, 40)(np.eye(40)[39]), s1 @ np.eye(40)[39])
    assert_same_bits(s3._window(12, 12)(np.full(40, np.nan)), np.zeros(40))  # an empty range reads nothing


def test_the_row_window_rule_takes_each_branch():
    _, (s, _) = gsis.build_circulant(2000, (1, 3))
    assert set(np.diff(s._ptr)) == {3}
    # 1366 rows outside the range hold 4098 entries, 1365 rows 4095
    assert s._window_pays(0, 634) and not s._window_pays(0, 635)
    assert s._window_pays(700, 1301)  # the deep-chain benchmark's window
    _, (t, _) = gsis.build_circulant(100, (1, 3))
    assert not t._window_pays(32, 64) and not t._window_pays(0, 0)  # the sweep's 100-cycle


def test_a_chain_takes_the_row_window_where_the_rule_says_it_pays(monkeypatch):
    full, windows = [], []
    matmul, window = gsis.ShiftMatrix.__matmul__, gsis.ShiftMatrix._window
    monkeypatch.setattr(gsis.ShiftMatrix, "__matmul__", lambda self, x: full.append(x) or matmul(self, x))
    monkeypatch.setattr(gsis.ShiftMatrix, "_window", lambda self, *rows: windows.append(rows) or window(self, *rows))
    # the deep-chain benchmark's circulant: every window skips thousands of entries
    _, shifts = gsis.build_circulant(2000, (1, 3))
    chain = KrylovChain(shifts, [np.eye(2000)[1000]])
    chain.grow_to(20)
    assert chain.dims[-1] == 60 and not full
    # set up once per shift for each range the 20 levels start from: with 3 new rows a side per
    # level, the range crosses into a new 32-row block on one side or the other only 4 times
    ranges = list(dict.fromkeys(windows))
    assert windows == [r for r in ranges for _ in range(2)] and ranges[0] == (992, 1024) and len(ranges) == 5
    # the sweep's 100-cycle: no window repays its set-up, so every candidate takes the full apply
    windows.clear()
    _, shifts = gsis.build_circulant(100, (1, 3))
    chain = KrylovChain(shifts, [np.eye(100)[50]])
    chain.grow_to(5)
    assert chain.dims[-1] == 15 and len(full) >= 15 - 1 and not windows


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
        assert w == a[i, j] == a[j, i]
    assert np.count_nonzero(a) == 2 * graph.n_edges
