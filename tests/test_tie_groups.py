"""Tied joint eigenvalues are grouped once, and each group's basis ignores the seed.

``diagonalize_simultaneously`` stores the groups on the decomposition and
replaces the basis inside each repeated group by one fixed by the shifts
alone, so the seed of the random shift combination changes nothing
downstream.  The grouping is checked against the pairwise-distance
single-linkage partition it replaced, kept here as the oracle.  A
generated space is checked against a group-by-group thin-SVD construction
that leaves the decomposition as it is, and the finite-step chain against
the direct solver on spaces with one column per group.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

import gsis
from conftest import INJECTIVE_SMIN, laplacian_shift_set, random_connected_graph
from gsis.spaces import SUPPORT_REL, _group_ranks
from gsis.spectral import (
    DIAGONALIZATION_DRAWS,
    DIAGONALIZATION_REL,
    DISTINCT_REL,
    _fourier_rows,
    _min_distance,
    _row_eigenvalues,
    _sign_normalize,
    _tie_groups,
)

SEEDS = range(8)


def decompose(shifts, seed):
    """``diagonalize_simultaneously`` with its random combinations drawn from ``seed``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gsis.spectral, "_DRAW_SEED", seed)
        return gsis.diagonalize_simultaneously(shifts)


def _cycle_laplacian(n):
    eye = np.eye(n)
    return 2.0 * eye - np.roll(eye, 1, axis=1) - np.roll(eye, -1, axis=1)


def torus_shifts(a, b):
    """Kronecker-sum Laplacians of the a x b torus: L_a (x) I_b and I_a (x) L_b."""
    s1 = np.kron(_cycle_laplacian(a), np.eye(b))
    s2 = np.kron(np.eye(a), _cycle_laplacian(b))
    i, j = np.nonzero(np.triu(s1 + s2, 1))
    graph = gsis.Graph(a * b, list(zip(i.tolist(), j.tolist())))
    return gsis.ShiftSet((gsis.ShiftMatrix(s1, graph), gsis.ShiftMatrix(s2, graph)))


def torus_laplacian(a, b):
    """The a x b torus Laplacian ``L_a (x) I_b + I_a (x) L_b`` as a one-shift family."""
    s1, s2 = torus_shifts(a, b)
    return gsis.ShiftSet((gsis.ShiftMatrix(s1.matrix + s2.matrix, s1.graph),))


def pairwise_distances(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def pairwise_partition(points):
    """Single-linkage groups of rows within DISTINCT_REL times the diameter (the oracle)."""
    dist = pairwise_distances(points)
    close = dist <= DISTINCT_REL * float(dist.max())
    seen = np.zeros(len(points), dtype=bool)
    groups = []
    for start in range(len(points)):
        if seen[start]:
            continue
        stack, members = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            members.append(i)
            for j in np.flatnonzero(close[i] & ~seen):
                seen[j] = True
                stack.append(int(j))
        groups.append(frozenset(members))
    return groups


FAMILIES = {
    "circulant 12 (1, 3)": lambda: gsis.build_circulant(12, [1, 3])[1],
    "circulant 50 (1, 3)": lambda: gsis.build_circulant(50, [1, 3])[1],
    "circulant 100 (1, 2, 5)": lambda: gsis.build_circulant(100, [1, 2, 5])[1],
    "torus 6 x 5": lambda: torus_shifts(6, 5),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_groups_and_bases_do_not_depend_on_the_seed(name):
    shifts = FAMILIES[name]()
    first, *rest = [decompose(shifts, s) for s in SEEDS]
    assert any(len(g) > 1 for g in first.groups)
    for decomp in rest:
        assert decomp.groups == first.groups
        assert np.abs(decomp.basis - first.basis).max() <= 1e-10
        assert np.abs(decomp.eigenvalues - first.eigenvalues).max() <= 1e-10


@pytest.mark.parametrize("name", FAMILIES)
def test_groups_are_consecutive_runs_in_column_order(name):
    decomp = gsis.diagonalize_simultaneously(FAMILIES[name]())
    assert [i for g in decomp.groups for i in g] == list(range(decomp.n_vertices))
    # tied columns share their joint eigenvalue; the columns ascend in the first shift
    for g in decomp.groups:
        spread = np.ptp(decomp.eigenvalues[:, g], axis=1)
        assert spread.max() <= 1e-10
    assert np.all(np.diff(decomp.eigenvalues[0]) >= -1e-10)


def test_model_comparison_does_not_depend_on_the_seed():
    _, shifts = gsis.build_circulant(100, [1, 3])
    rng = np.random.default_rng(3)
    dataset = [rng.standard_normal(100) for _ in range(5)]
    first, *rest = [
        gsis.run_model_comparison(
            shifts,
            decompose(shifts, s),
            dataset,
            rule="nonadaptive",
            levels=range(0, 9),
        )
        for s in SEEDS
    ]
    for cmp in rest:
        assert np.array_equal(cmp.dims, first.dims)
        assert np.abs(cmp.f_bandlimited - first.f_bandlimited).max() <= 1e-12
        assert np.abs(cmp.f_krylov - first.f_krylov).max() <= 1e-12


@st.composite
def commuting_families(draw):
    """Circulants (repeated pairs), tori (2-D ties) and weighted Laplacians (distinct)."""
    kind = draw(st.sampled_from(["circulant", "torus", "laplacian"]))
    if kind == "circulant":
        n = draw(st.integers(3, 24))
        # offset 1 keeps the cycle connected
        offsets = {1} | draw(st.sets(st.integers(1, (n - 1) // 2), max_size=2))
        return gsis.build_circulant(n, sorted(offsets))[1]
    if kind == "torus":
        return torus_shifts(draw(st.integers(3, 6)), draw(st.integers(3, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = random_connected_graph(draw(st.integers(2, 16)), rng)
    return laplacian_shift_set(graph, rng=rng if draw(st.booleans()) else None)


@settings(max_examples=60, deadline=None)
@given(shifts=commuting_families(), seed=st.integers(0, 7))
def test_groups_refine_to_the_pairwise_partition(shifts, seed):
    decomp = decompose(shifts, seed)
    points = decomp.eigenvalues.T
    oracle = pairwise_partition(points)
    groups = [frozenset(g) for g in decomp.groups]
    pairs = pairwise_distances(points)[np.triu_indices(len(points), 1)]
    gap = float(pairs.min()) if pairs.size else np.inf
    assert decomp.min_spectral_gap == gap
    assert decomp.assumption1_holds == all(len(g) == 1 for g in groups)
    if decomp.n_shifts == 1:
        assert sorted(map(sorted, groups)) == sorted(map(sorted, oracle))
        diameter = float(pairs.max()) if pairs.size else 0.0
        assert decomp.assumption1_holds == (gap > DISTINCT_REL * diameter and gap > 0.0)
    else:
        # tied in every coordinate is coarser than close in euclidean distance
        assert all(any(o <= g for g in groups) for o in oracle)


def per_group_thin_svd_space(decomp, gens):
    """omega, projector and whether a tied group is cut, group by group (the oracle).

    Each group contributes the columns ``U_g @ left[:, :rank]`` of a thin
    SVD, the span of the generators' projections onto it, while the input
    decomposition is left as it is.
    """
    ghat = decomp.basis.T @ np.column_stack(gens)
    scales = np.linalg.norm(ghat, axis=0)
    omega, cols, cut = [], [], False
    for group in decomp.groups:
        sub = ghat[group, :]
        if len(group) == 1:
            if np.any(np.abs(sub[0]) > SUPPORT_REL * scales):
                omega.append(group[0])
                cols.append(decomp.basis[:, group])
            continue
        left, svals, _ = np.linalg.svd(sub, full_matrices=False)
        rank = int(np.sum(svals > SUPPORT_REL * scales.max()))
        cut |= 0 < rank < len(group)
        omega.extend(group[:rank])
        cols.append(decomp.basis[:, group] @ left[:, :rank])
    q = np.hstack(cols)
    return omega, q @ q.T, cut


@st.composite
def generator_families(draw, n):
    """1-3 generators: impulses (symmetric, so they cut tied groups) or random vectors."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            gens.append(np.eye(n)[draw(st.integers(0, n - 1))])
        else:
            gens.append(rng.standard_normal(n))
    return gens


def check_generated_space(shifts, gens):
    """Check the generated space against the oracle; return whether it cuts a tied group."""
    decomp = gsis.diagonalize_simultaneously(shifts)
    space = gsis.gsis_from_generators(decomp, gens)
    omega, projector, cut = per_group_thin_svd_space(decomp, gens)
    assert np.array_equal(space.basis, space.decomp.basis[:, list(space.omega)])
    for s in shifts:
        lam = space.decomp.eigenvalues_of(s.matrix, "shift")  # checked, not the stored row of a member
        assert np.abs(lam - decomp.eigenvalues_of(s, "shift")).max() <= 1e-10
    assert list(space.omega) == omega
    assert np.abs(space.basis @ space.basis.T - projector).max() <= 1e-12
    assert space.decomp.groups == decomp.groups
    assert (space.decomp is decomp) == (not cut)
    assert gsis.is_shift_invariant(space, shifts)
    return cut


@settings(max_examples=60, deadline=None)
@given(shifts=commuting_families(), data=st.data())
def test_generated_spaces_are_bandlimited_in_their_decomposition(shifts, data):
    check_generated_space(shifts, data.draw(generator_families(shifts.n_vertices)))


@pytest.mark.parametrize(
    "shifts, gens, cut",
    [
        # the impulse takes one direction of every paired eigenspace
        (gsis.build_circulant(12, [1])[1], [np.eye(12)[6]], True),
        # two generic generators span every pair, so no group is cut
        (gsis.build_circulant(30, [1, 3])[1], list(np.random.default_rng(1).standard_normal((2, 30))), False),
        # a distinct spectrum has no tied group to cut
        (laplacian_shift_set(gsis.path_graph(30)), [np.eye(30)[7]], False),
    ],
    ids=["cycle 12 impulse", "circulant 30 two generic", "path 30 impulse"],
)
def test_generated_space_cases(shifts, gens, cut):
    assert check_generated_space(shifts, gens) == cut


def _dense_reference(shifts, seed):
    """The decomposition from the dense matrices of every shift, all held at once (the oracle).

    Returns the basis, eigenvalues, groups, gap and residual that
    ``diagonalize_simultaneously`` gave when it summed and multiplied the
    cached dense ``matrix`` of each shift and rotated every tied group of
    one size in a single batch.  A shift the block-apply cost rule sends to
    the slots takes its images row by row through the vector apply, which
    the slot apply equals bit for bit.  Every norm comes from the edge
    weights.
    """
    mats = [s.matrix for s in shifts]
    slots = [s._slots_pay() for s in shifts]
    norms = np.array([s._frobenius_norm() for s in shifts])
    rng = np.random.default_rng(seed)
    ramp = np.arange(shifts.n_vertices, dtype=float)
    for _ in range(DIAGONALIZATION_DRAWS):
        if len(shifts) == 1:
            combo = mats[0]
        else:
            d = rng.standard_normal(len(shifts))
            d /= np.linalg.norm(d)
            combo = sum(dl * m for dl, m in zip(d, mats))
        rows = np.linalg.eigh(combo)[1].T.copy()
        images = [np.array([s @ r for r in rows]) if slot else rows @ m for s, slot, m in zip(shifts, slots, mats)]
        groups = _tie_groups(_row_eigenvalues(rows, images))
        for size in {len(g) for g in groups} - {1}:
            idx = np.array([g for g in groups if len(g) == size])
            block = rows[idx]
            qt = np.linalg.eigh((block * ramp) @ block.transpose(0, 2, 1))[1].transpose(0, 2, 1)
            for a in (rows, *images):
                a[idx] = qt @ a[idx]
        lams = _row_eigenvalues(rows, images)
        for im, lam in zip(images, lams):
            im -= lam[:, None] * rows
        residuals = np.array([np.linalg.norm(im) for im in images])
        if np.all(residuals <= DIAGONALIZATION_REL * norms):
            order = np.concatenate(groups)
            lams = np.ascontiguousarray(lams[:, order])
            ends = np.cumsum([len(g) for g in groups])
            return (
                _sign_normalize(rows[order].T),
                lams,
                tuple(range(e - len(g), e) for g, e in zip(groups, ends)),
                _min_distance(lams.T),
                float((residuals / np.where(norms > 0, norms, 1.0)).max()),
            )
    raise AssertionError("the reference found no basis")


def assert_decomposition_matches_the_dense_reference(shifts):
    assert _fourier_rows(shifts) is None  # a circulant family skips the eigendecomposition
    for seed in range(4):
        decomp = decompose(shifts, seed)
        basis, eigenvalues, groups, gap, residual = _dense_reference(shifts, seed)
        # bytes and strides, so signed zeros and the memory layout count too
        assert decomp.basis.tobytes() == basis.tobytes() and decomp.basis.strides == basis.strides
        assert decomp.eigenvalues.tobytes() == eigenvalues.tobytes()
        assert decomp.groups == groups
        assert decomp.min_spectral_gap == gap
        assert decomp.max_residual == residual


@st.composite
def shift_polynomial_families(draw):
    """Tori and polynomials of one weighted Laplacian: families that are not circulant."""
    if draw(st.booleans()):
        return torus_shifts(draw(st.integers(3, 6)), draw(st.integers(3, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # on two vertices a shift with a constant diagonal is circulant
    graph = random_connected_graph(draw(st.integers(3, 16)), rng)
    n = graph.n_vertices
    lap = gsis.build_standard_shifts(graph, "laplacian").matrix
    square = lap @ lap
    # L and L^2 are shifts on the graph of |L|'s two-hop support
    support = np.abs(lap) @ np.abs(lap)
    two_hop = gsis.Graph(n, [(i, j) for i, j in zip(*np.nonzero(support)) if i < j])
    c = rng.uniform(-2.0, 2.0, 5)
    return gsis.ShiftSet(
        (
            gsis.ShiftMatrix(c[0] * np.eye(n) + c[1] * lap, two_hop),
            gsis.ShiftMatrix(c[2] * np.eye(n) + c[3] * lap + c[4] * square, two_hop),
        )
    )


@settings(max_examples=40, deadline=None)
@given(shifts=shift_polynomial_families())
def test_decomposition_from_the_edges_equals_the_dense_reference(shifts):
    assert_decomposition_matches_the_dense_reference(shifts)


def relabelled(shifts, seed):
    """The family on randomly renumbered vertices: a relabelled circulant is not circulant as data."""
    perm = np.random.default_rng(seed).permutation(shifts.n_vertices)
    mats = [s.matrix[np.ix_(perm, perm)] for s in shifts]
    i, j = np.nonzero(np.triu(sum(np.abs(m) for m in mats), 1))
    graph = gsis.Graph(shifts.n_vertices, list(zip(i.tolist(), j.tolist())))
    return gsis.ShiftSet(tuple(gsis.ShiftMatrix(m, graph) for m in mats))


@pytest.mark.parametrize(
    "shifts",
    [
        # 149 tied pairs, so the pairs are rotated in three batches
        relabelled(gsis.build_circulant(300, [1, 3])[1], 0),
        torus_shifts(10, 20),
        torus_laplacian(12, 13),
    ],
    ids=["relabelled circulant 300 (1, 3)", "torus 10 x 20", "torus 12 x 13 laplacian"],
)
def test_large_tied_decompositions_equal_the_dense_reference(shifts):
    assert_decomposition_matches_the_dense_reference(shifts)


def random_circulant_family(n, offsets, n_shifts, rng):
    """Shifts with a random constant diagonal and a random weight per offset, on the graph of every offset."""
    v = np.arange(n)
    # offset n/2 joins each vertex to one opposite vertex, so it makes n/2 edges
    edges = [(i, (i + q) % n) for q in offsets for i in range(n // 2 if 2 * q == n else n)]
    graph = gsis.Graph(n, edges)
    shifts = []
    for _ in range(n_shifts):
        row = np.zeros(n)
        row[0] = rng.uniform(-1.0, 1.0)
        for q in offsets:
            row[q] = row[-q] = rng.uniform(-1.0, 1.0)
        shifts.append(gsis.ShiftMatrix(row[(v[None, :] - v[:, None]) % n], graph))
    return gsis.ShiftSet(tuple(shifts))


@st.composite
def circulant_families(draw):
    """1-2 random circulant shifts on 2-3 offsets, odd and even N, with or without the offset N/2."""
    n = draw(st.integers(5, 200))
    offsets = draw(st.lists(st.integers(1, n // 2), min_size=2, max_size=3, unique=True))
    if draw(st.booleans()):
        offsets = offsets[:2] + [n // 2]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_circulant_family(n, sorted(set(offsets)), draw(st.integers(1, 2)), rng)


@settings(max_examples=40, deadline=None)
@given(shifts=circulant_families())
def test_circulant_bases_agree_with_the_dense_reference(shifts):
    assert _fourier_rows(shifts) is not None
    decomp = gsis.diagonalize_simultaneously(shifts)
    basis, eigenvalues, groups, _, _ = _dense_reference(shifts, 0)
    assert decomp.groups == groups
    scale = max(1.0, float(np.abs(eigenvalues).max()))
    assert np.abs(decomp.eigenvalues - eigenvalues).max() <= 1e-12 * scale
    assert np.abs(decomp.basis - basis).max() <= 1e-9
    assert decomp.max_residual <= 1e-13
    for seed in range(1, 8):
        assert decompose(shifts, seed).basis.tobytes() == decomp.basis.tobytes()


def _with_edge_weight(shift, k, value):
    weights = shift.edge_weights.copy()
    weights[k] = value
    return gsis.ShiftMatrix._from_edges(shift.graph, shift.diagonal, weights)


def not_circulant_families():
    """A torus, a weighted Laplacian, and 12-vertex circulants that each miss circulance by one entry.

    A zero edge weight leaves its row one entry short of row 0, and a kept
    -0.0 adds an entry at an offset row 0 does not hold.
    """
    s0, s1 = gsis.build_circulant(12, [1, 3])[1]
    diagonal = s0.diagonal.copy()
    diagonal[5] += 0.5
    hop = int(np.flatnonzero(s0.edge_weights)[-1])  # an edge of offset 1 away from vertex 0
    zero = int(np.flatnonzero(s0.edge_weights == 0.0)[0])  # an edge of offset 3
    return {
        "torus": torus_shifts(4, 5),
        "one ulp": gsis.ShiftSet((_with_edge_weight(s0, hop, np.nextafter(s0.edge_weights[hop], 0.0)), s1)),
        "diagonal": gsis.ShiftSet((gsis.ShiftMatrix._from_edges(s0.graph, diagonal, s0.edge_weights),)),
        "zero weight": gsis.ShiftSet((_with_edge_weight(s0, hop, 0.0),)),
        "kept -0.0": gsis.ShiftSet((_with_edge_weight(s0, zero, -0.0), s1)),
        "weighted laplacian": laplacian_shift_set(random_connected_graph(12, np.random.default_rng(2))),
    }


@pytest.mark.parametrize("name", ["torus", "one ulp", "diagonal", "zero weight", "kept -0.0", "weighted laplacian"])
def test_a_family_that_is_not_circulant_takes_one_eigendecomposition(name, dense_eighs):
    shifts = not_circulant_families()[name]
    assert _fourier_rows(shifts) is None
    gsis.diagonalize_simultaneously(shifts)
    assert dense_eighs.calls == 1


def per_group_ranks(decomp, gens):
    """``(group, rank, left)`` from one SVD per tied group (the oracle for the batched SVDs)."""
    ghat = decomp.basis.T @ np.column_stack(gens)
    scales = np.linalg.norm(ghat, axis=0)
    for group in decomp.groups:
        sub = ghat[group, :]
        if len(group) == 1:
            yield group, int(np.any(np.abs(sub[0]) > SUPPORT_REL * scales)), None
            continue
        left, svals, _ = np.linalg.svd(sub)
        yield group, int(np.sum(svals > SUPPORT_REL * scales.max())), left


@pytest.mark.parametrize("n_gens", [1, 2])
@pytest.mark.parametrize(
    "shifts",
    [torus_shifts(4, 5), gsis.build_circulant(30, [1, 3])[1]],
    ids=["torus 4 x 5", "circulant 30 (1, 3)"],
)
def test_batched_group_ranks_equal_one_svd_per_group(shifts, n_gens):
    decomp = gsis.diagonalize_simultaneously(shifts)
    assert {len(g) for g in decomp.groups} >= {1, 2}
    gens = list(np.random.default_rng(n_gens).standard_normal((n_gens, shifts.n_vertices)))
    batched, looped = list(_group_ranks(decomp, gens)), list(per_group_ranks(decomp, gens))
    assert len(batched) == len(looped) == len(decomp.groups)
    for (group, rank, left), (group_ref, rank_ref, left_ref) in zip(batched, looped):
        assert (group, rank) == (group_ref, rank_ref)
        assert (left is None and left_ref is None) or left.tobytes() == left_ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(shifts=commuting_families(), data=st.data())
def test_the_finite_step_chain_equals_the_direct_solver(shifts, data):
    # one column per tied group, so a single generator describes the space
    decomp = gsis.diagonalize_simultaneously(shifts)
    n = decomp.n_vertices
    omega = sorted(data.draw(st.sets(st.sampled_from([g.start for g in decomp.groups]), min_size=1)))
    phi0 = gsis.canonical_generator(decomp, omega).generator
    vertices = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=len(omega))))
    assume(np.linalg.svd(decomp.basis[np.ix_(vertices, omega)], compute_uv=False)[-1] >= INJECTIVE_SMIN)
    scheme = gsis.subset_sampler(n, vertices)
    y = np.random.default_rng(len(vertices)).standard_normal(len(vertices))
    direct = gsis.reconstruct_direct(decomp, omega, scheme, y)
    chain = gsis.reconstruct_krylov(shifts, [phi0], scheme, y)
    # acceptance test 07's agreement
    assert np.linalg.norm(chain.signal - direct) <= 1e-8 * max(1e-30, np.linalg.norm(direct))
