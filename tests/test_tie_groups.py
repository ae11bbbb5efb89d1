"""Tied joint eigenvalues are grouped once, and each group's basis ignores the seed.

``diagonalize_simultaneously`` stores the groups on the decomposition and
replaces the basis inside each repeated group by one fixed by the shifts
alone, so the seed of the random shift combination changes nothing
downstream.  The grouping is checked against the pairwise-distance
single-linkage partition it replaced, kept here as the oracle.  A
generated space is checked against a group-by-group thin-SVD construction
that leaves the decomposition as it is.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import gsis
from conftest import laplacian_shift_set, random_connected_graph
from gsis.spaces import SUPPORT_REL
from gsis.spectral import DISTINCT_REL

SEEDS = range(8)


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
    first, *rest = [gsis.diagonalize_simultaneously(shifts, seed=s) for s in SEEDS]
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
            gsis.diagonalize_simultaneously(shifts, seed=s),
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
    decomp = gsis.diagonalize_simultaneously(shifts, seed=seed)
    points = decomp.joint_spectrum
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
        lam = space.decomp.eigenvalues_of(s, "shift")
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
