import numpy as np
import pytest

import gsis
from gsis.errors import DistinctnessError
from gsis.spaces import KrylovChain

from conftest import laplacian_shift_set, random_connected_graph

RIESZ_P3_LO = 0.9435188240589355  # sqrt((11 - sqrt(85)) / 2)
RIESZ_P3_HI = 3.1795868015587252  # sqrt((11 + sqrt(85)) / 2)


def test_bandlimited_space_basics(p3):
    _, _, decomp = p3
    space = gsis.bandlimited_space(decomp, [0, 2])
    assert space.dim == 2
    assert sorted(space.omega) == [0, 2]
    x = decomp.basis[:, [0, 2]] @ np.array([1.0, -2.0])
    assert space.contains(x)
    assert np.allclose(space.project(x), x, atol=1e-12)
    y = decomp.basis[:, 1]
    assert not space.contains(y)
    assert np.allclose(space.project(y), 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        gsis.bandlimited_space(decomp, [0, 3])


def test_eigenvector_generator_gives_singleton(p3):
    _, shifts, decomp = p3
    space = gsis.gsis_from_generators(decomp, [decomp.basis[:, 1]])
    assert space.dim == 1 and sorted(space.omega) == [1]
    assert space.provenance == "pgsis"


def test_p3_delta_generator_dim_two(p3):
    _, shifts, decomp = p3
    delta1 = np.array([0.0, 1.0, 0.0])
    space = gsis.gsis_from_generators(decomp, [delta1])
    assert space.dim == 2
    assert sorted(space.omega) == [0, 2]
    # span{(0,1,0), (-1,2,-1)} spelled out
    L = shifts[0].matrix
    for v in (delta1, L @ delta1):
        assert space.contains(v)


def test_zero_generator_rejected(p3):
    _, shifts, decomp = p3
    with pytest.raises(ValueError):
        gsis.gsis_from_generators(decomp, [np.zeros(3)])


def test_circulant_delta_dimension_rule():
    for n in (11, 50):
        g, shifts = gsis.build_circulant(n, [1, 3])
        decomp = gsis.diagonalize_simultaneously(shifts)
        phi = np.zeros(n)
        phi[n // 2] = 1.0
        space = gsis.gsis_from_generators(decomp, [phi])
        assert space.dim == n // 2 + 1
        # the space is exactly the signals symmetric around the center
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        center = n // 2
        sym = np.empty(n)
        for i in range(n):
            sym[i] = (x[i] + x[(2 * center - i) % n]) / 2
        assert space.contains(sym)


def test_generated_space_characterization_random_families():
    # dim H(Phi) from the Krylov chain == #Omega from spectral support, and
    # the space is closed under every shift
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(4, 11))
        g = random_connected_graph(n, rng)
        shifts = laplacian_shift_set(g, rng=rng) if trial % 2 else laplacian_shift_set(g)
        decomp = gsis.diagonalize_simultaneously(shifts)
        if not decomp.assumption1_holds:
            continue
        gens = [rng.standard_normal(n) for _ in range(int(rng.integers(1, 3)))]
        space = gsis.gsis_from_generators(decomp, gens)
        _, dims = gsis.krylov_subspace(shifts, gens, n)
        assert dims[-1] == space.dim == len(space.omega)
        assert gsis.is_shift_invariant(space, shifts)


def test_bandlimited_space_regenerated_from_indicator():
    rng = np.random.default_rng(23)
    g = random_connected_graph(8, rng)
    shifts = laplacian_shift_set(g)
    decomp = gsis.diagonalize_simultaneously(shifts)
    omega = [1, 4, 6]
    chi = decomp.basis[:, omega].sum(axis=1)  # igft of the indicator
    space = gsis.gsis_from_generators(decomp, [chi])
    assert sorted(space.omega) == omega


def test_krylov_subspace_single_level_counts(p3):
    _, shifts, _ = p3
    delta1 = np.array([0.0, 1.0, 0.0])
    basis, dims = gsis.krylov_subspace(shifts, [delta1], 2)
    assert dims == [1, 2, 2]
    assert basis.shape == (3, 2)
    q = basis.T @ basis
    assert np.allclose(q, np.eye(2), atol=1e-10)
    with pytest.raises(ValueError):
        gsis.krylov_subspace(shifts, [delta1], -1)
    _, dims0 = gsis.krylov_subspace(shifts, [delta1, delta1 * 2.0], 0)
    assert dims0 == [1]  # H_0 has the rank of the generator family


def test_krylov_dims_circulant_reference_sequence():
    g, shifts = gsis.build_circulant(100, [1, 3])
    phi = np.zeros(100)
    phi[50] = 1.0
    _, dims = gsis.krylov_subspace(shifts, [phi], 20)
    expected = [1] + [3 * n for n in range(1, 17)] + [50, 51, 51, 51]
    assert dims == expected


@pytest.mark.parametrize("height", [1e-12, 1e-3, 1.0, 1e11, 1e155, 1e200])
def test_a_generators_scale_does_not_change_the_chains_dimensions(height):
    # the drop threshold is relative to the largest candidate offered, and
    # the shifts act on unit basis columns, so a tall generator used to set
    # it: at height 1e11 the chain stalled at dim 1, from 1e155 it lost the
    # generator to overflow
    shifts = gsis.ShiftSet([gsis.build_standard_shifts(gsis.cycle_graph(50), "adjacency")])
    delta = np.zeros(50)
    delta[25] = height
    spread = np.zeros(50)
    spread[23:28] = height * np.array([0.5, -1.0, 0.25, 1.0, 0.75])
    for generator in (delta, spread):
        assert gsis.krylov_subspace(shifts, [generator], 4)[1] == [1, 2, 3, 4, 5]
    scheme = gsis.subset_sampler(50, range(10, 41))
    res = gsis.reconstruct_krylov(shifts, [delta], scheme, np.cos(0.3 * np.arange(31)), max_level=4)
    assert res.dims_trace == (1, 2, 3, 4, 5)


def test_canonical_generator_singleton(p3):
    _, _, decomp = p3
    gen = gsis.canonical_generator(decomp, [1])
    assert np.allclose(np.abs(gen.generator), np.abs(decomp.basis[:, 1]), atol=1e-12)


def test_canonical_generator_p3_two_frequencies(p3):
    _, _, decomp = p3
    gen = gsis.canonical_generator(decomp, [0, 2])
    # phi0 = u0 + u2 and the Krylov pair spans the space
    assert np.allclose(gen.generator, decomp.basis[:, 0] + decomp.basis[:, 2], atol=1e-12)
    stack = np.column_stack([gen.generator, gen.combined_shift @ gen.generator])
    assert np.linalg.matrix_rank(stack) == 2


def test_canonical_generator_full_spectrum():
    rng = np.random.default_rng(2)
    g = random_connected_graph(7, rng)
    decomp = gsis.diagonalize_simultaneously(laplacian_shift_set(g))
    assert decomp.assumption1_holds
    gen = gsis.canonical_generator(decomp, range(7))
    vecs = [gen.generator]
    for _ in range(6):
        vecs.append(gen.combined_shift @ vecs[-1])
    assert np.linalg.matrix_rank(np.column_stack(vecs)) == 7


def test_canonical_generator_needs_distinct_spectrum():
    g, shifts = gsis.build_circulant(12, [1])
    decomp = gsis.diagonalize_simultaneously(shifts)
    with pytest.raises(DistinctnessError):
        gsis.canonical_generator(decomp, range(12))


def test_riesz_bounds_p3_oracle(p3):
    _, shifts, decomp = p3
    omega = [0, 2]
    gen = gsis.canonical_generator(decomp, omega)
    lo, hi = gsis.riesz_bounds(decomp, shifts[0].matrix, gen.generator, omega)
    assert lo == pytest.approx(RIESZ_P3_LO, abs=1e-12)
    assert hi == pytest.approx(RIESZ_P3_HI, abs=1e-12)
    # scaling the generator scales both bounds
    lo2, hi2 = gsis.riesz_bounds(decomp, shifts[0].matrix, 2.0 * gen.generator, omega)
    assert lo2 == pytest.approx(2 * lo) and hi2 == pytest.approx(2 * hi)


def test_riesz_bounds_singleton_is_unit(p3):
    _, shifts, decomp = p3
    lo, hi = gsis.riesz_bounds(decomp, shifts[0].matrix, decomp.basis[:, 1], [1])
    assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)


def test_riesz_sandwich_random():
    rng = np.random.default_rng(31)
    for _ in range(5):
        n = int(rng.integers(5, 10))
        g = random_connected_graph(n, rng)
        decomp = gsis.diagonalize_simultaneously(laplacian_shift_set(g))
        if not decomp.assumption1_holds:
            continue
        m = int(rng.integers(2, n))
        omega = sorted(rng.choice(n, m, replace=False).tolist())
        gen = gsis.canonical_generator(decomp, omega)
        lo, hi = gsis.riesz_bounds(decomp, gen.combined_shift, gen.generator, omega)
        powers = [gen.generator]
        for _ in range(m - 1):
            powers.append(gen.combined_shift @ powers[-1])
        v = np.column_stack(powers)
        for _ in range(100):
            c = rng.standard_normal(m)
            r = np.linalg.norm(v @ c) / np.linalg.norm(c)
            assert lo - 1e-9 <= r <= hi + 1e-9


def test_riesz_rejects_wrong_shift(p3):
    _, _, decomp = p3
    t = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="combined shift is not diagonalized"):
        gsis.riesz_bounds(decomp, t, decomp.basis[:, 0] + decomp.basis[:, 2], [0, 2])


def test_riesz_rejects_generator_vanishing_on_omega(p3):
    _, shifts, decomp = p3
    with pytest.raises(ValueError):
        gsis.riesz_bounds(decomp, shifts[0].matrix, decomp.basis[:, 0], [0, 2])


def test_frame_bounds_match_riesz_single_shift(p3):
    _, shifts, decomp = p3
    omega = [0, 2]
    gen = gsis.canonical_generator(decomp, omega)
    rlo, rhi = gsis.riesz_bounds(decomp, shifts[0].matrix, gen.generator, omega)
    flo, fhi = gsis.frame_bounds(decomp, gen.generator, 2)
    assert flo == pytest.approx(rlo, abs=1e-12)
    assert fhi == pytest.approx(rhi, abs=1e-12)
    with pytest.raises(ValueError):
        gsis.frame_bounds(decomp, gen.generator, 0)


def test_frame_sandwich_circulant():
    g, shifts = gsis.build_circulant(12, [1, 2])
    decomp = gsis.diagonalize_simultaneously(shifts)
    phi = np.zeros(12)
    phi[6] = 1.0
    level = 4
    lo, hi = gsis.frame_bounds(decomp, phi, level)
    assert 0 < lo <= hi
    space = gsis.gsis_from_generators(decomp, [phi])
    family = []
    for alpha in gsis.graded_multi_indices(2, level - 1):
        v = phi.copy()
        for l, a in enumerate(alpha):
            for _ in range(a):
                v = shifts[l].matrix @ v
        family.append(v)
    f = np.array(family)
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = space.project(rng.standard_normal(12))
        nx = np.linalg.norm(x)
        s = np.sqrt(np.sum((f @ x) ** 2))
        assert lo * nx - 1e-9 <= s <= hi * nx + 1e-9


def _frame_bounds_on_the_space(shifts, decomp, phi, level):
    """Extreme singular values of the shifted family, applied on the generated space."""
    family = []
    for alpha in gsis.graded_multi_indices(len(shifts), level - 1):
        v = phi.copy()
        for l, a in enumerate(alpha):
            for _ in range(a):
                v = shifts[l].matrix @ v
        family.append(v)
    basis = gsis.gsis_from_generators(decomp, [phi]).basis
    svals = np.linalg.svd(np.array(family) @ basis, compute_uv=False)
    return svals[-1], svals[0]


def test_frame_bounds_ignore_roundoff_off_the_spectral_support():
    # more family members than the space has dimensions: the frame matrix's
    # rows off the generator's spectral support hold only roundoff
    shifts = gsis.ShiftSet((gsis.build_standard_shifts(gsis.path_graph(12), "laplacian"),))
    decomp = gsis.diagonalize_simultaneously(shifts)
    phi = decomp.basis[:, 3]
    exact = np.sqrt(sum(decomp.eigenvalues[0, 3] ** (2 * a) for a in range(4)))
    assert gsis.frame_bounds(decomp, phi, 4) == pytest.approx((exact, exact), rel=1e-12)
    cases = [(shifts, decomp, phi, 4)]
    _, shifts = gsis.build_circulant(13, [1, 3])
    decomp = gsis.diagonalize_simultaneously(shifts)
    for omega, smallest in (([0], 1.0), ([0, 1], 0.830)):
        phi = gsis.canonical_generator(decomp, omega).generator
        assert gsis.frame_bounds(decomp, phi, 8)[0] == pytest.approx(smallest, abs=5e-4)
        cases.append((shifts, decomp, phi, 8))
    for shifts, decomp, phi, level in cases:
        expected = _frame_bounds_on_the_space(shifts, decomp, phi, level)
        assert gsis.frame_bounds(decomp, phi, level) == pytest.approx(expected, rel=1e-9)


def test_frame_saturation_positive_lower_bound():
    rng = np.random.default_rng(9)
    g = random_connected_graph(6, rng)
    decomp = gsis.diagonalize_simultaneously(laplacian_shift_set(g))
    phi = rng.standard_normal(6)
    lo, hi = gsis.frame_bounds(decomp, phi, 8)
    assert lo > 0 and hi >= lo


def test_uniform_norm_star_identity():
    assert gsis.uniform_norm_star(np.eye(5)) == pytest.approx(1.0)


def test_exact_localization_skips_a_row_count_that_no_row_reaches():
    # orthonormal within the 1e-8 check, but every row falls 4e-9 short of unit
    # energy, beyond the 1e-9 slack: no single row reaches 1, two rows on two columns do
    assert gsis.uniform_norm_star((1.0 - 2e-9) * np.eye(3)) == 0.5


def test_uniform_norm_star_p3(p3):
    _, _, decomp = p3
    v = gsis.uniform_norm_star(decomp.basis)
    assert v == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    # brute-force oracle over all 7 x 7 nonempty subset pairs
    best = 0.0
    u = decomp.basis
    for wmask in range(1, 8):
        for omask in range(1, 8):
            rows = [i for i in range(3) if wmask >> i & 1]
            cols = [n for n in range(3) if omask >> n & 1]
            energy = sum(u[i, n] ** 2 for i in rows for n in cols)
            if energy >= 1.0 - 1e-9:
                best = max(best, (len(rows) * len(cols)) ** -0.5)
    assert v == pytest.approx(best, abs=1e-12)


def test_uniform_norm_star_bounds_and_modes():
    g, shifts = gsis.build_circulant(10, [1, 3])
    decomp = gsis.diagonalize_simultaneously(shifts)
    exact = gsis.uniform_norm_star(decomp.basis, mode="exact")
    loose = gsis.uniform_norm_star(decomp.basis, mode="infinity_bound")
    n = 10
    assert 1 / np.sqrt(n) - 1e-12 <= exact <= loose + 1e-12
    assert loose <= np.sqrt(2 / n) + 1e-12
    with pytest.raises(ValueError):
        gsis.uniform_norm_star(np.eye(13), mode="exact")
    with pytest.raises(ValueError):
        gsis.uniform_norm_star(np.eye(3), mode="largest")
    skew = np.eye(3)
    skew[0, 1] = 0.5
    with pytest.raises(ValueError):
        gsis.uniform_norm_star(skew)


def test_uncertainty_p3_tight(p3):
    _, _, decomp = p3
    report = gsis.uncertainty_check(decomp, np.array([0.0, 1.0, 0.0]))
    assert report.support_size == 1 and report.space_dim == 2
    assert report.lower_bound == pytest.approx(2.0)
    assert report.support_size * report.space_dim == pytest.approx(report.lower_bound)
    assert report.holds
    assert report.localization_mode == "exact"


def test_uncertainty_full_support_trivial():
    rng = np.random.default_rng(12)
    g = random_connected_graph(8, rng)
    decomp = gsis.diagonalize_simultaneously(laplacian_shift_set(g))
    report = gsis.uncertainty_check(decomp, rng.uniform(1.0, 2.0, 8))
    assert report.support_size == 8
    assert report.holds
    with pytest.raises(ValueError):
        gsis.uncertainty_check(decomp, np.zeros(8))


def test_uncertainty_random_assumption1_graphs():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(10):
        n = int(rng.integers(4, 11))
        g = random_connected_graph(n, rng)
        decomp = gsis.diagonalize_simultaneously(laplacian_shift_set(g))
        if not decomp.assumption1_holds:
            continue
        for _ in range(5):
            phi = np.zeros(n)
            spots = rng.choice(n, int(rng.integers(1, 3)), replace=False)
            phi[spots] = rng.standard_normal(len(spots))
            if not np.any(phi):
                continue
            assert gsis.uncertainty_check(decomp, phi).holds
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("n", [10, 60])
def test_uncertainty_reads_the_localization_without_rechecking_the_basis(n, monkeypatch):
    _, shifts = gsis.build_circulant(n, [1, 3])
    decomp = gsis.diagonalize_simultaneously(shifts)
    phi = np.eye(n)[n // 2]
    expected = gsis.uniform_norm_star(decomp.basis, "exact" if n <= 12 else "infinity_bound")
    monkeypatch.setattr(gsis.spaces, "uniform_norm_star", None)  # any call fails
    report = gsis.uncertainty_check(decomp, phi)
    assert report.localization == expected and report.lower_bound == expected**-2


def test_uncertainty_large_graph_uses_infinity_bound():
    g, shifts = gsis.build_circulant(50, [1, 3])
    decomp = gsis.diagonalize_simultaneously(shifts)
    phi = np.zeros(50)
    phi[25] = 1.0
    report = gsis.uncertainty_check(decomp, phi)
    assert report.localization_mode == "infinity_bound"
    assert report.holds  # product 26 >= (sqrt(2/50))^-2 = 25


def test_uncertainty_dimension_is_the_generated_space_dimension():
    # on a cycle the impulse cuts tied groups; generic signals fill them
    _, shifts = gsis.build_circulant(12, [1])
    decomp = gsis.diagonalize_simultaneously(shifts)
    rng = np.random.default_rng(9)
    impulse = np.zeros(12)
    impulse[5] = 1.0
    for phi in (impulse, rng.standard_normal(12), decomp.basis[:, 3] + decomp.basis[:, 4]):
        report = gsis.uncertainty_check(decomp, phi)
        assert report.space_dim == gsis.gsis_from_generators(decomp, [phi]).dim
    with pytest.raises(ValueError, match="length 11"):
        gsis.uncertainty_check(decomp, np.ones(11))


def test_non_finite_generators_are_rejected():
    _, shifts = gsis.build_circulant(12, [1, 3])
    decomp = gsis.diagonalize_simultaneously(shifts)
    bad = np.eye(12)[3]
    bad[5] = np.inf
    for call in (
        lambda: gsis.krylov_subspace(shifts, [bad], 2),
        lambda: gsis.gsis_from_generators(decomp, [np.eye(12)[0], bad]),
        lambda: KrylovChain(shifts, [bad]),
    ):
        with pytest.raises(ValueError, match="generator must be finite"):
            call()
    omega = [g.start for g in decomp.groups[:2]]
    gen = gsis.canonical_generator(decomp, omega)
    phi0 = gen.generator.copy()
    phi0[0] = np.nan
    for call in (
        lambda: gsis.riesz_bounds(decomp, gen.combined_shift, phi0, omega),
        lambda: gsis.frame_bounds(decomp, phi0, 2),
        lambda: gsis.uncertainty_check(decomp, phi0),
    ):
        with pytest.raises(ValueError, match="phi0 must be finite"):
            call()


def test_a_chain_needs_at_least_one_matrix_and_each_n_by_n():
    # a (3, 5) matrix would otherwise shift a column into a short candidate, and the chain be wrong
    for mats in ([], [np.eye(5), np.ones((3, 5))]):
        with pytest.raises(ValueError, match=r"expected at least one, each \(N, N\)"):
            KrylovChain(mats, [np.eye(5)[0]])


def test_is_shift_invariant_cases(p3):
    _, shifts, decomp = p3
    assert gsis.is_shift_invariant(gsis.bandlimited_space(decomp, [0, 1]), shifts)
    assert gsis.is_shift_invariant(gsis.bandlimited_space(decomp, range(3)), shifts)
    # the vertex-0 impulse, as the first column of a diagonal shift's basis
    graph = gsis.Graph(3)
    diagonal = gsis.ShiftSet((gsis.ShiftMatrix(np.diag([0.0, 1.0, 2.0]), graph),))
    crooked = gsis.bandlimited_space(gsis.diagonalize_simultaneously(diagonal), [0])
    assert np.array_equal(crooked.basis, [[1.0], [0.0], [0.0]])
    assert not gsis.is_shift_invariant(crooked, shifts)


def test_an_empty_space_passes_every_check(p3, monkeypatch):
    _, shifts, decomp = p3
    space = gsis.bandlimited_space(decomp, [])
    assert space.dim == 0 and gsis.is_shift_invariant(space, shifts)
    # numpy before 2.0 fails on the rank of an empty matrix, so none is asked for
    rank = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda a: rank(a) if np.size(a) else pytest.fail("empty rank"))
    assert gsis.check_bandlimited_injective(decomp, [], [0])
    kernel = gsis.gsis_to_rkhs_kernel(space)
    assert kernel.omega == () and gsis.is_reproducing_metric(kernel, gsis.RkhsMetric.from_kernel(kernel))


def _two_shift_decomposition():
    rng = np.random.default_rng(21)
    return gsis.diagonalize_simultaneously(laplacian_shift_set(random_connected_graph(6, rng), rng=rng))


def test_canonical_generator_redraws_a_direction_whose_scalar_eigenvalues_tie(monkeypatch):
    decomp = _two_shift_decomposition()
    first = gsis.canonical_generator(decomp, range(6))
    min_gap, gaps = gsis.spaces._min_gap, []

    def tied_once(values):
        gaps.append(min_gap(values))
        return 0.0 if len(gaps) == 1 else gaps[-1]

    monkeypatch.setattr(gsis.spaces, "_min_gap", tied_once)
    redrawn = gsis.canonical_generator(decomp, range(6))
    assert len(gaps) == 2
    assert np.array_equal(redrawn.generator, first.generator)
    assert not np.array_equal(redrawn.direction, first.direction)


def test_canonical_generator_gives_up_after_its_draws(monkeypatch):
    decomp = _two_shift_decomposition()
    calls = []
    monkeypatch.setattr(gsis.spaces, "_min_gap", lambda values: calls.append(1) or 0.0)
    with pytest.raises(DistinctnessError, match=f"within {gsis.spaces.SCALARIZATION_DRAWS} draws"):
        gsis.canonical_generator(decomp, range(6))
    assert len(calls) == gsis.spaces.SCALARIZATION_DRAWS


def test_tied_groups_of_a_cycle():
    g, shifts = gsis.build_circulant(10, [1])
    decomp = gsis.diagonalize_simultaneously(shifts)
    clusters = decomp.groups
    sizes = sorted(len(c) for c in clusters)
    # k and N-k pair up; k=0 and k=N/2 are simple
    assert sizes == [1, 1, 2, 2, 2, 2]
    rng = np.random.default_rng(0)
    g2 = random_connected_graph(9, rng)
    d2 = gsis.diagonalize_simultaneously(laplacian_shift_set(g2))
    assert d2.assumption1_holds
    assert sorted(len(c) for c in d2.groups) == [1] * 9


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s, d: gsis.riesz_bounds(d, s[0], d.basis[:, 0] + d.basis[:, 1], [0]), "spectral content outside omega"),
        (lambda s, d: gsis.riesz_bounds(d, s[0], np.zeros(3), [0]), "generator is identically zero"),
        (lambda s, d: gsis.frame_bounds(d, np.zeros(3), 2), "generator is identically zero"),
        (lambda s, d: gsis.canonical_generator(d, []), "omega must be nonempty"),
        (lambda s, d: gsis.gsis_from_generators(d, []), "at least one generator is required"),
    ],
    ids=["riesz outside omega", "riesz zero generator", "frame zero generator", "canonical empty omega", "no generator"],
)
def test_generator_systems_reject_each_bad_argument(p3, call, message):
    _, shifts, decomp = p3
    with pytest.raises(ValueError, match=message):
        call(shifts, decomp)


@pytest.mark.parametrize("seed", [-1, 1.5, "0"])
def test_canonical_generator_seed_follows_the_config_rule(p3, seed):
    _, _, decomp = p3
    with pytest.raises(ValueError, match=rf"seed must be a nonnegative integer, got {seed!r}"):
        gsis.canonical_generator(decomp, [0, 1], seed=seed)
