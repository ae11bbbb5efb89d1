import numpy as np
import pytest

import gsis

from conftest import laplacian_shift_set, random_connected_graph


@pytest.fixture
def p5():
    graph = gsis.path_graph(5)
    shifts = laplacian_shift_set(graph)
    decomp = gsis.diagonalize_simultaneously(shifts)
    return graph, shifts, decomp


def test_kernel_families_listed():
    assert set(gsis.KERNEL_FAMILIES) == {
        "diffusion",
        "random_walk",
        "regularization",
        "spline",
    }


def test_diffusion_kernel_spectral_oracle(p5):
    _, shifts, decomp = p5
    sigma = 0.7
    k = gsis.make_kernel(decomp, shifts[0], "diffusion", sigma=sigma)
    oracle = decomp.basis @ np.diag(np.exp(sigma**2 * decomp.eigenvalues[0] / 2)) @ decomp.basis.T
    assert np.allclose(k.matrix, oracle, atol=1e-12)
    assert k.family == "diffusion"


def test_all_families_shift_invariant_psd(p5):
    _, shifts, decomp = p5
    cases = [
        ("diffusion", {"sigma": 0.5}),
        ("random_walk", {"a": 4.0, "p": 2}),
        ("regularization", {"sigma": 0.8}),
        ("spline", {"alpha": 1.5}),
    ]
    for family, params in cases:
        k = gsis.make_kernel(decomp, shifts[0], family, **params)
        assert gsis.is_shift_invariant_kernel(k.matrix, shifts)
        assert np.linalg.eigvalsh(k.matrix).min() >= -1e-10
        assert np.allclose(k.matrix, k.matrix.T)


def test_random_walk_requires_dominating_parameter(p5):
    _, shifts, decomp = p5
    lam_max = decomp.eigenvalues[0].max()
    with pytest.raises(ValueError):
        gsis.make_kernel(decomp, shifts[0], "random_walk", a=lam_max - 0.5, p=2)
    k = gsis.make_kernel(decomp, shifts[0], "random_walk", a=lam_max + 0.5, p=3)
    assert len(k.omega) == 5


def test_make_kernel_validates_family_and_params(p5):
    _, shifts, decomp = p5
    with pytest.raises(ValueError):
        gsis.make_kernel(decomp, shifts[0], "gaussian", sigma=1.0)
    with pytest.raises(TypeError):
        gsis.make_kernel(decomp, shifts[0], "diffusion")  # missing sigma
    with pytest.raises(TypeError):
        gsis.make_kernel(decomp, shifts[0], "diffusion", sigma=1.0, extra=2.0)


def test_spline_kernel_drops_null_frequency(p5):
    _, shifts, decomp = p5
    k = gsis.make_kernel(decomp, shifts[0], "spline", alpha=2.0)
    # lambda = 0 contributes nothing to the pseudo-power spectrum
    assert 0 not in k.omega and len(k.omega) == 4


def test_is_shift_invariant_kernel_rejects_noncommuting(p5):
    _, shifts, _ = p5
    m = np.zeros((5, 5))
    m[0, 0] = 1.0
    assert not gsis.is_shift_invariant_kernel(m, shifts)
    asym = np.eye(5)
    asym[0, 1] = 0.3
    assert not gsis.is_shift_invariant_kernel(asym, shifts)
    indef = shifts[0].matrix - np.eye(5)
    assert not gsis.is_shift_invariant_kernel(indef, shifts)


def test_kernel_metric_duality(p5):
    _, shifts, decomp = p5
    k = gsis.make_kernel(decomp, shifts[0], "random_walk", a=4.0, p=2)
    metric = gsis.RkhsMetric.from_kernel(k)
    assert gsis.is_reproducing_metric(k, metric)
    k2 = gsis.kernel_for_metric(decomp, metric)
    assert np.allclose(k2.matrix, k.matrix, atol=1e-10)
    # a wrong metric is detected
    wrong = gsis.RkhsMetric(metric.values * 1.5)
    assert not gsis.is_reproducing_metric(k, wrong)


def test_reproducing_property(p5):
    _, shifts, decomp = p5
    k = gsis.make_kernel(decomp, shifts[0], "regularization", sigma=0.6)
    metric = gsis.RkhsMetric.from_kernel(k)
    rng = np.random.default_rng(8)
    x = decomp.basis[:, k.omega] @ rng.standard_normal(len(k.omega))
    for j in range(5):
        assert gsis.rkhs_inner_product(decomp, metric, x, k.matrix[:, j]) == pytest.approx(
            x[j], abs=1e-10
        )


def test_reproducing_property_random_rank2(p3):
    _, _, decomp = p3
    values = np.array([0.0, 2.0, 0.5])
    k = gsis.kernel_for_metric(decomp, gsis.RkhsMetric(1 / np.where(values > 0, values, np.inf)))
    metric = gsis.RkhsMetric.from_kernel(k)
    rng = np.random.default_rng(1)
    x = k.matrix @ rng.standard_normal(3)  # x in range(K)
    for j in range(3):
        assert gsis.rkhs_inner_product(decomp, metric, x, k.matrix[:, j]) == pytest.approx(
            x[j], abs=1e-10
        )


def test_gsis_to_rkhs_kernel(p3):
    _, shifts, decomp = p3
    space = gsis.bandlimited_space(decomp, [0, 2])
    k = gsis.gsis_to_rkhs_kernel(space)
    assert sorted(k.omega) == [0, 2]
    proj = decomp.basis[:, [0, 2]] @ decomp.basis[:, [0, 2]].T
    assert np.allclose(k.matrix, proj, atol=1e-12)
    assert gsis.is_shift_invariant_kernel(k.matrix, shifts)


def test_gsis_to_rkhs_kernel_rejects_adapted_basis():
    # cluster-adapted spaces on degenerate circulants are not plain
    # unions of decomposition columns, so no diagonal spectrum exists
    g, shifts = gsis.build_circulant(12, [1])
    decomp = gsis.diagonalize_simultaneously(shifts)
    phi = np.zeros(12)
    phi[6] = 1.0
    space = gsis.gsis_from_generators(decomp, [phi])
    with pytest.raises(ValueError):
        gsis.gsis_to_rkhs_kernel(space)


def test_evaluation_bound(p5):
    _, shifts, decomp = p5
    k = gsis.make_kernel(decomp, shifts[0], "random_walk", a=5.0, p=1)
    metric = gsis.RkhsMetric.from_kernel(k)
    c = gsis.evaluation_bound(metric)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = decomp.basis[:, k.omega] @ rng.standard_normal(len(k.omega))
        norm = np.sqrt(gsis.rkhs_inner_product(decomp, metric, x, x))
        assert np.abs(x).max() <= c * norm + 1e-9
    with pytest.raises(ValueError):
        gsis.evaluation_bound(gsis.RkhsMetric(np.zeros(5)))


def test_metric_validation():
    with pytest.raises(ValueError):
        gsis.RkhsMetric(np.array([1.0, -0.5]))


def test_kernel_base_must_match_decomposition():
    rng = np.random.default_rng(5)
    g = random_connected_graph(6, rng)
    decomp = gsis.diagonalize_simultaneously(laplacian_shift_set(g))
    other = random_connected_graph(6, np.random.default_rng(99))
    stranger = gsis.build_standard_shifts(other, "laplacian")
    with pytest.raises(ValueError, match="base shift is not diagonalized"):
        gsis.make_kernel(decomp, stranger, "diffusion", sigma=0.5)
