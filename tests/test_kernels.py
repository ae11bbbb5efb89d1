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


def test_a_family_member_reads_its_stored_spectrum(monkeypatch):
    rng = np.random.default_rng(13)
    shifts = laplacian_shift_set(random_connected_graph(30, rng), rng=rng)
    decomp = gsis.diagonalize_simultaneously(shifts)
    twin = gsis.ShiftMatrix(shifts[1].matrix, shifts.graph)  # equal, but not a member
    checked = gsis.make_kernel(decomp, twin, "diffusion", sigma=0.9).spectral_values
    twin_report = gsis.check_dynamic_injective(decomp, range(5), twin, 0, 5)

    def recomputed(*args):
        raise AssertionError("a member's spectrum was recomputed")

    monkeypatch.setattr(gsis.spectral, "_row_eigenvalues", recomputed)
    monkeypatch.setattr(gsis.spectral, "_residual_norm", recomputed)
    for l in (0, 1):
        k = gsis.make_kernel(decomp, shifts[l], "diffusion", sigma=0.9)
        assert k.spectral_values.tobytes() == np.exp(0.9**2 * decomp.eigenvalues[l] / 2.0).tobytes()
        lam = decomp.eigenvalues_of(shifts[l], "shift")
        assert lam.tobytes() == decomp.eigenvalues[l].tobytes() and not np.shares_memory(lam, decomp.eigenvalues)
    assert np.abs(k.spectral_values - checked).max() <= 1e-12 * np.abs(checked).max()
    assert gsis.check_dynamic_injective(decomp, range(5), shifts[1], 0, 5) == twin_report


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
    k2 = gsis.kernel_for_metric(metric)
    assert np.allclose(k2.matrix, k.matrix, atol=1e-10)
    # a wrong metric is detected
    wrong = gsis.RkhsMetric(metric.values * 1.5, decomp)
    assert not gsis.is_reproducing_metric(k, wrong)


def test_reproducing_property(p5):
    _, shifts, decomp = p5
    k = gsis.make_kernel(decomp, shifts[0], "regularization", sigma=0.6)
    metric = gsis.RkhsMetric.from_kernel(k)
    rng = np.random.default_rng(8)
    x = decomp.basis[:, k.omega] @ rng.standard_normal(len(k.omega))
    for j in range(5):
        assert gsis.rkhs_inner_product(metric, x, k.matrix[:, j]) == pytest.approx(
            x[j], abs=1e-10
        )


def test_reproducing_property_random_rank2(p3):
    _, _, decomp = p3
    values = np.array([0.0, 2.0, 0.5])
    k = gsis.kernel_for_metric(gsis.RkhsMetric(1 / np.where(values > 0, values, np.inf), decomp))
    metric = gsis.RkhsMetric.from_kernel(k)
    rng = np.random.default_rng(1)
    x = k.matrix @ rng.standard_normal(3)  # x in range(K)
    for j in range(3):
        assert gsis.rkhs_inner_product(metric, x, k.matrix[:, j]) == pytest.approx(
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


def test_gsis_to_rkhs_kernel_on_a_cut_tied_group():
    # the delta at vertex 6 of the 12-cycle cuts every paired eigenspace, so
    # the space lives on an adapted copy of the decomposition
    _, shifts = gsis.build_circulant(12, [1])
    decomp = gsis.diagonalize_simultaneously(shifts)
    phi = np.zeros(12)
    phi[6] = 1.0
    space = gsis.gsis_from_generators(decomp, [phi])
    assert space.decomp is not decomp
    k = gsis.gsis_to_rkhs_kernel(space)
    assert k.decomp is space.decomp
    assert np.abs(k.matrix - space.basis @ space.basis.T).max() <= 1e-12
    assert gsis.is_shift_invariant_kernel(k.matrix, shifts)
    metric = gsis.RkhsMetric.from_kernel(k)
    assert gsis.is_reproducing_metric(k, metric)
    x = space.basis @ np.random.default_rng(4).standard_normal(space.dim)
    for j in range(12):
        assert gsis.rkhs_inner_product(metric, x, k.matrix[:, j]) == pytest.approx(x[j], abs=1e-10)
    # the same values on the input decomposition describe another metric
    with pytest.raises(ValueError, match="different decompositions"):
        gsis.is_reproducing_metric(k, gsis.RkhsMetric(metric.values, decomp))


def test_evaluation_bound(p5):
    _, shifts, decomp = p5
    k = gsis.make_kernel(decomp, shifts[0], "random_walk", a=5.0, p=1)
    metric = gsis.RkhsMetric.from_kernel(k)
    c = gsis.evaluation_bound(metric)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = decomp.basis[:, k.omega] @ rng.standard_normal(len(k.omega))
        norm = np.sqrt(gsis.rkhs_inner_product(metric, x, x))
        assert np.abs(x).max() <= c * norm + 1e-9
    with pytest.raises(ValueError):
        gsis.evaluation_bound(gsis.RkhsMetric(np.zeros(5), decomp))


def test_metric_validation(p3):
    _, _, decomp = p3
    with pytest.raises(ValueError):
        gsis.RkhsMetric(np.array([1.0, -0.5, 0.0]), decomp)
    with pytest.raises(ValueError, match="length"):
        gsis.RkhsMetric(np.ones(2), decomp)


def test_kernel_base_must_match_decomposition():
    rng = np.random.default_rng(5)
    g = random_connected_graph(6, rng)
    decomp = gsis.diagonalize_simultaneously(laplacian_shift_set(g))
    other = random_connected_graph(6, np.random.default_rng(99))
    stranger = gsis.build_standard_shifts(other, "laplacian")
    with pytest.raises(ValueError, match="base shift is not diagonalized"):
        gsis.make_kernel(decomp, stranger, "diffusion", sigma=0.5)


@pytest.mark.parametrize(
    "family, params",
    [
        ("diffusion", {"sigma": np.nan}),
        ("diffusion", {"sigma": np.inf}),
        ("random_walk", {"a": np.nan, "p": 1}),
        ("random_walk", {"a": np.inf, "p": 1}),
        ("random_walk", {"a": 4.0, "p": np.nan}),
        ("random_walk", {"a": 4.0, "p": np.inf}),
        ("regularization", {"sigma": np.inf}),
        ("regularization", {"sigma": -np.nan}),
        ("spline", {"alpha": np.nan}),
        ("spline", {"alpha": np.inf}),
    ],
)
def test_non_finite_kernel_parameters_are_rejected(family, params, p5):
    _, shifts, decomp = p5
    name = next(k for k, v in params.items() if not np.isfinite(v))
    with pytest.raises(ValueError, match=f"{family} kernel parameter '{name}' must be finite"):
        gsis.make_kernel(decomp, shifts[0], family, **params)


@pytest.mark.parametrize(
    "family, params",
    [
        ("diffusion", {"sigma": 1e3}),  # exp overflows
        ("diffusion", {"sigma": 1e200}),  # sigma**2 overflows, and times the zero eigenvalue is nan
        ("random_walk", {"p": 200}),  # a barely above the largest eigenvalue, set below
        ("regularization", {"sigma": 1e200}),
        ("spline", {"alpha": 1e6}),
    ],
)
def test_an_overflowing_kernel_profile_is_rejected(family, params, p5):
    _, shifts, decomp = p5
    if family == "random_walk":
        params = {**params, "a": float(decomp.eigenvalues[0].max()) + 1e-12}
    with pytest.raises(ValueError, match="kernel spectral values must be finite"):
        gsis.make_kernel(decomp, shifts[0], family, **params)


def test_random_walk_power_must_be_an_integer(p5):
    _, shifts, decomp = p5
    with pytest.raises(ValueError, match="integer p >= 1"):
        gsis.make_kernel(decomp, shifts[0], "random_walk", a=4.0, p=1.5)
    whole = gsis.make_kernel(decomp, shifts[0], "random_walk", a=4.0, p=2.0)
    assert np.array_equal(whole.matrix, gsis.make_kernel(decomp, shifts[0], "random_walk", a=4.0, p=2).matrix)


def test_a_non_finite_spectrum_is_rejected(p5):
    _, _, decomp = p5
    for bad in (np.nan, np.inf):
        values = np.ones(5)
        values[2] = bad
        with pytest.raises(ValueError, match="kernel spectral values must be finite"):
            gsis.kernels._kernel_from_spectrum(decomp, values)


def test_a_negative_spectrum_is_rejected_beyond_roundoff(p5):
    _, _, decomp = p5
    values = np.ones(5)
    values[2] = -1e-13  # roundoff below 1e-12 times the largest value is clipped to zero
    assert gsis.kernels._kernel_from_spectrum(decomp, values).omega == (0, 1, 3, 4)
    values[2] = -1e-6
    with pytest.raises(ValueError, match="kernel spectral values must be nonnegative"):
        gsis.kernels._kernel_from_spectrum(decomp, values)


@pytest.mark.parametrize(
    "family, params, negate, error, message",
    [
        ("diffusion", {"sigma": 0.0}, False, ValueError, "diffusion takes a single parameter sigma > 0"),
        ("regularization", {"sigma": -1.0}, False, ValueError, "regularization takes a single parameter sigma > 0"),
        ("regularization", {"sigma": 1.0}, True, ValueError, "regularization profile is negative"),
        ("spline", {"alpha": 0.0}, False, ValueError, "spline takes a single parameter alpha > 0"),
        ("spline", {"alpha": 1.0}, True, ValueError, "spline needs a positive semidefinite base shift"),
        ("diffusion", {"sigma": 1.0, "a": 3.0}, False, TypeError, r"diffusion kernel got unexpected parameters \['a'\]"),
    ],
)
def test_make_kernel_rejects_each_bad_profile(p5, family, params, negate, error, message):
    # the negated Laplacian has eigenvalues down to about -3.6, so 1 - lambda goes negative
    _, shifts, decomp = p5
    base = -shifts[0].matrix if negate else shifts[0]
    with pytest.raises(error, match=message):
        gsis.make_kernel(decomp, base, family, **params)
