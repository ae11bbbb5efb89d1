import numpy as np
import pytest

import gsis
from gsis.errors import DiagonalizationError

from conftest import laplacian_shift_set, random_connected_graph

SQ3, SQ2, SQ6 = np.sqrt(3.0), np.sqrt(2.0), np.sqrt(6.0)


def test_p3_laplacian_eigenstructure(p3):
    _, _, decomp = p3
    assert np.allclose(decomp.eigenvalues[0], [0.0, 1.0, 3.0], atol=1e-12)
    expected = np.array(
        [
            [1 / SQ3, 1 / SQ2, 1 / SQ6],
            [1 / SQ3, 0.0, -2 / SQ6],
            [1 / SQ3, -1 / SQ2, 1 / SQ6],
        ]
    )
    assert np.allclose(decomp.basis, expected, atol=1e-12)
    assert decomp.assumption1_holds


def test_p3_delta_gft(p3):
    _, _, decomp = p3
    xhat = gsis.gft(decomp, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(xhat, [1 / SQ3, 0.0, -2 / SQ6], atol=1e-12)


def test_parseval_many_graphs():
    rng = np.random.default_rng(100)
    for trial in range(10):
        n = int(rng.integers(4, 24))
        g = random_connected_graph(n, rng)
        shifts = laplacian_shift_set(g, rng=rng)
        decomp = gsis.diagonalize_simultaneously(shifts)
        x = rng.standard_normal((n, 100))
        xhat = gsis.gft(decomp, x)
        assert np.allclose(
            np.linalg.norm(xhat, axis=0), np.linalg.norm(x, axis=0), rtol=1e-10
        )
        assert np.allclose(gsis.igft(decomp, xhat), x, atol=1e-10)


def test_diagonalization_residuals_and_multipliers():
    rng = np.random.default_rng(7)
    g = random_connected_graph(12, rng)
    shifts = laplacian_shift_set(g, rng=rng)
    decomp = gsis.diagonalize_simultaneously(shifts)
    for l, s in enumerate(shifts):
        recon = decomp.basis @ np.diag(decomp.eigenvalues[l]) @ decomp.basis.T
        assert np.linalg.norm(s.matrix - recon) <= 1e-9 * np.linalg.norm(s.matrix)
        # shift acts as a spectral multiplier
        x = rng.standard_normal(12)
        assert np.allclose(
            gsis.gft(decomp, s.matrix @ x), decomp.eigenvalues[l] * gsis.gft(decomp, x), atol=1e-9
        )


def test_diagonalization_deterministic_and_seed_stable():
    rng = np.random.default_rng(21)
    g = random_connected_graph(10, rng)
    shifts = laplacian_shift_set(g, rng=rng)
    d1 = gsis.diagonalize_simultaneously(shifts, seed=0)
    d2 = gsis.diagonalize_simultaneously(shifts, seed=0)
    assert np.array_equal(d1.basis, d2.basis)
    # different seeds may rotate degenerate clusters but here Assumption 1
    # holds, so the basis is unique up to the fixed sign convention
    d3 = gsis.diagonalize_simultaneously(shifts, seed=5)
    assert np.allclose(d1.basis, d3.basis, atol=1e-8)
    assert np.allclose(d1.eigenvalues, d3.eigenvalues, atol=1e-10)


def test_joint_spectrum_sorted_lexicographically():
    g, shifts = gsis.build_circulant(12, [1, 2])
    decomp = gsis.diagonalize_simultaneously(shifts)
    pts = [tuple(p) for p in np.round(decomp.joint_spectrum, 9)]
    assert pts == sorted(pts)


def test_sign_convention():
    rng = np.random.default_rng(3)
    g = random_connected_graph(8, rng)
    decomp = gsis.diagonalize_simultaneously(laplacian_shift_set(g))
    for col in decomp.basis.T:
        lead = col[np.abs(col) > 1e-8][0]
        assert lead > 0


def _sign_normalize_by_columns(u, threshold=1e-8):
    u = u.copy()
    for n in range(u.shape[1]):
        idx = np.flatnonzero(np.abs(u[:, n]) > threshold)
        if idx.size and u[idx[0], n] < 0:
            u[:, n] = -u[:, n]
    return u


def test_sign_normalize_matches_the_column_loop():
    rng = np.random.default_rng(9)
    for shape in [(1, 1), (5, 3), (7, 12), (40, 40)]:
        u = rng.standard_normal(shape)
        u[rng.random(shape) < 0.5] *= 1e-9  # entries below the threshold, either sign
        u[:, rng.random(shape[1]) < 0.3] *= 1e-9  # whole columns below it
        u[:, 0] = 0.0
        expected = _sign_normalize_by_columns(u)
        got = gsis.spectral._sign_normalize(u)
        assert got.tobytes() == expected.tobytes()


def test_degenerate_clusters_still_diagonalize():
    # circulant joint spectra are doubly degenerate: Assumption 1 fails but
    # whole eigenvalue pairs are joint eigenspaces, so residuals stay tiny
    g, shifts = gsis.build_circulant(50, [1, 3])
    decomp = gsis.diagonalize_simultaneously(shifts)
    assert not decomp.assumption1_holds
    assert decomp.max_residual <= 1e-9


def test_non_commuting_input_rejected():
    tri = gsis.complete_graph(3)
    m1 = np.zeros((3, 3))
    m1[0, 1] = m1[1, 0] = 1.0
    m2 = np.zeros((3, 3))
    m2[1, 2] = m2[2, 1] = 1.0
    s1, s2 = gsis.ShiftMatrix(m1, tri), gsis.ShiftMatrix(m2, tri)
    with pytest.raises(ValueError):
        gsis.diagonalize_simultaneously(gsis.ShiftSet((s1, s2)))
    # list input takes the same validation path
    with pytest.raises((ValueError, DiagonalizationError)):
        gsis.diagonalize_simultaneously([s1, s2])


@pytest.mark.parametrize("kind", ["circulant", "path"])
def test_eigenvalues_of_reads_each_shift(kind):
    if kind == "circulant":
        _, shifts = gsis.build_circulant(12, [1, 3])
    else:
        shifts = laplacian_shift_set(gsis.path_graph(7), rng=np.random.default_rng(2))
    decomp = gsis.diagonalize_simultaneously(shifts)
    for l, s in enumerate(shifts):
        tol = 1e-12 * max(1.0, np.linalg.norm(s.matrix))
        for matrix in (s, s.matrix):
            lam = decomp.eigenvalues_of(matrix, "shift")
            assert np.abs(lam - decomp.eigenvalues[l]).max() <= tol


def test_eigenvalues_of_rejects_non_commuting(p3):
    _, shifts, decomp = p3
    crooked = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="crooked matrix is not diagonalized"):
        decomp.eigenvalues_of(crooked, "crooked matrix")
    # a 1e-6 nudge is far above the 1e-8 relative tolerance
    with pytest.raises(ValueError, match="nudged shift"):
        decomp.eigenvalues_of(shifts[0].matrix + 1e-6 * crooked, "nudged shift")


def test_gft_accepts_signals_and_batches(p3):
    g, _, decomp = p3
    sig = gsis.Signal([1.0, -1.0, 2.0], g)
    assert np.allclose(gsis.gft(decomp, sig), decomp.basis.T @ sig.values)
    batch = np.eye(3)
    assert np.allclose(gsis.igft(decomp, gsis.gft(decomp, batch)), batch, atol=1e-12)


def test_polynomial_filter_single_shift_paths(p3):
    _, shifts, decomp = p3
    rng = np.random.default_rng(0)
    x = rng.standard_normal(3)
    L = shifts[0].matrix
    # integer keys allowed for one shift; shift application vs spectral agree
    coeffs = {0: 0.5, 1: -1.0, 3: 0.25}
    direct = 0.5 * x - L @ x + 0.25 * np.linalg.matrix_power(L, 3) @ x
    assert np.allclose(gsis.apply_polynomial_filter(shifts, coeffs, x), direct, atol=1e-12)
    lam = decomp.eigenvalues[0]
    spectral = decomp.basis @ ((0.5 - lam + 0.25 * lam**3) * (decomp.basis.T @ x))
    assert np.allclose(gsis.apply_polynomial_filter(shifts, coeffs, x), spectral, atol=1e-10)
    h = gsis.polynomial_filter_matrix(shifts, coeffs)
    assert np.allclose(h @ x, direct, atol=1e-12)


def test_polynomial_filter_multi_shift():
    rng = np.random.default_rng(1)
    g, shifts = gsis.build_circulant(8, [1, 2])
    decomp = gsis.diagonalize_simultaneously(shifts)
    x = rng.standard_normal(8)
    s1, s2 = shifts[0].matrix, shifts[1].matrix
    coeffs = {(0, 0): 1.0, (2, 1): -0.5, (1, 0): 2.0}
    direct = x - 0.5 * s1 @ s1 @ s2 @ x + 2.0 * s1 @ x
    assert np.allclose(gsis.apply_polynomial_filter(shifts, coeffs, x), direct, atol=1e-12)
    lam1, lam2 = decomp.eigenvalues
    spectral = decomp.basis @ ((1.0 - 0.5 * lam1**2 * lam2 + 2.0 * lam1) * (decomp.basis.T @ x))
    assert np.allclose(gsis.apply_polynomial_filter(shifts, coeffs, x), spectral, atol=1e-9)
    with pytest.raises(ValueError):
        gsis.apply_polynomial_filter(shifts, {1: 1.0}, x)  # int keys need L == 1


def test_is_polynomial_filter(p3):
    _, shifts, _ = p3
    h = gsis.polynomial_filter_matrix(shifts, {0: 1.0, 2: -0.3})
    assert gsis.is_polynomial_filter(h, shifts)
    not_poly = np.diag([1.0, 2.0, 3.0])  # does not commute with L
    assert not gsis.is_polynomial_filter(not_poly, shifts)


def test_lagrange_projector(p3):
    _, _, decomp = p3
    for n in range(3):
        p = gsis.lagrange_projector(decomp, n)
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.linalg.matrix_rank(p) == 1
        assert np.allclose(p @ decomp.basis[:, n], decomp.basis[:, n], atol=1e-12)
    total = sum(gsis.lagrange_projector(decomp, n) for n in range(3))
    assert np.allclose(total, np.eye(3), atol=1e-12)


def test_graded_multi_indices_order():
    idx = gsis.graded_multi_indices(2, 2)
    assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert gsis.graded_multi_indices(1, 3) == [(0,), (1,), (2,), (3,)]
    assert len(gsis.graded_multi_indices(3, 2)) == 10
