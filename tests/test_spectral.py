import tracemalloc

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


def test_diagonalization_deterministic_and_seed_stable(monkeypatch):
    rng = np.random.default_rng(21)
    g = random_connected_graph(10, rng)
    shifts = laplacian_shift_set(g, rng=rng)
    d1 = gsis.diagonalize_simultaneously(shifts)
    d2 = gsis.diagonalize_simultaneously(shifts)
    assert np.array_equal(d1.basis, d2.basis)
    # another draw may rotate degenerate clusters but here Assumption 1
    # holds, so the basis is unique up to the fixed sign convention
    monkeypatch.setattr(gsis.spectral, "_DRAW_SEED", 5)
    d3 = gsis.diagonalize_simultaneously(shifts)
    assert np.allclose(d1.basis, d3.basis, atol=1e-8)
    assert np.allclose(d1.eigenvalues, d3.eigenvalues, atol=1e-10)


def test_joint_spectrum_sorted_lexicographically():
    g, shifts = gsis.build_circulant(12, [1, 2])
    decomp = gsis.diagonalize_simultaneously(shifts)
    pts = [tuple(p) for p in np.round(decomp.eigenvalues.T, 9)]
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


@pytest.mark.parametrize(
    "family, patched, draws",
    [
        ("two shifts", "_eigenvector_rows", gsis.spectral.DIAGONALIZATION_DRAWS),
        ("one shift", "_eigenvector_rows", 1),
        ("circulant", "_fourier_rows", 1),
    ],
)
def test_a_wrong_basis_is_redrawn_only_where_a_draw_can_change_it(family, patched, draws, monkeypatch):
    if family == "circulant":
        _, shifts = gsis.build_circulant(8, (1, 3))
    else:
        rng = np.random.default_rng(5)
        shifts = laplacian_shift_set(random_connected_graph(8, rng), rng=rng if family == "two shifts" else None)
    monkeypatch.setattr(gsis.spectral, patched, lambda *args: np.eye(8))  # diagonalizes none of these shifts
    tie_groups, calls = gsis.spectral._tie_groups, []
    monkeypatch.setattr(gsis.spectral, "_tie_groups", lambda lams: calls.append(1) or tie_groups(lams))  # once a draw
    counted = f"{draws} draws" if draws > 1 else "1 draw "
    with pytest.raises(DiagonalizationError, match=f"no common eigenbasis .* after {counted}"):
        gsis.diagonalize_simultaneously(shifts)
    assert len(calls) == draws


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
        # a member reads its stored row; an equal shift that is not one, and its array, are checked
        for matrix in (s, gsis.ShiftMatrix(s.matrix, shifts.graph), s.matrix):
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
    h = gsis.apply_polynomial_filter(shifts, coeffs, np.eye(3))
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
    h = gsis.apply_polynomial_filter(shifts, {0: 1.0, 2: -0.3}, np.eye(3))
    assert gsis.is_polynomial_filter(h, shifts)
    not_poly = np.diag([1.0, 2.0, 3.0])  # does not commute with L
    assert not gsis.is_polynomial_filter(not_poly, shifts)


def test_lagrange_projector(p3):
    _, _, decomp = p3
    for n in range(3):
        p = np.outer(decomp.basis[:, n], decomp.basis[:, n])
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.linalg.matrix_rank(p) == 1
        assert np.allclose(p @ decomp.basis[:, n], decomp.basis[:, n], atol=1e-12)
    total = sum(np.outer(decomp.basis[:, n], decomp.basis[:, n]) for n in range(3))
    assert np.allclose(total, np.eye(3), atol=1e-12)


def test_graded_multi_indices_order():
    idx = gsis.graded_multi_indices(2, 2)
    assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert gsis.graded_multi_indices(1, 3) == [(0,), (1,), (2,), (3,)]
    assert len(gsis.graded_multi_indices(3, 2)) == 10


def test_decomposition_holds_one_dense_shift_at_a_time():
    _, shifts = gsis.build_circulant(1000, (1, 3))
    tracemalloc.start()
    try:
        decomp = gsis.diagonalize_simultaneously(shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all("matrix" not in vars(s) for s in shifts)
    # the eigenvectors, two images and one transient shift are 8 MB each
    assert peak < 40e6
    # a member's spectrum is stored, so the check runs on a shift that is not one
    combined = gsis.canonical_generator(decomp, [g.start for g in decomp.groups[:6]]).combined_shift
    decomp.eigenvalues_of(combined, "combined shift")
    assert all("matrix" not in vars(s) for s in (*shifts, combined))


def test_the_combined_shift_is_a_shift_on_the_same_graph():
    graph, shifts = gsis.build_circulant(15, (1, 3))
    decomp = gsis.diagonalize_simultaneously(shifts)
    gen = gsis.canonical_generator(decomp, [g.start for g in decomp.groups[:3]])
    t = gen.combined_shift
    assert isinstance(t, gsis.ShiftMatrix) and t.graph == graph
    dense = sum(dl * s.matrix for dl, s in zip(gen.direction, shifts))
    assert t.matrix.tobytes() == dense.tobytes()
    x = np.random.default_rng(14).standard_normal(15)
    assert np.allclose(t @ x, dense @ x, rtol=0, atol=1e-14 * np.linalg.norm(x))


def test_checks_leave_no_dense_matrix_on_the_shifts():
    _, shifts = gsis.build_circulant(12, (1, 3))
    decomp = gsis.diagonalize_simultaneously(shifts)
    space = gsis.bandlimited_space(decomp, [0, 1, 2])
    kernel = gsis.make_kernel(decomp, shifts[0], "diffusion", sigma=1.0)
    single = gsis.ShiftSet((shifts[0],))
    checks = {
        "is_shift_invariant": lambda: gsis.is_shift_invariant(space, shifts),
        "is_shift_invariant_kernel": lambda: gsis.is_shift_invariant_kernel(kernel.matrix, shifts),
        "is_polynomial_filter": lambda: gsis.is_polynomial_filter(kernel.matrix, shifts),
        "degenerate_dimension_check": lambda: gsis.degenerate_dimension_check(
            single, np.eye(12)[0], gsis.subset_sampler(12, range(12))
        ),
    }
    assert all("matrix" not in vars(s) for s in shifts)
    for name, check in checks.items():
        assert check(), name
        assert all("matrix" not in vars(s) for s in shifts), name


@pytest.mark.parametrize("slots", [True, False], ids=["slots", "BLAS"])
def test_commutator_checks_take_a_matrix_that_is_not_symmetric(slots, monkeypatch):
    _, shifts = gsis.build_circulant(12, (1, 3))
    monkeypatch.setattr(gsis.ShiftMatrix, "_slots_pay", lambda shift: slots)
    rotation = np.roll(np.eye(12), 1, axis=1)  # commutes with every circulant, and is not symmetric
    skewed = rotation.copy()
    skewed[0, 5] += 1e-3
    for h in (rotation, skewed, np.random.default_rng(15).standard_normal((12, 12))):
        for s in shifts:
            assert np.abs((h @ s - s @ h) - (h @ s.matrix - s.matrix @ h)).max() <= 1e-15
            assert s._frobenius_norm() == pytest.approx(np.linalg.norm(s.matrix), rel=1e-15)
    assert gsis.is_polynomial_filter(rotation, shifts)
    assert not gsis.is_polynomial_filter(skewed, shifts)


def _pairwise_min_distance(values):
    """The smallest ``sqrt((a - b)^2)`` over all pairs: the blockwise search's arithmetic for one shift."""
    diffs = np.subtract.outer(values, values)[np.triu_indices(len(values), 1)]
    return float(np.sqrt((diffs**2).min(initial=np.inf)))


def test_one_shift_gap_is_the_pairwise_gap_bit_for_bit():
    rng = np.random.default_rng(12)
    cases = [rng.standard_normal(n) * scale for n in (1, 2, 7, 300) for scale in (1e-120, 1e-8, 1.0, 1e120)]
    cases.append(np.array([0.5, -1.0, 0.5, 3.0]))  # a tie
    for shifts in (
        laplacian_shift_set(random_connected_graph(40, rng)),
        gsis.ShiftSet((gsis.build_standard_shifts(gsis.cycle_graph(30), "laplacian"),)),  # tied pairs
    ):
        decomp = gsis.diagonalize_simultaneously(shifts)
        assert decomp.min_spectral_gap == _pairwise_min_distance(decomp.eigenvalues[0])
        cases.append(decomp.eigenvalues[0])
    for values in cases:
        assert gsis.spectral._min_distance(values[:, None]) == _pairwise_min_distance(values)


@pytest.mark.parametrize(
    "coeffs, message",
    [({(1,): 1.0}, r"exponent \(1,\) has length 1, expected 2"), ({(1, -1): 1.0}, "exponents must be nonnegative")],
)
def test_polynomial_coefficients_reject_bad_exponents(coeffs, message):
    _, shifts = gsis.build_circulant(8, [1, 3])
    with pytest.raises(ValueError, match=message):
        gsis.apply_polynomial_filter(shifts, coeffs, np.ones(8))


def test_filter_exponents_and_index_counts_follow_the_count_rule(p3):
    _, (lap,), _ = p3
    _, two = gsis.build_circulant(8, (1, 2))
    x = np.arange(8.0)
    # integral floats pass as their integers, bit for bit
    assert np.array_equal(gsis.apply_polynomial_filter(two, {(1.0, 2.0): 0.5}, x),
                          gsis.apply_polynomial_filter(two, {(1, 2): 0.5}, x))
    single = gsis.ShiftSet((lap,))
    assert np.array_equal(gsis.apply_polynomial_filter(single, {2.0: 1.0}, np.ones(3)),
                          gsis.apply_polynomial_filter(single, {2: 1.0}, np.ones(3)))
    with pytest.raises(ValueError, match=r"exponents must be integers, got 1\.5"):
        gsis.apply_polynomial_filter(two, {(1.5, 0): 1.0}, x)  # used to act as (1, 0)
    with pytest.raises(ValueError, match=r"exponents must be integers, got 1\.5"):
        gsis.apply_polynomial_filter(single, {1.5: 1.0}, np.ones(3))
    assert gsis.graded_multi_indices(2.0, 2.0) == gsis.graded_multi_indices(2, 2)
    with pytest.raises(ValueError, match=r"max_total must be integers, got 1\.5"):
        gsis.graded_multi_indices(2, 1.5)
    with pytest.raises(ValueError, match=r"n_shifts must be integers, got 1\.5"):
        gsis.graded_multi_indices(1.5, 2)
    with pytest.raises(ValueError, match="n_shifts must be positive, got 0"):
        gsis.graded_multi_indices(0, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda sh, d: gsis.gft(d, [1.0, np.nan, 0.0]), "signal must be finite"),
        (lambda sh, d: gsis.gft(d, np.ones(4)), "signal of length 4, expected 3"),
        (lambda sh, d: gsis.gft(d, np.ones((4, 2))), r"signal of shape \(4, 2\), expected \(3, any\)"),
        (lambda sh, d: gsis.gft(d, np.full((3, 2), np.inf)), "signal must be finite"),
        (lambda sh, d: gsis.igft(d, [0.0, 0.0, np.nan]), "x_hat must be finite"),
        (lambda sh, d: gsis.igft(d, np.ones(2)), "x_hat of length 2, expected 3"),
        (lambda sh, d: gsis.apply_polynomial_filter(sh, {1: 1.0}, [np.nan, 0.0, 0.0]), "signal must be finite"),
        (lambda sh, d: gsis.apply_polynomial_filter(sh, {1: 1.0}, np.ones((2, 3))), r"signal of shape \(2, 3\)"),
        (lambda sh, d: gsis.apply_polynomial_filter(sh, {1: np.nan}, np.ones(3)), r"coefficient of \(1,\) must be finite"),
    ],
    ids=["gft nan", "gft length", "gft block shape", "gft block inf", "igft nan", "igft length",
         "filter nan signal", "filter block shape", "filter nan coefficient"],
)
def test_transforms_and_filters_gate_their_signals(p3, call, message):
    _, shifts, decomp = p3
    with pytest.raises(ValueError, match=message):
        call(shifts, decomp)
