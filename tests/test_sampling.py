"""Tests for sampling schemes, injectivity checks, and reconstruction."""

import inspect
import math
import re
import warnings

import numpy as np
import pytest

import gsis
from conftest import laplacian_shift_set, random_connected_graph
from gsis.spaces import KrylovChain


# ---------------------------------------------------------------------------
# schemes


def test_subset_sampler_rows():
    scheme = gsis.subset_sampler(5, [3, 0])
    assert scheme.provenance == "subset"
    assert scheme.vertices == (0, 3)
    expected = np.zeros((2, 5))
    expected[0, 0] = 1.0
    expected[1, 3] = 1.0
    assert np.array_equal(scheme.matrix, expected)
    assert scheme.n_samples == 2 and scheme.n_vertices == 5
    assert np.array_equal(scheme @ np.arange(5.0), [0.0, 3.0])


def test_subset_scheme_holds_its_vertices_until_the_matrix_is_read():
    scheme = gsis.subset_sampler(2000, range(700, 1301))
    basis = gsis.orthogonalize.OrthogonalBasis(2000, weight=scheme)
    assert basis.images.shape == (601, 0)
    assert scheme.n_samples == 601 and scheme.n_vertices == 2000
    assert "matrix" not in vars(scheme)
    assert np.array_equal(scheme.matrix, np.eye(2000)[700:1301])
    assert not scheme.matrix.flags.writeable


def test_subset_sampler_accepts_iterators():
    from_generator = gsis.subset_sampler(10, (i for i in range(3)))
    from_range = gsis.subset_sampler(10, range(3))
    assert from_generator.vertices == from_range.vertices == (0, 1, 2)
    assert np.array_equal(from_generator.matrix, from_range.matrix)
    with pytest.raises(ValueError, match="repeats"):
        gsis.subset_sampler(10, iter([4, 4]))


def test_subset_sampler_validation():
    with pytest.raises(ValueError):
        gsis.subset_sampler(5, [1, 1])
    with pytest.raises(ValueError):
        gsis.subset_sampler(5, [])
    with pytest.raises(ValueError):
        gsis.subset_sampler(5, [5])
    with pytest.raises(ValueError):
        gsis.subset_sampler(5, [-1])


def test_sampling_scheme_validation():
    with pytest.raises(ValueError):
        gsis.SamplingScheme(np.ones(3))
    with pytest.raises(ValueError):
        gsis.SamplingScheme(np.array([[np.nan, 0.0]]))
    scheme = gsis.SamplingScheme(np.eye(2))
    with pytest.raises(ValueError):
        scheme.matrix[0, 0] = 5.0


def test_subset_scheme_applies_as_a_gather():
    scheme = gsis.subset_sampler(9, [7, 2, 4])
    x = np.random.default_rng(5).standard_normal(9)
    assert np.array_equal(scheme @ x, scheme.matrix @ x)
    assert np.array_equal(scheme @ x, gsis.SamplingScheme(scheme.matrix) @ x)
    with pytest.raises(ValueError, match=r"operand of shape \(8,\) under a scheme on 9 vertices"):
        scheme @ x[:8]


def _schemes(n=9):
    """One scheme of each provenance on the n-cycle."""
    _, shifts = gsis.build_circulant(n, [1])
    decomp = gsis.diagonalize_simultaneously(shifts)
    return {
        "subset": gsis.subset_sampler(n, [7, 2, 4]),
        "dynamic": gsis.dynamic_sampler(decomp, shifts[0].matrix, 2, 5),
        "custom": gsis.SamplingScheme(np.random.default_rng(11).standard_normal((4, n))),
    }


@pytest.mark.parametrize("kind", ["subset", "dynamic", "custom"])
def test_a_scheme_applies_itself_as_its_matrix_product(kind):
    scheme = _schemes()[kind]
    rng = np.random.default_rng(12)
    # numpy's matmul reads an operand of three or more axes as a stack of (N, K) blocks
    for shape in ((9,), (9, 3), (9, 9, 2), (4, 9, 3), (2, 3, 9, 1)):
        x = rng.standard_normal(shape)
        got, want = scheme @ x, scheme.matrix @ x
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for shape in ((10,), (10, 3), (9, 10, 3)):
        with pytest.raises(ValueError, match="shape"):
            scheme @ np.ones(shape)


class _Weight:
    """Stand-in weight with nothing but a shape, ``@`` and, for a subset scheme, its vertices."""

    def __init__(self, scheme):
        self.shape = scheme.shape
        self._apply = scheme.__matmul__
        self.applied = 0
        if scheme.provenance == "subset":
            self.vertices = scheme.vertices

    def __matmul__(self, v):
        self.applied += 1
        return self._apply(v)


@pytest.mark.parametrize("kind", ["subset", "dynamic", "custom"])
def test_an_orthogonal_basis_reads_only_the_shape_matmul_and_vertices_of_its_weight(kind):
    scheme = _schemes()[kind]
    rng = np.random.default_rng(13)
    dense = list(rng.standard_normal((6, 9)))
    dense.insert(2, dense[0] - 2.0 * dense[1])  # dependent
    dense.insert(1, np.eye(9)[0])  # vertex 0 is not sampled by the subset scheme
    # nonzero on the subset scheme's vertices alone, so that basis keeps one stream
    on_samples = list(rng.standard_normal((4, 9)) * np.isin(np.arange(9), [2, 4, 7]))
    on_samples.insert(2, on_samples[0] - 2.0 * on_samples[1])  # dependent
    for candidates in (dense, on_samples):
        weight = _Weight(scheme)
        real, stand_in = gsis.OrthogonalBasis(9, scheme), gsis.OrthogonalBasis(9, weight)
        statuses = [(real.try_add(v), stand_in.try_add(v)) for v in candidates]
        assert all(a == b for a, b in statuses) and real.dim > 0
        assert np.array_equal(real.basis, stand_in.basis)
        assert np.array_equal(real.images, stand_in.images)
        assert np.array_equal(real._r[: real.dim, : real.dim], stand_in._r[: real.dim, : real.dim])
    # the one stream reads the vertices, never applies the weight and keeps R the identity
    assert real.dim == 3 and statuses[2] == (gsis.DEPENDENT, gsis.DEPENDENT)
    assert (weight.applied == 0) is (kind == "subset")
    assert np.array_equal(stand_in._r[:3, :3], np.eye(3)) is (kind == "subset")


def test_a_one_stream_basis_evaluates_without_solving_with_r(monkeypatch):
    solved = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(a.shape) or solve(a, b))
    basis = gsis.OrthogonalBasis(9, _schemes()["subset"])
    rng = np.random.default_rng(15)
    for v in rng.standard_normal((2, 9)) * np.isin(np.arange(9), [2, 4, 7]):
        assert basis.try_add(v) == gsis.ADDED
    c = rng.standard_normal((2, 3))
    # one stream: R is the identity, and the signal is the basis times the coefficients
    assert basis.evaluate(c).tobytes() == (basis.basis @ c).tobytes() and not solved
    assert basis.try_add(rng.standard_normal(9)) == gsis.ADDED  # nonzero off the samples: two streams
    c = rng.standard_normal((3, 3))
    assert basis.evaluate(c).tobytes() == (basis.basis @ solve(basis._r[:3, :3], c)).tobytes()
    assert solved == [(3, 3)]


@pytest.mark.parametrize("kind", [None, "subset", "custom"])
def test_an_orthogonal_basis_rejects_a_candidate_that_is_not_finite_or_of_another_length(kind):
    weight = None if kind is None else _schemes()[kind]
    basis = gsis.OrthogonalBasis(9, weight)
    first = np.eye(9)[2]
    assert basis.try_add(first) == gsis.ADDED
    for value in (np.nan, np.inf, -np.inf):
        bad = np.eye(9)[4]
        bad[4] = value
        with pytest.raises(ValueError, match="candidate is not finite"):
            basis.try_add(bad)
    huge = np.full(9, 1e300)  # finite, but its norm overflows
    with pytest.raises(ValueError, match="candidate is not finite"):  # numpy's overflow warning is an error here
        basis.try_add(huge)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="candidate is not finite"):
            basis.try_add(huge)
    with np.errstate(over="raise"), pytest.raises(ValueError, match="candidate is not finite"):
        basis.try_add(huge)
    for bad in (np.ones(8), np.ones(10), np.ones((9, 1))):
        with pytest.raises(ValueError, match=rf"candidate of shape \({bad.shape[0]},"):
            basis.try_add(bad)
    # nothing of a rejected candidate was kept: the basis goes on as if none was offered
    fresh = gsis.OrthogonalBasis(9, weight)
    fresh.try_add(first)
    for v in (np.eye(9)[4] + 0.5 * np.eye(9)[7], np.eye(9)[7]):
        assert basis.try_add(v) == fresh.try_add(v)
    assert basis.basis.tobytes() == fresh.basis.tobytes() and basis._max_euclid == fresh._max_euclid


def test_non_finite_observations_are_rejected():
    _, shifts = gsis.build_circulant(12, [1, 3])
    decomp = gsis.diagonalize_simultaneously(shifts)
    scheme = gsis.subset_sampler(12, range(7))
    phi = np.eye(12)[6]
    y = np.ones(7)
    y[3] = np.nan
    with pytest.raises(ValueError, match="values must be finite"):
        gsis.Observation(y, scheme)
    with pytest.raises(ValueError, match="y must be finite"):
        gsis.reconstruct_direct(decomp, [0, 1], scheme, y)
    with pytest.raises(ValueError, match="y must be finite"):
        gsis.reconstruct_krylov(shifts, [phi], scheme, y)
    with pytest.raises(ValueError, match="y of length 6, expected 7"):
        gsis.reconstruct_krylov(shifts, [phi], scheme, y[:6])


def test_observation_length_checked():
    scheme = gsis.subset_sampler(4, [0, 2])
    obs = gsis.Observation(np.array([1.0, 2.0]), scheme)
    assert np.array_equal(obs.values, [1.0, 2.0])
    with pytest.raises(ValueError):
        gsis.Observation(np.array([1.0, 2.0, 3.0]), scheme)


def test_dynamic_sampler_rows_on_path(p3):
    graph, shifts, decomp = p3
    scheme = gsis.dynamic_sampler(decomp, shifts[0].matrix, 1, 2)
    assert scheme.provenance == "dynamic"
    assert scheme.initial_vertex == 1 and scheme.n_snapshots == 2
    # row k reads vertex 1 after k applications of the state matrix
    assert np.allclose(scheme.matrix, [[0.0, 1.0, 0.0], [-1.0, 2.0, -1.0]])


def test_dynamic_sampler_validation(p3):
    graph, shifts, decomp = p3
    state = shifts[0].matrix
    with pytest.raises(ValueError):
        gsis.dynamic_sampler(decomp, np.eye(4), 0, 2)
    with pytest.raises(ValueError):
        gsis.dynamic_sampler(decomp, state, 3, 2)
    with pytest.raises(ValueError):
        gsis.dynamic_sampler(decomp, state, 0, 0)
    crooked = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="state matrix is not diagonalized"):
        gsis.dynamic_sampler(decomp, crooked, 0, 2)


# ---------------------------------------------------------------------------
# injectivity


def test_check_injective_matches_rank_oracle():
    rng = np.random.default_rng(7)
    agree = 0
    for _ in range(40):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, n + 1))
        d = int(rng.integers(1, n + 1))
        a = rng.standard_normal((m, n))
        f = rng.standard_normal((n, d))
        if rng.random() < 0.3:
            f[:, -1] = f[:, 0]  # force a rank-deficient span
        scheme = gsis.SamplingScheme(a)
        expected = np.linalg.matrix_rank(a @ f) == np.linalg.matrix_rank(f)
        assert gsis.check_injective(scheme, f) == expected
        agree += 1
    assert agree == 40


def test_check_injective_shape_validation():
    scheme = gsis.subset_sampler(4, [0])
    with pytest.raises(ValueError):
        gsis.check_injective(scheme, np.eye(3))


def test_bandlimited_injective_agrees_with_general_check():
    rng = np.random.default_rng(21)
    for _ in range(20):
        graph = random_connected_graph(int(rng.integers(4, 10)), rng)
        shifts = laplacian_shift_set(graph)
        decomp = gsis.diagonalize_simultaneously(shifts)
        n = graph.n_vertices
        k = int(rng.integers(1, n + 1))
        omega = sorted(rng.choice(n, size=k, replace=False).tolist())
        m = int(rng.integers(1, n + 1))
        verts = sorted(rng.choice(n, size=m, replace=False).tolist())
        scheme = gsis.subset_sampler(n, verts)
        fast = gsis.check_bandlimited_injective(decomp, omega, verts)
        general = gsis.check_injective(scheme, decomp.basis[:, omega])
        assert fast == general


def test_dynamic_injective_agrees_with_general_check():
    rng = np.random.default_rng(22)
    for _ in range(20):
        graph = random_connected_graph(int(rng.integers(3, 9)), rng)
        shifts = laplacian_shift_set(graph)
        decomp = gsis.diagonalize_simultaneously(shifts)
        n = graph.n_vertices
        k = int(rng.integers(1, n + 1))
        omega = sorted(rng.choice(n, size=k, replace=False).tolist())
        i0 = int(rng.integers(0, n))
        snaps = int(rng.integers(1, n + 2))
        report = gsis.check_dynamic_injective(decomp, omega, shifts[0].matrix, i0, snaps)
        scheme = gsis.dynamic_sampler(decomp, shifts[0].matrix, i0, snaps)
        general = gsis.check_injective(scheme, decomp.basis[:, omega])
        assert report.ok == general, (omega, i0, snaps, report.reason)
        if report.ok:
            assert report.reason == "injective"


def test_dynamic_injective_reasons(p3):
    graph, shifts, decomp = p3
    state = shifts[0].matrix
    short = gsis.check_dynamic_injective(decomp, [0, 1, 2], state, 0, 2)
    assert not short.ok and "insufficient snapshots" in short.reason

    # the middle vertex of the path sits on a node of the second eigenvector
    blind = gsis.check_dynamic_injective(decomp, [1], state, 1, 1)
    assert not blind.ok
    assert blind.reason == "eigenvector entry vanishes at vertex 1"

    circ, cshifts = gsis.build_circulant(12, [1])
    cdec = gsis.diagonalize_simultaneously(cshifts)
    rep = gsis.check_dynamic_injective(cdec, [1, 2], cshifts[0].matrix, 0, 4)
    assert not rep.ok and rep.reason == "repeated state eigenvalues on omega"

    empty = gsis.check_dynamic_injective(decomp, [], state, 0, 1)
    assert empty.ok


# ---------------------------------------------------------------------------
# direct reconstruction


def test_reconstruct_direct_recovers_bandlimited():
    rng = np.random.default_rng(31)
    done = 0
    while done < 25:
        graph = random_connected_graph(int(rng.integers(4, 12)), rng)
        shifts = laplacian_shift_set(graph)
        decomp = gsis.diagonalize_simultaneously(shifts)
        n = graph.n_vertices
        k = int(rng.integers(1, n))
        omega = sorted(rng.choice(n, size=k, replace=False).tolist())
        m = int(rng.integers(k, n + 1))
        verts = sorted(rng.choice(n, size=m, replace=False).tolist())
        if not gsis.check_bandlimited_injective(decomp, omega, verts):
            continue
        scheme = gsis.subset_sampler(n, verts)
        x = decomp.basis[:, omega] @ rng.standard_normal(k)
        out = gsis.reconstruct_direct(decomp, omega, scheme, scheme @ x)
        assert np.linalg.norm(out - x) <= 1e-9 * max(1.0, np.linalg.norm(x))
        done += 1


def test_reconstruct_direct_matches_lstsq_oracle(p3):
    graph, shifts, decomp = p3
    scheme = gsis.subset_sampler(3, [0, 1])
    y = np.array([2.0, -1.0])
    out = gsis.reconstruct_direct(decomp, [0, 1], scheme, y)
    sampled = scheme.matrix @ decomp.basis[:, [0, 1]]
    coeffs, *_ = np.linalg.lstsq(sampled, y, rcond=None)
    assert np.allclose(out, decomp.basis[:, [0, 1]] @ coeffs, atol=1e-12)


def test_reconstruct_direct_edge_cases(p3):
    graph, shifts, decomp = p3
    scheme = gsis.subset_sampler(3, [0, 2])
    assert np.array_equal(
        gsis.reconstruct_direct(decomp, [], scheme, np.zeros(2)), np.zeros(3)
    )
    out = gsis.reconstruct_direct(decomp, [0, 1], scheme, np.zeros(2))
    assert np.allclose(out, 0.0)
    with pytest.raises(ValueError):
        gsis.reconstruct_direct(decomp, [0], scheme, np.zeros(3))
    # one sample cannot pin down a two-dimensional space
    thin = gsis.subset_sampler(3, [0])
    with pytest.raises(gsis.NonInjectiveSamplingError):
        gsis.reconstruct_direct(decomp, [0, 1], thin, np.array([1.0]))
    # vertex 1 is blind to the second eigenvector
    blind = gsis.dynamic_sampler(decomp, shifts[0].matrix, 1, 2)
    with pytest.raises(gsis.NonInjectiveSamplingError):
        gsis.reconstruct_direct(decomp, [1], blind, np.zeros(2))


def test_reconstruct_direct_accepts_observation(p3):
    graph, shifts, decomp = p3
    scheme = gsis.subset_sampler(3, [0, 1, 2])
    x = decomp.basis[:, [0, 2]] @ np.array([1.0, -2.0])
    obs = gsis.Observation(scheme @ x, scheme)
    out = gsis.reconstruct_direct(decomp, [0, 2], scheme, obs)
    assert np.allclose(out, x, atol=1e-12)


def test_reconstruct_direct_on_a_subset_scheme_builds_no_matrix():
    _, shifts = gsis.build_circulant(40, [1, 3])
    decomp = gsis.diagonalize_simultaneously(shifts)
    omega = [0, 1, 2, 3, 4]
    scheme = gsis.subset_sampler(40, range(5, 25))
    y = np.random.default_rng(9).standard_normal(scheme.n_samples)
    x = gsis.reconstruct_direct(decomp, omega, scheme, y)
    assert "matrix" not in scheme.__dict__
    same_rows = gsis.SamplingScheme(scheme.matrix)
    assert same_rows.provenance == "custom"
    assert gsis.reconstruct_direct(decomp, omega, same_rows, y).tobytes() == x.tobytes()


@pytest.mark.parametrize("ratio, injective", [(0.9e6, True), (1.1e6, False)])
def test_reconstruct_direct_condition_gate_boundary(ratio, injective):
    # A = diag(s) U_omega.T makes the sampled basis diag(s), whose Gram
    # matrix has condition number ratio^2 against the 1e12 gate
    graph = gsis.path_graph(8)
    decomp = gsis.diagonalize_simultaneously(laplacian_shift_set(graph))
    omega = [0, 1, 2, 3]
    u = decomp.basis[:, omega]
    scheme = gsis.SamplingScheme(np.diag([1.0, 30.0, 1000.0, ratio]) @ u.T)
    x = u @ np.array([0.7, -1.3, 2.1, 0.4])
    if injective:
        out = gsis.reconstruct_direct(decomp, omega, scheme, scheme @ x)
        assert np.allclose(out, x, atol=1e-10)
    else:
        with pytest.raises(gsis.NonInjectiveSamplingError, match="condition 1.210e\\+12"):
            gsis.reconstruct_direct(decomp, omega, scheme, scheme @ x)


# ---------------------------------------------------------------------------
# iterative reconstruction


def _injective_bandlimited_instance(rng, n_low=5, n_high=12):
    """Random graph, bandlimited generator, and a subset scheme injective
    on the generated space."""
    while True:
        graph = random_connected_graph(int(rng.integers(n_low, n_high)), rng)
        shifts = laplacian_shift_set(graph)
        decomp = gsis.diagonalize_simultaneously(shifts)
        if not decomp.assumption1_holds:
            continue
        n = graph.n_vertices
        k = int(rng.integers(1, n))
        omega = sorted(rng.choice(n, size=k, replace=False).tolist())
        coeffs = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
        phi0 = decomp.basis[:, omega] @ coeffs
        m = int(rng.integers(k, n + 1))
        verts = sorted(rng.choice(n, size=m, replace=False).tolist())
        if not gsis.check_bandlimited_injective(decomp, omega, verts):
            continue
        return graph, shifts, decomp, omega, phi0, gsis.subset_sampler(n, verts)


def test_reconstruct_krylov_exact_recovery():
    rng = np.random.default_rng(41)
    for _ in range(10):
        graph, shifts, decomp, omega, phi0, scheme = _injective_bandlimited_instance(rng)
        x = decomp.basis[:, omega] @ rng.standard_normal(len(omega))
        res = gsis.reconstruct_krylov(shifts, [phi0], scheme, scheme @ x)
        assert np.linalg.norm(res.signal - x) <= 1e-8 * max(1.0, np.linalg.norm(x))
        assert np.linalg.norm(res.residual) <= 1e-9
        assert res.dims_trace[-1] == len(omega)
        diffs = np.diff(res.residual_trace)
        assert np.all(diffs <= 1e-12)


def test_reconstruct_krylov_matches_direct():
    rng = np.random.default_rng(42)
    for _ in range(10):
        graph, shifts, decomp, omega, phi0, scheme = _injective_bandlimited_instance(rng)
        y = rng.standard_normal(scheme.n_samples)
        res = gsis.reconstruct_krylov(shifts, [phi0], scheme, y, delta=0.0)
        direct = gsis.reconstruct_direct(decomp, omega, scheme, y)
        assert np.linalg.norm(res.signal - direct) <= 1e-8 * max(
            1.0, np.linalg.norm(direct)
        )


def test_reconstruct_krylov_per_level_optimality():
    rng = np.random.default_rng(43)
    graph, shifts, decomp, omega, phi0, scheme = _injective_bandlimited_instance(
        rng, n_low=8, n_high=12
    )
    y = rng.standard_normal(scheme.n_samples)
    res = gsis.reconstruct_krylov(shifts, [phi0], scheme, y, keep_iterates=True)
    assert res.signal_trace is not None
    assert len(res.signal_trace) == len(res.dims_trace) == len(res.residual_trace)
    assert np.array_equal(res.signal_trace[-1], res.signal)
    for level, x_level in enumerate(res.signal_trace):
        basis, dims = gsis.krylov_subspace(
            shifts, [phi0], level, weight=scheme.matrix
        )
        assert dims[-1] == res.dims_trace[level]
        best, *_ = np.linalg.lstsq(scheme.matrix @ basis, y, rcond=None)
        optimum = np.linalg.norm(y - scheme.matrix @ (basis @ best))
        achieved = np.linalg.norm(y - scheme.matrix @ x_level)
        assert abs(achieved - optimum) <= 1e-8 * max(1.0, optimum)


def _deep_window_case():
    _, shifts = gsis.build_circulant(60, [1, 3])
    phi = np.zeros(60)
    phi[30] = 1.0
    return shifts, phi, gsis.subset_sampler(60, range(18, 43))


def _dynamic_case():
    _, shifts = gsis.build_circulant(30, [1])
    decomp = gsis.diagonalize_simultaneously(shifts)
    phi = np.zeros(30)
    phi[7] = 1.0
    return shifts, phi, gsis.dynamic_sampler(decomp, shifts[0].matrix, 7, 12)


@pytest.mark.parametrize("case", [_deep_window_case, _dynamic_case])
def test_reconstruct_krylov_iterates_match_per_level_evaluation(case):
    # every iterate comes from one block solve; check each against its own level's solve
    shifts, phi, scheme = case()
    y = np.random.default_rng(44).standard_normal(scheme.n_samples)
    res = gsis.reconstruct_krylov(
        shifts, [phi], scheme, y, max_level=12, require_injective=False, keep_iterates=True
    )
    assert len(res.dims_trace) > 3
    chain = KrylovChain(shifts, [phi], scheme)
    fit = chain.fit(y[:, None], [12])
    assert tuple(chain.dims[: res.depth + 1]) == res.dims_trace
    for d, iterate in zip(res.dims_trace, res.signal_trace):
        level = chain.evaluate(fit.coefficients[:d, 0])
        assert np.abs(iterate - level).max() <= 1e-13 * max(1.0, np.linalg.norm(level))
    assert res.signal.tobytes() == res.signal_trace[-1].tobytes()


@pytest.mark.parametrize("keep_iterates", [False, True])
def test_reconstruct_krylov_evaluates_once(keep_iterates, monkeypatch):
    shifts, phi, scheme = _deep_window_case()
    y = np.random.default_rng(45).standard_normal(scheme.n_samples)
    calls = []
    real = gsis.OrthogonalBasis.evaluate

    def counted(self, coefficients):
        calls.append(np.shape(coefficients))
        return real(self, coefficients)

    monkeypatch.setattr(gsis.OrthogonalBasis, "evaluate", counted)
    res = gsis.reconstruct_krylov(
        shifts, [phi], scheme, y, max_level=12, require_injective=False, keep_iterates=keep_iterates
    )
    assert len(calls) == 1
    assert calls[0][1] == (len(res.dims_trace) if keep_iterates else 1)


def test_the_residual_trace_does_not_overflow_on_huge_observations():
    # the norm squares each entry, so observations near 1e200 used to report inf
    shifts = gsis.ShiftSet([gsis.build_standard_shifts(gsis.cycle_graph(50), "adjacency")])
    phi = np.zeros(50)
    phi[25] = 1.0
    scheme = gsis.subset_sampler(50, range(10, 41))
    y = np.cos(0.3 * np.arange(31))
    plain = gsis.reconstruct_krylov(shifts, [phi], scheme, y, max_level=3)
    assert plain.residual_trace[-1] == np.linalg.norm(plain.residual)
    huge = gsis.reconstruct_krylov(shifts, [phi], scheme, 1e200 * y, max_level=3)
    assert np.all(np.isfinite(huge.residual_trace))
    assert huge.residual_trace[-1] == pytest.approx(math.hypot(*huge.residual), rel=1e-14)
    assert np.allclose(huge.residual_trace, 1e200 * np.array(plain.residual_trace), rtol=1e-12, atol=0)


def test_reconstruct_krylov_generator_span_depth_zero(p3):
    graph, shifts, decomp = p3
    x0 = np.array([1.0, 2.0, 3.0])
    scheme = gsis.subset_sampler(3, [0, 1, 2])
    res = gsis.reconstruct_krylov(shifts, [x0], scheme, scheme @ x0, delta=1e-12)
    assert res.depth == 0
    assert res.dims_trace == (1,)
    assert np.allclose(res.signal, x0, atol=1e-12)


def test_reconstruct_krylov_stops_at_delta(p3):
    graph, shifts, decomp = p3
    scheme = gsis.subset_sampler(3, [0, 1, 2])
    y = np.array([1.0, -1.0, 0.5])
    full = gsis.reconstruct_krylov(shifts, [np.array([1.0, 0.0, 0.0])], scheme, y)
    loose = gsis.reconstruct_krylov(
        shifts, [np.array([1.0, 0.0, 0.0])], scheme, y, delta=10.0
    )
    assert loose.depth == 0 and len(loose.residual_trace) == 1
    assert full.depth >= 1


def test_reconstruct_krylov_max_level(p3):
    graph, shifts, decomp = p3
    scheme = gsis.subset_sampler(3, [0, 1, 2])
    y = np.array([1.0, -1.0, 0.5])
    res = gsis.reconstruct_krylov(
        shifts, [np.array([1.0, 0.0, 0.0])], scheme, y, max_level=1
    )
    assert res.depth == 1
    assert len(res.dims_trace) == 2


def test_reconstruct_krylov_invisible_generator(p3):
    graph, shifts, decomp = p3
    scheme = gsis.subset_sampler(3, [0])
    hidden = np.array([0.0, 1.0, 0.0])
    with pytest.raises(gsis.DegenerateInnerProductError):
        gsis.reconstruct_krylov(shifts, [hidden], scheme, np.array([0.0]))
    res = gsis.reconstruct_krylov(
        shifts, [hidden], scheme, np.array([0.0]), require_injective=False
    )
    assert np.allclose(res.signal, 0.0)
    assert res.depth == 0


def test_reconstruct_krylov_invisible_shifted_candidate(p3):
    # delta_0 generates all of R^3, but two samples cannot see it all:
    # at level 1 the orthogonalized candidate vanishes under the scheme
    # while staying large in euclidean norm.
    graph, shifts, decomp = p3
    scheme = gsis.subset_sampler(3, [0, 2])
    delta0 = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0])
    with pytest.raises(gsis.DegenerateInnerProductError):
        gsis.reconstruct_krylov(shifts, [delta0], scheme, y)
    res = gsis.reconstruct_krylov(
        shifts, [delta0], scheme, y, require_injective=False
    )
    assert res.dims_trace[0] == 1
    # the estimate stays optimal over the visible part of the span
    assert np.linalg.norm(res.residual) <= np.linalg.norm(y) + 1e-12


def test_reconstruct_krylov_dependent_generator_warns(p3):
    graph, shifts, decomp = p3
    x0 = np.array([1.0, 2.0, 3.0])
    scheme = gsis.subset_sampler(3, [0, 1, 2])
    with pytest.warns(UserWarning, match="dependent generator") as record:
        res = gsis.reconstruct_krylov(shifts, [x0, 2.0 * x0], scheme, scheme @ x0)
        call_line = inspect.currentframe().f_lineno - 1
    assert np.allclose(res.signal, x0, atol=1e-10)
    # the warning points at the line that called reconstruct_krylov
    (warning,) = record
    assert (warning.filename, warning.lineno) == (__file__, call_line)


def test_reconstruct_krylov_validation(p3):
    graph, shifts, decomp = p3
    scheme = gsis.subset_sampler(3, [0, 1])
    x0 = np.ones(3)
    y = np.zeros(2)
    with pytest.raises(ValueError):
        gsis.reconstruct_krylov(shifts, [x0], scheme, np.zeros(3))
    with pytest.raises(ValueError):
        gsis.reconstruct_krylov(shifts, [x0], scheme, y, delta=-1.0)
    with pytest.raises(ValueError):
        gsis.reconstruct_krylov(shifts, [x0], scheme, y, max_level=-1)
    with pytest.raises(ValueError):
        gsis.reconstruct_krylov(shifts, [], scheme, y)
    with pytest.raises(ValueError):
        gsis.reconstruct_krylov(shifts, [np.ones(4)], scheme, y)
    other = gsis.subset_sampler(4, [0, 1])
    with pytest.raises(ValueError):
        gsis.reconstruct_krylov(shifts, [x0], other, y)


def test_reconstruct_krylov_rejects_a_nan_delta_and_a_fractional_max_level(p3):
    # a NaN delta used to stop every fit at level 0, and max_level=2.5 ran to depth 2
    _, shifts, _ = p3
    scheme = gsis.subset_sampler(3, [0, 1, 2])
    x0, y = np.array([1.0, 0.0, 0.0]), np.array([1.0, -1.0, 0.5])
    with pytest.raises(ValueError, match="delta must be nonnegative, got nan"):
        gsis.reconstruct_krylov(shifts, [x0], scheme, y, delta=float("nan"))
    with pytest.raises(ValueError, match=r"max_level must be integers, got 2\.5"):
        gsis.reconstruct_krylov(shifts, [x0], scheme, y, max_level=2.5)
    assert gsis.reconstruct_krylov(shifts, [x0], scheme, y, max_level=1.0).depth == 1


def test_a_max_level_past_a_c_long_runs_the_whole_chain():
    # raised OverflowError when the cap was converted to a C long
    n, center = 20, 10
    _, shifts = gsis.build_circulant(n, (1, 3))
    scheme = gsis.subset_sampler(n, range(center - 5, center + 6))
    phi, y = np.eye(n)[center], np.random.default_rng(8).standard_normal(11)
    whole = gsis.reconstruct_krylov(shifts, [phi], scheme, y, require_injective=False)
    capped = gsis.reconstruct_krylov(shifts, [phi], scheme, y, max_level=2**63, require_injective=False)
    assert capped.dims_trace == whole.dims_trace
    assert capped.signal.tobytes() == whole.signal.tobytes()


def test_a_weight_on_another_vertex_count_raises_up_front():
    # a subset weight on 50 vertices would otherwise gather a 100-vertex chain
    # that stays on its vertices, and report dims [1, 3, 6, 9]
    _, shifts = gsis.build_circulant(100, (1, 3))
    phi = np.eye(100)[20]
    for weight, rows in ((gsis.subset_sampler(50, range(10, 31)), 21), (gsis.SamplingScheme(np.ones((3, 50))), 3)):
        with pytest.raises(ValueError, match=rf"weight of shape \({rows}, 50\), expected \(any, 100\)"):
            gsis.krylov_subspace(shifts, [phi], 3, weight=weight)


# ---------------------------------------------------------------------------
# single-shift dimension staircase


def test_degenerate_dimension_check_unweighted():
    rng = np.random.default_rng(51)
    for _ in range(10):
        graph = random_connected_graph(int(rng.integers(3, 10)), rng)
        shifts = laplacian_shift_set(graph)
        phi0 = rng.standard_normal(graph.n_vertices)
        assert gsis.degenerate_dimension_check(shifts, phi0)


def test_degenerate_dimension_check_with_commuting_scheme(p3):
    graph, shifts, decomp = p3
    scheme = gsis.subset_sampler(3, [0, 1, 2])
    assert gsis.degenerate_dimension_check(shifts, np.array([0.0, 1.0, 0.0]), scheme)


def test_degenerate_dimension_check_preconditions(p3):
    graph, shifts, decomp = p3
    rng = np.random.default_rng(52)
    pair = laplacian_shift_set(graph, rng=rng)
    with pytest.raises(ValueError, match="single shift"):
        gsis.degenerate_dimension_check(pair, np.ones(3))
    skew = gsis.subset_sampler(3, [1])
    with pytest.raises(ValueError, match="commute"):
        gsis.degenerate_dimension_check(shifts, np.ones(3), skew)


# ---------------------------------------------------------------------------
# index validation

INDEX_CALLS = {
    "reconstruct_direct omega": (
        "omega", lambda d, s, b: gsis.reconstruct_direct(d, [0, b], gsis.subset_sampler(3, [0, 1, 2]), np.ones(3))
    ),
    "check_bandlimited_injective omega": (
        "omega", lambda d, s, b: gsis.check_bandlimited_injective(d, [0, b], [0, 1])
    ),
    "check_bandlimited_injective vertices": (
        "sampling vertices", lambda d, s, b: gsis.check_bandlimited_injective(d, [0], [0, b])
    ),
    "check_dynamic_injective omega": (
        "omega", lambda d, s, b: gsis.check_dynamic_injective(d, [0, b], s, 0, 3)
    ),
    "check_dynamic_injective initial_vertex": (
        "initial_vertex", lambda d, s, b: gsis.check_dynamic_injective(d, [0], s, b, 3)
    ),
    "riesz_bounds omega": (
        "omega", lambda d, s, b: gsis.riesz_bounds(d, s, d.basis[:, 0], [0, b])
    ),
    "bandlimited_space omega": ("omega", lambda d, s, b: gsis.bandlimited_space(d, [0, b])),
    "canonical_generator omega": ("omega", lambda d, s, b: gsis.canonical_generator(d, [0, b])),
    "dynamic_sampler initial_vertex": ("initial_vertex", lambda d, s, b: gsis.dynamic_sampler(d, s, b, 3)),
    "subset_sampler vertices": ("sampling vertices", lambda d, s, b: gsis.subset_sampler(3, [0, b])),
}


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("call", sorted(INDEX_CALLS))
def test_indices_outside_the_vertex_range_raise(p3, call, bad):
    # -1 used to wrap around to the last index and 3 to escape as an IndexError
    _, shifts, decomp = p3
    name, run = INDEX_CALLS[call]
    with pytest.raises(ValueError, match=rf"{name}.* must lie in \[0, 3\)"):
        run(decomp, shifts[0].matrix, bad)


@pytest.mark.parametrize("call", sorted(INDEX_CALLS))
def test_fractional_indices_raise_and_integral_ones_pass(p3, call):
    # 1.7 used to be truncated to index 1 without a word
    _, shifts, decomp = p3
    name, run = INDEX_CALLS[call]
    with pytest.raises(ValueError, match=rf"{name}.* must be integers, got 1.7"):
        run(decomp, shifts[0].matrix, 1.7)
    expected = _value_error(run, decomp, shifts[0].matrix, 2)
    for integral in (2.0, np.int64(2), np.float64(2.0)):
        assert _value_error(run, decomp, shifts[0].matrix, integral) == expected


def _value_error(run, *args):
    """Message of the ValueError ``run(*args)`` raises, or None."""
    try:
        run(*args)
    except ValueError as exc:
        return str(exc)
    return None


COUNT_CALLS = {
    "check_dynamic_injective": (
        "n_snapshots",
        lambda s, d, k: gsis.check_dynamic_injective(d, [0, 1], s[0].matrix, 0, k),
    ),
    "dynamic_sampler": ("n_snapshots", lambda s, d, k: gsis.dynamic_sampler(d, s[0].matrix, 0, k)),
    "frame_bounds": ("level", lambda s, d, k: gsis.frame_bounds(d, np.ones(3), k)),
    "OrthogonalBasis": ("n", lambda s, d, k: gsis.OrthogonalBasis(k)),
    # 1.7 used to give a scheme of shape (2, 1.7), and 2.0 one whose matrix raised TypeError
    "subset_sampler": ("n_vertices", lambda s, d, k: gsis.subset_sampler(k, [0, 1]).matrix),
    "krylov_subspace": ("level", lambda s, d, k: gsis.krylov_subspace(s, [np.eye(3)[0]], k)),
    "run_model_comparison levels": (
        "levels",
        lambda s, d, k: gsis.run_model_comparison(s, d, [np.arange(3.0)], levels=[0, k]),
    ),
    "run_model_comparison n_generators": (
        "n_generators",
        lambda s, d, k: gsis.run_model_comparison(s, d, [np.arange(3.0)], n_generators=k),
    ),
}


@pytest.mark.parametrize("call", sorted(COUNT_CALLS))
def test_fractional_counts_raise_and_name_their_argument(p3, call):
    # these used to run on a truncated count (check_dynamic_injective said ok, and
    # run_model_comparison ran level 1), or to escape as a bare TypeError
    _, shifts, decomp = p3
    name, run = COUNT_CALLS[call]
    with pytest.raises(ValueError, match=rf"{name} must be integers, got 1\.7"):
        run(shifts, decomp, 1.7)
    run(shifts, decomp, 2.0)  # an integral float is a count


# ---------------------------------------------------------------------------
# array gates

# each entry point passes its matrix argument through graphs._matrix: (name in
# the errors, an input of the wrong shape, the call on p3 with matrix m)
MATRIX_CALLS = {
    "ShiftMatrix": ("shift", np.eye(4, 3), lambda s, d, m: gsis.ShiftMatrix(m, s.graph)),
    "SamplingScheme": ("sampling matrix", np.ones(3), lambda s, d, m: gsis.SamplingScheme(m)),
    "dynamic_sampler": ("state matrix", np.eye(4, 3), lambda s, d, m: gsis.dynamic_sampler(d, m, 0, 3)),
    # the eigenvalue check's > test let a NaN state through, and the answer was "injective"
    "check_dynamic_injective": (
        "state matrix", np.eye(4, 3), lambda s, d, m: gsis.check_dynamic_injective(d, [0, 1], m, 0, 3)
    ),
    # an empty omega used to answer "injective" before the state was read
    "check_dynamic_injective empty omega": (
        "state matrix", np.eye(4, 3), lambda s, d, m: gsis.check_dynamic_injective(d, [], m, 0, 3)
    ),
    "check_injective": (
        "space matrix", np.eye(4, 3), lambda s, d, m: gsis.check_injective(gsis.subset_sampler(3, [0, 1]), m)
    ),
    "eigenvalues_of": ("base shift", np.eye(4, 3), lambda s, d, m: d.eigenvalues_of(m, "base shift")),
    "is_polynomial_filter": ("filter", np.eye(4, 3), lambda s, d, m: gsis.is_polynomial_filter(m, s)),
    "is_shift_invariant_kernel": ("kernel", np.eye(4, 3), lambda s, d, m: gsis.is_shift_invariant_kernel(m, s)),
    "uniform_norm_star": ("basis", np.eye(4, 3), lambda s, d, m: gsis.uniform_norm_star(m)),
    # a NaN weight used to grow a chain of dimension 1, 2, 3, 4 without a word
    "OrthogonalBasis": ("weight", np.ones((3, 4)), lambda s, d, m: gsis.OrthogonalBasis(3, m)),
}


@pytest.mark.parametrize("call", sorted(MATRIX_CALLS))
def test_matrix_arguments_must_be_finite_and_of_their_shape(p3, call):
    # NaN used to come back as NaN eigenvalues, a LinAlgError or a TypeError
    _, shifts, decomp = p3
    name, wrong, run = MATRIX_CALLS[call]
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        run(shifts[0], decomp, np.full((3, 3), np.nan))
    with pytest.raises(ValueError, match=rf"{name} of shape {re.escape(str(wrong.shape))}, expected"):
        run(shifts[0], decomp, wrong)


SIGNAL_CALLS = {
    "SignalSpace.project": ("x", lambda d, x: gsis.bandlimited_space(d, [0, 1]).project(x)),
    "SignalSpace.contains": ("x", lambda d, x: gsis.bandlimited_space(d, [0, 1]).contains(x)),
    "rkhs_inner_product x": ("x", lambda d, x: gsis.rkhs_inner_product(gsis.RkhsMetric(np.ones(3), d), x, np.ones(3))),
    "rkhs_inner_product y": ("y", lambda d, x: gsis.rkhs_inner_product(gsis.RkhsMetric(np.ones(3), d), np.ones(3), x)),
    "approximation_error": ("x0", lambda d, x: gsis.approximation_error([d.basis[:, :1]], x)),
}


@pytest.mark.parametrize("call", sorted(SIGNAL_CALLS))
def test_signal_arguments_must_be_finite_and_of_length_n(p3, call):
    # NaN used to come back as NaN, False or [nan], and a wrong length as numpy's gufunc error
    _, _, decomp = p3
    name, run = SIGNAL_CALLS[call]
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        run(decomp, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError, match=f"{name} of length 2, expected 3"):
        run(decomp, np.ones(2))
