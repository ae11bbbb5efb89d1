"""Tests for sampling schemes, injectivity checks, and reconstruction."""

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
    assert np.array_equal(scheme.apply(np.arange(5.0)), [0.0, 3.0])


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
    assert np.array_equal(scheme.apply(x), scheme.matrix @ x)
    assert np.array_equal(scheme.apply(x), gsis.SamplingScheme(scheme.matrix).apply(x))
    with pytest.raises(ValueError, match="length 8"):
        scheme.apply(x[:8])


@pytest.mark.parametrize("vertices", [None, (0, 1), (2,), (5,)])
def test_subset_scheme_rows_must_match_its_vertices(vertices):
    # rows are the indicators of vertices 0 and 2 of a 5-vertex graph
    matrix = gsis.subset_sampler(5, [0, 2]).matrix
    with pytest.raises(ValueError, match="indicators"):
        gsis.SamplingScheme(matrix, "subset", vertices=vertices)
    with pytest.raises(ValueError, match="indicators"):
        gsis.SamplingScheme(2.0 * matrix, "subset", vertices=(0, 2))
    assert gsis.SamplingScheme(matrix, "subset", vertices=(0, 2)).vertices == (0, 2)


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
        out = gsis.reconstruct_direct(decomp, omega, scheme, scheme.apply(x))
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
    obs = gsis.Observation(scheme.apply(x), scheme)
    out = gsis.reconstruct_direct(decomp, [0, 2], scheme, obs)
    assert np.allclose(out, x, atol=1e-12)


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
        out = gsis.reconstruct_direct(decomp, omega, scheme, scheme.apply(x))
        assert np.allclose(out, x, atol=1e-10)
    else:
        with pytest.raises(gsis.NonInjectiveSamplingError, match="condition 1.210e\\+12"):
            gsis.reconstruct_direct(decomp, omega, scheme, scheme.apply(x))


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
        res = gsis.reconstruct_krylov(shifts, [phi0], scheme, scheme.apply(x))
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


def test_reconstruct_krylov_generator_span_depth_zero(p3):
    graph, shifts, decomp = p3
    x0 = np.array([1.0, 2.0, 3.0])
    scheme = gsis.subset_sampler(3, [0, 1, 2])
    res = gsis.reconstruct_krylov(shifts, [x0], scheme, scheme.apply(x0), delta=1e-12)
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
    with pytest.warns(UserWarning, match="dependent generator"):
        res = gsis.reconstruct_krylov(
            shifts, [x0, 2.0 * x0], scheme, scheme.apply(x0)
        )
    assert np.allclose(res.signal, x0, atol=1e-10)


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
    "lagrange_projector index": ("eigenvector index", lambda d, s, b: gsis.lagrange_projector(d, b)),
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
