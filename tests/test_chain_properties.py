"""Property tests of the chain engine on random commuting families and sampling sets."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import gsis
from conftest import INJECTIVE_SMIN, random_connected_graph
from gsis.orthogonalize import ADDED, DEPENDENT, DROP_REL, INVISIBLE, INVISIBLE_REL, OrthogonalBasis
from gsis.spaces import ORTHOGONALITY_REL, KrylovChain

CLEAR = 1e3  # a rank or drop decision is unambiguous this factor away from its threshold
MONOMIAL_SPAN_TOL = 1e-7  # chain versus SVD span: about eps / (DROP_REL * CLEAR), with room
ROUNDOFF = 100.0  # pruned versus unpruned spans: within ROUNDOFF * eps * cond(words)


@st.composite
def circulant_windows(draw):
    """A small circulant, a generator, and a contiguous sampling window."""
    n = draw(st.integers(5, 24))
    # offset 1 keeps the cycle connected
    offsets = {1} | draw(st.sets(st.integers(2, (n - 1) // 2), max_size=1))
    _, shifts = gsis.build_circulant(n, sorted(offsets))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    scheme = gsis.subset_sampler(n, range(lo, hi + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        phi = np.zeros(n)
        phi[draw(st.integers(lo, hi))] = 1.0
    else:
        phi = rng.standard_normal(n)
    return shifts, scheme, phi, rng


def _chain(shifts, scheme, phi, weighted):
    weight = scheme.matrix if weighted else None
    return KrylovChain([s.matrix for s in shifts], [phi], weight)


@settings(max_examples=60, deadline=None)
@given(
    case=circulant_windows(),
    weighted=st.booleans(),
    k=st.integers(1, 6),
    delta_frac=st.sampled_from([0.0, 0.05, 0.3]),
    data=st.data(),
)
def test_column_fit_does_not_depend_on_its_block(case, weighted, k, delta_frac, data):
    shifts, scheme, phi, rng = case
    n = shifts.n_vertices
    m = scheme.n_samples if weighted else n
    y = rng.standard_normal((m, k))
    caps = rng.integers(0, n, size=k)
    delta = delta_frac * float(np.linalg.norm(y, axis=0).min())
    chain = _chain(shifts, scheme, phi, weighted)
    block = chain.fit(y, caps, delta)
    block_signals = chain.evaluate(block.coefficients)
    cols = sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=1)))
    weight = scheme.matrix if weighted else np.eye(n)
    # a fresh chain grows only as far as these columns need; the grown one is reused
    for other in (_chain(shifts, scheme, phi, weighted), chain):
        part = other.fit(y[:, cols], caps[cols], delta)
        part_signals = other.evaluate(part.coefficients)
        assert np.array_equal(part.depths, block.depths[cols])
        scale = 1e-12 * max(1.0, float(np.abs(y).max()))
        for i, j in enumerate(cols):
            depth = block.depths[j]
            d = chain.dims[depth]
            assert np.allclose(part.coefficients[:d, i], block.coefficients[:d, j], rtol=0, atol=scale)
            assert not np.any(part.coefficients[d:, i]) and not np.any(block.coefficients[d:, j])
            assert np.allclose(part.residuals[:, i], block.residuals[:, j], rtol=0, atol=scale)
            assert np.allclose(
                part.residual_norms[: depth + 1, i], block.residual_norms[: depth + 1, j], rtol=0, atol=scale
            )
            # signals are the fit coordinates mapped back through R^{-1}, whose
            # norm is 1 / smin of the weight restricted to the level's span
            sv = np.linalg.svd(weight @ chain.basis[:, :d], compute_uv=False) if d else [1.0]
            tol = scale * np.sqrt(m) / sv[-1]
            assert np.allclose(part_signals[:, i], block_signals[:, j], rtol=0, atol=tol)


@settings(max_examples=60, deadline=None)
@given(case=circulant_windows(), weighted=st.booleans())
def test_chain_dims_are_monotone_and_stall_once(case, weighted):
    shifts, scheme, phi, _ = case
    n = shifts.n_vertices
    weight = scheme.matrix if weighted else None
    _, dims = gsis.krylov_subspace(shifts, [phi], n, weight=weight)
    steps = np.diff(dims)
    assert len(dims) == n + 1 and np.all(steps >= 0)
    stalls = np.flatnonzero(steps == 0)
    # each level adds at least one direction until the span stops growing,
    # so within n levels the chain must stall, and it never grows again
    assert stalls.size > 0 and np.all(steps[stalls[0] :] == 0)
    chain = _chain(shifts, scheme, phi, weighted)
    assert not chain.grow_to(n)
    assert chain.stalled and chain.depth == stalls[0] and chain.dims == dims[: chain.depth + 1]
    assert not chain.grow_to(chain.depth + 1) and chain.dims == dims[: chain.depth + 1]


# about one window in four is injective for its generator's space, which
# hypothesis would otherwise report as too much filtering
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(case=circulant_windows())
def test_the_rkhs_representer_solution_is_the_chains_reconstruction(case):
    # with K = U U^T the kernel of the generated space, K[:, S] K[S, S]^+ y
    # is U U_S^+ y: the least-squares fit in the space, which the finite-step
    # chain reaches by shift applications alone whenever sampling is injective
    shifts, scheme, phi, rng = case
    space = gsis.gsis_from_generators(gsis.diagonalize_simultaneously(shifts), [phi])
    assume(gsis.check_injective(scheme, space.basis))
    s = list(scheme.vertices)
    k = gsis.gsis_to_rkhs_kernel(space).matrix
    y = rng.standard_normal(len(s))
    representer = k[:, s] @ np.linalg.pinv(k[np.ix_(s, s)]) @ y
    chain = gsis.reconstruct_krylov(shifts, [phi], scheme, y).signal
    # K[S, S] = U_S U_S^T has condition 1 / smin(U_S)^2, which sets the
    # representer side's error; the chain's is smaller
    smin = np.linalg.svd(space.basis[s], compute_uv=False)[-1]
    tol = ROUNDOFF * len(y) * np.finfo(float).eps * max(1.0, float(np.abs(y).max())) / smin**2
    assert np.allclose(representer, chain, rtol=0, atol=tol)


# ---------------------------------------------------------------------------
# the staircase rule on random commuting families


def _cycle_laplacian(n):
    eye = np.eye(n)
    return 2.0 * eye - np.roll(eye, 1, axis=1) - np.roll(eye, -1, axis=1)


@st.composite
def commuting_families(draw):
    """Commuting shifts (each applied as ``S @ v``), 1-3 generators and a subset or no weight.

    The families are polynomials of a random weighted Laplacian, 3-offset
    circulants, and the Kronecker-sum shifts of a cycle times a path in
    either order.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["laplacian polynomials", "circulant", "cycle x path"]))
    if kind == "laplacian polynomials":
        n = draw(st.integers(6, 14))
        lap = gsis.build_standard_shifts(random_connected_graph(n, rng), "laplacian").matrix
        lap = lap / np.linalg.norm(lap, 2)
        mats = [c0 * np.eye(n) + c1 * lap + c2 * lap @ lap for c0, c1, c2 in rng.uniform(-1, 1, (2, 3))]
    elif kind == "circulant":
        n = draw(st.integers(7, 16))
        # offset 1 keeps the cycle connected
        offsets = [1] + draw(st.lists(st.integers(2, (n - 1) // 2), min_size=2, max_size=2, unique=True))
        mats = list(gsis.build_circulant(n, offsets)[1])
    else:
        a, b = draw(st.integers(3, 6)), draw(st.integers(2, 4))
        n = a * b
        path = gsis.build_standard_shifts(gsis.path_graph(b), "laplacian").matrix
        mats = [np.kron(_cycle_laplacian(a), np.eye(b)), np.kron(np.eye(a), path)]
        if draw(st.booleans()):
            mats.reverse()
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            gens.append(np.eye(n)[draw(st.integers(0, n - 1))])
        else:
            gens.append(rng.standard_normal(n))
    scheme = None
    if draw(st.booleans()):
        scheme = gsis.subset_sampler(n, draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return mats, gens, scheme


def _unpruned_chain(mats, gens, scheme, top):
    """Reference chain: every matrix applied to every column a level added.

    Besides the basis, its dims and each candidate's status, returns each
    decision's distance from its threshold as a factor: the candidate's
    orthogonalized weighted norm over the largest weighted norm offered so
    far, against ``DROP_REL``, and for a dropped candidate its euclidean
    remainder over the largest euclidean norm, against ``INVISIBLE_REL``.
    """
    basis = OrthogonalBasis(gens[0].shape[0], scheme)
    statuses, margins, largest = [], [], np.zeros(2)

    def offer(v):
        parts = [v.copy(), v.copy() if scheme is None else scheme @ v]
        largest[:] = np.maximum(largest, [np.linalg.norm(x) for x in parts])
        for x, q in zip(parts, (basis.basis, basis.images)):
            for _ in range(2):
                x -= q @ (q.T @ x)
        ratios = np.array([np.linalg.norm(x) for x in parts]) / np.maximum(largest, 1e-300)
        euclid, weighted = np.maximum(ratios, 1e-300)
        margins.append(abs(np.log10(weighted / DROP_REL)))
        if weighted <= DROP_REL:
            margins.append(abs(np.log10(euclid / INVISIBLE_REL)))
        statuses.append(basis.try_add(v))

    for g in gens:
        offer(g)
    dims = [basis.dim]
    while len(dims) <= top:
        lo, hi = (dims[-2] if len(dims) > 1 else 0), dims[-1]
        for s in mats:
            for j in range(lo, hi):
                offer(s @ basis.basis[:, j])
        if basis.dim == hi:
            break
        dims.append(basis.dim)
    return basis, dims, statuses, 10.0 ** min(margins)


def _orthogonality_loss(u):
    """``||U^T U - I||_2`` of a column set that should be orthonormal."""
    return float(np.linalg.norm(u.T @ u - np.eye(u.shape[1]), 2)) if u.shape[1] else 0.0


def _span_distance(a, b):
    """Spectral-norm distance of the orthogonal projectors onto two orthonormal column sets."""
    if a.shape[1] + b.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(a @ a.T - b @ b.T, 2))


def _monomial_spans(mats, gens, top):
    """Span of all words of length <= n in the matrices, for n = 0 .. top.

    Each word is applied in its own order, so the reference does not rely
    on the matrices commuting. Columns are normalized before the SVD and
    its rank is taken at ``DROP_REL``, which must be unambiguous. Returns
    per level an orthonormal basis and the condition number of the words.
    """
    words, cols, spans = list(gens), [], []
    for _ in range(top + 1):
        cols += [w / np.linalg.norm(w) for w in words if np.linalg.norm(w) > 0]
        u, sv, _ = np.linalg.svd(np.column_stack(cols), full_matrices=False)
        rel = sv / sv[0]
        assume(not np.any((rel > DROP_REL / CLEAR) & (rel < DROP_REL * CLEAR)))
        rank = int(np.sum(rel > DROP_REL))
        spans.append((u[:, :rank], 1.0 / rel[rank - 1]))
        words = [s @ w for w in words for s in mats]
    return spans


@settings(max_examples=80, deadline=None)
@given(family=commuting_families(), top=st.integers(1, 2))
def test_pruned_chain_spans_all_monomials(family, top):
    mats, gens, scheme = family
    spans = [q for q, _ in _monomial_spans(mats, gens, top)]
    if scheme is not None:
        sv = np.linalg.svd(scheme.matrix @ spans[-1], compute_uv=False)
        assume(sv.size == spans[-1].shape[1] and sv[-1] >= INJECTIVE_SMIN)
    chain = KrylovChain(mats, gens, scheme)
    chain.grow_to(top)
    dims = chain.dims + chain.dims[-1:] * (top - chain.depth)
    assert dims == [q.shape[1] for q in spans]
    for d, q in zip(dims, spans):
        assert _span_distance(chain.basis[:, :d], q) <= MONOMIAL_SPAN_TOL


@settings(max_examples=120, deadline=None)
@given(family=commuting_families(), top=st.integers(1, 4))
def test_pruned_chain_matches_unpruned_chain(family, top):
    mats, gens, scheme = family
    _, kappa = _monomial_spans(mats, gens, top)[-1]
    ref, dims, statuses, margin = _unpruned_chain(mats, gens, scheme, top)
    # skipping candidates lowers the largest offered norm, which could flip
    # a decision that sits within a factor CLEAR of its threshold
    assume(margin >= CLEAR)
    reported = []
    chain = KrylovChain(mats, gens, scheme, on_drop=lambda status, what: reported.append(status))
    chain.grow_to(top)
    assert chain.dims == dims
    # the local passes, audited level by level, keep U as orthonormal as the full passes do
    assert _orthogonality_loss(chain.basis) <= 4 * max(_orthogonality_loss(ref.basis), np.finfo(float).eps)
    # the pruned pass reports no invisible drop of its own: the level it
    # met one in is regrown in full, which meets and reports the same ones
    assert reported.count(INVISIBLE) == statuses.count(INVISIBLE)
    # both chains orthogonalize different but equivalent candidates, so their
    # spans agree to roundoff amplified by the conditioning of the words
    tol = ROUNDOFF * np.finfo(float).eps * kappa
    assert _span_distance(chain.images, ref.images) <= tol
    if INVISIBLE not in statuses:
        # the basis maps back from the images through the weight restricted to the span
        smin = 1.0
        if scheme is not None and ref.dim:
            sv = np.linalg.svd(scheme.matrix @ ref.basis, compute_uv=False)
            smin = sv[-1] if sv.size == ref.dim else 0.0
        assert smin == 0.0 or _span_distance(chain.basis, ref.basis) <= tol / smin


@settings(max_examples=40, deadline=None)
@given(family=commuting_families())
def test_subset_gather_is_bit_identical_to_the_product(family):
    mats, gens, scheme = family
    assume(scheme is not None)
    custom = gsis.SamplingScheme(scheme.matrix)
    y = np.random.default_rng(0).standard_normal((scheme.n_samples, 3))
    chains = [KrylovChain(mats, gens, s) for s in (scheme, custom)]
    fits = [chain.fit(y, [0, 2, 4]) for chain in chains]
    assert chains[0].dims == chains[1].dims
    assert np.array_equal(chains[0].basis, chains[1].basis)
    # while the subset chain runs one stream, its images are the basis' sampled rows, and
    # the product's weighted passes, which read every column, agree with them to roundoff
    assert np.allclose(chains[0].images, chains[1].images, rtol=0, atol=RANGE_TOL)
    assert np.array_equal(fits[0].depths, fits[1].depths)
    for a, b in zip(*fits):
        assert np.allclose(a, b, rtol=0, atol=RANGE_TOL * max(1.0, float(np.abs(y).max())), equal_nan=True)


class _TaggedChain(KrylovChain):
    """The staircase kept as per-column tags, the rule the chain's block ends replaced.

    Column j carries the 1-based index of the matrix that made it (0 for a
    generator), and matrix t is applied to the previous level's columns
    tagged <= t; an undone level drops its tags.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tags = [0] * self.dim

    def _offer_level(self, lo, hi, start):
        del self._tags[self.dim :]  # the tags of an undone level
        rows = self._lo, self._hi
        if rows != self._window_rows:
            self._window_rows = rows
            self._windows = [s._window(*rows) if isinstance(s, gsis.ShiftMatrix) else (0, None) for s in self._matrices]
        drops = []
        for t, (s, (first, entries)) in enumerate(zip(self._matrices, self._windows), start=1):
            for j in range(lo, hi):
                if self._prune and self._tags[j] > t:
                    continue
                if entries is None:
                    status = self._offer(s @ self._u[:, j], 0, start)
                else:
                    status = self._offer(s._apply(self._u[:, j], *entries), first, start)
                if status == INVISIBLE and self._prune:
                    return None
                if status == ADDED:
                    self._tags.append(t)
                else:
                    drops.append(status)
        return drops


class _RecordedMatrix:
    """A dense matrix that reports each ``S @ column`` to ``record``."""

    def __init__(self, matrix, record):
        self.shape, self._matrix, self._record = matrix.shape, matrix, record

    def __matmul__(self, x):
        self._record(self, x)
        return self._matrix @ x


def _staircase_run(chain_type, mats, gens, scheme, top):
    """Grow a chain to ``top``; return it, its reported drops and its offers as (matrix, column) pairs."""
    pairs, reported, chain = [], [], None

    def record(s, x):
        u = chain._u  # column-major, so column j starts j strides past column 0
        offset = x.__array_interface__["data"][0] - u.__array_interface__["data"][0]
        pairs.append((index[id(s)], offset // u.strides[1]))

    mats = [m if isinstance(m, gsis.ShiftMatrix) else _RecordedMatrix(m, record) for m in mats]
    index = {id(m): t for t, m in enumerate(mats)}
    apply = gsis.ShiftMatrix._apply

    def recorded_apply(s, x, *entries):
        record(s, x)
        return apply(s, x, *entries)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gsis.ShiftMatrix, "_apply", recorded_apply)
        chain = chain_type(mats, gens, scheme, on_drop=lambda status, what: reported.append((status, what)))
        chain.grow_to(top)
    return chain, reported, pairs


def _assert_same_staircase(chain, ref):
    (a, reported, pairs), (b, reported_ref, pairs_ref) = chain, ref
    assert pairs == pairs_ref and reported == reported_ref
    assert a.dims == b.dims and a._prune == b._prune
    assert a.basis.tobytes() == b.basis.tobytes() and a.images.tobytes() == b.images.tobytes()


@settings(max_examples=80, deadline=None)
@given(family=commuting_families(), top=st.integers(1, 4))
def test_block_ends_offer_what_per_column_tags_offered(family, top):
    mats, gens, scheme = family
    _assert_same_staircase(*(_staircase_run(c, mats, gens, scheme, top) for c in (KrylovChain, _TaggedChain)))


@pytest.mark.parametrize("dense", [False, True], ids=["edge list", "dense"])
def test_block_ends_offer_what_per_column_tags_offered_through_a_regrown_level(dense):
    # the regrown radius-8 window of test_a_regrown_level_leaves_the_rows_outside_the_range_zero
    n, center, radius, level = 200, 100, 8, 4
    _, shifts = gsis.build_circulant(n, (1, 3))
    mats = [s.matrix for s in shifts] if dense else list(shifts)
    scheme = gsis.subset_sampler(n, range(center - radius, center + radius + 1))
    runs = [_staircase_run(c, mats, [np.eye(n)[center]], scheme, level) for c in (KrylovChain, _TaggedChain)]
    _assert_same_staircase(*runs)
    chain, reported, pairs = runs[0]
    assert not chain._prune and (INVISIBLE, "shifted candidate") in reported  # a pruned level was undone and regrown
    assert {t for t, _ in pairs} == {0, 1} and len(pairs) > chain.dim


@pytest.mark.parametrize("weighted", [False, True])
def test_chain_bases_stay_column_major_through_every_growth(weighted):
    # 66 columns outgrow the initial capacity of 8 four times
    _, shifts = gsis.build_circulant(200, [1, 3])
    phi = np.zeros(200)
    phi[100] = 1.0
    scheme = gsis.subset_sampler(200, range(20, 181)) if weighted else None
    chain = KrylovChain(shifts, [phi], scheme)
    chain.grow_to(2)
    early_u, early_p = chain.basis[:, 5].copy(), chain.images[:, 5].copy()
    chain.grow_to(22)
    assert chain.dim == 66
    assert chain.basis.flags.f_contiguous and chain.images.flags.f_contiguous
    assert chain.basis[:, 5].tobytes() == early_u.tobytes()
    assert chain.images[:, 5].tobytes() == early_p.tobytes()


@pytest.mark.parametrize("radius, invisible", [(8, True), (9, False)])
def test_require_injective_raises_exactly_when_the_unpruned_chain_meets_an_invisible(radius, invisible):
    n, center, level = 24, 12, 3
    _, shifts = gsis.build_circulant(n, (1, 3))
    scheme = gsis.subset_sampler(n, range(center - radius, center + radius + 1))
    phi = np.eye(n)[center]
    _, dims, statuses, _ = _unpruned_chain(list(shifts), [phi], scheme, level)
    assert (INVISIBLE in statuses) is invisible
    y = scheme @ np.random.default_rng(0).standard_normal(n)
    if invisible:
        with pytest.raises(gsis.DegenerateInnerProductError):
            gsis.reconstruct_krylov(shifts, [phi], scheme, y, max_level=level)
    else:
        result = gsis.reconstruct_krylov(shifts, [phi], scheme, y, max_level=level)
        assert list(result.dims_trace) == dims
    dropped = gsis.reconstruct_krylov(shifts, [phi], scheme, y, max_level=level, require_injective=False)
    assert list(dropped.dims_trace) == dims


# ---------------------------------------------------------------------------
# local passes: a level's euclidean passes skip the columns before dims[n - 3]


@pytest.mark.parametrize("n", [50, 120])
def test_local_passes_fall_back_to_full_passes_on_an_irregular_graph(n):
    # on a random weighted Laplacian the loss of orthogonality the local passes leave
    # grows level by level until the audit trips; alone they overshoot the dimension n
    shift = gsis.build_standard_shifts(random_connected_graph(n, np.random.default_rng(0)), "laplacian")
    phi = np.eye(n)[n // 2]
    chain = KrylovChain([shift], [phi])
    chain.grow_to(n)
    ref, _, _, _ = _unpruned_chain([shift.matrix], [phi], None, n)  # full passes throughout
    assert chain.stalled and chain.dim == ref.dim == n
    assert _orthogonality_loss(chain.basis) <= 4 * _orthogonality_loss(ref.basis)
    # the chain records where it left the local passes: every audit before that passed,
    # the audit of that level tripped, and the full passes after it skip nothing to audit
    level, audits = chain.fallback_level, chain.audits
    assert 3 <= level <= chain.depth and len(audits) == len(chain.dims)
    assert max(audits[:level]) <= ORTHOGONALITY_REL < audits[level] and not any(audits[level + 1 :])


class _FailingChain(KrylovChain):
    """A chain whose offers fail on the first level with local passes."""

    def _offer_level(self, lo, hi, start):
        if start:
            raise ValueError("the level's offers failed")
        return super()._offer_level(lo, hi, start)


def test_a_level_that_raises_leaves_try_add_on_full_passes():
    chain = _FailingChain([_cycle_laplacian(12)], [np.eye(12)[0]])
    with pytest.raises(ValueError, match="offers failed"):
        chain.grow_to(3)
    # column 0 is one the failed level skipped: a later try_add must still project it out
    assert chain.try_add(chain.basis[:, 0].copy()) == DEPENDENT


def test_a_candidate_that_looks_invisible_is_judged_on_every_column():
    # once an invisible drop leaves a direction out of the span, a later candidate
    # can keep more than roundoff on the columns the local passes skip: judged on
    # the local remainder alone, a dependent one here was reported invisible
    path = gsis.build_standard_shifts(gsis.path_graph(4), "laplacian").matrix
    mats = [np.kron(_cycle_laplacian(6), np.eye(4)), np.kron(np.eye(6), path)]
    gens = [np.eye(24)[23], np.eye(24)[0]]
    scheme = gsis.subset_sampler(24, [0, 2, 3, 5, 6, 7, 17, 23])
    _, dims, statuses, margin = _unpruned_chain(mats, gens, scheme, 4)
    reported = []
    chain = KrylovChain(mats, gens, scheme, on_drop=lambda status, what: reported.append(status))
    chain.grow_to(4)
    assert margin >= CLEAR and chain.dims == dims
    assert reported.count(INVISIBLE) == statuses.count(INVISIBLE) == 7


@pytest.mark.parametrize("weighted", [False, True])
def test_the_deep_chain_keeps_its_local_passes(weighted):
    # the benchmark's deep chain: on a circulant each audit reads roundoff of roundoff
    n, center, radius, cap = 2000, 1000, 300, 100
    _, shifts = gsis.build_circulant(n, (1, 3))
    scheme = gsis.subset_sampler(n, range(center - radius, center + radius + 1)) if weighted else None
    chain = KrylovChain(shifts, [np.eye(n)[center]], scheme)
    chain.grow_to(cap)
    assert chain.depth == cap and chain.fallback_level is None
    assert len(chain.audits) == cap + 1 and chain.audits[:3] == [0.0] * 3
    assert max(chain.audits) <= 1e-30


# ---------------------------------------------------------------------------
# row ranges: Gram-Schmidt reads only the rows a span can be nonzero on


def _full_row_try_add(self, v, start=0):
    """Reference ``OrthogonalBasis.try_add`` that projects, measures and stores on every row.

    As in the basis, the euclidean passes read the columns from ``start`` on,
    a dropped candidate is judged on all of them, and while every column
    vanishes off a subset scheme's vertices, a candidate that does too takes
    one stream: its image is the new column's sampled rows, R's column I's.
    """
    v = np.array(v, dtype=float)
    self._lo, self._hi = 0, self.n  # every row: _grow copies these
    raw = float(np.linalg.norm(v))
    self._max_euclid = max(self._max_euclid, raw)
    k = self.dim
    u = self._u[:, start:k]
    one = self._take is not None and not v[self._unsampled].any()
    if self.weight is None or one:
        self._max_weighted = self._max_euclid if self.weight is None else max(self._max_weighted, raw)
        if k:
            for _ in range(2):
                v -= u @ (u.T @ v)
        norm_v = float(np.linalg.norm(v))
        if norm_v <= DROP_REL * self._max_weighted:
            return DEPENDENT
        self._grow()
        self._u[:, k] = v / norm_v
        if one:
            self._p[:, k] = self._u[self._take, k]
            self._r[:k, k] = 0.0
            self._r[k, k] = 1.0
        self.dim += 1
        return ADDED
    w = self.weight @ v
    self._max_weighted = max(self._max_weighted, float(np.linalg.norm(w)))
    gamma, alpha = np.zeros(k), np.zeros(k - start)
    if k:
        p = self.images
        for _ in range(2):
            c = p.T @ w
            w -= p @ c
            gamma += c
            c = u.T @ v
            v -= u @ c
            alpha += c
    norm_w = float(np.linalg.norm(w))
    if norm_w <= DROP_REL * self._max_weighted:
        skipped = self._u[:, :start]  # a dropped candidate is judged on every column
        for _ in range(2):
            v -= skipped @ (skipped.T @ v)
        if float(np.linalg.norm(v)) > INVISIBLE_REL * max(self._max_euclid, 1e-300):
            return INVISIBLE
        return DEPENDENT
    norm_v = float(np.linalg.norm(v))
    self._grow()
    self._u[:, k] = v / norm_v
    self._p[:, k] = w / norm_w
    self._r[:k, k] = (gamma - self._r[:k, start:k] @ alpha) / norm_v
    self._r[k, k] = norm_w / norm_v
    self._take = None
    self.dim += 1
    return ADDED


def _full_row_evaluate(self, coefficients):
    c = np.asarray(coefficients, dtype=float)
    k = c.shape[0]
    if self.weight is None:
        return self._u[:, :k] @ c
    return self._u[:, :k] @ np.linalg.solve(self._r[:k, :k], c)


class _RecordedChain(KrylovChain):
    """KrylovChain that records the status of every candidate it offers."""

    _orthogonalize = OrthogonalBasis._offer

    def __init__(self, *args, **kwargs):
        self.statuses = []
        super().__init__(*args, **kwargs)

    def _offer(self, values, first, start=0):
        status = self._orthogonalize(values, first, start)
        self.statuses.append(status)
        return status


class _FullApply:
    """A matrix seen only through ``shape`` and ``@``, so a chain applies it to whole columns."""

    def __init__(self, matrix):
        self.shape, self._matrix = matrix.shape, matrix

    def __matmul__(self, x):
        return self._matrix @ x


class _FullRowChain(_RecordedChain):
    """The reference chain: full-length shift applies, and Gram-Schmidt on every row."""

    evaluate = _full_row_evaluate

    def _orthogonalize(self, values, first, start=0):
        v = np.zeros(self.n)
        v[first : first + len(values)] = values
        return _full_row_try_add(self, v, start)

    def __init__(self, matrices, *args, **kwargs):
        super().__init__([_FullApply(m) for m in matrices], *args, **kwargs)


RANGE_TOL = 1e-13  # range versus full rows: only exact-zero terms differ, so roundoff at most


def _assert_rows_outside_the_range_are_zero(chain):
    assert not chain._u[: chain._lo].any() and not chain._u[chain._hi :].any()
    if chain._take is not None:  # one stream: the images are the basis' sampled rows
        assert chain.images.tobytes() == chain.basis[chain._take].tobytes()


def _assert_matches_full_rows(chain, ref, y, caps):
    assert chain.dims == ref.dims and chain.statuses == ref.statuses
    for a, b in ((chain.basis, ref.basis), (chain.images, ref.images)):
        assert a.shape == b.shape and np.allclose(a, b, rtol=0, atol=RANGE_TOL)
    if chain.weight is not None:
        r, r_ref = chain._r[: chain.dim, : chain.dim], ref._r[: ref.dim, : ref.dim]
        assert np.allclose(r, r_ref, rtol=0, atol=RANGE_TOL * max(1.0, np.abs(r_ref).max(initial=0.0)))
    fit, fit_ref = chain.fit(y, caps), ref.fit(y, caps)
    assert np.array_equal(fit.depths, fit_ref.depths)
    scale = RANGE_TOL * max(1.0, float(np.abs(y).max()))
    for a, b in zip(fit, fit_ref):
        assert np.allclose(a, b, rtol=0, atol=scale, equal_nan=True)
    # the signals map the fit coordinates back through R^{-1}
    cond = np.linalg.cond(chain._r[: chain.dim, : chain.dim]) if chain.weight is not None and chain.dim else 1.0
    signals, signals_ref = chain.evaluate(fit.coefficients), ref.evaluate(fit.coefficients)
    assert np.allclose(signals, signals_ref, rtol=0, atol=scale * cond * np.sqrt(chain.dim + 1))
    assert not signals[: chain._lo].any() and not signals[chain._hi :].any()
    _assert_rows_outside_the_range_are_zero(chain)


def _weights(scheme):
    """No weight, the subset scheme (a gather) and its matrix as a custom scheme (a dense product)."""
    if scheme is None:
        return [None]
    return [None, scheme, gsis.SamplingScheme(scheme.matrix)]


@settings(max_examples=60, deadline=None)
@given(family=commuting_families(), top=st.integers(1, 4), data=st.data())
def test_row_ranges_match_full_rows_on_commuting_families(family, top, data):
    mats, gens, scheme = family
    weight = data.draw(st.sampled_from(_weights(scheme)))
    chain, ref = _RecordedChain(mats, gens, weight), _FullRowChain(mats, gens, weight)
    chain.grow_to(top)
    ref.grow_to(top)
    m = mats[0].shape[0] if weight is None else weight.n_samples
    y = np.random.default_rng(top).standard_normal((m, 3))
    _assert_matches_full_rows(chain, ref, y, [0, top, top + 1])


@settings(max_examples=60, deadline=None)
@given(case=circulant_windows(), data=st.data())
def test_row_ranges_match_full_rows_on_circulant_windows(case, data):
    shifts, scheme, phi, rng = case
    weight = data.draw(st.sampled_from(_weights(scheme)))
    n = shifts.n_vertices
    chain, ref = _RecordedChain(shifts, [phi], weight), _FullRowChain(shifts, [phi], weight)
    chain.grow_to(n)
    ref.grow_to(n)
    m = n if weight is None else weight.n_samples
    _assert_matches_full_rows(chain, ref, rng.standard_normal((m, 2)), [2, n])


@pytest.mark.parametrize("weighted", [False, True])
def test_a_localized_chain_keeps_a_local_range_that_is_bit_identical(weighted):
    n, center, level = 1000, 500, 20
    _, shifts = gsis.build_circulant(n, (1, 3))
    phi = np.eye(n)[center]
    scheme = gsis.subset_sampler(n, range(center - 200, center + 201)) if weighted else None
    chain, ref = _RecordedChain(shifts, [phi], scheme), _FullRowChain(shifts, [phi], scheme)
    chain.grow_to(level)
    ref.grow_to(level)
    # a level-20 span of a delta is nonzero only within 3 * 20 hops of it
    assert center - 3 * level - 32 <= chain._lo and chain._hi <= center + 3 * level + 1 + 32
    assert chain.basis.tobytes() == ref.basis.tobytes() and chain.images.tobytes() == ref.images.tobytes()
    _assert_rows_outside_the_range_are_zero(chain)


@pytest.mark.parametrize("weighted", [False, True])
def test_a_span_wrapping_past_vertex_zero_takes_every_row(weighted):
    n = 200
    _, shifts = gsis.build_circulant(n, (1, 3))
    phi = np.eye(n)[1]
    scheme = gsis.subset_sampler(n, [*range(0, 40), *range(170, 200)]) if weighted else None
    chain, ref = _RecordedChain(shifts, [phi], scheme), _FullRowChain(shifts, [phi], scheme)
    assert (chain._lo, chain._hi) == (0, 32)
    chain.grow_to(6)
    ref.grow_to(6)
    # vertex 1 has neighbours 198 and 199, so level 1 already spans both ends
    assert (chain._lo, chain._hi) == (0, n)
    m = n if scheme is None else scheme.n_samples
    _assert_matches_full_rows(chain, ref, np.random.default_rng(1).standard_normal((m, 2)), [3, 6])


@pytest.mark.parametrize("weighted", [False, True])
def test_a_dense_generator_takes_every_row_from_level_zero(weighted):
    n = 150
    _, shifts = gsis.build_circulant(n, (1, 3))
    phi = np.random.default_rng(2).standard_normal(n)
    scheme = gsis.subset_sampler(n, range(30, 120)) if weighted else None
    chain, ref = _RecordedChain(shifts, [phi], scheme), _FullRowChain(shifts, [phi], scheme)
    assert (chain._lo, chain._hi) == (0, n)
    chain.grow_to(8)
    ref.grow_to(8)
    m = n if scheme is None else scheme.n_samples
    _assert_matches_full_rows(chain, ref, np.random.default_rng(3).standard_normal((m, 2)), [4, 8])


def test_a_regrown_level_leaves_the_rows_outside_the_range_zero():
    # the radius-8 window of the 24-vertex case above, centred on a longer
    # circulant so that the range stays short of both ends
    n, center, radius, level = 200, 100, 8, 3
    _, shifts = gsis.build_circulant(n, (1, 3))
    scheme = gsis.subset_sampler(n, range(center - radius, center + radius + 1))
    phi = np.eye(n)[center]
    reported = []
    chain = _RecordedChain(shifts, [phi], scheme, on_drop=lambda status, what: reported.append(status))
    ref = _FullRowChain(shifts, [phi], scheme)
    chain.grow_to(level)
    ref.grow_to(level)
    assert INVISIBLE in reported and not chain._prune  # a pruned level was undone and regrown
    assert 0 < chain._lo and chain._hi < n
    y = np.random.default_rng(4).standard_normal((scheme.n_samples, 2))
    _assert_matches_full_rows(chain, ref, y, [1, level])
    result = gsis.reconstruct_krylov(shifts, [phi], scheme, y[:, 0], max_level=level, require_injective=False)
    assert list(result.dims_trace) == ref.dims


@pytest.mark.parametrize("weighted", [False, True])
def test_permuted_labels_give_the_same_dims_and_projector(weighted):
    n, center, level = 120, 60, 6
    _, shifts = gsis.build_circulant(n, (1, 3))
    perm = np.random.default_rng(5).permutation(n)  # new label i is old vertex perm[i]
    inv = np.argsort(perm)
    window = range(center - 25, center + 26)
    phi = np.eye(n)[center]
    chain = KrylovChain(shifts, [phi], gsis.subset_sampler(n, window) if weighted else None)
    permuted = KrylovChain(
        [s.matrix[np.ix_(perm, perm)] for s in shifts],
        [phi[perm]],
        gsis.subset_sampler(n, inv[list(window)]) if weighted else None,
    )
    chain.grow_to(level)
    permuted.grow_to(level)
    assert permuted.dims == chain.dims
    projector = chain.basis @ chain.basis.T
    assert _span_distance(permuted.basis, chain.basis[perm]) <= 1e-12 * max(1.0, np.abs(projector).max())
    _assert_rows_outside_the_range_are_zero(permuted)


@pytest.mark.parametrize(
    "n, center, radius, cap, weighted",
    [
        # the benchmark's deep chain: a delta on the (1, 3) circulant, and a 601-vertex window
        (2000, 1000, 300, 100, False),
        (2000, 1000, 300, 100, True),
        # the sweep's 100-cycle, whose span wraps past vertex 0 before the cap
        (100, 50, 16, 18, False),
        (100, 50, 16, 18, True),
    ],
    ids=["False", "True", "sweep-False", "sweep-True"],
)
def test_a_cap_100_chain_through_row_windows_matches_full_applies(n, center, radius, cap, weighted):
    _, shifts = gsis.build_circulant(n, (1, 3))
    phi = np.eye(n)[center]
    scheme = gsis.subset_sampler(n, range(center - radius, center + radius + 1)) if weighted else None
    chain, ref = _RecordedChain(shifts, [phi], scheme), _FullRowChain(shifts, [phi], scheme)
    m = n if scheme is None else scheme.n_samples
    y = np.cos(np.arange(m) / 9.0) + np.random.default_rng(8).uniform(-0.01, 0.01, m)
    fit, fit_ref = chain.fit(y[:, None], [cap]), ref.fit(y[:, None], [cap])
    assert chain.dims == ref.dims
    assert chain.statuses == ref.statuses
    assert chain.basis.tobytes() == ref.basis.tobytes()
    assert fit.residual_norms.tobytes() == fit_ref.residual_norms.tobytes()
    # every level's iterate, as reconstruct_krylov(keep_iterates=True) evaluates them
    prefixes = np.where(np.arange(chain.dim)[:, None] < np.asarray(chain.dims), fit.coefficients, 0.0)
    assert chain.evaluate(prefixes).tobytes() == ref.evaluate(prefixes).tobytes()
    assert np.linalg.norm(chain.basis.T @ chain.basis - np.eye(chain.dim), 2) <= 1e-14


def test_a_zero_windowed_candidate_off_the_basis_range_is_dependent():
    # K_{64,64}, side A labelled 0..63: S (e0 - e1) is exactly zero, on rows 64..127 the window
    # reaches, which are disjoint from the basis range [0, 32)
    half = 64
    edges = [(a, half + b) for a in range(half) for b in range(half)]
    shift = gsis.build_standard_shifts(gsis.Graph(2 * half, edges), "adjacency")
    phi = np.eye(2 * half)[0] - np.eye(2 * half)[1]
    chain = _RecordedChain([shift], [phi])
    assert not chain.grow_to(1) and chain.stalled
    assert chain.statuses == [ADDED, DEPENDENT] and chain.dims == [1]


def test_every_chain_candidate_goes_through_offer(monkeypatch):
    offered = []
    offer = OrthogonalBasis._offer
    monkeypatch.setattr(OrthogonalBasis, "_offer", lambda self, *args: offered.append(args) or offer(self, *args))
    # a round of the benchmark's deep chains, one per level cap
    n, center, radius = 2000, 1000, 300
    _, shifts = gsis.build_circulant(n, (1, 3))
    scheme = gsis.subset_sampler(n, range(center - radius, center + radius + 1))
    y = np.cos(np.arange(scheme.n_samples) / 9.0)
    for cap in (40, 55, 70, 85, 100):
        result = gsis.reconstruct_krylov(shifts, [np.eye(n)[center]], scheme, y, max_level=cap)
        assert result.depth == cap
    assert len(offered) == 1055


def test_no_shifted_candidate_is_offered_at_length_n(monkeypatch):
    # a level-20 span of a delta on the (1, 3) circulant reaches 3 * 20 hops a side, so each
    # window holds about 130 rows of the 10^5: only the generator comes through try_add whole
    sizes = []
    offer = OrthogonalBasis._offer
    monkeypatch.setattr(OrthogonalBasis, "_offer", lambda self, v, first, start=0: sizes.append(v.size) or offer(self, v, first, start))
    n = 10**5
    _, shifts = gsis.build_circulant(n, (1, 3))
    phi = np.zeros(n)
    phi[n // 2] = 1.0
    chain = KrylovChain(shifts, [phi])
    assert chain.grow_to(20) and chain.dims[-1] == 60
    assert sizes[0] == n and len(sizes) > 60 and max(sizes[1:]) < 256


def _assert_same_bits(a, b):
    assert a.dim == b.dim and (a._lo, a._hi) == (b._lo, b._hi)
    assert a.basis.tobytes() == b.basis.tobytes() and a.images.tobytes() == b.images.tobytes()
    if a.weight is not None:
        assert a._r[: a.dim, : a.dim].tobytes() == b._r[: b.dim, : b.dim].tobytes()


def _interval(data, start, stop):
    a = data.draw(st.integers(start, stop))
    return a, data.draw(st.integers(a, stop))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 150), weight=st.sampled_from(["none", "subset", "dense"]), data=st.data())
def test_offering_a_candidates_rows_is_bit_identical_to_try_add(n, weight, data):
    # twin bases: one takes v whole, the other only the rows [a, b) that v is supported on
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scheme = None
    if weight != "none":
        scheme = gsis.subset_sampler(n, data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        scheme = scheme if weight == "subset" else gsis.SamplingScheme(scheme.matrix)
    whole, rows = OrthogonalBasis(n, scheme), OrthogonalBasis(n, scheme)
    for _ in range(data.draw(st.integers(1, 10))):
        lo, hi = whole._lo, whole._hi  # (n, 0) while the basis is empty
        kinds = ["inside", "around", "disjoint", "anywhere"] if lo < hi else ["anywhere"]
        where = data.draw(st.sampled_from(kinds))
        if where == "inside":
            a, b = _interval(data, lo, hi)
        elif where == "around":
            a, b = data.draw(st.integers(0, lo)), data.draw(st.integers(hi, n))
        elif where == "disjoint":
            a, b = _interval(data, *data.draw(st.sampled_from([(0, lo), (hi, n)])))
        else:
            a, b = _interval(data, 0, n)
        v = np.zeros(n)
        if not data.draw(st.booleans(), label="exactly zero"):
            v[a:b] = rng.standard_normal(b - a) * (rng.random(b - a) < 0.8)  # with exact zeros inside
        assert whole.try_add(v) == rows._offer(v[a:b].copy(), a)
        _assert_same_bits(whole, rows)


@pytest.mark.parametrize("shape", [(2,), (2, 3)], ids=["vector", "block"])
def test_evaluate_rejects_more_coefficients_than_the_dimension(shape):
    basis = OrthogonalBasis(4)
    basis.try_add(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="2 coefficients for a basis of dimension 1"):
        basis.evaluate(np.ones(shape))


# ---------------------------------------------------------------------------
# one stream: a subset scheme is an isometry on a span that vanishes off its vertices


def _assert_matches_the_dense_scheme(chain, dense, y, caps):
    """The subset scheme's chain against the two-stream chain of its matrix.

    The euclidean stream, and so the basis, is the same bit for bit.  The
    weighted passes read every column, the euclidean ones a chain level's
    last columns only, so the two-stream images and R agree to roundoff.
    """
    assert chain.dims == dense.dims and chain.statuses == dense.statuses
    assert (chain._lo, chain._hi) == (dense._lo, dense._hi)
    assert chain.basis.tobytes() == dense.basis.tobytes()
    assert np.allclose(chain.images, dense.images, rtol=0, atol=RANGE_TOL)
    assert np.allclose(chain._r[: chain.dim, : chain.dim], dense._r[: dense.dim, : dense.dim], rtol=0, atol=RANGE_TOL)
    fit, fit_dense = chain.fit(y, caps), dense.fit(y, caps)
    # the residuals subtract the images' fit; coefficients, depths and norms stay bit for bit
    assert np.allclose(fit.residuals, fit_dense.residuals, rtol=0, atol=RANGE_TOL * max(1.0, float(np.abs(y).max())))
    for a, b in zip(fit[1:], fit_dense[1:]):
        assert np.array_equal(a, b, equal_nan=True)
    assert chain.evaluate(fit.coefficients).tobytes() == dense.evaluate(fit_dense.coefficients).tobytes()
    _assert_rows_outside_the_range_are_zero(chain)


def test_a_window_that_covers_the_span_runs_one_stream(monkeypatch):
    n, center, level = 200, 100, 12
    _, shifts = gsis.build_circulant(n, (1, 3))
    scheme = gsis.subset_sampler(n, range(center - 45, center + 46))  # a level-12 span reaches 36 hops
    applied = []
    apply = gsis.SamplingScheme.__matmul__
    monkeypatch.setattr(gsis.SamplingScheme, "__matmul__", lambda s, x: applied.append(x) or apply(s, x))
    chain = KrylovChain(shifts, [np.eye(n)[center]], scheme)
    chain.grow_to(level)
    assert chain.dims == [1] + [3 * k for k in range(1, level + 1)]
    assert not applied
    assert np.array_equal(chain._r[: chain.dim, : chain.dim], np.eye(chain.dim))
    assert chain.images.tobytes() == chain.basis[list(scheme.vertices)].tobytes()


@pytest.mark.parametrize(
    "vertices, centers, inside",
    [
        # the window ends 30 hops left of the generator: a level-11 candidate is the first to leave it
        (range(70, 200), [100], 10),
        # two blocks; the first ends 20 hops left of its generator, left at level 7
        ([*range(30, 81), *range(120, 191)], [50, 150], 6),
    ],
    ids=["window left mid-level", "two blocks"],
)
def test_one_stream_is_bit_identical_to_the_two_streams_of_the_dense_scheme(vertices, centers, inside):
    n, level = 200, 14
    _, shifts = gsis.build_circulant(n, (1, 3))
    scheme = gsis.subset_sampler(n, vertices)
    gens = [np.eye(n)[c] for c in centers]
    chain = _RecordedChain(shifts, gens, scheme)
    dense = _RecordedChain(shifts, gens, gsis.SamplingScheme(scheme.matrix))
    chain.grow_to(level)
    dense.grow_to(level)
    # one stream through level ``inside``, both streams from a column of the next level on
    d = chain.dims[inside]
    r = chain._r[: chain.dim, : chain.dim]
    assert np.array_equal(r[: d + 1, : d + 1], np.eye(d + 1)) and not np.array_equal(r, np.eye(chain.dim))
    y = np.random.default_rng(6).standard_normal((scheme.n_samples, 3))
    _assert_matches_the_dense_scheme(chain, dense, y, [4, inside + 1, level])


def test_a_column_off_the_samples_ends_one_stream_for_good():
    # vertex 5 is not sampled: once the first column holds it, a candidate on
    # the samples alone no longer has its image in its sampled rows
    scheme = gsis.subset_sampler(6, [1, 2, 3])
    basis, dense = OrthogonalBasis(6, scheme), OrthogonalBasis(6, gsis.SamplingScheme(scheme.matrix))
    for v in ([0, 1, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0], [0, 1, 2, 0, 0, 0], [0, 0, 1, 1, 0, 0]):
        assert basis.try_add(np.array(v, dtype=float)) == dense.try_add(np.array(v, dtype=float))
    assert basis.dim == 3
    assert basis.basis.tobytes() == dense.basis.tobytes() and basis.images.tobytes() == dense.images.tobytes()
    assert basis._r[:3, :3].tobytes() == dense._r[:3, :3].tobytes()


def test_a_level_regrown_after_one_stream_adds_keeps_r_the_identity():
    # the regrown case above: two level-3 candidates are added on one stream
    # before an invisible one undoes the pruned level
    n, center, radius, level = 200, 100, 8, 3
    _, shifts = gsis.build_circulant(n, (1, 3))
    scheme = gsis.subset_sampler(n, range(center - radius, center + radius + 1))
    phi = np.eye(n)[center]
    reported = []
    chain = _RecordedChain(shifts, [phi], scheme, on_drop=lambda status, what: reported.append(status))
    dense = _RecordedChain(shifts, [phi], gsis.SamplingScheme(scheme.matrix))
    chain.grow_to(level)
    dense.grow_to(level)
    assert INVISIBLE in reported and not chain._prune
    assert np.array_equal(chain._r[: chain.dim, : chain.dim], np.eye(chain.dim))
    assert chain.images.tobytes() == chain.basis[list(scheme.vertices)].tobytes()
    y = np.random.default_rng(7).standard_normal((scheme.n_samples, 2))
    _assert_matches_the_dense_scheme(chain, dense, y, [1, level])


# ---------------------------------------------------------------------------
# a one-stream chain copied under another window is that window's chain


@st.composite
def nested_windows(draw):
    """A circulant's size and offsets, a delta's vertex, and two windows around it: the chain's wide one and a target.

    The target nests in the wide window, or overlaps it, sticking out on
    the right while the wide window sticks out on the left; then the copy
    rule must read the vertices either window leaves unsampled.
    """
    n = draw(st.integers(8, 48))
    # offset 1 keeps the cycle connected
    offsets = sorted({1} | draw(st.sets(st.integers(2, (n - 1) // 2), max_size=2)))
    if draw(st.booleans(), label="overlapping"):
        vertex = draw(st.integers(1, n - 2))
        wide = draw(st.integers(0, vertex - 1)), draw(st.integers(vertex, n - 2))
        narrow = draw(st.integers(wide[0] + 1, vertex)), draw(st.integers(wide[1] + 1, n - 1))
        return n, offsets, vertex, narrow, wide
    vertex = draw(st.integers(0, n - 1))
    narrow = draw(st.integers(0, vertex)), draw(st.integers(vertex, n - 1))
    wide = draw(st.integers(0, narrow[0])), draw(st.integers(narrow[1], n - 1))
    return n, offsets, vertex, narrow, wide


def _window(n, ends):
    return gsis.subset_sampler(n, range(ends[0], ends[1] + 1))


def _assert_same_chain(chain, ref):
    assert chain.dims == ref.dims and chain.audits == ref.audits
    assert (chain.fallback_level, chain.stalled) == (ref.fallback_level, ref.stalled)
    assert chain.basis.tobytes() == ref.basis.tobytes() and chain.images.tobytes() == ref.images.tobytes()
    assert chain._r[: chain.dim, : chain.dim].tobytes() == ref._r[: ref.dim, : ref.dim].tobytes()


def _copy_at_the_deepest_level(n, offsets, vertex, narrow, wide, top):
    """The wider window's chain, its copy under the narrower one at the deepest level <= top that holds, and its drops.

    The chain is grown to the copy's level and no further, so the drops it
    reports, and then those of the copy, which reports through the same
    callback, form the narrower chain's sequence.  At the first level that
    gives no copy, the chain must stay as it was.
    """
    _, shifts = gsis.build_circulant(n, offsets)
    phi = np.eye(n)[vertex]
    probe = KrylovChain(shifts, [phi], _window(n, wide))
    level = 0
    while level < top and probe.grow_to(level + 1):
        before = _basis_state(probe)
        if probe._copy_under(_window(n, narrow)) is None:
            assert _basis_state(probe) == before
            break
        level += 1
    reported = []
    chain = KrylovChain(shifts, [phi], _window(n, wide), on_drop=lambda status, what: reported.append((status, what)))
    chain.grow_to(level)
    return chain, chain._copy_under(_window(n, narrow)), level, reported


def _assert_copy_is_the_narrower_chain(n, offsets, vertex, narrow, wide, top, more):
    """Check the copy against a chain grown under the narrower window, at its level and ``more`` levels on."""
    chain, copy, level, reported = _copy_at_the_deepest_level(n, offsets, vertex, narrow, wide, top)
    _, shifts = gsis.build_circulant(n, offsets)
    reported_ref = []
    ref = KrylovChain(shifts, [np.eye(n)[vertex]], _window(n, narrow), on_drop=lambda s, w: reported_ref.append((s, w)))
    ref.grow_to(level)
    _assert_same_chain(copy, ref)
    assert reported == reported_ref
    copy.grow_to(level + more)
    ref.grow_to(level + more)
    _assert_same_chain(copy, ref)
    assert reported == reported_ref and (copy._take is None) == (ref._take is None)
    y = np.random.default_rng(n * vertex).standard_normal((narrow[1] - narrow[0] + 1, 4))
    caps = [0, level, level + 1, level + more + 2]
    fit, fit_ref = copy.fit(y, caps), ref.fit(y, caps)
    for a, b in zip(fit, fit_ref):
        assert a.tobytes() == b.tobytes()
    assert copy.evaluate(fit.coefficients).tobytes() == ref.evaluate(fit_ref.coefficients).tobytes()
    return copy, level


@settings(max_examples=80, deadline=None)
@given(case=nested_windows(), top=st.integers(0, 8), more=st.integers(1, 6))
# overlapping windows: S_3 e_2 leaves the span of e_2 on vertices 5 and 7 only, invisible to [0, 3] and seen by [1, 7]
@example(case=(8, [1, 3], 2, (1, 7), (0, 3)), top=1, more=1)
def test_a_copy_under_a_narrower_window_is_that_windows_chain(case, top, more):
    _assert_copy_is_the_narrower_chain(*case, top, more)


def test_a_copy_grows_on_as_the_narrower_chain_when_a_level_leaves_one_side_and_into_two_streams():
    # the window [12, 30] holds the (1, 3) circulant's level-1 span around 17,
    # 14..20; level 2 reaches 11..23, which leaves it on the left only
    n, vertex, narrow = 40, 17, (12, 30)
    copy, level = _assert_copy_is_the_narrower_chain(n, (1, 3), vertex, narrow, (2, 39), top=6, more=4)
    assert level == 1 and copy._take is None  # two streams from level 2 on
    reached = np.flatnonzero(np.any(copy.basis[:, copy.dims[1] : copy.dims[2]], axis=1))
    assert reached.min() < narrow[0] and reached.max() <= narrow[1]


def test_a_stalled_chain_is_copied_with_its_stall():
    # the 12-cycle's span of a delta is the 7 signals symmetric about it: level 7 stalls
    n = 12
    _, shifts = gsis.build_circulant(n, (1,))
    chain = KrylovChain(shifts, [np.eye(n)[5]], _window(n, (0, n - 1)))
    ref = KrylovChain(shifts, [np.eye(n)[5]], _window(n, (0, n - 1)))
    assert not chain.grow_to(9) and not ref.grow_to(9)
    copy = chain._copy_under(_window(n, (0, n - 1)))
    assert copy.stalled and copy.depth == 6
    _assert_same_chain(copy, ref)


def _basis_state(chain):
    return (
        chain.basis.tobytes(),
        chain.images.tobytes(),
        chain._r[: chain.dim, : chain.dim].tobytes(),
        list(chain.dims),
        list(chain.audits),
        (chain._lo, chain._hi, chain._take is None, chain.weight),
    )


@pytest.mark.parametrize(
    "base, vertices, target, level",
    [
        ((5, 35), [20], gsis.subset_sampler(40, range(21, 30)), 0),
        ((5, 35), [20], gsis.subset_sampler(40, range(14, 27)), 3),  # level 3 reaches 11..29
        ((19, 24), [20], gsis.subset_sampler(40, range(5, 36)), 3),  # a level-1 column holds vertex 17
        # no column leaves [17, 23], but candidates that did were dropped as invisible
        ((17, 23), [20], gsis.subset_sampler(40, range(5, 36)), 3),
        ((5, 35), [20, 20], gsis.subset_sampler(40, range(5, 36)), 3),
        ((5, 35), [20], gsis.SamplingScheme(gsis.subset_sampler(40, range(5, 36)).matrix), 3),
        (None, [20], gsis.subset_sampler(40, range(5, 36)), 3),
    ],
    ids=[
        "the generator off the window",
        "a column off the window",
        "two streams",
        "candidates dropped off the base's window",
        "a dropped generator",
        "a dense weight",
        "a dense base weight",
    ],
)
def test_a_chain_that_a_window_does_not_hold_gives_no_copy_and_stays_as_it_was(base, vertices, target, level):
    n = 40
    _, shifts = gsis.build_circulant(n, (1, 3))
    scheme = gsis.SamplingScheme(_window(n, (5, 35)).matrix) if base is None else _window(n, base)
    chain = KrylovChain(shifts, np.eye(n)[vertices], scheme)
    chain.grow_to(level)
    before = _basis_state(chain)
    assert chain._copy_under(target) is None
    assert _basis_state(chain) == before
