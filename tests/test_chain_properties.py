"""Property tests of the chain engine on random circulants and sampling windows."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import gsis
from gsis.spaces import KrylovChain


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
    cols = sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=1)))
    weight = scheme.matrix if weighted else np.eye(n)
    # a fresh chain grows only as far as these columns need; the grown one is reused
    for other in (_chain(shifts, scheme, phi, weighted), chain):
        part = other.fit(y[:, cols], caps[cols], delta)
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
            assert np.allclose(part.signals[:, i], block.signals[:, j], rtol=0, atol=tol)


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
