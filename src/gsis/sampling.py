"""Sampling schemes, injectivity tests, and reconstruction in generated spaces.

Reconstruction comes in two forms: a closed-form least-squares solve on a
bandlimited space, and an iterative routine that grows the shifted-generator
span level by level, keeping the running estimate optimal over the current
level at every step.  The iterative routine terminates in finitely many
levels because the spans stop growing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateInnerProductError, NonInjectiveSamplingError
from .graphs import ShiftMatrix, ShiftSet, _distinct_index_set, _index, _index_set, _matrix, _signal
from .orthogonalize import DEPENDENT, INVISIBLE
from .spaces import KrylovChain, krylov_subspace
from .spectral import SpectralDecomposition, _min_gap

__all__ = [
    "SamplingScheme",
    "Observation",
    "ReconstructionResult",
    "DynamicInjectivity",
    "subset_sampler",
    "dynamic_sampler",
    "check_injective",
    "check_bandlimited_injective",
    "check_dynamic_injective",
    "reconstruct_direct",
    "reconstruct_krylov",
    "degenerate_dimension_check",
    "STATE_GAP_REL",
]

STATE_GAP_REL = 1e-10  # relative state-eigenvalue gap and eigenvector entry dynamic sampling needs


@dataclass(frozen=True, init=False, eq=False)
class SamplingScheme:
    """Linear observation map ``y = A x``.

    ``SamplingScheme(matrix)`` takes any finite (M, N) rows and is
    ``"custom"``.  Only the samplers set other metadata: a ``"subset"``
    scheme from :func:`subset_sampler` holds only its distinct ``vertices``
    and builds ``matrix`` on first access; a ``"dynamic"`` one from
    :func:`dynamic_sampler` records ``initial_vertex`` and ``n_snapshots``.
    ``scheme @ x`` on an (N,) or (N, K) array gathers the
    rows ``x[vertices]`` of a subset scheme, equal to the product with its
    0/1 rows, and takes the dense product with ``matrix`` otherwise.  As in
    numpy's matmul, an operand of three or more axes is a stack of
    (N, K) blocks, whose axis -2 is gathered or multiplied.
    """

    provenance: str
    vertices: tuple[int, ...] | None
    initial_vertex: int | None
    n_snapshots: int | None
    shape: tuple[int, int]
    _take: np.ndarray | None = field(repr=False)

    def __init__(self, matrix: np.ndarray):
        m = np.array(_matrix(matrix, (None, None), "sampling matrix"))
        m.flags.writeable = False
        self._store(m.shape, "custom")
        object.__setattr__(self, "matrix", m)

    def _store(self, shape, provenance, vertices=None, initial_vertex=None, n_snapshots=None) -> None:
        take = None
        if provenance == "subset":
            take = np.array(vertices, dtype=np.intp)
            take.flags.writeable = False
        for name, value in (
            ("_take", take),
            ("shape", tuple(shape)),
            ("provenance", provenance),
            ("vertices", vertices),
            ("initial_vertex", initial_vertex),
            ("n_snapshots", n_snapshots),
        ):
            object.__setattr__(self, name, value)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Read-only (M, N) observation matrix; a subset scheme's 0/1 rows are built here."""
        a = np.zeros(self.shape)
        a[np.arange(self.n_samples), self._take] = 1.0
        a.flags.writeable = False
        return a

    @property
    def n_samples(self) -> int:
        return self.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.shape[1]

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        """``A @ x`` for an (N,), (N, K) or stacked (..., N, K) array (see the class docstring)."""
        x = np.asarray(other)
        axis = -2 if x.ndim > 2 else 0  # numpy's matmul reads a stack's rows on axis -2
        if x.shape[axis:][:1] != self.shape[1:]:
            raise ValueError(f"operand of shape {x.shape} under a scheme on {self.n_vertices} vertices")
        if self._take is None:
            return self.matrix @ x
        return x[self._take] if axis == 0 else x[..., self._take, :]


@dataclass(frozen=True)
class Observation:
    """Observed samples together with the scheme that produced them."""

    values: np.ndarray
    scheme: SamplingScheme

    def __post_init__(self):
        v = np.array(_signal(self.values, self.scheme.n_samples, "values"))
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def subset_sampler(n_vertices: int, vertices: Sequence[int]) -> SamplingScheme:
    """Scheme that reads the signal at a sorted set of vertices."""
    n_vertices = _index(n_vertices, "n_vertices")
    idx = _distinct_index_set(vertices, n_vertices, "sampling vertices")
    if not idx:
        raise ValueError("at least one sampling vertex is required")
    scheme = SamplingScheme.__new__(SamplingScheme)
    scheme._store((len(idx), n_vertices), "subset", tuple(idx))
    return scheme


def dynamic_sampler(
    decomp: SpectralDecomposition,
    state_matrix: ShiftMatrix | np.ndarray,
    initial_vertex: int,
    n_snapshots: int,
) -> SamplingScheme:
    """Scheme observing one vertex of ``D^m x`` for m = 0 .. n_snapshots - 1.

    The state matrix, a square array or a :class:`~gsis.graphs.ShiftMatrix`,
    must be diagonalized by the decomposition basis (any polynomial in the
    shifts qualifies), so each row is ``sum_n lambda_D(n)^m u_n(i0) u_n`` on
    the transform side.
    """
    if isinstance(state_matrix, ShiftMatrix):
        state = step = state_matrix  # a shift is its own transpose
    else:
        state = _matrix(state_matrix, (decomp.n_vertices,) * 2, "state matrix")
        step = state.T  # row m + 1 is D.T @ row m
    decomp.eigenvalues_of(state, "state matrix")  # raises unless the basis diagonalizes it
    return _dynamic_scheme(step, initial_vertex, n_snapshots)


def _dynamic_scheme(step: ShiftMatrix | np.ndarray, initial_vertex: int, n_snapshots: int) -> SamplingScheme:
    """:func:`dynamic_sampler`'s rows, row m + 1 being ``step @ row m``, without its spectral check.

    ``step`` is the transpose of the state: a square float array, or a
    shift, which is its own.  For a state the caller knows to be
    diagonalized by every joint eigenbasis, such as a member of a
    commuting shift family.
    """
    n = step.shape[0]
    (initial_vertex,) = _index_set([initial_vertex], n, "initial_vertex")
    n_snapshots = _index(n_snapshots, "n_snapshots")
    if n_snapshots < 1:
        raise ValueError("at least one snapshot is required")
    rows = np.empty((n_snapshots, n))
    row = np.zeros(n)
    row[initial_vertex] = 1.0
    for m in range(n_snapshots):
        rows[m] = row
        row = step @ row
    scheme = SamplingScheme(rows)
    scheme._store(rows.shape, "dynamic", initial_vertex=initial_vertex, n_snapshots=n_snapshots)
    return scheme


def check_injective(scheme: SamplingScheme, space_matrix: np.ndarray) -> bool:
    """Whether the scheme separates points of ``span(space_matrix)``.

    Tested as ``rank(F) == rank(A F)`` for a matrix F whose columns span
    the space, each rank with numpy's default cutoff
    ``s_max * max(rows, cols) * eps``.
    """
    f = _matrix(space_matrix, (scheme.n_vertices, None), "space matrix")
    return int(np.linalg.matrix_rank(f)) == int(np.linalg.matrix_rank(scheme @ f))


def check_bandlimited_injective(
    decomp: SpectralDecomposition, omega: Sequence[int], vertices: Sequence[int]
) -> bool:
    """Subset-sampling injectivity on a bandlimited space.

    Reading vertices W determines signals bandlimited to omega exactly
    when the submatrix ``u_n(i)`` (rows W, columns omega) has full column
    rank.
    """
    n = decomp.n_vertices
    idx = _index_set(omega, n, "omega indices")
    w = _index_set(vertices, n, "sampling vertices")
    if not idx:
        return True
    sub = decomp.basis[np.ix_(w, idx)]
    return int(np.linalg.matrix_rank(sub)) == len(idx)


class DynamicInjectivity(NamedTuple):
    ok: bool
    reason: str


def check_dynamic_injective(
    decomp: SpectralDecomposition,
    omega: Sequence[int],
    state_matrix: np.ndarray,
    initial_vertex: int,
    n_snapshots: int,
) -> DynamicInjectivity:
    """Dynamic-sampling injectivity on a bandlimited space, by criterion.

    Injective exactly when there are at least as many snapshots as
    frequencies, the state eigenvalues are pairwise distinct on omega,
    and the observed vertex has a nonzero entry in every eigenvector of
    omega, both in the sense of :data:`STATE_GAP_REL`. The returned reason
    names the first failed condition.
    """
    idx = _index_set(omega, decomp.n_vertices, "omega indices")
    (initial_vertex,) = _index_set([initial_vertex], decomp.n_vertices, "initial_vertex")
    n_snapshots = _index(n_snapshots, "n_snapshots")
    lam = decomp.eigenvalues_of(state_matrix, "state matrix")
    if not idx:
        return DynamicInjectivity(True, "injective")
    if n_snapshots < len(idx):
        return DynamicInjectivity(
            False, f"insufficient snapshots ({n_snapshots} < {len(idx)})"
        )
    scale = max(float(np.abs(lam).max()), 1e-300)
    if _min_gap(lam[idx]) <= STATE_GAP_REL * scale:
        return DynamicInjectivity(False, "repeated state eigenvalues on omega")
    row = decomp.basis[initial_vertex, idx]
    if np.abs(row).min() <= STATE_GAP_REL:
        return DynamicInjectivity(
            False, f"eigenvector entry vanishes at vertex {initial_vertex}"
        )
    return DynamicInjectivity(True, "injective")


def reconstruct_direct(
    decomp: SpectralDecomposition,
    omega: Sequence[int],
    scheme: SamplingScheme,
    y,
) -> np.ndarray:
    """Least-squares reconstruction on a bandlimited space.

    Solves ``min ||y - A x||_2`` over signals spanned by the eigenvectors
    at ``omega`` through one SVD of the sampled basis ``A U_omega``, which
    both gates and solves, so the conditioning is not squared.

    Raises
    ------
    NonInjectiveSamplingError
        When the sampled basis loses column rank (smallest singular
        value below 1e-12 times the scheme's operator norm) or its Gram
        matrix has condition number ``(s_max / s_min)^2`` above 1e12,
        i.e. the scheme does not determine the space.
    """
    idx = _index_set(omega, decomp.n_vertices, "omega indices")
    obs = _signal(y, scheme.n_samples, "y")
    if not idx:
        return np.zeros(decomp.n_vertices)
    sampled = scheme @ decomp.basis[:, idx]
    left, sv, right = np.linalg.svd(sampled, full_matrices=False)
    smin = float(sv[-1]) if sv.size == len(idx) else 0.0
    # a subset scheme's rows are distinct indicators, of operator norm 1
    scale = 1.0 if scheme._take is not None else max(float(np.linalg.norm(scheme.matrix, 2)), 1.0)
    cond = (float(sv[0]) / smin) ** 2 if smin > 0.0 else np.inf
    if smin <= 1e-12 * scale or cond > 1e12:
        raise NonInjectiveSamplingError(
            f"sampling scheme does not determine the space (condition {cond:.3e})"
        )
    coeffs = right.T @ ((left.T @ obs) / sv)
    return decomp.basis[:, idx] @ coeffs


@dataclass(frozen=True)
class ReconstructionResult:
    """Output of the level-by-level reconstruction.

    Attributes
    ----------
    signal : (N,) ndarray
        The reconstruction; at each level it minimizes ``||y - A x||_2``
        over the span reached so far.
    residual : (M,) ndarray
        Final observation residual ``y - A signal``.
    depth : int
        Last level that added directions (level 0 is the generators).
    dims_trace : tuple of int
        Span dimension after each level, starting at level 0.
    residual_trace : tuple of float
        ``||y - A x||_2`` after each level.
    signal_trace : tuple of ndarray, optional
        Per-level reconstructions, recorded when requested.
    """

    signal: np.ndarray
    residual: np.ndarray
    depth: int
    dims_trace: tuple[int, ...]
    residual_trace: tuple[float, ...]
    signal_trace: tuple[np.ndarray, ...] | None = None


def reconstruct_krylov(
    shifts: ShiftSet,
    generators: Sequence,
    scheme: SamplingScheme,
    y,
    delta: float = 0.0,
    *,
    max_level: int | None = None,
    require_injective: bool = True,
    keep_iterates: bool = False,
) -> ReconstructionResult:
    """Reconstruct a signal from samples by growing the generated span.

    Grows the :class:`~gsis.spaces.KrylovChain` of the generators under the
    sampling-weighted form ``<x1, x2> = (A x1).(A x2)``, adding at each
    level the projection of the current residual onto the new directions.
    It stops when no candidate survives (see
    :data:`~gsis.orthogonalize.DROP_REL`), when the residual norm reaches
    ``delta``, or at ``max_level``.

    Parameters
    ----------
    require_injective : bool
        When True (default), a candidate whose weighted norm collapses
        while its euclidean norm stays large raises
        :class:`DegenerateInnerProductError`, since it witnesses a
        direction of the span invisible to the scheme. When False such
        candidates are dropped, which keeps the estimate optimal over the
        visible part of the span.

    Notes
    -----
    Shift-monomial chains condition exponentially in depth, so with
    ``delta=0`` on a chain that is deep relative to double precision the
    last dimensions sit below roundoff: they may be dropped, or roundoff
    debris may be picked up as spurious directions. When the chain built
    by :func:`krylov_subspace` under the same weight stalls before the
    expected dimension, prefer a positive ``delta`` or a ``max_level``
    cap over trusting the saturated tail.

    Raises
    ------
    DegenerateInnerProductError
        See ``require_injective``.
    """
    obs = _signal(y, scheme.n_samples, "y")
    if scheme.n_vertices != shifts.n_vertices:
        raise ValueError("sampling scheme and shifts disagree on the vertex count")
    if not delta >= 0:  # NaN fails this test too
        raise ValueError(f"delta must be nonnegative, got {delta!r}")
    top_level = shifts.n_vertices - 1 if max_level is None else _index(max_level, "max_level")
    if top_level < 0:
        raise ValueError("max_level must be nonnegative")

    dependent = []  # the generators dropped, warned of once the chain is built

    def handle_drop(status: str, what: str) -> None:
        if status == INVISIBLE and require_injective:
            raise DegenerateInnerProductError(
                f"{what} is invisible to the sampling scheme; "
                "sampling is not injective on the generated space"
            )
        if status == DEPENDENT and what.startswith("generator"):
            dependent.append(what)

    chain = KrylovChain(shifts, generators, scheme, on_drop=handle_drop)
    for what in dependent:
        warnings.warn(f"dependent {what} dropped", stacklevel=2)  # at the caller's line
    fit = chain.fit(obs[:, None], [top_level], delta)
    depth = int(fit.depths[0])
    dims = chain.dims[: depth + 1]
    signal_trace = None
    if keep_iterates:
        # R is upper triangular: a zero-padded prefix evaluates to its level's iterate
        prefixes = np.where(np.arange(dims[-1])[:, None] < np.asarray(dims), fit.coefficients, 0.0)
        signal_trace = tuple(np.ascontiguousarray(chain.evaluate(prefixes).T))
    return ReconstructionResult(
        signal=signal_trace[-1] if keep_iterates else chain.evaluate(fit.coefficients)[:, 0],
        residual=fit.residuals[:, 0],
        depth=depth,
        dims_trace=tuple(dims),
        residual_trace=tuple(float(r) for r in fit.residual_norms[: depth + 1, 0]),
        signal_trace=signal_trace,
    )


def degenerate_dimension_check(
    shifts: ShiftSet,
    phi0,
    scheme: SamplingScheme | None = None,
) -> bool:
    """Single-shift spans grow by exactly one dimension per level.

    For one shift and one generator the level-n span is a polynomial
    space in the shift, so its dimension walks 1, 2, 3, ... until it
    saturates. This verifies that staircase under the (optionally
    sampling-weighted) inner product; the weighted form must come from a
    scheme whose normal matrix ``A.T A`` commutes with the shift.

    Raises
    ------
    ValueError
        More than one shift, or a scheme whose normal matrix does not
        commute with it: ``||A.T A S - S A.T A||_F`` above
        ``1e-8 * max(1, ||S||_F) * max(1, ||A.T A||_F)``.
    """
    if len(shifts) != 1:
        raise ValueError(
            f"the one-dimension-per-level law needs a single shift, got {len(shifts)}"
        )
    if scheme is not None:
        normal = scheme.matrix.T @ scheme.matrix
        s = shifts[0]
        scale = max(1.0, s._frobenius_norm()) * max(1.0, float(np.linalg.norm(normal)))
        if np.linalg.norm(normal @ s - s @ normal) > 1e-8 * scale:
            raise ValueError("the scheme's normal matrix does not commute with the shift")
    _, dims = krylov_subspace(shifts, [phi0], shifts.n_vertices, weight=scheme)
    # a stalled chain never grows again, so the staircase needs only unit steps
    return bool(np.all(np.diff(dims) <= 1))
