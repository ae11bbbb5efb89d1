"""Sampling schemes, injectivity tests, and reconstruction in generated spaces.

Reconstruction comes in two forms: a closed-form least-squares solve on a
bandlimited space, and an iterative routine that grows the shifted-generator
span level by level, keeping the running estimate optimal over the current
level at every step.  The iterative routine terminates in finitely many
levels because the spans stop growing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateInnerProductError, NonInjectiveSamplingError
from .graphs import ShiftSet, _distinct_index_set, _index_set, _vector, frobenius_tol
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

    ``provenance`` records how the matrix was built: ``"subset"`` (rows
    are the indicators of ``vertices``, so applying the scheme is the
    gather ``x[vertices]``), ``"dynamic"`` (one vertex observed under
    repeated state evolution) or ``"custom"``.  A scheme from
    :func:`subset_sampler` holds only its vertices and builds ``matrix``
    on first access.
    """

    provenance: str
    vertices: tuple[int, ...] | None
    initial_vertex: int | None
    n_snapshots: int | None
    shape: tuple[int, int]

    def __init__(
        self,
        matrix: np.ndarray,
        provenance: str = "custom",
        vertices: tuple[int, ...] | None = None,
        initial_vertex: int | None = None,
        n_snapshots: int | None = None,
    ):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("sampling matrix must be two-dimensional")
        if not np.all(np.isfinite(m)):
            raise ValueError("sampling matrix entries must be finite")
        if provenance == "subset":
            v = np.array(vertices if vertices is not None else (), dtype=int)
            if not (
                v.shape == (m.shape[0],)
                and np.all((v >= 0) & (v < m.shape[1]))
                and np.all(m[np.arange(v.size), v] == 1.0)
                and np.count_nonzero(m) == v.size
            ):
                raise ValueError("a subset scheme's rows must be the indicators of its vertices")
        m.flags.writeable = False
        self._store(m.shape, provenance, vertices, initial_vertex, n_snapshots)
        object.__setattr__(self, "matrix", m)

    def _store(self, shape, provenance, vertices, initial_vertex, n_snapshots) -> None:
        for name, value in (
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
        a[np.arange(self.n_samples), list(self.vertices)] = 1.0
        a.flags.writeable = False
        return a

    @property
    def n_samples(self) -> int:
        return self.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.shape[1]

    def apply(self, x) -> np.ndarray:
        v = _vector(x)
        if v.shape[0] != self.n_vertices:
            raise ValueError(f"signal of length {v.shape[0]} under a scheme on {self.n_vertices} vertices")
        if self.provenance == "subset":
            return v[list(self.vertices)]
        return self.matrix @ v


@dataclass(frozen=True)
class Observation:
    """Observed samples together with the scheme that produced them."""

    values: np.ndarray
    scheme: SamplingScheme

    def __post_init__(self):
        v = np.array(_vector(self.values))
        if v.shape[0] != self.scheme.n_samples:
            raise ValueError(
                f"{v.shape[0]} observed values for a scheme with "
                f"{self.scheme.n_samples} samples"
            )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def subset_sampler(n_vertices: int, vertices: Sequence[int]) -> SamplingScheme:
    """Scheme that reads the signal at a sorted set of vertices."""
    idx = _distinct_index_set(vertices, n_vertices, "sampling vertices")
    if not idx:
        raise ValueError("at least one sampling vertex is required")
    scheme = SamplingScheme.__new__(SamplingScheme)
    scheme._store((len(idx), n_vertices), "subset", tuple(idx), None, None)
    return scheme


def dynamic_sampler(
    decomp: SpectralDecomposition,
    state_matrix: np.ndarray,
    initial_vertex: int,
    n_snapshots: int,
) -> SamplingScheme:
    """Scheme observing one vertex of ``D^m x`` for m = 0 .. n_snapshots - 1.

    The state matrix must be diagonalized by the decomposition basis (any
    polynomial in the shifts qualifies), so each row is
    ``sum_n lambda_D(n)^m u_n(i0) u_n`` on the transform side.
    """
    d_mat = np.asarray(state_matrix, dtype=float)
    n = decomp.n_vertices
    if d_mat.shape != (n, n):
        raise ValueError(f"state matrix of shape {d_mat.shape} on {n} vertices")
    decomp.eigenvalues_of(d_mat, "state matrix")  # raises unless the basis diagonalizes it
    (initial_vertex,) = _index_set([initial_vertex], n, "initial_vertex")
    if n_snapshots < 1:
        raise ValueError("at least one snapshot is required")
    rows = np.empty((n_snapshots, n))
    row = np.zeros(n)
    row[initial_vertex] = 1.0
    for m in range(n_snapshots):
        rows[m] = row
        row = d_mat.T @ row
    return SamplingScheme(
        rows, "dynamic", initial_vertex=initial_vertex, n_snapshots=int(n_snapshots)
    )


def check_injective(scheme: SamplingScheme, space_matrix: np.ndarray) -> bool:
    """Whether the scheme separates points of ``span(space_matrix)``.

    Tested as ``rank(F) == rank(A F)`` for a matrix F whose columns span
    the space, each rank with numpy's default cutoff
    ``s_max * max(rows, cols) * eps``.
    """
    f = np.asarray(space_matrix, dtype=float)
    if f.ndim != 2 or f.shape[0] != scheme.n_vertices:
        raise ValueError(f"space matrix of shape {f.shape} under a scheme on {scheme.n_vertices} vertices")
    return int(np.linalg.matrix_rank(f)) == int(np.linalg.matrix_rank(scheme.matrix @ f))


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
    if not idx:
        return DynamicInjectivity(True, "injective")
    lam = decomp.eigenvalues_of(state_matrix, "state matrix")
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
    obs = _vector(y)
    if obs.shape[0] != scheme.n_samples:
        raise ValueError(f"{obs.shape[0]} observations for {scheme.n_samples} samples")
    if not idx:
        return np.zeros(decomp.n_vertices)
    sampled = scheme.matrix @ decomp.basis[:, idx]
    left, sv, right = np.linalg.svd(sampled, full_matrices=False)
    smin = float(sv[-1]) if sv.size == len(idx) else 0.0
    scale = max(float(np.linalg.norm(scheme.matrix, 2)), 1.0)
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
    obs = _vector(y)
    if obs.shape[0] != scheme.n_samples:
        raise ValueError(f"{obs.shape[0]} observations for {scheme.n_samples} samples")
    if scheme.n_vertices != shifts.n_vertices:
        raise ValueError("sampling scheme and shifts disagree on the vertex count")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    top_level = shifts.n_vertices - 1 if max_level is None else int(max_level)
    if top_level < 0:
        raise ValueError("max_level must be nonnegative")

    def handle_drop(status: str, what: str) -> None:
        if status == INVISIBLE and require_injective:
            raise DegenerateInnerProductError(
                f"{what} is invisible to the sampling scheme; "
                "sampling is not injective on the generated space"
            )
        if status == DEPENDENT and what.startswith("generator"):
            warnings.warn(f"dependent {what} dropped", stacklevel=5)

    chain = KrylovChain(shifts, generators, scheme, on_drop=handle_drop)
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
        commute with it.
    """
    if shifts.n_shifts != 1:
        raise ValueError(
            f"the one-dimension-per-level law needs a single shift, got {shifts.n_shifts}"
        )
    if scheme is not None:
        normal = scheme.matrix.T @ scheme.matrix
        s = shifts[0].matrix
        if np.linalg.norm(normal @ s - s @ normal) > frobenius_tol(s, 1e-8) * max(
            1.0, float(np.linalg.norm(normal))
        ):
            raise ValueError("the scheme's normal matrix does not commute with the shift")
    _, dims = krylov_subspace(shifts, [phi0], shifts.n_vertices, weight=scheme)
    # a stalled chain never grows again, so the staircase needs only unit steps
    return bool(np.all(np.diff(dims) <= 1))
