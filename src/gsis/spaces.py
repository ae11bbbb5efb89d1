"""Shift-invariant subspaces of signals on a graph.

A subspace is shift invariant when every shift maps it into itself.  Such
spaces are exactly the spans of eigenvector subsets (bandlimited spaces),
and equally the spans of shifted generator families; this module builds
them from either description, produces canonical single generators, and
computes the stability constants of the resulting generator systems.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DistinctnessError
from .graphs import MATRIX_REL, ShiftMatrix, ShiftSet, _distinct_index_set, _index, _index_set, _matrix, _seed, _signal
from .orthogonalize import ADDED, INVISIBLE, OrthogonalBasis
from .spectral import DISTINCT_REL, SpectralDecomposition, _combination, _min_gap, graded_multi_indices

__all__ = [
    "SignalSpace",
    "CanonicalGenerator",
    "UncertaintyReport",
    "bandlimited_space",
    "gsis_from_generators",
    "krylov_subspace",
    "canonical_generator",
    "riesz_bounds",
    "frame_bounds",
    "uniform_norm_star",
    "uncertainty_check",
    "is_shift_invariant",
    "SUPPORT_REL",
    "SCALARIZATION_DRAWS",
    "MEMBERSHIP_REL",
    "ORTHOGONALITY_REL",
]

SUPPORT_REL = 1e-10  # an entry is in a generator's support above this times its norm
MEMBERSHIP_REL = 1e-8  # SignalSpace.contains: projection residual allowed, relative to the norm
SCALARIZATION_DRAWS = 32  # random directions canonical_generator tries before giving up
ORTHOGONALITY_REL = 4 * np.finfo(float).eps  # KrylovChain: largest |u_i . u_j| a level's local passes may leave


@dataclass(frozen=True)
class SignalSpace:
    """Shift-invariant subspace spanned by columns of its decomposition.

    Attributes
    ----------
    omega : tuple of int
        Sorted indices of the decomposition columns spanning the space.
    decomp : SpectralDecomposition
        The joint eigenbasis the space is bandlimited in (for a generated
        space, possibly an adapted copy; see :func:`gsis_from_generators`).
    provenance : str
        ``"bandlimited"``, ``"gsis"`` (several generators) or ``"pgsis"``
        (single generator).
    generators : tuple of ndarray, optional
        The generator family the space was built from, if any.
    """

    omega: tuple[int, ...]
    decomp: SpectralDecomposition
    provenance: str
    generators: tuple[np.ndarray, ...] | None = None

    @cached_property
    def basis(self) -> np.ndarray:
        """(N, dim) orthonormal basis: the decomposition columns at ``omega``, C-contiguous."""
        return self.decomp.basis[:, list(self.omega)].copy()

    @property
    def dim(self) -> int:
        return len(self.omega)

    @property
    def n_vertices(self) -> int:
        return self.decomp.n_vertices

    def project(self, x) -> np.ndarray:
        """Orthogonal projection onto the space of a signal-like ``x`` of N finite values."""
        v = _signal(x, self.n_vertices, "x")
        return self.basis @ (self.basis.T @ v)

    def contains(self, x) -> bool:
        """Membership test: projection residual at most :data:`MEMBERSHIP_REL` times ``||x||``."""
        v = _signal(x, self.n_vertices, "x")
        return float(np.linalg.norm(v - self.project(v))) <= MEMBERSHIP_REL * float(np.linalg.norm(v))


def bandlimited_space(decomp: SpectralDecomposition, omega: Sequence[int]) -> SignalSpace:
    """Span of the eigenvector columns with indices in ``omega``."""
    idx = _distinct_index_set(omega, decomp.n_vertices, "omega indices")
    return SignalSpace(tuple(idx), decomp, "bandlimited")


def _group_ranks(decomp: SpectralDecomposition, gens: list[np.ndarray]):
    """Yield ``(group, rank, left)`` for each group of ``decomp.groups``.

    ``rank`` is the dimension of the space the generators generate inside
    the group (the rule of :func:`gsis_from_generators`); ``left`` holds
    the left singular vectors of the generators' transform there, None for
    a single column.  Raises ValueError as ``gsis_from_generators`` does.
    """
    if not gens:
        raise ValueError("at least one generator is required")
    for g in gens:
        if not np.any(g):
            raise ValueError("generator is identically zero")
    ghat = decomp.basis.T @ np.column_stack(gens)
    scales = np.linalg.norm(ghat, axis=0)
    max_scale = float(scales.max())
    # one stacked SVD per group size, read back in group order
    svds = {}
    for size in {len(g) for g in decomp.groups} - {1}:
        left, svals, _ = np.linalg.svd(ghat[np.array([g for g in decomp.groups if len(g) == size])])
        svds[size] = zip(left, svals)
    for group in decomp.groups:
        if len(group) == 1:
            yield group, int(np.any(np.abs(ghat[group.start]) > SUPPORT_REL * scales)), None
            continue
        left, svals = next(svds[len(group)])
        yield group, int(np.sum(svals > SUPPORT_REL * max_scale)), left


def gsis_from_generators(decomp: SpectralDecomposition, generators: Sequence) -> SignalSpace:
    """Smallest shift-invariant space containing the given generators.

    Inside each group of ``decomp.groups`` the space is the span of the
    generators' projections, of rank the number of singular values above
    :data:`SUPPORT_REL` times the largest transform norm (a single column
    counts when an entry exceeds that times its generator's norm).  A group
    the space cuts gets the columns ``U_g @ left`` (left singular vectors of
    the generators' transform there), so its leading columns span the
    space's part.  Any orthonormal basis of a joint eigenspace is a joint
    eigenbasis, so the space is bandlimited to ``omega`` in this adapted
    copy of ``decomp`` (same eigenvalues and groups), which is ``decomp``
    itself when no group is cut.

    Raises
    ------
    ValueError
        If a generator is identically zero, has the wrong length or a
        non-finite value.
    """
    gens = [_signal(g, decomp.n_vertices, "generator") for g in generators]
    provenance = "pgsis" if len(gens) == 1 else "gsis"
    stored = tuple(g.copy() for g in gens)
    omega: list[int] = []
    basis = None
    for group, rank, left in _group_ranks(decomp, gens):
        if 0 < rank < len(group):
            if basis is None:
                basis = decomp.basis.copy()
            basis[:, group] = decomp.basis[:, group] @ left
        omega.extend(group[:rank])
    if basis is not None:
        decomp = replace(decomp, basis=basis)
    # never empty: some group carries at least 1/sqrt(N) of a generator's energy;
    # groups are consecutive column runs, so omega is already ascending
    return SignalSpace(tuple(omega), decomp, provenance, stored)


class ChainFit(NamedTuple):
    residuals: np.ndarray
    coefficients: np.ndarray
    depths: np.ndarray
    residual_norms: np.ndarray


class KrylovChain(OrthogonalBasis):
    """Orthogonal basis of a shifted-generator span, grown level by level.

    Level 0 holds the generators; level n applies the matrices, in order,
    to the directions added at level n - 1.  Each level's basis is a column
    prefix of every deeper one, so one chain serves every depth: ``dims[n]``
    is the dimension after level n, for n = 0 .. ``depth``.  The first level
    that adds nothing stalls the chain for good.  ``on_drop(status, what)``
    is called for every rejected candidate (``what`` is ``"generator k"`` or
    ``"shifted candidate"``), a level's candidates once the whole level has
    been offered, and may raise to abort the growth.  ``weight`` is as for
    :class:`~gsis.orthogonalize.OrthogonalBasis`.

    Staircase rule: a level adds its columns in matrix order, one block
    per matrix (level 0 is one block, offered to every matrix), and
    matrix t is applied only to the previous level's prefix that ends
    with block t.  In exact arithmetic this keeps every level's span.  By
    induction on the level n, the level-n prefix through block t spans,
    together with the level n - 1 span, every degree-n monomial
    ``S_t1 ... S_tn g`` with ``t1 <= ... <= tn <= t``: the Gram-Schmidt
    prefix through block t spans what was offered up to matrix t, a
    dropped candidate lies in the span of the columns before it, and
    ``S_t`` maps the level n - 2 span into the level n - 1 span.  Since
    the matrices commute, every degree-(n + 1) monomial is ``S_t``
    applied to such a sorted monomial with last index <= t, which is
    exactly what the rule offers.  The step "a dropped candidate lies in
    the span" fails for an ``INVISIBLE`` drop: the weight cannot see it
    although it is outside the span.  So the first invisible drop in a
    pruned level is not reported; the chain restores its state at the
    start of that level (dimension, largest offered norms), regrows the
    level with every candidate, and never prunes again.

    :data:`~gsis.orthogonalize.DROP_REL` and
    :data:`~gsis.orthogonalize.INVISIBLE_REL` are relative to the largest
    candidate offered so far, so skipping candidates could in principle
    move a borderline decision.

    ``matrices`` are applied as ``S @ v``: a dense ``(N, N)`` array in
    O(N^2), its candidate offered whole, and a
    :class:`~gsis.graphs.ShiftMatrix` (or the shifts of a
    :class:`~gsis.graphs.ShiftSet`) through its edge list.  Every column
    of a level vanishes off the basis' row range, so a ShiftMatrix sums
    only the rows that range reaches, S being symmetric, bit for bit as the
    full apply (:meth:`~gsis.graphs.ShiftMatrix._window`, set up again only
    when the range grows), and the basis is offered just those rows
    (:meth:`~gsis.orthogonalize.OrthogonalBasis._offer`).

    Local passes.  The rule rests on the matrices being symmetric and
    commuting, as the shifts of an undirected graph are.  Then a level-n
    candidate ``S_t u_j`` has, in exact arithmetic, no component on the
    columns before ``dims[n - 3]``: ``u_i . S_t u_j = S_t u_i . u_j``, and
    ``S_t u_i`` lies in the level n - 2 span, to which ``u_j`` is
    orthogonal (the Lanczos three-term property).  So both euclidean
    Gram-Schmidt passes of level n read only the columns from
    ``dims[n - 3]`` on; the weighted passes of a two-stream basis still
    read every column.  After a level's offers, before its drops are
    reported, the chain audits the largest ``|u_i . u_j|`` over the
    columns i it skipped and the level's new columns j (one product and
    one reduction) and keeps it in ``audits[n]``.  Above
    :data:`ORTHOGONALITY_REL` the chain undoes the level, as after a
    pruned invisible drop, regrows it with full passes, records n in
    ``fallback_level`` (None while it has not fallen back) and uses full
    passes from then on, which skip nothing and need no audit:
    ``audits[n]`` is then the audit that tripped, and 0 at the later
    levels, as at levels 0 to 2.  On a circulant the audits read
    roundoff of roundoff; on an irregular graph the loss grows level by
    level until the audit trips.  The audit sees only added columns, so a dropped
    two-stream candidate is judged invisible only after a pass over the
    skipped columns too: an earlier invisible drop leaves a direction out
    of the span, and a dependent candidate can then keep more than
    roundoff on them.

    Cost.  With rows the basis' range of vertex labels (on a circulant, a
    level-n span of a delta generator covers only its n-hop
    neighbourhood), a candidate costs O(rows reached) for the shift and
    O(rows x c) per euclidean pass, c being the columns of levels n - 2
    and n - 1 and those level n has added so far; two streams add
    O(M x dim) per weighted pass, M the number of samples, and a level's
    audit O(rows x dims[n - 3] x its new columns).  With full passes c is
    the dimension.

    Raises ``ValueError`` unless there is at least one matrix and every
    matrix has the shape ``(N, N)`` of the first.
    """

    def __init__(self, matrices, generators, weight=None, *, on_drop=None):
        self._matrices = list(matrices)
        shapes = [tuple(s.shape) for s in self._matrices]
        n = shapes[0][0] if shapes and shapes[0] else -1
        if n < 0 or any(shape != (n, n) for shape in shapes):
            raise ValueError(f"matrices of shapes {shapes}, expected at least one, each (N, N)")
        super().__init__(n, weight)
        gens = [_signal(g, self.n, "generator") for g in generators]
        if not gens:
            raise ValueError("at least one generator is required")
        self._generators = len(gens)
        self._on_drop = on_drop if on_drop is not None else lambda status, what: None
        # offered at unit peak, like the unit columns the shifts act on: DROP_REL is
        # relative to the largest candidate, which a generator's scale must not set
        for k, g in enumerate(gens):
            peak = np.abs(g).max()
            status = self.try_add(g / peak if peak else g)
            if status != ADDED:
                self._on_drop(status, f"generator {k}")
        self._ends = [self.dim] * len(self._matrices)  # where each matrix's block of the last level ends
        self._prune = True
        # each ShiftMatrix's (first, entries) reached from the basis' row range, (0, None) for a dense one
        self._window_rows, self._windows = None, []
        self.dims = [self.dim]
        self.audits = [0.0]
        self.fallback_level = None
        self.stalled = False

    @property
    def depth(self) -> int:
        return len(self.dims) - 1

    def _offer_level(self, lo: int, hi: int, start: int) -> list[str] | None:
        """Offer one level's candidates, passing over the columns from ``start`` on; their drops, or None at a pruned invisible drop."""
        rows = self._lo, self._hi  # every column of the previous level vanishes off these rows
        if rows != self._window_rows:  # set up again only when the range has grown
            self._window_rows = rows
            self._windows = [s._window(*rows) if isinstance(s, ShiftMatrix) else (0, None) for s in self._matrices]
        drops, ends = [], []
        for s, (first, entries), end in zip(self._matrices, self._windows, self._ends):
            for j in range(lo, end if self._prune else hi):
                if entries is None:
                    status = self._offer(s @ self._u[:, j], 0, start)
                else:
                    status = self._offer(s._apply(self._u[:, j], *entries), first, start)
                if status == INVISIBLE and self._prune:
                    return None
                if status != ADDED:
                    drops.append(status)
            ends.append(self.dim)
        self._ends = ends
        return drops

    def _audit(self, old: int, hi: int) -> float:
        """Largest ``|u_i . u_j|`` of a column i before ``old`` and a column j from ``hi`` on, 0 if none."""
        lo, top = self._lo, self._hi
        return float(abs(self._u[lo:top, :old].T @ self._u[lo:top, hi : self.dim]).max(initial=0.0))

    def grow_to(self, level: int) -> bool:
        """Grow until ``depth`` reaches ``level``; False if the chain stalls first."""
        dims = self.dims
        while len(dims) <= level and not self.stalled:
            lo, hi = dims[-2:] if len(dims) > 1 else (0, dims[0])
            # in exact arithmetic no candidate of this level has a component on the columns before old
            old = dims[-3] if len(dims) > 2 else 0
            undo = self.dim, self._max_weighted, self._max_euclid, self._ends
            audit = 0.0  # full passes skip no column: nothing to audit
            while True:
                start = old if self.fallback_level is None else 0
                drops = self._offer_level(lo, hi, start)
                if drops is None:  # a pruned invisible drop: regrow with every candidate
                    self._prune = False
                elif not start or (audit := self._audit(old, hi)) <= ORTHOGONALITY_REL:
                    break
                else:  # the local passes lost orthogonality: regrow with full passes, for good
                    self.fallback_level = len(dims)
                self.dim, self._max_weighted, self._max_euclid, self._ends = undo
            for status in drops:
                self._on_drop(status, "shifted candidate")
            self.stalled = self.dim == hi
            if not self.stalled:
                dims.append(self.dim)
                self.audits.append(audit)
        return self.depth >= level

    def _links_only_sampled(self, columns: int, unsampled: np.ndarray) -> bool:
        """Whether every matrix links the rows of the first ``columns`` columns only to vertices off ``unsampled``.

        The rows are those from the first to the last that one of the
        columns is nonzero on, and each matrix must be a
        :class:`~gsis.graphs.ShiftMatrix`, whose reach is read from its
        entries (:meth:`~gsis.graphs.ShiftMatrix._reached`).  True when the
        columns are zero, or there are none.
        """
        lo, hi = self._lo, self._hi
        rows = lo + np.flatnonzero(self._u[lo:hi, :columns].any(axis=1))
        return not rows.size or all(
            isinstance(s, ShiftMatrix) and not np.count_nonzero(unsampled[s._reached(rows[0], rows[-1] + 1)])
            for s in self._matrices
        )

    def _copy_under(self, weight):
        """This one-stream chain as the chain under the subset scheme ``weight`` stands at its level, or None.

        The chain under ``weight`` made the same offers, and while every
        offer vanished off the vertices of both schemes it made the same
        decisions, with ``images`` its scheme's rows of the basis and R the
        identity (:class:`~gsis.orthogonalize.OrthogonalBasis`).  So the copy
        carries the basis, dimensions, audits, block ends and window cache,
        and grows on as that chain does.  An added offer left a column, which
        must vanish off the vertices either scheme leaves unsampled.  A
        dropped offer left none, so it is bounded instead: a dropped
        generator gives None, and a shifted candidate vanishes off the rows
        its matrix links to the columns it shifted (those before the last
        level's, or all of them after a stall).  So each matrix must be a
        :class:`~gsis.graphs.ShiftMatrix` that links the rows from the first
        to the last of those columns' rows only to vertices both schemes
        sample.  Otherwise, or unless this chain runs one stream under a
        subset scheme and ``weight`` is one, the result is None and this
        chain is unchanged.  The copy shares nothing that either chain
        writes.
        """
        vertices = getattr(weight, "vertices", None)
        if self._take is None or vertices is None or self.dims[0] != self._generators:
            return None
        take = np.array(vertices, dtype=np.intp)
        own = np.ones(self.n, dtype=bool)
        own[take] = False
        unsampled = self._unsampled | own
        lo, hi, k = self._lo, self._hi, self.dim
        # the columns shifted so far: those before the last level, or every one once a level stalled
        shifted = self.dims[-1] if self.stalled else self.dims[-2] if self.depth else 0
        stored = self._u[lo:hi, :k].any(axis=1)  # every row a stored column is nonzero on
        if np.count_nonzero(unsampled[lo:hi][stored]) or not self._links_only_sampled(shifted, unsampled):
            return None
        out = copy.copy(self)
        out.weight, out._take, out._unsampled = weight, take, own
        out._u = np.zeros(self._u.shape, order="F")
        out._u[lo:hi, :k] = self._u[lo:hi, :k]
        out._p = np.zeros((len(take), self._u.shape[1]), order="F")
        out._p[:, :k] = self._u[take, :k]
        out._r = np.eye(self._u.shape[1])
        out.dims, out.audits = list(self.dims), list(self.audits)
        return out

    def fit(self, y: np.ndarray, caps: Sequence[int], delta: float = 0.0) -> ChainFit:
        """Least-squares fit of each column of the (M, K) block y, level by level.

        Column j goes one level deeper while its residual norm exceeds
        ``delta``, its level is below ``caps[j]`` and the chain still
        grows, staying optimal over the span reached.  It stops at level
        ``depths[j]``; its ``coefficients`` are zero past that level's
        dimension, so ``evaluate(coefficients)`` gives every column's
        signal, and ``residual_norms[k, j]`` is its residual norm after
        level k (NaN past ``depths[j]``).  The chain grows only as deep as
        some column needs.  For K >= 2 a column's results do not depend on
        the other columns, bit for bit with OpenBLAS's matrix-matrix
        kernels; a lone column takes numpy's matrix-vector path.
        """
        # the norms square each entry, so each column is fitted divided by a power
        # of two at its largest entry and scaled back: exact, and no norm overflows
        e = np.asarray(y, dtype=float)
        _, binade = np.frexp(np.abs(e).max(axis=0, initial=0.0))
        e = np.ldexp(e, -binade)
        delta = np.ldexp(delta, -binade)
        # no chain grows past level N - 1, so a cap of N is as good as any larger one a C long cannot hold
        caps = np.array([min(int(c), self.n) for c in caps], dtype=int)
        blocks, norms = [], []
        active = np.ones(e.shape[1], dtype=bool)
        depths = np.full(e.shape[1], -1)
        # every level runs on all K columns; a stopped column's coefficients are
        # zero, so its residual loses exactly 0.0.  The images enter the product
        # row-major and padded with a zero column, so the BLAS rounds a column
        # alike wherever it sits (the column-major slice, or one row, did not)
        while active.any() and self.grow_to(level := len(blocks)):
            depths += active
            new = self.images[:, (self.dims[level - 1] if level else 0) : self.dims[level]]
            padded = np.zeros((len(e), new.shape[1] + 1))
            padded[:, :-1] = new
            blocks.append((padded.T @ e)[:-1] * active)
            e -= new @ blocks[-1]
            norms.append(np.where(active, np.linalg.norm(e, axis=0), np.nan))
            active &= (caps > level) & (norms[-1] > delta)
        coefficients, norms = np.concatenate(blocks), np.array(norms)
        return ChainFit(np.ldexp(e, binade), np.ldexp(coefficients, binade), depths, np.ldexp(norms, binade))


def krylov_subspace(
    shifts: ShiftSet,
    generators: Sequence,
    level: int,
    weight=None,
) -> tuple[np.ndarray, list[int]]:
    """Orthonormal basis of the shifted-generator span up to a given level.

    Level n spans all ``S_1^a1 ... S_L^aL phi`` with total degree at most n,
    grown by :class:`KrylovChain`, so the basis grows monotonically and
    stalls exactly when the span stops growing.

    Parameters
    ----------
    weight : (M, N) ndarray or SamplingScheme, optional
        Sampling matrix, or the scheme that holds it; when given, the
        dependence test uses the weighted form ``(W x) . (W y)``, so
        directions the weight cannot separate do not enlarge the span.

    Returns
    -------
    basis : (N, d) ndarray
        Euclidean-orthonormal columns spanning the accepted directions.
    dims : list of int
        ``dims[k]`` is the dimension after level k, for k = 0 .. level.
    """
    level = _index(level, "level")
    if level < 0:
        raise ValueError("level must be nonnegative")
    chain = KrylovChain(shifts, generators, weight)
    chain.grow_to(level)
    return chain.basis.copy(), chain.dims + chain.dims[-1:] * (level - chain.depth)


class CanonicalGenerator(NamedTuple):
    generator: np.ndarray
    combined_shift: ShiftMatrix
    direction: np.ndarray


def canonical_generator(
    decomp: SpectralDecomposition,
    omega: Sequence[int],
    *,
    seed: int = 0,
) -> CanonicalGenerator:
    """Single generator and scalarizing shift for a bandlimited space.

    The generator is the inverse transform of the indicator of ``omega``.
    A random unit direction d turns the shift family into the single
    shift ``T = sum_l d_l S_l``, a :class:`~gsis.graphs.ShiftMatrix` on the
    same graph; d is redrawn until the scalar eigenvalues ``d . lambda(n)``
    are pairwise distinct over ``omega`` (no gap at or below
    :data:`~gsis.spectral.DISTINCT_REL` times their spread), and the powers
    ``T^m generator`` for m < #omega are verified to span the space.

    Raises
    ------
    DistinctnessError
        If ``omega`` holds two columns of one tied group of
        ``decomp.groups``, or no accepted direction is found within
        :data:`SCALARIZATION_DRAWS` draws.
    """
    idx = _index_set(omega, decomp.n_vertices, "omega indices")
    if not idx:
        raise ValueError("omega must be nonempty")
    starts = [group.start for group in decomp.groups]
    if len(set(np.searchsorted(starts, idx, side="right"))) < len(idx):
        raise DistinctnessError(
            "joint eigenvalues repeat on omega; no single-generator description exists"
        )
    phi0 = decomp.basis[:, idx] @ np.ones(len(idx))
    rng = np.random.default_rng(_seed(seed))
    m = len(idx)
    for _ in range(SCALARIZATION_DRAWS):
        d = rng.standard_normal(decomp.n_shifts)
        d /= np.linalg.norm(d)
        scalar = decomp.eigenvalues[:, idx].T @ d
        if _min_gap(scalar) <= DISTINCT_REL * max(float(np.ptp(scalar)), 1e-300):
            continue
        t = _combination(decomp.shifts, d)
        # Stable rank check of {T^k phi0 : k < m} through an orthogonal chain.
        chain = KrylovChain([t], [phi0])
        chain.grow_to(m - 1)
        if chain.dims[-1] == m:
            return CanonicalGenerator(phi0, t, d)
    raise DistinctnessError(
        f"no direction made the scalar eigenvalues distinct on omega "
        f"within {SCALARIZATION_DRAWS} draws"
    )


def riesz_bounds(
    decomp: SpectralDecomposition,
    combined_shift: ShiftMatrix | np.ndarray,
    phi0,
    omega: Sequence[int],
) -> tuple[float, float]:
    """Extreme singular values of the shifted-generator system on a space.

    For the basis ``{T^m phi0 : 0 <= m < #omega}`` of the space spanned by
    the eigenvectors at ``omega`` (a generated space's own ``decomp`` and
    ``omega``), returns ``(smallest, largest)`` singular value of the matrix
    ``[phi0_hat(n) * lambda_T(n)^m]``; these are the optimal constants c, C
    in ``c ||a||_2 <= || sum_m a_m T^m phi0 ||_2 <= C ||a||_2``.

    Raises
    ------
    ValueError
        If ``combined_shift`` is not diagonalized by the decomposition
        basis, or the generator's spectral support (entries above
        :data:`SUPPORT_REL` times its norm) does not equal ``omega``.
    """
    idx = _index_set(omega, decomp.n_vertices, "omega indices")
    lam_t = decomp.eigenvalues_of(combined_shift, "combined shift")
    phat = decomp.basis.T @ _signal(phi0, decomp.n_vertices, "phi0")
    scale = float(np.linalg.norm(phat))
    if scale == 0.0:
        raise ValueError("generator is identically zero")
    inside = np.zeros(decomp.n_vertices, dtype=bool)
    inside[idx] = True
    if np.any(np.abs(phat[~inside]) > SUPPORT_REL * scale):
        raise ValueError("generator has spectral content outside omega")
    if np.any(np.abs(phat[inside]) <= SUPPORT_REL * scale):
        raise ValueError("generator vanishes on part of omega")
    v = phat[idx, None] * np.vander(lam_t[idx], len(idx), increasing=True)
    svals = np.linalg.svd(v, compute_uv=False)
    return float(svals[-1]), float(svals[0])


def frame_bounds(
    decomp: SpectralDecomposition,
    phi0,
    level: int,
) -> tuple[float, float]:
    """Frame constants of the family ``{S^alpha phi0 : |alpha| <= level - 1}``.

    Returns ``(smallest positive, largest)`` singular value of the matrix
    with one row per frequency of the spectral support of ``phi0`` (entries
    of ``phi0_hat`` above :data:`SUPPORT_REL` times its norm) and one column
    ``lambda(n)^alpha * phi0_hat(n)`` per exponent tuple, in graded
    lexicographic order. For any x in the space generated by ``phi0``,
    ``smin * ||x|| <= sqrt(sum_alpha <x, S^alpha phi0>^2) <= smax * ||x||``
    once ``level`` is large enough for the family to span the space.
    """
    level = _index(level, "level")
    if level < 1:
        raise ValueError("level must be at least 1")
    phat = decomp.basis.T @ _signal(phi0, decomp.n_vertices, "phi0")
    if not np.any(phat):
        raise ValueError("generator is identically zero")
    # rows off the spectral support are roundoff; kept, they would put a
    # roundoff singular value below the family's true smallest bound
    support = np.abs(phat) > SUPPORT_REL * np.linalg.norm(phat)
    phat, eigenvalues = phat[support], decomp.eigenvalues[:, support]
    alphas = graded_multi_indices(decomp.n_shifts, level - 1)
    cols = np.empty((phat.shape[0], len(alphas)))
    for k, alpha in enumerate(alphas):
        col = phat.copy()
        for l, a in enumerate(alpha):
            if a:
                col = col * eigenvalues[l] ** a
        cols[:, k] = col
    svals = np.linalg.svd(cols, compute_uv=False)
    cutoff = svals[0] * max(cols.shape) * np.finfo(float).eps
    positive = svals[svals > cutoff]
    return float(positive[-1]), float(svals[0])


def uniform_norm_star(u: np.ndarray, mode: str = "exact") -> float:
    """Localization constant of an orthogonal basis.

    ``exact`` enumerates every pair of nonempty vertex and frequency
    subsets (W, Omega), keeps those whose basis energy
    ``sum_{i in W, n in Omega} u[i, n]^2`` reaches 1, and returns the
    largest ``(#W * #Omega)^{-1/2}``; limited to 12 columns. The energy
    test allows 1e-9 slack so exactly-attained thresholds survive
    rounding. ``infinity_bound`` returns ``max |u[i, n]|``, an upper bound
    for the exact value.

    Raises
    ------
    ValueError
        A basis that is not square, finite and orthogonal, an unknown mode,
        or ``exact`` beyond 12 columns.
    """
    n = np.shape(u)[0] if np.ndim(u) else None
    u = _matrix(u, (n, n), "basis")
    if np.abs(u.T @ u - np.eye(n)).max() > 1e-8:
        raise ValueError("matrix columns are not orthonormal")
    return _localization(u, mode)


def _localization(u: np.ndarray, mode: str) -> float:
    """:func:`uniform_norm_star` of a square float basis known to be orthonormal, unchecked."""
    n = u.shape[0]
    if mode == "infinity_bound":
        return float(np.abs(u).max())
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'infinity_bound'")
    if n > 12:
        raise ValueError(f"exact mode enumerates subsets and is limited to 12 columns, got {n}")
    energy = u * u
    masks = ((np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)  # row s - 1: bit b of s
    col_counts = masks.sum(axis=1)
    # rows_energy[k, i] = energy of row i against frequency subset k
    rows_energy = masks @ energy.T
    rows_sorted = np.sort(rows_energy, axis=1)[:, ::-1]
    best_by_rows = np.cumsum(rows_sorted, axis=1)
    best_product = None
    for w in range(1, n + 1):
        reaches = best_by_rows[:, w - 1] >= 1.0 - 1e-9
        if not np.any(reaches):
            continue
        product = w * int(col_counts[reaches].min())
        if best_product is None or product < best_product:
            best_product = product
    return float(best_product) ** -0.5


@dataclass(frozen=True)
class UncertaintyReport:
    """Outcome of the support-size uncertainty inequality for one generator."""

    support_size: int
    space_dim: int
    localization: float
    localization_mode: str
    lower_bound: float
    holds: bool


def uncertainty_check(decomp: SpectralDecomposition, phi0) -> UncertaintyReport:
    """Check ``#support(phi0) * dim H(phi0) >= localization^{-2}``.

    The support counts the vertices where ``|phi0|`` exceeds
    :data:`SUPPORT_REL` times ``||phi0||_2``. The localization constant is
    computed exactly for up to 12 vertices and replaced by the (larger)
    max-entry bound otherwise, which only weakens the right-hand side.
    """
    v = _signal(phi0, decomp.n_vertices, "phi0")
    scale = float(np.linalg.norm(v))
    if scale == 0.0:
        raise ValueError("generator is identically zero")
    support_size = int(np.sum(np.abs(v) > SUPPORT_REL * scale))
    dim = sum(rank for _, rank, _ in _group_ranks(decomp, [v]))
    mode = "exact" if decomp.n_vertices <= 12 else "infinity_bound"
    loc = _localization(decomp.basis, mode)  # the decomposition's basis is orthonormal
    bound = loc**-2
    return UncertaintyReport(
        support_size=support_size,
        space_dim=dim,
        localization=loc,
        localization_mode=mode,
        lower_bound=bound,
        holds=bool(support_size * dim >= bound - 1e-9),
    )


def is_shift_invariant(space: SignalSpace, shifts: ShiftSet) -> bool:
    """True when every shift maps the space into itself.

    Each basis column b is shifted (``S @ B``, see :class:`ShiftMatrix`) and
    projected back; the residual must stay within
    ``MATRIX_REL * max(1, ||S_l||_F)`` times ``||b||_2 = 1``.
    """
    b = space.basis
    if b.shape[1] == 0:
        return True
    for s in shifts:
        shifted = s @ b
        residual = shifted - b @ (b.T @ shifted)
        if np.linalg.norm(residual, axis=0).max() > MATRIX_REL * max(1.0, s._frobenius_norm()):
            return False
    return True
