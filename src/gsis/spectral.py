"""Joint spectral analysis of commuting shift families.

Commuting symmetric shifts share an orthonormal eigenbasis U.  The basis is
found by eigendecomposing one random linear combination of the shifts and
verifying that it diagonalizes every member; degenerate combinations are
redrawn.  A family of circulant shifts takes the real Fourier basis
instead, with no draw.  Tied joint eigenvalues are grouped once, and the
basis inside each group is fixed by the shifts alone, so it does not depend
on the draw.
U defines the graph Fourier transform x_hat = U.T x, under which
every shift acts as multiplication by its eigenvalue sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import DiagonalizationError
from .graphs import MATRIX_REL, ShiftMatrix, ShiftSet, _index, _matrix, _signal, _values

__all__ = [
    "SpectralDecomposition",
    "diagonalize_simultaneously",
    "gft",
    "igft",
    "apply_polynomial_filter",
    "is_polynomial_filter",
    "graded_multi_indices",
    "DIAGONALIZATION_REL",
    "DIAGONALIZATION_DRAWS",
    "DISTINCT_REL",
]

DIAGONALIZATION_REL = 1e-9  # accepted residual ||S U - U diag||_F / ||S||_F per shift
DIAGONALIZATION_DRAWS = 8  # random combinations tried before giving up
DISTINCT_REL = 1e-8  # tie gap, relative to the joint spectrum's bounding-box diagonal
_ROTATION_CHUNK = 64  # tied groups rotated per batch, so the batch stays far below N x N
_RESIDUAL_ROWS = 64  # basis rows per block of the residual check
_DRAW_SEED = 0  # seeds the random combinations; the tied-group rotation makes the basis ignore it


@dataclass(frozen=True)
class SpectralDecomposition:
    """Common eigenstructure of a commuting shift family.

    :meth:`eigenvalues_of` is the one way to read the spectrum of a matrix
    that commutes with the family (a member, a combined shift, a state
    matrix, a kernel base): it checks that the basis diagonalizes the
    matrix, a member once and for all, and returns its eigenvalue on each
    column.

    Attributes
    ----------
    basis : (N, N) ndarray
        Orthogonal matrix whose columns are the common eigenvectors, ordered
        group by group and so ascending in the first shift's eigenvalue, and
        sign-normalized so the first entry of each column with magnitude
        above 1e-8 is positive.  Inside a group the columns diagonalize
        ``U_g.T diag(0, ..., N - 1) U_g`` in ascending order, so they depend
        on the shifts alone and not on the draw (a generated space's adapted
        copy rotates the groups it cuts; see ``gsis_from_generators``).
    eigenvalues : (L, N) ndarray
        ``eigenvalues[l, n]`` is the eigenvalue of shift l on column n.
    groups : tuple of range
        Runs of consecutive columns with tied joint eigenvalues, in
        lexicographic order: for every shift, no gap between them exceeds
        :data:`DISTINCT_REL` times the diagonal of the spectrum's bounding
        box (its diameter for one shift).
    min_spectral_gap : float
        Smallest pairwise distance between joint eigenvalue vectors
        (``inf`` for N = 1).
    max_residual : float
        Largest relative residual ``||S_l U - U diag(lambda_l)||_F / ||S_l||_F``
        over the shifts (equal to the off-diagonal norm of ``U.T S_l U``).
    shifts : ShiftSet
        The family that was decomposed.
    """

    basis: np.ndarray
    eigenvalues: np.ndarray
    groups: tuple[range, ...]
    min_spectral_gap: float
    max_residual: float
    shifts: ShiftSet

    @property
    def assumption1_holds(self) -> bool:
        """True when the N joint eigenvalue vectors are pairwise distinct (no tied group)."""
        return len(self.groups) == self.n_vertices

    @property
    def n_vertices(self) -> int:
        return self.basis.shape[0]

    @property
    def n_shifts(self) -> int:
        return self.eigenvalues.shape[0]

    def eigenvalues_of(self, matrix: ShiftMatrix | np.ndarray, what: str) -> np.ndarray:
        """Eigenvalue of ``matrix`` on each basis column.

        A member of :attr:`shifts` (the same object) gets a copy of its
        stored row.  Any other is checked on the rows ``M u_n``, as the
        decomposition checks its shifts; a shift is applied as ``S @ U``
        (see :class:`ShiftMatrix`), its ``||S||_F`` from its edge weights.

        Raises
        ------
        ValueError
            If an array is not a finite (N, N) matrix, or the residual
            ``||M U - U diag(lambda)||_F`` exceeds ``1e-8 * max(1, ||M||_F)``;
            the message names ``what``.
        """
        for s, lam in zip(self.shifts, self.eigenvalues):
            if s is matrix:
                return lam.copy()
        u = self.basis
        if isinstance(matrix, ShiftMatrix):
            norm = matrix._frobenius_norm()
        else:
            matrix = _matrix(matrix, u.shape, what)
            norm = float(np.linalg.norm(matrix))
        image = (matrix @ u).T
        (lam,) = _row_eigenvalues(u.T, [image])
        # for orthogonal U this is the off-diagonal Frobenius norm of U.T M U
        if _residual_norm(image, lam, u.T) > 1e-8 * max(1.0, norm):
            raise ValueError(f"{what} is not diagonalized by the decomposition basis")
        return lam


def _sign_normalize(u: np.ndarray, threshold: float = 1e-8) -> np.ndarray:
    """Flip column signs, in place, so the first entry with magnitude > threshold is positive."""
    big = np.abs(u) > threshold
    first = u[big.argmax(axis=0), np.arange(u.shape[1])]
    u *= np.where(big.any(axis=0) & (first < 0), -1.0, 1.0)
    return u


def _row_eigenvalues(rows: np.ndarray, images: list[np.ndarray]) -> np.ndarray:
    """(L, N) Rayleigh quotients ``u_n . S_l u_n`` from rows ``u_n`` and ``S_l u_n``."""
    return np.array([np.einsum("ij,ij->i", rows, im) for im in images])


def _min_gap(values: np.ndarray) -> float:
    """Smallest distance between two entries of a 1-D array (``inf`` below two entries)."""
    return float(np.diff(np.sort(values)).min(initial=np.inf))


def _min_distance(points: np.ndarray) -> float:
    """Smallest euclidean distance between two rows, compared 256 rows at a time.

    One column is sorted instead (:func:`_min_gap`): in binary64
    ``sqrt(fl(d * d)) == |d|`` wherever ``d * d`` neither underflows nor
    overflows, so the two agree bit for bit there.
    """
    if points.shape[1] == 1:
        return _min_gap(points[:, 0])
    n, rows, best = points.shape[0], 256, np.inf
    for lo in range(0, n - 1, rows):
        # block[i, j] compares row lo + i with row lo + 1 + j, so j >= i keeps each pair once
        block = sum(np.subtract.outer(p[lo : lo + rows], p[lo + 1 :]) ** 2 for p in points.T)
        block[np.tril_indices(block.shape[0], -1, block.shape[1])] = np.inf
        best = min(best, float(np.sqrt(block.min())))
    return best


def _tie_groups(lams: np.ndarray) -> list[np.ndarray]:
    """Column indices of each tied group (see :class:`SpectralDecomposition`).

    Groups are ordered by a lexsort of per-shift integer run ranks, which
    roundoff inside a run cannot reorder.
    """
    threshold = DISTINCT_REL * float(np.linalg.norm(np.ptp(lams, axis=1)))
    ranks = np.empty(lams.shape, dtype=int)
    for rank, values in zip(ranks, lams):
        order = np.argsort(values, kind="stable")
        rank[order] = np.concatenate(([0], np.cumsum(np.diff(values[order]) > threshold)))
    order = np.lexsort(ranks[::-1])
    starts = np.flatnonzero(np.any(np.diff(ranks[:, order], axis=1), axis=0)) + 1
    return np.split(order, starts)


def _combination(shifts: ShiftSet, d: np.ndarray) -> ShiftMatrix:
    """The shift ``sum_l d_l S_l`` on the family's graph, summed over the diagonals and the edge weights.

    Each entry takes the same additions as the dense sum ``sum(d_l * S_l)``,
    signed zeros included, so its ``matrix`` equals that sum bit for bit.
    """
    diagonal = sum(dl * s.diagonal for dl, s in zip(d, shifts))
    edge_weights = sum(dl * s.edge_weights for dl, s in zip(d, shifts))
    return ShiftMatrix._from_edges(shifts.graph, diagonal, edge_weights)


def _fourier_rows(shifts: ShiftSet) -> np.ndarray | None:
    """Rows of the real Fourier basis when every shift is circulant, else None.

    A shift is circulant when each stored entry ``S_ij`` equals, exactly, row
    0's entry at the offset ``(j - i) mod N`` and every row holds as many
    entries as row 0.  Every such shift is diagonalized by the rows
    ``cos(2 pi k j / N)`` for ``k <= N/2`` followed by ``sin(2 pi k j / N)``
    for ``0 < k < N/2``, normalized.
    """
    n = shifts.n_vertices
    for s in shifts:
        width = s._ptr[1]  # entries in row 0
        table = np.full(n, np.nan)  # an offset absent from row 0 equals no entry
        table[s._cols[:width]] = s._weights[:width]
        if len(s._weights) != n * width or not np.array_equal(table[(s._cols - s._rows) % n], s._weights):
            return None
    half = n // 2
    # k j < N^2 / 2 fits in int32 for any N whose dense (N, N) basis fits in memory
    angles = np.arange(half + 1, dtype=np.int32)[:, None] * np.arange(n, dtype=np.int32)
    angles %= n
    theta = 2.0 * np.pi / n * np.arange(n)
    rows = np.empty((n, n))
    # mode="clip" skips take's buffered bounds check; every angle is in range
    np.take(np.cos(theta), angles, out=rows[: half + 1], mode="clip")
    np.take(np.sin(theta), angles[1 : n - half], out=rows[half + 1 :], mode="clip")
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    return rows


def _rotate_tied_groups(groups: list[np.ndarray], rows: np.ndarray, images) -> None:
    """Rotate each tied group's rows, and their images, to the basis fixed by the shifts, in place.

    A group's rows ``U_g`` become ``Q.T U_g``, where ``Q`` diagonalizes
    ``U_g diag(0, ..., N - 1) U_g.T``.  Groups of one size are rotated as a
    batch of at most :data:`_ROTATION_CHUNK` groups.
    """
    ramp = np.arange(rows.shape[1], dtype=float)
    for size in {len(g) for g in groups} - {1}:
        same = np.array([g for g in groups if len(g) == size])
        for lo in range(0, len(same), _ROTATION_CHUNK):
            idx = same[lo : lo + _ROTATION_CHUNK]
            block = rows[idx]
            qt = np.linalg.eigh((block * ramp) @ block.transpose(0, 2, 1))[1].transpose(0, 2, 1)
            for a in (rows, *images):
                a[idx] = qt @ a[idx]


def _eigenvector_rows(shifts: ShiftSet, rng: np.random.Generator) -> np.ndarray:
    """Eigenvectors, as rows, of one random unit combination of the shifts (of the shift itself, for one)."""
    combo = shifts[0]
    if len(shifts) > 1:
        d = rng.standard_normal(len(shifts))
        combo = _combination(shifts, d / np.linalg.norm(d))
    return np.linalg.eigh(combo.matrix)[1].T.copy()


def _residual_norm(image: np.ndarray, lam: np.ndarray, rows: np.ndarray) -> float:
    """``||S U - U diag(lam)||_F`` from the rows ``S u_n``, which it overwrites with the residual.

    The subtraction runs :data:`_RESIDUAL_ROWS` rows at a time, so its
    temporary stays far below N x N.
    """
    for lo in range(0, len(rows), _RESIDUAL_ROWS):
        block = slice(lo, lo + _RESIDUAL_ROWS)
        image[block] -= lam[block, None] * rows[block]
    return np.linalg.norm(image)


def diagonalize_simultaneously(shifts: ShiftSet) -> SpectralDecomposition:
    """Find one orthonormal basis diagonalizing every shift in the set.

    A random unit combination ``T = sum_l d_l S_l`` is eigendecomposed, its
    columns are grouped by tied joint eigenvalue, and the basis inside each
    group is rotated to the one fixed by the shifts alone (see
    :class:`SpectralDecomposition`). The basis is accepted when every
    per-shift residual ``||S_l U - U diag||_F`` is at most
    :data:`DIAGONALIZATION_REL` times ``||S_l||_F``. A draw of d that
    accidentally merges distinct joint eigenvalues fails that check and is
    redrawn, up to :data:`DIAGONALIZATION_DRAWS` draws, from a generator
    seeded by :data:`_DRAW_SEED`. When every shift is
    circulant (each entry ``S_ij`` depends only on ``(j - i) mod N``), the
    real Fourier basis takes the place of the eigendecomposition, and the
    grouping, rotation and check run once on it.

    The combination is summed over the diagonals and edge weights (see
    :func:`_combination`).  Each shift's image is ``rows @ S_l`` (see
    :class:`ShiftMatrix`) and its norm comes from its edge weights.  The
    images are the basis' only check against the shifts.

    Raises
    ------
    ValueError
        If the shifts do not commute.
    DiagonalizationError
        If no draw passes the residual check.
    """
    if not isinstance(shifts, ShiftSet):
        shifts = ShiftSet(tuple(shifts))
    rng = np.random.default_rng(_DRAW_SEED)
    worst_seen = np.inf
    fourier = _fourier_rows(shifts)
    norms = np.array([s._frobenius_norm() for s in shifts])
    for draws in range(1, DIAGONALIZATION_DRAWS + 1):
        # row n of `rows` is eigenvector n, and row n of images[l] is S_l u_n
        # (the shifts are symmetric), so a group's vectors are contiguous rows
        rows = fourier if fourier is not None else _eigenvector_rows(shifts, rng)
        images = [rows @ s for s in shifts]
        groups = _tie_groups(_row_eigenvalues(rows, images))
        _rotate_tied_groups(groups, rows, images)
        lams = _row_eigenvalues(rows, images)
        residuals = np.array([_residual_norm(im, lam, rows) for im, lam in zip(images, lams)])
        del images
        rel = residuals / np.where(norms > 0, norms, 1.0)
        worst_seen = min(worst_seen, float(rel.max()))
        if np.all(residuals <= DIAGONALIZATION_REL * norms):
            order = np.concatenate(groups)
            u = _sign_normalize(rows[order].T)
            lams = np.ascontiguousarray(lams[:, order])
            ends = np.cumsum([len(g) for g in groups])
            u.flags.writeable = False
            lams.flags.writeable = False
            return SpectralDecomposition(
                basis=u,
                eigenvalues=lams,
                groups=tuple(range(e - len(g), e) for g, e in zip(groups, ends)),
                min_spectral_gap=_min_distance(lams.T),
                max_residual=float(rel.max()),
                shifts=shifts,
            )
        if fourier is not None or len(shifts) == 1:
            break
    raise DiagonalizationError(
        f"no common eigenbasis within tolerance {DIAGONALIZATION_REL:.1e} "
        f"after {draws} draw{'s' if draws > 1 else ''} "
        f"(best relative residual {worst_seen:.3e})"
    )


def _signals(x, n: int, what: str) -> np.ndarray:
    """One signal through :func:`~gsis.graphs._signal`, or an (N, K) block through :func:`~gsis.graphs._matrix`."""
    v = _values(x, what)
    return _signal(v, n, what) if v.ndim < 2 else _matrix(v, (n, None), what)


def gft(decomp: SpectralDecomposition, x) -> np.ndarray:
    """Graph Fourier transform ``x_hat = U.T x`` (accepts (N,) or (N, K))."""
    return decomp.basis.T @ _signals(x, decomp.n_vertices, "signal")


def igft(decomp: SpectralDecomposition, x_hat) -> np.ndarray:
    """Inverse transform ``x = U x_hat`` (accepts (N,) or (N, K))."""
    return decomp.basis @ _signals(x_hat, decomp.n_vertices, "x_hat")


def _normalize_coeffs(coeffs: Mapping, n_shifts: int) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for key, value in coeffs.items():
        if not isinstance(key, tuple):
            if n_shifts != 1:
                raise ValueError(f"scalar exponent {key} is ambiguous with {n_shifts} shifts; use a tuple of exponents")
            key = (key,)
        key = tuple(_index(a, "exponents") for a in key)
        if len(key) != n_shifts:
            raise ValueError(f"exponent {key} has length {len(key)}, expected {n_shifts}")
        if any(a < 0 for a in key):
            raise ValueError(f"exponents must be nonnegative, got {key}")
        if not np.isfinite(float(value)):
            raise ValueError(f"filter coefficient of {key} must be finite, got {value!r}")
        out[key] = out.get(key, 0.0) + float(value)
    return out


def _monomial_apply(
    shifts: ShiftSet, alpha: tuple[int, ...], x: np.ndarray, cache: dict
) -> np.ndarray:
    """Apply S_1^a1 ... S_L^aL to x, memoizing partial products."""
    if alpha in cache:
        return cache[alpha]
    if all(a == 0 for a in alpha):
        cache[alpha] = x
        return x
    last = max(l for l, a in enumerate(alpha) if a > 0)
    prev = list(alpha)
    prev[last] -= 1
    v = shifts[last] @ _monomial_apply(shifts, tuple(prev), x, cache)
    cache[alpha] = v
    return v


def apply_polynomial_filter(shifts: ShiftSet, coeffs: Mapping, x) -> np.ndarray:
    """Apply ``H = sum_alpha h_alpha S_1^a1 ... S_L^aL`` to a signal.

    ``coeffs`` maps exponent tuples (or plain ints when there is a single
    shift) to finite real coefficients, and ``x`` is one signal or an
    (N, K) block. The filter is evaluated by repeated shift application,
    memoizing the monomials, so a degree-d polynomial in one shift costs d
    applications.
    """
    vals = _signals(x, shifts[0].n_vertices, "signal")
    cmap = _normalize_coeffs(coeffs, len(shifts))
    cache: dict = {}
    out = np.zeros_like(vals)
    for alpha, h in cmap.items():
        out = out + h * _monomial_apply(shifts, alpha, vals, cache)
    return out


def is_polynomial_filter(h_matrix: np.ndarray, shifts: ShiftSet) -> bool:
    """Test whether a matrix commutes with every shift in the set.

    Each commutator ``||H S_l - S_l H||_F`` must be at most
    ``MATRIX_REL * max(1, ||H||_F * max(1, max_l ||S_l||_F))``.  When the
    joint eigenvalue vectors are pairwise distinct this is equivalent to H
    being a polynomial in the shifts.  When they repeat (see
    ``SpectralDecomposition.assumption1_holds``), a commuting matrix may
    mix the vectors inside a repeated eigenspace and then falls outside the
    polynomial algebra, so True only means that H commutes.
    """
    h = _matrix(h_matrix, (shifts.n_vertices,) * 2, "filter")
    scale = max(s._frobenius_norm() for s in shifts)
    worst = max(float(np.linalg.norm(h @ s - s @ h)) for s in shifts)
    return worst <= MATRIX_REL * max(1.0, float(np.linalg.norm(h)) * max(1.0, scale))


def graded_multi_indices(n_shifts: int, max_total: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= max_total, graded then lexicographic; both counts follow the count rule."""
    n_shifts, max_total = _index(n_shifts, "n_shifts"), _index(max_total, "max_total")
    if n_shifts < 1:
        raise ValueError(f"n_shifts must be positive, got {n_shifts}")

    def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    out: list[tuple[int, ...]] = []
    for total in range(max_total + 1):
        out.extend(compositions(total, n_shifts))
    return out
