"""Joint spectral analysis of commuting shift families.

Commuting symmetric shifts share an orthonormal eigenbasis U.  The basis is
found by eigendecomposing one random linear combination of the shifts and
verifying that it diagonalizes every member; degenerate combinations are
redrawn.  Tied joint eigenvalues are grouped once, and the basis inside each
group is fixed by the shifts alone, so it does not depend on the draw.
U defines the graph Fourier transform x_hat = U.T x, under which
every shift acts as multiplication by its eigenvalue sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import DiagonalizationError
from .graphs import MATRIX_REL, ShiftMatrix, ShiftSet, _index_set, _values, frobenius_tol

__all__ = [
    "SpectralDecomposition",
    "diagonalize_simultaneously",
    "gft",
    "igft",
    "apply_polynomial_filter",
    "polynomial_filter_matrix",
    "is_polynomial_filter",
    "lagrange_projector",
    "graded_multi_indices",
    "DIAGONALIZATION_REL",
    "DIAGONALIZATION_DRAWS",
    "DISTINCT_REL",
]

DIAGONALIZATION_REL = 1e-9  # accepted residual ||S U - U diag||_F / ||S||_F per shift
DIAGONALIZATION_DRAWS = 8  # random combinations tried before giving up
DISTINCT_REL = 1e-8  # tie gap, relative to the joint spectrum's bounding-box diagonal


@dataclass(frozen=True)
class SpectralDecomposition:
    """Common eigenstructure of a commuting shift family.

    :meth:`eigenvalues_of` is the one way to read the spectrum of another
    matrix that commutes with the family (a combined shift, a state matrix,
    a kernel base): it checks that the basis diagonalizes the matrix and
    returns its eigenvalue on each column.

    Attributes
    ----------
    basis : (N, N) ndarray
        Orthogonal matrix whose columns are the common eigenvectors, ordered
        group by group and so ascending in the first shift's eigenvalue, and
        sign-normalized so the first entry of each column with magnitude
        above 1e-8 is positive.  Inside a group the columns diagonalize
        ``U_g.T diag(0, ..., N - 1) U_g`` in ascending order, so they depend
        on the shifts alone and not on the seed (a generated space's adapted
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

    @property
    def joint_spectrum(self) -> np.ndarray:
        """(N, L) array whose row n is the joint eigenvalue vector of column n."""
        return self.eigenvalues.T

    def eigenvalues_of(self, matrix: ShiftMatrix | np.ndarray, what: str) -> np.ndarray:
        """Eigenvalue of ``matrix`` on each basis column.

        Raises
        ------
        ValueError
            If the residual ``||M U - U diag(lambda)||_F`` exceeds
            ``frobenius_tol(M, 1e-8)``; the message names ``what``.
        """
        mat = matrix.matrix if isinstance(matrix, ShiftMatrix) else np.asarray(matrix, dtype=float)
        u = self.basis
        mu = mat @ u
        lam = np.einsum("ij,ij->j", u, mu)
        # for orthogonal U this is the off-diagonal Frobenius norm of U.T M U
        if np.linalg.norm(mu - u * lam) > frobenius_tol(mat, 1e-8):
            raise ValueError(f"{what} is not diagonalized by the decomposition basis")
        return lam


def _sign_normalize(u: np.ndarray, threshold: float = 1e-8) -> np.ndarray:
    """Flip column signs so the first entry with magnitude > threshold is positive."""
    big = np.abs(u) > threshold
    first = u[big.argmax(axis=0), np.arange(u.shape[1])]
    return np.where(big.any(axis=0) & (first < 0), -u, u)


def _row_eigenvalues(rows: np.ndarray, images: list[np.ndarray]) -> np.ndarray:
    """(L, N) Rayleigh quotients ``u_n . S_l u_n`` from rows ``u_n`` and ``S_l u_n``."""
    return np.array([np.einsum("ij,ij->i", rows, im) for im in images])


def _min_gap(values: np.ndarray) -> float:
    """Smallest distance between two entries of a 1-D array (``inf`` below two entries)."""
    return float(np.diff(np.sort(values)).min(initial=np.inf))


def _min_distance(points: np.ndarray) -> float:
    """Smallest euclidean distance between two rows, compared 256 rows at a time."""
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


def diagonalize_simultaneously(shifts: ShiftSet, *, seed: int = 0) -> SpectralDecomposition:
    """Find one orthonormal basis diagonalizing every shift in the set.

    A random unit combination ``T = sum_l d_l S_l`` is eigendecomposed, its
    columns are grouped by tied joint eigenvalue, and the basis inside each
    group is rotated to the one fixed by the shifts alone (see
    :class:`SpectralDecomposition`). The basis is accepted when every
    per-shift residual ``||S_l U - U diag||_F`` is at most
    :data:`DIAGONALIZATION_REL` times ``||S_l||_F``. A draw of d that
    accidentally merges distinct joint eigenvalues fails that check and is
    redrawn, up to :data:`DIAGONALIZATION_DRAWS` draws.

    Raises
    ------
    ValueError
        If the shifts do not commute.
    DiagonalizationError
        If no draw passes the residual check.
    """
    if not isinstance(shifts, ShiftSet):
        shifts = ShiftSet(tuple(shifts))
    mats = [s.matrix for s in shifts]
    norms = np.array([np.linalg.norm(m) for m in mats])
    rng = np.random.default_rng(seed)
    ramp = np.arange(shifts.n_vertices, dtype=float)
    worst_seen = np.inf
    for _ in range(DIAGONALIZATION_DRAWS):
        if shifts.n_shifts == 1:
            combo = mats[0]
        else:
            d = rng.standard_normal(shifts.n_shifts)
            d /= np.linalg.norm(d)
            combo = sum(dl * m for dl, m in zip(d, mats))
        # row n of `rows` is eigenvector n, and row n of images[l] is S_l u_n
        # (the shifts are symmetric), so a group's vectors are contiguous rows
        rows = np.linalg.eigh(combo)[1].T.copy()
        del combo
        images = [rows @ m for m in mats]
        groups = _tie_groups(_row_eigenvalues(rows, images))
        for size in {len(g) for g in groups} - {1}:
            idx = np.array([g for g in groups if len(g) == size])
            block = rows[idx]
            qt = np.linalg.eigh((block * ramp) @ block.transpose(0, 2, 1))[1].transpose(0, 2, 1)
            for a in (rows, *images):
                a[idx] = qt @ a[idx]
        lams = _row_eigenvalues(rows, images)
        for im, lam in zip(images, lams):
            im -= lam[:, None] * rows
        residuals = np.array([np.linalg.norm(im) for im in images])
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
        if shifts.n_shifts == 1:
            break
    raise DiagonalizationError(
        f"no common eigenbasis within tolerance {DIAGONALIZATION_REL:.1e} "
        f"after {DIAGONALIZATION_DRAWS} draws "
        f"(best relative residual {worst_seen:.3e})"
    )


def gft(decomp: SpectralDecomposition, x) -> np.ndarray:
    """Graph Fourier transform ``x_hat = U.T x`` (accepts (N,) or (N, K))."""
    return decomp.basis.T @ _values(x)


def igft(decomp: SpectralDecomposition, x_hat) -> np.ndarray:
    """Inverse transform ``x = U x_hat``."""
    return decomp.basis @ np.asarray(x_hat, dtype=float)


def _normalize_coeffs(
    coeffs: Mapping, n_shifts: int
) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for key, value in coeffs.items():
        if isinstance(key, (int, np.integer)):
            if n_shifts != 1:
                raise ValueError(
                    f"scalar exponent {key} is ambiguous with {n_shifts} shifts; "
                    "use a tuple of exponents"
                )
            key = (int(key),)
        else:
            key = tuple(int(a) for a in key)
        if len(key) != n_shifts:
            raise ValueError(f"exponent {key} has length {len(key)}, expected {n_shifts}")
        if any(a < 0 for a in key):
            raise ValueError(f"exponents must be nonnegative, got {key}")
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
    shift) to real coefficients. The filter is evaluated by repeated shift
    application, memoizing the monomials, so a degree-d polynomial in one
    shift costs d applications.
    """
    vals = _values(x)
    cmap = _normalize_coeffs(coeffs, shifts.n_shifts)
    cache: dict = {}
    out = np.zeros_like(vals)
    for alpha, h in cmap.items():
        out = out + h * _monomial_apply(shifts, alpha, vals, cache)
    return out


def polynomial_filter_matrix(shifts: ShiftSet, coeffs: Mapping) -> np.ndarray:
    """Dense matrix of the polynomial filter, built by shift application."""
    return apply_polynomial_filter(shifts, coeffs, np.eye(shifts.n_vertices))


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
    h = np.asarray(h_matrix, dtype=float)
    n = shifts.n_vertices
    if h.shape != (n, n):
        raise ValueError(f"filter of shape {h.shape} on {n} vertices")
    scale = max(float(np.linalg.norm(s.matrix)) for s in shifts)
    tol = MATRIX_REL * max(1.0, float(np.linalg.norm(h)) * max(1.0, scale))
    return all(
        np.linalg.norm(h @ s.matrix - s.matrix @ h) <= tol for s in shifts
    )


def lagrange_projector(decomp: SpectralDecomposition, n: int) -> np.ndarray:
    """Rank-one projector ``u_n u_n.T`` onto the n-th eigenvector.

    When the joint eigenvalues are pairwise distinct this equals the
    interpolating polynomial of the shifts that is 1 at eigenvalue n and 0
    elsewhere; without distinctness it is still a valid projector but has
    no polynomial representation.
    """
    (n,) = _index_set([n], decomp.n_vertices, "eigenvector index")
    u = decomp.basis[:, n]
    return np.outer(u, u)


def graded_multi_indices(n_shifts: int, max_total: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= max_total, graded then lexicographic."""

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
