"""Incremental Gram-Schmidt under an optional sampling-weighted inner product.

The inner product is ``<x, y> = (W x) . (W y)`` for a weight matrix W (the
identity when W is None).  Candidates whose weighted norm collapses after
orthogonalization are classified as dependent; a candidate that keeps a
large euclidean norm while its weighted norm collapses witnesses a
direction invisible to W.

For a genuine weight the basis keeps two coupled streams: a euclidean
orthonormal basis of the accepted span (used to represent signals, so no
stored vector ever exceeds unit norm) and an orthonormal basis of the
weighted images (used to fit observations).  The upper-triangular matrix R
with ``W U = P R`` links the two; its condition number is that of W
restricted to the span, independent of how ill-conditioned the candidate
sequence itself was.  Fitting in P-coordinates and solving the small
triangular system therefore stays accurate even when the candidates are
nearly dependent, where normalizing n-vectors by their weighted norm would
amplify roundoff into directions the weight cannot see.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OrthogonalBasis", "ADDED", "DEPENDENT", "INVISIBLE", "DROP_REL", "INVISIBLE_REL"]

ADDED = "added"
DEPENDENT = "dependent"
INVISIBLE = "invisible"

DROP_REL = 1e-10  # dependent: orthogonalized weighted norm <= DROP_REL * largest raw one
INVISIBLE_REL = 1e-6  # invisible: dropped, yet euclidean remainder > INVISIBLE_REL * largest norm


def _doubled(a: np.ndarray) -> np.ndarray:
    """Column-major copy of ``a`` with twice its columns, the new ones unset."""
    out = np.empty((a.shape[0], 2 * a.shape[1]), order="F")
    out[:, : a.shape[1]] = a
    return out


class OrthogonalBasis:
    """Growing orthonormal basis with vectorized two-pass reorthogonalization.

    Parameters
    ----------
    n : int
        Ambient dimension of the vectors.
    weight : (M, N) ndarray or SamplingScheme, optional
        Weight matrix defining the inner product, or a sampling scheme whose
        ``matrix`` is that weight; None means euclidean. A subset scheme's
        weight is applied as the gather ``v[scheme.vertices]``, which equals
        the product with its 0/1 rows bit for bit; any other weight is a
        dense product.

    Candidates are classified by the thresholds :data:`DROP_REL` and
    :data:`INVISIBLE_REL`.

    Both streams are stored column-major, so ``basis`` and ``images`` are
    contiguous blocks that every projection reads with unit stride; row-major
    storage would stride each row by the buffer's capacity.
    """

    def __init__(self, n: int, weight=None):
        self.n = int(n)
        if getattr(weight, "provenance", None) == "subset":
            self._rows = np.array(weight.vertices)  # the weight is the gather v[rows]
            m = weight.n_samples
        else:
            self._rows = None
            weight = getattr(weight, "matrix", weight)
            weight = None if weight is None else np.asarray(weight, dtype=float)
            m = self.n if weight is None else weight.shape[0]
        self.weight = weight
        self._u = np.empty((self.n, 8), order="F")
        self._p = self._u if self.weight is None else np.empty((m, 8), order="F")
        self._r = None if self.weight is None else np.zeros((8, 8))
        self.dim = 0
        self._max_weighted = 0.0
        self._max_euclid = 0.0

    @property
    def basis(self) -> np.ndarray:
        """(N, dim) euclidean-orthonormal matrix spanning the accepted vectors."""
        return self._u[:, : self.dim]

    @property
    def images(self) -> np.ndarray:
        """(M, dim) orthonormal basis of the weighted images of the span."""
        return self._p[:, : self.dim]

    def _grow(self) -> None:
        if self.dim == self._u.shape[1]:
            self._u = _doubled(self._u)
            self._p = self._u if self.weight is None else _doubled(self._p)
            if self._r is not None:
                self._r = np.pad(self._r, (0, self.dim))

    def try_add(self, v: np.ndarray) -> str:
        """Orthogonalize v against the basis and add it if independent.

        Returns one of ``ADDED``, ``DEPENDENT``, ``INVISIBLE``.
        """
        v = np.array(v, dtype=float)
        self._max_euclid = max(self._max_euclid, float(np.linalg.norm(v)))
        if self.weight is None:
            self._max_weighted = self._max_euclid
            if self.dim:
                u = self.basis
                for _ in range(2):
                    v -= u @ (u.T @ v)
            norm_v = float(np.linalg.norm(v))
            if norm_v <= DROP_REL * self._max_weighted:
                return DEPENDENT
            self._grow()
            self._u[:, self.dim] = v / norm_v
            self.dim += 1
            return ADDED

        w = self.weight @ v if self._rows is None else v[self._rows]
        self._max_weighted = max(self._max_weighted, float(np.linalg.norm(w)))
        k = self.dim
        gamma, alpha = np.zeros(k), np.zeros(k)
        if k:
            u, p = self.basis, self.images
            for _ in range(2):
                c = p.T @ w
                w -= p @ c
                gamma += c
                c = u.T @ v
                v -= u @ c
                alpha += c
        norm_w = float(np.linalg.norm(w))
        if norm_w <= DROP_REL * self._max_weighted:
            if float(np.linalg.norm(v)) > INVISIBLE_REL * max(self._max_euclid, 1e-300):
                return INVISIBLE
            return DEPENDENT
        # a weighted-independent candidate is euclidean-independent, since
        # ||W r|| <= ||W|| ||r|| for the orthogonalized remainder r
        norm_v = float(np.linalg.norm(v))
        self._grow()
        self._u[:, k] = v / norm_v
        self._p[:, k] = w / norm_w
        self._r[:k, k] = (gamma - self._r[:k, :k] @ alpha) / norm_v
        self._r[k, k] = norm_w / norm_v
        self.dim += 1
        return ADDED

    def expansion_coefficients(self, y: np.ndarray, start: int = 0) -> np.ndarray:
        """Projections of y onto the image columns ``start:`` (fit coordinates)."""
        return self._p[:, start : self.dim].T @ np.asarray(y, dtype=float)

    def evaluate(self, coefficients: np.ndarray) -> np.ndarray:
        """Signal whose weighted image is ``images[:, :k] @ coefficients``.

        ``coefficients`` is a (k,) vector or a (k, K) block with ``k <= dim``:
        the leading k columns are the basis as it stood after k additions,
        with the leading k x k block of R as their link.  With no weight the
        fit coordinates are the representation coordinates themselves.
        """
        c = np.asarray(coefficients, dtype=float)
        k = c.shape[0]
        if k > self.dim:
            raise ValueError(f"{k} coefficients for a basis of dimension {self.dim}")
        if self.weight is None:
            return self._u[:, :k] @ c
        return self._u[:, :k] @ np.linalg.solve(self._r[:k, :k], c)
