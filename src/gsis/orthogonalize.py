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

A subset scheme (one with ``vertices``) is an isometry on the signals that
vanish off its vertices.  While the span and a candidate both do, the
weighted stream only recomputes the euclidean one: the image of the new
column is its sampled rows and R gains a column of the identity.  Such a
candidate runs the euclidean passes alone; the basis runs both streams
from the first column stored with a nonzero on an unsampled vertex on.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .graphs import _index, _matrix

__all__ = ["OrthogonalBasis", "ADDED", "DEPENDENT", "INVISIBLE", "DROP_REL", "INVISIBLE_REL"]

ADDED = "added"
DEPENDENT = "dependent"
INVISIBLE = "invisible"

DROP_REL = 1e-10  # dependent: orthogonalized weighted norm <= DROP_REL * largest raw one
INVISIBLE_REL = 1e-6  # invisible: dropped, yet euclidean remainder > INVISIBLE_REL * largest norm
# Row ranges start and end on multiples of _BLOCK (or at the last row), so the
# BLAS kernels, which unroll by up to 32 rows, group the nonzeros of a range
# into the same partial sums as those of the full column: the range drops only
# exact-zero terms and leaves every result bit for bit as the full-row product.
_BLOCK = 32


def _doubled(a: np.ndarray, rows: slice) -> np.ndarray:
    """Column-major copy of ``a``, zero off ``rows``, with twice its columns, the new ones zero.

    Only ``rows`` are written, so the fresh buffer's other pages stay untouched.
    """
    out = np.zeros((a.shape[0], 2 * a.shape[1]), order="F")
    out[rows, : a.shape[1]] = a[rows]
    return out


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector: the ``sqrt(x . x)`` of ``np.linalg.norm``, without its overhead."""
    return math.sqrt(x.dot(x))


def _span(rows: np.ndarray, first: int, lo: int, hi: int, size: int) -> tuple[int, int]:
    """Smallest whole-``_BLOCK`` range of ``size`` rows holding ``[lo, hi)`` and the sorted ``rows`` from ``first``."""
    if rows.size == 0:
        return lo, hi
    start = (first + int(rows[0])) // _BLOCK * _BLOCK
    end = min(((first + int(rows[-1])) // _BLOCK + 1) * _BLOCK, size)
    return min(lo, start), max(hi, end)


class OrthogonalBasis:
    """Growing orthonormal basis with vectorized two-pass reorthogonalization.

    Parameters
    ----------
    n : int
        Ambient dimension of the vectors.
    weight : (M, N) array-like or SamplingScheme, optional
        Weight defining the inner product, applied to a candidate as
        ``weight @ v``; None means euclidean.  An array-like weight must be a
        finite (M, N) matrix, converted to float once; any other weight (a
        sampling scheme) needs only ``shape`` and ``@`` and applies itself.
        A weight whose ``shape[1]`` is not n raises ``ValueError``.

    Candidates are classified by the thresholds :data:`DROP_REL` and
    :data:`INVISIBLE_REL`.

    Both streams are stored column-major, so ``basis`` and ``images`` are
    contiguous blocks that every projection reads with unit stride; row-major
    storage would stride each row by the buffer's capacity.

    Each stream keeps the row range outside which all its columns are
    exactly zero (the buffers start zeroed).  A candidate widens the range
    to cover its own nonzeros, and the passes, norms and stores read only
    those rows, dropping nothing but exact-zero terms: O(rows x dim) per
    pass (rows x the columns from ``_start`` on for a euclidean pass)
    while the span stays local in the vertex labels (a delta on a
    circulant, a path or a row-major grid); a dense candidate, or an
    arbitrary labelling, soon makes it every row.  The range only grows, so
    a column stored after ``dim`` is lowered overwrites every row the
    dropped column could have used.  :meth:`_offer` takes just the rows a
    candidate can be nonzero on (a chain's shift window), :meth:`try_add`
    an (N,) copy; only a two-stream ``weight @ v`` reads all N rows.

    One stream: under a weight with ``vertices`` (a subset scheme, sorted
    distinct vertices), while no stored column is nonzero on an unsampled
    vertex, a candidate with no nonzero there runs only the euclidean
    passes.  The weight is an isometry on such signals, so the candidate is
    dependent exactly when its euclidean remainder drops (it cannot be
    invisible), its image column is the new basis column's sampled rows and
    its column of R is the identity's: ``images`` is ``basis[vertices]``
    and R is I, which the two streams give in exact arithmetic.  The
    euclidean passes read the same operands on either, so U is bit for bit
    the two streams' U; the images and R agree to roundoff only, since the
    weighted passes read every column while a chain level's euclidean
    passes skip the early ones (``_start``; see
    :class:`~gsis.spaces.KrylovChain`).  The first column stored with a
    nonzero on an unsampled vertex switches the basis to both streams for
    good.

    So while every offered candidate vanishes off the scheme's vertices,
    the basis does not depend on its subset scheme: each decision reads
    the euclidean stream and the largest offered norm alone, and the scheme
    only names the rows ``images`` reads.  Under another subset scheme off
    whose vertices those candidates vanish too, the same offers build the
    same U, row range and largest norms, with ``images`` that scheme's
    ``basis[vertices]`` and R the identity; :meth:`_copy_under` builds that
    basis from this one.
    """

    def __init__(self, n: int, weight=None):
        self.n = _index(n, "n")
        if weight is not None and (isinstance(weight, np.ndarray) or not hasattr(weight, "__matmul__")):
            weight = _matrix(weight, (None, self.n), "weight")
        if weight is not None and weight.shape[1] != self.n:
            raise ValueError(f"weight of shape {tuple(weight.shape)}, expected (any, {self.n})")
        self.weight = weight
        m = self.n if weight is None else weight.shape[0]
        self._u = np.zeros((self.n, 8), order="F")
        self._p = self._u if self.weight is None else np.zeros((m, 8), order="F")
        self._r = None if self.weight is None else np.zeros((8, 8))
        self.dim = 0
        # no basis column is nonzero outside the rows [lo, hi), nor, under a weight, an image column outside [plo, phi)
        self._lo, self._hi, self._plo, self._phi = self.n, 0, m, 0
        self._max_weighted = 0.0
        self._max_euclid = 0.0
        self._start = 0  # the euclidean passes read the columns from here on (set by a chain's level)
        # a subset scheme's vertices while every stored column vanishes off them, else None
        vertices = getattr(weight, "vertices", None)
        self._take = None if vertices is None else np.array(vertices, dtype=np.intp)
        if self._take is not None:
            self._unsampled = np.ones(self.n, dtype=bool)
            self._unsampled[self._take] = False

    @property
    def basis(self) -> np.ndarray:
        """(N, dim) euclidean-orthonormal matrix spanning the accepted vectors."""
        return self._u[:, : self.dim]

    @property
    def images(self) -> np.ndarray:
        """(M, dim) orthonormal basis of the weighted images of the span."""
        return self._p[:, : self.dim]

    def _grow(self) -> None:
        """Double the full buffers, copying only the live row ranges of U and P, off which they are zero."""
        if self.dim == self._u.shape[1]:
            self._u = _doubled(self._u, slice(self._lo, self._hi))
            self._p = self._u if self.weight is None else _doubled(self._p, slice(self._plo, self._phi))
            if self._r is not None:
                r = np.zeros((2 * self.dim, 2 * self.dim))  # only the old block is written, as in _doubled
                r[: self.dim, : self.dim] = self._r
                self._r = r

    def try_add(self, v: np.ndarray) -> str:
        """Orthogonalize v against the basis and add it if independent.

        Returns one of ``ADDED``, ``DEPENDENT``, ``INVISIBLE``.

        Raises
        ------
        ValueError
            If v is not an (N,) vector, or is not finite (a NaN, an
            infinity, or entries whose norm overflows; numpy may warn of
            the overflow first), before the basis changes.
        """
        v = np.array(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"candidate of shape {v.shape}, expected ({self.n},)")
        return self._offer(v, 0)

    def _offer(self, values: np.ndarray, first: int) -> str:
        """:meth:`try_add` of the candidate that is ``values`` from row ``first`` on, else zero; may overwrite values."""
        nonzero = values.nonzero()[0]  # counted from first
        lo, hi = _span(nonzero, first, self._lo, self._hi, self.n)
        if first <= lo and hi <= first + values.size:
            vs = values[lo - first : hi - first]  # a view: the candidate is zero outside these rows
        else:  # the rows [lo, hi) hold every nonzero; the rest of them are zero
            vs = np.zeros(hi - lo)
            a = max(lo, first)
            b = max(a, min(hi, first + values.size))
            vs[a - lo : b - lo] = values[a - first : b - first]
        try:
            raw = _norm(vs)
        except (RuntimeWarning, FloatingPointError):  # numpy's overflow, under warnings as errors or np.errstate
            raw = math.inf
        if not math.isfinite(raw):
            raise ValueError("candidate is not finite, or its norm overflows")
        self._max_euclid = max(self._max_euclid, raw)
        k, plo, phi = self.dim, self._plo, self._phi
        # count_nonzero, not .any(): the method's Python wrapper costs as much as the gather
        two = self.weight is not None and (self._take is None or np.count_nonzero(self._unsampled[first:][nonzero]) > 0)
        start = self._start
        streams = [(vs, self._u[lo:hi, start:k])]
        if two:
            v = np.zeros(self.n)
            v[lo:hi] = vs
            w = self.weight @ v
            plo, phi = _span(w.nonzero()[0], 0, plo, phi, len(w))
            ws = w[plo:phi]
            streams.insert(0, (ws, self._p[plo:phi, :k]))
            self._max_weighted = max(self._max_weighted, _norm(ws))
        else:  # the weighted norm of a candidate that vanishes off the samples is its euclidean norm
            self._max_weighted = self._max_euclid if self.weight is None else max(self._max_weighted, raw)
        coefficients = []  # two rounds: g1, a1, g2, a2 on two streams, a1, a2 on one
        for x, b in streams * 2:
            coefficients.append(b.T @ x)
            x -= b @ coefficients[-1]
        norm_v = _norm(vs)
        norm_w = _norm(ws) if two else norm_v
        if norm_w <= DROP_REL * self._max_weighted:
            # never invisible on one stream: there norm_w is norm_v, and no weighted norm exceeds its euclidean one
            invisible = INVISIBLE_REL * max(self._max_euclid, 1e-300)
            if start and norm_v > invisible:  # what looks invisible may sit on the columns the passes skipped
                b = self._u[lo:hi, :start]  # one pass: only the remainder's norm is read, against a 1e-6 threshold
                vs -= b @ (b.T @ vs)
                norm_v = _norm(vs)
            return INVISIBLE if norm_v > invisible else DEPENDENT
        # a weighted-independent candidate is euclidean-independent, since
        # ||W r|| <= ||W|| ||r|| for the orthogonalized remainder r
        self._grow()
        self._u[lo:hi, k] = vs / norm_v
        if two:
            g1, a1, g2, a2 = coefficients
            self._p[plo:phi, k] = ws / norm_w
            self._r[:k, k] = (g1 + g2 - self._r[:k, start:k] @ (a1 + a2)) / norm_v
            self._r[k, k] = norm_w / norm_v
            self._take = None  # the new column is nonzero where v was on an unsampled vertex
        elif self.weight is not None:  # one stream: the image is the column's sampled rows, R's column I's
            ends = self._take.searchsorted((first + nonzero[0], first + nonzero[-1]))
            plo, phi = _span(ends, 0, plo, phi, len(self._take))  # the rows' ends are all _span reads
            self._p[plo:phi, k] = self._u[self._take[plo:phi], k]
            self._r[:k, k] = 0.0  # written, not assumed: column k may hold a dropped column's entries
            self._r[k, k] = 1.0
        self._lo, self._hi, self._plo, self._phi = lo, hi, plo, phi
        self.dim += 1
        return ADDED

    def _copy_under(self, weight):
        """A copy of this one-stream basis as a basis under the subset scheme ``weight`` holds it, or None.

        It is that basis when every candidate offered so far vanished off
        the vertices of both schemes.  Only the stored columns are checked
        here, since a dropped candidate leaves none; the caller vouches for
        the dropped ones (:meth:`gsis.spaces.KrylovChain._copy_under`).
        None, and this basis unchanged, unless this basis runs one stream
        under a subset scheme and every stored column vanishes off the
        vertices of ``weight``, a subset scheme.  The copy shares nothing
        that either basis writes, and its buffers are written on the stored
        rows only, as in :meth:`_grow`.
        """
        vertices = getattr(weight, "vertices", None)
        if self._take is None or vertices is None:
            return None
        take = np.array(vertices, dtype=np.intp)
        lo, hi, k = self._lo, self._hi, self.dim
        rows = lo + np.flatnonzero(self._u[lo:hi, :k].any(axis=1))  # every row a stored column is nonzero on
        unsampled = np.ones(self.n, dtype=bool)
        unsampled[take] = False
        if np.count_nonzero(unsampled[rows]):
            return None
        out = copy.copy(self)
        out.weight, out._take, out._unsampled = weight, take, unsampled
        out._u = np.zeros(self._u.shape, order="F")
        out._u[lo:hi, :k] = self._u[lo:hi, :k]
        # the image range a column-by-column build reaches: it spans the first and last row
        # of each added candidate, and those rows' extremes are the stored columns' own
        ends = take.searchsorted(rows[[0, -1]]) if rows.size else rows
        plo, phi = out._plo, out._phi = _span(ends, 0, len(take), 0, len(take))
        out._p = np.zeros((len(take), self._u.shape[1]), order="F")
        out._p[plo:phi, :k] = self._u[take[plo:phi], :k]
        out._r = np.eye(self._u.shape[1])
        return out

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
        if self.weight is not None and self._take is None:  # on one stream R is the identity: nothing to solve
            c = np.linalg.solve(self._r[:k, :k], c)
        out = np.zeros((self.n,) + c.shape[1:])
        out[self._lo : self._hi] = self._u[self._lo : self._hi, :k] @ c
        return out
