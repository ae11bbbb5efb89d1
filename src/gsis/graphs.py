"""Undirected weighted graphs and the symmetric shift matrices that live on them.

A shift matrix is any real symmetric matrix whose off-diagonal support is
contained in the edge set of its graph.  Families of shifts that pairwise
commute share a common eigenbasis and are grouped in a :class:`ShiftSet`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateGraphError

__all__ = [
    "Graph",
    "Signal",
    "ShiftMatrix",
    "ShiftSet",
    "CommutativityCheck",
    "build_standard_shifts",
    "build_circulant",
    "check_commutative",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "read_edge_list",
    "write_edge_list",
    "frobenius_tol",
    "SHIFT_KINDS",
    "MATRIX_REL",
]

SHIFT_KINDS = ("adjacency", "laplacian", "normalized_laplacian")

MATRIX_REL = 1e-10  # relative tolerance of symmetry, edge support, commutation and invariance


def frobenius_tol(matrix: np.ndarray, rel: float = MATRIX_REL) -> float:
    """Absolute tolerance for matrix checks: ``rel * max(1, ||M||_F)``."""
    return rel * max(1.0, float(np.linalg.norm(matrix)))


def _values(x) -> np.ndarray:
    """Float array of a signal-like input: a Signal's or Observation's ``values``, else ``x``."""
    return np.asarray(getattr(x, "values", x), dtype=float)


def _signal(x, n: int, what: str) -> np.ndarray:
    """:func:`_values` of ``x`` as one vector, checked to hold ``n`` finite values; errors name ``what``."""
    v = _values(x).reshape(-1)
    if v.shape[0] != n:
        raise ValueError(f"{what} of length {v.shape[0]}, expected {n}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} must be finite")
    return v


def _matrix(m, shape: tuple[int | None, int | None], what: str) -> np.ndarray:
    """Float 2-D array of ``m``, checked to have ``shape`` (None: any length) and finite entries; errors name ``what``."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or any(k is not None and k != got for k, got in zip(shape, a.shape)):
        expected = ", ".join("any" if k is None else str(k) for k in shape)
        raise ValueError(f"{what} of shape {a.shape}, expected ({expected})")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite")
    return a


def _index(k, what: str) -> int:
    """``k`` as an int; integral floats such as ``2.0`` pass, ``1.7`` and non-numbers such as ``None`` raise."""
    try:
        i = int(k)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != k:
        raise ValueError(f"{what} must be integers, got {k!r}")
    return i


def _seed(seed) -> int:
    """``seed`` as an int, checked to be a nonnegative integer (an integral float does not pass)."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def _index_set(indices, n: int, what: str) -> list[int]:
    """Sorted distinct integer indices, each checked to be integral and to lie in ``[0, n)``."""
    idx = sorted({_index(k, what) for k in indices})
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError(f"{what} must lie in [0, {n})")
    return idx


def _distinct_index_set(indices, n: int, what: str) -> list[int]:
    """:func:`_index_set` of indices that must not repeat."""
    indices = list(indices)
    idx = _index_set(indices, n, what)
    if len(idx) != len(indices):
        raise ValueError(f"{what} contain repeats")
    return idx


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Finite undirected graph with optional positive edge weights.

    The edges are stored as read-only arrays ``_i < _j`` (intp, sorted by
    ``(_i, _j)``) and ``_w``; equality compares them by value.

    Parameters
    ----------
    n_vertices : int
        Number of vertices (``4.0`` passes, ``4.5`` raises); vertex ids are ``0 .. n_vertices - 1``.
    edges : iterable of (int, int), or an (E, 2) integer array
        Undirected edges. Stored sorted with each pair normalized to
        ``i < j``. Self loops and duplicates are rejected.
    weights : iterable of float, optional
        Positive weights aligned with ``edges``. Omitted means unweighted
        (every edge gets weight 1).
    """

    n_vertices: int
    _i: np.ndarray = field(repr=False)
    _j: np.ndarray = field(repr=False)
    _w: np.ndarray = field(repr=False)

    def __init__(
        self,
        n_vertices: int,
        edges: Iterable[tuple[int, int]] | np.ndarray = (),
        weights: Iterable[float] | None = None,
    ):
        n_vertices = _index(n_vertices, "n_vertices")
        if n_vertices < 1:
            raise ValueError(f"n_vertices must be a positive integer, got {n_vertices!r}")
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ValueError(f"edges must be pairs (i, j), got an array of shape {pairs.shape}")
        if pairs.dtype.kind not in "biu":  # the rule of _index, in one numpy pass
            f = pairs.astype(float)
            bad = np.flatnonzero(~(np.isfinite(f) & (np.trunc(f) == f)))
            if bad.size:
                _index(pairs.item(bad[0]), "edges")  # raises
        i, j = pairs.reshape(-1, 2).astype(np.intp).T
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n_vertices))
        if bad.size:
            e = (int(i[bad[0]]), int(j[bad[0]]))
            if e[0] == e[1]:
                raise ValueError(f"self loop {e} is not allowed")
            raise ValueError(f"edge {e} out of range for {n_vertices} vertices")
        w = np.ones(len(i)) if weights is None else np.fromiter(weights, dtype=float)
        if len(w) != len(i):
            raise ValueError(f"{len(w)} weights for {len(i)} edges")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("edge weights must be finite and positive")
        order = np.lexsort((hi, lo))
        i, j, w = lo[order], hi[order], w[order]
        if np.any((i[1:] == i[:-1]) & (j[1:] == j[:-1])):
            raise ValueError("duplicate edges are not allowed")
        object.__setattr__(self, "n_vertices", n_vertices)
        for name, value in (("_i", i), ("_j", j), ("_w", w)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        same = (np.array_equal(getattr(self, k), getattr(other, k)) for k in ("_i", "_j", "_w"))
        return self.n_vertices == other.n_vertices and all(same)

    def __hash__(self) -> int:
        return hash((self.n_vertices, self._i.tobytes(), self._j.tobytes(), self._w.tobytes()))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges ``(i, j)`` with ``i < j``, sorted; built on first access."""
        return tuple(zip(self._i.tolist(), self._j.tolist()))

    @cached_property
    def weights(self) -> tuple[float, ...]:
        """Edge weights aligned with :attr:`edges`; built on first access."""
        return tuple(self._w.tolist())

    @property
    def n_edges(self) -> int:
        return len(self._i)

    def adjacency(self) -> np.ndarray:
        """Weighted adjacency matrix as a dense symmetric array."""
        a = np.zeros((self.n_vertices, self.n_vertices))
        a[self._i, self._j] = a[self._j, self._i] = self._w
        return a

    def degrees(self) -> np.ndarray:
        """Weighted degree of each vertex (row sums of the adjacency), summed over the edges."""
        i, j, w = self._i, self._j, self._w
        return np.bincount(np.concatenate([i, j]), np.concatenate([w, w]), minlength=self.n_vertices)


@dataclass(frozen=True)
class Signal:
    """Real-valued signal indexed by the vertices of a graph."""

    values: np.ndarray
    graph: Graph

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly(_signal(self.values, self.graph.n_vertices, "signal")))


# The block-apply cost rule (ShiftMatrix._slots_pay).  The slot apply costs about
# (longest row) * N * K, BLAS about N^2 * K.  Measured with K = N (2 cores,
# OpenBLAS, BLAS with its dense copy): at N = 1000 a longest row of 3 took 6 ms
# against 26 ms and 9 entries tied; an 800-vertex Laplacian with 16 lost, 18 ms
# against 16 ms; at N = 2000, 15 entries still won, 116 ms against 142 ms.  The
# rule is N / (longest row) >= _SLOT_RATIO alone: at N = 100 a cycle's three
# entries a row took 0.07 ms by the slots against 0.06 ms by BLAS.
_SLOT_RATIO = 100  # vertices per entry of the longest row at which the slots stop paying
_SLOT_BLOCK = 1 << 15  # values gathered per block by the slot apply (256 KB)


@dataclass(frozen=True, init=False, eq=False)
class ShiftMatrix:
    """Symmetric matrix supported on the diagonal and the edges of a graph.

    A shift is stored as an edge list: its ``diagonal`` and one weight per
    edge of ``graph.edges`` (``edge_weights``, aligned with the edges), so
    it holds O(N + |E|) numbers.  Every entry but ``+0.0`` is kept once
    more, sorted by row (``_rows``, ``_cols``, ``_weights``; row r at
    ``_ptr[r]:_ptr[r+1]``), each row in the order edges i -> j, edges
    j -> i, diagonal; the vector apply, the commutator join and
    ``io.save_shift_csv`` read this list.  ``matrix``, the dense (N, N)
    array, is built on each read and kept by nothing.

    ``ShiftMatrix(matrix, graph)`` checks a dense input against
    ``frobenius_tol(S)`` (relative :data:`MATRIX_REL`) for symmetry and for
    its support, then keeps each edge weight as ``(S_ij + S_ji) / 2`` and
    the diagonal, so sub-tolerance noise outside the edge set is dropped.

    ``S @ x`` on a vector is ``bincount(_rows, _weights * x[_cols])``,
    which costs O(N + 2|E|) instead of O(N^2) and equals ``diag * x +
    bincount`` over the off-diagonal entries alone.  A 2-D operand X takes
    the slot apply or the product with ``matrix``, as the block-apply cost
    rule picks (:meth:`_slots_pay`), and a stacked one always takes
    ``matrix``; ``X @ S`` is ``(S @ X.T).T`` on the slot side, S being
    symmetric.  Slot k holds each row's k-th stored entry; ``S @ X`` adds,
    slot by slot, one gather of rows of X times that slot's weights, so
    every row adds its terms in the vector apply's order and every column
    equals ``S @ X[:, j]`` bit for bit.

    Raises
    ------
    ValueError
        If the shape does not match the graph, an entry is not finite, the
        matrix is not symmetric within tolerance, or an entry outside the
        allowed pattern exceeds tolerance.
    """

    graph: Graph
    diagonal: np.ndarray
    edge_weights: np.ndarray
    _rows: np.ndarray = field(repr=False)
    _cols: np.ndarray = field(repr=False)
    _weights: np.ndarray = field(repr=False)
    _ptr: np.ndarray = field(repr=False)

    def __init__(self, matrix: np.ndarray, graph: Graph):
        n = graph.n_vertices
        s = _matrix(matrix, (n, n), "shift")
        tol = frobenius_tol(s)
        if np.abs(s - s.T).max() > tol:
            raise ValueError("shift matrix is not symmetric within tolerance")
        i, j = graph._i, graph._j
        off = np.abs(s)
        off[i, j] = off[j, i] = 0.0
        np.fill_diagonal(off, 0.0)
        worst = int(off.argmax())
        if off.flat[worst] > tol:
            r, c = np.unravel_index(worst, s.shape)
            raise ValueError(f"nonzero entry at ({r}, {c}) outside the graph's edge set")
        self._store(graph, s.diagonal(), (s[i, j] + s[j, i]) / 2.0)

    @classmethod
    def _from_edges(cls, graph: Graph, diagonal: np.ndarray, edge_weights: np.ndarray) -> "ShiftMatrix":
        """Shift with the given diagonal and edge weights, trusted as exact (no dense checks)."""
        shift = cls.__new__(cls)
        shift._store(graph, diagonal, edge_weights)
        return shift

    def _store(self, graph: Graph, diagonal: np.ndarray, edge_weights: np.ndarray) -> None:
        d, w = _as_readonly(diagonal), _as_readonly(edge_weights)
        i, j, k = graph._i, graph._j, np.arange(graph.n_vertices)
        rows, cols, weights = np.concatenate([i, j, k]), np.concatenate([j, i, k]), np.concatenate([w, w, d])
        # bincount adds in input order, kept by the stable sort: a row sums its edge
        # terms, then adds S_kk x_k, which rounds like diag * x + (the edge sum).  A
        # kept -0.0 adds +-0 to a sum that starts at +0.0, so no finite sum changes.
        kept = np.flatnonzero((weights != 0.0) | np.signbit(weights))
        kept = kept[np.argsort(rows[kept], kind="stable")]
        rows = rows[kept]
        object.__setattr__(self, "graph", graph)
        for name, value in (
            ("diagonal", d),
            ("edge_weights", w),
            ("_rows", rows),
            ("_cols", cols[kept]),
            ("_weights", weights[kept]),
            ("_ptr", np.searchsorted(rows, np.arange(graph.n_vertices + 1))),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def matrix(self) -> np.ndarray:
        """Dense read-only (N, N) array, built on each read and kept by nothing."""
        n = self.n_vertices
        m = np.zeros((n, n))
        i, j = self.graph._i, self.graph._j
        m[i, j] = m[j, i] = self.edge_weights
        np.fill_diagonal(m, self.diagonal)
        m.flags.writeable = False
        return m

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_vertices, self.n_vertices)

    def _frobenius_norm(self) -> float:
        """``||S||_F`` from the diagonal and the edge weights (each edge holds two entries)."""
        d, w = self.diagonal, self.edge_weights
        return math.sqrt(float(d @ d) + 2.0 * float(w @ w))

    def _slots_pay(self) -> bool:
        """The block-apply cost rule: whether a 2-D ``S @ X`` takes the slots rather than BLAS.

        True when the longest row holds at most ``N / _SLOT_RATIO`` stored
        entries (see :data:`_SLOT_RATIO`).
        """
        longest = int(np.diff(self._ptr).max(initial=0))
        return longest * _SLOT_RATIO <= self.n_vertices

    def _slot_apply(self, x: np.ndarray) -> np.ndarray:
        """``S @ X`` for an (N, K) X from the entry list, slot by slot (see the class docstring).

        Slot k adds ``weights_k * X[cols_k]`` onto the rows that hold a k-th
        entry, starting from +0.0 as ``bincount`` does.  A shorter row is left
        out of the slots it lacks, so no padded ``0 * x`` (NaN for an infinite
        x) enters a sum.  The work runs on ``X.T`` in blocks of about
        :data:`_SLOT_BLOCK` values, so nothing of the result's size is held
        beside it; the result is the transpose of a C-ordered array, and an
        F-ordered X, such as ``rows.T``, is read without a copy.  A complex X
        takes its real and imaginary parts one after the other.
        """
        x = np.asarray(x)
        if np.iscomplexobj(x):
            return self._slot_apply(x.real) + 1j * self._slot_apply(x.imag)
        x = x.astype(float, copy=False)
        n, k = self.n_vertices, x.shape[1]
        if x.shape[0] != n:
            raise ValueError(f"operand with {x.shape[0]} rows for a shift on {n} vertices")
        counts = np.diff(self._ptr)
        slots = []
        for slot in range(int(counts.max(initial=0))):
            rows = np.flatnonzero(counts > slot)
            at = self._ptr[rows] + slot
            slots.append((rows, self._cols[at], self._weights[at]))
        out = np.zeros((k, n))
        step = max(1, _SLOT_BLOCK // n)
        buf = np.empty((min(step, k), n))
        for lo in range(0, k, step):
            src = np.ascontiguousarray(x[:, lo : lo + step].T)  # a view when x is F-ordered
            acc, part = out[lo : lo + step], buf[: len(src)]
            for rows, cols, w in slots:
                if len(rows) == n:
                    np.take(src, cols, axis=1, out=part, mode="clip")  # every column is in range
                    part *= w
                    acc += part
                else:
                    acc[:, rows] += src[:, cols] * w
        return out.T

    # numpy defers ``ndarray @ shift`` to __rmatmul__ instead of broadcasting over the shift
    __array_ufunc__ = None

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        """``S @ x``: edge-list apply for a vector; slots for a 2-D X the cost rule gives them; else ``matrix @ x``."""
        x = np.asarray(other)
        if x.ndim != 1:
            return self._slot_apply(x) if x.ndim == 2 and self._slots_pay() else self.matrix @ x
        n = self.n_vertices
        if x.shape[0] != n:
            raise ValueError(f"vector of length {x.shape[0]} for a shift on {n} vertices")
        # with no stored entry bincount returns int zeros, whatever the weights' dtype
        return np.bincount(self._rows, self._weights * x[self._cols], minlength=n).astype(float, copy=False)

    def __rmatmul__(self, other: np.ndarray) -> np.ndarray:
        """``X @ S``, which is ``(S @ X.T).T`` for a symmetric S; off the slots, ``X @ matrix``."""
        x = np.asarray(other)
        if x.ndim == 1:
            return self @ x
        return self._slot_apply(x.T).T if x.ndim == 2 and self._slots_pay() else x @ self.matrix


class CommutativityCheck(NamedTuple):
    ok: bool
    residual: float


_JOIN_BLOCK = 1 << 18  # products per block of rows in _commutator_norm (a few MB each)


def _row_products(x: ShiftMatrix, y: ShiftMatrix, lo: int, hi: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys ``r n + c`` and values of the products ``X_rk Y_kc`` with ``lo <= r < hi``.

    Each entry of X in those rows is joined with the entries of row k of Y.
    """
    block = slice(x._ptr[lo], x._ptr[hi])
    cols = x._cols[block]
    first = y._ptr[cols]
    counts = y._ptr[cols + 1] - first
    offsets = np.cumsum(counts) - counts
    picks = np.arange(int(counts.sum())) - np.repeat(offsets - first, counts)
    keys = np.repeat(x._rows[block], counts) * n + y._cols[picks]
    return keys, np.repeat(x._weights[block], counts) * y._weights[picks]


def _commutator_norm(a: ShiftMatrix, b: ShiftMatrix) -> float:
    """``||AB - BA||_F`` from the two edge lists, in O(sum_k deg_A(k) deg_B(k)).

    Row r of ``AB - BA`` sums the products ``A_rk B_kc`` minus the products
    ``B_rk A_kc``; its entries are the sums per key ``r N + c``.  Rows are
    taken in blocks of about :data:`_JOIN_BLOCK` products, so the memory
    stays bounded on dense graphs, where the join costs O(N^3).
    """
    n = a.n_vertices
    deg_a, deg_b = np.diff(a._ptr), np.diff(b._ptr)
    work = np.cumsum(
        np.bincount(a._rows, deg_b[a._cols], minlength=n) + np.bincount(b._rows, deg_a[b._cols], minlength=n)
    )
    cuts = np.searchsorted(work, np.arange(_JOIN_BLOCK, work[-1], _JOIN_BLOCK), side="right")
    bounds = np.concatenate([[0], cuts, [n]])  # nondecreasing; a repeat is an empty block
    squares = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        keys_ab, ab = _row_products(a, b, lo, hi, n)
        keys_ba, ba = _row_products(b, a, lo, hi, n)
        _, slot = np.unique(np.concatenate([keys_ab, keys_ba]), return_inverse=True)
        entries = np.bincount(slot, np.concatenate([ab, -ba]))
        squares += float(entries @ entries)
    return math.sqrt(squares)


def check_commutative(shifts: Sequence[ShiftMatrix] | "ShiftSet") -> CommutativityCheck:
    """Test whether a family of shift matrices pairwise commutes.

    Each commutator is computed exactly from the two edge lists (see
    :func:`_commutator_norm`), without forming a dense matrix.

    Returns
    -------
    CommutativityCheck
        ``ok`` plus the largest Frobenius norm ``||S_l S_k - S_k S_l||_F``
        over all pairs; ``ok`` when it is at most
        ``MATRIX_REL * max(1, max_l ||S_l||_F)``, with ``||S_l||_F`` taken
        from the diagonal and the edge weights.
    """
    shifts = list(shifts)
    tol = MATRIX_REL * max([1.0] + [s._frobenius_norm() for s in shifts])
    worst = 0.0
    for a in range(len(shifts)):
        for b in range(a + 1, len(shifts)):
            worst = max(worst, _commutator_norm(shifts[a], shifts[b]))
    return CommutativityCheck(worst <= tol, worst)


@dataclass(frozen=True)
class ShiftSet:
    """Ordered family of pairwise commuting shifts on one graph.

    Construction verifies that all shifts share the graph and commute (see
    :func:`check_commutative`); the largest commutator residual found is
    stored.
    """

    shifts: tuple[ShiftMatrix, ...]
    commutativity_residual: float = field(init=False)

    def __post_init__(self):
        shifts = tuple(self.shifts)
        if not shifts:
            raise ValueError("a shift set needs at least one shift")
        g = shifts[0].graph
        for s in shifts[1:]:
            if s.graph != g:
                raise ValueError("all shifts in a set must share one graph")
        ok, residual = check_commutative(shifts)
        if not ok:
            raise ValueError(
                f"shifts do not commute: largest commutator residual {residual:.3e}"
            )
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "commutativity_residual", residual)

    @property
    def graph(self) -> Graph:
        return self.shifts[0].graph

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    def __len__(self) -> int:
        return len(self.shifts)

    def __iter__(self) -> Iterator[ShiftMatrix]:
        return iter(self.shifts)

    def __getitem__(self, k: int) -> ShiftMatrix:
        return self.shifts[k]


def build_standard_shifts(graph: Graph, kind: str) -> ShiftMatrix:
    """Build one of the classical shifts of a graph.

    Parameters
    ----------
    graph : Graph
    kind : str
        One of ``"adjacency"`` (weighted adjacency A), ``"laplacian"``
        (D - A) or ``"normalized_laplacian"`` (D^{-1/2} (D - A) D^{-1/2}).

    Raises
    ------
    ValueError
        Unknown ``kind``.
    DegenerateGraphError
        ``normalized_laplacian`` requested on a graph with an isolated
        (zero-degree) vertex.
    """
    if kind not in SHIFT_KINDS:
        raise ValueError(f"unknown shift kind {kind!r}; expected one of {SHIFT_KINDS}")
    w = graph._w
    if kind == "adjacency":
        return ShiftMatrix._from_edges(graph, np.zeros(graph.n_vertices), w)
    deg = graph.degrees()
    if kind == "laplacian":
        return ShiftMatrix._from_edges(graph, deg, -w)
    if np.any(deg <= 0):
        bad = int(np.argmin(deg))
        raise DegenerateGraphError(
            f"vertex {bad} has zero degree; the normalized laplacian is undefined"
        )
    d = 1.0 / np.sqrt(deg)
    # entry (r, c) of D^{-1/2} L D^{-1/2} is d_r L_rc d_c
    return ShiftMatrix._from_edges(graph, d * deg * d, d[graph._i] * -w * d[graph._j])


def build_circulant(n_vertices: int, offsets: Sequence[int]) -> tuple[Graph, ShiftSet]:
    """Circulant graph on ``n_vertices`` with one shift per hop offset.

    For each offset q the shift has 1 on the diagonal and -1/2 at positions
    ``(i, i +- q mod n)``; these matrices commute with each other because
    they are all polynomials in the rotation by one vertex.

    Parameters
    ----------
    n_vertices : int
    offsets : sequence of int
        Distinct offsets with ``1 <= q < n_vertices / 2``.  Both follow the
        count rule: ``2.0`` passes as 2, ``1.5`` raises ``ValueError``.

    Warns
    -----
    UserWarning
        If ``gcd(q_1, ..., q_L, n_vertices) != 1`` the graph is disconnected.
    """
    n = _index(n_vertices, "n_vertices")
    qs = [_index(q, "offsets") for q in offsets]
    if n < 3:
        raise ValueError("a circulant graph needs at least 3 vertices")
    if not qs:
        raise ValueError("at least one offset is required")
    if len(set(qs)) != len(qs):
        raise ValueError("offsets must be distinct")
    for q in qs:
        if q < 1 or 2 * q >= n:
            raise ValueError(f"offset {q} not in the valid range 1 <= q < {n}/2")
    if math.gcd(n, *qs) != 1:
        warnings.warn(
            f"gcd of offsets {qs} and {n} exceeds 1: the circulant graph is disconnected",
            stacklevel=2,
        )
    v = np.arange(n)
    # for q < n/2 the n edges (v, v + q mod n) are distinct, and offsets differ in their hop
    graph = Graph(n, np.concatenate([np.column_stack([v, (v + q) % n]) for q in qs]))
    hop = np.minimum(graph._j - graph._i, n - (graph._j - graph._i))  # the offset each edge was made by
    diagonal = np.ones(n)
    shifts = tuple(ShiftMatrix._from_edges(graph, diagonal, np.where(hop == q, -0.5, 0.0)) for q in qs)
    return graph, ShiftSet(shifts)


def path_graph(n: int) -> Graph:
    """Path on ``n`` vertices: edges (0,1), (1,2), ..."""
    n = _index(n, "n_vertices")
    return Graph(n, np.column_stack([np.arange(n - 1), np.arange(1, n)]))


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n`` vertices."""
    n = _index(n, "n_vertices")
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, np.column_stack([np.arange(n), np.roll(np.arange(n), -1)]))


def complete_graph(n: int) -> Graph:
    return Graph(n, np.column_stack(np.triu_indices(max(_index(n, "n"), 0), 1)))


def read_edge_list(path: str | Path) -> Graph:
    """Read a graph from an edge-list text file.

    Format: first non-comment line is ``N <edge_count>``; each following
    line is ``i j`` or ``i j weight`` with 0-based vertex ids. Blank lines
    and lines starting with ``#`` are skipped.  An error names the file and
    the 1-based line it found.
    """
    numbered = [
        (k, line)
        for k, line in enumerate(map(str.strip, Path(path).read_text().splitlines()), 1)
        if line and line[0] != "#"
    ]
    if not numbered:
        raise ValueError(f"{path}: empty edge-list file")
    (k, header), edge_lines = numbered[0], numbered[1:]
    head = header.split()
    bad_header = f"{path}, line {k}: header must be 'N <edge_count>', got {header!r}"
    if len(head) != 2:
        raise ValueError(bad_header)
    try:
        n, count = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"{bad_header} ({exc})") from None
    if len(edge_lines) != count:
        raise ValueError(f"{path}: header promises {count} edges, file has {len(edge_lines)}")
    edges, weights = [], []
    for k, line in edge_lines:
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}, line {k}: bad edge line {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
            weights.append(float(parts[2]) if len(parts) == 3 else 1.0)
        except ValueError as exc:
            raise ValueError(f"{path}, line {k}: bad edge line {line!r} ({exc})") from None
    return Graph(n, edges, weights)


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write a graph in the format accepted by :func:`read_edge_list`."""
    out = [f"{graph.n_vertices} {graph.n_edges}"]
    for i, j, w in zip(graph._i.tolist(), graph._j.tolist(), graph._w.tolist()):
        out.append(f"{i} {j}" if w == 1.0 else f"{i} {j} {w:.17g}")
    Path(path).write_text("\n".join(out) + "\n")
