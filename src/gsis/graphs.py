"""Undirected weighted graphs and the symmetric shift matrices that live on them.

A shift matrix is any real symmetric matrix whose off-diagonal support is
contained in the edge set of its graph.  Families of shifts that pairwise
commute share a common eigenbasis and are grouped in a :class:`ShiftSet`.
"""

from __future__ import annotations

import bisect
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


def _vector(x) -> np.ndarray:
    """:func:`_values` flattened to one vector."""
    return _values(x).reshape(-1)


def _index(k, what: str) -> int:
    """``k`` as an int; integral floats such as ``2.0`` pass, ``1.7`` raises."""
    try:
        i = int(k)
    except (ValueError, OverflowError):
        i = None
    if i is None or i != k:
        raise ValueError(f"{what} must be integers, got {k!r}")
    return i


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


@dataclass(frozen=True)
class Graph:
    """Finite undirected graph with optional positive edge weights.

    Parameters
    ----------
    n_vertices : int
        Number of vertices; vertex ids are ``0 .. n_vertices - 1``.
    edges : iterable of (int, int)
        Undirected edges. Stored sorted with each pair normalized to
        ``i < j``. Self loops and duplicates are rejected.
    weights : iterable of float, optional
        Positive weights aligned with ``edges``. Omitted means unweighted
        (every edge gets weight 1).
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] = ()

    def __init__(
        self,
        n_vertices: int,
        edges: Iterable[tuple[int, int]] = (),
        weights: Iterable[float] | None = None,
    ):
        if not isinstance(n_vertices, (int, np.integer)) or n_vertices < 1:
            raise ValueError(f"n_vertices must be a positive integer, got {n_vertices!r}")
        pairs = []
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"self loop ({i}, {j}) is not allowed")
            if not (0 <= i < n_vertices and 0 <= j < n_vertices):
                raise ValueError(f"edge ({i}, {j}) out of range for {n_vertices} vertices")
            pairs.append((min(i, j), max(i, j)))
        w = [1.0] * len(pairs) if weights is None else [float(x) for x in weights]
        if len(w) != len(pairs):
            raise ValueError(f"{len(w)} weights for {len(pairs)} edges")
        if any(not math.isfinite(x) or x <= 0 for x in w):
            raise ValueError("edge weights must be finite and positive")
        order = sorted(range(len(pairs)), key=lambda k: pairs[k])
        pairs = [pairs[k] for k in order]
        w = [w[k] for k in order]
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate edges are not allowed")
        object.__setattr__(self, "n_vertices", int(n_vertices))
        object.__setattr__(self, "edges", tuple(pairs))
        object.__setattr__(self, "weights", tuple(w))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoint arrays ``(i, j)`` with ``i < j``, in the order of ``edges``."""
        ij = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        return ij[:, 0], ij[:, 1]

    def _find(self, i: int, j: int) -> int:
        """Position of edge (i, j) in ``edges``, or -1 if absent (binary search)."""
        key = (min(i, j), max(i, j))
        k = bisect.bisect_left(self.edges, key)
        return k if k < len(self.edges) and self.edges[k] == key else -1

    def weight_of(self, i: int, j: int) -> float:
        """Weight of edge (i, j); raises KeyError if absent."""
        k = self._find(i, j)
        if k < 0:
            raise KeyError(f"no edge ({i}, {j})")
        return self.weights[k]

    def has_edge(self, i: int, j: int) -> bool:
        return self._find(i, j) >= 0

    def adjacency(self) -> np.ndarray:
        """Weighted adjacency matrix as a dense symmetric array."""
        a = np.zeros((self.n_vertices, self.n_vertices))
        i, j = self._endpoints
        a[i, j] = a[j, i] = self.weights
        return a

    def degrees(self) -> np.ndarray:
        """Weighted degree of each vertex (row sums of the adjacency), summed over the edges."""
        i, j = self._endpoints
        w = np.asarray(self.weights, dtype=float)
        return np.bincount(np.concatenate([i, j]), np.concatenate([w, w]), minlength=self.n_vertices)

    def edge_mask(self) -> np.ndarray:
        """Boolean matrix marking positions allowed to be nonzero in a shift."""
        m = np.eye(self.n_vertices, dtype=bool)
        i, j = self._endpoints
        m[i, j] = m[j, i] = True
        return m


@dataclass(frozen=True)
class Signal:
    """Real-valued signal indexed by the vertices of a graph."""

    values: np.ndarray
    graph: Graph

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.shape[0] != self.graph.n_vertices:
            raise ValueError(
                f"signal of length {v.shape[0]} on a graph with {self.graph.n_vertices} vertices"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "values", _as_readonly(v))


@dataclass(frozen=True, init=False, eq=False)
class ShiftMatrix:
    """Symmetric matrix supported on the diagonal and the edges of a graph.

    A shift is stored as an edge list: its ``diagonal`` and one weight per
    edge of ``graph.edges`` (``edge_weights``, aligned with the edges), so
    it holds O(N + |E|) numbers.  ``matrix`` is the dense (N, N) array,
    built on first access and then kept; only decompositions, 2-D products
    and exports read it.

    ``ShiftMatrix(matrix, graph)`` checks a dense input against
    ``frobenius_tol(S)`` (relative :data:`MATRIX_REL`) for symmetry and for
    its support, then keeps each edge weight as ``(S_ij + S_ji) / 2`` and
    the diagonal, so sub-tolerance noise outside the edge set is dropped.

    ``S @ x`` on a vector is ``bincount(rows, weights * x[cols])`` over the
    nonzero entries, both orientations of each edge and then the diagonal,
    which costs O(N + 2|E|) instead of O(N^2) and equals ``diag * x +
    bincount`` over the off-diagonal entries alone; a 2-D operand takes the
    dense product with ``matrix``.

    Raises
    ------
    ValueError
        If the shape does not match the graph, the matrix is not symmetric
        within tolerance, or an entry outside the allowed pattern exceeds
        tolerance.
    """

    graph: Graph
    diagonal: np.ndarray
    edge_weights: np.ndarray
    _rows: np.ndarray = field(repr=False)
    _cols: np.ndarray = field(repr=False)
    _weights: np.ndarray = field(repr=False)

    def __init__(self, matrix: np.ndarray, graph: Graph):
        s = np.asarray(matrix, dtype=float)
        n = graph.n_vertices
        if s.shape != (n, n):
            raise ValueError(f"shift of shape {s.shape} on a graph with {n} vertices")
        if not np.all(np.isfinite(s)):
            raise ValueError("shift entries must be finite")
        tol = frobenius_tol(s)
        if np.abs(s - s.T).max() > tol:
            raise ValueError("shift matrix is not symmetric within tolerance")
        i, j = graph._endpoints
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
        # bincount adds in input order: each row sums its edge terms, then adds
        # S_kk x_k, which rounds exactly like diag * x + (the edge sum).
        i, j = graph._endpoints
        k = np.arange(graph.n_vertices)
        rows, cols = np.concatenate([i, j, k]), np.concatenate([j, i, k])
        weights = np.concatenate([w, w, d])
        nonzero = weights != 0.0
        object.__setattr__(self, "graph", graph)
        for name, value in (
            ("diagonal", d),
            ("edge_weights", w),
            ("_rows", rows[nonzero]),
            ("_cols", cols[nonzero]),
            ("_weights", weights[nonzero]),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense read-only (N, N) array: the edge weights at both orientations, the diagonal."""
        n = self.n_vertices
        m = np.zeros((n, n))
        i, j = self.graph._endpoints
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

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        """``S @ x``: edge-list apply for a vector, dense product otherwise."""
        x = np.asarray(other)
        if x.ndim != 1:
            return self.matrix @ x
        n = self.n_vertices
        if x.shape[0] != n:
            raise ValueError(f"vector of length {x.shape[0]} for a shift on {n} vertices")
        return np.bincount(self._rows, self._weights * x[self._cols], minlength=n)


class CommutativityCheck(NamedTuple):
    ok: bool
    residual: float


_JOIN_BLOCK = 1 << 18  # products per block of rows in _commutator_norm (a few MB each)


def _by_row(s: ShiftMatrix) -> tuple[np.ndarray, ...]:
    """Nonzero entries of ``s`` sorted by row, and the start of each row (CSR form)."""
    order = np.argsort(s._rows, kind="stable")
    rows = s._rows[order]
    return rows, s._cols[order], s._weights[order], np.searchsorted(rows, np.arange(s.n_vertices + 1))


def _row_products(x, y, lo: int, hi: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys ``r n + c`` and values of the products ``X_rk Y_kc`` with ``lo <= r < hi``.

    Each entry of X in those rows is joined with the entries of row k of Y.
    """
    rows, cols, vals, ptr = x
    _, y_cols, y_vals, y_ptr = y
    block = slice(ptr[lo], ptr[hi])
    first = y_ptr[cols[block]]
    counts = y_ptr[cols[block] + 1] - first
    offsets = np.cumsum(counts) - counts
    picks = np.arange(int(counts.sum())) - np.repeat(offsets - first, counts)
    keys = np.repeat(rows[block], counts) * n + y_cols[picks]
    return keys, np.repeat(vals[block], counts) * y_vals[picks]


def _commutator_norm(a: ShiftMatrix, b: ShiftMatrix) -> float:
    """``||AB - BA||_F`` from the two edge lists, in O(sum_k deg_A(k) deg_B(k)).

    Row r of ``AB - BA`` sums the products ``A_rk B_kc`` minus the products
    ``B_rk A_kc``; its entries are the sums per key ``r N + c``.  Rows are
    taken in blocks of about :data:`_JOIN_BLOCK` products, so the memory
    stays bounded on dense graphs, where the join costs O(N^3).
    """
    n = a.n_vertices
    ea, eb = _by_row(a), _by_row(b)
    deg_a, deg_b = np.diff(ea[3]), np.diff(eb[3])
    work = np.cumsum(
        np.bincount(ea[0], deg_b[ea[1]], minlength=n) + np.bincount(eb[0], deg_a[eb[1]], minlength=n)
    )
    cuts = np.searchsorted(work, np.arange(_JOIN_BLOCK, work[-1], _JOIN_BLOCK), side="right")
    bounds = np.concatenate([[0], cuts, [n]])  # nondecreasing; a repeat is an empty block
    squares = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        keys_ab, ab = _row_products(ea, eb, lo, hi, n)
        keys_ba, ba = _row_products(eb, ea, lo, hi, n)
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

    @property
    def n_shifts(self) -> int:
        return len(self.shifts)

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
    w = np.asarray(graph.weights, dtype=float)
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
    i, j = graph._endpoints
    # entry (r, c) of D^{-1/2} L D^{-1/2} is d_r L_rc d_c
    return ShiftMatrix._from_edges(graph, d * deg * d, d[i] * -w * d[j])


def build_circulant(n_vertices: int, offsets: Sequence[int]) -> tuple[Graph, ShiftSet]:
    """Circulant graph on ``n_vertices`` with one shift per hop offset.

    For each offset q the shift has 1 on the diagonal and -1/2 at positions
    ``(i, i +- q mod n)``; these matrices commute with each other because
    they are all polynomials in the rotation by one vertex.

    Parameters
    ----------
    n_vertices : int
    offsets : sequence of int
        Distinct offsets with ``1 <= q < n_vertices / 2``.

    Warns
    -----
    UserWarning
        If ``gcd(q_1, ..., q_L, n_vertices) != 1`` the graph is disconnected.
    """
    n = int(n_vertices)
    qs = [int(q) for q in offsets]
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
    edges = sorted({(min(i, (i + q) % n), max(i, (i + q) % n)) for q in qs for i in range(n)})
    graph = Graph(n, edges)
    i, j = graph._endpoints
    hop = np.minimum(j - i, n - (j - i))  # the offset each edge was made by
    diagonal = np.ones(n)
    shifts = tuple(ShiftMatrix._from_edges(graph, diagonal, np.where(hop == q, -0.5, 0.0)) for q in qs)
    return graph, ShiftSet(shifts)


def path_graph(n: int) -> Graph:
    """Path on ``n`` vertices: edges (0,1), (1,2), ..."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n`` vertices."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def read_edge_list(path: str | Path) -> Graph:
    """Read a graph from an edge-list text file.

    Format: first non-comment line is ``N <edge_count>``; each following
    line is ``i j`` or ``i j weight`` with 0-based vertex ids. Blank lines
    and lines starting with ``#`` are skipped.
    """
    lines = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}: header must be 'N <edge_count>', got {lines[0]!r}")
    n, count = int(head[0]), int(head[1])
    if len(lines) - 1 != count:
        raise ValueError(f"{path}: header promises {count} edges, file has {len(lines) - 1}")
    edges, weights, weighted = [], [], False
    for line in lines[1:]:
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}: bad edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
        if len(parts) == 3:
            weighted = True
            weights.append(float(parts[2]))
        else:
            weights.append(1.0)
    return Graph(n, edges, weights if weighted else None)


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write a graph in the format accepted by :func:`read_edge_list`."""
    out = [f"{graph.n_vertices} {graph.n_edges}"]
    for (i, j), w in zip(graph.edges, graph.weights):
        out.append(f"{i} {j}" if w == 1.0 else f"{i} {j} {w:.17g}")
    Path(path).write_text("\n".join(out) + "\n")
