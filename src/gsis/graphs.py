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
        """Weighted degree of each vertex (row sums of the adjacency)."""
        return self.adjacency().sum(axis=1)

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


@dataclass(frozen=True)
class ShiftMatrix:
    """Symmetric matrix supported on the diagonal and the edges of a graph.

    The input is checked against ``frobenius_tol(S)`` (relative
    :data:`MATRIX_REL`) for symmetry and for its support.  The stored
    matrix is exactly symmetric: each edge entry is ``(S_ij + S_ji) / 2``,
    the diagonal is kept, and every other entry is exactly zero, so
    sub-tolerance noise outside the edge set is dropped.

    The shift is also kept as an edge list: its nonzero entries as
    ``(rows, cols, weights)``, both orientations of each edge and then the
    diagonal.  ``S @ x`` on a vector is ``bincount(rows, weights *
    x[cols])``, which costs O(N + 2|E|) instead of O(N^2) and equals
    ``diag * x + bincount`` over the off-diagonal entries alone; a 2-D
    operand takes the dense product with ``matrix``.  Both forms hold the
    same numbers.

    Raises
    ------
    ValueError
        If the shape does not match the graph, the matrix is not symmetric
        within tolerance, or an entry outside the allowed pattern exceeds
        tolerance.
    """

    matrix: np.ndarray
    graph: Graph
    _rows: np.ndarray = field(init=False, repr=False, compare=False)
    _cols: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = np.asarray(self.matrix, dtype=float)
        n = self.graph.n_vertices
        if s.shape != (n, n):
            raise ValueError(f"shift of shape {s.shape} on a graph with {n} vertices")
        if not np.all(np.isfinite(s)):
            raise ValueError("shift entries must be finite")
        tol = frobenius_tol(s)
        if np.abs(s - s.T).max() > tol:
            raise ValueError("shift matrix is not symmetric within tolerance")
        i, j = self.graph._endpoints
        off = np.abs(s)
        off[i, j] = off[j, i] = 0.0
        np.fill_diagonal(off, 0.0)
        worst = int(off.argmax())
        if off.flat[worst] > tol:
            r, c = np.unravel_index(worst, s.shape)
            raise ValueError(f"nonzero entry at ({r}, {c}) outside the graph's edge set")
        w = (s[i, j] + s[j, i]) / 2.0
        m = np.zeros((n, n))
        m[i, j] = m[j, i] = w
        np.fill_diagonal(m, s.diagonal())
        # bincount adds in input order: each row sums its edge terms, then adds
        # S_kk x_k, which rounds exactly like diag * x + (the edge sum).
        k = np.arange(n)
        rows, cols = np.concatenate([i, j, k]), np.concatenate([j, i, k])
        weights = np.concatenate([w, w, s.diagonal()])
        nonzero = weights != 0.0
        for name, value in (
            ("matrix", m),
            ("_rows", rows[nonzero]),
            ("_cols", cols[nonzero]),
            ("_weights", weights[nonzero]),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

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


def check_commutative(shifts: Sequence[ShiftMatrix] | "ShiftSet") -> CommutativityCheck:
    """Test whether a family of shift matrices pairwise commutes.

    Stored shifts are exactly symmetric, so ``S_k S_l = (S_l S_k)^T`` and
    each pair costs one product ``P = S_l S_k`` and the norm of ``P - P^T``.

    Returns
    -------
    CommutativityCheck
        ``ok`` plus the largest Frobenius norm ``||S_l S_k - S_k S_l||_F``
        over all pairs; ``ok`` when it is at most
        ``MATRIX_REL * max(1, max_l ||S_l||_F)``.
    """
    mats = [s.matrix for s in shifts]
    tol = max((frobenius_tol(m) for m in mats), default=MATRIX_REL)
    worst = 0.0
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            p = mats[a] @ mats[b]
            worst = max(worst, float(np.linalg.norm(p - p.T)))
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
    a = graph.adjacency()
    if kind == "adjacency":
        return ShiftMatrix(a, graph)
    deg = a.sum(axis=1)
    lap = np.diag(deg) - a
    if kind == "laplacian":
        return ShiftMatrix(lap, graph)
    if np.any(deg <= 0):
        bad = int(np.argmin(deg))
        raise DegenerateGraphError(
            f"vertex {bad} has zero degree; the normalized laplacian is undefined"
        )
    d = 1.0 / np.sqrt(deg)
    return ShiftMatrix(d[:, None] * lap * d[None, :], graph)


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
    shifts = []
    vertices = np.arange(n)
    for q in qs:
        s = np.eye(n)
        s[vertices, (vertices + q) % n] = -0.5
        s[vertices, (vertices - q) % n] = -0.5
        shifts.append(ShiftMatrix(s, graph))
    return graph, ShiftSet(tuple(shifts))


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
