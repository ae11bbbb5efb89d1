"""Experiment drivers: circulant reconstruction sweeps and model comparison.

The circulant sweep reconstructs a damped cosine wave from noisy vertex
samples over a grid of Krylov levels and sampling radii, recording relative
maximal errors both raw and on a floored log10 scale with a 1e-6
floor.  The model comparison measures, per signal, how a generated-span
approximation with delta generators stacks up against a bandlimited space
of matched dimension.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .graphs import Graph, Signal, ShiftSet, _distinct_index_set, _index, _matrix, _seed, _signal, _values, build_circulant
from .sampling import subset_sampler
from .spaces import KrylovChain
from .spectral import SpectralDecomposition

__all__ = [
    "ExperimentConfig",
    "MetricsTable",
    "ModelComparison",
    "damped_cosine_signal",
    "run_circulant_experiment",
    "approximation_error",
    "run_model_comparison",
    "ingest_signals_csv",
]

LOG_FLOOR = 1e-6


def damped_cosine_signal(
    n_vertices: int, amplitude: float, decay: float, frequency: float
) -> np.ndarray:
    """Damped cosine wave centered at vertex ``n_vertices // 2``.

    ``x(i) = amplitude * exp(-decay * |i - c|) * cos(frequency * |i - c|)``
    with ``c = n_vertices // 2``; symmetric about c with peak ``amplitude``.
    """
    n_vertices = _index(n_vertices, "n_vertices")
    if n_vertices < 1:
        raise ValueError("n_vertices must be positive")
    for name, value in (("amplitude", amplitude), ("decay", decay), ("frequency", frequency)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    offsets = np.abs(np.arange(n_vertices) - n_vertices // 2)
    return amplitude * np.exp(-decay * offsets) * np.cos(frequency * offsets)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition for the circulant reconstruction sweep."""

    n_vertices: int = 100
    offsets: tuple[int, ...] = (1, 3)
    amplitude: float = 1.0
    decay: float = 0.25
    frequency: float = 2.0 * math.pi / 5.0
    sigma: float = 0.1
    trials: int = 100
    p_values: tuple[int, ...] = tuple(range(1, 46))
    levels: tuple[int, ...] = tuple(range(1, 19))
    seed: int = 0
    delta: float = 0.0

    def __post_init__(self):
        for name in ("offsets", "p_values", "levels"):
            object.__setattr__(self, name, tuple(_index(k, name) for k in getattr(self, name)))
        for name in ("n_vertices", "trials"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        object.__setattr__(self, "seed", _seed(self.seed))
        # the noise range is [-sigma, sigma], so its width 2 * sigma must be finite too
        if not (self.sigma >= 0 and math.isfinite(2.0 * self.sigma)):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma!r}")
        for name in ("amplitude", "decay", "frequency"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.amplitude == 0:  # the errors are relative to the signal's peak
            raise ValueError("amplitude must be nonzero")
        if self.trials < 1:
            raise ValueError("at least one trial is required")
        if not self.delta >= 0:  # NaN fails this test too
            raise ValueError(f"delta must be nonnegative, got {self.delta!r}")
        if not self.p_values or not self.levels:
            raise ValueError("p_values and levels must be nonempty")
        if any(n < 0 for n in self.levels):
            raise ValueError("levels must be nonnegative")
        center = self.n_vertices // 2
        for p in self.p_values:
            if p < 1 or center - p < 0 or center + p >= self.n_vertices:
                raise ValueError(
                    f"sampling radius {p} does not fit around vertex {center} "
                    f"on {self.n_vertices} vertices"
                )


@dataclass(frozen=True)
class MetricsTable:
    """Error grids from one sweep; axis 0 is the level, axis 1 the radius.

    ``re_*`` grids measure the relative maximal reconstruction error over
    all vertices, ``se_*`` its restriction to the sampled vertices;
    ``*_log`` are trial means of ``log10(error + 1e-6)`` and ``*_raw``
    trial means of the raw errors. ``re_trials``/``se_trials`` keep every
    raw per-trial value with the trial index on axis 2.
    """

    config: ExperimentConfig
    re_log: np.ndarray
    se_log: np.ndarray
    re_raw: np.ndarray
    se_raw: np.ndarray
    re_trials: np.ndarray
    se_trials: np.ndarray

    def cell(self, level: int, p: int) -> tuple[int, int]:
        """Grid coordinates of a (level, radius) pair."""
        return self.config.levels.index(level), self.config.p_values.index(p)


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the golden gamma, then the finalizer.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One SplitMix64 step on a uint64 array, wrapping mod 2**64."""
    z = x + _GAMMA
    z ^= z >> np.uint64(30)
    z *= _MIX_1
    z ^= z >> np.uint64(27)
    z *= _MIX_2
    z ^= z >> np.uint64(31)
    return z


def _absorb(h: np.ndarray, value) -> np.ndarray:
    """Fold ``value`` into the uint64 hashes h: its little-endian 64-bit words, then their count.

    ``value`` is a nonnegative int of any size, or a uint64 array of
    one-word values that broadcasts against h.  Ending on the count keeps
    distinct keys from sharing a word sequence.
    """
    if isinstance(value, np.ndarray):
        words = [value]
    else:
        shifts = range(0, max(value.bit_length(), 1), 64)
        words = [np.uint64(value >> shift & 0xFFFFFFFFFFFFFFFF) for shift in shifts]
    for word in words:
        h = _splitmix64(h ^ word)
    return _splitmix64(h ^ np.uint64(len(words)))


def _cell_noise(config: ExperimentConfig, p: int) -> np.ndarray:
    """The (2p + 1, levels * trials) noise block of radius p; columns run level-major, then trial.

    Sample s of cell (level, p, trial) is ``-sigma + 2 sigma u`` with u the
    top 53 bits of the hash of (seed, level, p, trial, s) over 2**53, the map
    numpy's ``uniform`` uses, so it lies in ``[-sigma, sigma)``.
    """
    h = _absorb(np.zeros(1, dtype=np.uint64), config.seed)
    if max(config.levels) < 2**64:  # one word each: folded at once, as the int path folds each
        h = _absorb(h, np.array(config.levels, dtype=np.uint64))
    else:
        h = np.concatenate([_absorb(h, level) for level in config.levels])
    h = _absorb(h, p)
    h = _absorb(h[:, None], np.arange(config.trials, dtype=np.uint64)).reshape(-1)
    h = _absorb(h, np.arange(2 * p + 1, dtype=np.uint64)[:, None])
    u = (h >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return -config.sigma + 2.0 * config.sigma * u


def _window_chains(shifts: ShiftSet, phi0: np.ndarray, schemes: dict, deepest: int):
    """Yield every radius of ``schemes`` with the chain of its window, grown at most to ``deepest``.

    The narrower windows share the widest one's chain.  Taken in increasing
    order, each narrower window holds the chain's level so far (level 0,
    the delta at the center, lies in every window), and the chain grows
    while its next level stays in that window too: while the shifts link
    the rows of its columns only to vertices the window samples, which is
    what a copy one level deeper would check
    (:meth:`~gsis.spaces.KrylovChain._copy_under`).  Then the radius gets
    the chain's copy under its window, at the deepest level the window
    holds: one copy per narrower radius, none made ahead.  The widest
    radius gets the chain itself.
    """
    radii = sorted(schemes)
    wide = KrylovChain(shifts, [phi0], schemes[radii[-1]])
    for p in radii[:-1]:
        unsampled = np.ones(wide.n, dtype=bool)
        unsampled[list(schemes[p].vertices)] = False
        while wide.depth < deepest and wide._links_only_sampled(wide.dim, unsampled) and wide.grow_to(wide.depth + 1):
            pass
        yield p, wide._copy_under(schemes[p])
    yield radii[-1], wide


def run_circulant_experiment(config: ExperimentConfig) -> MetricsTable:
    """Run the damped-cosine reconstruction sweep on a circulant graph.

    The generator is the delta at the center vertex and the sampling set
    of radius P is the symmetric window of 2P + 1 vertices around it.
    For every (level, radius, trial) cell the observation gets fresh
    uniform noise on ``[-sigma, sigma)``, hashed from the cell's key and
    the sample index (:func:`_cell_noise`) whatever the grid's shape, and
    the reconstruction runs capped at the cell's level, so trials are
    independent and the table is a deterministic function of the config.
    Each radius fits all its (level, trial) observations as one block, on
    the chain of its window.  A level-n chain of the delta stays in the
    generator's n-hop ball, and while it stays in a window, that window's
    chain is the one-stream euclidean chain whatever the window
    (:meth:`~gsis.spaces.KrylovChain._copy_under`).  So the widest window's
    chain grows level by level, and each narrower radius, taken in
    increasing order, gets one copy of it, made once the next level would
    leave its window (:func:`_window_chains`), and grows only the levels
    past it; the table is bit for bit that of a chain per radius grown from
    the generator.
    """
    n = config.n_vertices
    center = n // 2
    _, shifts = build_circulant(n, config.offsets)
    x0 = damped_cosine_signal(n, config.amplitude, config.decay, config.frequency)
    phi0 = np.zeros(n)
    phi0[center] = 1.0
    x0_scale = float(np.abs(x0).max())

    shape = (len(config.levels), len(config.p_values), config.trials)
    re_trials = np.empty(shape)
    se_trials = np.empty(shape)
    # Python ints: numpy would hold a level of 2**63 as a uint64, or beside small ones as a float
    caps = [level for level in config.levels for _ in range(config.trials)]
    schemes = {p: subset_sampler(n, range(center - p, center + p + 1)) for p in set(config.p_values)}
    # No fit grows a chain past its largest cap.  A radius's blocks live until the
    # next radius replaces them: freed at the end of each radius instead, their pages
    # went back to the system and faulted in again: the default grid ran 12 % slower (2 cores)
    for p, chain in _window_chains(shifts, phi0, schemes, min(max(config.levels), n)):
        window = list(schemes[p].vertices)
        clean = x0[window]
        clean_scale = float(np.abs(clean).max())
        y = clean[:, None] + _cell_noise(config, p)
        # candidates invisible to the window are dropped, as with require_injective=False
        diff = chain.evaluate(chain.fit(y, caps, config.delta).coefficients) - x0[:, None]
        for ip in (ip for ip, q in enumerate(config.p_values) if q == p):
            re_trials[:, ip] = (np.abs(diff).max(axis=0) / x0_scale).reshape(shape[0], -1)
            se_trials[:, ip] = (np.abs(diff[window]).max(axis=0) / clean_scale).reshape(shape[0], -1)
    return MetricsTable(
        config=config,
        re_log=np.log10(re_trials + LOG_FLOOR).mean(axis=2),
        se_log=np.log10(se_trials + LOG_FLOOR).mean(axis=2),
        re_raw=re_trials.mean(axis=2),
        se_raw=se_trials.mean(axis=2),
        re_trials=re_trials,
        se_trials=se_trials,
    )


def approximation_error(space_levels: Sequence[np.ndarray], x0) -> list[float]:
    """Relative maximal approximation error of x0 from each listed space.

    ``space_levels`` holds one basis B per level, such as the column
    prefixes ``basis[:, :d] for d in dims`` of
    :func:`~gsis.spaces.krylov_subspace`; each B must be orthonormal, so
    that ``B B^T`` is the projection onto its span. Each value is the sup
    norm of the least-squares residual, ``max |x0 - B B^T x0| / max |x0|``
    (the quantity :func:`run_model_comparison` reports as ``f_krylov``),
    clamped to be nonincreasing since the spaces are nested; a basis with
    no columns gives 1.0. It is an upper bound on
    ``min_c ||x0 - B c||_inf / ||x0||_inf``, and it is that minimum whenever
    it equals ``max |x0_i|`` over the rows i where every column of B is
    zero, since no coefficients change those rows. On a dense basis, with
    no zero row, it can exceed the minimum.

    Raises
    ------
    ValueError
        If ``x0`` is identically zero, or it or a basis is not finite or
        not of the first basis' length N.
    """
    bases = list(space_levels)
    x0 = _values(x0, "x0")  # read once: x0 may be an iterator
    n = len(bases[0]) if bases else x0.size
    vals = _signal(x0, n, "x0")
    scale = float(np.abs(vals).max(initial=0.0))
    if scale == 0.0:
        raise ValueError("the target signal is identically zero")
    out: list[float] = []
    for basis in bases:
        b = _matrix(basis, (n, None), "basis")
        achieved = float(np.abs(vals - b @ (b.T @ vals)).max()) / scale
        if out and achieved > out[-1]:
            achieved = out[-1]
        out.append(achieved)
    return out


@dataclass(frozen=True)
class ModelComparison:
    """Per-level errors of generated-span versus bandlimited approximation.

    ``f_krylov[s, k]`` is the maximal approximation error of signal s from
    the level ``levels[k]`` span of its delta generators; ``f_bandlimited``
    uses the bandlimited space on the same number of leading columns of the
    decomposition: frequencies come in column order, and a repeated group
    that is cut keeps its leading, seed-independent columns. ``mean_*`` are
    dataset averages.
    """

    levels: tuple[int, ...]
    rule: str
    generator_vertices: tuple[tuple[int, ...], ...]
    dims: np.ndarray
    f_krylov: np.ndarray
    f_bandlimited: np.ndarray
    mean_krylov: np.ndarray = field(init=False)
    mean_bandlimited: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mean_krylov", self.f_krylov.mean(axis=0))
        object.__setattr__(self, "mean_bandlimited", self.f_bandlimited.mean(axis=0))


def _top_k_vertices(values: np.ndarray, k: int) -> list[int]:
    order = np.argsort(-np.abs(values), kind="stable")
    return sorted(int(i) for i in order[:k])


def run_model_comparison(
    shifts: ShiftSet,
    decomp: SpectralDecomposition,
    dataset: Sequence,
    rule: str = "adaptive",
    n_generators: int = 3,
    levels: Sequence[int] = range(0, 9),
    vertices: Sequence[int] | None = None,
) -> ModelComparison:
    """Compare generated-span and bandlimited approximation over a dataset.

    ``rule = "adaptive"`` places delta generators at each signal's
    ``n_generators`` largest-magnitude vertices; ``"nonadaptive"`` uses
    one shared set, either ``vertices`` or the largest entries of the
    dataset's mean magnitude. For each level n the signal is approximated
    by its least-squares projection onto the level-n span of its
    generators; one unweighted chain per signal serves every level, and
    the bandlimited error uses the matched dimension, in column order.
    """
    n = shifts.n_vertices
    signals = [_signal(s, n, "signal") for s in dataset]
    if not signals:
        raise ValueError("the dataset is empty")
    if rule not in ("adaptive", "nonadaptive"):
        raise ValueError(f"unknown generator rule {rule!r}")
    n_generators = _index(n_generators, "n_generators")
    if n_generators < 1:
        raise ValueError(f"n_generators must be positive, got {n_generators}")
    levels = tuple(_index(k, "levels") for k in levels)
    if not levels or min(levels) < 0:
        raise ValueError("levels must be a nonempty sequence of nonnegative integers")
    if rule == "nonadaptive":
        if vertices is not None:
            shared = _distinct_index_set(vertices, n, "generator vertices")
        else:
            shared = _top_k_vertices(np.mean(np.abs(np.stack(signals)), axis=0), n_generators)

    chosen: list[tuple[int, ...]] = []
    dims = np.empty((len(signals), len(levels)), dtype=int)
    f_k = np.empty((len(signals), len(levels)))
    f_b = np.empty((len(signals), len(levels)))
    for si, x in enumerate(signals):
        verts = shared if rule == "nonadaptive" else _top_k_vertices(x, n_generators)
        chosen.append(tuple(verts))
        gens = np.zeros((len(verts), n))
        gens[np.arange(len(verts)), verts] = 1.0
        chain = KrylovChain(shifts, gens)
        fit = chain.fit(np.repeat(x[:, None], len(levels), axis=1), levels)
        dims[si] = np.asarray(chain.dims)[fit.depths]
        f_k[si] = np.abs(chain.evaluate(fit.coefficients) - x[:, None]).max(axis=0)
        x_hat = decomp.basis.T @ x
        f_b[si] = [np.abs(x - decomp.basis[:, :dim] @ x_hat[:dim]).max() for dim in dims[si]]
    return ModelComparison(
        levels=levels,
        rule=rule,
        generator_vertices=tuple(chosen),
        dims=dims,
        f_krylov=f_k,
        f_bandlimited=f_b,
    )


def ingest_signals_csv(path, graph: Graph) -> list[Signal]:
    """Read one signal per row from a CSV with a vertex-label header.

    The header must have exactly one column per vertex; purely integer
    labels must be 0 .. N-1 in order. Empty files give an empty dataset;
    non-numeric or non-finite cells raise naming the row and column.
    """
    text = Path(path).read_text()
    rows = [row for row in csv.reader(text.splitlines()) if row]
    if not rows:
        return []
    header = [h.strip() for h in rows[0]]
    n = graph.n_vertices
    if len(header) != n:
        raise ValueError(f"{path}: header has {len(header)} columns, graph has {n} vertices")
    try:
        labels = [int(h) for h in header]
    except ValueError:
        labels = None
    if labels is not None and labels != list(range(n)):
        raise ValueError(f"{path}: integer header labels must be 0..{n - 1} in order")
    dataset = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != n:
            raise ValueError(f"{path}: row {r} has {len(row)} cells, expected {n}")
        values = np.empty(n)
        for cidx, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell at row {r}, column {header[cidx]!r}"
                ) from None
            if not math.isfinite(v):
                raise ValueError(
                    f"{path}: non-finite cell at row {r}, column {header[cidx]!r}"
                )
            values[cidx] = v
        dataset.append(Signal(values, graph))
    return dataset
