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


# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx) and of
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int; 0 gives one word.

    This is how ``SeedSequence`` splits each integer of its entropy.
    """
    words = []
    while True:
        words.append(value & _MASK32)
        value >>= 32
        if not value:
            return words


def _mulhi64(a, b):
    """High 64 bits of the 128-bit products of uint64 arrays, via 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    t = a1 * b0 + ((a0 * b0) >> 32)
    w = (t & _MASK32) + a0 * b1
    return a1 * b1 + (t >> 32) + (w >> 32)


def _mul128(ah, al, bh, bl):
    """Products mod 2**128 of 128-bit values held as (high, low) uint64 arrays."""
    return _mulhi64(al, bl) + ah * bl + al * bh, al * bl


def _add128(ah, al, bh, bl):
    """Sums mod 2**128 of 128-bit values held as (high, low) uint64 arrays."""
    lo = al + bl
    return ah + bh + (lo < al), lo


def _seed_pcg64(entropy: np.ndarray) -> np.ndarray:
    """PCG64 states of ``np.random.default_rng(key)`` for many keys at once.

    Row r of the (K, L) uint32 ``entropy`` holds the 32-bit words of key r
    (see :func:`_uint32_words`), at least four of them. This is numpy's
    ``SeedSequence`` pool mixing and ``generate_state(4, np.uint64)``
    followed by PCG64's seeding, vectorized over the rows. Returns the
    (4, K) uint64 array of state high and low words, then increment high
    and low words, as ``PCG64(key).state`` holds them.
    """
    words = np.asarray(entropy, dtype=np.uint32).T
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> np.uint32(16))

    with np.errstate(over="ignore"):
        pool = [hashmix(w) for w in words[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for w in words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(w))
        hash_const = _INIT_B
        state = []
        for i in range(8):
            value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * np.uint32(hash_const)
            state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
        # uint32 pairs to little-endian uint64 words: initstate high, low, initseq high, low
        init_hi, init_lo, seq_hi, seq_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
        inc_hi = seq_hi << 1 | seq_lo >> 63
        inc_lo = seq_lo << 1 | 1
        mult = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
        s_hi, s_lo = _mul128(*_add128(inc_hi, inc_lo, init_hi, init_lo), *mult)
        s_hi, s_lo = _add128(s_hi, s_lo, inc_hi, inc_lo)
    return np.stack([s_hi, s_lo, inc_hi, inc_lo])


def _pcg64_jumps(size: int) -> np.ndarray:
    """(4, size) uint64 words of ``M**j`` and ``sum(M**i, i < j)`` for j = 1 .. size.

    PCG64 steps ``s <- M s + inc`` before each draw, so draw j - 1 reads
    the state ``M**j s + sum(M**i, i < j) inc`` (mod 2**128).
    """
    table = []
    a, c = 1, 0
    for _ in range(size):
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        table.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
    return np.array(table, dtype=np.uint64).reshape(size, 4).T


def _pcg64_uniform(states: np.ndarray, jumps: np.ndarray, low: float, high: float) -> np.ndarray:
    """The first ``jumps.shape[1]`` ``Generator.uniform(low, high)`` draws of each stream.

    ``states`` is a (4, K) block from :func:`_seed_pcg64` and ``jumps`` a
    column prefix of :func:`_pcg64_jumps`; the (size, K) result equals,
    bit for bit, column k's ``default_rng(key_k).uniform(low, high, size)``.
    """
    s_hi, s_lo, i_hi, i_lo = states[:, None, :]
    a_hi, a_lo, c_hi, c_lo = jumps[:, :, None]
    with np.errstate(over="ignore"):
        hi, lo = _add128(*_mul128(a_hi, a_lo, s_hi, s_lo), *_mul128(c_hi, c_lo, i_hi, i_lo))
        # PCG64's XSL-RR output, then next_double's top 53 bits
        x = hi ^ lo
        rot = hi >> 58
        x = x >> rot | x << ((64 - rot) & 63)
    return low + (high - low) * ((x >> 11).astype(np.float64) * (1.0 / 9007199254740992.0))


def _sweep_states(config: ExperimentConfig) -> np.ndarray:
    """Seeded PCG64 states of every sweep cell's ``default_rng([seed, level, p, trial])``.

    Returns a (4, radii, levels * trials) uint64 array; the cells of a
    radius run level-major, like the columns of its fit. Levels group by
    their number of 32-bit words, so each group's keys share one length.
    """
    seed = _uint32_words(config.seed)
    n_p, n_t = len(config.p_values), config.trials
    states = np.empty((4, n_p, len(config.levels), n_t), dtype=np.uint64)
    level_words = [_uint32_words(level) for level in config.levels]
    for width in {len(w) for w in level_words}:
        rows = [i for i, w in enumerate(level_words) if len(w) == width]
        entropy = np.empty((n_p, len(rows), n_t, len(seed) + width + 2), dtype=np.uint32)
        entropy[..., : len(seed)] = seed
        entropy[..., len(seed) : -2] = np.array([level_words[i] for i in rows])[:, None]
        entropy[..., -2] = np.array(config.p_values)[:, None, None]
        entropy[..., -1] = np.arange(n_t)
        keys = entropy.reshape(-1, entropy.shape[-1])
        states[:, :, rows] = _seed_pcg64(keys).reshape(4, n_p, len(rows), n_t)
    return states.reshape(4, n_p, -1)


def run_circulant_experiment(config: ExperimentConfig) -> MetricsTable:
    """Run the damped-cosine reconstruction sweep on a circulant graph.

    The generator is the delta at the center vertex and the sampling set
    of radius P is the symmetric window of 2P + 1 vertices around it.
    For every (level, radius, trial) cell the observation gets fresh
    uniform noise on ``[-sigma, sigma]`` from a generator seeded by
    ``(seed, level, radius, trial)``, and the reconstruction runs capped
    at the cell's level, so trials are independent and the table is a
    deterministic function of the config.  Each radius grows one chain
    and fits all its (level, trial) observations as one block.  The
    noise block of a radius is the batched form of the per-cell
    ``np.random.default_rng([seed, level, radius, trial]).uniform(-sigma,
    sigma, 2 * radius + 1)`` streams, equal to them bit for bit: all
    cells are seeded in one vectorized pass of numpy's ``SeedSequence``
    hash, and each radius's draws jump PCG64's LCG ahead in one pass.
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
    caps = np.repeat(config.levels, config.trials)
    states = _sweep_states(config)
    jumps = _pcg64_jumps(2 * max(config.p_values) + 1)
    for ip, p in enumerate(config.p_values):
        window = list(range(center - p, center + p + 1))
        scheme = subset_sampler(n, window)
        clean = x0[window]
        clean_scale = float(np.abs(clean).max())
        y = clean[:, None] + _pcg64_uniform(
            states[:, ip], jumps[:, : len(window)], -config.sigma, config.sigma
        )
        # candidates invisible to the window are dropped, as with require_injective=False
        chain = KrylovChain(shifts, [phi0], scheme)
        diff = chain.evaluate(chain.fit(y, caps, config.delta).coefficients) - x0[:, None]
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
    n = len(bases[0]) if bases else _values(x0).size
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
