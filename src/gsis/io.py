"""CSV and JSON emission for the package's value types.

Matrices and vectors go to plain comma-separated files; structured
metadata goes to JSON sidecars.  Every writer takes a directory and returns
the list of files it wrote; a matrix result ``<stem>`` is the pair
``<stem>_<key>.csv`` and ``<stem>.json``, whose ``<key>_file`` names the CSV.

Every matrix CSV is byte for byte what ``np.savetxt(path, matrix,
delimiter=",")`` writes (a 1-D array as one row): each value in ``"%.18e"``.
``save_matrix_csv`` formats a block of rows at a time in numpy.  A row
that holds a non-finite value, a nonzero ``|x|`` outside ``[1e-98, 1e98)``,
or a value whose rounding to 19 digits is within ``1e-9`` of a tie, is
formatted by ``"%.18e" % x`` instead, as ``np.savetxt`` formats every row.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from .experiments import MetricsTable, ModelComparison
from .graphs import ShiftMatrix
from .kernels import ShiftInvariantKernel
from .sampling import Observation, ReconstructionResult, SamplingScheme
from .spaces import SignalSpace
from .spectral import SpectralDecomposition

__all__ = [
    "save_matrix_csv",
    "save_shift_csv",
    "load_matrix_csv",
    "save_json",
    "save_decomposition",
    "save_space",
    "save_kernel",
    "save_scheme",
    "save_observation",
    "save_reconstruction",
    "save_metrics",
    "save_model_comparison",
]


def save_matrix_csv(path: str | Path, matrix: np.ndarray) -> Path:
    """Write ``matrix`` (a 1-D array as one row) as ``np.savetxt(path, matrix, delimiter=",")`` does."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    rows, cols = a.shape
    with open(path, "wb") as fh:
        if cols == 0:  # np.savetxt writes an empty line per row
            fh.write(b"\n" * rows)
            return path
        step = max(1, _BLOCK // cols)
        for start in range(0, rows, step):
            block = a[start : start + step]
            # a row longer than a block is written in pieces of _BLOCK values
            for lo in range(0, cols, _BLOCK):
                fh.write(_format_rows(block[:, lo : lo + _BLOCK], lo + _BLOCK >= cols))
    return path


# The "%.18e" text of a finite |x| in [1e-98, 1e98) is its sign, the 19
# digits of N = round(|x| * 10**(18 - E)) with E = floor(log10|x|), and E.
# E is exact: a first guess from log10 is moved by exact comparisons with a
# double-double table of powers of ten, 10**k = hi + lo with both halves
# rounded from exact rationals.  |x| * 10**(18 - E) is p + r, where
# p = fl(|x| * hi) is an integer (p >= 2**59) and r, below 4096 in size,
# gathers Dekker's exact rounding error of that product and |x| * lo.  The
# only errors are the table's truncation (below 2.5e-13 at this scale) and
# the roundings of |x| * lo and of the sum in r (below 1.2e-13 and
# 2.3e-13): r is within 1e-12 of its exact value.  N = p + round(r), so
# a value whose fraction of r lies within _TIE_MARGIN = 1e-9, 1000 times
# the bound, of 1/2 could round either way, and its row is formatted by
# "%.18e" as a whole; so are rows with a non-finite value or a nonzero |x|
# outside the range, whose exponent may take three digits.  N never rounds
# up to 10**19: the largest double below each 10**k in the range lies more
# than 5e-20 of it below, so its N is at most 10**19 - 1.
_BLOCK = 1 << 14  # values formatted at once: about 5 MB of numpy temporaries
_TINY, _HUGE = 1e-98, 1e98
_TIE_MARGIN = 1e-9
_K0 = 100  # index of 10**0 in the power table, which spans 10**-100 .. 10**120
_DEKKER = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves

# One value's field, 26 bytes: "-d.d" "dddd" x 4 "de" "+dd," where the
# first byte, the minus sign, is dropped for a value without sign bit.
_FIELD = np.dtype(
    {
        "names": ["sign_d0", "dot_d1", "q0", "q1", "q2", "q3", "d18_e", "exp"],
        "formats": [np.uint16, np.uint16] + [np.uint32] * 4 + [np.uint16, np.uint32],
        "offsets": [0, 2, 4, 8, 12, 16, 20, 22],
        "itemsize": 26,
    }
)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of doubles into halves whose pairwise products are exact."""
    c = _DEKKER * a
    high = c - (c - a)
    return high, a - high


@cache
def _tables() -> dict[str, np.ndarray]:
    """Double-double powers of ten and the byte words of a field, built on first use."""
    exact = [Fraction(10) ** k for k in range(-_K0, 121)]
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - Fraction(h)) for v, h in zip(exact, hi.tolist())])

    def words(texts, dtype):
        return np.frombuffer(b"".join(texts), dtype=dtype)

    digits = [b"%d" % d for d in range(10)]
    exps = [(b"-" if e < 0 else b"+") + b"%02d," % (abs(e) % 100) for e in range(-_K0, _K0)]
    return {
        "hi": hi,
        "lo": lo,
        "hi_split": np.stack(_split(hi)),
        "sign_d0": words((b"-" + d for d in digits), np.uint16),
        "dot_d1": words((b"." + d for d in digits), np.uint16),
        "quad": words((b"%04d" % q for q in range(10_000)), np.uint32),
        "d18_e": words((d + b"e" for d in digits), np.uint16),
        "exp": words(exps, np.uint32),
    }


def _format_rows(block: np.ndarray, ends_rows: bool) -> bytes:
    """The "%.18e" text of a block of rows, or of row pieces, each ending in a newline if ``ends_rows`` else a comma."""
    t = _tables()
    hi, lo = t["hi"], t["lo"]
    rows, cols = block.shape
    x = block.ravel()
    ax = np.abs(x)
    zero = ax == 0.0
    fast = zero | ((ax >= _TINY) & (ax < _HUGE))
    a = np.where(fast & ~zero, ax, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    at = e + _K0
    e -= (a < hi[at]) | ((a == hi[at]) & (lo[at] > 0.0))  # a < 10**e
    at = e + 1 + _K0
    e += (a > hi[at]) | ((a == hi[at]) & (lo[at] <= 0.0))  # a >= 10**(e + 1)
    k = 18 - e + _K0
    p = a * hi[k]
    a_hi, a_lo = _split(a)
    s_hi, s_lo = t["hi_split"][:, k]
    r = (((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo) + a * lo[k]
    whole = np.floor(r)
    frac = r - whole
    fast &= np.abs(frac - 0.5) >= _TIE_MARGIN
    # p + round(r) in uint64 arithmetic: round(r) wraps around as a two's complement
    n = p.astype(np.uint64) + (whole + (frac > 0.5)).astype(np.int64).view(np.uint64)
    n[zero] = 0  # a zero was scaled as 1.0, so its e is already 0
    d0 = n // np.uint64(10**18)
    rest = (n - d0 * np.uint64(10**18)).astype(np.int64)
    head = rest // 10
    d18 = rest - head * 10
    d1 = head // 10**16
    mid = head - d1 * 10**16
    halves = np.divmod(mid, 10**8)
    field = np.empty(x.size, _FIELD)
    field["sign_d0"] = t["sign_d0"][d0]
    field["dot_d1"] = t["dot_d1"][d1]
    for j, half in enumerate(halves):
        quads = np.divmod(half, 10**4)
        field[f"q{2 * j}"], field[f"q{2 * j + 1}"] = t["quad"][quads[0]], t["quad"][quads[1]]
    field["d18_e"] = t["d18_e"][d18]
    field["exp"] = t["exp"][e + _K0]
    text = field.view(np.uint8).reshape(rows, cols, 26)
    if ends_rows:
        text[:, -1, -1] = ord("\n")
    keep = np.ones(text.shape, dtype=bool)
    negative = np.signbit(x).reshape(rows, cols)
    keep[:, :, 0] = negative
    slow = ~fast.reshape(rows, cols).all(axis=1)
    keep[slow] = False
    packed = text[keep]
    if not slow.any():
        return packed.tobytes()
    fmt = ",".join(["%.18e"] * cols) + ("\n" if ends_rows else ",")
    ends = np.cumsum(np.where(slow, 0, 25 * cols + negative.sum(axis=1))).tolist()
    pieces, start = [], 0
    for row, end, is_slow in zip(block, ends, slow.tolist()):
        pieces.append((fmt % tuple(row.tolist())).encode("ascii") if is_slow else packed[start:end].tobytes())
        start = end
    return b"".join(pieces)


def save_shift_csv(path: str | Path, shift: ShiftMatrix) -> Path:
    """Write a shift's dense matrix from its row-sorted entry list, one row at a time.

    The file is byte for byte what ``save_matrix_csv(path, shift.matrix)``
    writes, without the dense matrix: each row starts as N copies of the
    ``+0.0`` field and takes its stored entries (every entry but ``+0.0``,
    so signed zeros too) in ``"%.18e"``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = shift.n_vertices
    starts, cols = shift._ptr.tolist(), shift._cols.tolist()
    fields = ["%.18e" % v for v in shift._weights.tolist()]
    zero = "%.18e" % 0.0
    line = [zero] * n
    with open(path, "w", encoding="latin1") as fh:
        for r in range(n):
            span = slice(starts[r], starts[r + 1])
            for c, f in zip(cols[span], fields[span]):
                line[c] = f
            fh.write(",".join(line) + "\n")
            for c in cols[span]:
                line[c] = zero
    return path


def load_matrix_csv(path: str | Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(Path(path), delimiter=","))


def save_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _save_matrix_result(
    outdir: str | Path, stem: str, key: str, matrix: np.ndarray, meta: dict
) -> list[Path]:
    """Write ``<stem>_<key>.csv`` and a ``<stem>.json`` holding ``meta`` plus ``<key>_file``."""
    outdir = Path(outdir)
    csv_path = save_matrix_csv(outdir / f"{stem}_{key}.csv", matrix)
    return [csv_path, save_json(outdir / f"{stem}.json", {**meta, f"{key}_file": csv_path.name})]


def _save_table(outdir: str | Path, stem: str, lines: list[str], meta: dict) -> list[Path]:
    """Write the long-form ``<stem>.csv`` from its lines and the ``<stem>.json`` summary."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"{stem}.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    return [csv_path, save_json(outdir / f"{stem}.json", meta)]


def save_decomposition(decomp: SpectralDecomposition, outdir: str | Path) -> list[Path]:
    meta = {
        "n_vertices": decomp.n_vertices,
        "n_shifts": decomp.n_shifts,
        "eigenvalues": decomp.eigenvalues.tolist(),
        "assumption1_holds": decomp.assumption1_holds,
        "min_spectral_gap": decomp.min_spectral_gap,
        "max_residual": decomp.max_residual,
    }
    return _save_matrix_result(outdir, "decomposition", "basis", decomp.basis, meta)


def save_space(space: SignalSpace, outdir: str | Path) -> list[Path]:
    meta = {
        "omega": list(space.omega),
        "dim": space.dim,
        "n_vertices": space.n_vertices,
        "provenance": space.provenance,
    }
    return _save_matrix_result(outdir, "space", "basis", space.basis, meta)


def save_kernel(kernel: ShiftInvariantKernel, outdir: str | Path) -> list[Path]:
    meta = {
        "family": kernel.family,
        "params": kernel.params or {},
        "spectral_values": kernel.spectral_values.tolist(),
        "omega": list(kernel.omega),
    }
    return _save_matrix_result(outdir, "kernel", "matrix", kernel.matrix, meta)


def save_scheme(scheme: SamplingScheme, outdir: str | Path) -> list[Path]:
    meta = {
        "provenance": scheme.provenance,
        "n_samples": scheme.n_samples,
        "n_vertices": scheme.n_vertices,
        "vertices": None if scheme.vertices is None else list(scheme.vertices),
        "initial_vertex": scheme.initial_vertex,
        "n_snapshots": scheme.n_snapshots,
    }
    return _save_matrix_result(outdir, "scheme", "matrix", scheme.matrix, meta)


def save_observation(obs: Observation, outdir: str | Path) -> list[Path]:
    meta = {"n_samples": int(obs.values.shape[0]), "scheme_provenance": obs.scheme.provenance}
    return _save_matrix_result(outdir, "observation", "values", obs.values, meta)


def save_reconstruction(result: ReconstructionResult, outdir: str | Path) -> list[Path]:
    meta = {
        "depth": result.depth,
        "dims_trace": list(result.dims_trace),
        "residual_trace": list(result.residual_trace),
        "final_residual_norm": result.residual_trace[-1],
    }
    return _save_matrix_result(outdir, "reconstruction", "signal", result.signal, meta)


def save_metrics(table: MetricsTable, outdir: str | Path) -> list[Path]:
    """Write a sweep as one tidy CSV (level, p, metric, value) plus a JSON summary."""
    grids = {
        "re_log": table.re_log,
        "se_log": table.se_log,
        "re_raw": table.re_raw,
        "se_raw": table.se_raw,
    }
    lines = ["level,p,metric,value"]
    for il, level in enumerate(table.config.levels):
        for ip, p in enumerate(table.config.p_values):
            for name, grid in grids.items():
                lines.append(f"{level},{p},{name},{grid[il, ip]:.17g}")
    meta = {
        "config": asdict(table.config),
        "log_floor": 1e-6,
        "grids": {name: grid.tolist() for name, grid in grids.items()},
    }
    return _save_table(outdir, "metrics", lines, meta)


def save_model_comparison(comp: ModelComparison, outdir: str | Path) -> list[Path]:
    lines = ["level,metric,value"]
    for li, level in enumerate(comp.levels):
        lines.append(f"{level},f_krylov_mean,{comp.mean_krylov[li]:.17g}")
        lines.append(f"{level},f_bandlimited_mean,{comp.mean_bandlimited[li]:.17g}")
    meta = {
        "levels": list(comp.levels),
        "rule": comp.rule,
        "generator_vertices": [list(v) for v in comp.generator_vertices],
        "dims": comp.dims.tolist(),
        "f_krylov": comp.f_krylov.tolist(),
        "f_bandlimited": comp.f_bandlimited.tolist(),
        "mean_krylov": comp.mean_krylov.tolist(),
        "mean_bandlimited": comp.mean_bandlimited.tolist(),
    }
    return _save_table(outdir, "model_comparison", lines, meta)
