"""CSV and JSON emission for the package's value types.

Matrices and vectors go to plain comma-separated files; structured
metadata goes to JSON sidecars.  Every writer takes a directory and returns
the list of files it wrote; a matrix result ``<stem>`` is the pair
``<stem>_<key>.csv`` and ``<stem>.json``, whose ``<key>_file`` names the CSV.
"""

from __future__ import annotations

import json
from dataclasses import asdict
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, np.atleast_2d(np.asarray(matrix, dtype=float)), delimiter=",")
    return path


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
