"""CSV and JSON emission for the package's value types.

Matrices and vectors go to plain comma-separated files; structured
metadata goes to JSON sidecars.  Every writer takes a directory and a stem
and returns the list of files it wrote.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .experiments import MetricsTable, ModelComparison
from .kernels import ShiftInvariantKernel
from .sampling import Observation, ReconstructionResult, SamplingScheme
from .spaces import SignalSpace
from .spectral import SpectralDecomposition

__all__ = [
    "save_matrix_csv",
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


def load_matrix_csv(path: str | Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(Path(path), delimiter=","))


def save_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def save_decomposition(
    decomp: SpectralDecomposition, outdir: str | Path, stem: str = "decomposition"
) -> list[Path]:
    outdir = Path(outdir)
    basis = save_matrix_csv(outdir / f"{stem}_basis.csv", decomp.basis)
    meta = save_json(
        outdir / f"{stem}.json",
        {
            "n_vertices": decomp.n_vertices,
            "n_shifts": decomp.n_shifts,
            "eigenvalues": decomp.eigenvalues.tolist(),
            "assumption1_holds": decomp.assumption1_holds,
            "min_spectral_gap": decomp.min_spectral_gap,
            "max_residual": decomp.max_residual,
            "basis_file": basis.name,
        },
    )
    return [basis, meta]


def save_space(space: SignalSpace, outdir: str | Path, stem: str = "space") -> list[Path]:
    outdir = Path(outdir)
    basis = save_matrix_csv(outdir / f"{stem}_basis.csv", space.basis)
    meta = save_json(
        outdir / f"{stem}.json",
        {
            "omega": list(space.omega),
            "dim": space.dim,
            "n_vertices": space.n_vertices,
            "provenance": space.provenance,
            "basis_file": basis.name,
        },
    )
    return [basis, meta]


def save_kernel(
    kernel: ShiftInvariantKernel, outdir: str | Path, stem: str = "kernel"
) -> list[Path]:
    outdir = Path(outdir)
    matrix = save_matrix_csv(outdir / f"{stem}_matrix.csv", kernel.matrix)
    meta = save_json(
        outdir / f"{stem}.json",
        {
            "family": kernel.family,
            "params": kernel.params or {},
            "spectral_values": kernel.spectral_values.tolist(),
            "omega": list(kernel.omega),
            "matrix_file": matrix.name,
        },
    )
    return [matrix, meta]


def save_scheme(
    scheme: SamplingScheme, outdir: str | Path, stem: str = "scheme"
) -> list[Path]:
    outdir = Path(outdir)
    matrix = save_matrix_csv(outdir / f"{stem}_matrix.csv", scheme.matrix)
    meta = save_json(
        outdir / f"{stem}.json",
        {
            "provenance": scheme.provenance,
            "n_samples": scheme.n_samples,
            "n_vertices": scheme.n_vertices,
            "vertices": None if scheme.vertices is None else list(scheme.vertices),
            "initial_vertex": scheme.initial_vertex,
            "n_snapshots": scheme.n_snapshots,
            "matrix_file": matrix.name,
        },
    )
    return [matrix, meta]


def save_observation(
    obs: Observation, outdir: str | Path, stem: str = "observation"
) -> list[Path]:
    outdir = Path(outdir)
    values = save_matrix_csv(outdir / f"{stem}_values.csv", obs.values)
    meta = save_json(
        outdir / f"{stem}.json",
        {
            "n_samples": int(obs.values.shape[0]),
            "scheme_provenance": obs.scheme.provenance,
            "values_file": values.name,
        },
    )
    return [values, meta]


def save_reconstruction(
    result: ReconstructionResult, outdir: str | Path, stem: str = "reconstruction"
) -> list[Path]:
    outdir = Path(outdir)
    signal = save_matrix_csv(outdir / f"{stem}_signal.csv", result.signal)
    meta = save_json(
        outdir / f"{stem}.json",
        {
            "depth": result.depth,
            "dims_trace": list(result.dims_trace),
            "residual_trace": list(result.residual_trace),
            "final_residual_norm": result.residual_trace[-1],
            "signal_file": signal.name,
        },
    )
    return [signal, meta]


def save_metrics(table: MetricsTable, outdir: str | Path) -> list[Path]:
    """Write a sweep as one tidy CSV (level, p, metric, value) plus a JSON summary."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "metrics.csv"
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
    csv_path.write_text("\n".join(lines) + "\n")
    cfg = table.config
    meta = save_json(
        outdir / "metrics.json",
        {
            "config": {
                "n_vertices": cfg.n_vertices,
                "offsets": list(cfg.offsets),
                "amplitude": cfg.amplitude,
                "decay": cfg.decay,
                "frequency": cfg.frequency,
                "sigma": cfg.sigma,
                "trials": cfg.trials,
                "p_values": list(cfg.p_values),
                "levels": list(cfg.levels),
                "seed": cfg.seed,
                "delta": cfg.delta,
            },
            "log_floor": 1e-6,
            "grids": {name: grid.tolist() for name, grid in grids.items()},
        },
    )
    return [csv_path, meta]


def save_model_comparison(comp: ModelComparison, outdir: str | Path) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "model_comparison.csv"
    lines = ["level,metric,value"]
    for li, level in enumerate(comp.levels):
        lines.append(f"{level},f_krylov_mean,{comp.mean_krylov[li]:.17g}")
        lines.append(f"{level},f_bandlimited_mean,{comp.mean_bandlimited[li]:.17g}")
    csv_path.write_text("\n".join(lines) + "\n")
    meta = save_json(
        outdir / "model_comparison.json",
        {
            "levels": list(comp.levels),
            "rule": comp.rule,
            "generator_vertices": [list(v) for v in comp.generator_vertices],
            "dims": comp.dims.tolist(),
            "f_krylov": comp.f_krylov.tolist(),
            "f_bandlimited": comp.f_bandlimited.tolist(),
            "mean_krylov": comp.mean_krylov.tolist(),
            "mean_bandlimited": comp.mean_bandlimited.tolist(),
        },
    )
    return [csv_path, meta]
