"""The benchmark's workloads: set-up, ops, and the checks on each op's output.

Every input comes from the seed a workload is built with.  A workload's
constructor is its set-up (the graphs, shifts, schemes and input files its
ops consume); :meth:`prepare_checks` builds the plain-numpy references the
checks compare against and is not part of set-up.  Ops call gsis through
module attributes looked up at call time, so a traced run sees them.
Each check raises :class:`CheckFailed` when an output is wrong.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import gsis
import gsis.cli

OUT_DIR = Path(__file__).resolve().parent / "out"


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def expect_close(actual, reference, tol: float, what: str) -> None:
    """``max |actual - reference| <= tol * max(1, max |reference|)``."""
    actual = np.asarray(actual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    expect(actual.shape == reference.shape, f"{what}: shape {actual.shape} != {reference.shape}")
    scale = max(1.0, float(np.abs(reference).max(initial=0.0)))
    err = float(np.abs(actual - reference).max(initial=0.0))
    expect(err <= tol * scale, f"{what}: error {err:.3e} above {tol:.0e} x {scale:.3g}")


@dataclass
class Op:
    """One timed call into gsis and the check of what it returned."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def apply_circulant(v: np.ndarray, q: int) -> np.ndarray:
    """Reference circulant shift (1 on the diagonal, -1/2 at offsets +-q) applied along axis 0.

    The shift is never built as a dense (N, N) matrix, so the references add
    little to the workload process's peak RSS.
    """
    return v - 0.5 * (np.roll(v, q, axis=0) + np.roll(v, -q, axis=0))


def span_basis(columns: np.ndarray, rel: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column span, by SVD with a relative rank cut."""
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    return u[:, : int(np.sum(s > rel * s[0]))]


def monomial_span(offsets, phi: np.ndarray, level: int) -> np.ndarray:
    """Orthonormal basis of span{S_1^a S_2^b phi : a + b <= level}, built explicitly.

    ``S_k`` is the circulant shift with offset ``offsets[k]``.
    """
    cols = []
    frontier = [phi]
    for _ in range(level + 1):
        cols.extend(frontier)
        frontier = [apply_circulant(v, q) for v in frontier for q in offsets]
    return span_basis(np.column_stack(cols))


def damped_cosine(n: int, decay: float, frequency: float) -> np.ndarray:
    d = np.abs(np.arange(n) - n // 2)
    return np.exp(-decay * d) * np.cos(frequency * d)


class Sweep:
    """The paper's damped-cosine sweep; one op is one ``run_circulant_experiment``."""

    name = "sweep"
    RADII = (1, 9, 16, 25, 34, 45)
    TRIALS = 2
    OPS_PER_ROUND = 5
    ROUND_S = 2.3  # nominal seconds per round (2 cores, numpy 2.4 with OpenBLAS)
    PROBE = "interpreter"  # the speed probe that tracks these ops (see harness.py)
    SHALLOW = (1, 2, 3)  # levels whose cells are checked against dense least squares
    TOL = 1e-9

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.config = gsis.ExperimentConfig(trials=self.TRIALS, p_values=self.RADII)

    def prepare_checks(self) -> None:
        cfg = self.config
        n, center = cfg.n_vertices, cfg.n_vertices // 2
        self.x0 = cfg.amplitude * damped_cosine(n, cfg.decay, cfg.frequency)
        phi = np.zeros(n)
        phi[center] = 1.0
        self.references = {}  # (level, p) -> (window, sampled basis pseudo-inverse, basis)
        for level in self.SHALLOW:
            basis = monomial_span(cfg.offsets, phi, level)
            for p in self.RADII:
                window = np.arange(center - p, center + p + 1)
                sampled = basis[window]
                s = np.linalg.svd(sampled, compute_uv=False)
                if s[-1] > 1e-8 * s[0]:  # injective and well conditioned on this cell
                    self.references[level, p] = (window, np.linalg.pinv(sampled), basis)
        expect(len(self.references) >= 6, "too few well-conditioned reference cells")

    def round(self) -> list[Op]:
        seeds = self.rng.integers(0, 2**31, size=self.OPS_PER_ROUND)
        return [self._op(replace(self.config, seed=int(s))) for s in seeds]

    def _op(self, config) -> Op:
        return Op(
            "run_circulant_experiment",
            lambda: gsis.experiments.run_circulant_experiment(config),
            lambda table: self.check(config, table),
        )

    def check(self, config, table) -> None:
        shape = (len(config.levels), len(config.p_values), config.trials)
        expect(table.re_trials.shape == shape, f"re_trials shape {table.re_trials.shape}")
        expect(bool(np.all(np.isfinite(table.re_trials))), "non-finite errors")
        expect(bool(np.all(table.re_log >= -6.0 - 1e-9)), "re_log below the 1e-6 floor")
        mean = table.re_raw[table.cell(6, 16)]
        expect(0.03 <= mean <= 0.14, f"re_raw at (6, 16) = {mean:.4f} outside [0.03, 0.14]")
        scale = float(np.abs(self.x0).max())
        for (level, p), (window, pinv, basis) in self.references.items():
            il, ip = table.cell(level, p)
            for trial in range(config.trials):
                rng = np.random.default_rng([config.seed, level, p, trial])
                y = self.x0[window] + rng.uniform(-config.sigma, config.sigma, size=len(window))
                ref = float(np.abs(basis @ (pinv @ y) - self.x0).max()) / scale
                got = table.re_trials[il, ip, trial]
                expect(
                    abs(got - ref) <= self.TOL,
                    f"cell (level {level}, p {p}, trial {trial}): {got!r} vs reference {ref!r}",
                )

    def close(self) -> None:
        pass


class DeepChain:
    """Deep weighted chains on a large circulant; one op is one ``reconstruct_krylov``."""

    name = "deep-chain"
    N = 2000
    OFFSETS = (1, 3)
    RADIUS = 300
    # Every round runs each level cap once, in a seeded order, so every run
    # times the same caps and its latency quantiles depend on speed, not on draws.
    CAPS = (40, 55, 70, 85, 100)
    ROUND_S = 6.25
    PROBE = "memory"
    SIGMA = 0.01
    DECAY = 0.01
    FREQUENCY = 2.0 * math.pi / 50.0
    REF_LEVEL = 8  # monomial basis condition number about 3e6 here
    TOL = 1e-8

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        n, center = self.N, self.N // 2
        _, self.shifts = gsis.build_circulant(n, self.OFFSETS)
        self.window = np.arange(center - self.RADIUS, center + self.RADIUS + 1)
        self.scheme = gsis.subset_sampler(n, self.window)
        self.phi = np.zeros(n)
        self.phi[center] = 1.0
        self.clean = damped_cosine(n, self.DECAY, self.FREQUENCY)[self.window]

    def prepare_checks(self) -> None:
        self.ref_basis = monomial_span(self.OFFSETS, self.phi, self.REF_LEVEL)
        self.ref_pinv = np.linalg.pinv(self.ref_basis[self.window])

    def round(self) -> list[Op]:
        ops = []
        for cap in self.rng.permutation(self.CAPS):
            y = self.clean + self.rng.uniform(-self.SIGMA, self.SIGMA, size=len(self.window))
            ops.append(self._op(int(cap), y))
        return ops

    def _op(self, cap: int, y: np.ndarray) -> Op:
        def run():
            return gsis.sampling.reconstruct_krylov(
                self.shifts, [self.phi], self.scheme, y, max_level=cap, keep_iterates=True
            )

        return Op("reconstruct_krylov", run, lambda result: self.check(cap, y, result))

    def check(self, cap: int, y: np.ndarray, result) -> None:
        expect(result.depth == cap, f"chain stopped at level {result.depth} of {cap}")
        expected_dims = tuple([1] + [3 * k for k in range(1, cap + 1)])
        expect(result.dims_trace == expected_dims, "span dimensions are not 1, 3, 6, ..., 3n")
        res = np.asarray(result.residual_trace)
        expect(bool(np.all(res[1:] <= res[:-1] * (1 + 1e-12))), "residual trace increases")
        expect_close(
            np.linalg.norm(y - result.signal[self.window]), res[-1], self.TOL, "final residual"
        )
        ref = self.ref_basis @ (self.ref_pinv @ y)
        expect_close(result.signal_trace[self.REF_LEVEL], ref, self.TOL, f"level-{self.REF_LEVEL} fit")

    def close(self) -> None:
        pass


def read_csv(path: Path) -> np.ndarray:
    values = np.loadtxt(path, delimiter=",", ndmin=2)
    expect(bool(np.all(np.isfinite(values))), f"{path.name}: non-finite values")
    return values


def read_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


class Cli:
    """In-process ``gsis.cli.main`` verbs; one op is one verb.

    Verbs are spread over a circulant (repeated joint eigenvalues, two
    shifts) and a benchmark-written weighted edge-list graph with its
    Laplacian (one shift).
    """

    name = "cli"
    N = 1000  # circulant order
    OFFSETS = (1, 3)
    M = 800  # edge-list graph order
    COMMUNITIES = 4
    BRIDGES = 6  # edges between consecutive communities
    BAND = 20  # frequencies of the bandlimited space
    K = 3  # frequencies of the reconstruction instance (direct and krylov agree on it)
    SAMPLES = 40
    SNAPSHOTS = 12
    # Below the round's actual time (about 9.5 s at the reference speed), so
    # that a 25 s run holds four rounds (44 ops) and measures about 40 s:
    # op_tail_s then falls mid-way into the group of three ~1.2 s verbs
    # rather than at its lower edge, which halves its run-to-run spread.
    ROUND_S = 6.25
    PROBE = "blas"
    TOL = 1e-8

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        OUT_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"cli-{seed}-", dir=OUT_DIR))
        self.runs = 0
        self._write_graph()
        self._write_reconstruction_inputs()
        self._write_signals()

    def _write_graph(self) -> None:
        """Four 200-vertex expanders joined in a chain by a few bridges.

        The weak bridges put three small, well separated eigenvalues below
        the bulk, so the lowest K frequencies are a well-posed band for the
        reconstruction instance.
        """
        m, rng = self.M, self.rng
        size = m // self.COMMUNITIES
        edges = set()
        for c in range(self.COMMUNITIES):
            base = c * size
            edges |= {(base + i, base + i + 1) for i in range(size - 1)} | {(base, base + size - 1)}
            while len(edges) < (c + 1) * 3 * size:
                a, b = (base + int(v) for v in rng.integers(0, size, size=2))
                if a != b:
                    edges.add((min(a, b), max(a, b)))
        for c in range(self.COMMUNITIES - 1):
            for a, b in zip(rng.integers(0, size, self.BRIDGES), rng.integers(0, size, self.BRIDGES)):
                edges.add((c * size + int(a), (c + 1) * size + int(b)))
        edges = sorted(edges)
        weights = rng.uniform(0.5, 1.5, size=len(edges))
        adj = np.zeros((m, m))
        for (i, j), w in zip(edges, weights):
            adj[i, j] = adj[j, i] = w
        lap = np.diag(adj.sum(axis=1)) - adj
        lam, u = np.linalg.eigh(lap)
        gaps = np.diff(lam[: self.K + 1]) / lam[1 : self.K + 1]
        expect(gaps.min() > 0.2, f"low eigenvalues not separated: {lam[: self.K + 1]}")
        self.laplacian, self.lap_eigenvalues, self.lap_basis = lap, lam, u
        self.graph_file = self.workdir / "graph.txt"
        lines = [f"{m} {len(edges)}"] + [f"{i} {j} {w:.17g}" for (i, j), w in zip(edges, weights)]
        self.graph_file.write_text("\n".join(lines) + "\n")

    def _write_reconstruction_inputs(self) -> None:
        band = self.lap_basis[:, : self.K]
        self.samples = np.sort(self.rng.choice(self.M, size=self.SAMPLES, replace=False))
        x_true = band @ self.rng.standard_normal(self.K)
        y = x_true[self.samples] + 0.01 * self.rng.standard_normal(self.SAMPLES)
        self.y_file = self.workdir / "y.csv"
        np.savetxt(self.y_file, y, delimiter=",")
        self.gen_file = self.workdir / "generator.csv"
        np.savetxt(self.gen_file, band.sum(axis=1)[None, :], delimiter=",")
        coeffs, *_ = np.linalg.lstsq(band[self.samples], y, rcond=None)
        self.x_ref = band @ coeffs

    def _write_signals(self) -> None:
        n, rng = self.N, self.rng
        signals = []
        for _ in range(3):
            x = np.roll(
                damped_cosine(n, rng.uniform(0.05, 0.2), rng.uniform(0.2, 1.0)),
                int(rng.integers(0, n)),
            )
            x[rng.choice(n, size=3, replace=False)] += rng.choice([-1.0, 1.0], size=3) * 2.0
            signals.append(x)
        self.signals = np.array(signals)
        self.signals_file = self.workdir / "signals.csv"
        header = ",".join(str(i) for i in range(n))
        np.savetxt(self.signals_file, self.signals, delimiter=",", header=header, comments="")

    def prepare_checks(self) -> None:
        lam, u = self.lap_eigenvalues, self.lap_basis
        self.diffusion = (u * np.exp(lam / 2.0)) @ u.T  # sigma = 1

    def round(self) -> list[Op]:
        c = ["--circulant", str(self.N), "--q", ",".join(map(str, self.OFFSETS))]
        g = ["--graph", str(self.graph_file), "--shift-kind", "laplacian"]
        w = ",".join(map(str, self.samples))
        center = str(self.N // 2)
        seed = str(int(self.rng.integers(0, 2**31)))
        verbs = [
            (["graph", "export", *c], self.check_export),
            (["space", "bandlimited", *g, "--omega", f"0:{self.BAND - 1}"], self.check_bandlimited),
            (["space", "gsis", *c, "--delta", center], self.check_gsis),
            (["space", "bounds", *g, "--omega", "0:3", "--frame-level", "4"], self.check_bounds),
            (["space", "uncertainty", *c, "--delta", center], self.check_uncertainty),
            (["kernel", "make", *g, "--family", "diffusion", "--param", "sigma=1.0"], self.check_kernel),
            (["sample", "dynamic", *g, "--i0", "0", "--k", str(self.SNAPSHOTS)], self.check_dynamic),
            (
                ["reconstruct", "direct", *g, "--omega", f"0:{self.K - 1}", "--w", w, "--y", str(self.y_file)],
                self.check_reconstruction,
            ),
            (
                # Capped at the band's depth: beyond it the chain would pick up the generator's
                # roundoff outside the band, amplified by (largest / band eigenvalue) per level.
                ["reconstruct", "krylov", *g, "--generator", str(self.gen_file), "--w", w,
                 "--y", str(self.y_file), "--max-level", str(self.K - 1)],
                self.check_reconstruction,
            ),
            (
                ["model-compare", *c, "--signals", str(self.signals_file), "--generators", "adaptive:3", "--levels", "0:6"],
                self.check_model_compare,
            ),
            (
                ["experiment", "damped-cosine", "--n", "100", "--trials", "2", "--p-range", "4,8,16",
                 "--level-range", "1:8", "--seed", seed],
                self.check_experiment,
            ),
        ]
        return [self.verb(argv, check) for argv, check in verbs]

    def verb(self, argv: list[str], check: Callable[[Path], None]) -> Op:
        """An op running one CLI verb into a fresh output directory."""

        def run():
            self.runs += 1
            out = self.workdir / f"out{self.runs}"
            err = _io.StringIO()
            with contextlib.redirect_stdout(_io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = gsis.cli.main([*argv, "--out", str(out)])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            return code, out, err.getvalue()

        def verify(output):
            code, out, err = output
            try:
                expect(code == 0, f"exit code {code}: {err.strip()}")
                check(out)
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return Op(" ".join(argv[:2]) if not argv[1].startswith("-") else argv[0], run, verify)

    def check_export(self, out: Path) -> None:
        i = np.arange(self.N)
        for k, q in enumerate(self.OFFSETS):
            s = read_csv(out / f"shift_{k}.csv")
            s[i, i] -= 1.0  # what is left of the exported shift after its nonzeros are taken off
            s[i, (i + q) % self.N] += 0.5
            s[i, (i - q) % self.N] += 0.5
            expect_close(s, np.zeros_like(s), 1e-12, f"shift_{k}")
        u = read_csv(out / "decomposition_basis.csv")
        expect_close(u.T @ u, np.eye(self.N), self.TOL, "basis orthonormality")
        meta = read_json(out / "decomposition.json")
        lams = np.asarray(meta["eigenvalues"])
        for k, q in enumerate(self.OFFSETS):
            expect_close(apply_circulant(u, q), u * lams[k], self.TOL, f"eigenpairs of shift {k}")
            exact = np.sort(1.0 - np.cos(2.0 * np.pi * q * np.arange(self.N) / self.N))
            expect_close(np.sort(lams[k]), exact, self.TOL, f"spectrum of shift {k}")

    def check_bandlimited(self, out: Path) -> None:
        q = read_csv(out / "space_basis.csv")
        expect(read_json(out / "space.json")["dim"] == self.BAND, "bandlimited dimension")
        expect_close(q.T @ q, np.eye(self.BAND), self.TOL, "basis orthonormality")
        small = q.T @ self.laplacian @ q
        expect_close(self.laplacian @ q, q @ small, self.TOL, "invariant subspace")
        expect_close(np.linalg.eigvalsh(small), self.lap_eigenvalues[: self.BAND], self.TOL, "band")

    def check_gsis(self, out: Path) -> None:
        q = read_csv(out / "space_basis.csv")
        dim = self.N // 2 + 1  # vectors symmetric about the generator's vertex
        expect(q.shape == (self.N, dim), f"space basis shape {q.shape}, expected {(self.N, dim)}")
        expect_close(q.T @ q, np.eye(dim), self.TOL, "basis orthonormality")
        mirror = (self.N - np.arange(self.N)) % self.N  # reflection about vertex N/2
        expect_close(q[mirror], q, self.TOL, "basis symmetry")

    def check_bounds(self, out: Path) -> None:
        b = read_json(out / "bounds.json")
        expect(b["omega"] == [0, 1, 2, 3], f"omega {b['omega']}")
        (r_lo, r_hi), (f_lo, f_hi) = b["riesz_bounds"], b["frame_bounds"]
        expect(0 < r_lo <= r_hi and math.isfinite(r_hi), f"riesz bounds {r_lo}, {r_hi}")
        expect(0 < f_lo <= f_hi and math.isfinite(f_hi), f"frame bounds {f_lo}, {f_hi}")

    def check_uncertainty(self, out: Path) -> None:
        u = read_json(out / "uncertainty.json")
        expect(u["holds"] is True, "uncertainty bound does not hold")
        expect(u["support_size"] == 1 and u["space_dim"] == self.N // 2 + 1, f"report {u}")

    def check_kernel(self, out: Path) -> None:
        expect_close(read_csv(out / "kernel_matrix.csv"), self.diffusion, self.TOL, "diffusion kernel")

    def check_dynamic(self, out: Path) -> None:
        rows = np.zeros((self.SNAPSHOTS, self.M))
        row = np.zeros(self.M)
        row[0] = 1.0
        for k in range(self.SNAPSHOTS):
            rows[k] = row
            row = self.laplacian @ row  # the state matrix is the graph's one, symmetric shift
        expect_close(read_csv(out / "scheme_matrix.csv"), rows, 1e-12, "dynamic scheme")

    def check_reconstruction(self, out: Path) -> None:
        x = read_csv(out / "reconstruction_signal.csv").reshape(-1)
        expect_close(x, self.x_ref, self.TOL, "reconstruction vs least squares")
        read_json(out / "observation.json")

    def check_model_compare(self, out: Path) -> None:
        mc = read_json(out / "model_comparison.json")
        dims = np.asarray(mc["dims"])
        expect(dims.shape == (3, 7) and bool(np.all(np.diff(dims, axis=1) >= 0)), "model dims")
        for key in ("f_krylov", "f_bandlimited"):
            f = np.asarray(mc[key])
            expect(bool(np.all(np.isfinite(f)) and np.all(f >= 0)), f"{key} values")
        for s, x in enumerate(self.signals):
            top = sorted(np.argsort(-np.abs(x), kind="stable")[:3].tolist())
            expect(mc["generator_vertices"][s] == top, f"generators of signal {s}")
            rest = np.delete(np.abs(x), top)
            expect_close(mc["f_krylov"][s][0], rest.max(), 1e-12, f"level-0 error of signal {s}")
        lines = (out / "model_comparison.csv").read_text().splitlines()
        expect(len(lines) == 1 + 2 * 7, "model_comparison.csv rows")

    def check_experiment(self, out: Path) -> None:
        lines = (out / "metrics.csv").read_text().splitlines()
        expect(lines[0] == "level,p,metric,value" and len(lines) == 1 + 8 * 3 * 4, "metrics.csv rows")
        values = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
        expect(bool(np.all(np.isfinite(values))), "non-finite metrics")
        meta = read_json(out / "metrics.json")
        expect(bool(np.all(np.asarray(meta["grids"]["re_log"]) >= -6.0 - 1e-9)), "re_log floor")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sweep, DeepChain, Cli)}
