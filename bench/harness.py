"""The workload process: set-up, the timed loop, checks and metrics.

``run.py`` starts this file in fresh interpreters, once per set-up sample
(``--role setup``) and once for the workload itself (``--role work``).
Its last line of standard output is one JSON object for ``run.py``.

The timed loop runs rounds, each a fixed batch of ops drawn from the
seed.  ``--seconds`` fixes the number of rounds through the workload's
nominal round time ``ROUND_S``, so every commit times the same ops and
``op_tail_s`` stays the same order statistic; at the commit that set
``ROUND_S`` a run measures about ``--seconds`` (``cli`` longer, see its
``ROUND_S``).  Op outputs are checked
after each round, outside the timing.

The host's speed drifts by tens of percent over seconds to minutes, as
other tenants load the cores it shares (CPU time stays equal to wall time,
so the process is not descheduled; it just runs slower).  A speed probe,
fixed work that involves no gsis code, runs before each op (outside its
latency) and several times after set-up.  Each workload names the probe
whose slowdowns track its ops' (``PROBE``): interpreter and small-numpy
work for small graphs, multithreaded BLAS for the CLI verbs, and
products with a matrix as large as a dense shift for deep chains.  Every reported
time is the measured wall time scaled by ``SPEED_REF_S / probe``, with the
probe time taken as the median of the seven probes nearest the op: that is,
seconds at the speed at which the probe takes ``SPEED_REF_S``.  The
unscaled wall times are printed beside them.  Traced rounds do not probe.

With ``--trace 1`` every round runs twice on the same inputs (half as
many rounds), untraced first on even rounds and traced first on odd ones,
so ``trace.overhead_s`` (the median of traced minus untraced round time)
carries no ordering or warm-cache bias.
The per-layer metrics are medians over the traced rounds; set-up is traced
too, and its graph-layer spans are added to ``graphs.calls`` and
``graphs.busy_s``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

MIN_OPS = 11  # op_tail_s needs ten ops beyond it
# The probes are sized to take about this long on the reference machine
# (2 vCPUs of a shared x86-64 host, CPython 3.11, numpy 2.4 with OpenBLAS).
SPEED_REF_S = 0.010
SETUP_PROBES = 9
PROBE_WINDOW = 3  # an op's speed is the median probe within this many ops of it


def interpreter_probe() -> float:
    """Seconds taken by a fixed slice of interpreter and small-numpy work.

    It mixes what small-graph ops spend their time on: Python bytecode,
    numpy calls on short vectors (projections and norms, as in
    orthogonalization) and small dense factorizations.  It allocates
    nothing large, so it does not move ``peak_rss_mb``.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, basis, u = rng.standard_normal((60, 20)), rng.standard_normal((100, 12)), rng.standard_normal(100)
    clock = time.perf_counter
    t0 = clock()
    acc = 0
    for i in range(40000):
        acc += i * i % 7
    v = u.copy()
    for _ in range(400):
        v = v - basis @ (basis.T @ v)
        v = v / np.linalg.norm(v) + u
    for _ in range(60):
        q, _ = np.linalg.qr(a)
        q.T @ a
    return clock() - t0


@functools.cache
def _blas_operands():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal((300, 300)), rng.standard_normal((1250, 1250)), rng.standard_normal(1250)


def blas_probe() -> float:
    """Seconds taken by fixed multithreaded BLAS work.

    A 300 x 300 matrix product (compute bound) and products of a 12.5 MB
    matrix with a vector (bound by memory bandwidth, like dense shifts on
    large graphs), both on the BLAS threads.  Its operands stay allocated,
    so ``peak_rss_mb`` carries a constant 12.5 MB on the workloads using it.
    It runs without a warm-up pass: the op before it has evicted its
    operands from the core's caches, so the first pass reads them from the
    shared cache or memory, whose speed other tenants also move.  (With a
    warm-up pass, the probe missed most of deep-chain's slowdowns.)
    """
    c, b, x = _blas_operands()
    clock = time.perf_counter
    t0 = clock()
    for _ in range(5):
        c @ c
    for _ in range(10):
        b @ x
    return clock() - t0


@functools.cache
def _memory_operands():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal((2000, 2000)), rng.standard_normal(2000)


def memory_probe() -> float:
    """Seconds taken by products of a 32 MB matrix with a vector, on the BLAS threads.

    The matrix is as large as one dense shift of a 2000-vertex graph, and
    like products with such shifts the probe is bound by the bandwidth of
    the shared cache and memory, which other tenants load.  Its operand
    stays allocated; on deep-chain that leaves ``peak_rss_mb`` as it was,
    since set-up's own peak is higher.
    """
    b, x = _memory_operands()
    clock = time.perf_counter
    t0 = clock()
    for _ in range(9):
        b @ x
    return clock() - t0


PROBES = {"interpreter": interpreter_probe, "blas": blas_probe, "memory": memory_probe}


@dataclass
class Record:
    name: str
    latency_s: float
    error: str | None
    probe_s: float | None = None


def run_ops(ops, probe=None) -> tuple[float, list]:
    """Run the ops in order; return the ops' total time and (op, output, error, latency, probe).

    A ``probe`` (one of ``PROBES``) runs before each op, outside its
    latency; without one, the probe time is ``None``.
    """
    results = []
    clock = time.perf_counter
    for op in ops:
        probe_s = probe() if probe else None
        t0 = clock()
        try:
            output, error = op.run(), None
        except Exception as exc:  # an op that raises is a failed op, not a failed benchmark
            output, error = None, f"{type(exc).__name__}: {exc}"
        results.append((op, output, error, clock() - t0, probe_s))
    return sum(r[3] for r in results), results


def check_outputs(results) -> list[Record]:
    records = []
    for op, output, error, latency, probe_s in results:
        if error is None:
            try:
                op.check(output)
            except Exception as exc:
                error = f"check failed: {type(exc).__name__}: {exc}"
        records.append(Record(op.name, latency, error, probe_s))
    return records


def measure(workload, n_rounds: int, tracer=None) -> dict:
    """The timed loop; returns round times, op records and, when traced, layer metrics."""
    rounds, records, layer_rounds, overheads = [], [], [], []

    def traced_round(ops) -> float:
        lo, before = len(tracer), Counter(tracer.counts)
        with tracer:
            traced_s, results = run_ops(ops)
        records.extend(check_outputs(results))
        layer_rounds.append(tracer.layer_metrics(lo, len(tracer), tracer.counts - before))
        return traced_s

    while len(rounds) < n_rounds or len(records) < MIN_OPS:
        ops = workload.round()
        traced_first = tracer is not None and len(rounds) % 2 == 1
        if traced_first:
            traced_s = traced_round(ops)
        round_s, results = run_ops(ops, PROBES[workload.PROBE] if tracer is None else None)
        records.extend(check_outputs(results))
        rounds.append(round_s)
        if tracer is not None:
            if not traced_first:
                traced_s = traced_round(ops)
            overheads.append(traced_s - round_s)
    return {"rounds": rounds, "records": records, "layers": layer_rounds, "overheads": overheads}


def scaled_latencies(records: list[Record]) -> list[float]:
    """Each op's latency scaled to the reference speed by the probes around it (records in run order)."""
    probes = [r.probe_s for r in records]
    w = PROBE_WINDOW
    return [
        r.latency_s * SPEED_REF_S / statistics.median(probes[max(0, i - w) : i + w + 1])
        for i, r in enumerate(records)
    ]


def op_metrics(rounds: list[float], records: list[Record]) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced loop (set-up time is added by ``run.py``)."""
    scaled = scaled_latencies(records)
    lat = sorted(scaled)
    raw = sorted(r.latency_s for r in records)
    n = len(lat)
    failed = sum(r.error is not None for r in records)
    metrics = {
        "run_s": sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": lat[n - 11],  # the highest latency with ten ops beyond it
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (n - failed) / n,
    }
    notes = {
        "rounds": len(rounds),
        "ops_per_round": n // len(rounds),
        "ops": n,
        "tail_percentile": 100.0 * (n - 10) / n,
        "fail_frac": failed / n,
        "probe_median_s": statistics.median(r.probe_s for r in records),
        "wall_run_s": sum(rounds),
        "wall_op_p50_s": statistics.median(raw),
        "wall_op_tail_s": raw[n - 11],
        "op_medians_s": {
            name: statistics.median(s for r, s in zip(records, scaled) if r.name == name)
            for name in sorted({r.name for r in records})
        },
    }
    return metrics, notes


def manifest(workload: str, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 prints its config instead
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "work"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Set-up is importing gsis (and numpy with it) and building what the ops consume.
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import gsis

    if Path(gsis.__file__).resolve().parent != SRC / "gsis":
        raise ImportError(f"gsis imported from {gsis.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    if args.trace:  # set-up is traced too; its time is not reported from a traced run
        from tracer import Tracer

        tracer = Tracer()
        with tracer:
            workload = WORKLOADS[args.workload](args.seed)
        setup_spans, setup_counts = len(tracer), Counter(tracer.counts)
    else:
        workload = WORKLOADS[args.workload](args.seed)
    setup_wall_s = time.perf_counter() - t0
    try:
        probe = PROBES[WORKLOADS[args.workload].PROBE]
        setup_probe_s = statistics.median(probe() for _ in range(SETUP_PROBES))
        setup_s = setup_wall_s * SPEED_REF_S / setup_probe_s
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0
        workload.prepare_checks()
        n_rounds = math.ceil(args.seconds / workload.ROUND_S)
        out = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "manifest": manifest(args.workload, args.seed)}
        if args.trace:
            loop = measure(workload, math.ceil(n_rounds / 2), tracer)
            names = loop["layers"][0].keys()
            out["metrics"] = {k: statistics.median(r[k] for r in loop["layers"]) for k in names}
            setup = tracer.layer_metrics(0, setup_spans, setup_counts)
            for k in ("graphs.calls", "graphs.busy_s"):
                out["metrics"][k] += setup[k]
            out["metrics"]["trace.overhead_s"] = statistics.median(loop["overheads"])
            traced = len(loop["layers"])
            out["layers"] = {
                layer: {k: v / traced for k, v in row.items()}
                for layer, row in tracer.layer_table(setup_spans).items()
            }
            spans = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.npz"
            spans.parent.mkdir(exist_ok=True)
            tracer.save(spans)
            out["spans_file"] = str(spans.relative_to(BENCH.parent))
            out["notes"] = {"traced_rounds": traced, "spans": len(tracer), "setup_spans": setup_spans,
                            "setup_graphs_calls": setup["graphs.calls"],
                            "setup_graphs_busy_s": setup["graphs.busy_s"]}
        else:
            loop = measure(workload, n_rounds)
            out["metrics"], out["notes"] = op_metrics(loop["rounds"], loop["records"])
    finally:
        workload.close()
    records = loop["records"]
    out["attempted"] = len(records)
    out["failed"] = sum(r.error is not None for r in records)
    out["failures"] = [f"{r.name}: {r.error}" for r in records if r.error][:10]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
