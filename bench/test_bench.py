"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.

They check that a second set of runs agrees with the first within the
bounds of ``BENCHMARK.json``, that traced spans nest with nonnegative self
times, that traced and untraced rounds alternate which runs first, and that
a failing op is counted in the failure fraction.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gsis  # noqa: E402
import gsis.cli  # noqa: E402
import harness  # noqa: E402
import spread  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import Cli, Op  # noqa: E402


def test_second_set_of_runs_agrees_within_bounds():
    spec = spread.load_spec()
    seeds, seconds = [1, 2, 3, 4, 5], 6
    first = spread.collect(["sweep"], seeds, seconds)
    second = spread.collect(["sweep"], seeds, seconds)
    for m in spec["end_to_end"]:
        a = spread.summarize([r["metrics"][m["name"]] for r in first["sweep"]])["median"]
        b = spread.summarize([r["metrics"][m["name"]] for r in second["sweep"]])["median"]
        assert abs(b - a) <= m["bound"] * a, (m["name"], a, b)
    assert all(r["correct"] for r in first["sweep"] + second["sweep"])


def traced_calls(tmp_path: Path) -> Tracer:
    tracer = Tracer()
    config = gsis.ExperimentConfig(n_vertices=40, trials=1, p_values=(3, 6), levels=(1, 2, 3))
    with tracer:
        gsis.experiments.run_circulant_experiment(config)
        argv = ["space", "gsis", "--circulant", "12", "--q", "1,3", "--delta", "6"]
        assert gsis.cli.main([*argv, "--out", str(tmp_path / "space")]) == 0
    return tracer


def test_spans_nest_and_self_times_are_nonnegative(tmp_path, capsys):
    tracer = traced_calls(tmp_path)
    s = tracer.arrays()
    child = np.flatnonzero(s["parent"] >= 0)
    parent = s["parent"][child]
    assert child.size and np.all(parent < child)
    assert np.all(s["start"][parent] <= s["start"][child])
    assert np.all(s["end"][child] <= s["end"][parent])
    assert np.all(s["end"] >= s["start"])
    assert s["self"].min() >= -1e-12  # children cover disjoint parts of the parent

    layers = {name.split(".", 1)[0] for name in tracer.names}
    assert {"cli", "experiments", "sampling", "orthogonalize", "graphs", "spectral", "spaces", "io"} <= layers
    assert layers <= set(LAYERS)
    metrics = tracer.layer_metrics(0, len(tracer), tracer.counts)
    statuses = sum(tracer.counts[f"orthogonalize.{k}"] for k in ("added", "dependent", "invisible"))
    assert metrics["orthogonalize.try_add_calls"] == statuses > 0
    assert metrics["sampling.krylov_calls"] == 2 * 3
    assert metrics["io.files_written"] == 2
    assert metrics["spectral.diag_calls"] == 1
    assert metrics["sampling.shift_applies"] > 0

    # leaving the block restores every binding the tracer replaced
    for module in (gsis, gsis.cli, gsis.experiments, gsis.sampling, gsis.spaces):
        for value in vars(module).values():
            assert not hasattr(value, "__wrapped__"), value
    assert not hasattr(gsis.OrthogonalBasis.try_add, "__wrapped__")


def test_traced_rounds_alternate_order(monkeypatch):
    class Rounds:
        def round(self):
            # an op that returns whether the tracer is installed while it runs
            return [Op("probe", lambda: hasattr(gsis.build_circulant, "__wrapped__"), lambda out: None)]

    seen = []
    run_ops = harness.run_ops

    def spy(ops, probe=None):
        round_s, results = run_ops(ops, probe)
        seen.append(results[0][1])
        return round_s, results

    monkeypatch.setattr(harness, "run_ops", spy)
    loop = harness.measure(Rounds(), 4, Tracer())
    rounds = len(loop["rounds"])
    assert rounds >= 4 and len(loop["overheads"]) == len(loop["layers"]) == rounds
    # untraced first on even rounds, traced first on odd ones
    assert seen == [False, True, True, False] * (rounds // 2) + [False, True] * (rounds % 2)


def test_failing_ops_count_in_fail_frac(tmp_path):
    workload = Cli(0)
    try:
        y = tmp_path / "y.csv"
        y.write_text("1.0\n2.0\n")
        # two samples cannot determine six frequencies: the verb exits with status 2
        non_injective = ["reconstruct", "direct", "--circulant", "12", "--q", "1",
                         "--omega", "0:5", "--w", "0,1", "--y", str(y)]
        cli_op = workload.verb(non_injective, workload.check_reconstruction)
        scheme = gsis.subset_sampler(12, [0, 1])
        _, shifts = gsis.build_circulant(12, [1])
        decomp = gsis.diagonalize_simultaneously(shifts)
        raising_op = Op("direct", lambda: gsis.reconstruct_direct(decomp, range(6), scheme, [1.0, 2.0]),
                        lambda out: None)
        ops = [cli_op, raising_op] + [Op("noop", lambda: 0, lambda out: None)] * 10
        round_s, results = harness.run_ops(ops, harness.interpreter_probe)
        records = harness.check_outputs(results)
    finally:
        workload.close()
    assert [r.error is not None for r in records[:3]] == [True, True, False]
    assert "exit code 2" in records[0].error
    assert records[1].error.startswith("NonInjectiveSamplingError")
    metrics, notes = harness.op_metrics([round_s], records)
    assert notes["fail_frac"] == pytest.approx(2 / 12)
    assert metrics["ok_frac"] == pytest.approx(10 / 12)
