"""The benchmark's own output checks pass on one op of each numeric workload.

A sweep or chain change that the benchmark would reject as incorrect fails
here first.  The sweep check cannot see the noise, though: it rebuilds each
checked cell's noise from ``np.random.default_rng([seed, level, p, trial])``,
which is not the sweep's noise (``experiments._cell_noise`` keys that), and
passes only because at the levels it compares (1-3) every cell's error is
``max |x0|`` on the vertices the chain does not reach, whatever the noise.
Mending the check is ROADMAP item 1.
"""

from pathlib import Path

import pytest


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    return workloads


def _run_first_op(workload):
    op = workload.round()[0]
    op.check(op.run())


def test_a_sweep_op_passes_the_benchmark_check(workloads):
    sweep = workloads.Sweep(0)
    sweep.prepare_checks()
    _run_first_op(sweep)


def test_a_deep_chain_op_passes_the_benchmark_check(workloads):
    chain = workloads.DeepChain(0)
    chain.prepare_checks()
    _run_first_op(chain)
