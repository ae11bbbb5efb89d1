"""gsis benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads are listed in ``BENCHMARK.json`` and defined in ``workloads.py``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run instead.
Every metric is printed by name with its unit, then the last line of
standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.

The run imports gsis from ``src/`` beside this directory and starts every
interpreter it measures with at most as many BLAS threads as usable cores.
``setup_s`` is the median of several set-ups, each in a fresh interpreter;
the workload itself runs in one more fresh interpreter (``harness.py``).
Every time is scaled to the reference machine speed by a speed probe run
beside the work (see ``harness.py``); the wall times are printed as notes.
A run record with the machine manifest goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 6  # fresh-interpreter set-ups besides the workload process's own
DEADLINE_S = 170.0


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without leaving the repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child(args, role: str, timeout: float) -> dict:
    """Run ``harness.py`` in a fresh interpreter and return its JSON line."""
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONDONTWRITEBYTECODE="1",  # every set-up compiles gsis alike
    )
    cmd = [
        sys.executable, str(BENCH / "harness.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one gsis benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "gsis" / "__init__.py").is_file():
        print(f"error: no gsis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    begin = time.monotonic()
    samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            samples.append(child(args, "setup", 60.0))
    result = child(args, "work", DEADLINE_S - (time.monotonic() - begin))
    samples.append(result)
    setups = [s["setup_s"] for s in samples]
    measured = dict(result["metrics"], setup_s=statistics.median(setups))

    manifest = dict(result["manifest"], git_commit=git_commit(), trace=args.trace, seconds=args.seconds)
    print(f"gsis benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("manifest: " + json.dumps(manifest, sort_keys=True))
    for key, value in result["notes"].items():
        print(f"  {key} = {value}")
    if args.trace:
        for layer, row in result["layers"].items():
            print(f"  layer {layer:<13} calls/round {row['calls']:10.1f}  "
                  f"busy {row['busy_s']:.6f} s  self {row['self_s']:.6f} s")
    else:
        print(f"  setup samples (s) = {[round(s, 6) for s in setups]}")
        print(f"  setup wall samples (s) = {[round(s['setup_wall_s'], 6) for s in samples]}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<30} {measured[m['name']]:>16.9g} {m['unit']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")

    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps(dict(summary, manifest=manifest, notes=result["notes"],
                                      failures=result["failures"]), indent=2) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
