"""Run workloads over several seeds and report each metric's median and spread.

Usage (from the repository root)::

    python3 bench/spread.py --seeds 1-10 [--out FILE]

Runs ``run.py`` once per (workload, seed) for every workload of
``BENCHMARK.json``, one run at a time, with its ``run_seconds``.  For every
end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread ``(q3 - q1) / median``,
flagging a spread above a third of the metric's bound.
``--out`` writes the table and every run's values as JSON; comparing two
such files with ``--compare A B`` reports, per workload and metric, whether
B's median is worse than A's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One ``run.py`` run; returns its run record (result, manifest and notes)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    record = BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def collect(workloads: list[str], seeds: list[int], seconds: int) -> dict:
    runs = {w: [] for w in workloads}
    for w in workloads:
        for seed in seeds:
            result = run_once(w, seed, seconds)
            runs[w].append({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                            "manifest": result["manifest"], "notes": result["notes"]})
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[w][-1]["metrics"].items()), flush=True)
    return runs


def table(runs: dict, spec: dict) -> tuple[dict, bool]:
    steady = True
    out = {}
    for w, rows in runs.items():
        out[w] = {}
        for m in spec["end_to_end"]:
            s = summarize([r["metrics"][m["name"]] for r in rows])
            s["limit"] = m["bound"] / 3
            ok = s["spread"] <= s["limit"]
            steady &= ok and all(r["correct"] for r in rows)
            out[w][m["name"]] = s
            print(f"{w:<11} {m['name']:<12} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:7.4f}  (limit {s['limit']:.4f})"
                  + ("" if ok else "  TOO WIDE"))
    return out, steady


def compare(a: dict, b: dict, spec: dict) -> bool:
    """Whether every median of ``b`` is within its bound of ``a``'s, in the worse direction."""
    ok = True
    for w in a["table"]:
        for m in spec["end_to_end"]:
            ma, mb = a["table"][w][m["name"]]["median"], b["table"][w][m["name"]]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            good = worse <= m["bound"]
            ok &= good
            print(f"{w:<11} {m['name']:<12} {ma:12.6g} -> {mb:12.6g}  worse by {worse:+.4f} "
                  f"(bound {m['bound']})" + ("" if good else "  REGRESSION"))
    return ok


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(a, b, spec) else 1
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = collect(workloads, args.seeds, seconds)
    result, steady = table(runs, spec)
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": seconds, "table": result,
                                        "runs": runs}, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
