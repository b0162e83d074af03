#!/usr/bin/env python3
"""Steadiness check: run every workload N times and compare spreads to bounds.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads periodic-sweep --out a.json
    python3 perfbench/steady.py --runs 10 --baseline a.json

Runs alternate the workload order round by round and give every run its
own seed.  For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
against the metric's bound from BENCHMARK.json, and marks a metric
UNSTEADY when the spread exceeds the bound.  ``--baseline`` compares the
medians with an earlier ``--out`` file and marks a metric WORSE when it
moved in its bad direction by more than its bound.  Exits 1 on any failed
run, UNSTEADY or WORSE mark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics as declared

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Round ``i`` runs every workload with seed ``FIRST_SEED + i``.
FIRST_SEED = 1


def load_benchmark() -> dict:
    """BENCHMARK.json, checked against the metric declarations."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", declared.END_TO_END), ("per_layer", declared.PER_LAYER)):
        listed = {m["name"]: m for m in bench[key]}
        for metric in table:
            entry = listed.pop(metric.name, None)
            if entry is None:
                sys.exit(f"BENCHMARK.json {key} lacks {metric.name}")
            if (entry["unit"], entry["better"]) != (metric.unit, metric.better):
                sys.exit(f"BENCHMARK.json {key} {metric.name} disagrees with metrics.py")
        if listed:
            sys.exit(f"BENCHMARK.json {key} lists undeclared {sorted(listed)}")
    return bench


def one_run(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable if c == "python3" else c for c in bench["command"]]
    command += ["--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    ok = done.returncode == 0 and result.get("correct")
    print(f"  {workload:18s} seed {seed:5d}  {wall:6.1f}s  {'ok' if ok else 'FAILED'}", flush=True)
    if not ok:
        sys.stderr.write(done.stderr[-2000:])
    return {"workload": workload, "seed": seed, "wall_s": wall, "ok": bool(ok),
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()}}


def summarize(runs: list[dict], bench: dict, baseline: dict | None) -> bool:
    steady = True
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        print(f"\n{workload} ({len(mine)} runs, wall {statistics.median(r['wall_s'] for r in mine):.1f}s median)")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, spec in bounds.items():
            values = [r["metrics"][name] for r in mine if name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            marks = []
            if spread > spec["bound"]:
                marks.append("UNSTEADY")
                steady = False
            elif spread > spec["bound"] / 3:
                marks.append("(above bound/3)")
            if baseline is not None:
                base = [r["metrics"][name] for r in baseline["runs"]
                        if r["workload"] == workload and name in r["metrics"]]
                if base:
                    before = statistics.median(base)
                    change = (median - before) / before if before else 0.0
                    worse = change if spec["better"] == "lower" else -change
                    marks.append(f"vs baseline {change:+.1%}")
                    if worse > spec["bound"]:
                        marks.append("WORSE")
                        steady = False
            print(f"  {name:14s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {spec['bound']:6.2f} "
                  + " ".join(marks))
    return steady


def main(argv: list[str]) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}")

    runs = []
    for i in range(args.runs):
        for workload in (chosen if i % 2 == 0 else chosen[::-1]):
            runs.append(one_run(bench, workload, FIRST_SEED + i, args.seconds))
    if args.out is not None:
        args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")
    baseline = json.loads(args.baseline.read_text(encoding="utf-8")) if args.baseline else None
    steady = summarize(runs, bench, baseline)
    return 0 if steady and all(r["ok"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
