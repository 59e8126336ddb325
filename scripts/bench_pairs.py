#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 \\
        --out BENCH_6.json

Each pair runs the unchanged
``perfbench/run.py --workload W --seconds S --trace 0`` once in each
checkout, for every workload W listed in ``BENCHMARK.json``, with S its
``run_seconds`` and ``run.py``'s own default seed.  Every run is a fresh
process, and the pairs alternate which side goes first.  Pairs are the
outer loop and workloads the inner one, so a slow spell of the shared
host falls on every workload alike.  Both sides run
with ``PYTHONDONTWRITEBYTECODE=1``, so neither reads a bytecode cache
the other lacks.  The output file holds every run's end-to-end metrics
and ``correct`` flag, and for each workload and metric the per-side
median and quartiles and the number of pairs the change won (lower is
better for every end-to-end metric; ties count for neither side).  It
is rewritten after every pair, so an interrupted comparison keeps the
pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
COMMAND = ["perfbench/run.py", "--seconds", str(BENCHMARK["run_seconds"]),
           "--trace", "0"]
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, env: dict) -> dict:
    """One benchmark run: its end-to-end metrics and correct flag."""
    cmd = [sys.executable, *COMMAND, "--workload", workload]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "returncode": proc.returncode}
    report = json.loads(lines[-1])
    out = {name: m["value"] for name, m in report["metrics"].items()}
    out["correct"] = report["correct"]
    out["failed"] = report["failed"]
    out["attempted"] = report["attempted"]
    return out


def spread(values: list) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0] if values else None
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values) if values else None,
            "q1": q1, "q3": q3, "n": len(values)}


def summarise(runs: list) -> dict:
    """Per-metric medians, quartiles and pairs won, from complete pairs."""
    pairs = [r for r in runs if r["parent"].get("correct")
             and r["change"].get("correct")]
    metrics = sorted({name for r in pairs for name in r["parent"]
                      if name not in ("correct", "failed", "attempted")})
    summary = {}
    for name in metrics:
        sides = {side: [r[side][name] for r in pairs] for side in SIDES}
        won = sum(1 for r in pairs if r["change"][name] < r["parent"][name])
        lost = sum(1 for r in pairs if r["change"][name] > r["parent"][name])
        entry = {side: spread(values) for side, values in sides.items()}
        entry["pairs"] = len(pairs)
        entry["pairs_won_by_change"] = won
        entry["pairs_lost_by_change"] = lost
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    record = {
        "command": COMMAND,
        "pairs_requested": args.pairs,
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {w: {"runs": []} for w in WORKLOADS},
    }
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in WORKLOADS:
            entry = {"pair": i, "first": order[0]}
            for side in order:
                start = time.perf_counter()
                entry[side] = run_once(checkouts[side], workload, env)
                print(f"pair {i} {workload} {side}: "
                      f"pass_s={entry[side].get('pass_s')} "
                      f"correct={entry[side]['correct']} "
                      f"({time.perf_counter() - start:.0f} s)",
                      file=sys.stderr, flush=True)
            block = record["workloads"][workload]
            block["runs"].append(entry)
            block["correct"] = all(r[side]["correct"] for r in block["runs"]
                                   for side in SIDES)
            block["summary"] = summarise(block["runs"])
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    ok = all(block["correct"] for block in record["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
