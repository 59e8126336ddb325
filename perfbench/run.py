#!/usr/bin/env python3
"""stackcoh benchmark: one workload per fresh process.

    python3 perfbench/run.py --workload ss_full --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; stackcoh is imported from ``src/`` there.
A run sets up the workload several times, then runs passes over its
jobs, in an order shuffled by ``--seed``, until ``--seconds`` are used.
Every job's output is hashed and compared with ``signatures.json``; a job
that raises, fails its own checks or changes its signature counts as
failed.  The last stdout line is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  A traced run spends
the first half of its time on untraced passes and the second on traced
ones, and writes its spans to ``perfbench/out/``.

The host is shared and its speed changes from second to second, so every
timed call is scaled to a fixed host speed: a fixed reference elimination
runs before the first call and after each one, and the call's wall time
is multiplied by ``REF_S`` over the faster of the two references around
it.  ``pass_s`` is the sum over jobs of each job's median scaled time,
``setup_s`` the median scaled set-up.  The plain wall-time median,
quartiles and pass count are printed too.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import jobs as jobdefs
from layers import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 21
# fastest reference_s() on the host of the seed baseline (2-vCPU Xeon VM)
REF_S = 0.060


def _reference_columns(n=300, seed=7):
    rng = random.Random(seed)
    return [{rng.randrange(n): rng.randrange(1, 101) for _ in range(4)}
            for _ in range(n)]


REF_COLUMNS = _reference_columns()


def reference_s() -> float:
    """Time one fixed sparse elimination mod 101.

    It is dict-and-integer work in the style of stackcoh's Sieve, so host
    contention slows it about as much as it slows the jobs."""
    p = 101
    t0 = perf_counter()
    pivots = {}
    for col in REF_COLUMNS:
        v = dict(col)
        while v:
            r = min(v)
            if r not in pivots:
                pivots[r] = v
                break
            w = pivots[r]
            f = v[r] * pow(w[r], p - 2, p) % p
            for i, x in w.items():
                y = (v.get(i, 0) - f * x) % p
                if y:
                    v[i] = y
                else:
                    v.pop(i, None)
    return perf_counter() - t0


class HostSpeed:
    """Reference times taken between timed calls."""

    def __init__(self):
        self.last = reference_s()

    def scale(self) -> float:
        """REF_S over the faster of a fresh reference and the one before:
        the host speed around the call just timed."""
        now = reference_s()
        fastest = min(self.last, now)
        self.last = now
        return REF_S / fastest


def metric_units():
    """Metric name -> unit, as declared in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def purge_stackcoh():
    for name in [n for n in sys.modules
                 if n == "stackcoh" or n.startswith("stackcoh.")]:
        del sys.modules[name]


def timed_setup(workload):
    """Set up SETUP_REPEATS times from a clean import; keep the last.

    Returns the jobs and each set-up's (wall, scaled) seconds."""
    speed = HostSpeed()
    times = []
    for _ in range(SETUP_REPEATS):
        purge_stackcoh()
        gc.collect()
        t0 = perf_counter()
        job_list = jobdefs.setup(workload)
        wall = perf_counter() - t0
        times.append((wall, wall * speed.scale()))
    return job_list, times


class Runner:
    """Runs passes and checks every job against its frozen signature."""

    def __init__(self, job_list, expected, seed):
        self.jobs = job_list
        self.expected = expected
        self.rng = random.Random(seed)
        self.speed = HostSpeed()
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None) -> dict:
        """One pass in shuffled order: job name -> (wall, scaled) s."""
        order = list(self.jobs)
        self.rng.shuffle(order)
        times = {}
        for job in order:
            gc.collect()
            self.attempted += 1
            frame = tracer.open_span("job", job.name) if tracer else None
            t0 = perf_counter()
            raised = False
            try:
                result = job.call()
            except Exception:
                raised = True
                traceback.print_exc()
            finally:
                wall = perf_counter() - t0
                if tracer:
                    tracer.close_span(frame)
            times[job.name] = (wall, wall * self.speed.scale())
            if raised:
                self.failed += 1
                print(f"FAILED {job.name}: raised", file=sys.stderr)
                continue
            sig = jobdefs.signature(job.payload(result))
            if not job.ok(result):
                self.failed += 1
                print(f"FAILED {job.name}: own check false", file=sys.stderr)
            elif sig != self.expected.get(job.name):
                self.failed += 1
                print(f"FAILED {job.name}: signature {sig} != "
                      f"{self.expected.get(job.name)}", file=sys.stderr)
        return times

    def run_for(self, seconds, tracer=None, on_pass=None) -> list:
        """Passes until the next one would likely end past ``seconds``."""
        times = []
        start = perf_counter()
        while True:
            begun = perf_counter()
            times.append(self.run_pass(tracer))
            if on_pass:
                on_pass()
            now = perf_counter()
            if now - start + (now - begun) > seconds:
                return times


def pass_s(passes):
    """Sum over jobs of each job's median scaled time."""
    return sum(statistics.median(p[name][1] for p in passes)
               for name in passes[0])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_workload(workload, seed, seconds, trace):
    units = metric_units()
    sys.path.insert(0, str(ROOT / "src"))
    job_list, setup_times = timed_setup(workload)
    with open(HERE / "signatures.json") as handle:
        expected = json.load(handle)[workload]
    missing = [j.name for j in job_list if j.name not in expected]
    if missing:
        raise SystemExit(f"no frozen signature for {missing}")
    runner = Runner(job_list, expected, seed)
    if not trace:
        passes = runner.run_for(seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls = [sum(w for w, _ in p.values()) for p in passes]
        q1, q3 = quartiles(walls)
        setup_walls = [w for w, _ in setup_times]
        metrics = {"pass_s": pass_s(passes),
                   "setup_s": statistics.median(s for _, s in setup_times),
                   "peak_rss_mb": rss_mb}
        lines = [
            f"pass_s {metrics['pass_s']:.4f} s (wall median="
            f"{statistics.median(walls):.4f} q1={q1:.4f} q3={q3:.4f} "
            f"passes={len(passes)})",
            f"setup_s {metrics['setup_s']:.4f} s (wall median="
            f"{statistics.median(setup_walls):.4f} "
            f"repeats={len(setup_walls)})",
            f"peak_rss_mb {rss_mb:.1f} MB",
        ]
    else:
        plain = runner.run_for(seconds / 2)
        tracer = Tracer()
        per_pass = []

        def collect():
            per_pass.append(tracer.metrics())
            tracer.reset_stats()

        tracer.install()
        try:
            traced = runner.run_for(seconds / 2, tracer, collect)
        finally:
            tracer.restore()
        metrics = {name: statistics.median_low(p[name] for p in per_pass)
                   for name in per_pass[0]}
        metrics["trace.overhead_frac"] = pass_s(traced) / pass_s(plain) - 1
        lines = [f"{name} {value:.6g} {units[name]}"
                 for name, value in metrics.items()]
        lines.append(f"untraced passes={len(plain)} traced passes="
                     f"{len(traced)}")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        span_file = out / f"spans-{workload}-seed{seed}.jsonl"
        with open(span_file, "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(dict(zip(
                    ("id", "parent", "layer", "function", "start", "end"),
                    span))) + "\n")
        lines.append(f"spans={len(tracer.spans)} written to "
                     f"{span_file.relative_to(ROOT)}")
    frac = runner.failed / runner.attempted
    lines.append(f"failed_frac {frac:.4f} ({runner.failed}/"
                 f"{runner.attempted} jobs) frac")
    for line in lines:
        print(f"{workload} {line}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    status = 0
    for workload in jobdefs.WORKLOADS:
        code = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False).returncode
        status = status or code
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="ss_full, ss_ranks, models or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
