#!/usr/bin/env python3
"""Run both spectral runners in full on the three dims-only corpus
instances and check their outputs against frozen hashes.

    PYTHONPATH=src python3 scripts/full_routes.py

The corpus runs s3_point_q, z3_cycle3_q and s3_3pts_q through the rank
formula (dims_only).  This script runs discrete_borel_ss and atlas_ss on
each of them with dims_only=False at n_top = ss_budget + 2, so every
page gets its reps, d_r matrices and page-homology check.  Each run
prints one line: its label, the sha256 of its output (pages, d_r
matrices, reps, identification and convergence rows, hashed by
perfbench/jobs.py) and its wall seconds.  The exit code is 1 if a hash
differs from FROZEN or a run's own checks fail, else 0.  Point
PYTHONPATH at the src/ of another checkout to time that one.
"""

import sys
import time
from pathlib import Path

from stackcoh.models import corpus_by_name
from stackcoh.spectra import atlas_ss, discrete_borel_ss

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from jobs import _ss_payload, signature  # noqa: E402

# the full payloads recorded before the in-place elimination over Q
FROZEN = {
    ("discrete_borel_ss", "s3_point_q"):
        "c2c7c9255f25b53993be72f842d232ef1f77b58ee7636712febc5a98b5fa8912",
    ("atlas_ss", "s3_point_q"):
        "e546c6629df03d1ba5c65e90fa7fb526a7aa6df186c06d074289964ab0c2f176",
    ("discrete_borel_ss", "z3_cycle3_q"):
        "8fceec3a4ff28ccefdf6982084cdcd28900baa53a01d975370523d4ea8daccb7",
    ("atlas_ss", "z3_cycle3_q"):
        "fde6699836fb4ff6acf6165c666fa0b327d425ac6c7f0a8eebb9a90c9d67d85d",
    ("discrete_borel_ss", "s3_3pts_q"):
        "009ee287d51b7216f28f1ac058372264c43206d682feba89c0493a1a81e17ab4",
    ("atlas_ss", "s3_3pts_q"):
        "4ef754745b69a23932dec04f8020de40e34d36cef914f660106c946062eb11bb",
}


def main() -> int:
    failed = 0
    for name in ("s3_point_q", "z3_cycle3_q", "s3_3pts_q"):
        inst = corpus_by_name(name)
        n_top = inst.ss_budget + 2
        action = inst.action(n_top)
        for runner in (discrete_borel_ss, atlas_ss):
            start = time.perf_counter()
            run = runner(action, inst.field, n_top, dims_only=False)
            seconds = time.perf_counter() - start
            digest = signature(_ss_payload(run))
            ok = run.ok and digest == FROZEN[(runner.__name__, name)]
            failed += not ok
            print(f"{runner.__name__}/{name}/n{n_top} {digest} "
                  f"{seconds:.2f} s{'' if ok else ' MISMATCH'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
