#!/usr/bin/env python3
"""Print an output signature for every spectral run of the corpus.

    PYTHONPATH=src python3 scripts/corpus_signatures.py

Each corpus instance runs discrete_borel_ss and atlas_ss at its
acceptance budget (n_top = ss_budget + 2), and hyper_ss runs in both
modes on the hypercohomology fixture and on the coefficient complexes
below.  A run's signature is the sha256 of its page entries, d_r
matrices, reps, flags, identification and convergence rows, hashed by
perfbench/jobs.py.  The last line is one digest over every run.  Two
checkouts compute the same results exactly when they print the same
digest; point PYTHONPATH at the src/ of the checkout to measure.

The digest was frozen while the instances in DIMS_ONLY ran their pages
through the rank table, so it still hashes them that way.  Their full
runs, which the acceptance tests make, follow as "label/full" lines,
each checked against FULL, and a "full" line hashes those six lines.
The exit code is 1 if a full run differs from FULL or fails its own
checks, else 0.  Each run's wall seconds go to stderr, one "label
seconds" line per run and a last "total seconds" line with their sum,
so stdout and the digests do not depend on timing.
"""

import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

from stackcoh.cli import parse_input
from stackcoh.exactalg import GF, QQ, Mat
from stackcoh.groupcoh import GModule, trivial_module
from stackcoh.homalg import CoefficientComplex
from stackcoh.models import CORPUS, cycle_rotation_action, pair_swap_action
from stackcoh.simplicial import trivial_groupoid
from stackcoh.spectra import atlas_ss, discrete_borel_ss, hyper_ss
from stackcoh.stackact import (
    cyclic_group, set_action_on_trivial_groupoid, trivial_action,
)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from jobs import _ss_payload, signature  # noqa: E402

FIXTURE = ROOT / "perfbench" / "fixtures" / "hyper_z2_point.json"

DIMS_ONLY = ("s3_point_q", "z3_cycle3_q", "s3_3pts_q")

# the full runs of DIMS_ONLY, recorded before the in-place elimination
# over Q
FULL = {
    "discrete_borel_ss/s3_point_q/n4/full":
        "c2c7c9255f25b53993be72f842d232ef1f77b58ee7636712febc5a98b5fa8912",
    "atlas_ss/s3_point_q/n4/full":
        "e546c6629df03d1ba5c65e90fa7fb526a7aa6df186c06d074289964ab0c2f176",
    "discrete_borel_ss/z3_cycle3_q/n5/full":
        "8fceec3a4ff28ccefdf6982084cdcd28900baa53a01d975370523d4ea8daccb7",
    "atlas_ss/z3_cycle3_q/n5/full":
        "fde6699836fb4ff6acf6165c666fa0b327d425ac6c7f0a8eebb9a90c9d67d85d",
    "discrete_borel_ss/s3_3pts_q/n4/full":
        "009ee287d51b7216f28f1ac058372264c43206d682feba89c0493a1a81e17ab4",
    "atlas_ss/s3_3pts_q/n4/full":
        "4ef754745b69a23932dec04f8020de40e34d36cef914f660106c946062eb11bb",
}


def hyper_cases():
    """(name, action, coefficient complex, n_top) of every hyper run."""
    z2 = cyclic_group(2)
    point = trivial_action(z2, trivial_groupoid(1))
    swap = set_action_on_trivial_groupoid(z2, [(0, 1), (1, 0)])
    data = parse_input(json.loads(FIXTURE.read_text()))
    yield "fixture", data["action"], data["coefficient_complex"], 5
    for field in (QQ, GF(2), GF(3)):
        m = trivial_module(z2, field)
        sign = GModule(z2, field, 1, [Mat.identity(1, field),
                                      Mat.from_rows([[-1]], field)])
        yield (f"single/p{field.p}", point, CoefficientComplex((m,), ()), 4)
        yield (f"identity/p{field.p}", swap,
               CoefficientComplex((m, m), (Mat.identity(1, field),)), 4)
        yield (f"zero/p{field.p}", point,
               CoefficientComplex((m, m), (Mat.zero(1, 1, field),)), 5)
        yield (f"zero3/p{field.p}", pair_swap_action(),
               CoefficientComplex((m, m, m), (Mat.zero(1, 1, field),) * 2), 4)
        two = Mat.from_rows([[2]], field)
        yield (f"sign2/p{field.p}", cycle_rotation_action(4, 2, 2, 4),
               CoefficientComplex((sign, sign), (two,)), 4)


def corpus_runs(full):
    """(label, report) of both runners on the corpus: on every instance
    as the digest froze them, or (full) in full on DIMS_ONLY."""
    for inst in CORPUS:
        if full and inst.name not in DIMS_ONLY:
            continue
        n_top = inst.ss_budget + 2
        action = inst.action(n_top)
        for runner in (discrete_borel_ss, atlas_ss):
            yield (f"{runner.__name__}/{inst.name}/n{n_top}"
                   + ("/full" if full else ""),
                   runner(action, inst.field, n_top,
                          dims_only=not full and inst.name in DIMS_ONLY))


def runs():
    """(label, report) of every run of the digest, in a fixed order."""
    yield from corpus_runs(full=False)
    for name, action, coeffs, n_top in hyper_cases():
        for mode in ("discrete-borel", "atlas"):
            yield (f"hyper_ss-{mode}/{name}/n{n_top}",
                   hyper_ss(action, coeffs, mode, n_top))


def main():
    digest, full = hashlib.sha256(), hashlib.sha256()
    total, failed = 0.0, 0
    start = time.perf_counter()
    for label, report in itertools.chain(runs(), corpus_runs(full=True)):
        seconds = time.perf_counter() - start
        total += seconds
        sig = signature(_ss_payload(report))
        line = f"{label} {sig}"
        if label in FULL:
            ok = report.ok and sig == FULL[label]
            failed += not ok
            full.update(line.encode() + b"\n")
            print(line + ("" if ok else " MISMATCH"), flush=True)
        else:
            digest.update(line.encode() + b"\n")
            print(line, flush=True)
        print(f"{label} {seconds:.2f} s", file=sys.stderr, flush=True)
        start = time.perf_counter()
    print(f"total {total:.2f} s", file=sys.stderr, flush=True)
    print(f"full {full.hexdigest()}")
    print(f"digest {digest.hexdigest()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
