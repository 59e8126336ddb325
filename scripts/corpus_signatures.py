#!/usr/bin/env python3
"""Print an output signature for every spectral run of the corpus.

    PYTHONPATH=src python3 scripts/corpus_signatures.py

Each corpus instance runs discrete_borel_ss and atlas_ss at its
acceptance budget (n_top = ss_budget + 2, with the instance's dims_only
flag), and hyper_ss runs in both modes on the hypercohomology fixture
and on the coefficient complexes below.  A run's signature is the sha256
of its page entries, d_r matrices, reps, flags, identification and
convergence rows, hashed by perfbench/jobs.py.  The last line is one
digest over every run.  Two checkouts compute the same results exactly
when they print the same digest; point PYTHONPATH at the src/ of the
checkout to measure.  Each run's wall seconds go to stderr, one
"label seconds" line per run and a last "total seconds" line with their
sum, so stdout and the digest do not depend on timing.
"""

import hashlib
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


def runs():
    """(label, report) of every run, in a fixed order."""
    for inst in CORPUS:
        n_top = inst.ss_budget + 2
        action = inst.action(n_top)
        for runner in (discrete_borel_ss, atlas_ss):
            yield (f"{runner.__name__}/{inst.name}/n{n_top}",
                   runner(action, inst.field, n_top,
                          dims_only=inst.dims_only))
    for name, action, coeffs, n_top in hyper_cases():
        for mode in ("discrete-borel", "atlas"):
            yield (f"hyper_ss-{mode}/{name}/n{n_top}",
                   hyper_ss(action, coeffs, mode, n_top))


def main():
    digest = hashlib.sha256()
    total = 0.0
    start = time.perf_counter()
    for label, report in runs():
        seconds = time.perf_counter() - start
        total += seconds
        line = f"{label} {signature(_ss_payload(report))}"
        print(line, flush=True)
        print(f"{label} {seconds:.2f} s", file=sys.stderr, flush=True)
        digest.update(line.encode() + b"\n")
        start = time.perf_counter()
    print(f"total {total:.2f} s", file=sys.stderr, flush=True)
    print(f"digest {digest.hexdigest()}")


if __name__ == "__main__":
    main()
