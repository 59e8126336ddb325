#!/usr/bin/env python3
"""Run the whole model corpus and print the equivariant Betti tables,
the spectral-sequence identification outcomes, and the convergence
verdicts.  Everything is exact; a nonzero exit means some check failed.
"""

import argparse
import sys
import time

from stackcoh.models import CORPUS
from stackcoh.spectra import atlas_ss, discrete_borel_ss
from stackcoh.stackact import equivariant_cohomology


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="halve every degree budget")
    parser.add_argument("--skip-spectral", action="store_true")
    args = parser.parse_args()

    failures = 0
    for inst in CORPUS:
        deg_max = inst.deg_max // 2 if args.quick else inst.deg_max
        n_top = deg_max + 2
        t0 = time.time()
        action = inst.action(n_top)
        dims = equivariant_cohomology(action, inst.field,
                                      range(deg_max + 1), n_top=n_top)
        expected = inst.expected[:deg_max + 1] if inst.expected else None
        ok = expected is None or dims == expected
        failures += 0 if ok else 1
        print(f"{inst.name:22s} H_G = {dims}  "
              f"[{'ok' if ok else 'MISMATCH vs ' + str(expected)}]  "
              f"({time.time() - t0:.1f}s)")
        if args.skip_spectral:
            continue
        ss_deg = min(inst.ss_budget, deg_max)
        ss_top = ss_deg + 2
        ss_action = inst.action(ss_top)
        for label, runner in (("E2/borel", discrete_borel_ss),
                              ("E1/atlas", atlas_ss)):
            t0 = time.time()
            run = runner(ss_action, inst.field, ss_top)
            ident_ok = all(row["ok"] for row in run.identification)
            conv_ok = run.convergence["ok"]
            failures += 0 if (ident_ok and conv_ok) else 1
            print(f"    {label:9s} identification="
                  f"{'ok' if ident_ok else 'FAIL'} "
                  f"convergence={'ok' if conv_ok else 'FAIL'} "
                  f"({time.time() - t0:.1f}s)")
    print("all checks passed" if failures == 0 else f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
