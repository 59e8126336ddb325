#!/usr/bin/env python3
"""Survey of the Cartan-model corpus: equivariant series, truncation
stability, the SU(2)-style torus-Weyl comparison on the point, and the
B4 Weyl group (order 384, three generators) on the rank-4 point from
tests/fixtures/cartan_b4.json, with the wall time of each B4 step.

    PYTHONPATH=src python3 scripts/cartan_survey.py
"""

import argparse
import json
import sys
import time
from pathlib import Path

from stackcoh.cartan import (
    abelian_lie, cartan_cohomology, invariant_polynomials, torus_weyl_check,
    weyl_action,
)
from stackcoh.cli import parse_input
from stackcoh.exactalg import QQ, Mat
from stackcoh.models import CARTAN_CORPUS, point_algebra


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--poly-trunc", type=int, default=None,
                        help="override the per-instance truncation")
    args = parser.parse_args()

    failures = 0
    for inst in CARTAN_CORPUS:
        poly_trunc = args.poly_trunc or inst.poly_trunc
        safe = 2 * poly_trunc - inst.algebra.top
        dims = cartan_cohomology(inst.lie, inst.algebra, poly_trunc,
                                 range(safe + 1))
        print(f"{inst.name:16s} P={poly_trunc}  H_G = {dims}")
        if args.poly_trunc is None and dims != inst.expected:
            print(f"    MISMATCH, expected {inst.expected}")
            failures += 1

    sign = [Mat.from_rows([[-1]], QQ)]
    lie = abelian_lie(1)
    series = invariant_polynomials(lie, sign, 8)
    print(f"invariant polynomials, sign Weyl datum: {series}")
    check = torus_weyl_check(
        lie, weyl_action(lie, point_algebra(), sign,
                         [(Mat.identity(1, QQ),)]), 6, degrees=range(9))
    print(f"torus-Weyl series on the point: {check.series} "
          f"[{'ok' if check.ok else 'FAIL'}]")
    failures += 0 if check.ok else 1

    fixture = Path(__file__).resolve().parents[1] / "tests" / "fixtures" \
        / "cartan_b4.json"
    start = time.perf_counter()
    data = parse_input(json.loads(fixture.read_text()))
    print(f"B4 input checked, |W| = {len(data['weyl_on_algebra'][2])} "
          f"({time.perf_counter() - start:.3f} s)")
    start = time.perf_counter()
    series = invariant_polynomials(data["lie"], data["weyl"], 4)
    print(f"invariant polynomials, B4 on the rank-4 point, P=4: {series} "
          f"({time.perf_counter() - start:.3f} s)")
    start = time.perf_counter()
    check = torus_weyl_check(data["lie"], data["weyl_on_algebra"], 4,
                             degrees=range(9))
    print(f"torus-Weyl series, B4 on the rank-4 point: {check.series} "
          f"[{'ok' if check.ok else 'FAIL'}] "
          f"({time.perf_counter() - start:.3f} s)")
    failures += 0 if check.ok and series == [1, 0, 1, 0, 2] else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
