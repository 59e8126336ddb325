"""Batch command-line surface: JSON in, deterministic reports out.

Subcommands mirror the job kinds (cohomology, equivariant,
spectral-atlas, spectral-borel, hyper, cartan, getzler, check).  Inputs
are validated exhaustively before any computation; validation failures
carry JSON-pointer locations and exit with status 2, failed mathematical
assertions exit with 1, and a fully passing run exits 0 with
byte-reproducible output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .errors import (
    InvariantViolation, SchemaError, StackcohError, TruncationBoundary,
)
from .exactalg import Field, GF, QQ, Mat
from .homalg import CoefficientComplex, cohomology
from .simplicial import (
    SemiSimplicialSet, cochains, groupoid_from_tables, nerve,
)
from .stackact import (
    FiniteGroup, GroupoidAction, SimplicialGAction,
    equivariant_cohomology, group_from_table,
)
from .groupcoh import GModule, module_from_matrices
from .spectra import atlas_ss, discrete_borel_ss, hyper_ss
from .getzler import getzler_total_cohomology
from .cartan import (
    GDGA, LieAlgebraData, cartan_cohomology, invariant_polynomials,
    torus_weyl_check, validate_gdga,
)

KINDS = ("cohomology", "equivariant", "spectral-atlas", "spectral-borel",
         "hyper", "cartan", "getzler", "check")


@dataclass
class JobSpec:
    kind: str
    field: Field
    trunc: int
    poly_trunc: int
    degrees: list
    out_format: str
    check_only: bool = False
    mode: str = "atlas"
    check_total: bool = False


def _fail(message, location):
    raise SchemaError(message, location=location)


def _container(value, kind, loc):
    """value when it is a JSON object (kind dict) or list (kind list),
    else exit 2 at loc."""
    if not isinstance(value, kind):
        _fail(f"expected a JSON {'object' if kind is dict else 'list'}", loc)
    return value


def _expect(obj, key, loc, kind=None):
    _container(obj, dict, loc)
    if key not in obj:
        _fail(f"missing required key '{key}'", loc)
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        _fail(f"key '{key}' has wrong type", f"{loc}/{key}")
    return val


def _indices(value, depth, loc, nullable=False):
    """Check a depth-fold nested list of indices: every entry an int, not
    a bool (or null where nullable), else exit 2 at its pointer."""
    if depth:
        if not isinstance(value, list):
            _fail("expected a list of indices", loc)
        for k, v in enumerate(value):
            _indices(v, depth - 1, f"{loc}/{k}", nullable)
    elif type(value) is not int and not (nullable and value is None):
        _fail("index entries must be integers", loc)


def _names(values, loc) -> list:
    """Names as strings; two equal names would make name-keyed tables
    ambiguous, so a repeat exits 2 at its pointer."""
    names = [str(v) for v in values]
    seen = set()
    for k, name in enumerate(names):
        if name in seen:
            _fail(f"duplicate name '{name}'", f"{loc}/{k}")
        seen.add(name)
    return names


def parse_scalar(field: Field, value, loc):
    try:
        if field.p:
            if not isinstance(value, int):
                _fail("mod-p entries must be integers", loc)
            return value % field.p
        if isinstance(value, str) or isinstance(value, int):
            return field.parse(value)
        _fail("rational entries must be integers or 'a/b' strings", loc)
    except (ValueError, ZeroDivisionError):
        _fail(f"cannot parse scalar {value!r}", loc)


def parse_matrix(data, rows, cols, field, loc) -> Mat:
    if not isinstance(data, list) or len(data) != rows or \
            any(not isinstance(r, list) or len(r) != cols for r in data):
        _fail(f"expected a {rows}x{cols} matrix", loc)
    entries = {}
    for i, row in enumerate(data):
        for j, v in enumerate(row):
            entries[(i, j)] = parse_scalar(field, v, f"{loc}/{i}/{j}")
    return Mat(rows, cols, entries, field)


def parse_group(obj, loc="/group") -> FiniteGroup:
    elements = _expect(obj, "elements", loc, list)
    mul = _expect(obj, "mul", loc, list)
    n = len(elements)
    if len(mul) != n or any(not isinstance(r, list) or len(r) != n
                            for r in mul):
        _fail("mul must be an n x n index table", f"{loc}/mul")
    _indices(mul, 2, f"{loc}/mul")
    names = _names(elements, f"{loc}/elements")
    try:
        return group_from_table(names, mul)
    except InvariantViolation as exc:
        raise InvariantViolation(str(exc), location=f"{loc}/mul") from exc


def parse_groupoid(obj, loc="/groupoid"):
    objects = _expect(obj, "objects", loc, list)
    morphisms = _expect(obj, "morphisms", loc, list)
    comp_raw = _expect(obj, "comp", loc, list)
    src = []
    tgt = []
    for k, m in enumerate(morphisms):
        if not isinstance(m, dict):
            _fail("morphisms must be objects with src and tgt",
                  f"{loc}/morphisms/{k}")
        src.append(_expect(m, "src", f"{loc}/morphisms/{k}", int))
        tgt.append(_expect(m, "tgt", f"{loc}/morphisms/{k}", int))
    n = len(morphisms)
    if len(comp_raw) != n or any(not isinstance(r, list) or len(r) != n
                                 for r in comp_raw):
        _fail("comp must be an n x n table (null when undefined)",
              f"{loc}/comp")
    _indices(comp_raw, 2, f"{loc}/comp", nullable=True)
    names = _names(objects, f"{loc}/objects")
    comp = {}
    for a in range(n):
        for b in range(n):
            if comp_raw[a][b] is not None:
                comp[(a, b)] = comp_raw[a][b]
    try:
        return groupoid_from_tables(names, src, tgt, comp)
    except InvariantViolation as exc:
        raise InvariantViolation(str(exc), location=f"{loc}/comp") from exc


def _parse_perm_table(obj, group, length, loc):
    perms = []
    for gi, name in enumerate(group.elements):
        if name not in obj:
            _fail(f"missing permutation for element '{name}'", loc)
        perm = obj[name]
        if not isinstance(perm, list) or len(perm) != length:
            _fail(f"permutation for '{name}' must have length {length}",
                  f"{loc}/{name}")
        _indices(perm, 1, f"{loc}/{name}")
        perms.append(tuple(perm))
    return tuple(perms)


def parse_action(obj, group, atlas, loc="/action") -> GroupoidAction:
    on_obj = _expect(obj, "on_objects", loc, dict)
    on_mor = _expect(obj, "on_morphisms", loc, dict)
    act_obj = _parse_perm_table(on_obj, group, atlas.n_objects,
                                f"{loc}/on_objects")
    act_mor = _parse_perm_table(on_mor, group, atlas.n_morphisms,
                                f"{loc}/on_morphisms")
    try:
        return GroupoidAction(group, atlas, act_obj, act_mor)
    except StackcohError as exc:
        raise InvariantViolation(str(exc), location=loc) from exc


def parse_complex(obj, loc="/complex") -> SemiSimplicialSet:
    cells_raw = _expect(obj, "cells", loc, list)
    faces_raw = _expect(obj, "faces", loc, list)
    cells = [tuple(f"c{n}_{i}" for i in range(count)) if isinstance(count, int)
             else tuple(count) for n, count in enumerate(cells_raw)]
    if len(faces_raw) != max(len(cells) - 1, 0):
        _fail("faces must list one level of maps per positive level",
              f"{loc}/faces")
    _indices(faces_raw, 3, f"{loc}/faces")
    faces = [()]
    for n, level in enumerate(faces_raw, start=1):
        faces.append(tuple(tuple(fm) for fm in level))
    try:
        return SemiSimplicialSet(tuple(cells), tuple(faces))
    except StackcohError as exc:
        raise InvariantViolation(str(exc), location=loc) from exc


def parse_complex_action(obj, group, space, loc="/action_on_complex"):
    _container(obj, dict, loc)
    maps = []
    for gi, name in enumerate(group.elements):
        if name not in obj:
            _fail(f"missing level maps for element '{name}'", loc)
        levels = obj[name]
        if not isinstance(levels, list) or len(levels) != space.trunc + 1:
            _fail(f"element '{name}' must map every level", f"{loc}/{name}")
        _indices(levels, 2, f"{loc}/{name}")
        maps.append(tuple(tuple(level) for level in levels))
    try:
        return SimplicialGAction(group, space, tuple(maps))
    except StackcohError as exc:
        raise InvariantViolation(str(exc), location=loc) from exc


def parse_module(obj, group, field, loc) -> GModule:
    dim = _expect(obj, "dim", loc, int)
    rho_raw = _expect(obj, "rho", loc, dict)
    mats = []
    for name in group.elements:
        if name not in rho_raw:
            _fail(f"missing matrix for element '{name}'", f"{loc}/rho")
        mats.append(parse_matrix(rho_raw[name], dim, dim, field,
                                 f"{loc}/rho/{name}"))
    try:
        return module_from_matrices(group, field, mats)
    except StackcohError as exc:
        raise InvariantViolation(str(exc), location=loc) from exc


def parse_lie(obj, loc="/lie") -> LieAlgebraData:
    dim = _expect(obj, "dim", loc, int)
    structure_raw = obj.get("structure", [])
    structure = [[{} for _ in range(dim)] for _ in range(dim)]
    if structure_raw:
        if not isinstance(structure_raw, list) or len(structure_raw) != dim:
            _fail("structure must be a k x k table of vectors", f"{loc}/structure")
        for a in range(dim):
            if not isinstance(structure_raw[a], list) or \
                    len(structure_raw[a]) != dim:
                _fail("structure rows must have k entries",
                      f"{loc}/structure/{a}")
            for b in range(dim):
                vec = structure_raw[a][b]
                if not isinstance(vec, list) or len(vec) != dim:
                    _fail("structure entries must be length-k vectors",
                          f"{loc}/structure/{a}/{b}")
                structure[a][b] = {c: parse_scalar(QQ, v,
                                                   f"{loc}/structure/{a}/{b}/{c}")
                                   for c, v in enumerate(vec) if v}
    try:
        return LieAlgebraData(dim, tuple(tuple(r) for r in structure))
    except StackcohError as exc:
        raise InvariantViolation(str(exc), location=loc) from exc


def parse_gdga(obj, field, loc="/gdga") -> GDGA:
    dims = tuple(_expect(obj, "dims", loc, list))
    top = len(dims) - 1
    d_raw = _container(obj.get("d", []), list, f"{loc}/d")
    if len(d_raw) != max(top, 0):
        _fail(f"expected {top} differentials", f"{loc}/d")
    d = tuple(parse_matrix(d_raw[m], dims[m + 1], dims[m], field,
                           f"{loc}/d/{m}") for m in range(top))
    iota_raw = _container(obj.get("iota", []), list, f"{loc}/iota")
    lie_dim = len(iota_raw)
    iota = []
    for a in range(lie_dim):
        if not isinstance(iota_raw[a], list) or len(iota_raw[a]) != top:
            _fail(f"iota[{a}] must have {top} matrices", f"{loc}/iota/{a}")
        iota.append(tuple(
            parse_matrix(iota_raw[a][m], dims[m], dims[m + 1], field,
                         f"{loc}/iota/{a}/{m}") for m in range(top)))
    l_raw = _container(obj.get("L", []), list, f"{loc}/L")
    if len(l_raw) != lie_dim:
        _fail("L must align with iota", f"{loc}/L")
    lie_der = []
    for a in range(lie_dim):
        if not isinstance(l_raw[a], list) or len(l_raw[a]) != top + 1:
            _fail(f"L[{a}] must have {top + 1} matrices", f"{loc}/L/{a}")
        lie_der.append(tuple(
            parse_matrix(l_raw[a][m], dims[m], dims[m], field,
                         f"{loc}/L/{a}/{m}") for m in range(top + 1)))
    mul = None
    if "mul" in obj:
        mul = {}
        for k, item in enumerate(_container(obj["mul"], list,
                                            f"{loc}/mul")):
            at = f"{loc}/mul/{k}"
            i = _expect(item, "i", at, int)
            j = _expect(item, "j", at, int)
            table = _expect(item, "table", at, list)
            parsed = []
            for x, row in enumerate(table):
                row = _container(row, list, f"{at}/table/{x}")
                prow = []
                for y, vec in enumerate(row):
                    vec = _container(vec, list, f"{at}/table/{x}/{y}")
                    prow.append({c: parse_scalar(field, v,
                                                 f"{at}/table/{x}/{y}/{c}")
                                 for c, v in enumerate(vec) if v})
                parsed.append(prow)
            mul[(i, j)] = parsed
    return GDGA(field, dims, d, tuple(iota), tuple(lie_der), mul=mul)


def parse_field(obj, loc="/coefficients") -> Field:
    name = _expect(obj, "field", loc, str)
    if name == "Q":
        return QQ
    if name == "Fp":
        p = _expect(obj, "p", loc, int)
        try:
            return GF(p)
        except ValueError as exc:
            _fail(str(exc), f"{loc}/p")
    _fail("field must be 'Q' or 'Fp'", f"{loc}/field")


def parse_input(payload: dict, field: Field | None = None) -> dict:
    """Validate the whole payload; all domain invariants are checked here."""
    if not isinstance(payload, dict):
        raise SchemaError("top level must be a JSON object", location="/")
    data = {}
    if "coefficients" in payload:
        data["field"] = parse_field(payload["coefficients"])
    if field is not None:
        data["field"] = field
    active = data.get("field", QQ)
    if "group" in payload:
        data["group"] = parse_group(payload["group"])
    if "groupoid" in payload:
        data["groupoid"] = parse_groupoid(payload["groupoid"])
    if "complex" in payload:
        data["complex"] = parse_complex(payload["complex"])
    if "action" in payload:
        if "group" not in data or "groupoid" not in data:
            _fail("action requires both group and groupoid", "/action")
        data["action"] = parse_action(payload["action"], data["group"],
                                      data["groupoid"])
    if "action_on_complex" in payload:
        if "group" not in data or "complex" not in data:
            _fail("action_on_complex requires group and complex",
                  "/action_on_complex")
        data["complex_action"] = parse_complex_action(
            payload["action_on_complex"], data["group"], data["complex"])
    if "coefficients" in payload and "module" in payload["coefficients"]:
        if "group" not in data:
            _fail("module coefficients require a group", "/coefficients/module")
        data["module"] = parse_module(payload["coefficients"]["module"],
                                      data["group"], active,
                                      "/coefficients/module")
    if "coefficient_complex" in payload:
        if "group" not in data:
            _fail("coefficient complex requires a group",
                  "/coefficient_complex")
        cc = payload["coefficient_complex"]
        modules = [parse_module(m, data["group"], active,
                                f"/coefficient_complex/modules/{k}")
                   for k, m in enumerate(_expect(cc, "modules",
                                                 "/coefficient_complex", list))]
        if not modules:
            _fail("a coefficient complex needs at least one module",
                  "/coefficient_complex/modules")
        diffs_raw = cc.get("diffs", [])
        if not isinstance(diffs_raw, list) or \
                len(diffs_raw) != len(modules) - 1:
            _fail("one differential per pair of consecutive modules",
                  "/coefficient_complex/diffs")
        diffs = [parse_matrix(diffs_raw[r], modules[r + 1].dim, modules[r].dim,
                              active, f"/coefficient_complex/diffs/{r}")
                 for r in range(len(modules) - 1)]
        try:
            data["coefficient_complex"] = CoefficientComplex(tuple(modules),
                                                             tuple(diffs))
        except StackcohError as exc:
            raise InvariantViolation(str(exc),
                                     location="/coefficient_complex") from exc
    if "lie" in payload:
        data["lie"] = parse_lie(payload["lie"])
    if "gdga" in payload:
        data["gdga"] = parse_gdga(payload["gdga"], active)
        if "lie" in data:
            if len(data["gdga"].iota) != data["lie"].dim:
                _fail("iota and L need one entry per Lie generator",
                      "/gdga/iota")
            report = validate_gdga(data["lie"], data["gdga"])
            if not report["valid"]:
                raise InvariantViolation(
                    "gdga fails the calculus identities: "
                    + "; ".join(report["failures"]), location="/gdga")
    if "weyl" in payload:
        lie_dim = data["lie"].dim if "lie" in data else None
        mats = []
        for k, m in enumerate(_container(payload["weyl"], list, "/weyl")):
            size = lie_dim if lie_dim is not None else \
                len(_container(m, list, f"/weyl/{k}"))
            mats.append(parse_matrix(m, size, size, QQ, f"/weyl/{k}"))
        data["weyl"] = mats
    if "weyl_on_algebra" in payload:
        if "gdga" not in data:
            _fail("weyl_on_algebra requires a gdga", "/weyl_on_algebra")
        dims = data["gdga"].dims
        gens = []
        for k, per_degree in enumerate(_container(
                payload["weyl_on_algebra"], list, "/weyl_on_algebra")):
            if not isinstance(per_degree, list) or len(per_degree) != len(dims):
                _fail("one matrix per degree required",
                      f"/weyl_on_algebra/{k}")
            gens.append(tuple(
                parse_matrix(per_degree[m], dims[m], dims[m], active,
                             f"/weyl_on_algebra/{k}/{m}")
                for m in range(len(dims))))
        data["weyl_on_algebra"] = gens
    return data


def _action_for(data, kind):
    if "action" in data:
        return data["action"]
    if "complex_action" in data:
        return data["complex_action"]
    _fail("this job needs an action (action or action_on_complex)", "/")


def _pages_rows(page_list):
    rows = []
    for page in page_list:
        for (p, q) in sorted(page.entries):
            rows.append({"p": p, "q": q, "r": page.r,
                         "dim": page.entries[(p, q)],
                         "boundary": (p, q) in page.flags})
    return rows


def run(job: JobSpec, data: dict) -> dict:
    """Execute one job; the returned report carries assertion outcomes."""
    assertions = []
    report = {"kind": job.kind,
              "field": "Q" if job.field.p == 0 else f"F{job.field.p}",
              "trunc": job.trunc, "degrees": list(job.degrees)}

    def note(name, ok, detail=""):
        assertions.append({"check": name, "ok": bool(ok), "detail": detail})

    if job.kind == "cohomology":
        if "complex" in data:
            space = data["complex"]
        elif "groupoid" in data:
            space = nerve(data["groupoid"], job.trunc)
        else:
            _fail("cohomology requires a groupoid or a complex", "/")
        complex_ = cochains(space, job.field)
        report["betti"] = [{"degree": n, "dim": cohomology(complex_, n)}
                           for n in job.degrees]
    elif job.kind == "equivariant":
        action = _action_for(data, job.kind)
        coeff = job.field
        dims = equivariant_cohomology(action, coeff, job.degrees,
                                      n_top=job.trunc,
                                      check_total=job.check_total)
        report["betti"] = [{"degree": n, "dim": d}
                           for n, d in zip(job.degrees, dims)]
        if job.check_total:
            note("diagonal-vs-totalization", True, "asserted during run")
    elif job.kind in ("spectral-atlas", "spectral-borel"):
        action = _action_for(data, job.kind)
        coeff = data.get("module", job.field)
        runner = atlas_ss if job.kind == "spectral-atlas" else discrete_borel_ss
        ss = runner(action, coeff, job.trunc)
        report["pages"] = _pages_rows(ss.pages)
        report["identification"] = ss.identification
        report["convergence"] = ss.convergence
        label = "E1-identification" if job.kind == "spectral-atlas" \
            else "E2-identification"
        note(label, all(r["ok"] for r in ss.identification),
             f"{len(ss.identification)} entries")
        note("convergence", ss.convergence["ok"])
    elif job.kind == "hyper":
        action = _action_for(data, job.kind)
        if "coefficient_complex" not in data:
            _fail("hyper requires coefficient_complex", "/coefficient_complex")
        ss = hyper_ss(action, data["coefficient_complex"], job.mode,
                      job.trunc)
        report["pages"] = _pages_rows(ss.pages)
        report["convergence"] = ss.convergence
        note("convergence", ss.convergence["ok"])
    elif job.kind == "cartan":
        if "lie" not in data or "gdga" not in data:
            _fail("cartan requires lie and gdga", "/")
        lie = data["lie"]
        algebra = data["gdga"]
        dims = cartan_cohomology(lie, algebra, job.poly_trunc, job.degrees)
        report["betti"] = [{"degree": n, "dim": d}
                           for n, d in zip(job.degrees, dims)]
        if "weyl" in data:
            series = invariant_polynomials(lie, data["weyl"], job.poly_trunc)
            report["invariant_polynomials"] = series
            if "weyl_on_algebra" in data:
                check = torus_weyl_check(lie, algebra, job.poly_trunc,
                                         data["weyl"],
                                         data["weyl_on_algebra"],
                                         degrees=job.degrees)
                report["torus_weyl"] = {
                    "series": check.series,
                    "e_infinity": check.series_e_infinity,
                    "e1": check.e1_matches,
                }
                note("torus-weyl", check.ok)
    elif job.kind == "getzler":
        action = _action_for(data, job.kind)
        coeff = data.get("module", job.field)
        dims = getzler_total_cohomology(action, coeff, job.degrees,
                                        n_top=job.trunc)
        report["betti"] = [{"degree": n, "dim": d}
                           for n, d in zip(job.degrees, dims)]
        borel = equivariant_cohomology(action, job.field, job.degrees,
                                       n_top=job.trunc) \
            if "module" not in data else None
        if borel is not None:
            note("group-cochain-vs-homotopy-quotient", dims == borel,
                 f"{dims} vs {borel}")
    elif job.kind == "check":
        report["validated"] = sorted(k for k in data if k != "field")
    else:
        _fail(f"unknown job kind {job.kind}", "/")

    report["assertions"] = assertions
    report["ok"] = all(a["ok"] for a in assertions)
    return report


def render(report: dict, out_format: str) -> str:
    if out_format == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = []
    if "betti" in report:
        lines.append("degree\tdim")
        for row in report["betti"]:
            lines.append(f"{row['degree']}\t{row['dim']}")
    if "pages" in report:
        lines.append("p\tq\tr\tdim\tboundary")
        for row in report["pages"]:
            flag = 1 if row["boundary"] else 0
            lines.append(f"{row['p']}\t{row['q']}\t{row['r']}\t"
                         f"{row['dim']}\t{flag}")
    if "invariant_polynomials" in report:
        lines.append("# invariant_polynomials\t"
                     + ",".join(str(v) for v in
                                report["invariant_polynomials"]))
    if "torus_weyl" in report:
        lines.append("# torus_weyl_series\t"
                     + ",".join(str(v) for v in
                                report["torus_weyl"]["series"]))
    if "validated" in report:
        lines.append("# validated\t" + ",".join(report["validated"]))
    for a in report.get("assertions", []):
        status = "PASS" if a["ok"] else "FAIL"
        lines.append(f"# {a['check']}\t{status}")
    return "\n".join(lines) + "\n"


def _parse_degrees(text: str) -> list:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stackcoh",
        description="exact equivariant cohomology of finite groupoid atlases")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("input", nargs="?", default="-",
                       help="JSON input path (default: stdin)")
        p.add_argument("--trunc", type=int, default=None,
                       help="simplicial truncation N (default degrees+2)")
        p.add_argument("--poly-trunc", type=int, default=6)
        p.add_argument("--field", choices=("Q", "Fp"), default=None)
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--degrees", type=str, default="0..4")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")
        p.add_argument("--check-only", action="store_true")
        p.add_argument("--check-total", action="store_true")
        if kind == "hyper":
            p.add_argument("--mode", choices=("atlas", "discrete-borel"),
                           default="atlas")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        degrees = _parse_degrees(args.degrees)
        if not degrees or any(d < 0 for d in degrees):
            raise SchemaError("degrees must be nonnegative", location="--degrees")
        trunc = args.trunc if args.trunc is not None else max(degrees) + 2
        if trunc < max(degrees) + 2:
            raise SchemaError(
                f"truncation {trunc} too small: need at least "
                f"{max(degrees) + 2} for degree {max(degrees)}",
                location="--trunc")
        if args.input == "-":
            payload = json.load(sys.stdin)
        else:
            with open(args.input) as handle:
                payload = json.load(handle)
        field = None
        if args.field == "Q":
            field = QQ
        elif args.field == "Fp":
            if args.p is None:
                raise SchemaError("--field Fp requires --p", location="--p")
            try:
                field = GF(args.p)
            except ValueError as exc:
                raise SchemaError(str(exc), location="--p") from exc
        data = parse_input(payload, field=field)
        if field is None:
            field = data.get("field", QQ)
        job = JobSpec(kind=args.kind, field=field, trunc=trunc,
                      poly_trunc=args.poly_trunc, degrees=degrees,
                      out_format=args.format, check_only=args.check_only,
                      mode=getattr(args, "mode", "atlas"),
                      check_total=args.check_total)
        if args.check_only:
            report = {"kind": args.kind, "check_only": True,
                      "validated": sorted(k for k in data if k != "field"),
                      "assertions": [], "ok": True}
        else:
            report = run(job, data)
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"input error: invalid JSON: {exc}\n")
        return 2
    except (SchemaError, InvariantViolation, ValueError,
            TruncationBoundary) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except StackcohError as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 1
    sys.stdout.write(render(report, args.format))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
