"""Batch command-line surface: JSON in, deterministic reports out.

Subcommands mirror the job kinds (cohomology, equivariant,
spectral-atlas, spectral-borel, hyper, cartan, getzler, check).  Inputs
are validated exhaustively before any computation.  The one shape check
is the recursive walker ``_array``: it checks each list's type and length
against sizes parsed earlier and hands each innermost entry to a leaf
parser (an index, a count, a name, a field scalar or a vector of scalars).
Validation failures carry JSON-pointer locations and exit with status 2,
failed mathematical assertions exit with 1, and a fully passing run
exits 0 with byte-reproducible output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import partial

from .errors import (
    InvariantViolation, SchemaError, StackcohError, TruncationBoundary,
)
from .exactalg import Field, GF, QQ, Mat
from .homalg import CoefficientComplex, cohomology
from .simplicial import (
    FiniteGroupoid, SemiSimplicialSet, cochains, nerve,
)
from .stackact import (
    FiniteGroup, GroupoidAction, SimplicialGAction, equivariant_cohomology,
)
from .groupcoh import GModule
from .spectra import atlas_ss, discrete_borel_ss, hyper_ss
from .getzler import getzler_total_cohomology
from .cartan import (
    CLOSURE_LIMIT, GDGA, LieAlgebraData, abelian_lie, cartan_cohomology,
    invariant_polynomials, matrix_order, mulclose_mats, torus_weyl_check,
    validate_gdga,
)

KINDS = ("cohomology", "equivariant", "spectral-atlas", "spectral-borel",
         "hyper", "cartan", "getzler", "check")

# Two counts become objects without a matching list in the input: a cell
# count builds that many cell names, and a Lie dimension without structure
# constants builds dim^2 brackets and a dim^3 Jacobi check.  Both are
# refused above these ceilings before anything is built.  The corpus peaks
# at 128 cells in a level (z2_pair2_swap at truncation 6) and a Lie algebra
# of dimension 2; the ceilings leave wide headroom and keep the check of a
# maximal input well under a second.  A Weyl generator acts on the Lie
# algebra, so its size has the same ceiling even when no lie is given.
MAX_LEVEL_CELLS = 10_000
MAX_LIE_DIM = 16
# --trunc, --poly-trunc and the degrees (through the truncation d + 2
# they need) size towers, ranges and polynomial bases that are built
# before any check could see them.  The corpus peaks at truncation 8 and
# polynomial truncation 7; the ceiling leaves eightfold headroom.
MAX_TRUNC = 64


@dataclass
class JobSpec:
    kind: str
    field: Field
    trunc: int
    poly_trunc: int
    degrees: list
    mode: str = "atlas"
    check_total: bool = False


def _fail(message, location):
    raise SchemaError(message, location=location)


def _array(value, shape, loc, leaf=None):
    """The one shape check: value is a list nested len(shape) deep, whose
    length at each depth is the matching entry of shape (None: any
    length), and leaf(entry, pointer) parses each innermost entry (no
    leaf: the entry as it is).  A list's length is checked before its
    children are visited.  Returns the same nesting of parsed entries,
    or exits 2 at the pointer of the first wrong node."""
    if not shape:
        return value if leaf is None else leaf(value, loc)
    if not isinstance(value, list):
        _fail("expected a list", loc)
    if shape[0] is not None and len(value) != shape[0]:
        _fail(f"expected {shape[0]} entries, not {len(value)}", loc)
    return [_array(v, shape[1:], f"{loc}/{k}", leaf)
            for k, v in enumerate(value)]


def _object(value, loc):
    if not isinstance(value, dict):
        _fail("expected a JSON object", loc)
    return value


def _expect(obj, key, loc, shape=None, leaf=None):
    """obj[key], walked with shape and leaf when a shape is given."""
    if key not in _object(obj, loc):
        _fail(f"missing required key '{key}'", loc)
    if shape is None:
        return obj[key]
    return _array(obj[key], shape, f"{loc}/{key}", leaf)


def _index(bound, value, loc, nullable=False):
    """Leaf: an index into a list of length bound (or null if nullable)."""
    if not ((nullable and value is None)
            or (type(value) is int and 0 <= value < bound)):
        _fail(f"expected an integer index below {bound}", loc)
    return value


def _count(value, loc, most=None):
    """Leaf: a nonnegative integer, at most `most` when that is given."""
    if type(value) is not int or value < 0:
        _fail("expected a nonnegative integer", loc)
    if most is not None and value > most:
        _fail(f"{value} is above the limit of {most}", loc)
    return value


def _name(value, loc):
    if type(value) not in (str, int):
        _fail("names must be strings or integers", loc)
    return str(value)


def _names(value, loc) -> list:
    """Names as strings; two equal names would make name-keyed tables
    ambiguous, so a repeat exits 2 at its pointer."""
    names = _array(value, (None,), loc, _name)
    seen = set()
    for k, name in enumerate(names):
        if name in seen:
            _fail(f"duplicate name '{name}'", f"{loc}/{k}")
        seen.add(name)
    return names


def parse_scalar(field: Field, value, loc):
    """Leaf: an integer; over Q also an integer or "a/b" string."""
    if type(value) is not int and (field.p or not isinstance(value, str)):
        _fail("mod-p entries must be integers" if field.p else
              "rational entries must be integers or 'a/b' strings", loc)
    try:
        return field.parse(value)
    except (ValueError, ZeroDivisionError):
        _fail(f"cannot parse scalar {value!r}", loc)


def _vector(length, field, value, loc) -> dict:
    """Leaf: a dense vector of field scalars, returned as a sparse dict."""
    entries = _array(value, (length,), loc, partial(parse_scalar, field))
    return {c: v for c, v in enumerate(entries) if v}


def _per_element(obj, group, loc, what) -> list:
    """(entry, pointer) for each element of group, in element order, from
    a JSON object keyed by element name."""
    for name in group.elements:
        if name not in _object(obj, loc):
            _fail(f"missing {what} for element '{name}'", loc)
    return [(obj[name], f"{loc}/{name}") for name in group.elements]


def _requires(data, keys, loc):
    """Exit 2 at loc unless every section named in keys was given."""
    if any(key not in data for key in keys):
        _fail(f"requires {' and '.join(keys)}", loc)


def _located(build, loc, *args):
    """build(*args), with a failed invariant reported at loc."""
    try:
        return build(*args)
    except StackcohError as exc:
        raise InvariantViolation(str(exc), location=loc) from exc


def parse_matrix(data, rows, cols, field, loc) -> Mat:
    table = _array(data, (rows, cols), loc, partial(parse_scalar, field))
    return Mat(rows, cols, {(i, j): v for i, row in enumerate(table)
                            for j, v in enumerate(row) if v}, field)


def _matrices(data, shapes, field, loc) -> tuple:
    """One matrix per (rows, cols) of shapes, from a list of that length."""
    return tuple(parse_matrix(m, rows, cols, field, f"{loc}/{k}")
                 for k, (m, (rows, cols)) in
                 enumerate(zip(_array(data, (len(shapes),), loc), shapes)))


def parse_group(obj, loc="/group") -> FiniteGroup:
    names = _names(_expect(obj, "elements", loc), f"{loc}/elements")
    n = len(names)
    mul = _expect(obj, "mul", loc, (n, n), partial(_index, n))
    return _located(FiniteGroup, f"{loc}/mul", names, mul)


def parse_groupoid(obj, loc="/groupoid"):
    names = _names(_expect(obj, "objects", loc), f"{loc}/objects")

    def ends(morphism, at):
        return tuple(_expect(morphism, key, at, (), partial(_index, len(names)))
                     for key in ("src", "tgt"))

    morphisms = _expect(obj, "morphisms", loc, (None,), ends)
    n = len(morphisms)
    comp = _expect(obj, "comp", loc, (n, n), partial(_index, n, nullable=True))
    return _located(FiniteGroupoid, f"{loc}/comp", tuple(names),
                    tuple(src for src, _ in morphisms),
                    tuple(tgt for _, tgt in morphisms),
                    {(a, b): c for a, row in enumerate(comp)
                     for b, c in enumerate(row) if c is not None})


def parse_action(obj, group, atlas, loc="/action") -> GroupoidAction:
    tables = []
    for key, size in (("on_objects", atlas.n_objects),
                      ("on_morphisms", atlas.n_morphisms)):
        tables.append([_array(perm, (size,), at, partial(_index, size))
                       for perm, at in _per_element(
                           _expect(obj, key, loc), group, f"{loc}/{key}",
                           "permutation")])
    return _located(GroupoidAction, loc, group, atlas, *tables)


def _cell_level(value, loc):
    """Leaf of complex.cells: a cell count, or the list of cell names."""
    if type(value) is int:
        return _count(value, loc, MAX_LEVEL_CELLS)
    return tuple(_array(value, (None,), loc, _name))


def parse_complex(obj, loc="/complex") -> SemiSimplicialSet:
    levels = _expect(obj, "cells", loc, (None,), _cell_level)
    cells = [tuple(f"c{n}_{i}" for i in range(level))
             if type(level) is int else level
             for n, level in enumerate(levels)]
    faces = _expect(obj, "faces", loc, (max(len(cells) - 1, 0),))
    faces = [()] + [_array(maps, (n + 1, len(cells[n])),
                           f"{loc}/faces/{n - 1}",
                           partial(_index, len(cells[n - 1])))
                    for n, maps in enumerate(faces, start=1)]
    return _located(SemiSimplicialSet, loc, cells, faces)


def parse_complex_action(obj, group, space, loc="/action_on_complex"):
    maps = []
    for levels, at in _per_element(obj, group, loc, "level maps"):
        levels = _array(levels, (space.trunc + 1,), at)
        maps.append([_array(level, (space.size(n),), f"{at}/{n}",
                            partial(_index, space.size(n)))
                     for n, level in enumerate(levels)])
    return _located(SimplicialGAction, loc, group, space, maps)


def parse_module(obj, group, field, loc) -> GModule:
    dim = _expect(obj, "dim", loc, (), _count)
    mats = [parse_matrix(rho, dim, dim, field, at) for rho, at in
            _per_element(_expect(obj, "rho", loc), group, f"{loc}/rho",
                         "matrix")]
    return _located(GModule, loc, group, field, dim, mats)


def parse_lie(obj, loc="/lie") -> LieAlgebraData:
    dim = _expect(obj, "dim", loc, (), partial(_count, most=MAX_LIE_DIM))
    if obj.get("structure", []) == []:
        return abelian_lie(dim)
    structure = _expect(obj, "structure", loc, (dim, dim),
                        partial(_vector, dim, QQ))
    return _located(LieAlgebraData, loc, dim, structure)


def parse_gdga(obj, field, lie_dim=None, loc="/gdga") -> GDGA:
    """The gdga section; iota and L need lie_dim entries when it is given."""
    dims = _expect(obj, "dims", loc, (None,), _count)
    top = len(dims) - 1
    steps = [(dims[m + 1], dims[m]) for m in range(top)]
    squares = [(n, n) for n in dims]
    d = _matrices(obj.get("d", []), steps, field, f"{loc}/d")
    iota = _array(obj.get("iota", []), (lie_dim,), f"{loc}/iota",
                  lambda v, at: _matrices(v, [(c, r) for r, c in steps],
                                          field, at))
    lie_der = _array(obj.get("L", []), (len(iota),), f"{loc}/L",
                     lambda v, at: _matrices(v, squares, field, at))

    def product(item, at):
        i = _expect(item, "i", at, (), partial(_index, top + 1))
        j = _expect(item, "j", at, (), partial(_index, top + 1 - i))
        return (i, j), _expect(item, "table", at, (dims[i], dims[j]),
                               partial(_vector, dims[i + j], field))

    mul = dict(_array(obj["mul"], (None,), f"{loc}/mul", product)) \
        if "mul" in obj else None
    return GDGA(field, tuple(dims), d, tuple(iota), tuple(lie_der), mul=mul)


def _prime_field(p, loc) -> Field:
    # GF(0) is Q, so a modulus below 2 is refused here
    try:
        if p < 2:
            raise ValueError(f"{p} is not prime")
        return GF(p)
    except ValueError as exc:
        _fail(str(exc), loc)


def parse_field(obj, loc="/coefficients") -> Field:
    name = _expect(obj, "field", loc)
    if name == "Q":
        return QQ
    if name == "Fp":
        return _prime_field(_expect(obj, "p", loc, (), _count), f"{loc}/p")
    _fail("field must be 'Q' or 'Fp'", f"{loc}/field")


def parse_input(payload: dict, field: Field | None = None) -> dict:
    """Validate the whole payload; all domain invariants are checked here."""
    _object(payload, "/")
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
        _requires(data, ("group", "groupoid"), "/action")
        data["action"] = parse_action(payload["action"], data["group"],
                                      data["groupoid"])
    if "action_on_complex" in payload:
        _requires(data, ("group", "complex"), "/action_on_complex")
        data["complex_action"] = parse_complex_action(
            payload["action_on_complex"], data["group"], data["complex"])
    if "coefficients" in payload and "module" in payload["coefficients"]:
        _requires(data, ("group",), "/coefficients/module")
        data["module"] = parse_module(payload["coefficients"]["module"],
                                      data["group"], active,
                                      "/coefficients/module")
    if "coefficient_complex" in payload:
        loc = "/coefficient_complex"
        _requires(data, ("group",), loc)
        cc = payload["coefficient_complex"]
        modules = _expect(cc, "modules", loc, (None,), lambda m, at:
                          parse_module(m, data["group"], active, at))
        if not modules:
            _fail("a coefficient complex needs at least one module",
                  f"{loc}/modules")
        diffs = _matrices(cc.get("diffs", []),
                          [(b.dim, a.dim) for a, b in zip(modules, modules[1:])],
                          active, f"{loc}/diffs")
        data["coefficient_complex"] = _located(CoefficientComplex, loc,
                                               modules, diffs)
    if "lie" in payload:
        data["lie"] = parse_lie(payload["lie"])
    if "gdga" in payload:
        lie = data.get("lie")
        data["gdga"] = parse_gdga(payload["gdga"], active,
                                  lie.dim if lie is not None else None)
        if lie is not None:
            report = validate_gdga(lie, data["gdga"])
            if not report["valid"]:
                raise InvariantViolation(
                    "gdga fails the calculus identities: "
                    + "; ".join(report["failures"]), location="/gdga")
    if "weyl" in payload:

        def weyl_matrix(m, at):
            size = data["lie"].dim if "lie" in data else \
                len(_array(m, (None,), at))
            if size > MAX_LIE_DIM:
                _fail(f"a Weyl generator acts on a Lie algebra of dimension "
                      f"at most {MAX_LIE_DIM}", at)
            w = parse_matrix(m, size, size, QQ, at)
            if matrix_order(w) is None:
                _fail(f"a Weyl generator must have finite order (at most "
                      f"{CLOSURE_LIMIT})", at)
            return w

        data["weyl"] = _array(payload["weyl"], (None,), "/weyl", weyl_matrix)
        # generators of finite order can still generate an infinite group;
        # the cartan job closes them under products, so that is done here
        weyl_group = _located(mulclose_mats, "/weyl",
                              [(w,) for w in data["weyl"]])
    if "weyl_on_algebra" in payload:
        _requires(data, ("gdga", "weyl"), "/weyl_on_algebra")
        squares = [(n, n) for n in data["gdga"].dims]
        data["weyl_on_algebra"] = _array(
            payload["weyl_on_algebra"], (len(data["weyl"]),),
            "/weyl_on_algebra",
            lambda v, at: _matrices(v, squares, active, at))
        # torus_weyl_check averages over W, counted here over Q (mod 2 a
        # generator -1 reads as 1), and reads the generators over the
        # algebra's field
        order = len(weyl_group) or 1    # no generators: W is trivial
        if active.p and order % active.p == 0:
            _fail(f"|W| = {order} is not invertible mod {active.p}", "/weyl")
        for k, w in enumerate(data["weyl"]):
            try:
                Mat(w.rows, w.cols, w.entries, active)
            except ZeroDivisionError:
                _fail(f"a Weyl generator has no value mod {active.p}",
                      f"/weyl/{k}")
    return data


def _complex_reaches(job: JobSpec, data: dict, flag: str):
    """Refuse at flag, before anything is built, a raw complex that stops
    below what the job reads: cohomology certifies the degrees below the
    complex's top level, and the action jobs build up to the truncation.
    The Cartan model certifies degrees up to 2 poly-trunc - top(A), so a
    cartan job refuses any degree above that at --degrees."""
    if job.kind == "cartan" and "gdga" in data:
        most = 2 * job.poly_trunc - data["gdga"].top
        if max(job.degrees) > most:
            _fail(f"degree {max(job.degrees)} is above {most}, the top "
                  f"degree --poly-trunc {job.poly_trunc} certifies",
                  "--degrees")
        return
    if job.kind == "cohomology" and "complex" in data:
        need = max(job.degrees) + 1
    elif job.kind not in ("cartan", "check") and "action" not in data \
            and "complex_action" in data:
        need = job.trunc
    else:
        return
    top = data["complex"].trunc
    if top < need:
        _fail(f"the complex stops at level {top}; this job needs level "
              f"{need}", flag)


def _action_for(data):
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
        action = _action_for(data)
        dims = equivariant_cohomology(action, job.field, job.degrees,
                                      n_top=job.trunc,
                                      check_total=job.check_total)
        report["betti"] = [{"degree": n, "dim": d}
                           for n, d in zip(job.degrees, dims)]
        if job.check_total:
            note("diagonal-vs-totalization", True, "asserted during run")
    elif job.kind in ("spectral-atlas", "spectral-borel"):
        action = _action_for(data)
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
        action = _action_for(data)
        _requires(data, ("coefficient_complex",), "/coefficient_complex")
        ss = hyper_ss(action, data["coefficient_complex"], job.mode,
                      job.trunc)
        report["pages"] = _pages_rows(ss.pages)
        report["convergence"] = ss.convergence
        note("convergence", ss.convergence["ok"])
    elif job.kind == "cartan":
        _requires(data, ("lie", "gdga"), "/")
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
        action = _action_for(data)
        coeff = data.get("module", job.field)
        dims = getzler_total_cohomology(action, coeff, job.degrees,
                                        n_top=job.trunc)
        report["betti"] = [{"degree": n, "dim": d}
                           for n, d in zip(job.degrees, dims)]
        if "module" not in data:
            borel = equivariant_cohomology(action, job.field, job.degrees,
                                           n_top=job.trunc)
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


def _bounded(value: int, flag: str, most: int = MAX_TRUNC) -> int:
    if not 0 <= value <= most:
        _fail(f"{flag} must be between 0 and {most}, got {value}", flag)
    return value


def _parse_degrees(text: str) -> list:
    """a..b or a,b,...: each bound is checked before the range is built,
    and a degree d needs truncation d + 2 <= MAX_TRUNC."""
    span = ".." in text
    try:
        ends = [int(x) for x in (text.split("..", 1) if span
                                 else text.split(","))]
    except ValueError:
        _fail(f"expected a..b or a,b,... of integers, got {text!r}",
              "--degrees")
    for d in ends:
        _bounded(d, "--degrees", MAX_TRUNC - 2)
    degrees = list(range(ends[0], ends[1] + 1)) if span else ends
    if not degrees:
        _fail("the degree range is empty", "--degrees")
    return degrees


def _parse_int(text: str):
    """A JSON integer; one longer than int() reads from text stays text,
    which the leaf parsers refuse at its pointer."""
    try:
        return int(text)
    except ValueError:
        return text


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
        poly_trunc = _bounded(args.poly_trunc, "--poly-trunc")
        trunc = _bounded(args.trunc, "--trunc") if args.trunc is not None \
            else max(degrees) + 2
        if trunc < max(degrees) + 2:
            _fail(f"truncation {trunc} too small: need at least "
                  f"{max(degrees) + 2} for degree {max(degrees)}", "--trunc")
        if args.input == "-":
            payload = json.load(sys.stdin, parse_int=_parse_int)
        else:
            with open(args.input) as handle:
                payload = json.load(handle, parse_int=_parse_int)
        field = None
        if args.field == "Q":
            field = QQ
        elif args.field == "Fp":
            if args.p is None:
                _fail("--field Fp requires --p", "--p")
            field = _prime_field(args.p, "--p")
        data = parse_input(payload, field=field)
        if field is None:
            field = data.get("field", QQ)
        job = JobSpec(kind=args.kind, field=field, trunc=trunc,
                      poly_trunc=poly_trunc, degrees=degrees,
                      mode=getattr(args, "mode", "atlas"),
                      check_total=args.check_total)
        _complex_reaches(job, data, "--degrees" if args.trunc is None
                         else "--trunc")
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
            TruncationBoundary, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except StackcohError as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 1
    sys.stdout.write(render(report, args.format))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
