"""Source-level rules for the stackcoh package."""

import ast
from pathlib import Path

import stackcoh


def _nodes():
    paths = sorted(Path(stackcoh.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_assert_statements():
    # invariants are exceptions: an assert vanishes under python -O
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def _elimination_arithmetic(node) -> bool:
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        return any(alias.name == "gcd" for alias in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr == "gcd" and \
            isinstance(node.value, ast.Name) and node.value.id == "math"
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "pow" and len(node.args) == 3


def test_one_elimination_kernel():
    # gcd renormalisation and modular inverses belong to exactalg's one
    # prepare/eliminate pair; a second copy elsewhere would show up here
    found = sorted({name for name, node in _nodes()
                    if _elimination_arithmetic(node)})
    assert found == ["exactalg.py"]


def test_pages_take_images_from_the_elimination():
    # D . z of every kernel vector comes from _FilteredTotal.kernels,
    # which keeps vec == D . combo; a mul_vec in spectra would be a
    # second source of the same images
    tree = ast.parse(
        Path(stackcoh.__file__).with_name("spectra.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "mul_vec"]
    assert found == []


def test_total_matrix_has_two_callers():
    # total_complex is the one totalization of a double complex and
    # borel_hyper_complex the one of the faces of a hyper Borel complex;
    # a third caller would assemble some D^n a second time
    found = sorted({f"{name}:{fn.name}" for name, fn in _nodes()
                    if isinstance(fn, ast.FunctionDef)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "total_matrix"})
    assert found == ["homalg.py:total_complex",
                     "spectra.py:borel_hyper_complex"]


def _is_self_validate(node) -> bool:
    return isinstance(node, ast.Call) and not node.args and \
        isinstance(node.func, ast.Attribute) and \
        node.func.attr == "validate" and \
        isinstance(node.func.value, ast.Name) and node.func.value.id == "self"


def test_validate_only_at_construction():
    # each object is checked once, by its own constructor; a validate()
    # call anywhere else re-checks an object that was checked when built
    nodes = list(_nodes())
    allowed = {id(call) for _, node in nodes
               if isinstance(node, ast.FunctionDef)
               and node.name == "__post_init__"
               for call in ast.walk(node) if _is_self_validate(call)}
    found = [f"{name}:{node.lineno}" for name, node in nodes
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "validate" and id(node) not in allowed]
    assert found == []


def test_no_constructor_bypass():
    # every object runs its own constructor check: a __new__ call
    # assembles an instance that no check has seen
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.Attribute) and node.attr == "__new__"]
    assert found == []


def test_coerce_only_in_exactalg():
    # Mat.__init__ and exactalg.reduced are the one normalisation of
    # entries; a producer that coerces its own terms reduces them twice
    found = sorted({name for name, node in _nodes()
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "coerce"})
    assert found == ["exactalg.py"]


def _shape_check(node) -> bool:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "isinstance" and len(node.args) == 2:
        return any(isinstance(n, ast.Name) and n.id == "list"
                   for n in ast.walk(node.args[1]))
    return isinstance(node, ast.Compare) and any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id == "len" for n in [node.left, *node.comparators])


def test_one_input_walker():
    # cli._array is the one shape check of the JSON input: a list-type
    # test or a length comparison anywhere else in cli.py is a second,
    # hand-written copy of it
    tree = ast.parse(Path(stackcoh.__file__).with_name("cli.py").read_text())
    walker = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_array")
    allowed = {id(node) for node in ast.walk(walker)}
    found = [node.lineno for node in ast.walk(tree)
             if _shape_check(node) and id(node) not in allowed]
    assert found == []


def _functions(name):
    tree = ast.parse(Path(stackcoh.__file__).with_name(name).read_text())
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_borel_faces_written_once():
    # stackact.bar_faces and base_faces are the one place the faces of
    # G^p x X_n are written; a borel_* builder that reads a group's
    # multiplication table writes the bar faces a second time
    builders = {f"{module}:{name}": fn
                for module in ("spectra.py", "stackact.py")
                for name, fn in _functions(module).items()
                if name.startswith("borel_")}
    assert len(builders) == 4
    found = [key for key, fn in builders.items() if "mul" in _names(fn)]
    assert found == []


def test_oracles_keep_their_own_bar_formula():
    # the oracles of the Borel routes neither read the shared faces nor
    # build a double complex
    oracles = {"groupcoh.py": "bar_complex", "getzler.py": "dbar",
               "spectra.py": "quotient_cohomology_oracle"}
    route = {"bar_faces", "base_faces", "borel_double_complex",
             "borel_hyper_complex", "borel_bisimplicial", "DoubleComplex",
             "total_cochains"}
    found = {name: _names(_functions(module)[name]) & route
             for module, name in oracles.items()}
    assert found == {name: set() for name in oracles.values()}


def test_convergence_ranks_are_not_the_rank_table():
    # in dims-only mode E_infinity comes from the rank table's sieve; the
    # H^n it is checked against must come from another elimination, so
    # convergence_check reads no pair
    check = _functions("spectra.py")["convergence_check"]
    assert _names(check) & {"pairs", "_pairs", "rank_table", "rank_at",
                            "_rank_tables"} == set()


def test_one_rank_sieve():
    # exactalg._column_sieve is the one elimination that ranks a Mat:
    # another function that fills Mat._rank is a second rank sieve
    found = sorted({key for key, fn in _definitions()
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute)
                    and node.attr == "_rank"
                    and isinstance(node.ctx, ast.Store)})
    assert found == ["exactalg.py:Mat.__init__", "exactalg.py:_column_sieve"]


def test_rank_table_and_rank_pass_stay_apart():
    # the rank table clears right to left from its own pairs, a complex's
    # rank pass left to right from its own pivots; convergence_check
    # compares the two, so neither may call or read the other
    defs = dict(_definitions())
    pairs = _names(defs["spectra.py:_FilteredTotal.pairs"])
    rank_pass = _names(defs["homalg.py:CochainComplex.rank_through"])
    assert pairs & {"rank_through", "cohomology", "_column_sieve",
                    "_cleared", "_ranked", "total"} == set()
    assert rank_pass & {"pairs", "_pairs", "rank_table", "rank_at",
                        "_rank_tables"} == set()


def _definitions():
    """(file:qualified name, node) of each top-level function and method."""
    for path in sorted(Path(stackcoh.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.name}:{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        yield f"{path.name}:{node.name}.{fn.name}", fn


def _calls(node, name) -> list:
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == name]


def _constructor_arity(call) -> int | None:
    """Arguments a call hands FiniteGroupoid: a direct call, or
    cli._located(FiniteGroupoid, loc, *args)."""
    if isinstance(call.func, ast.Name) and call.func.id == "FiniteGroupoid":
        return len(call.args) + len(call.keywords)
    if isinstance(call.func, ast.Name) and call.func.id == "_located" and \
            call.args and isinstance(call.args[0], ast.Name) and \
            call.args[0].id == "FiniteGroupoid":
        return len(call.args) - 2 + len(call.keywords)
    return None


def test_one_check_of_group_and_groupoid_axioms():
    # FiniteGroupoid.validate is the one check of the axioms: a group is
    # checked as its one-object groupoid, and no caller hands a groupoid
    # identities or inverses it worked out by hand
    defs = dict(_definitions())
    raising = sorted(key for key, fn in defs.items()
                     for node in ast.walk(fn) if isinstance(node, ast.Raise)
                     if any(isinstance(n, ast.Constant)
                            and isinstance(n.value, str)
                            and "associativity" in n.value
                            for n in ast.walk(node)))
    assert raising == ["simplicial.py:FiniteGroupoid.validate"]
    functions = {key.split(":")[1]: fn for key, fn in defs.items()}
    builders = {"FiniteGroupoid"} | {
        name for name, fn in functions.items()
        if "." not in name and _calls(fn, "FiniteGroupoid")}
    group_check = defs["stackact.py:FiniteGroup.validate"]
    assert any(_calls(group_check, name) for name in builders)
    wide = [f"{key}:{call.lineno}" for key, fn in defs.items()
            for call in ast.walk(fn) if isinstance(call, ast.Call)
            and (_constructor_arity(call) or 0) > 4]
    assert wide == []
