"""CLI: schema validation, job execution, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings

from stackcoh.cli import build_parser, main

from .strategies import fixture_mutations
from .test_simplicial import MONOID_TABLES

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_minimal_point_groupoid(self, capsys):
        code, out, err = run_cli(
            ["cohomology", fixture("point.json"), "--degrees", "0..3"],
            capsys)
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == "degree\tdim"
        assert lines[1] == "0\t1"
        assert lines[2] == "1\t0"

    def test_bad_multiplication_table_is_input_error(self, capsys):
        code, out, err = run_cli(
            ["check", fixture("z2_bad_mul.json")], capsys)
        assert code == 2
        assert "/group/mul" in err

    def test_s0_swap_action_validates(self, capsys):
        code, out, err = run_cli(
            ["check", fixture("s0_swap.json"), "--check-only"], capsys)
        assert code == 0
        assert "action" in out

    def test_missing_key_reports_pointer(self, capsys, tmp_path):
        payload = {"group": {"elements": ["e"]}}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert "mul" in err

    def test_invalid_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out, err = run_cli(["check", str(path)], capsys)
        assert code == 2

    def test_truncation_guard(self, capsys):
        code, out, err = run_cli(
            ["equivariant", fixture("z2_point.json"),
             "--degrees", "0..4", "--trunc", "3"], capsys)
        assert code == 2
        assert "--trunc" in err or "truncation" in err

    @pytest.mark.parametrize("name", sorted(MONOID_TABLES))
    def test_monoid_groupoid_exits_2_at_comp(self, name, capsys, tmp_path):
        payload = {"groupoid": {
            "objects": ["pt"],
            "morphisms": [{"src": 0, "tgt": 0}, {"src": 0, "tgt": 0}],
            "comp": MONOID_TABLES[name]}}
        path = tmp_path / "monoid.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert "(at /groupoid/comp)" in err


class Literal(str):
    """JSON text that _mutated writes as it is, for values json.dumps
    cannot write (an integer longer than Python's int-string limit)."""


def _mutated(tmp_path, name, path, value):
    """A copy of fixture name with the entry at path replaced by value."""
    with open(fixture(name)) as handle:
        data = json.load(handle)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@literal@" if isinstance(value, Literal) else value
    text = json.dumps(data)
    if isinstance(value, Literal):
        text = text.replace('"@literal@"', value)
    out = tmp_path / name
    out.write_text(text)
    return str(out)


# (fixture, path to the bad entry, bad value, expected pointer)
BAD_INDEX_TABLES = {
    "mul": ("z2_point.json", ["group", "mul", 0, 1], "x", "/group/mul/0/1"),
    "mul-bool": ("z2_point.json", ["group", "mul", 1, 0], True,
                 "/group/mul/1/0"),
    "comp": ("s0_swap.json", ["groupoid", "comp", 1, 1], "b",
             "/groupoid/comp/1/1"),
    "faces": ("circle_action.json", ["complex", "faces", 1, 2, 3], "c",
              "/complex/faces/1/2/3"),
    "on_objects": ("s0_swap.json", ["action", "on_objects", "s", 0], "1",
                   "/action/on_objects/s/0"),
    "on_morphisms": ("s0_swap.json", ["action", "on_morphisms", "s", 1],
                     0.0, "/action/on_morphisms/s/1"),
    "level_maps": ("circle_action.json", ["action_on_complex", "r", 2, 5],
                   False, "/action_on_complex/r/2/5"),
    "elements": ("z2_point.json", ["group", "elements"], ["e", "e"],
                 "/group/elements/1"),
    "objects": ("s0_swap.json", ["groupoid", "objects"], ["a", "a"],
                "/groupoid/objects/1"),
    "lie-structure": ("cartan_point.json", ["lie", "structure"], 5,
                      "/lie/structure"),
    "lie-structure-row": ("cartan_point.json", ["lie", "structure", 0], [],
                          "/lie/structure/0"),
    "iota-entry": ("cartan_point.json", ["gdga", "iota", 0], 3,
                   "/gdga/iota/0"),
    "L-entry": ("cartan_point.json", ["gdga", "L", 0], 3, "/gdga/L/0"),
    "iota-count": ("cartan_point.json", ["lie"], {"dim": 2}, "/gdga/iota"),
    "weyl-on-algebra": ("cartan_point.json", ["weyl_on_algebra", 0], 1,
                        "/weyl_on_algebra/0"),
    # one entry per Weyl generator: none, or one too many
    "weyl-on-algebra-none": ("cartan_point.json", ["weyl_on_algebra"], [],
                             "/weyl_on_algebra"),
    "weyl-on-algebra-extra": ("cartan_point.json", ["weyl_on_algebra"],
                              [[[[1]]], [[[1]]]], "/weyl_on_algebra"),
    "coefficient-modules": ("hyper_z2_point.json",
                            ["coefficient_complex", "modules"], [],
                            "/coefficient_complex/modules"),
    "coefficient-diffs": ("hyper_z2_point.json",
                          ["coefficient_complex", "diffs"], 7,
                          "/coefficient_complex/diffs"),
    "group-type": ("z2_point.json", ["group"], 7, "/group"),
    "groupoid-type": ("z2_point.json", ["groupoid"], 7, "/groupoid"),
    "action-type": ("z2_point.json", ["action"], 7, "/action"),
    "coefficients-type": ("z2_point.json", ["coefficients"], 7,
                          "/coefficients"),
    "coefficient-complex-type": ("hyper_z2_point.json",
                                 ["coefficient_complex"], 7,
                                 "/coefficient_complex"),
    "complex-type": ("circle_action.json", ["complex"], 7, "/complex"),
    "action-on-complex-type": ("circle_action.json", ["action_on_complex"],
                               7, "/action_on_complex"),
    "lie-type": ("cartan_point.json", ["lie"], 7, "/lie"),
    "gdga-type": ("cartan_point.json", ["gdga"], 7, "/gdga"),
    "gdga-d-type": ("cartan_point.json", ["gdga", "d"], 5, "/gdga/d"),
    "gdga-iota-type": ("cartan_point.json", ["gdga", "iota"], 5,
                       "/gdga/iota"),
    "gdga-L-type": ("cartan_point.json", ["gdga", "L"], 5, "/gdga/L"),
    "gdga-mul-type": ("cartan_point.json", ["gdga", "mul"], 5, "/gdga/mul"),
    "gdga-mul-item": ("cartan_point.json", ["gdga", "mul"], [5],
                      "/gdga/mul/0"),
    "gdga-mul-table-row": ("cartan_point.json", ["gdga", "mul", 0, "table"],
                           [5], "/gdga/mul/0/table/0"),
    "gdga-mul-table-entry": ("cartan_point.json",
                             ["gdga", "mul", 0, "table"], [[5]],
                             "/gdga/mul/0/table/0/0"),
    "weyl-type": ("cartan_point.json", ["weyl"], 5, "/weyl"),
    "weyl-entry-without-lie": ("z2_point.json", ["weyl"], [5], "/weyl/0"),
    "weyl-infinite-order": ("cartan_point.json", ["weyl", 0], [[2]],
                            "/weyl/0"),
    "weyl-singular": ("cartan_point.json", ["weyl", 0], [[0]], "/weyl/0"),
    "weyl-too-large": ("z2_point.json", ["weyl"], [[[1] * 17] * 17],
                       "/weyl/0"),
    # two reflections of order 2 whose product has infinite order
    "weyl-infinite-group": ("z2_point.json", ["weyl"],
                            [[[-1, 0], [0, 1]], [[-1, 1], [0, 1]]], "/weyl"),
    # more digits than int() reads from text
    "int-too-long": ("point.json", ["groupoid", "morphisms", 0, "src"],
                     Literal("7" * 5000), "/groupoid/morphisms/0/src"),
    "weyl-on-algebra-type": ("cartan_point.json", ["weyl_on_algebra"], 5,
                             "/weyl_on_algebra"),
    # morphism ends are checked against the object count
    "objects-empty": ("s0_swap.json", ["groupoid", "objects"], [],
                      "/groupoid/morphisms/0/src"),
    "objects-short": ("s0_swap.json", ["groupoid", "objects"], ["a"],
                      "/groupoid/morphisms/1/src"),
    # a product table is dims[i] x dims[j] x dims[i+j], with i + j <= top
    "gdga-mul-table-short-row": ("cartan_point.json",
                                 ["gdga", "mul", 0, "table", 0], [],
                                 "/gdga/mul/0/table/0"),
    "gdga-mul-degree": ("cartan_point.json", ["gdga", "mul", 0, "i"], 99,
                        "/gdga/mul/0/i"),
    "gdga-mul-total-degree": ("cartan_point.json", ["gdga", "mul", 0, "j"],
                              1, "/gdga/mul/0/j"),
    # counts are nonnegative integers, and the two that build objects
    # without a matching list are refused above their ceilings
    "cells-float": ("circle_action.json", ["complex", "cells", 2], 1.5,
                    "/complex/cells/2"),
    "gdga-dims-name": ("cartan_point.json", ["gdga", "dims"], ["a"],
                       "/gdga/dims/0"),
    "lie-dim-negative": ("cartan_point.json", ["lie", "dim"], -1,
                         "/lie/dim"),
    "cells-count-huge": ("circle_action.json", ["complex", "cells", 0],
                         10 ** 8, "/complex/cells/0"),
    "lie-dim-huge": ("cartan_point.json", ["lie"], {"dim": 10 ** 8},
                     "/lie/dim"),
    # rational scalars are integers or "a/b" strings, nothing else
    "scalar-exponent": ("cartan_point.json",
                        ["gdga", "mul", 0, "table", 0, 0, 0], "1e10000000",
                        "/gdga/mul/0/table/0/0/0"),
    "scalar-decimal": ("cartan_point.json", ["lie", "structure", 0, 0, 0],
                       "0.0", "/lie/structure/0/0/0"),
    # p = 0 would silently select Q
    "modulus-zero": ("z2_point.json", ["coefficients", "p"], 0,
                     "/coefficients/p"),
}


def _cartan_input(dims, d, iota, lie_der, weyl_on_algebra, p=None):
    """A circle's Lie data on the graded algebra dims, with W = <w> for
    one dual generator w (-1, or 1 when p is given) over Q or F_p."""
    return {"lie": {"dim": 1, "structure": [[[0]]]},
            "gdga": {"dims": dims, "d": d, "iota": [iota], "L": [lie_der]},
            "weyl": [[[1 if p else -1]]],
            "weyl_on_algebra": [weyl_on_algebra],
            "coefficients": {"field": "Fp", "p": p} if p
            else {"field": "Q"}}


_E11 = [[1, 0], [0, 0]]
_SWAP = [[0, 1], [1, 0]]
# Weyl data that weyl_action refuses, each valid piece by piece
WEYL_REFUSED = {
    # the pair (1, [[1, 1], [0, 1]]) has order 3, although the dual
    # generator alone closes to one element
    "order-of-pairs-divisible-by-p": _cartan_input(
        [2], [], [], [[[0, 0], [0, 0]]], [[[1, 1], [0, 1]]], p=3),
    # -1 on degree 1 against 1 on degree 0 does not commute with d = 1
    "map-not-commuting-with-d": _cartan_input(
        [1, 1], [[[1]]], [[[0]]], [[[0]], [[0]]], [[[1]], [[-1]]]),
    # the swap moves the second basis vector, which spans A^g, off A^g
    "map-leaving-lie-invariants": _cartan_input(
        [2, 2], [_E11], [_E11], [_E11, _E11], [_SWAP, _SWAP]),
    # two reflections of order 2 whose product has infinite order, with
    # their maps on the point: the closure of the pairs is infinite
    "infinite-group-with-maps": {
        "lie": {"dim": 2, "structure": [[[0, 0], [0, 0]]] * 2},
        "gdga": {"dims": [1], "d": [], "iota": [[], []],
                 "L": [[[[0]]]] * 2},
        "weyl": [[[-1, 0], [0, 1]], [[-1, 1], [0, 1]]],
        "weyl_on_algebra": [[[[1]]]] * 2,
        "coefficients": {"field": "Q"}},
}


class TestIndexTables:
    @pytest.mark.parametrize("case", sorted(BAD_INDEX_TABLES))
    def test_bad_entry_exits_2_with_pointer(self, case, capsys, tmp_path):
        name, path, value, pointer = BAD_INDEX_TABLES[case]
        start = time.perf_counter()
        code, out, err = run_cli(
            ["check", _mutated(tmp_path, name, path, value)], capsys)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert f"(at {pointer})" in err
        assert "Traceback" not in err

    def test_weyl_on_algebra_needs_weyl(self, capsys, tmp_path):
        with open(fixture("cartan_point.json")) as handle:
            data = json.load(handle)
        del data["weyl"]
        path = tmp_path / "no_weyl.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert "(at /weyl_on_algebra)" in err
        assert "Traceback" not in err

    def test_weyl_generator_without_value_mod_p(self, capsys, tmp_path):
        # swapping two coordinates scaled by 3 and 1/3 has order 2 over Q
        # but no value mod 3, where the torus-Weyl check would read it
        with open(fixture("cartan_b4.json")) as handle:
            data = json.load(handle)
        data["weyl"] = [[[0, "1/3", 0, 0], [3, 0, 0, 0], [0, 0, 1, 0],
                         [0, 0, 0, 1]]]
        data["weyl_on_algebra"] = [[[[1]]]]
        data["gdga"]["mul"][0]["table"] = [[[1]]]
        path = tmp_path / "scaled_weyl.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["check", str(path)], capsys)
        assert code == 0, err
        code, out, err = run_cli(
            ["check", str(path), "--field", "Fp", "--p", "3"], capsys)
        assert code == 2
        assert "(at /weyl/0)" in err
        assert "Traceback" not in err

    def test_weyl_order_divisible_by_p(self, capsys, tmp_path):
        # W = <-1> has order 2 over Q; mod 2 the generator reads as 1, so
        # the order is counted before the torus-Weyl check reads it
        with open(fixture("cartan_point.json")) as handle:
            data = json.load(handle)
        data["gdga"]["mul"][0]["table"] = [[[1]]]
        path = tmp_path / "point_integral.json"
        path.write_text(json.dumps(data))
        flags = ["--degrees", "0..3", "--poly-trunc", "3"]
        code, out, err = run_cli(
            ["cartan", str(path), "--field", "Fp", "--p", "3", *flags],
            capsys)
        assert code == 0, err
        code, out, err = run_cli(
            ["cartan", str(path), "--field", "Fp", "--p", "2", *flags],
            capsys)
        assert code == 2
        assert "|W| = 2" in err and "(at /weyl)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("check_only", [False, True],
                             ids=["run", "check-only"])
    @pytest.mark.parametrize("case", sorted(WEYL_REFUSED))
    def test_refused_weyl_data_exits_2(self, case, check_only, capsys,
                                       tmp_path):
        # the torus-Weyl checks run on the input, before any computation
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(WEYL_REFUSED[case]))
        flags = ["--degrees", "0..2", "--poly-trunc", "2"]
        code, out, err = run_cli(
            ["cartan", str(path), *flags,
             *(["--check-only"] if check_only else [])], capsys)
        assert code == 2, err
        assert "(at /weyl" in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("check_only", [False, True],
                             ids=["run", "check-only"])
    def test_weyl_closed_once_per_run(self, check_only, capsys, monkeypatch):
        # parse_input closes W in weyl_action; the job reads its result
        from stackcoh import cartan, cli
        closures = []
        real = cartan.mulclose_mats
        for module in (cartan, cli):
            monkeypatch.setattr(module, "mulclose_mats", lambda g: (
                closures.append(len(g)), real(g))[1])
        code, out, err = run_cli(
            ["cartan", fixture("cartan_b4.json"), "--degrees", "0..5",
             "--poly-trunc", "3", *(["--check-only"] if check_only else [])],
            capsys)
        assert code == 0, err
        assert len(closures) == 1

    def test_composite_p_exits_2_with_pointer(self, capsys):
        code, out, err = run_cli(
            ["check", fixture("z2_point.json"), "--field", "Fp",
             "--p", "1000000000000000001"], capsys)
        assert code == 2
        assert "(at --p)" in err
        assert "Traceback" not in err

    def test_large_prime_p_is_accepted(self, capsys):
        code, out, err = run_cli(
            ["check", fixture("z2_point.json"), "--field", "Fp",
             "--p", "1000000000000000003", "--check-only"], capsys)
        assert code == 0, err


# (argv, flag): each value is refused at its flag before anything is
# built.  The first three would build a list, a tower or a polynomial
# basis that runs out of memory.
REFUSED_FLAGS = {
    "degrees": (["check", "point.json", "--degrees", "0..10000000000"],
                "--degrees"),
    "trunc": (["cohomology", "point.json", "--trunc", "100000000"],
              "--trunc"),
    "poly-trunc": (["cartan", "cartan_point.json", "--poly-trunc", "100000"],
                   "--poly-trunc"),
    "degrees-word": (["equivariant", "z2_point.json", "--degrees", "x"],
                     "--degrees"),
    "degrees-two-spans": (["equivariant", "z2_point.json",
                           "--degrees", "1..2..3"], "--degrees"),
    "degrees-empty-item": (["equivariant", "z2_point.json",
                            "--degrees", "1,,2"], "--degrees"),
    # the raw complex of circle_action.json stops at level 5
    "equivariant-short-complex": (["equivariant", "circle_action.json",
                                   "--degrees", "0..9"], "--degrees"),
    "cohomology-short-complex": (["cohomology", "circle_action.json",
                                  "--degrees", "0..9"], "--degrees"),
    "equivariant-short-complex-check-only": (
        ["equivariant", "circle_action.json", "--degrees", "0..9",
         "--check-only"], "--degrees"),
    "equivariant-short-complex-trunc": (
        ["equivariant", "circle_action.json", "--degrees", "0..3",
         "--trunc", "6"], "--trunc"),
    "cohomology-short-complex-trunc": (
        ["cohomology", "circle_action.json", "--degrees", "0..5",
         "--trunc", "7"], "--trunc"),
    # the Cartan model certifies degrees up to 2 poly-trunc - top(A)
    "cartan-beyond-certified": (["cartan", "cartan_rotation.json",
                                 "--degrees", "0..9", "--poly-trunc", "3"],
                                "--degrees"),
    "cartan-poly-trunc-0": (["cartan", "cartan_point.json",
                             "--degrees", "0..3", "--poly-trunc", "0"],
                            "--degrees"),
    "cartan-beyond-certified-check-only": (
        ["cartan", "cartan_rotation.json", "--degrees", "0..6",
         "--poly-trunc", "3", "--check-only"], "--degrees"),
}


def _address_space_cap():
    import resource
    cap = 600 * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


class TestOversizedFlags:
    @pytest.mark.parametrize("case", sorted(REFUSED_FLAGS))
    def test_refused_before_anything_is_built(self, case):
        # run capped in a child process, so a regression fails there
        # instead of taking the memory of the test run
        (kind, name, *flags), flag = REFUSED_FLAGS[case]
        proc = subprocess.run(
            [sys.executable, "-m", "stackcoh.cli", kind, fixture(name),
             *flags], capture_output=True, text=True, timeout=60,
            preexec_fn=_address_space_cap,
            env={**os.environ, "PYTHONPATH": os.path.join(
                os.path.dirname(__file__), "..", "src")})
        assert proc.returncode == 2, proc.stderr
        assert f"(at {flag})" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestSchemaFuzz:
    @settings(max_examples=1000, derandomize=True, deadline=None,
              database=None)
    @given(case=fixture_mutations())
    def test_single_node_mutation_exits_cleanly(self, tmp_path_factory,
                                                case):
        # every malformed input is refused with a pointer, in bounded time
        name, doc, edit = case
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["check", str(path), "--check-only"])
        assert time.perf_counter() - start < 5, edit
        assert code in (0, 1, 2), edit
        if code == 2:
            assert "(at /" in err.getvalue() or "(at --" in err.getvalue(), \
                (edit, err.getvalue())


class TestJobs:
    @pytest.mark.parametrize("argv", [
        ["cohomology", "--degrees", "0..4"],
        ["cohomology", "--degrees", "0..4", "--trunc", "9"],
        ["equivariant", "--degrees", "0..3"],
        ["equivariant", "--degrees", "0..2", "--trunc", "5"],
    ])
    def test_degrees_within_a_raw_complex_run(self, argv, capsys):
        # circle_action.json's complex stops at level 5: cohomology
        # certifies degrees up to 4, and an action job runs up to
        # truncation 5
        kind, *flags = argv
        code, out, err = run_cli(
            [kind, fixture("circle_action.json"), *flags], capsys)
        assert code == 0, err

    def test_torus_weyl_over_fp(self, capsys):
        # the Weyl generators are read over Q and checked over F_3
        code, out, err = run_cli(
            ["cartan", fixture("cartan_rotation.json"), "--field", "Fp",
             "--p", "3", "--degrees", "0..5", "--poly-trunc", "3"], capsys)
        assert code == 0, err
        assert "# torus-weyl\tPASS" in out.splitlines()

    def test_equivariant_z2_point_tower(self, capsys):
        code, out, err = run_cli(
            ["equivariant", fixture("z2_point.json"), "--degrees", "0..4"],
            capsys)
        assert code == 0, err
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert [int(r[1]) for r in rows] == [1, 1, 1, 1, 1]

    def test_equivariant_rational_override_flag(self, capsys):
        code, out, err = run_cli(
            ["equivariant", fixture("z2_point.json"), "--degrees", "0..3",
             "--field", "Q"], capsys)
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert [int(r[1]) for r in rows] == [1, 0, 0, 0]

    def test_spectral_borel_dump(self, capsys):
        code, out, err = run_cli(
            ["spectral-borel", fixture("z2_point.json"),
             "--degrees", "0..3"], capsys)
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == "p\tq\tr\tdim\tboundary"
        assert any(line.startswith("# E2-identification\tPASS")
                   for line in lines)
        assert any(line.startswith("# convergence\tPASS") for line in lines)

    def test_spectral_atlas_runs(self, capsys):
        code, out, err = run_cli(
            ["spectral-atlas", fixture("s0_swap.json"),
             "--degrees", "0..2"], capsys)
        assert code == 0, err
        assert "# E1-identification\tPASS" in out

    def test_hyper_zero_two_term(self, capsys):
        code, out, err = run_cli(
            ["hyper", fixture("hyper_z2_point.json"), "--degrees", "0..2",
             "--mode", "discrete-borel"], capsys)
        assert code == 0, err
        assert "# convergence\tPASS" in out

    def test_cartan_point_series(self, capsys):
        code, out, err = run_cli(
            ["cartan", fixture("cartan_point.json"), "--degrees", "0..7",
             "--poly-trunc", "4"], capsys)
        assert code == 0, err
        rows = [line.split("\t") for line in out.strip().splitlines()
                if not line.startswith("#") and "degree" not in line]
        assert [int(r[1]) for r in rows] == [1, 0, 1, 0, 1, 0, 1, 0]
        assert "# invariant_polynomials\t1,0,1,0,1" in out
        assert "# torus-weyl\tPASS" in out

    def test_cartan_weyl_on_lie_invariants(self, capsys):
        # L rotates x, y in both degrees, so A^g is the z line; the Weyl
        # maps act on A and must be restricted to A^g
        code, out, err = run_cli(
            ["cartan", fixture("cartan_rotation.json"), "--poly-trunc", "3",
             "--degrees", "0..5"], capsys)
        assert code == 0, err
        assert "# torus_weyl_series\t1,1,0,0,1,1" in out
        assert "# torus-weyl\tPASS" in out

    def test_cartan_b4_from_generators(self, capsys):
        # |W| = 384 from three generators on the rank-4 point algebra
        code, out, err = run_cli(
            ["cartan", fixture("cartan_b4.json"), "--degrees", "0..8",
             "--poly-trunc", "4"], capsys)
        assert code == 0, err
        assert "# invariant_polynomials\t1,0,1,0,2" in out
        assert "# torus_weyl_series\t1,0,0,0,1,0,0,0,2" in out
        assert "# torus-weyl\tPASS" in out

    def test_getzler_agrees_with_homotopy_quotient(self, capsys):
        code, out, err = run_cli(
            ["getzler", fixture("s0_swap.json"), "--degrees", "0..3"],
            capsys)
        assert code == 0, err
        assert "# group-cochain-vs-homotopy-quotient\tPASS" in out

    def test_raw_complex_equivariant(self, capsys):
        code, out, err = run_cli(
            ["equivariant", fixture("circle_action.json"),
             "--degrees", "0..3"], capsys)
        assert code == 0, err
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert [int(r[1]) for r in rows] == [1, 1, 0, 0]

    def test_raw_complex_cohomology(self, capsys):
        code, out, err = run_cli(
            ["cohomology", fixture("circle_action.json"),
             "--degrees", "0..3"], capsys)
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert [int(r[1]) for r in rows] == [1, 1, 0, 0]


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        outs = []
        for _ in range(2):
            code, out, err = run_cli(
                ["spectral-borel", fixture("z2_point.json"),
                 "--degrees", "0..3", "--format", "json"], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_json_format_is_sorted(self, capsys):
        code, out, err = run_cli(
            ["equivariant", fixture("z2_point.json"), "--degrees", "0..2",
             "--format", "json"], capsys)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["ok"] is True
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stackcoh.cli", "cohomology",
             fixture("point.json"), "--degrees", "0..2"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(
                os.path.dirname(__file__), "..", "src")})
        assert proc.returncode == 0
        assert proc.stdout.startswith("degree\tdim")

    def test_parser_built_once(self, capsys):
        # main reuses one parser, and a reused parser gives each call its
        # own arguments
        assert build_parser() is build_parser()
        first = run_cli(["cohomology", fixture("point.json"),
                         "--degrees", "0..2"], capsys)
        second = run_cli(["cohomology", fixture("point.json"),
                          "--degrees", "0..3", "--format", "json"], capsys)
        assert first[0] == second[0] == 0
        assert first[1].startswith("degree\tdim")
        assert json.loads(second[1])["betti"][-1]["degree"] == 3
