"""The three benchmark workloads and the output signature of each job.

A job is one library or CLI call with every built-in check of that call
left on.  ``setup(workload)`` imports stackcoh, builds the corpus actions
the workload needs and returns its jobs; the jobs look stackcoh functions
up through their modules at call time, so the traced run can wrap them.

Truncations are below the corpus acceptance budget where the budget
would make one pass longer than a few seconds (see README.md): a timed
run has to fit several passes into its measuring window.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

FIXTURES = Path(__file__).resolve().parent / "fixtures"

MODULES = ("models", "spectra", "stackact", "getzler", "cartan", "cli")

# (corpus instance, n_top, runners)
SS_FULL = (
    ("z2_s0_swap_q", 6, ("discrete_borel_ss", "atlas_ss")),
    ("z2_pair2_swap_f2", 5, ("discrete_borel_ss", "atlas_ss")),
)
SS_RANKS = (
    ("s3_3pts_q", 3, ("discrete_borel_ss", "atlas_ss")),
    ("s3_point_q", 4, ("discrete_borel_ss", "atlas_ss")),
    ("s3_point_f2", 4, ("discrete_borel_ss", "atlas_ss")),
)
# (corpus instance, top certified degree); n_top is degree + 2
MODELS = (
    ("z2_cycle4_q", 4),
    ("z3_point_f3", 4),
    ("z2_pair2_swap_q", 4),
)
# the five README commands plus one hypercohomology run
CLI_COMMANDS = (
    ("equivariant", "z2_point.json", "--degrees", "0..4"),
    ("spectral-borel", "z2_point.json", "--degrees", "0..3",
     "--format", "json"),
    ("cartan", "cartan_point.json", "--degrees", "0..7", "--poly-trunc", "4"),
    ("getzler", "s0_swap.json", "--degrees", "0..3"),
    ("check", "s0_swap.json", "--check-only"),
    ("hyper", "hyper_z2_point.json", "--degrees", "0..3"),
)

WORKLOADS = ("ss_full", "ss_ranks", "models")


@dataclass
class Job:
    """One call: ``call()`` runs it, ``ok(result)`` reads its own checks,
    ``payload(result)`` is what the signature covers."""

    name: str
    call: Callable[[], object]
    ok: Callable[[object], bool]
    payload: Callable[[object], object]


def canon(x):
    """JSON-ready form with a fixed order; rationals become strings."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, Fraction)):
        return str(x)
    if isinstance(x, dict):
        items = [(json.dumps(canon(k)), canon(v)) for k, v in x.items()]
        return [[k, v] for k, v in sorted(items, key=lambda kv: kv[0])]
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=json.dumps)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def signature(payload) -> str:
    text = json.dumps(canon(payload), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _mat(m):
    return {"shape": [m.rows, m.cols], "entries": m.entries}


def _ss_payload(run):
    pages = [{"r": pg.r, "filtration": pg.filtration,
              "stabilized": pg.stabilized, "n_offset": pg.n_offset,
              "entries": pg.entries, "flags": pg.flags,
              "differentials": {k: _mat(v)
                                for k, v in pg.differentials.items()},
              "reps": pg.reps}
             for pg in run.pages]
    return {"pages": pages, "identification": run.identification,
            "convergence": run.convergence}


def _ss_jobs(m, specs, dims_only):
    jobs = []
    for inst_name, n_top, runners in specs:
        inst = m["models"].corpus_by_name(inst_name)
        action = inst.action(n_top)
        for runner in runners:
            def call(runner=runner, action=action, field=inst.field,
                     n_top=n_top):
                return getattr(m["spectra"], runner)(
                    action, field, n_top, dims_only=dims_only)
            jobs.append(Job(f"{runner}/{inst_name}/n{n_top}", call,
                            lambda run: run.ok, _ss_payload))
    return jobs


def _cli_call(m, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = m["cli"].main(list(argv))
    return code, out.getvalue()


def _models_jobs(m):
    jobs = []
    for inst_name, degree in MODELS:
        inst = m["models"].corpus_by_name(inst_name)
        n_top = degree + 2
        action = inst.action(n_top)
        expected = inst.expected[:degree + 1]
        degrees = range(degree + 1)

        def equivariant(action=action, field=inst.field, n_top=n_top,
                        degrees=degrees):
            return m["stackact"].equivariant_cohomology(
                action, field, degrees, n_top=n_top, check_total=True)

        def getzler(action=action, field=inst.field, n_top=n_top,
                    degrees=degrees):
            return m["getzler"].getzler_total_cohomology(
                action, field, degrees, n_top=n_top)

        for label, call in (("equivariant", equivariant),
                            ("getzler", getzler)):
            jobs.append(Job(f"{label}/{inst_name}/n{n_top}", call,
                            lambda dims, e=expected: dims == e,
                            lambda dims: dims))
    for ci in m["models"].CARTAN_CORPUS:
        def cartan(ci=ci):
            return m["cartan"].cartan_cohomology(
                ci.lie, ci.algebra, ci.poly_trunc, range(len(ci.expected)))
        jobs.append(Job(f"cartan/{ci.name}", cartan,
                        lambda dims, e=ci.expected: dims == e,
                        lambda dims: dims))
    for kind, fixture, *flags in CLI_COMMANDS:
        argv = (kind, str(FIXTURES / fixture), *flags)
        jobs.append(Job(f"cli/{kind}/{fixture}",
                        lambda argv=argv: _cli_call(m, argv),
                        lambda res: res[0] == 0,
                        lambda res: {"exit": res[0], "stdout": res[1]}))
    return jobs


def setup(workload: str) -> list:
    """Import stackcoh and build the workload's jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    m = {name: importlib.import_module(f"stackcoh.{name}") for name in MODULES}
    if workload == "ss_full":
        jobs = _ss_jobs(m, SS_FULL, dims_only=False)
    elif workload == "ss_ranks":
        jobs = _ss_jobs(m, SS_RANKS, dims_only=True)
    else:
        jobs = _models_jobs(m)
    return jobs
