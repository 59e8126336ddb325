"""Self-test of the benchmark's layer map.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests

The traced runs are short (one untraced and one traced pass each).  They
check that every layer reads nonzero on the workload that exercises it,
that the bypassed layers read exactly zero, and that tracing leaves every
job's signature unchanged.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jobs as jobdefs  # noqa: E402
import layers  # noqa: E402

# layer metric -> workloads whose jobs must move it (nonzero when traced)
MECHANISM = {
    "stackact.build_s": ("ss_full", "ss_ranks", "models"),
    "simplicial.cochains_s": ("models",),
    "simplicial.validate_calls": ("ss_full", "ss_ranks", "models"),
    "spectra.borel_dc_s": ("ss_full", "ss_ranks", "models"),
    "spectra.block_cells": ("ss_full", "ss_ranks", "models"),
    "spectra.total_nnz": ("ss_full", "ss_ranks", "models"),
    "homalg.dc_validate_s": ("ss_full", "ss_ranks", "models"),
    "homalg.total_s": ("ss_full", "ss_ranks", "models"),
    "homalg.cohomology_calls": ("ss_full", "ss_ranks", "models"),
    "spectra.pages_self_s": ("ss_full", "ss_ranks"),
    "spectra.kernels_calls": ("ss_full",),
    "spectra.dr_solve_s": ("ss_full",),
    "spectra.page_check_s": ("ss_full",),
    "spectra.rank_table_calls": ("ss_ranks",),
    "spectra.convergence_s": ("ss_full", "ss_ranks"),
    "groupcoh.oracle_s": ("ss_full", "ss_ranks"),
    "getzler.total_s": ("models",),
    "getzler.kept_cells_frac": ("models",),
    "exactalg.insert_calls": ("ss_full", "ss_ranks", "models"),
    "exactalg.insert_useful_frac": ("ss_full", "ss_ranks", "models"),
    "exactalg.max_coeff_bits": ("ss_full", "ss_ranks"),
    "exactalg.matmul_calls": ("ss_full", "ss_ranks", "models"),
    "exactalg.mat_new_entries": ("ss_full", "ss_ranks", "models"),
    "cartan.s": ("models",),
    "cli.parse_s": ("models",),
    "cli.run_s": ("models",),
    "cli.render_s": ("models",),
}

# layer metric -> workloads on which it must read exactly zero
BYPASS = {
    "spectra.kernels_calls": ("ss_ranks",),
    "spectra.rank_table_calls": ("ss_full",),
    "getzler.total_s": ("ss_full", "ss_ranks"),
}


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in jobdefs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_traced_signatures_match_untraced(traced):
    for workload, result in traced.items():
        assert result["correct"] and result["failed"] == 0, workload


def test_every_declared_layer_metric_is_reported(traced):
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = {m["name"] for m in json.load(handle)["per_layer"]}
    for result in traced.values():
        assert set(result["metrics"]) == declared


def test_mechanism_layers_are_nonzero(traced):
    for metric, workloads in MECHANISM.items():
        for workload in workloads:
            value = traced[workload]["metrics"][metric]["value"]
            assert value > 0, (metric, workload)


def test_bypassed_layers_read_zero(traced):
    for metric, workloads in BYPASS.items():
        for workload in workloads:
            assert traced[workload]["metrics"][metric]["value"] == 0, \
                (metric, workload)


def _bindings():
    return {(mod.__name__, name): value
            for mod in layers._stackcoh_modules()
            for name, value in vars(mod).items()}


def _class_attrs():
    out = {}
    for targets, _, _ in layers.LAYERS.values():
        for t in targets:
            if t.cls is not None:
                owner = getattr(sys.modules[f"stackcoh.{t.module}"], t.cls)
                out[(t.cls, t.attr)] = owner.__dict__[t.attr]
    return out


def test_install_patches_lookup_sites_and_restore_undoes_it():
    jobdefs.setup("models")
    before, attrs = _bindings(), _class_attrs()
    tracer = layers.Tracer()
    tracer.install()
    try:
        spectra = sys.modules["stackcoh.spectra"]
        getzler = sys.modules["stackcoh.getzler"]
        exactalg = sys.modules["stackcoh.exactalg"]
        assert spectra.rank is not exactalg.rank
        assert spectra.solve_multi is not exactalg.solve_multi
        assert getzler.borel_double_complex is spectra.borel_double_complex
        assert getzler.borel_double_complex is not \
            before[("stackcoh.spectra", "borel_double_complex")]
        assert exactalg.Sieve.insert is not attrs[("Sieve", "insert")]
    finally:
        tracer.restore()
    assert _bindings() == before
    assert _class_attrs() == attrs


def test_missing_target_fails_loudly_and_restores(monkeypatch):
    jobdefs.setup("models")
    before = _bindings()
    bogus = dict(layers.LAYERS)
    bogus["zz.missing"] = ((layers._fn("spectra", "no_such_function"),),
                           True, None)
    monkeypatch.setattr(layers, "LAYERS", bogus)
    with pytest.raises(AttributeError):
        layers.Tracer().install()
    assert _bindings() == before
