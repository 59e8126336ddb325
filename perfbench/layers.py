"""Per-layer tracing by wrapping stackcoh's public calls from outside.

Nothing in ``src/`` is edited.  ``Tracer.install()`` replaces each
function named in ``LAYERS`` at every site where it is looked up (module
globals bound at import time, such as ``spectra.rank`` or
``getzler.borel_double_complex``) and each listed class attribute
(``Sieve.insert``, ``Mat.__mul__``, ...), and ``Tracer.restore()`` puts
every original back.  A target that cannot be found raises at install
time, so a renamed or moved function fails loudly instead of reading 0.

Each wrapped call pushes a frame.  Span layers also record a span (id,
parent, layer, function, start, end); the hot leaves ``Sieve.insert``,
``Mat.__init__`` and ``Mat.__mul__`` only add to their layer's count and
time, and their time is charged to the open parent as child time.  A
layer's self time is its duration minus the time of the frames it opened;
its inclusive time counts nested calls of the same layer once.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass(frozen=True)
class Target:
    """``module.attr`` or ``module.Class.attr``.

    sites=None wraps the function in every stackcoh module that binds it;
    a tuple of module names wraps it only there, leaving other callers
    untimed (``spectra.solve_multi`` is the d_r solve, while groupcoh's
    binding of the same function belongs to the oracle)."""

    module: str
    attr: str
    cls: str | None = None
    sites: tuple | None = None


def _fn(module, attr, sites=None):
    return Target(module, attr, sites=sites)


def _meth(module, cls, attr):
    return Target(module, attr, cls=cls)


@dataclass
class Stats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value


def _block_cells(st, args, result):
    st.add("block_cells", sum(result.dims.values()))


def _total_nnz(st, args, result):
    if hasattr(result, "entries"):      # TotalLayout.total_matrix
        st.add("total_nnz", len(result.entries))


def _kept_cells(st, args, result):
    ctx = args[0]
    st.add("kept", sum(result[0]))
    st.add("built", sum(ctx.double_complex().dims.values()))


def _insert(st, args, result):
    residual = result[0]
    if residual:
        st.add("useful", 1)
        if args[0].field.p == 0:
            st.peak("max_coeff_bits",
                    max(abs(v).bit_length() for v in residual.values()))


def _mat_entries(st, args, result):
    st.add("entries", len(args[0].entries))


# layer -> (targets, span?, hook run inside the frame after each call)
LAYERS = {
    "stackact.build": ((_fn("stackact", "as_simplicial_action"),
                        _fn("stackact", "borel_object"),
                        _fn("stackact", "borel_bisimplicial")), True, None),
    "simplicial.cochains": ((_fn("simplicial", "cochains"),
                             _fn("simplicial", "total_cochains")), True, None),
    "simplicial.validate": ((_meth("simplicial", "SemiSimplicialSet",
                                   "validate"),
                             _meth("simplicial", "BiSemiSimplicialSet",
                                   "validate"),
                             _meth("simplicial", "FiniteGroupoid",
                                   "validate")), True, None),
    "spectra.borel_dc": ((_fn("spectra", "borel_double_complex"),),
                         True, _block_cells),
    "homalg.dc_validate": ((_meth("homalg", "DoubleComplex",
                                  "__post_init__"),), True, None),
    "homalg.total": ((_fn("homalg", "total_complex"),
                      _meth("homalg", "TotalLayout", "total_matrix")),
                     True, _total_nnz),
    "homalg.cohomology": ((_fn("homalg", "cohomology"),), True, None),
    "spectra.pages": ((_fn("spectra", "pages"),), True, None),
    "spectra.kernels": ((_meth("spectra", "_FilteredTotal", "kernels"),),
                        True, None),
    "spectra.dr_solve": ((_fn("exactalg", "solve_multi",
                              sites=("spectra",)),), True, None),
    "spectra.page_check": ((_fn("exactalg", "rank", sites=("spectra",)),
                            _fn("exactalg", "kernel_basis",
                                sites=("spectra",))), True, None),
    "spectra.rank_table": ((_meth("spectra", "_FilteredTotal",
                                  "rank_table"),), True, None),
    "spectra.convergence": ((_fn("spectra", "convergence_check"),),
                            True, None),
    "groupcoh.oracle": ((_fn("spectra", "quotient_cohomology_oracle"),
                         _fn("groupcoh", "bar_complex"),
                         _fn("groupcoh", "action_on_cohomology")),
                        True, None),
    "getzler.total": ((_fn("getzler", "total_differential_matrices"),),
                      True, _kept_cells),
    "cartan": ((_fn("cartan", "cartan_cohomology"),), True, None),
    "cli.parse": ((_fn("cli", "parse_input"),), True, None),
    "cli.run": ((_fn("cli", "run"),), True, None),
    "cli.render": ((_fn("cli", "render"),), True, None),
    "exactalg.insert": ((_meth("exactalg", "Sieve", "insert"),),
                        False, _insert),
    "exactalg.matmul": ((_meth("exactalg", "Mat", "__mul__"),), False, None),
    "exactalg.mat_new": ((_meth("exactalg", "Mat", "__init__"),),
                         False, _mat_entries),
}


def _stackcoh_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and
            (name == "stackcoh" or name.startswith("stackcoh."))]


class Tracer:
    """Frames, spans and per-layer stats for the calls it wraps."""

    def __init__(self):
        self.stack = []         # [layer, start, child_s, span_id]
        self.active = {}        # layer -> open frames of that layer
        self.spans = []         # (id, parent, layer, function, start, end)
        self.stats = {layer: Stats() for layer in LAYERS}
        self._patched = []      # (owner, attr, original)

    def reset_stats(self):
        self.stats = {layer: Stats() for layer in LAYERS}

    def open_span(self, layer, function):
        """Push a root frame (the benchmark's own job span)."""
        return self._enter(layer, function, True)

    def close_span(self, frame):
        self._exit(frame)

    def _enter(self, layer, function, span):
        span_id = None
        if span:
            span_id = len(self.spans)
            parent = next((f[3] for f in reversed(self.stack)
                           if f[3] is not None), None)
            self.spans.append([span_id, parent, layer, function, None, None])
        self.active[layer] = self.active.get(layer, 0) + 1
        frame = [layer, perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self.stack.pop()
        layer, start, child_s, span_id = frame
        elapsed = end - start
        if self.stack:
            self.stack[-1][2] += elapsed
        self.active[layer] -= 1
        if span_id is not None:
            self.spans[span_id][4:] = [start, end]
        st = self.stats.get(layer)
        if st is None:
            return
        st.calls += 1
        st.self_s += elapsed - child_s
        if not self.active[layer]:
            st.incl_s += elapsed

    def _wrap(self, layer, fn, span, hook):
        tracer = self
        name = getattr(fn, "__qualname__", repr(fn))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(layer, name, span)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer.stats[layer], args, result)
                return result
            finally:
                tracer._exit(frame)
        return wrapper

    def install(self):
        """Wrap every target in the stackcoh modules now imported."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for layer, (targets, span, hook) in LAYERS.items():
                for t in targets:
                    self._install_target(layer, t, span, hook)
        except BaseException:
            self.restore()
            raise

    def _install_target(self, layer, t, span, hook):
        home = sys.modules[f"stackcoh.{t.module}"]
        if t.cls is not None:
            owner = getattr(home, t.cls)
            if t.attr not in owner.__dict__:
                raise AttributeError(f"{t.cls}.{t.attr} is not defined in "
                                     f"stackcoh.{t.module}")
            original = owner.__dict__[t.attr]
            self._set(owner, t.attr, original,
                      self._wrap(layer, original, span, hook))
            return
        original = getattr(home, t.attr)
        wrapper = self._wrap(layer, original, span, hook)
        if t.sites is None:
            owners = [mod for mod in _stackcoh_modules()
                      if mod.__dict__.get(t.attr) is original]
        else:
            owners = [sys.modules[f"stackcoh.{site}"] for site in t.sites]
            for mod in owners:
                if mod.__dict__.get(t.attr) is not original:
                    raise AttributeError(
                        f"{mod.__name__}.{t.attr} is not "
                        f"stackcoh.{t.module}.{t.attr}")
        for owner in owners:
            self._set(owner, t.attr, original, wrapper)

    def _set(self, owner, attr, original, replacement):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        """Per-layer metrics of the calls since the last reset_stats()."""
        s = self.stats
        ins = s["exactalg.insert"]
        getz = s["getzler.total"].counters
        return {
            "stackact.build_s": s["stackact.build"].incl_s,
            "simplicial.cochains_s": s["simplicial.cochains"].incl_s,
            "simplicial.validate_calls": s["simplicial.validate"].calls,
            "simplicial.validate_s": s["simplicial.validate"].incl_s,
            "spectra.borel_dc_s": s["spectra.borel_dc"].incl_s,
            "spectra.block_cells":
                s["spectra.borel_dc"].counters.get("block_cells", 0),
            "spectra.total_nnz":
                s["homalg.total"].counters.get("total_nnz", 0),
            "homalg.dc_validate_s": s["homalg.dc_validate"].incl_s,
            "homalg.total_s": s["homalg.total"].incl_s,
            "homalg.cohomology_calls": s["homalg.cohomology"].calls,
            "homalg.cohomology_s": s["homalg.cohomology"].incl_s,
            "spectra.pages_self_s": s["spectra.pages"].self_s,
            "spectra.kernels_calls": s["spectra.kernels"].calls,
            "spectra.kernels_s": s["spectra.kernels"].incl_s,
            "spectra.dr_solve_s": s["spectra.dr_solve"].incl_s,
            "spectra.page_check_s": s["spectra.page_check"].incl_s,
            "spectra.rank_table_calls": s["spectra.rank_table"].calls,
            "spectra.rank_table_s": s["spectra.rank_table"].incl_s,
            "spectra.convergence_s": s["spectra.convergence"].incl_s,
            "groupcoh.oracle_s": s["groupcoh.oracle"].incl_s,
            "getzler.total_s": s["getzler.total"].incl_s,
            "getzler.kept_cells_frac":
                getz["kept"] / getz["built"] if getz.get("built") else 0.0,
            "exactalg.insert_calls": ins.calls,
            "exactalg.insert_s": ins.incl_s,
            "exactalg.insert_useful_frac":
                ins.counters.get("useful", 0) / ins.calls if ins.calls else 0.0,
            "exactalg.max_coeff_bits": ins.counters.get("max_coeff_bits", 0),
            "exactalg.matmul_calls": s["exactalg.matmul"].calls,
            "exactalg.matmul_s": s["exactalg.matmul"].incl_s,
            "exactalg.mat_new_calls": s["exactalg.mat_new"].calls,
            "exactalg.mat_new_entries":
                s["exactalg.mat_new"].counters.get("entries", 0),
            "cartan.s": s["cartan"].incl_s,
            "cli.parse_s": s["cli.parse"].incl_s,
            "cli.run_s": s["cli.run"].incl_s,
            "cli.render_s": s["cli.render"].incl_s,
        }
