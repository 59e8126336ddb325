"""Spectral sequences of bounded double complexes over a field.

Pages are computed from explicit filtered subquotients of the total
complex.  With Z_r^p = F_p T^n  intersect  D^{-1} F_{p+r} T^{n+1}, the
entry E_r^{p,q} is Z_r^p modulo Z_{r-1}^{p+1} + D Z_{r-1}^{p-r+1}.
Since Z_r^p  intersect  F_{p+1} = Z_{r-1}^{p+1}, it is also the image of
Z_r^p in the block (p, q) = F_p / F_{p+1}, modulo the image of
D Z_{r-1}^{p-r+1} (McCleary, "A User's Guide to Spectral Sequences",
2.2; Romero, Rubio and Sergeraert, "Computing spectral sequences",
J. Symb. Comput. 41, 2006).  So the page sieve runs in block (p, q)
coordinates: the projected boundaries first, then the projected Z_r^p
generators, and a generator is a representative when its projection is
independent.  A generator lies in the span of the boundaries and the
earlier generators exactly when its projection does, so these are the
representatives a sieve over whole T^n vectors would pick; for the same
reason the block sieve may pivot on its largest block index, which costs
less here.  Two shortcuts leave every output as it was.  A block sieve
that holds dim(p, q) pivots spans the block, so nothing more goes into
it.  kernel_at clamps the filtration start at pmin and the target at
pmax + 1, so a later page often hands a block the very snapshot lists of
the page before; that block keeps the earlier page's sieve.
Representatives stay in full T^n coordinates.  d_r is solved in the
target block (p + r, q - r + 1), in the page sieve's -i coordinates:
the coordinates of each image in the projected representatives there,
modulo the projected boundaries.  They are unique, as in T^{n+1}, so the
solve may pivot like the page sieve.

A progressive kernel elimination per (degree, filtration start) yields
every Z_r in one pass and keeps representative bases, so d_r matrices are
reproducible and can be compared entrywise against oracles.  It keeps
D . z next to each kernel vector z (the elimination acts on both), stored
for the one block that the pages read, so no image is multiplied out
again.  It walks the rows of D^n once, in sorted order, over columns
prepared once per degree.  An independent rank-table formula provides a
dims-only fast path; the two agree by property test.  Both routes share
only the arithmetic: the filtered kernels reduce rows in filtration
order with exactalg._prepare and exactalg._eliminate, the rank table
runs a column Sieve built on the same two steps, and neither route calls
the other.

The rank table sieves each total degree once.  The columns of D^n go
into one Sieve last to first, and every independent column is paired
with its pivot, the smallest row of its reduced vector.  In the reversed
column order the submatrix "columns in F_{p0}, rows below F_t" is a
lower-left corner, and the rank of every such corner is the number of
pairs inside it: the pairing does not depend on how the columns were
reduced (Cohen-Steiner, Edelsbrunner and Morozov, "Vines and vineyards
by updating persistence in linear time", SoCG 2006; Bauer et al.,
"PHAT", J. Symb. Comput. 78, 2017).  So one pass per degree gives the
rank for every filtration start p0 and every boundary t.  The degrees
are sieved with the twist of Chen and Kerber ("Persistent homology
computation with a twist", EuroCG 2011): a column of D^n that is the
pivot row of a pair of D^{n-1} is skipped, because the sieve would
reduce it to zero, so every pair stays as it was.  The check of the
table is convergence_check: in dims-only mode E_infinity comes from the
table, and H^n of the total complex from the total's own rank pass
(homalg.CochainComplex.rank_through), which sieves the columns of each
D^n left to right, cleared by its own pivots of D^{n-1}.  Neither side
reads the other's pivots, so the two are different eliminations.

pages is the whole run: it totalizes the filtered complex once, reads
every D^n from that total and compares E_infinity with its H^n; the
runners and cartan.torus_weyl_check add only their identifications.

The d_r solve in pages is the route that the "coordinates in H^n"
oracle (homalg.induced_cohomology_matrix) checks; the two share only
exactalg.solve_multi, the one solve modulo a span, and the homalg
docstring lists every route and its oracle.

borel_double_complex (and borel_hyper_complex through it) sums the
faces of stackact.bar_faces and base_faces; quotient_cohomology_oracle,
the oracle of its E_1 column, builds only stabiliser bar complexes, and
discrete_borel_ss checks E_2 against one bar complex per row q.

Filtration naming: "columns" filters by the horizontal index p of the
DoubleComplex (d_0 is then the vertical differential); "rows" filters by
the vertical index.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import InvariantViolation
# kernel_basis is not called here; perfbench/layers.py instruments it at
# this import site.
from .exactalg import (
    Mat, Sieve, _eliminate, _prepare, kernel_basis, rank, solve_multi,
)
from .groupcoh import (
    GModule, action_on_cohomology, bar_complex, module_tensor,
    restrict_module, trivial_module,
)
from .homalg import (
    CochainComplex, CoefficientComplex, DoubleComplex, TotalLayout,
    cohomology, total_complex,
)
from .simplicial import _face_sum
from .stackact import as_simplicial_action, bar_faces, base_faces, subgroup


@dataclass
class SpectralSequencePage:
    """One page: entry dims, d_r matrices, provenance, truncation flags.

    entries and differentials are keyed by (filtration index, complement);
    reps[(p, q)] lists representative vectors in total-complex coordinates.
    """

    r: int
    filtration: str
    entries: dict
    differentials: dict
    flags: set
    reps: dict | None = None
    stabilized: bool = False
    n_offset: int = 0


class _FilteredTotal:
    """Column-filtered total complex with cached progressive kernels;
    dc is totalized once, and the D^n are that total's differentials."""

    def __init__(self, dc: DoubleComplex):
        self.dc = dc
        self.field = dc.field
        self.layout = TotalLayout(dc)
        self.total = total_complex(dc)
        self.pmin, self.pmax = dc.p_range
        self._prepared = {}
        self._kernels = {}
        self._pairs = {}
        self._rank_tables = {}

    def dmat(self, n: int) -> Mat:
        """D^n; the zero map out of the top degree."""
        return self.total.diff(n - self.layout.n_min)

    def total_dim(self, n: int) -> int:
        return self.layout.total_dims.get(n, 0)

    def col_start(self, n: int, p0: int) -> int:
        """Offset of F_{p0} inside T^n (blocks are ascending in p)."""
        for (p, q) in self.layout.blocks.get(n, []):
            if p >= p0:
                return self.layout.offsets[(p, q)]
        return self.total_dim(n)

    def _snapshot_ts(self, p0: int):
        return list(range(p0, self.pmax + 2))

    def kernels(self, n: int, p0: int) -> dict:
        """t -> [(combo, image)] for a basis of F_{p0} cap D^{-1} F_t.

        combo is over T^n coordinates; image is D . combo restricted to
        the rows below F_{t+1} of T^{n+1}, that is to block t, since it
        vanishes below F_t.  Every active column keeps vec == D . combo
        (_prepare and _eliminate act on both), so the images come from
        the elimination.  A column no elimination touched since the last
        snapshot shares that snapshot's combo dict; nothing mutates them.

        The columns of D^n are prepared once per degree and copied here,
        since elimination over F_p works in place.  The rows are walked
        once, in sorted order: an elimination brings in only rows of w,
        which some column already held, so no row is ever added.  An
        image is built only for a vector with a row in block t.
        """
        p0 = max(p0, self.pmin)
        key = (n, p0)
        if key in self._kernels:
            return self._kernels[key]
        f = self.field
        if n not in self._prepared:
            self._prepared[n] = [_prepare(col, f)
                                 for col in self.dmat(n).columns()]
        prepared = self._prepared[n]
        active = {}     # ascending in j: later only popped or reassigned
        row_index = {}
        for j in range(self.col_start(n, p0), len(prepared)):
            vec, lam = prepared[j]
            active[j] = (dict(vec), {j: lam})
            for r in vec:
                row_index.setdefault(r, set()).add(j)
        rows = sorted(row_index)
        k = 0
        snapshots = {}
        shared = {}     # column -> combo copy of the last snapshot
        for t in self._snapshot_ts(p0):
            boundary = self.col_start(n + 1, t)
            while k < len(rows) and rows[k] < boundary:
                r = rows[k]
                k += 1
                ids = sorted(j for j in row_index[r]
                             if j in active and r in active[j][0])
                if not ids:
                    continue
                w, cw = active.pop(ids[0])
                for j in ids[1:]:
                    active[j] = _eliminate(*active[j], w, cw, r, f.p)
                    shared.pop(j, None)
                    # active[j] may gain rows of w, each a later row of
                    # the walk (no active vector holds a passed row)
                    for i in w:
                        row_index[i].add(j)
            stop = self.col_start(n + 1, t + 1)
            snapshot = []
            for j, (vec, combo) in active.items():
                if j not in shared:
                    shared[j] = dict(combo)
                image = {i: v for i, v in vec.items() if i < stop} \
                    if vec and min(vec) < stop else {}
                snapshot.append((shared[j], image))
            snapshots[t] = snapshot
        self._kernels[key] = snapshots
        return snapshots

    def kernel_at(self, n: int, p0: int, t: int) -> list:
        p0 = max(p0, self.pmin)
        t = min(max(t, p0), self.pmax + 1)
        return self.kernels(n, p0)[t]

    def pairs(self, n: int) -> list:
        """(column, pivot row) of every independent column of D^n.

        The columns go into one untracked Sieve last to first, so a
        column is reduced only by the columns to its right.  The pivot
        row r of each pair of D^{n-1} is skipped: that pair's reduced
        column v has smallest row r and D^n v = 0, so column r lies in
        the span of the columns to its right and would reduce to zero.
        """
        if n not in self._pairs:
            cleared = {r for _, r in self.pairs(n - 1)} \
                if self.total_dim(n - 1) else set()
            d = self.dmat(n)
            cols = d.columns()
            sieve = Sieve(self.field)
            pairs = []
            for j in range(d.cols - 1, -1, -1):
                if j in cleared:
                    continue
                vec, _ = sieve.insert(cols[j])
                if vec:
                    pairs.append((j, min(vec)))
            self._pairs[n] = pairs
        return self._pairs[n]

    def rank_table(self, n: int, p0: int) -> dict:
        """t -> rank of D^n restricted to columns F_{p0}, rows < F_t.

        That submatrix is a lower-left corner for the reversed column
        order of pairs(n), so its rank is the number of pairs with
        column >= col_start(n, p0) and row < col_start(n + 1, t).
        """
        p0 = max(p0, self.pmin)
        key = (n, p0)
        if key in self._rank_tables:
            return self._rank_tables[key]
        start = self.col_start(n, p0)
        pivot_rows = sorted(r for j, r in self.pairs(n) if j >= start)
        table = {t: bisect_left(pivot_rows, self.col_start(n + 1, t))
                 for t in self._snapshot_ts(p0)}
        self._rank_tables[key] = table
        return table

    def rank_at(self, n: int, p0: int, t: int) -> int:
        if not self.total_dim(n):
            return 0
        p0 = max(p0, self.pmin)
        t = min(max(t, p0), self.pmax + 1)
        return self.rank_table(n, p0)[t]

    def entry_dim_by_ranks(self, p: int, q: int, r: int) -> int:
        """Classical rank formula for dim E_r^{p,q}."""
        n = p + q
        block = self.dc.dim(p, q)
        if block == 0:
            return 0
        t = p + r
        val = block
        val -= self.rank_at(n, p, t)
        val += self.rank_at(n, p + 1, t)
        val += self.rank_at(n - 1, p - r + 1, p)
        val -= self.rank_at(n - 1, p - r + 1, p + 1)
        return val


def stabilization_page(dc: DoubleComplex) -> int:
    width = dc.p_range[1] - dc.p_range[0]
    height = dc.q_range[1] - dc.q_range[0] + 1
    return min(width, height) + 1


def _filtered(dc: DoubleComplex, filtration: str) -> DoubleComplex:
    """The complex whose columns carry the filtration."""
    if filtration == "rows":
        return dc.transpose()
    if filtration == "columns":
        return dc
    raise ValueError("filtration must be 'columns' or 'rows'")


@dataclass
class SSRunReport:
    """Pages plus the identification and convergence evidence.

    total is the total complex of the filtered complex: of dc.transpose()
    for the rows filtration, which has the same cohomology as dc's.
    """

    pages: list
    dc: DoubleComplex
    total: CochainComplex
    identification: list
    convergence: dict

    @property
    def ok(self) -> bool:
        return self.convergence["ok"] and \
            all(row["ok"] for row in self.identification)


def _sieve_block(field, dim: int, stop: int, boundaries, generators):
    """The page sieve of a block of dimension dim whose T^n indices end
    below stop: (independent projected boundaries, reps, projected reps,
    images of the reps).

    Block index i goes in at -i, so a pivot is the largest index (the
    module docstring says why no output depends on that); a sieve with
    dim pivots spans the block, so nothing more goes in.  All but the
    reps are returned in these -i coordinates, for the d_r solve.
    """
    sieve = Sieve(field)
    b_independent, reps, proj, images = [], [], [], []
    for _, img in boundaries:
        if sieve.rank == dim:
            break
        b = {-i: v for i, v in img.items()}
        if b and sieve.insert(b)[0]:
            b_independent.append(b)
    for combo, img in generators:
        if sieve.rank == dim:
            break
        z = {-j: v for j, v in combo.items() if j < stop}
        if z and sieve.insert(z)[0]:
            reps.append(combo)
            proj.append(z)
            images.append({-i: v for i, v in img.items()})
    return b_independent, reps, proj, images


def pages(dc: DoubleComplex, filtration: str = "columns",
          dims_only: bool = False) -> SSRunReport:
    """The run of dc filtered by columns or rows: pages E_0 .. E_stab,
    the total complex of the filtered complex and its convergence report.

    The final page carries stabilized=True and equals E_infinity.  Each
    page r also checks d_r . d_r = 0 and that taking homology of page r
    reproduces page r+1 (subquotient route versus homology route).
    """
    work = _filtered(dc, filtration)
    ft = _FilteredTotal(work)
    r_stab = stabilization_page(work)
    flag_bound = work.boundary_total_degree
    pmin, pmax = work.p_range
    qmin, qmax = work.q_range
    keys = [(p, q) for p in range(pmin, pmax + 1) for q in range(qmin, qmax + 1)]

    result = []
    prev = None
    sieved = {}     # (p, q) -> (boundaries, generators, _sieve_block of them)
    for r in range(r_stab + 1):
        entries, reps = {}, {}
        # per block: the projected independent boundaries, the projected
        # reps, and the images of the reps in their d_r target block
        bases, rep_proj, rep_images = {}, {}, {}
        for (p, q) in keys:
            if dims_only:
                entries[(p, q)] = ft.entry_dim_by_ranks(p, q, r)
                continue
            n = p + q
            # D Z_{r-1}^{p-r+1} projected to block (p, q): the snapshot at
            # t = p holds exactly that block; for r = 0 it lies in F_{p+1}
            boundaries = ft.kernel_at(n - 1, p - r + 1, p) \
                if r and ft.total_dim(n - 1) else ()
            generators = ft.kernel_at(n, p, p + r)
            # kernel_at clamps p0 and t, so a later page often hands a
            # block the same two snapshot lists: keep that block's sieve
            last = sieved.get((p, q))
            if last is None or last[0] is not boundaries or \
                    last[1] is not generators:
                last = sieved[(p, q)] = (boundaries, generators, _sieve_block(
                    work.field, work.dim(p, q), ft.col_start(n, p + 1),
                    boundaries, generators))
            b_independent, entry_reps, proj, images = last[2]
            entries[(p, q)] = len(entry_reps)
            reps[(p, q)] = entry_reps
            bases[(p, q)] = b_independent
            rep_proj[(p, q)] = proj
            rep_images[(p, q)] = images
        differentials = {}
        if not dims_only:
            for (p, q) in keys:
                src_reps = reps[(p, q)]
                tp, tq = p + r, q - r + 1
                tdim = entries.get((tp, tq), 0)
                if not src_reps or tdim == 0:
                    differentials[(p, q)] = Mat.zero(tdim, len(src_reps),
                                                     work.field)
                    continue
                # coordinates of the images in block (tp, tq), modulo its
                # boundaries: the rep coordinates are unique there
                xs = solve_multi(rep_proj[(tp, tq)], rep_images[(p, q)],
                                 work.field, modulo=bases[(tp, tq)])
                differentials[(p, q)] = Mat(tdim, len(src_reps), {
                    (i, j): v for j, x in enumerate(xs) for i, v in x.items()},
                    work.field)
            for (p, q) in keys:
                dr = differentials[(p, q)]
                nxt = differentials.get((p + r, q - r + 1))
                if nxt is not None and dr.cols and nxt.rows:
                    if not (nxt * dr).is_zero():
                        raise InvariantViolation(
                            f"d_{r} composed with d_{r} is nonzero at {(p, q)}")
        flags = set()
        if flag_bound is not None:
            flags = {(p, q) for (p, q) in keys if p + q >= flag_bound}
        page = SpectralSequencePage(
            r=r, filtration=filtration, entries=entries,
            differentials=differentials,
            flags=flags, reps=None if dims_only else reps,
            stabilized=(r == r_stab), n_offset=ft.layout.n_min)
        if prev is not None and not dims_only and prev.differentials:
            for (p, q) in keys:
                dr_out = prev.differentials[(p, q)]
                dr_in = prev.differentials.get((p - (r - 1), q + (r - 1) - 1))
                expected = dr_out.cols - rank(dr_out) - \
                    (rank(dr_in) if dr_in is not None else 0)
                if entries[(p, q)] != expected:
                    raise InvariantViolation(
                        f"page {r} at {(p, q)}: subquotient dim "
                        f"{entries[(p, q)]} != homology of page {r - 1} "
                        f"({expected})")
        result.append(page)
        prev = page
    total = ft.total
    del ft      # the kernel caches are not needed for convergence
    return SSRunReport(result, dc, total, [],
                       convergence_check(result, total))


def convergence_check(page_list: list, total: CochainComplex) -> dict:
    """Compare E_infinity antidiagonal sums with dim H^n(total).

    Returns a report; violations are recorded, not raised.
    """
    last = page_list[-1]
    if not last.stabilized:
        raise InvariantViolation("final page is not stabilized")
    by_degree = {}
    for (p, q), dim in last.entries.items():
        n = p + q
        by_degree.setdefault(n, {"sum": 0, "flagged": False})
        by_degree[n]["sum"] += dim
        if (p, q) in last.flags:
            by_degree[n]["flagged"] = True
    rows = []
    ok = True
    for n in sorted(by_degree):
        idx = n - last.n_offset
        if not 0 <= idx < len(total.dims):
            continue
        h = cohomology(total, idx, override=True)
        match = h == by_degree[n]["sum"]
        if not match and not by_degree[n]["flagged"]:
            ok = False
        rows.append({"degree": n, "e_inf_sum": by_degree[n]["sum"],
                     "h_total": h, "ok": match,
                     "flagged": by_degree[n]["flagged"]})
    return {"ok": ok, "rows": rows}


# ---------------------------------------------------------------------------
# homotopy-quotient double complexes and the assembled runs


def borel_double_complex(sa, module, n_top: int,
                         max_total: int | None = None) -> DoubleComplex:
    """Blocks (p, n): module-valued functions on G^p x X_n.

    Horizontal differential: the alternating sum of stackact.bar_faces,
    whose last face moves the base point and twists the value by
    rho(g^-1); vertical differential: the alternating sum of
    stackact.base_faces.  Blocks above max_total are emptied; certified
    degrees (below the truncation flag) are unaffected.
    """
    if not isinstance(module, GModule):
        raise InvariantViolation("module required (wrap fields via trivial_module)")
    if module.group != sa.group:
        raise InvariantViolation("module group does not match the action")
    field = module.field
    g = sa.group
    order = g.order
    sizes = [sa.space.size(n) for n in range(n_top + 1)]
    dims = {(p, n): order ** p * sizes[n] * module.dim
            if max_total is None or p + n <= max_total else 0
            for p in range(n_top + 1) for n in range(n_top + 1)}
    rho_inv = [module.rho[g.inverse(gi)] for gi in range(order)]

    def face_sum(faces, src, dst, twist=None):
        if not dims[dst]:
            return Mat.zero(0, dims[src], field)
        return _face_sum(tuple(faces), dims[dst], dims[src], module.dim,
                         field, twist)

    d_h, d_v = {}, {}
    for p in range(n_top + 1):
        for n in range(n_top + 1):
            if p < n_top:
                # the last face of (g_1 .. g_{p+1}, x) twists by g_{p+1}
                d_h[(p, n)] = face_sum(
                    bar_faces(sa, p + 1, n), (p, n), (p + 1, n),
                    lambda c, size=sizes[n]: rho_inv[c // size % order])
            if n < n_top:
                d_v[(p, n)] = face_sum(base_faces(sa, p, n + 1), (p, n),
                                       (p, n + 1))
    return DoubleComplex(field, (0, n_top), (0, n_top), dims, d_h, d_v,
                         boundary_total_degree=n_top - 1)


def _as_module(coeff, group):
    if isinstance(coeff, GModule):
        return coeff
    return trivial_module(group, coeff)


def quotient_cohomology_oracle(group, perms, module, degrees) -> list:
    """H^r of the action groupoid of a finite G-set, for each r in degrees.

    Independent of the double-complex route: sums bar-complex cohomology
    of the stabiliser of one representative per orbit, with one
    stabiliser, one restricted module and one bar complex per orbit, up
    to the highest degree asked for.
    """
    degrees = list(degrees)
    totals = [0] * len(degrees)
    seen = set()
    for x in range(len(perms[0]) if perms else 0):
        if x in seen:
            continue    # x is the smallest point of each orbit met here
        seen.update(perm[x] for perm in perms)
        sub, members = subgroup(group, [gi for gi, perm in enumerate(perms)
                                        if perm[x] == x])
        c = bar_complex(restrict_module(module, members, sub),
                        max(degrees, default=0) + 1)
        for k, r in enumerate(degrees):
            totals[k] += cohomology(c, r)
    return totals


def _borel_run(a, coeff, n_top: int, filtration: str, dims_only: bool):
    """The action, the module and the report of a run on the Borel double
    complex, cut above total degree n_top + 1."""
    sa = as_simplicial_action(a, n_top)
    module = _as_module(coeff, sa.group)
    dc = borel_double_complex(sa, module, n_top, max_total=n_top + 1)
    return sa, module, pages(dc, filtration, dims_only)


def atlas_ss(a, coeff, n_top: int, dims_only: bool = False) -> SSRunReport:
    """Filtration by the simplicial level; E_1 column at level n is the
    cohomology of the quotient of the level-n cell set, verified against
    the stabiliser oracle on every unflagged entry."""
    sa, module, report = _borel_run(a, coeff, n_top, "rows", dims_only)
    e1 = next(p for p in report.pages if p.r == 1)
    degrees = {}
    for (n, r) in sorted(e1.entries):
        if n + r < report.dc.boundary_total_degree:
            degrees.setdefault(n, []).append(r)
    for n, rs in degrees.items():
        perms = [sa.maps[gi][n] for gi in range(sa.group.order)]
        oracle = quotient_cohomology_oracle(sa.group, perms, module, rs)
        for r, expected in zip(rs, oracle):
            dim = e1.entries[(n, r)]
            report.identification.append(
                {"level": n, "degree": r, "page": dim, "oracle": expected,
                 "ok": dim == expected})
    return report


def discrete_borel_ss(a, coeff, n_top: int,
                      dims_only: bool = False) -> SSRunReport:
    """Filtration by the group degree; E_2 at (p, q) is group cohomology
    with coefficients in H^q of the base, verified against the bar oracle
    on every unflagged entry."""
    sa, module, report = _borel_run(a, coeff, n_top, "columns", dims_only)
    e2 = next(p for p in report.pages if p.r == 2)
    checked = [(p, q, dim) for (p, q), dim in sorted(e2.entries.items())
               if p + q < report.dc.boundary_total_degree]
    # one bar complex per q, up to the largest p checked there (the
    # last one, as checked ascends in p)
    p_top = {q: p for p, q, _ in checked}
    bars = {q: bar_complex(module_tensor(
                action_on_cohomology(sa, module.field, q, n_top=n_top),
                module), p + 1)
            for q, p in p_top.items()}
    for p, q, dim in checked:
        expected = cohomology(bars[q], p)
        report.identification.append({"p": p, "q": q, "page": dim,
                                      "oracle": expected,
                                      "ok": dim == expected})
    return report


def borel_hyper_complex(sa, coeffs: CoefficientComplex, n_top: int,
                        mode: str) -> DoubleComplex:
    """The Borel complex of a bounded complex of modules, with the
    coefficient degree r totalized into one axis.

    Module r contributes its Borel double complex, cut above total degree
    n_top + 1 - r, and transposed in mode "discrete-borel", so that its
    vertical index t is the level (mode "atlas") or the group degree.
    For each t, the face over (other axis, r) has the module complexes'
    horizontal maps as its horizontal maps and the coefficient
    differential, cell by cell, as its vertical maps; TotalLayout
    totalizes it with the sign (-1)^r on the horizontal maps.  The faces
    are the columns of the result, joined block-diagonally by the module
    complexes' vertical maps: t is the vertical index in "atlas" mode,
    and the result is transposed so that t is the horizontal index in
    "discrete-borel" mode.  Like every double complex, the result is
    checked once, as its total in pages; the module complexes and the
    faces are contained in it, so that check covers theirs too.
    """
    if mode not in ("atlas", "discrete-borel"):
        raise ValueError("mode must be 'atlas' or 'discrete-borel'")
    atlas = mode == "atlas"
    field = coeffs.modules[0].field
    subs = [borel_double_complex(sa, module, n_top, max_total=n_top + 1 - r)
            for r, module in enumerate(coeffs.modules)]
    if not atlas:
        subs = [sub.transpose() for sub in subs]
    top = len(subs) - 1

    def coefficient_map(r, key):
        """The differential of module r on each cell of block key."""
        diff = coeffs.diffs[r]
        src, dst = coeffs.modules[r].dim, coeffs.modules[r + 1].dim
        rows = subs[r + 1].dim(*key)
        entries = {(c * dst + i, c * src + j): v
                   for c in range(rows // dst if dst else 0)
                   for (i, j), v in diff.entries.items()}
        return Mat(rows, subs[r].dim(*key), entries, field)

    faces = []
    for t in range(n_top + 1):
        dims, d_h, d_v = {}, {}, {}
        for r, sub in enumerate(subs):
            for a in range(n_top + 1):
                dims[(a, r)] = sub.dim(a, t)
                if a < n_top:
                    d_h[(a, r)] = sub.d_h[(a, t)]
                if r < top:
                    d_v[(a, r)] = coefficient_map(r, (a, t))
        faces.append(TotalLayout(DoubleComplex(
            field, (0, n_top), (0, top), dims, d_h, d_v)))
    s_max = faces[0].n_max
    dims, d_h, d_v = {}, {}, {}
    for t, lay in enumerate(faces):
        for s in range(s_max + 1):
            dims[(s, t)] = lay.total_dims[s]
            if s < s_max:
                d_h[(s, t)] = lay.total_matrix(s)
            if t < n_top:
                nxt, entries = faces[t + 1], {}
                for (a, r) in lay.blocks[s]:
                    row0, col0 = nxt.offsets[(a, r)], lay.offsets[(a, r)]
                    for (i, j), v in subs[r].d_v[(a, t)].entries.items():
                        entries[(row0 + i, col0 + j)] = v
                d_v[(s, t)] = Mat(nxt.total_dims[s], lay.total_dims[s],
                                  entries, field)
    dc = DoubleComplex(field, (0, s_max), (0, n_top), dims, d_h, d_v,
                       boundary_total_degree=n_top - 1)
    return dc if atlas else dc.transpose()


def hyper_ss(a, coeffs: CoefficientComplex, mode: str,
             n_top: int) -> SSRunReport:
    """Spectral sequence with coefficients in a bounded complex of modules.

    mode "atlas" totalizes (group, coefficient) and filters by level;
    mode "discrete-borel" totalizes (level, coefficient) and filters by
    group degree.  With a single-module complex both reduce exactly to the
    corresponding plain runs.
    """
    dc = borel_hyper_complex(as_simplicial_action(a, n_top), coeffs, n_top,
                             mode)
    return pages(dc, "rows" if mode == "atlas" else "columns")
