"""Spectral sequence pages, identifications, convergence."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from stackcoh import exactalg, homalg, spectra
from stackcoh.cartan import abelian_lie, torus_weyl_check, weyl_action
from stackcoh.errors import InvariantViolation
from stackcoh.exactalg import GF, QQ, Mat, Sieve, rank, solve_multi
from stackcoh.groupcoh import trivial_module
from stackcoh.homalg import (
    CoefficientComplex, DoubleComplex, cohomology, total_complex,
)
from stackcoh.simplicial import trivial_groupoid
from stackcoh.spectra import (
    _FilteredTotal, atlas_ss, borel_double_complex, convergence_check,
    discrete_borel_ss, hyper_ss, pages, quotient_cohomology_oracle,
    stabilization_page,
)
from stackcoh.stackact import (
    as_simplicial_action, cyclic_group, set_action_on_trivial_groupoid,
    symmetric_group, trivial_action,
)

from .strategies import build_double_complex, fields, piece_lists
from .test_cartan import rotation_algebra
from .test_exactalg import eager_step
from .test_stackact import z2_cycle4

F2 = GF(2)
F3 = GF(3)


class TestPages:
    def test_single_entry_all_pages_equal(self):
        dc = DoubleComplex(QQ, (0, 0), (0, 0), {(0, 0): 2}, {}, {})
        pgs = pages(dc).pages
        assert pgs[-1].stabilized
        for pg in pgs:
            assert pg.entries[(0, 0)] == 2

    def test_horizontal_isomorphism_dies_at_e1(self):
        dc = DoubleComplex(QQ, (0, 1), (0, 0), {(0, 0): 1, (1, 0): 1},
                           {(0, 0): Mat.identity(1, QQ)}, {})
        pgs = pages(dc, "columns").pages
        e1 = next(p for p in pgs if p.r == 1)
        # d_0 is vertical (zero here), so E_1 = E_0; d_1 kills both entries
        assert e1.entries == {(0, 0): 1, (1, 0): 1}
        e2 = next(p for p in pgs if p.r == 2) if len(pgs) > 2 else pgs[-1]
        assert all(v == 0 for v in pgs[-1].entries.values())
        assert not e1.differentials[(0, 0)].is_zero()
        del e2

    @settings(max_examples=25, deadline=None)
    @given(piece_lists, fields, st.randoms(use_true_random=False))
    def test_convergence_on_random_complexes(self, pieces, field, rng):
        dc, expected = build_double_complex(pieces, field, rng)
        pgs = pages(dc, "columns").pages
        tot = total_complex(dc)
        report = convergence_check(pgs, tot)
        assert report["ok"]
        sums = {}
        for (p, q), v in pgs[-1].entries.items():
            sums[p + q] = sums.get(p + q, 0) + v
        for n, d in expected.items():
            assert sums.get(n, 0) == d

    @settings(max_examples=20, deadline=None)
    @given(piece_lists, fields, st.randoms(use_true_random=False))
    def test_dims_only_agrees_with_subquotients(self, pieces, field, rng):
        dc, _ = build_double_complex(pieces, field, rng)
        full = pages(dc, "columns").pages
        fast = pages(dc, "columns", dims_only=True).pages
        for a, b in zip(full, fast):
            assert a.entries == b.entries

    @settings(max_examples=20, deadline=None)
    @given(piece_lists, fields, st.randoms(use_true_random=False))
    def test_row_filtration_is_transpose(self, pieces, field, rng):
        dc, _ = build_double_complex(pieces, field, rng)
        by_rows = pages(dc, "rows").pages
        by_cols_t = pages(dc.transpose(), "columns").pages
        for a, b in zip(by_rows, by_cols_t):
            assert a.entries == b.entries

    @settings(max_examples=15, deadline=None)
    @given(piece_lists, fields, st.randoms(use_true_random=False))
    def test_both_filtrations_converge_to_same_totals(self, pieces, field, rng):
        dc, expected = build_double_complex(pieces, field, rng)
        for filt in ("columns", "rows"):
            pgs = pages(dc, filt, dims_only=True).pages
            sums = {}
            for (p, q), v in pgs[-1].entries.items():
                sums[p + q] = sums.get(p + q, 0) + v
            for n, d in expected.items():
                assert sums.get(n, 0) == d


def full_coordinate_pages(dc):
    """(entries, reps, d_r) of every page, sieved in full T^n coordinates.

    Every generator of Z_{r-1}^{p+1} and every D z of D Z_{r-1}^{p-r+1}
    goes into the sieve before the Z_r^p generators, and d_r solves the
    multiplied-out D . rep in the target reps, modulo the target boundaries.
    """
    f = dc.field
    ft = _FilteredTotal(dc)
    keys = sorted(dc.dims)
    result = []
    for r in range(stabilization_page(dc) + 1):
        entries, reps, bases = {}, {}, {}
        for (p, q) in keys:
            n = p + q
            b_vecs = [c for c, _ in ft.kernel_at(n, p + 1, p + r)]
            if ft.total_dim(n - 1):
                d = ft.dmat(n - 1)
                b_vecs += [d.mul_vec(c) for c, _ in
                           ft.kernel_at(n - 1, p - r + 1, p)]
            sieve = Sieve(f)
            bases[(p, q)] = [v for v in b_vecs if v and sieve.insert(v)[0]]
            reps[(p, q)] = [c for c, _ in ft.kernel_at(n, p, p + r)
                            if sieve.insert(c)[0]]
            entries[(p, q)] = len(reps[(p, q)])
        diffs = {}
        for (p, q) in keys:
            src, tgt = reps[(p, q)], (p + r, q - r + 1)
            tdim = entries.get(tgt, 0)
            if not src or not tdim:
                diffs[(p, q)] = Mat.zero(tdim, len(src), f)
                continue
            xs = solve_multi(reps[tgt],
                             [ft.dmat(p + q).mul_vec(v) for v in src], f,
                             modulo=bases[tgt])
            diffs[(p, q)] = Mat(tdim, len(src), {
                (i, j): v for j, x in enumerate(xs) for i, v in x.items()}, f)
        result.append((entries, reps, diffs))
    return result


def assert_pages_match_full_coordinates(dc, filtration):
    got = pages(dc, filtration).pages
    work = dc.transpose() if filtration == "rows" else dc
    want = full_coordinate_pages(work)
    assert len(got) == len(want)
    for page, (entries, reps, diffs) in zip(got, want):
        assert page.entries == entries
        assert page.reps == reps
        assert page.differentials == diffs
    return got


def zigzag(field):
    """A at (0,1), B at (1,1), C at (1,0), D at (2,0), each of dim 1, with
    d_h: A -> B, C -> D and d_v: C -> B isomorphisms.  For the column
    filtration E_2 is A + D and d_2: A -> D is an isomorphism."""
    one = Mat.identity(1, field)
    dims = {(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): 1}
    return DoubleComplex(field, (0, 2), (0, 1), dims,
                         {(0, 1): one, (1, 0): one}, {(1, 0): one})


class TestProjectedSubquotients:
    @settings(max_examples=25, deadline=None)
    @given(piece_lists, fields, st.randoms(use_true_random=False))
    def test_agrees_with_full_coordinates(self, pieces, field, rng):
        dc, _ = build_double_complex(pieces, field, rng)
        for filtration in ("columns", "rows"):
            assert_pages_match_full_coordinates(dc, filtration)

    @pytest.mark.parametrize("field", [QQ, F2, F3])
    def test_zigzag_d2(self, field):
        pgs = assert_pages_match_full_coordinates(zigzag(field), "columns")
        e2 = next(p for p in pgs if p.r == 2)
        assert e2.entries[(0, 1)] == e2.entries[(2, 0)] == 1
        assert not e2.differentials[(0, 1)].is_zero()
        assert all(v == 0 for v in pgs[-1].entries.values())

    def test_borel_complex_with_nonzero_d2(self):
        sa = as_simplicial_action(z2_cycle4(3), 3)
        dc = borel_double_complex(sa, trivial_module(sa.group, F2), 3,
                                  max_total=4)
        pgs = assert_pages_match_full_coordinates(dc, "columns")
        e2 = next(p for p in pgs if p.r == 2)
        assert any(not m.is_zero() for m in e2.differentials.values())

    @settings(max_examples=25, deadline=None)
    @given(piece_lists, fields, st.randoms(use_true_random=False))
    def test_snapshot_images_come_from_the_elimination(self, pieces, field,
                                                       rng):
        dc, _ = build_double_complex(pieces, field, rng)
        ft = _FilteredTotal(dc)
        for n, dim in ft.layout.total_dims.items():
            if not dim:
                continue
            d = ft.dmat(n)
            for p0 in range(ft.pmin, ft.pmax + 1):
                for t, snapshot in ft.kernels(n, p0).items():
                    # a skipped or repeated row of the walk would leave
                    # a kernel of the wrong size
                    assert len(snapshot) == (d.cols - ft.col_start(n, p0)) \
                        - corner_rank(ft, n, p0, t)
                    low = ft.col_start(n + 1, t)
                    stop = ft.col_start(n + 1, t + 1)
                    for combo, image in snapshot:
                        full = d.mul_vec(combo)
                        assert all(i >= low for i in full)
                        assert image == {i: v for i, v in full.items()
                                         if i < stop}

    @settings(max_examples=40, deadline=None)
    @given(piece_lists, st.randoms(use_true_random=False))
    def test_kernels_equal_eager_kernels(self, pieces, rng):
        # the in-place steps over Q, with a column normalised before each
        # snapshot and before it is a pivot, give the snapshots of the
        # eager step, which divides by the gcd at every step
        dc, _ = build_double_complex(pieces, QQ, rng)

        def snapshots():
            ft = _FilteredTotal(dc)
            return {(n, p0): ft.kernels(n, p0)
                    for n, dim in ft.layout.total_dims.items() if dim
                    for p0 in range(ft.pmin, ft.pmax + 1)}

        got = snapshots()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "_eliminate",
                       lambda *args: (*eager_step(*args), 1))
            assert got == snapshots()

    @pytest.mark.parametrize("field", [QQ, F2])
    @pytest.mark.parametrize("runner", [discrete_borel_ss, atlas_ss],
                             ids=["borel", "atlas"])
    def test_page_sieves_reuse_and_stop(self, runner, field, monkeypatch):
        # the filtration clamps on this complex, so later pages hand some
        # blocks the same snapshots; each block sieve stops at the rank of
        # its phase, checked here independently, and so before the block
        # dimension would stop it
        fts, sieves, dim_stops = [], [], []
        init, sieve_block = spectra._FilteredTotal.__init__, \
            spectra._sieve_block

        class RecordingSieve(exactalg.Sieve):
            def __init__(self, field):
                super().__init__(field)
                self.target, self.inserts, self.late_inserts = None, 0, 0
                sieves.append(self)

            def insert(self, vec, combo=None):
                self.inserts += 1
                self.late_inserts += self.rank >= self.target
                return super().insert(vec, combo)

        def phase(items, target):
            for item in items:
                sieves[-1].target = target
                yield item

        def recording_init(self, dc):
            init(self, dc)
            fts.append(self)

        def recording_sieve_block(field, stop, boundaries, b_rank,
                                  generators, z_rank):
            b_vecs = [img for _, img in boundaries]
            z_vecs = [{j: v for j, v in combo.items() if j < stop}
                      for combo, _ in generators]
            assert b_rank == column_rank(b_vecs, stop, field)
            assert z_rank == column_rank(b_vecs + z_vecs, stop, field)
            dim_stops.append(inserts_until_full(fts[-1], generators,
                                                b_vecs + z_vecs))
            return sieve_block(field, stop, phase(boundaries, b_rank), b_rank,
                               phase(generators, z_rank), z_rank)

        monkeypatch.setattr(spectra, "Sieve", RecordingSieve)
        monkeypatch.setattr(spectra._FilteredTotal, "__init__",
                            recording_init)
        monkeypatch.setattr(spectra, "_sieve_block", recording_sieve_block)
        rep = runner(z2_cycle4(3), field, 3)
        assert rep.ok
        monkeypatch.undo()
        blocks = len(rep.dc.dims)
        assert len(sieves) == len(dim_stops) < len(rep.pages) * blocks
        assert sum(s.late_inserts for s in sieves) == 0
        assert sum(s.inserts for s in sieves) < sum(dim_stops)
        assert_pages_match_full_coordinates(
            rep.dc, "rows" if runner is atlas_ss else "columns")

    @settings(max_examples=25, deadline=None)
    @given(piece_lists, st.sampled_from([QQ, F2, F3]),
           st.randoms(use_true_random=False))
    def test_stop_ranks_equal_explicit_ranks(self, pieces, field, rng):
        # every count a page sieve stops at, against an independent rank
        dc, _ = build_double_complex(pieces, field, rng)
        for work in (dc, dc.transpose()):
            ft = _FilteredTotal(work)
            for n, dim in ft.layout.total_dims.items():
                if not dim:
                    continue
                d = ft.dmat(n)
                for p0 in range(ft.pmin, ft.pmax + 1):
                    snaps = ft.kernels(n, p0)
                    for t in ft._snapshot_ts(p0)[:-1]:
                        # D z for z in snapshot t, cut to block t
                        stop = ft.col_start(n + 1, t + 1)
                        images = [{i: v for i, v in d.mul_vec(combo).items()
                                   if i < stop} for combo, _ in snaps[t]]
                        assert len(snaps[t]) - len(snaps[t + 1]) == \
                            column_rank(images, stop, field)
            for p in range(ft.pmin, ft.pmax + 1):
                for n in ft.layout.total_dims:
                    stop = ft.col_start(n, p + 1)
                    for r in range(stabilization_page(work) + 1):
                        gens = ft.kernel_at(n, p, p + r)
                        z_rank = len(gens) - len(ft.kernel_at(n, p + 1, p + r))
                        proj = [{j: v for j, v in combo.items() if j < stop}
                                for combo, _ in gens]
                        assert z_rank == column_rank(proj, stop, field)

    @pytest.mark.parametrize("key", [(1, 1, 1), (1, 0, 2), (2, 0, 2)])
    def test_short_snapshot_refused(self, key, monkeypatch):
        # one vector missing from one kernel snapshot: the kernel runs
        # and the block sieve disagree, and no page is returned
        kernels = spectra._FilteredTotal.kernels

        def dropping(self, n, p0):
            fresh = (n, max(p0, self.pmin)) not in self._kernels
            snapshots = kernels(self, n, p0)
            if fresh and (n, max(p0, self.pmin)) == key[:2]:
                del snapshots[key[2]][-1]
            return snapshots

        monkeypatch.setattr(spectra._FilteredTotal, "kernels", dropping)
        with pytest.raises(InvariantViolation, match="block sieve"):
            pages(zigzag(QQ), "columns")


def column_rank(vecs, rows, field):
    """exactalg.rank of the matrix with the sparse columns vecs."""
    return rank(Mat(rows, len(vecs), {(i, k): v for k, vec in enumerate(vecs)
                                      for i, v in vec.items()}, field))


def inserts_until_full(ft, generators, vecs):
    """Inserts of the block sieve of generators if it took the projected
    vecs and stopped only at the block dimension."""
    n, p = next(key for key, snapshots in ft._kernels.items()
                if any(s is generators for s in snapshots.values()))
    dim = ft.dc.dim(p, n - p)
    sieve, count = Sieve(ft.field), 0
    for vec in vecs:
        if sieve.rank == dim:
            break
        if vec:
            count += 1
            sieve.insert(vec)
    return count


def corner_rank(ft, n, p0, t):
    """rank of the explicit submatrix of D^n: columns from F_{p0}, rows
    below F_t, cut out and ranked on its own."""
    d = ft.dmat(n)
    start, stop = ft.col_start(n, p0), ft.col_start(n + 1, t)
    corner = {(i, j - start): v for (i, j), v in d.entries.items()
              if j >= start and i < stop}
    return rank(Mat(stop, d.cols - start, corner, d.field))


class TestRankTable:
    @settings(max_examples=25, deadline=None)
    @given(piece_lists, fields, st.randoms(use_true_random=False))
    def test_rank_table_equals_corner_ranks(self, pieces, field, rng):
        dc, _ = build_double_complex(pieces, field, rng)
        for work in (dc, dc.transpose()):
            ft = _FilteredTotal(work)
            for n, dim in ft.layout.total_dims.items():
                if not dim:
                    continue
                for p0 in range(ft.pmin, ft.pmax + 1):
                    table = ft.rank_table(n, p0)
                    assert table == {t: corner_rank(ft, n, p0, t)
                                     for t in ft._snapshot_ts(p0)}

    @settings(max_examples=25, deadline=None)
    @given(piece_lists, fields, st.randoms(use_true_random=False))
    def test_row_rank_equals_pair_count(self, pieces, field, rng):
        # rank sieves the rows of D^n as the columns of its transpose,
        # pairs(n) the columns of D^n right to left
        dc, _ = build_double_complex(pieces, field, rng)
        for work in (dc, dc.transpose()):
            ft = _FilteredTotal(work)
            for n in ft.layout.total_dims:
                assert rank(ft.dmat(n).transpose()) == len(ft.pairs(n))

    @pytest.mark.parametrize("field", [QQ, F2, F3, GF(5)],
                             ids=["Q", "F2", "F3", "F5"])
    @settings(max_examples=15, deadline=None)
    @given(piece_lists, st.randoms(use_true_random=False))
    def test_skipped_columns_reduce_to_zero(self, field, pieces, rng):
        # every column that pairs(n) skips, inserted anyway after the
        # columns to its right, leaves a zero residual, and the pairs are
        # those of the uncleared sieve
        dc, _ = build_double_complex(pieces, field, rng)
        for work in (dc, dc.transpose()):
            ft = _FilteredTotal(work)
            for n in sorted(ft.layout.total_dims):
                inserted = set()

                class RecordingSieve(Sieve):
                    def insert(self, vec, combo=None):
                        inserted.add(id(vec))
                        return super().insert(vec, combo)

                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(spectra, "Sieve", RecordingSieve)
                    found = ft.pairs(n)
                cols = ft.dmat(n).columns()
                sieve = Sieve(field)
                uncleared = []
                for j in range(len(cols) - 1, -1, -1):
                    vec, _ = sieve.insert(cols[j])
                    if id(cols[j]) not in inserted:
                        assert not vec
                    if vec:
                        uncleared.append((j, min(vec)))
                assert found == uncleared

    def test_one_sieve_per_degree_and_one_rank_per_matrix(self, monkeypatch):
        sieves = []
        table_keys = set()
        sieved = []
        passed = []     # (matrix, sieved from inside a rank table call)
        in_table = []

        class CountingSieve(exactalg.Sieve):
            def __init__(self, field):
                super().__init__(field)
                sieves.append(self)

        rank_table = spectra._FilteredTotal.rank_table
        column_sieve = exactalg._column_sieve

        def counting_rank_table(self, n, p0):
            table_keys.add((n, max(p0, self.pmin)))
            in_table.append(n)
            try:
                return rank_table(self, n, p0)
            finally:
                in_table.pop()

        def recording_column_sieve(m, skip=frozenset()):
            sieved.append(m)
            return column_sieve(m, skip)

        def recording_pass_sieve(m, skip):
            passed.append((m, bool(in_table)))
            return recording_column_sieve(m, skip)

        monkeypatch.setattr(spectra, "Sieve", CountingSieve)
        monkeypatch.setattr(spectra._FilteredTotal, "rank_table",
                            counting_rank_table)
        monkeypatch.setattr(exactalg, "_column_sieve", recording_column_sieve)
        monkeypatch.setattr(homalg, "_column_sieve", recording_pass_sieve)
        rep = discrete_borel_ss(z2_cycle4(3), QQ, 3, dims_only=True)
        assert rep.ok
        degrees = {n for n, _ in table_keys}
        assert len(table_keys) > len(degrees)
        assert len(sieves) == len(degrees)
        # the convergence ranks of every D^n go through the complex's
        # rank pass, and none of them through the rank table
        passed_ids = [id(m) for m, _ in passed]
        assert all(passed_ids.count(id(d)) == 1 for d in rep.total.diffs)
        assert not any(inside for _, inside in passed)
        assert len({id(m) for m in sieved}) == len(sieved)


class TestConvergencePower:
    @pytest.mark.parametrize("runner", [discrete_borel_ss, atlas_ss],
                             ids=["borel", "atlas"])
    def test_dropped_pair_fails_convergence(self, runner, monkeypatch):
        # a rank table one pair short in the lowest degree, which is
        # unflagged, must fail the check: E_infinity comes from the table
        # in dims-only mode, H^n from ranks that never read it
        pairs = spectra._FilteredTotal.pairs

        def dropping_pairs(self, n):
            found = pairs(self, n)
            return found[:-1] if n == self.layout.n_min else found

        monkeypatch.setattr(spectra._FilteredTotal, "pairs", dropping_pairs)
        broken = runner(z2_cycle4(3), QQ, 3, dims_only=True).convergence
        assert not broken["ok"]
        low = broken["rows"][0]
        assert not low["flagged"]
        assert low["e_inf_sum"] == low["h_total"] + 1
        monkeypatch.undo()
        assert runner(z2_cycle4(3), QQ, 3, dims_only=True).convergence["ok"]


class TestDiscreteBorel:
    def test_z2_point_f2(self):
        a = trivial_action(cyclic_group(2), trivial_groupoid(1))
        rep = discrete_borel_ss(a, F2, 5)
        e2 = next(p for p in rep.pages if p.r == 2)
        assert [e2.entries[(p, 0)] for p in range(4)] == [1, 1, 1, 1]
        assert all(e2.entries[(p, 1)] == 0 for p in range(3))
        assert all(row["ok"] for row in rep.identification)
        assert rep.convergence["ok"]

    def test_z3_point_rational_maschke(self):
        a = trivial_action(cyclic_group(3), trivial_groupoid(1))
        rep = discrete_borel_ss(a, QQ, 4)
        e2 = next(p for p in rep.pages if p.r == 2)
        unflagged = {k: v for k, v in e2.entries.items()
                     if v and k not in e2.flags}
        assert unflagged == {(0, 0): 1}
        assert rep.ok

    def test_z2_trivial_on_s0_two_towers(self):
        a = trivial_action(cyclic_group(2), trivial_groupoid(2))
        rep = discrete_borel_ss(a, F2, 4)
        e2 = next(p for p in rep.pages if p.r == 2)
        for p in range(3):
            assert e2.entries[(p, 0)] == 2
        assert rep.ok

    def test_antipodal_circle_rational(self):
        rep = discrete_borel_ss(z2_cycle4(4), QQ, 4)
        e2 = next(p for p in rep.pages if p.r == 2)
        unflagged = {k: v for k, v in e2.entries.items()
                     if v and k not in e2.flags}
        # the rotation fixes the orientation class, so q=1 survives at p=0
        assert unflagged == {(0, 0): 1, (0, 1): 1}
        sums = {}
        for (p, q), v in rep.pages[-1].entries.items():
            if p + q < 3:
                sums[p + q] = sums.get(p + q, 0) + v
        assert [sums.get(n, 0) for n in range(3)] == [1, 1, 0]
        assert rep.ok

    def test_module_coefficients_sign(self):
        from stackcoh.groupcoh import GModule
        g = cyclic_group(2)
        sign = GModule(g, QQ, 1, [Mat.identity(1, QQ),
                                  Mat.from_rows([[-1]], QQ)])
        a = trivial_action(g, trivial_groupoid(1))
        rep = discrete_borel_ss(a, sign, 4)
        assert rep.ok
        unflagged = {k: v for k, v in
                     next(p for p in rep.pages if p.r == 2).entries.items()
                     if v and k not in rep.pages[-1].flags}
        assert unflagged == {}

    def test_s3_on_three_points_rational(self):
        s3 = symmetric_group(3)
        perms = []
        for gi in range(6):
            word = s3.elements[gi]
            perms.append(tuple(int(word[x]) for x in range(3)))
        a = set_action_on_trivial_groupoid(s3, perms)
        rep = discrete_borel_ss(a, QQ, 4, dims_only=True)
        assert rep.convergence["ok"]
        sums = {}
        for (p, q), v in rep.pages[-1].entries.items():
            if p + q < 3:
                sums[p + q] = sums.get(p + q, 0) + v
        # one orbit with stabiliser S_2: rationally a point
        assert [sums.get(n, 0) for n in range(3)] == [1, 0, 0]

    @pytest.mark.parametrize("name, n_top, n_rows", [
        ("z2_s0_swap_q", 6, 5), ("z2_pair2_swap_f2", 5, 4)])
    def test_one_bar_complex_per_q(self, name, n_top, n_rows, monkeypatch):
        # the oracle builds each q's bar complex once, up to its largest p
        from stackcoh.models import corpus_by_name
        inst = corpus_by_name(name)
        built = []
        original = spectra.bar_complex

        def counted(module, top):
            built.append(top)
            return original(module, top)
        monkeypatch.setattr(spectra, "bar_complex", counted)
        rep = discrete_borel_ss(inst.action(n_top), inst.field, n_top)
        tops = {}
        for row in rep.identification:
            tops[row["q"]] = max(tops.get(row["q"], 0), row["p"] + 1)
        assert rep.ok and len(tops) == n_rows
        assert sorted(built) == sorted(tops.values())


class TestAtlas:
    def test_trivial_group_degenerates(self):
        a = trivial_action(cyclic_group(1), trivial_groupoid(2))
        rep = atlas_ss(a, QQ, 4)
        e1 = next(p for p in rep.pages if p.r == 1)
        for (n, r), v in e1.entries.items():
            if (n, r) in e1.flags:
                continue
            if r > 0:
                assert v == 0
        assert rep.ok

    def test_z2_point_f2_column(self):
        a = trivial_action(cyclic_group(2), trivial_groupoid(1))
        rep = atlas_ss(a, F2, 5)
        e1 = next(p for p in rep.pages if p.r == 1)
        for n in range(4):
            for r in range(4 - n):
                assert e1.entries[(n, r)] == 1
        assert rep.ok

    def test_free_swap_quotient_rows(self):
        a = set_action_on_trivial_groupoid(cyclic_group(2), [(0, 1), (1, 0)])
        rep = atlas_ss(a, F2, 4)
        e1 = next(p for p in rep.pages if p.r == 1)
        for (n, r), v in e1.entries.items():
            if (n, r) in e1.flags:
                continue
            assert v == (1 if r == 0 else 0)
        assert rep.ok

    def test_oracle_against_transformation_nerve(self):
        # field case: the stabiliser oracle agrees with the cochain
        # cohomology of the transformation groupoid nerve
        from stackcoh.simplicial import cochains, nerve
        from stackcoh.stackact import transformation_groupoid
        g = symmetric_group(3)
        perms = [tuple(int(g.elements[gi][x]) for x in range(3))
                 for gi in range(6)]
        module = trivial_module(g, QQ)
        t = transformation_groupoid(g, perms)
        c = cochains(nerve(t, 4), QQ)
        assert quotient_cohomology_oracle(g, perms, module, range(3)) == \
            [cohomology(c, r) for r in range(3)]

    def test_one_oracle_input_per_level_and_orbit(self, monkeypatch):
        # every level of z2_s0_swap has one orbit, so the run builds one
        # stabiliser, one restricted module and one bar complex per level
        # it checks, besides the trivial module of the coefficients
        from stackcoh import groupcoh, stackact
        from stackcoh.models import corpus_by_name
        action = corpus_by_name("z2_s0_swap_q").action(6)
        counts = {}

        def counted(owner, name, label):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[label] = counts.get(label, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(stackact.FiniteGroup, "__init__", "FiniteGroup")
        counted(groupcoh.GModule, "__init__", "GModule")
        counted(spectra, "bar_complex", "bar_complex")
        rep = atlas_ss(action, QQ, 6)
        levels = {row["level"] for row in rep.identification}
        assert rep.ok and levels == set(range(5))
        assert counts == {"FiniteGroup": len(levels),
                          "GModule": len(levels) + 1,
                          "bar_complex": len(levels)}


class TestHyper:
    def test_single_module_bit_for_bit(self):
        a = trivial_action(cyclic_group(2), trivial_groupoid(1))
        cc = CoefficientComplex((trivial_module(cyclic_group(2), F2),), ())
        for mode, direct in (("discrete-borel", discrete_borel_ss),
                             ("atlas", atlas_ss)):
            h = hyper_ss(a, cc, mode, 4)
            d = direct(a, F2, 4)
            assert len(h.pages) == len(d.pages)
            for hp, dp in zip(h.pages, d.pages):
                assert hp.entries == dp.entries
                assert hp.differentials == dp.differentials

    def test_acyclic_two_term_kills_pages(self):
        a = set_action_on_trivial_groupoid(cyclic_group(2), [(0, 1), (1, 0)])
        m = trivial_module(cyclic_group(2), QQ)
        cc = CoefficientComplex((m, m), (Mat.identity(1, QQ),))
        for mode in ("atlas", "discrete-borel"):
            rep = hyper_ss(a, cc, mode, 4)
            for pg in rep.pages:
                if pg.r >= 1:
                    assert all(v == 0 for k, v in pg.entries.items()
                               if k not in pg.flags)

    def test_zero_two_term_shifts_and_doubles(self):
        a = trivial_action(cyclic_group(2), trivial_groupoid(1))
        m = trivial_module(cyclic_group(2), F2)
        cc = CoefficientComplex((m, m), (Mat.zero(1, 1, F2),))
        rep = hyper_ss(a, cc, "discrete-borel", 5)
        single = discrete_borel_ss(a, F2, 5)
        hs = [cohomology(rep.total, n, override=True) for n in range(4)]
        hs_single = [cohomology(single.total, n, override=True)
                     for n in range(4)]
        assert hs[0] == hs_single[0]
        for n in range(1, 4):
            assert hs[n] == hs_single[n] + hs_single[n - 1]

    def test_one_check_per_module_and_collapsed(self, monkeypatch):
        # each module's Borel complex is built once, and D^2 = 0 runs once,
        # on the total of the collapsed complex; the module complexes and
        # the faces are contained in it and are not checked again
        from stackcoh.models import pair_swap_action
        m = trivial_module(cyclic_group(2), QQ)
        cc = CoefficientComplex((m, m, m), (Mat.zero(1, 1, QQ),) * 2)
        built, checked = [], []
        original_build = spectra.borel_double_complex
        original_check = homalg.CochainComplex.__post_init__

        def building(*args, **kwargs):
            built.append(args)
            return original_build(*args, **kwargs)

        def checking(self):
            checked.append(self)
            original_check(self)
        monkeypatch.setattr(spectra, "borel_double_complex", building)
        monkeypatch.setattr(homalg.CochainComplex, "__post_init__", checking)
        for mode in ("atlas", "discrete-borel"):
            built.clear()
            checked.clear()
            rep = hyper_ss(pair_swap_action(), cc, mode, n_top=3)
            assert len(built) == len(cc.modules)
            assert len(checked) == 1 and checked[0] is rep.total

    def test_no_block_products_before_the_total(self, monkeypatch):
        # a double complex is checked once, as D^2 = 0 of its total:
        # building a hyper Borel complex multiplies no matrix
        from stackcoh.models import pair_swap_action
        m = trivial_module(cyclic_group(2), QQ)
        cc = CoefficientComplex((m, m, m), (Mat.zero(1, 1, QQ),) * 2)
        sa = as_simplicial_action(pair_swap_action(), 3)
        calls = []
        original = Mat.__mul__

        def counting(self, other):
            calls.append((self.shape, other.shape))
            return original(self, other)
        monkeypatch.setattr(Mat, "__mul__", counting)
        for mode in ("atlas", "discrete-borel"):
            spectra.borel_hyper_complex(sa, cc, 3, mode)
        assert calls == []

    @pytest.mark.parametrize("mode", ["atlas", "discrete-borel"])
    @pytest.mark.parametrize("axis", ["d_h", "d_v"])
    @pytest.mark.parametrize("key", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_corrupted_module_block_refused(self, monkeypatch, mode, axis,
                                            key):
        # doubling one nonzero block of the first module's Borel complex
        # breaks its commutation with the coefficient differential; the
        # check of the collapsed complex's total refuses it before any
        # page is computed
        from stackcoh.models import pair_swap_action
        original = spectra.borel_double_complex
        built = []

        def corrupted(*args, **kwargs):
            dc = original(*args, **kwargs)
            if not built:
                block = getattr(dc, axis)[key]
                assert not block.is_zero()
                getattr(dc, axis)[key] = block + block
            built.append(dc)
            return dc
        monkeypatch.setattr(spectra, "borel_double_complex", corrupted)
        with pytest.raises(InvariantViolation, match=r"d\.d != 0"):
            hyper_ss(pair_swap_action(), _two_term(), mode, n_top=3)

    def test_nonequivariant_coefficients_rejected(self):
        from stackcoh.errors import NonEquivariantCoefficients
        from stackcoh.groupcoh import GModule
        g = cyclic_group(2)
        sign = GModule(g, QQ, 1, [Mat.identity(1, QQ),
                                  Mat.from_rows([[-1]], QQ)])
        triv = trivial_module(g, QQ)
        with pytest.raises(NonEquivariantCoefficients):
            CoefficientComplex((triv, sign), (Mat.identity(1, QQ),))


def _swap_action():
    return set_action_on_trivial_groupoid(cyclic_group(2), [(0, 1), (1, 0)])


def _two_term():
    m = trivial_module(cyclic_group(2), QQ)
    return CoefficientComplex((m, m), (Mat.identity(1, QQ),))


def _torus_weyl():
    w = Mat.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 1]], QQ)
    lie = abelian_lie(1)
    return torus_weyl_check(
        lie, weyl_action(lie, rotation_algebra(),
                         [Mat.from_rows([[-1]], QQ)], [(w, w)]), 3,
        degrees=range(6))


ONE_TOTAL_RUNS = {
    "atlas_ss": lambda: atlas_ss(_swap_action(), QQ, 4),
    "discrete_borel_ss": lambda: discrete_borel_ss(_swap_action(), QQ, 4),
    "hyper_ss-atlas": lambda: hyper_ss(_swap_action(), _two_term(),
                                       "atlas", 4),
    "hyper_ss-discrete-borel": lambda: hyper_ss(
        _swap_action(), _two_term(), "discrete-borel", 4),
    "torus_weyl_check": _torus_weyl,
}


class TestOneTotalization:
    @pytest.mark.parametrize("case", sorted(ONE_TOTAL_RUNS))
    def test_one_total_complex_per_run(self, case, monkeypatch):
        # pages totalizes the filtered complex once and every route reads
        # its pages, total and convergence from that one run
        calls = []
        original = homalg.total_complex

        def counted(dc):
            calls.append(dc)
            return original(dc)

        for name, module in list(sys.modules.items()):
            if name.startswith("stackcoh") and \
                    getattr(module, "total_complex", None) is original:
                monkeypatch.setattr(module, "total_complex", counted)
        assert ONE_TOTAL_RUNS[case]().ok
        assert len(calls) == 1


class TestMaschkeDegeneration:
    def test_trivial_action_invertible_order(self):
        # trivial action, |G| invertible: E_2 concentrated in column p = 0
        for group, field in ((cyclic_group(3), QQ), (cyclic_group(2), F3)):
            a = trivial_action(group, trivial_groupoid(2))
            rep = discrete_borel_ss(a, field, 4)
            e2 = next(p for p in rep.pages if p.r == 2)
            for (p, q), v in e2.entries.items():
                if (p, q) in e2.flags or p == 0:
                    continue
                assert v == 0
            einf = rep.pages[-1]
            for k, v in e2.entries.items():
                if k not in e2.flags:
                    assert einf.entries[k] == v
