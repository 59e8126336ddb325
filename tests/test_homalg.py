"""Complexes and totalization."""

import pytest
from hypothesis import given, settings, strategies as st

from stackcoh import homalg
from stackcoh.errors import InvariantViolation, NoSolution, TruncationBoundary
from stackcoh.exactalg import GF, QQ, Mat, rank
from stackcoh.homalg import (
    CochainComplex, DoubleComplex, cohomology, induced_cohomology_matrix,
    total_complex,
)

from .strategies import build_double_complex, fields, piece_lists

F2 = GF(2)
FIELDS = pytest.mark.parametrize("field", [QQ, F2, GF(3), GF(5)],
                                 ids=["Q", "F2", "F3", "F5"])


def point_complex(n_levels=4, field=QQ):
    dims = [1] + [0] * (n_levels - 1)
    diffs = [Mat.zero(dims[i + 1], dims[i], field) for i in range(n_levels - 1)]
    return CochainComplex(field, dims, diffs)


class TestCochainComplex:
    def test_d_squared_enforced(self):
        bad = Mat.identity(1, QQ)
        with pytest.raises(InvariantViolation):
            CochainComplex(QQ, (1, 1, 1), (bad, bad))

    def test_composition_checked(self):
        d_in = Mat.from_rows([[1], [0]], QQ)
        d_out = Mat.from_rows([[1, 0]], QQ)
        with pytest.raises(InvariantViolation, match="d.d != 0"):
            CochainComplex(QQ, (1, 2, 1), (d_in, d_out))

    def test_one_corrupted_entry_of_an_f2_total_is_refused(self):
        # flip one entry of D^1 of a Borel total over F_2 at a row where
        # D^2 has a nonzero column: D^2 D^1 gains that column
        from stackcoh.groupcoh import trivial_module
        from stackcoh.models import corpus_by_name
        from stackcoh.spectra import borel_double_complex
        from stackcoh.stackact import as_simplicial_action
        sa = as_simplicial_action(
            corpus_by_name("z2_pair2_swap_f2").action(4), 4)
        tot = total_complex(borel_double_complex(
            sa, trivial_module(sa.group, F2), 4))
        d1, d2 = tot.diffs[1], tot.diffs[2]
        i = next(k for k, col in enumerate(d2.columns()) if col)
        entries = dict(d1.entries)
        if entries.pop((i, 0), None) is None:
            entries[(i, 0)] = 1
        diffs = list(tot.diffs)
        diffs[1] = Mat(d1.rows, d1.cols, entries, F2)
        with pytest.raises(InvariantViolation, match=r"d\.d != 0 at degree 1"):
            CochainComplex(F2, tot.dims, tuple(diffs))

    def test_shape_checked(self):
        # a 3 x 1 map into degree 1 of dimension 2
        with pytest.raises(InvariantViolation, match="shape"):
            CochainComplex(QQ, (1, 2, 1),
                           (Mat.zero(3, 1, QQ), Mat.zero(1, 2, QQ)))

    def test_point(self):
        c = point_complex()
        assert cohomology(c, 0) == 1
        assert cohomology(c, 1) == 0
        assert cohomology(c, 2) == 0

    def test_circle_two_vertices_two_edges(self):
        # semi-simplicial circle: d(f)(e) = f(head) - f(tail), both edges
        # run between the two vertices in opposite directions
        d0 = Mat.from_rows([[1, -1], [-1, 1]], QQ)
        c = CochainComplex(QQ, (2, 2, 0), (d0, Mat.zero(0, 2, QQ)))
        assert cohomology(c, 0) == 1
        assert cohomology(c, 1) == 1

    def test_cohomology_does_not_remultiply(self, monkeypatch):
        # __post_init__ checked d.d = 0 once; cohomology trusts it
        d0 = Mat.from_rows([[1, -1], [-1, 1]], QQ)
        c = CochainComplex(QQ, (2, 2, 0), (d0, Mat.zero(0, 2, QQ)))
        calls = []
        mul = Mat.__mul__

        def counting_mul(a, b):
            calls.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(Mat, "__mul__", counting_mul)
        assert [cohomology(c, n, override=True) for n in range(3)] == \
            [1, 1, 0]
        assert cohomology(c, 1, reps=True)[0] == 1
        assert calls == []

    def test_truncation_boundary(self):
        c = point_complex()
        with pytest.raises(TruncationBoundary):
            cohomology(c, c.top_degree)
        assert cohomology(c, c.top_degree, override=True) == 0

    def test_out_of_range(self):
        c = point_complex()
        with pytest.raises(TruncationBoundary):
            cohomology(c, 99)


def two_class_complex(field):
    """F -> F^4 -> F with d0 = (1, 1, 0, 0) and d1 = (1, -1, 0, 0): the
    cocycles in degree 1 are b = (1, 1, 0, 0), e2 and e3, and b spans the
    image of d0, so H^1 has dimension 2."""
    d0 = Mat.from_rows([[1], [1], [0], [0]], field)
    d1 = Mat.from_rows([[1, -1, 0, 0]], field)
    return CochainComplex(field, (1, 4, 1), (d0, d1))


def plus_columns(field, scale, extra):
    """scale * identity on F^4, plus extra[j] added to column j."""
    entries = {(i, i): scale for i in range(4)}
    for j, col in extra.items():
        for i, v in col.items():
            entries[(i, j)] = entries.get((i, j), 0) + v
    return Mat(4, 4, entries, field)


class TestInducedCohomologyMatrix:
    @pytest.mark.parametrize("field", [QQ, F2], ids=["QQ", "F2"])
    def test_coboundary_shift_induces_scalar(self, field):
        # op(v) = scale * v + (v2 + 2 v3) b: the shift is a coboundary, so
        # the induced matrix is scale * identity whatever reps are chosen;
        # without the image as the span, the shift has no coordinates
        c = two_class_complex(field)
        b = {0: 1, 1: 1}
        shift = {2: b, 3: {i: 2 * v for i, v in b.items()}}
        ops = [plus_columns(field, 1, shift), plus_columns(field, 2, shift)]
        got = induced_cohomology_matrix(c, 1, ops)
        assert got == [Mat.identity(2, field), Mat.identity(2, field).scale(2)]

    @pytest.mark.parametrize("field", [QQ, F2], ids=["QQ", "F2"])
    def test_image_off_the_cocycles_raises(self, field):
        # op(v) = v + v2 e0, and d1 e0 = 1: e2's class leaves the cocycles
        c = two_class_complex(field)
        op = plus_columns(field, 1, {2: {0: 1}})
        with pytest.raises(NoSolution):
            induced_cohomology_matrix(c, 1, [op])


def euler_characteristic(c: CochainComplex) -> int:
    return sum((-1) ** n * d for n, d in enumerate(c.dims))


def single_block_dc(field=QQ):
    return DoubleComplex(field, (0, 0), (0, 0), {(0, 0): 1}, {}, {})


def identity_square():
    ident = Mat.identity(1, QQ)
    return DoubleComplex(QQ, (0, 1), (0, 1),
                         {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                         {(0, 0): ident, (0, 1): ident},
                         {(0, 0): ident, (1, 0): ident})


class TestTotalComplex:
    def test_transpose_is_not_revalidated(self, monkeypatch):
        # the transpose runs the constructor, which checks shapes only:
        # it multiplies no matrix and carries the blocks over unchanged
        dc = identity_square()
        calls = []
        original = Mat.__mul__

        def counting(self, other):
            calls.append((self.shape, other.shape))
            return original(self, other)
        monkeypatch.setattr(Mat, "__mul__", counting)
        tr = dc.transpose()
        assert calls == []
        assert tr.d_h[(0, 0)] is dc.d_v[(0, 0)]
        assert tr.d_v[(1, 0)] is dc.d_h[(0, 1)]

    def test_single_entry(self):
        tot = total_complex(single_block_dc())
        assert tot.dims == (1,)
        assert cohomology(tot, 0, override=True) == 1

    def test_horizontal_identity_pair_is_acyclic(self):
        dc = DoubleComplex(QQ, (0, 1), (0, 0), {(0, 0): 1, (1, 0): 1},
                           {(0, 0): Mat.identity(1, QQ)}, {})
        tot = total_complex(dc)
        assert cohomology(tot, 0) == 0
        assert cohomology(tot, 1, override=True) == 0

    def test_all_identity_square_is_acyclic(self):
        # Tensor square of the acyclic column k -> k: every total degree
        # vanishes (H = 0, 0, 0 by direct four-dimensional computation).
        tot = total_complex(identity_square())
        assert [cohomology(tot, n, override=True) for n in range(3)] == [0, 0, 0]

    # the constructor checks shapes only: each broken identity is
    # refused by D^2 = 0 of the total
    def test_invariant_violation_on_noncommuting(self):
        ident = Mat.identity(1, QQ)
        zero = Mat.zero(1, 1, QQ)
        dc = DoubleComplex(QQ, (0, 1), (0, 1),
                           {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                           {(0, 0): ident, (0, 1): zero},
                           {(0, 0): ident, (1, 0): ident})
        with pytest.raises(InvariantViolation):
            total_complex(dc)

    def test_invariant_violation_on_horizontal_square(self):
        ident = Mat.identity(1, QQ)
        dc = DoubleComplex(QQ, (0, 2), (0, 0),
                           {(0, 0): 1, (1, 0): 1, (2, 0): 1},
                           {(0, 0): ident, (1, 0): ident}, {})
        with pytest.raises(InvariantViolation):
            total_complex(dc)

    def test_invariant_violation_on_vertical_square(self):
        ident = Mat.identity(1, QQ)
        dc = DoubleComplex(QQ, (0, 0), (0, 2),
                           {(0, 0): 1, (0, 1): 1, (0, 2): 1},
                           {}, {(0, 0): ident, (0, 1): ident})
        with pytest.raises(InvariantViolation):
            total_complex(dc)

    @settings(max_examples=50, deadline=None)
    @given(piece_lists, fields, st.randoms(use_true_random=False))
    def test_total_cohomology_matches_piece_oracle(self, pieces, field, rng):
        dc, expected = build_double_complex(pieces, field, rng)
        tot = total_complex(dc)
        for n in range(len(tot.dims)):
            assert cohomology(tot, n, override=True) == expected.get(n, 0)

    @settings(max_examples=50, deadline=None)
    @given(piece_lists, fields, st.randoms(use_true_random=False))
    def test_euler_characteristic(self, pieces, field, rng):
        dc, _ = build_double_complex(pieces, field, rng)
        tot = total_complex(dc)
        alt_blocks = sum((-1) ** (p + q) * d for (p, q), d in dc.dims.items())
        assert euler_characteristic(tot) == alt_blocks
        alt_h = sum((-1) ** n * cohomology(tot, n, override=True)
                    for n in range(len(tot.dims)))
        assert alt_h == alt_blocks


class TestRankPass:
    @FIELDS
    @settings(max_examples=15, deadline=None)
    @given(piece_lists, st.randoms(use_true_random=False))
    def test_pass_ranks_equal_row_ranks(self, field, pieces, rng):
        # the cleared ascending column pass fills the rank that the
        # uncleared row sieve finds (rank of the transpose), for every D^n
        dc, _ = build_double_complex(pieces, field, rng)
        for work in (dc, dc.transpose()):
            c = total_complex(work)
            c.rank_through(c.top_degree)
            for d in c.diffs:
                assert d._rank == rank(d.transpose())

    @FIELDS
    @settings(max_examples=15, deadline=None)
    @given(piece_lists, st.randoms(use_true_random=False))
    def test_each_differential_sieved_once(self, field, pieces, rng):
        # cohomology of every degree, asked in any order, sieves each
        # differential once, in ascending order, and gives the pieces' H^n
        dc, expected = build_double_complex(pieces, field, rng)
        for work in (dc, dc.transpose()):
            c = total_complex(work)
            degrees = list(range(c.top_degree + 1))
            rng.shuffle(degrees)
            sieved = []
            real = homalg._column_sieve

            def recording(m, skip):
                sieved.append(m)
                return real(m, skip)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(homalg, "_column_sieve", recording)
                dims = {n: cohomology(c, n, override=True) for n in degrees}
            assert [id(m) for m in sieved] == [id(d) for d in c.diffs]
            assert dims == {n: expected.get(n, 0) for n in degrees}

    def test_pass_skips_the_previous_pivots(self):
        # 0 -> F -> F^2 -> F -> 0 with D^0 = (1, 1)^T: the pivot of D^0's
        # sieve is row 0, so column 0 of D^1 is never inserted
        c = CochainComplex(QQ, (1, 2, 1), (Mat.from_rows([[1], [1]], QQ),
                                           Mat.from_rows([[1, -1]], QQ)))
        inserted = []
        real = homalg._column_sieve

        def recording(m, skip):
            inserted.append(sorted(set(range(m.cols)) - skip))
            return real(m, skip)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homalg, "_column_sieve", recording)
            assert [cohomology(c, n, override=True) for n in (2, 0, 1)] == \
                [0, 0, 0]
        assert inserted == [[0], [1]]
