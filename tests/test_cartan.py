"""Cartan model: calculus validation, cohomology, invariants, Weyl data."""

import pytest
from hypothesis import given, settings, strategies as st

from stackcoh import cartan
from stackcoh.cartan import (
    GDGA, LieAlgebraData, abelian_lie, cartan_E1, cartan_cohomology,
    cartan_double_complex, invariant_polynomials, invariants_subalgebra,
    matrix_order, monomials, mulclose_mats, sym_power_matrix,
    torus_weyl_check, validate_gdga, weyl_action,
)
from stackcoh.errors import (
    InvariantViolation, NonEquivariantInput, NonInvertibleOrder,
    NotClosedUnderOperators, TruncationBoundary,
)
from stackcoh.exactalg import GF, QQ, Mat, rank
from stackcoh.homalg import TotalLayout, total_complex
from stackcoh.spectra import convergence_check, pages


def point_algebra():
    return GDGA(QQ, (1,), (), ((),), ((Mat.zero(1, 1, QQ),),),
                mul={(0, 0): [[{0: 1}]]})


def free_circle():
    d = (Mat.zero(1, 1, QQ),)
    iota = ((Mat.from_rows([[1]], QQ),),)
    lie_der = ((Mat.zero(1, 1, QQ), Mat.zero(1, 1, QQ)),)
    mul = {(0, 0): [[{0: 1}]], (0, 1): [[{0: 1}]],
           (1, 0): [[{0: 1}]], (1, 1): [[{}]]}
    return GDGA(QQ, (1, 1), d, iota, lie_der, mul=mul)


def trivial_circle():
    d = (Mat.zero(1, 1, QQ),)
    iota = ((Mat.zero(1, 1, QQ),),)
    lie_der = ((Mat.zero(1, 1, QQ), Mat.zero(1, 1, QQ)),)
    return GDGA(QQ, (1, 1), d, iota, lie_der)


def rotation_algebra():
    # dims (3, 3), d = diag(1, 1, 0), iota = L = the rotation in x, y:
    # the Lie-invariant subalgebra is the z line in both degrees
    rot = Mat.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 0]], QQ)
    d = (Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]], QQ),)
    return GDGA(QQ, (3, 3), d, ((rot,),), ((rot, rot),))


def torus_two(field=QQ):
    lie2 = abelian_lie(2)
    dims = (1, 2, 1)
    d = (Mat.zero(2, 1, field), Mat.zero(1, 2, field))
    iota1 = (Mat.from_rows([[1, 0]], field),
             Mat.from_rows([[0], [1]], field))
    iota2 = (Mat.from_rows([[0, 1]], field),
             Mat.from_rows([[-1], [0]], field))
    lie_der = tuple(
        tuple(Mat.zero(dims[m], dims[m], field) for m in range(3))
        for _ in range(2))
    return lie2, GDGA(field, dims, d, (iota1, iota2), lie_der)


LIE1 = abelian_lie(1)


class TestLieData:
    def test_abelian_valid(self):
        abelian_lie(3).validate()

    def test_antisymmetry_enforced(self):
        with pytest.raises(InvariantViolation):
            LieAlgebraData(2, (({}, {0: 1}), ({0: 1}, {})))

    def test_su2_structure_constants(self):
        # [x1,x2]=x3, [x2,x3]=x1, [x3,x1]=x2
        su2 = LieAlgebraData(3, (
            ({}, {2: 1}, {1: -1}),
            ({2: -1}, {}, {0: 1}),
            ({1: 1}, {0: -1}, {}),
        ))
        su2.validate()


class TestValidateGDGA:
    def test_point_valid(self):
        report = validate_gdga(LIE1, point_algebra())
        assert report["valid"]

    def test_free_circle_valid(self):
        report = validate_gdga(LIE1, free_circle())
        assert report["valid"] and report["failures"] == []

    def test_torus_two_valid(self):
        lie2, algebra = torus_two()
        assert validate_gdga(lie2, algebra)["valid"]

    def test_broken_lie_derivative_flagged(self):
        # inject L != d iota + iota d
        algebra = free_circle()
        bad_l = ((Mat.zero(1, 1, QQ), Mat.from_rows([[1]], QQ)),)
        broken = GDGA(QQ, algebra.dims, algebra.d, algebra.iota, bad_l,
                      mul=algebra.mul)
        report = validate_gdga(LIE1, broken)
        assert not report["valid"]
        assert any("iota" in f and "L_0 = d iota_0" in f or
                   "L_0 = d iota_0" in f for f in report["failures"])

    def test_broken_leibniz_flagged(self):
        algebra = free_circle()
        bad_mul = dict(algebra.mul)
        bad_mul[(0, 1)] = [[{0: 2}]]
        broken = GDGA(QQ, algebra.dims, algebra.d, algebra.iota,
                      algebra.L, mul=bad_mul)
        report = validate_gdga(LIE1, broken)
        # unit no longer acts as unit, so Leibniz bookkeeping must notice
        assert not report["valid"] or broken.product(0, 1, 0, 0) == {0: 2}


class TestInvariants:
    def test_all_l_zero_returns_everything(self):
        inv = invariants_subalgebra(LIE1, free_circle())
        assert inv.dims == (1, 1)

    def test_partial_kernel(self):
        dims = (2,)
        lie_der = ((Mat.from_rows([[0, 0], [0, 1]], QQ),),)
        algebra = GDGA(QQ, dims, (), ((),), lie_der)
        inv = invariants_subalgebra(LIE1, algebra)
        assert inv.dims == (1,)

    def test_non_closed_rejected(self):
        # d maps the degree-0 invariant line into the degree-1
        # non-invariant line: restriction must fail loudly
        dims = (2, 2)
        d = (Mat.from_rows([[1, 0], [0, 0]], QQ),)
        lie_der = ((Mat.from_rows([[0, 0], [0, 1]], QQ),
                    Mat.from_rows([[1, 0], [0, 0]], QQ)),)
        iota = ((Mat.zero(2, 2, QQ),),)
        algebra = GDGA(QQ, dims, d, iota, lie_der)
        with pytest.raises(NotClosedUnderOperators):
            invariants_subalgebra(LIE1, algebra)


class TestCartanCohomology:
    def test_point_polynomial_pattern(self):
        dims = cartan_cohomology(LIE1, point_algebra(), 6, range(12))
        assert dims == [1, 0] * 6

    def test_free_circle_contracts(self):
        dims = cartan_cohomology(LIE1, free_circle(), 6, range(11))
        assert dims == [1] + [0] * 10

    def test_trivial_circle_product_pattern(self):
        dims = cartan_cohomology(LIE1, trivial_circle(), 5, range(9))
        assert dims == [1] * 9

    def test_torus_two_on_itself(self):
        lie2, algebra = torus_two()
        dims = cartan_cohomology(lie2, algebra, 5, range(8))
        assert dims == [1] + [0] * 7

    def test_truncation_boundary_guard(self):
        with pytest.raises(TruncationBoundary):
            cartan_cohomology(LIE1, free_circle(), 3, [2 * 3])

    def test_truncation_stability(self):
        for algebra in (point_algebra(), free_circle(), trivial_circle()):
            top = algebra.top
            for poly_trunc in (3, 4):
                safe = 2 * poly_trunc - top
                a = cartan_cohomology(LIE1, algebra, poly_trunc, range(safe + 1))
                b = cartan_cohomology(LIE1, algebra, poly_trunc + 1,
                                      range(safe + 1))
                assert a == b


class TestCartanSpectral:
    def test_total_differential_is_cartan_formula(self):
        # D(m (x) x) = m (x) dx - sum_a (m u_a) (x) iota_a x, element-wise,
        # with block offsets read from TotalLayout
        cases = [(LIE1, point_algebra()), (LIE1, free_circle()),
                 (LIE1, trivial_circle()), torus_two()]
        trunc = 3
        for lie, algebra in cases:
            inv = invariants_subalgebra(lie, algebra)
            dc = cartan_double_complex(lie, inv, trunc)
            offsets = TotalLayout(dc).offsets
            diffs = total_complex(dc).diffs
            monos = [monomials(lie.dim, p) for p in range(trunc + 1)]

            def index(p, m, mono, x):
                return offsets[(p, p + m)] + \
                    monos[p].index(mono) * inv.dims[m] + x

            for p in range(trunc + 1):
                for m in range(inv.top + 1):
                    if 2 * p + m == len(diffs):
                        continue
                    for mono in monos[p]:
                        for x in range(inv.dims[m]):
                            want = {index(p, m + 1, mono, r): v
                                    for r, v in inv.dmat(m).col(x).items()}
                            for a in range(lie.dim if p < trunc else 0):
                                up = tuple(sorted(mono + (a,)))
                                for r, v in inv.iota_mat(a, m).col(x).items():
                                    key = index(p + 1, m - 1, up, r)
                                    want[key] = want.get(key, 0) - v
                            want = {k: v for k, v in want.items() if v}
                            col = index(p, m, mono, x)
                            assert diffs[2 * p + m].col(col) == want

    def test_e1_identification(self):
        cases = [(LIE1, point_algebra()), (LIE1, free_circle()),
                 (LIE1, trivial_circle()), torus_two()]
        for lie, algebra in cases:
            inv = invariants_subalgebra(lie, algebra)
            dc = cartan_double_complex(lie, inv, 4)
            table = cartan_E1(lie, algebra, 4)
            pgs = pages(dc, "columns", dims_only=True).pages
            e1 = next(p for p in pgs if p.r == 1)
            for key, val in table.items():
                assert e1.entries.get(key, 0) == val

    def test_e_infinity_sums_match_cohomology(self):
        for lie, algebra in [(LIE1, free_circle()), (LIE1, trivial_circle())]:
            inv = invariants_subalgebra(lie, algebra)
            dc = cartan_double_complex(lie, inv, 4)
            run = pages(dc, "columns")
            assert run.convergence["ok"]
            assert run.convergence == \
                convergence_check(run.pages, total_complex(dc))
            safe = 2 * 4 - algebra.top
            dims = cartan_cohomology(lie, algebra, 4, range(safe))
            sums = {}
            for (p, q), v in run.pages[-1].entries.items():
                sums[p + q] = sums.get(p + q, 0) + v
            assert dims == [sums.get(s, 0) for s in range(safe)]
            assert dims == [row["e_inf_sum"] for row in
                            run.convergence["rows"]][:safe]


class TestInvariantPolynomials:
    def test_trivial_weyl(self):
        assert invariant_polynomials(abelian_lie(1), [], 5) == [1] * 6

    def test_sign_weyl_su2(self):
        gens = [Mat.from_rows([[-1]], QQ)]
        assert invariant_polynomials(abelian_lie(1), gens, 8) == \
            [1, 0, 1, 0, 1, 0, 1, 0, 1]

    def test_symmetric_two_variables(self):
        gens = [Mat.from_rows([[0, 1], [1, 0]], QQ)]
        assert invariant_polynomials(abelian_lie(2), gens, 5) == \
            [1, 1, 2, 2, 3, 3]


def signed_permutation(perm, signs, field=QQ):
    """The matrix sending e_i to signs[i] e_perm[i]."""
    n = len(perm)
    return Mat(n, n, {(perm[i], i): signs[i] for i in range(n)}, field)


def group_sum_rank(weyl_gens, dim, p):
    """dim (S^p)^W as the rank of the sum of the W-actions on S^p, which
    is |W| times the averaging projector (the oracle)."""
    group = [w for (w,) in mulclose_mats([(g,) for g in weyl_gens])] \
        if weyl_gens else [Mat.identity(dim, QQ)]
    monos = monomials(dim, p)
    mono_index = {m: i for i, m in enumerate(monos)}
    total = Mat.zero(len(monos), len(monos), QQ)
    for w in group:
        total = total + sym_power_matrix(w, p, monos, mono_index)
    return rank(total)


@st.composite
def signed_permutation_gens(draw):
    dim = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(
        st.permutations(range(dim)),
        st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim)),
        max_size=3))
    return dim, [signed_permutation(perm, signs) for perm, signs in gens]


class TestInvariantsFromGenerators:
    @settings(max_examples=60, derandomize=True, deadline=None,
              database=None)
    @given(case=signed_permutation_gens())
    def test_matches_group_sum_rank(self, case):
        dim, gens = case
        assert invariant_polynomials(abelian_lie(dim), gens, 4) == \
            [group_sum_rank(gens, dim, p) for p in range(5)]

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
    def test_block_bases_from_generators_equal_all_elements(
            self, field, monkeypatch):
        # the symmetries of a square (|W| = 8, prime to 3) permute four
        # coordinates alike on the dual and on A^1 of an algebra whose d,
        # iota and L vanish; permutation matrices keep the traces of the
        # E_1 oracle exact over F_3
        lie = abelian_lie(4)
        algebra = GDGA(field, (1, 4), (Mat.zero(4, 1, field),),
                       ((Mat.zero(1, 4, field),),) * 4,
                       ((Mat.zero(1, 1, field), Mat.zero(4, 4, field)),) * 4)
        dual = [signed_permutation((1, 2, 3, 0), (1,) * 4, field),
                signed_permutation((0, 3, 2, 1), (1,) * 4, field)]
        on_algebra = [(Mat.identity(1, field), w) for w in dual]
        group = mulclose_mats([(wd, *wa) for wd, wa in zip(dual, on_algebra)])
        assert len(group) == 8
        real = cartan.joint_kernel

        def bases(dual_gens, algebra_gens):
            found = []

            def recording(mats, cols, f):
                found.append(real(mats, cols, f))
                return found[-1]

            monkeypatch.setattr(cartan, "joint_kernel", recording)
            report = torus_weyl_check(
                lie, weyl_action(lie, algebra, dual_gens, algebra_gens), 3,
                degrees=range(6))
            monkeypatch.setattr(cartan, "joint_kernel", real)
            assert report.ok
            return found, report.series

        from_all = bases([t[0] for t in group], [t[1:] for t in group])
        assert bases(dual, on_algebra) == from_all

    def test_generators_only(self, monkeypatch):
        # B4: signed permutations of four coordinates, |W| = 384, from
        # three generators, on the point with four zero L maps
        lie = abelian_lie(4)
        algebra = GDGA(QQ, (1,), (), ((),) * 4, ((Mat.zero(1, 1, QQ),),) * 4)
        gens = [signed_permutation((0, 1, 2, 3), (-1, 1, 1, 1)),
                signed_permutation((1, 0, 2, 3), (1, 1, 1, 1)),
                signed_permutation((1, 2, 3, 0), (1, 1, 1, 1))]
        inv = invariants_subalgebra(lie, algebra)
        blocks = sum(1 for d in cartan_double_complex(lie, inv, 4)
                     .dims.values() if d)
        closures, kernel_calls = [], []
        real_close, real_kernel = cartan.mulclose_mats, cartan.joint_kernel
        monkeypatch.setattr(cartan, "mulclose_mats", lambda g: (
            closures.append(len(g)), real_close(g))[1])
        monkeypatch.setattr(cartan, "joint_kernel", lambda mats, *rest: (
            kernel_calls.append(len(mats)), real_kernel(mats, *rest))[1])
        assert invariant_polynomials(lie, gens, 4) == [1, 0, 1, 0, 2]
        assert closures == []
        kernel_calls.clear()
        report = torus_weyl_check(
            lie, weyl_action(lie, algebra, gens,
                             [(Mat.identity(1, QQ),)] * 3), 4,
            degrees=range(9))
        assert report.ok
        assert report.series == [1, 0, 0, 0, 1, 0, 0, 0, 2]
        # one call per degree of A for A^g, with one L_a each, then one
        # per nonzero block, with one matrix per generator
        assert kernel_calls == [4] + [3] * blocks

    def test_signed_generators_over_f3(self):
        # W = <diag(-1, 1), swap> (order 8, prime to 3) on the rank-2
        # exterior algebra, by det on A^2: its -1 entries are stored as 2
        # over F_3, and the E_1 group sums still give the Q dimensions;
        # the dual generators may be given over Q
        def run(field, dual_field):
            lie2, algebra = torus_two(field)
            dual = [signed_permutation(perm, signs, dual_field)
                    for perm, signs in (((0, 1), (-1, 1)), ((1, 0), (1, 1)))]
            on_algebra = [(Mat.identity(1, field),
                           signed_permutation(perm, signs, field),
                           Mat.from_rows([[-1]], field))
                          for perm, signs in (((0, 1), (-1, 1)),
                                              ((1, 0), (1, 1)))]
            report = torus_weyl_check(
                lie2, weyl_action(lie2, algebra, dual, on_algebra), 4,
                degrees=range(7))
            assert report.ok
            return report.series, report.e1_matches

        rational = run(QQ, QQ)
        assert run(GF(3), GF(3)) == run(GF(3), QQ) == rational
        assert any(row["expected"] for row in rational[1])

    def test_order_counted_before_reduction_mod_p(self):
        # W = <-1> on the dual of a point's circle: |W| = 2, although -1
        # reads as 1 mod 2 and the closure over F_2 has one element
        def check(field):
            algebra = GDGA(field, (1,), (), ((),),
                           ((Mat.zero(1, 1, field),),),
                           mul={(0, 0): [[{0: 1}]]})
            return torus_weyl_check(
                LIE1, weyl_action(LIE1, algebra, [Mat.from_rows([[-1]], QQ)],
                                  [(Mat.identity(1, field),)]), 3,
                degrees=range(4))

        assert check(GF(3)).series == check(QQ).series == [1, 0, 0, 0]
        with pytest.raises(NonInvertibleOrder):
            check(GF(2))

    def test_dual_generators_over_f2_refused(self):
        # the same W = <-1> given over F_2 closes to one element, so |W|
        # would read 1 and pass the NonInvertibleOrder guard
        algebra = GDGA(GF(2), (1,), (), ((),), ((Mat.zero(1, 1, GF(2)),),),
                       mul={(0, 0): [[{0: 1}]]})
        with pytest.raises(InvariantViolation, match="F_2"):
            torus_weyl_check(
                LIE1, weyl_action(LIE1, algebra,
                                  [Mat.from_rows([[-1]], GF(2))],
                                  [(Mat.identity(1, GF(2)),)]), 3,
                degrees=range(4))

    def test_unequal_generator_counts_rejected(self):
        with pytest.raises(InvariantViolation):
            torus_weyl_check(
                LIE1, weyl_action(LIE1, point_algebra(),
                                  [Mat.from_rows([[-1]], QQ)], []), 3,
                degrees=range(4))


def naive_order(w, limit):
    """The first power of w equal to the identity, up to limit."""
    one = Mat.identity(w.rows, w.field)
    power = w
    for k in range(1, limit + 1):
        if power == one:
            return k
        power = power * w
    return None


def permutation_matrix(cycles, n):
    image = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a] = b
    return Mat(n, n, {(image[i], i): 1 for i in range(n)}, QQ)


class TestMatrixOrder:
    @pytest.mark.parametrize("rows", [
        [[1]], [[-1]], [[2]], [[0]], [[0, -1], [1, 0]], [[1, 1], [0, 1]],
        [[0, 1], [-1, -1]], [[0, 0], [0, 1]], [["1/2", 0], [0, 2]],
        [[0, "1/2"], [2, 0]], [[-1, 1], [0, 1]], [[0, 1], [1, 1]]])
    def test_agrees_with_powers(self, rows):
        w = Mat.from_rows([[QQ.parse(v) for v in row] for row in rows], QQ)
        assert matrix_order(w) == naive_order(w, 64)

    def test_baby_and_giant_steps_and_the_limit(self):
        # orders 39 = 13 * 3 and 105 = 7 * 5 * 3 lie past the baby steps
        for cycles, n, order in (([list(range(13)), [13, 14, 15]], 16, 39),
                                 ([list(range(7)), [7, 8, 9, 10, 11],
                                   [12, 13, 14]], 15, 105)):
            w = permutation_matrix(cycles, n)
            assert matrix_order(w) == order == naive_order(w, order)
            assert matrix_order(w, limit=order) == order
            assert matrix_order(w, limit=order - 1) is None


class TestTorusWeylCheck:
    def test_su2_point_series(self):
        report = torus_weyl_check(
            LIE1, weyl_action(LIE1, point_algebra(),
                              [Mat.from_rows([[-1]], QQ)],
                              [(Mat.identity(1, QQ),)]), 6,
            degrees=range(9))
        assert report.ok
        assert report.series == [1, 0, 0, 0, 1, 0, 0, 0, 1]

    def test_trivial_weyl_identical_series(self):
        report = torus_weyl_check(
            LIE1, weyl_action(LIE1, trivial_circle(), [], []), 4,
            degrees=range(6))
        assert report.ok
        assert report.series == report.series_e_infinity

    def test_free_circle_trivial_weyl(self):
        report = torus_weyl_check(
            LIE1, weyl_action(LIE1, free_circle(), [], []), 5,
            degrees=range(6))
        assert report.ok
        assert report.series == [1, 0, 0, 0, 0, 0]

    def test_nonequivariant_rejected(self):
        # an algebra map that does not commute with d
        d = (Mat.identity(1, QQ),)
        iota = ((Mat.zero(1, 1, QQ),),)
        lie_der = ((Mat.zero(1, 1, QQ), Mat.zero(1, 1, QQ)),)
        algebra = GDGA(QQ, (1, 1), d, iota, lie_der)
        bad_maps = [(Mat.identity(1, QQ), Mat.from_rows([[-1]], QQ))]
        with pytest.raises(NonEquivariantInput):
            torus_weyl_check(
                LIE1, weyl_action(LIE1, algebra, [Mat.identity(1, QQ)],
                                  bad_maps), 3, degrees=range(3))

    def test_weyl_restricted_to_lie_invariants(self):
        w = Mat.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 1]], QQ)
        report = torus_weyl_check(
            LIE1, weyl_action(LIE1, rotation_algebra(),
                              [Mat.from_rows([[-1]], QQ)], [(w, w)]), 3,
            degrees=range(6))
        assert report.ok
        assert report.series == [1, 1, 0, 0, 1, 1]

    def test_weyl_leaving_lie_invariants_rejected(self):
        # swapping x and z moves the invariant z line off itself
        w = Mat.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]], QQ)
        with pytest.raises(NonEquivariantInput):
            torus_weyl_check(
                LIE1, weyl_action(LIE1, rotation_algebra(),
                                  [Mat.identity(1, QQ)], [(w, w)]), 3,
                degrees=range(3))
