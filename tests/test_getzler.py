"""Group-cochain model: coboundary, contraction, total cohomology."""

import itertools

import pytest

from stackcoh.errors import UnsupportedRegime
from stackcoh.exactalg import GF, QQ
from stackcoh.cartan import abelian_lie
from stackcoh.getzler import (
    GetzlerCochain, GetzlerContext, dbar, dbar_matrix,
    getzler_total_cohomology, iota_bar,
)
from stackcoh.groupcoh import bar_complex, trivial_module
from stackcoh.simplicial import trivial_groupoid
from stackcoh.spectra import _as_module
from stackcoh.stackact import (
    as_simplicial_action, cyclic_group, equivariant_cohomology,
    symmetric_group, trivial_action,
)

from .test_stackact import z2_cycle4, z2_swap_s0

F2 = GF(2)


def make_ctx(action, field, n_top):
    sa = as_simplicial_action(action, n_top)
    return GetzlerContext(sa, _as_module(field, sa.group), n_top)


def basis_cochains(ctx, p):
    for t in itertools.product(range(ctx.sa.group.order), repeat=p):
        for idx in range(ctx.value_dim):
            yield GetzlerCochain(ctx, p, {t: {idx: 1}})


class TestDbar:
    def test_invariant_constant_is_closed(self):
        ctx = make_ctx(z2_swap_s0(), QQ, 2)
        # constant 0-cochain with G-invariant value: sum over the orbit
        invariant = {ctx.value_index(0, 0): 1, ctx.value_index(0, 1): 1}
        f = GetzlerCochain(ctx, 0, {(): invariant})
        assert dbar(f).is_zero()

    def test_degree_zero_formula(self):
        # (dbar f)(g) = v - g.v for a 0-cochain with value v
        ctx = make_ctx(z2_swap_s0(), QQ, 2)
        v = {ctx.value_index(0, 0): 1}
        f = GetzlerCochain(ctx, 0, {(): v})
        df = dbar(f)
        assert df.value((0,)) == {}
        swapped = df.value((1,))
        assert swapped == {ctx.value_index(0, 0): 1, ctx.value_index(0, 1): -1}

    def test_dbar_squared_zero_exhaustive(self):
        # all basis cochains for |G| <= 6, p <= 3 (matrix route)
        groups_actions = [
            (z2_swap_s0(), QQ),
            (trivial_action(cyclic_group(3), trivial_groupoid(1)), QQ),
            (trivial_action(symmetric_group(3), trivial_groupoid(1)), F2),
        ]
        for action, field in groups_actions:
            ctx = make_ctx(action, field, 2)
            for p in range(3):
                d1 = dbar_matrix(ctx, p)
                d2 = dbar_matrix(ctx, p + 1)
                assert (d2 * d1).is_zero()

    def test_dbar_squared_zero_on_cochain_objects(self):
        ctx = make_ctx(z2_swap_s0(), QQ, 2)
        for p in range(2):
            for f in basis_cochains(ctx, p):
                assert dbar(dbar(f)).is_zero()

    def test_dbar_matches_matrix_route(self):
        ctx = make_ctx(z2_cycle4(2), QQ, 2)
        order = ctx.sa.group.order
        mat = dbar_matrix(ctx, 1)
        for f in itertools.islice(basis_cochains(ctx, 1), 24):
            df = dbar(f)
            (t, vec), = f.table.items()
            t_idx = sum(g * order ** (1 - k) for k, g in enumerate(t))
            col = list(vec)[0] + t_idx * ctx.value_dim
            image = mat.col(col)
            rebuilt = {}
            for idx, v in image.items():
                tt_idx, rest = divmod(idx, ctx.value_dim)
                tt = (tt_idx // order % order, tt_idx % order)
                rebuilt.setdefault(tt, {})[rest] = v
            assert rebuilt == df.table

    def test_forward_twist_fails_square_zero(self):
        # twisting the last face by rho(g) instead of rho(g^-1) breaks the
        # square-zero law on a nonabelian group with nontrivial module
        from stackcoh.exactalg import Mat
        from stackcoh.groupcoh import GModule
        g = symmetric_group(3)
        perm_mats = []
        for gi in range(6):
            word = g.elements[gi]
            perm_mats.append(Mat(3, 3, {(int(word[x]), x): 1
                                        for x in range(3)}, QQ))
        module = GModule(g, QQ, 3, perm_mats)

        def forward_dbar(p):
            import itertools as it
            order = g.order
            dim = module.dim
            tuples = list(it.product(range(order), repeat=p))
            index = {t: i for i, t in enumerate(tuples)}
            entries = {}
            for t_idx, t in enumerate(it.product(range(order), repeat=p + 1)):
                row_base = t_idx * dim
                targets = [(t[1:], 1)]
                for i in range(1, p + 1):
                    merged = t[:i - 1] + (g.mul[t[i - 1]][t[i]],) + t[i + 1:]
                    targets.append((merged, -1 if i % 2 else 1))
                for key, sign in targets:
                    col = index[key] * dim
                    for r in range(dim):
                        k = (row_base + r, col + r)
                        entries[k] = entries.get(k, 0) + sign
                sign = -1 if (p + 1) % 2 else 1
                col = index[t[:p]] * dim
                for (r, c), v in module.rho[t[p]].entries.items():
                    k = (row_base + r, col + c)
                    entries[k] = entries.get(k, 0) + sign * v
            return Mat(order ** (p + 1) * dim, order ** p * dim,
                       {k: v for k, v in entries.items() if v}, QQ)

        assert not (forward_dbar(1) * forward_dbar(0)).is_zero()
        # while the implemented inverse twist squares to zero
        from stackcoh.groupcoh import bar_complex
        bar_complex(module, 3)  # constructor validates d.d = 0


class TestIotaBar:
    def test_zero_in_discrete_regime(self):
        ctx = make_ctx(z2_swap_s0(), QQ, 2)
        for f in itertools.islice(basis_cochains(ctx, 1), 8):
            assert iota_bar(f).is_zero()
            assert iota_bar(f, lie=abelian_lie(0)).is_zero()

    def test_rejects_positive_dimensional_lie_data(self):
        ctx = make_ctx(z2_swap_s0(), QQ, 2)
        f = next(iter(basis_cochains(ctx, 1)))
        with pytest.raises(UnsupportedRegime):
            iota_bar(f, lie=abelian_lie(1))

    def test_square_of_combined_operator(self):
        ctx = make_ctx(z2_swap_s0(), QQ, 2)
        for f in itertools.islice(basis_cochains(ctx, 1), 8):
            df = dbar(f)
            combined = dbar(df)  # iota_bar contributes nothing
            assert combined.is_zero()
            assert iota_bar(df).p == f.p


class TestTotalCohomology:
    def test_z2_point_f2(self):
        a = trivial_action(cyclic_group(2), trivial_groupoid(1))
        assert getzler_total_cohomology(a, F2, range(5)) == [1, 1, 1, 1, 1]

    def test_z2_antipodal_s0(self):
        assert getzler_total_cohomology(z2_swap_s0(), QQ, range(4)) == \
            [1, 0, 0, 0]

    def test_trivial_group_reduces_to_plain_cohomology(self):
        from stackcoh.homalg import cohomology
        from stackcoh.simplicial import cochains, nerve, pair_groupoid
        a = trivial_action(cyclic_group(1), pair_groupoid(2))
        got = getzler_total_cohomology(a, QQ, range(4))
        c = cochains(nerve(pair_groupoid(2), 6), QQ)
        assert got == [cohomology(c, n) for n in range(4)]

    def test_agrees_with_homotopy_quotient(self):
        cases = [
            (trivial_action(cyclic_group(2), trivial_groupoid(1)), F2),
            (z2_swap_s0(), QQ),
            (z2_cycle4(6), QQ),
            (trivial_action(cyclic_group(3), trivial_groupoid(1)), GF(3)),
        ]
        for action, field in cases:
            got = getzler_total_cohomology(action, field, range(4), n_top=6)
            want = equivariant_cohomology(action, field, range(4), n_top=6)
            assert got == want

    def test_point_base_is_bar_complex_bit_for_bit(self):
        # atlas truncated at level zero: the only block row is the group
        # direction and the matrices coincide with the bar complex
        g = symmetric_group(3)
        a = trivial_action(g, trivial_groupoid(1))
        sa = as_simplicial_action(a, 0)
        ctx = GetzlerContext(sa, trivial_module(g, QQ), 0)
        from stackcoh.getzler import total_differential_matrices
        dims, diffs = total_differential_matrices(ctx, max_total=3)
        bar = bar_complex(trivial_module(g, QQ), 3)
        assert dims == bar.dims[:len(dims)]
        assert diffs == bar.diffs[:len(diffs)]
