"""Group actions, Borel objects, equivariant cohomology basics."""

import pytest

from stackcoh.cartan import LieAlgebraData
from stackcoh.errors import NotFunctorial
from stackcoh.exactalg import GF, QQ
from stackcoh.getzler import getzler_total_cohomology
from stackcoh.groupcoh import GModule
from stackcoh.homalg import cohomology, total_complex
from stackcoh.models import corpus_by_name
from stackcoh.simplicial import (
    BiSemiSimplicialSet, FiniteGroupoid, SemiSimplicialSet, cochains,
    cycle_space, diagonal, nerve, total_cochains, trivial_groupoid,
)
from stackcoh.spectra import atlas_ss, discrete_borel_ss
from stackcoh.stackact import (
    FiniteGroup, GroupoidAction, SimplicialGAction, borel_bisimplicial,
    borel_object, cyclic_group, equivariant_cohomology, induced_nerve_action,
    is_free, one_object_groupoid, orbit_space, set_action_on_trivial_groupoid,
    symmetric_group, subgroup, transformation_groupoid, trivial_action,
)

F2 = GF(2)


def z2_swap_s0():
    return set_action_on_trivial_groupoid(cyclic_group(2),
                                          [(0, 1), (1, 0)])


def z2_cycle4(n_top):
    space = cycle_space(4, n_top)
    g = cyclic_group(2)
    maps = []
    for power in range(2):
        per_level = []
        for n in range(n_top + 1):
            index = {c: i for i, c in enumerate(space.cells[n])}
            level = []
            for cell in space.cells[n]:
                if cell[0] == "v":
                    image = ("v", (cell[1] + 2 * power) % 4)
                else:
                    image = ("e", (cell[1] + 2 * power) % 4, cell[2])
                level.append(index[image])
            per_level.append(tuple(level))
        maps.append(tuple(per_level))
    return SimplicialGAction(g, space, maps)


class TestGroups:
    def test_cyclic(self):
        g = cyclic_group(4)
        assert g.order == 4
        assert g.inverse(1) == 3

    def test_symmetric(self):
        assert symmetric_group(3).order == 6

    def test_subgroup(self):
        s3 = symmetric_group(3)
        # stabiliser of the point 2 under the natural action is an S_2
        members = [i for i in range(6) if s3.elements[i][2] == "2"]
        sub, _ = subgroup(s3, members)
        assert sub.order == 2


class TestInducedAction:
    def test_trivial_action_is_identity_on_levels(self):
        a = trivial_action(cyclic_group(2), trivial_groupoid(3))
        sa = induced_nerve_action(a, 3)
        for n in range(4):
            assert sa.maps[1][n] == tuple(range(sa.space.size(n)))

    def test_swap_acts_on_every_level(self):
        sa = induced_nerve_action(z2_swap_s0(), 3)
        for n in range(4):
            level = sa.maps[1][n]
            assert all(level[c] != c for c in range(len(level)))

    def test_cycle_rotation_is_fixed_point_free(self):
        sa = z2_cycle4(4)
        assert is_free(sa)

    def test_non_functorial_rejected(self):
        g = cyclic_group(2)
        atlas = trivial_groupoid(2)
        with pytest.raises(NotFunctorial):
            GroupoidAction(g, atlas, ((0, 1), (0, 1)),
                           ((0, 1), (1, 0))).validate()

    def test_identity_swapped_with_a_loop_rejected(self):
        # a map that preserves ends and composition sends identities to
        # identities, so swapping e and s of the one-object Z/2 is
        # refused as a failure of composition
        g = cyclic_group(2)
        with pytest.raises(NotFunctorial, match="composition"):
            GroupoidAction(g, one_object_groupoid(g), ((0,), (0,)),
                           ((0, 1), (1, 0)))


class TestBorelObject:
    def test_trivial_group_on_point(self):
        a = trivial_action(cyclic_group(1), trivial_groupoid(1))
        bo = borel_object(induced_nerve_action(a, 3))
        assert [bo.size(n) for n in range(4)] == [1, 1, 1, 1]

    def test_z2_on_point_gives_classifying_levels(self):
        a = trivial_action(cyclic_group(2), trivial_groupoid(1))
        bo = borel_object(induced_nerve_action(a, 4))
        assert [bo.size(n) for n in range(5)] == [1, 2, 4, 8, 16]

    def test_z2_swap_s0_levels(self):
        bo = borel_object(induced_nerve_action(z2_swap_s0(), 4))
        assert [bo.size(n) for n in range(5)] == [2, 4, 8, 16, 32]

    def test_diagonal_equals_borel_structurally(self):
        for sa in [induced_nerve_action(z2_swap_s0(), 3), z2_cycle4(3)]:
            bo = borel_object(sa)
            diag = diagonal(borel_bisimplicial(sa))
            assert diag.cells == bo.cells
            assert diag.faces == bo.faces


class TestBisimplicial:
    def test_trivial_group_columns_equal_nerve(self):
        a = trivial_action(cyclic_group(1), trivial_groupoid(2))
        sa = induced_nerve_action(a, 3)
        b = borel_bisimplicial(sa)
        for n in range(4):
            assert b.size(0, n) == sa.space.size(n)
            assert b.size(2, n) == sa.space.size(n)

    def test_free_action_totalization_is_point(self):
        sa = induced_nerve_action(z2_swap_s0(), 4)
        tot = total_complex(total_cochains(borel_bisimplicial(sa), QQ))
        assert [cohomology(tot, n, override=True) for n in range(4)] == \
            [1, 0, 0, 0]


class TestEquivariantCohomology:
    def test_z2_point_mod2_tower(self):
        a = trivial_action(cyclic_group(2), trivial_groupoid(1))
        assert equivariant_cohomology(a, F2, range(5)) == [1, 1, 1, 1, 1]

    def test_z2_point_rational(self):
        a = trivial_action(cyclic_group(2), trivial_groupoid(1))
        assert equivariant_cohomology(a, QQ, range(5)) == [1, 0, 0, 0, 0]

    def test_z2_antipodal_s0(self):
        for field in (QQ, F2):
            assert equivariant_cohomology(z2_swap_s0(), field, range(4),
                                          check_total=True) == [1, 0, 0, 0]

    def test_free_action_matches_orbit_space(self):
        sa = z2_cycle4(5)
        assert is_free(sa)
        quotient = cochains(orbit_space(sa), QQ)
        equi = equivariant_cohomology(sa, QQ, range(4), n_top=5)
        assert equi == [cohomology(quotient, n) for n in range(4)]
        assert equi == [1, 1, 0, 0]


class TestTransformationGroupoid:
    def test_trivial_group_one_point(self):
        t = transformation_groupoid(cyclic_group(1), [(0,)])
        assert t.n_objects == 1 and t.n_morphisms == 1

    def test_z2_on_point_is_group(self):
        t = transformation_groupoid(cyclic_group(2), [(0,), (0,)])
        assert t.n_objects == 1 and t.n_morphisms == 2

    def test_z2_swap_two_points(self):
        t = transformation_groupoid(cyclic_group(2), [(0, 1), (1, 0)])
        assert t.n_objects == 2 and t.n_morphisms == 4
        c = cochains(nerve(t, 4), QQ)
        assert [cohomology(c, n) for n in range(4)] == [1, 0, 0, 0]

    def test_nerve_matches_borel_object(self):
        # chains correspond to (g_1..g_n; x) via m_i = (g_i, g_{i+1}..g_n.x)
        g = cyclic_group(2)
        perms = [(0, 1), (1, 0)]
        t = transformation_groupoid(g, perms)
        tn = nerve(t, 3)
        sa = induced_nerve_action(
            set_action_on_trivial_groupoid(g, perms), 3)
        bo = borel_object(sa)
        mor_index = {}
        for idx in range(t.n_morphisms):
            mor_index[idx] = None
        mor = [(gi, x) for gi in range(2) for x in range(2)]

        def to_chain(gs, x):
            chain = []
            for i in range(len(gs)):
                y = x
                for gj in reversed(gs[i + 1:]):
                    y = perms[gj][y]
                chain.append(mor.index((gs[i], y)))
            return tuple(chain)

        for n in range(4):
            mapping = []
            for (gs, x) in bo.cells[n]:
                if n == 0:
                    label = ("obj", x)
                else:
                    label = to_chain(gs, x)
                mapping.append(tn.cells[n].index(label))
            assert sorted(mapping) == list(range(tn.size(n)))
            if n >= 1:
                prev = []
                for (gs, x) in bo.cells[n - 1]:
                    prev.append(tn.cells[n - 1].index(
                        ("obj", x) if n == 1 else to_chain(gs, x)))
                for i in range(n + 1):
                    for c in range(bo.size(n)):
                        assert tn.face(n, i, mapping[c]) == \
                            prev[bo.face(n, i, c)]

    def test_set_action_equivariant_matches_transformation_nerve(self):
        g = cyclic_group(3)
        perms = [tuple((x + k) % 3 for x in range(3)) for k in range(3)]
        a = set_action_on_trivial_groupoid(g, perms)
        equi = equivariant_cohomology(a, QQ, range(4))
        t = transformation_groupoid(g, perms)
        c = cochains(nerve(t, 6), QQ)
        assert equi == [cohomology(c, n) for n in range(4)]


VALIDATED = (SemiSimplicialSet, BiSemiSimplicialSet, FiniteGroupoid,
             FiniteGroup, GroupoidAction, SimplicialGAction, GModule,
             LieAlgebraData)


def test_each_object_validated_once(monkeypatch):
    action = corpus_by_name("z2_s0_swap_q").action(3)
    built, counts = [], {}

    def counted(cls):
        init, validate = cls.__init__, cls.validate

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def counted_validate(self):
            counts[id(self)] = counts.get(id(self), 0) + 1
            return validate(self)
        monkeypatch.setattr(cls, "__init__", counted_init)
        monkeypatch.setattr(cls, "validate", counted_validate)

    for cls in VALIDATED:
        counted(cls)
    runs = {
        "equivariant": lambda: equivariant_cohomology(
            action, QQ, range(2), n_top=3, check_total=True),
        "discrete_borel": lambda: discrete_borel_ss(action, QQ, 3),
        "atlas": lambda: atlas_ss(action, QQ, 3),
        "getzler": lambda: getzler_total_cohomology(action, QQ, range(2),
                                                    n_top=3),
    }
    for name, run in runs.items():
        built.clear()
        counts.clear()
        run()
        assert built, name
        wrong = [(type(obj).__name__, counts.get(id(obj), 0))
                 for obj in built if counts.get(id(obj), 0) != 1]
        assert wrong == [], name
        # the action handed in, its group and its atlas were checked when
        # they were built, before the run
        assert set(counts) == {id(obj) for obj in built}, name


class TestBuiltToAskedDegrees:
    """Both Betti-number routes build up to max(degrees) + 1 only: H^n
    reads levels n - 1..n + 1, so n_top is a ceiling, not a build target."""

    # the three models-benchmark instances and an F_2 pair-groupoid atlas
    NAMES = ("z2_cycle4_q", "z3_point_f3", "z2_pair2_swap_q",
             "z2_pair2_swap_f2")

    @staticmethod
    def both_routes(action, field, degrees, n_top):
        return (equivariant_cohomology(action, field, degrees, n_top=n_top,
                                       check_total=True),
                getzler_total_cohomology(action, field, degrees,
                                         n_top=n_top))

    def test_nothing_above_the_asked_degrees_is_built(self, monkeypatch):
        from stackcoh import getzler, stackact
        levels, blocks, nerves, tuple_lengths = [], [], [], []

        def watch(module, name, read):
            original = getattr(module, name)

            def watched(*args, **kwargs):
                built = original(*args, **kwargs)
                read(built)
                return built
            monkeypatch.setattr(module, name, watched)

        watch(stackact, "nerve", lambda s: nerves.append(s.trunc))
        # _tuples(g, p) lists the p-tuples of G, never empty
        watch(stackact, "_tuples", lambda t: tuple_lengths.append(len(t[0])))
        watch(stackact, "borel_object", lambda s: levels.append(s.trunc))
        watch(stackact, "borel_bisimplicial", lambda b: blocks.append(
            max(p + n for (p, n), cells in b.cells.items() if cells)))
        watch(getzler, "borel_double_complex", lambda dc: blocks.append(
            max(p + n for (p, n), dim in dc.dims.items() if dim)))
        d = 2
        atlases = 0
        for name in self.NAMES:
            inst = corpus_by_name(name)
            action = inst.action(d + 3)
            atlases += isinstance(action, GroupoidAction)
            self.both_routes(action, inst.field, range(d + 1), d + 3)
        # one diagonal, one bisimplicial and one Getzler object per
        # instance, each reaching exactly total degree d + 1, and one
        # atlas nerve per route of a groupoid action, to level d + 1
        assert levels == [d + 1] * len(self.NAMES)
        assert blocks == [d + 1] * 2 * len(self.NAMES)
        assert atlases == 3
        assert nerves == [d + 1] * 2 * atlases
        # and no group tuples for a p whose blocks are all cut
        assert max(tuple_lengths) <= d + 1

    @pytest.mark.parametrize("name", NAMES)
    def test_betti_numbers_at_two_ceilings(self, name):
        inst = corpus_by_name(name)
        d = 4
        want = inst.expected[:d + 1]
        for n_top in (d + 2, d + 3):
            assert self.both_routes(inst.action(n_top), inst.field,
                                    range(d + 1), n_top) == (want, want)

    def test_refusals_unchanged(self):
        from stackcoh.errors import InvariantViolation, TruncationBoundary
        sa = z2_cycle4(4)
        for degrees, n_top in ((range(2), 5), ([], 5)):
            # a raw complex below n_top is refused, whatever is asked
            with pytest.raises(InvariantViolation):
                equivariant_cohomology(sa, QQ, degrees, n_top=n_top)
            with pytest.raises(InvariantViolation):
                getzler_total_cohomology(sa, QQ, degrees, n_top=n_top)
        for degrees in ([3], [4], range(5), [-1]):
            # n_top = 3 certifies degrees 0..2 only
            with pytest.raises(TruncationBoundary):
                equivariant_cohomology(sa, QQ, degrees, n_top=3,
                                       check_total=True)
            with pytest.raises(TruncationBoundary):
                getzler_total_cohomology(sa, QQ, degrees, n_top=3)
        assert self.both_routes(sa, QQ, [], 3) == ([], [])
        assert self.both_routes(sa, QQ, [2, 0], 3) == ([0, 1], [0, 1])
        with pytest.raises(ValueError):
            equivariant_cohomology(sa, QQ, [])
