"""Semi-simplicial sets, groupoids, nerves, diagonals."""

import pytest
from hypothesis import given, settings, strategies as st

from stackcoh.errors import (
    InvariantViolation, SimplicialIdentityFailure, TruncationMismatch,
)
from stackcoh.exactalg import GF, QQ, Mat
from stackcoh.homalg import cohomology, total_complex
from stackcoh.models import s3_natural_perms
from stackcoh.simplicial import (
    BiSemiSimplicialSet, FiniteGroupoid, SemiSimplicialSet, _face_sum,
    cochains, cycle_space, diagonal, nerve, pair_groupoid, total_cochains,
    trivial_groupoid,
)
from stackcoh.stackact import (
    one_object_groupoid, symmetric_group, transformation_groupoid,
)

F2 = GF(2)

# one-object composition tables of monoids that are not groups
MONOID_TABLES = {
    # z z = z 1 = 1 z = z: the first idempotent loop z is not neutral
    "idempotent-not-neutral": [[0, 0], [0, 1]],
    # 0 is neutral, but z z = z, so z has no inverse
    "no-inverse": [[0, 1], [1, 1]],
}


class TestGroupoids:
    def test_trivial(self):
        g = trivial_groupoid(3)
        assert g.n_objects == 3 and g.n_morphisms == 3

    def test_pair(self):
        g = pair_groupoid(2)
        assert g.n_objects == 2 and g.n_morphisms == 4

    def test_validation_catches_bad_comp(self):
        g = pair_groupoid(2)
        bad = dict(g.comp)
        # corrupt one composite
        key = next(k for k in bad if bad[k] != g.ids[0])
        bad[key] = (bad[key] + 1) % g.n_morphisms
        with pytest.raises(InvariantViolation):
            type(g)(g.objects, g.mor_src, g.mor_tgt, bad)

    @pytest.mark.parametrize("build, ids, inv", [
        (lambda: pair_groupoid(3), (0, 4, 8), (0, 3, 6, 1, 4, 7, 2, 5, 8)),
        (lambda: trivial_groupoid(2), (0, 1), (0, 1)),
        (lambda: one_object_groupoid(symmetric_group(3)), (0,),
         (0, 1, 2, 4, 3, 5)),
        (lambda: transformation_groupoid(symmetric_group(3),
                                         s3_natural_perms()),
         (0, 1, 2),
         (0, 1, 2, 3, 5, 4, 7, 6, 8, 13, 14, 12, 11, 9, 10, 17, 16, 15)),
    ], ids=["pair", "trivial", "one-object", "transformation"])
    def test_derived_identities_and_inverses(self, build, ids, inv):
        # the tuples these builders once worked out by hand
        g = build()
        assert (g.ids, g.inv) == (ids, inv)

    @pytest.mark.parametrize("name", sorted(MONOID_TABLES))
    def test_monoid_table_rejected(self, name):
        comp = {(a, b): c for a, row in enumerate(MONOID_TABLES[name])
                for b, c in enumerate(row)}
        with pytest.raises(InvariantViolation):
            FiniteGroupoid(("pt",), (0, 0), (0, 0), comp)


class TestNerve:
    def test_point_groupoid_levels(self):
        s = nerve(trivial_groupoid(1), 3)
        assert [s.size(n) for n in range(4)] == [1, 1, 1, 1]

    def test_pair_groupoid_levels(self):
        s = nerve(pair_groupoid(2), 2)
        assert [s.size(n) for n in range(3)] == [2, 4, 8]

    def test_face_identities_exhaustive(self):
        nerve(pair_groupoid(3), 4).validate()

    def test_one_object_group_levels(self):
        # Z/2 as a one-object groupoid
        from stackcoh.stackact import cyclic_group, one_object_groupoid
        g = one_object_groupoid(cyclic_group(2))
        s = nerve(g, 2)
        assert [s.size(n) for n in range(3)] == [1, 2, 4]


class TestCochains:
    def test_point(self):
        c = cochains(nerve(trivial_groupoid(1), 4), QQ)
        assert cohomology(c, 0) == 1
        assert [cohomology(c, n) for n in range(1, 4)] == [0, 0, 0]

    def test_pair_groupoid_is_morita_trivial(self):
        for k in (2, 3):
            c = cochains(nerve(pair_groupoid(k), 4), QQ)
            assert cohomology(c, 0) == 1
            assert [cohomology(c, n) for n in range(1, 4)] == [0, 0, 0]

    def test_z2_nerve_rational_vanishing(self):
        from stackcoh.stackact import cyclic_group, one_object_groupoid
        s = nerve(one_object_groupoid(cyclic_group(2)), 5)
        c = cochains(s, QQ)
        assert cohomology(c, 0) == 1
        assert [cohomology(c, n) for n in range(1, 5)] == [0, 0, 0, 0]

    def test_z2_nerve_mod2_tower(self):
        # cross-checked against the bar-resolution oracle in test_groupcoh
        from stackcoh.stackact import cyclic_group, one_object_groupoid
        s = nerve(one_object_groupoid(cyclic_group(2)), 6)
        c = cochains(s, F2)
        assert [cohomology(c, n) for n in range(6)] == [1] * 6

    def test_cycle_space_is_a_circle(self):
        for k in (2, 3, 4):
            s = cycle_space(k, 5)
            c = cochains(s, QQ)
            assert [cohomology(c, n) for n in range(5)] == [1, 1, 0, 0, 0]
            c2 = cochains(s, F2)
            assert [cohomology(c2, n) for n in range(5)] == [1, 1, 0, 0, 0]

    def test_cycle_space_levels(self):
        s = cycle_space(4, 3)
        assert [s.size(n) for n in range(4)] == [4, 8, 12, 16]


def point_space(n_top):
    return nerve(trivial_groupoid(1), n_top)


def product_bisimplicial(s1: SemiSimplicialSet,
                         s2: SemiSimplicialSet) -> BiSemiSimplicialSet:
    """External product: cells[(p, n)] = cells_1[p] x cells_2[n]."""
    cells = {}
    faces_h = {}
    faces_v = {}
    for p in range(s1.trunc + 1):
        for n in range(s2.trunc + 1):
            pairs = [(a, b) for a in range(s1.size(p)) for b in range(s2.size(n))]
            cells[(p, n)] = tuple((s1.cells[p][a], s2.cells[n][b])
                                  for a, b in pairs)
            n2 = s2.size(n)
            if p >= 1:
                faces_h[(p, n)] = tuple(
                    tuple(s1.face(p, i, a) * n2 + b for a, b in pairs)
                    for i in range(p + 1))
            if n >= 1:
                faces_v[(p, n)] = tuple(
                    tuple(a * s2.size(n - 1) + s2.face(n, j, b) for a, b in pairs)
                    for j in range(n + 1))
    return BiSemiSimplicialSet(s1.trunc, s2.trunc, cells, faces_h, faces_v)


class TestBisimplicial:
    def test_product_point_point(self):
        b = product_bisimplicial(point_space(2), point_space(2))
        d = diagonal(b)
        assert [d.size(n) for n in range(3)] == [1, 1, 1]

    def test_diagonal_requires_equal_truncations(self):
        b = product_bisimplicial(point_space(2), point_space(3))
        with pytest.raises(TruncationMismatch):
            diagonal(b)

    def test_diagonal_of_nerve_times_point(self):
        from stackcoh.stackact import cyclic_group, one_object_groupoid
        s = nerve(one_object_groupoid(cyclic_group(2)), 3)
        b = product_bisimplicial(s, point_space(3))
        d = diagonal(b)
        assert [d.size(n) for n in range(4)] == [s.size(n) for n in range(4)]

    def test_columns_reproduce_nerve_cochains(self):
        from stackcoh.stackact import cyclic_group, one_object_groupoid
        s = nerve(one_object_groupoid(cyclic_group(2)), 3)
        b = product_bisimplicial(s, point_space(3))
        dc = total_cochains(b, F2)
        nerve_c = cochains(s, F2)
        for p in range(4):
            assert dc.dim(p, 0) == nerve_c.dims[p]

    def test_eilenberg_zilber_product_of_circles(self):
        # torus: diagonal of S^1 x S^1 must match the totalization
        s = cycle_space(2, 4)
        b = product_bisimplicial(s, s)
        d = cochains(diagonal(b), QQ)
        tot = total_complex(total_cochains(b, QQ))
        for n in range(4):
            assert cohomology(d, n) == cohomology(tot, n)
        # the torus answer itself
        assert [cohomology(d, n) for n in range(4)] == [1, 2, 1, 0]

    def test_validation_catches_broken_commutation(self):
        s = cycle_space(2, 2)
        b = product_bisimplicial(s, s)
        # corrupt one horizontal face entry
        fh = {k: [list(fm) for fm in v] for k, v in b.faces_h.items()}
        key = (1, 1)
        fh[key][0][0] = (fh[key][0][0] + 1) % b.size(0, 1)
        with pytest.raises(SimplicialIdentityFailure):
            BiSemiSimplicialSet(b.trunc_h, b.trunc_v, b.cells, fh, b.faces_v)

    @staticmethod
    def _borel_tables():
        from stackcoh.models import corpus_by_name
        from stackcoh.stackact import as_simplicial_action, borel_bisimplicial
        sa = as_simplicial_action(corpus_by_name("z2_s0_swap_q").action(3), 3)
        b = borel_bisimplicial(sa, 3)
        faces = {axis: {k: [list(fm) for fm in v] for k, v in table.items()}
                 for axis, table in (("h", b.faces_h), ("v", b.faces_v))}
        return b, faces

    @pytest.mark.parametrize("axis, key, below, message", [
        ("h", (2, 0), (1, 0), r"horizontal identity at \(2, 0\)"),
        ("v", (0, 2), (0, 1), r"vertical identity at \(0, 2\)"),
        ("h", (1, 1), (0, 1), r"faces do not commute at \(1, 1\)"),
    ])
    def test_one_entry_mutation_caught(self, axis, key, below, message):
        b, faces = self._borel_tables()
        BiSemiSimplicialSet(3, 3, b.cells, faces["h"], faces["v"])
        faces[axis][key][0][0] = (faces[axis][key][0][0] + 1) % b.size(*below)
        with pytest.raises(SimplicialIdentityFailure, match=message):
            BiSemiSimplicialSet(3, 3, b.cells, faces["h"], faces["v"])

    @pytest.mark.parametrize("resize", [lambda fm: fm[:-1],
                                        lambda fm: fm + [0]],
                             ids=["short", "long"])
    def test_face_map_length_checked(self, resize):
        b, faces = self._borel_tables()
        faces["h"][(1, 1)][0] = resize(faces["h"][(1, 1)][0])
        with pytest.raises(SimplicialIdentityFailure,
                           match=r"horizontal face map 0 at \(1, 1\)"):
            BiSemiSimplicialSet(3, 3, b.cells, faces["h"], faces["v"])


def test_semisimplicial_rejects_bad_identity():
    # two vertices, one edge with both faces equal -- fine; then break level 2
    cells = (("a",), ("e",), ("t",))
    faces = ((), ((0,), (0,)), ((0,), (0,), (0,)))
    SemiSimplicialSet(cells, faces).validate()
    bad_faces = ((), ((0,), (0,)), ((0,), (0,)))
    with pytest.raises(SimplicialIdentityFailure):
        SemiSimplicialSet(cells, bad_faces)


def per_cell_face_sum(face_maps, rows, cols, module_dim, field, twist=None):
    """Reference: the face sum cell by cell, each cell over its faces."""
    entries = {}
    plain = [((t, t), 1) for t in range(module_dim)]
    last = len(face_maps) - 1 if twist is not None else -1
    for c, faces in enumerate(zip(*face_maps)):
        for i, tgt in enumerate(faces):
            sign = -1 if i % 2 else 1
            for (r, k), v in twist(c).entries.items() if i == last else plain:
                key = (c * module_dim + r, tgt * module_dim + k)
                entries[key] = entries.get(key, 0) + sign * v
    return Mat(rows, cols, entries, field)


@pytest.mark.parametrize("field", [QQ, F2, GF(3)], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("module_dim", [1, 2])
@pytest.mark.parametrize("twisted", [False, True],
                         ids=["plain", "twisted"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_face_sum_equals_per_cell_loop(field, module_dim, twisted, data):
    # random face tables, repeated targets included, as tables and as
    # iterators; the twist is a random matrix per source cell
    cells = data.draw(st.integers(0, 5))
    targets = data.draw(st.integers(1, 4))
    faces = data.draw(st.lists(
        st.lists(st.integers(0, targets - 1), min_size=cells,
                 max_size=cells), min_size=1, max_size=4))
    entry = st.integers(-3, 3)
    mats = [Mat.from_rows([[data.draw(entry) for _ in range(module_dim)]
                           for _ in range(module_dim)], field)
            for _ in range(cells)]
    twist = mats.__getitem__ if twisted else None
    shape = (cells * module_dim, targets * module_dim, module_dim, field)
    want = per_cell_face_sum(faces, *shape, twist)
    assert _face_sum(tuple(faces), *shape, twist) == want
    assert _face_sum(tuple(iter(f) for f in faces), *shape, twist) == want
