"""Finite group actions on groupoid atlases and the Borel construction.

The homotopy-quotient machinery runs on a level-wise group action on a
truncated semi-simplicial set (SimplicialGAction); a functorial action on
a groupoid atlas induces one on the nerve.  _check_permutation_action is
the one check of an action law on a finite set.

The Borel construction is the bisimplicial G^p x X_n of the two-sided
bar construction (Segal, Publ. IHES 34, 1968), and bar_faces and
base_faces are the one place its faces are written: borel_object
composes them, borel_bisimplicial stores them and
spectra.borel_double_complex sums them.  The oracles
groupcoh.bar_complex and getzler.dbar write the bar formula themselves.

Face conventions are never trusted.  Each object is checked once, at
construction: groups, actions and the Borel objects run their
exhaustive axiom, functoriality or simplicial-identity check in
__post_init__ (a failing build aborts with SimplicialIdentityFailure or
NotFunctorial), and no consumer checks an argument again.  A group is
checked as its one-object groupoid G => pt, whose nerve is the bar
construction BG: FiniteGroupoid.validate is the one check of the group
axioms, and FiniteGroup takes its identity and inverses from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    InvariantViolation, NotFunctorial, SimplicialIdentityFailure,
)
from .exactalg import Field
from .homalg import cohomology, total_complex
from .simplicial import (
    BiSemiSimplicialSet, FiniteGroupoid, SemiSimplicialSet, cochains,
    nerve, total_cochains, trivial_groupoid,
)


@dataclass
class FiniteGroup:
    """Multiplication table group; mul[i][j] is the index of g_i g_j."""

    elements: tuple
    mul: tuple

    def __post_init__(self):
        self.elements = tuple(self.elements)
        self.mul = tuple(tuple(row) for row in self.mul)
        self.validate()

    @property
    def order(self) -> int:
        return len(self.elements)

    def validate(self):
        """The table's shape here; the group axioms are the groupoid
        axioms of G as a one-object groupoid, whose check also finds the
        identity and the inverses."""
        n = self.order
        if len(self.mul) != n or any(len(row) != n for row in self.mul):
            raise InvariantViolation("multiplication table is not n x n")
        for i in range(n):
            for j in range(n):
                if not 0 <= self.mul[i][j] < n:
                    raise InvariantViolation(
                        f"product ({i},{j}) out of range")
        point = one_object_groupoid(self)
        (self._identity,), self._inverses = point.ids, point.inv

    @property
    def identity(self) -> int:
        return self._identity

    def inverse(self, i: int) -> int:
        return self._inverses[i]


def cyclic_group(n: int) -> FiniteGroup:
    elements = tuple(f"r{i}" if i else "e" for i in range(n))
    mul = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(elements, mul)


def symmetric_group(n: int) -> FiniteGroup:
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    elements = tuple("".join(str(x) for x in p) for p in perms)
    mul = tuple(tuple(index[tuple(a[b[i]] for i in range(n))] for b in perms)
                for a in perms)
    return FiniteGroup(elements, mul)


def subgroup(group: FiniteGroup, members) -> tuple[FiniteGroup, list]:
    """Subgroup on the given element indices; returns (group, index list)."""
    members = sorted(set(members))
    pos = {m: i for i, m in enumerate(members)}
    for a in members:
        for b in members:
            if group.mul[a][b] not in pos:
                raise InvariantViolation("subset is not closed")
    mul = tuple(tuple(pos[group.mul[a][b]] for b in members) for a in members)
    sub = FiniteGroup(tuple(group.elements[m] for m in members), mul)
    return sub, members


def one_object_groupoid(group: FiniteGroup) -> FiniteGroupoid:
    n = group.order
    comp = {(a, b): group.mul[a][b] for a in range(n) for b in range(n)}
    return FiniteGroupoid((0,), (0,) * n, (0,) * n, comp)


def _check_permutation_action(group: FiniteGroup, perms, size: int, error):
    """The action law of perms (one tuple per element) on range(size):
    the identity acts trivially, each element is a bijection, and
    g(hx) = (gh)x.  A failure raises error(message)."""
    if len(perms) != group.order:
        raise error("one permutation per group element required")
    if perms[group.identity] != tuple(range(size)):
        raise error("identity must act trivially")
    for gi, perm in enumerate(perms):
        if sorted(perm) != list(range(size)):
            raise error(f"element {group.elements[gi]} is not a bijection")
    for gi, pg in enumerate(perms):
        for hi, ph in enumerate(perms):
            pgh = perms[group.mul[gi][hi]]
            if any(pg[ph[x]] != pgh[x] for x in range(size)):
                raise error("the action is not a group action")


@dataclass
class GroupoidAction:
    """A finite group acting strictly and functorially on a groupoid atlas."""

    group: FiniteGroup
    atlas: FiniteGroupoid
    act_obj: tuple    # per element: permutation of objects
    act_mor: tuple    # per element: permutation of morphisms

    def __post_init__(self):
        self.act_obj = tuple(tuple(p) for p in self.act_obj)
        self.act_mor = tuple(tuple(p) for p in self.act_mor)
        self.validate()

    def validate(self):
        g, a = self.group, self.atlas
        _check_permutation_action(g, self.act_obj, a.n_objects,
                                  NotFunctorial)
        _check_permutation_action(g, self.act_mor, a.n_morphisms,
                                  NotFunctorial)
        for gi in range(g.order):
            obj = self.act_obj[gi]
            mor = self.act_mor[gi]
            for m in range(a.n_morphisms):
                if a.mor_src[mor[m]] != obj[a.mor_src[m]] or \
                        a.mor_tgt[mor[m]] != obj[a.mor_tgt[m]]:
                    raise NotFunctorial(
                        f"element {g.elements[gi]} does not preserve ends of "
                        f"morphism {m}")
            for (m1, m2), m3 in a.comp.items():
                if a.comp[(mor[m1], mor[m2])] != mor[m3]:
                    raise NotFunctorial(
                        f"element {g.elements[gi]} does not preserve composition")


@dataclass
class SimplicialGAction:
    """Level-wise action on a semi-simplicial set, commuting with faces."""

    group: FiniteGroup
    space: SemiSimplicialSet
    maps: tuple   # maps[gi][n][cell index] -> cell index

    def __post_init__(self):
        self.maps = tuple(tuple(tuple(level) for level in per_g)
                          for per_g in self.maps)
        self.validate()

    def act(self, gi: int, n: int, c: int) -> int:
        return self.maps[gi][n][c]

    def validate(self):
        g, s = self.group, self.space
        for n in range(s.trunc + 1):
            _check_permutation_action(
                g, [per_g[n] for per_g in self.maps], s.size(n),
                lambda message: NotFunctorial(f"{message} at level {n}"))
        for n in range(1, s.trunc + 1):
            for gi in range(g.order):
                for c in range(s.size(n)):
                    for i in range(n + 1):
                        if s.face(n, i, self.act(gi, n, c)) != \
                                self.act(gi, n - 1, s.face(n, i, c)):
                            raise NotFunctorial(
                                f"action does not commute with face {i} "
                                f"at level {n}")


def induced_nerve_action(a: GroupoidAction, n_top: int) -> SimplicialGAction:
    """g . (m_1, .., m_n) = (g m_1, .., g m_n) on nerve chains."""
    space = nerve(a.atlas, n_top)
    maps = []
    for gi in range(a.group.order):
        per_level = []
        for n in range(n_top + 1):
            index = {c: i for i, c in enumerate(space.cells[n])}
            level = []
            for cell in space.cells[n]:
                if n == 0:
                    image = ("obj", a.act_obj[gi][cell[1]])
                else:
                    image = tuple(a.act_mor[gi][m] for m in cell)
                level.append(index[image])
            per_level.append(tuple(level))
        maps.append(tuple(per_level))
    return SimplicialGAction(a.group, space, tuple(maps))


def as_simplicial_action(a, n_top: int) -> SimplicialGAction:
    """Accept a GroupoidAction or an already-simplicial action."""
    if isinstance(a, SimplicialGAction):
        if a.space.trunc < n_top:
            raise InvariantViolation(
                f"simplicial action truncated at {a.space.trunc}, "
                f"need {n_top}")
        return a
    return induced_nerve_action(a, n_top)


def _tuples(group: FiniteGroup, n: int):
    return list(itertools.product(range(group.order), repeat=n))


def bar_faces(sa: SimplicialGAction, p: int, n: int):
    """Yield the p + 1 bar faces G^p x X_n -> G^(p-1) x X_n (p >= 1),
    each an iterator over the source cells giving the target index.

    Cell (g_1, .., g_p, x) has index t * |X_n| + x, where t is the
    position of the tuple in lexicographic order.  d_0 drops g_1, inner
    d_i multiplies g_i g_{i+1}, and d_p drops g_p and moves x by it.
    """
    g, size = sa.group, sa.space.size(n)
    order = g.order
    tuples = range(order ** p)
    for i in range(p):
        low = order ** (p - i - 1)      # tuples of the entries after g_{i+1}
        if i == 0:
            targets = [t % low for t in tuples]
        else:
            targets = []
            for t in tuples:
                head, rest = divmod(t, low * order * order)
                a, rest = divmod(rest, low * order)
                b, tail = divmod(rest, low)
                targets.append((head * order + g.mul[a][b]) * low + tail)
        yield (u * size + x
               for u, x in itertools.product(targets, range(size)))
    moves = [sa.maps[gi][n] for gi in range(order)]
    yield (t // order * size + x for t in tuples for x in moves[t % order])


def base_faces(sa: SimplicialGAction, p: int, n: int):
    """Yield the n + 1 base faces G^p x X_n -> G^p x X_(n-1), each an
    iterator over the source cells: (g_1, .., g_p, x) -> (g_1, .., g_p,
    d_j x)."""
    prev = sa.space.size(n - 1)
    tuples = range(sa.group.order ** p)
    for face in sa.space.faces[n]:
        yield (t * prev + y for t, y in itertools.product(tuples, face))


def _interned(faces, ints):
    """Each face as a tuple whose entries are the shared objects of ints,
    so the stored tables hold one int object per target cell."""
    for face in faces:
        yield tuple(map(ints.__getitem__, face))


def borel_object(sa: SimplicialGAction,
                 n_top: int | None = None) -> SemiSimplicialSet:
    """Diagonal homotopy-quotient object: level n = G^n x X_n, whose
    level-0 cells are those of X_0.

    d_i is bar face i after base face i, composed one face at a time.
    """
    s = sa.space
    g = sa.group
    if n_top is None:
        n_top = s.trunc
    if n_top > s.trunc:
        raise InvariantViolation("base space truncated too low")
    cells = [tuple((gs, x) for gs in _tuples(g, n) for x in range(s.size(n)))
             for n in range(n_top + 1)]
    ints = list(range(max(map(len, cells[:-1]), default=0)))
    faces = [()] + [tuple(tuple(bar[c] for c in base) for bar, base in
                          zip(_interned(bar_faces(sa, n, n - 1), ints),
                              base_faces(sa, n, n)))
                    for n in range(1, n_top + 1)]
    try:
        space = SemiSimplicialSet(tuple(cells), tuple(faces))
    except SimplicialIdentityFailure as exc:
        raise SimplicialIdentityFailure(
            f"homotopy-quotient faces are inconsistent: {exc}") from exc
    if space.size(0) != s.size(0):
        raise InvariantViolation(
            f"homotopy quotient has {space.size(0)} vertices, the base "
            f"{s.size(0)}")
    return space


def borel_bisimplicial(sa: SimplicialGAction, n_top: int | None = None,
                       max_total: int | None = None) -> BiSemiSimplicialSet:
    """Bisimplicial object with cells (p, n) = G^p x X_n.

    Horizontal faces are bar_faces, vertical faces base_faces.  max_total
    empties the blocks with p + n beyond it; faces only ever lower the
    total, so the cut object stays valid and all certified degrees are
    unchanged.
    """
    s = sa.space
    g = sa.group
    if n_top is None:
        n_top = s.trunc

    def kept(p, n):
        return max_total is None or p + n <= max_total

    ints = list(range(max(g.order ** p * s.size(n) for p in range(n_top + 1)
                          for n in range(n_top + 1) if kept(p, n))))

    def stored(faces, p, n, count):
        return tuple(_interned(faces, ints)) if kept(p, n) else ((),) * count

    cells, faces_h, faces_v = {}, {}, {}
    for p in range(n_top + 1):
        tup = _tuples(g, p) if kept(p, 0) else ()
        for n in range(n_top + 1):
            cells[(p, n)] = tuple((gs, x) for gs in tup
                                  for x in range(s.size(n))) \
                if kept(p, n) else ()
            if p >= 1:
                faces_h[(p, n)] = stored(bar_faces(sa, p, n), p, n, p + 1)
            if n >= 1:
                faces_v[(p, n)] = stored(base_faces(sa, p, n), p, n, n + 1)
    try:
        return BiSemiSimplicialSet(n_top, n_top, cells, faces_h, faces_v)
    except SimplicialIdentityFailure as exc:
        raise SimplicialIdentityFailure(
            f"bisimplicial faces are inconsistent: {exc}") from exc


def equivariant_cohomology(a, field: Field, degrees, n_top: int | None = None,
                           check_total: bool = False) -> list[int]:
    """Betti numbers of the homotopy quotient in the given degrees.

    Computed from the diagonal object; with check_total the totalization
    of the bisimplicial double complex is computed as well and equality is
    asserted degree by degree.  H^n reads levels n - 1..n + 1 only, so
    both objects are built up to max(degrees) + 1; n_top (default
    max(degrees) + 2) is the truncation the action must reach and a
    ceiling: degrees at or above it are refused.
    """
    degrees = list(degrees)
    if n_top is None:
        n_top = max(degrees) + 2
    top = min(max([0, *degrees]) + 1, n_top)
    # a simplicial action must reach n_top; an atlas nerve is built to top
    sa = as_simplicial_action(
        a, n_top if isinstance(a, SimplicialGAction) else top)
    complex_diag = cochains(borel_object(sa, top), field)
    dims = [cohomology(complex_diag, n) for n in degrees]
    del complex_diag    # not held while the totalization is built
    if check_total:
        bis = borel_bisimplicial(sa, n_top, max_total=top)
        tot = total_complex(total_cochains(bis, field))
        for n, expected in zip(degrees, dims):
            got = cohomology(tot, n, override=True)
            if got != expected:
                raise InvariantViolation(
                    f"diagonal and totalization disagree in degree {n}: "
                    f"{expected} vs {got}")
    return dims


def transformation_groupoid(group: FiniteGroup, perms) -> FiniteGroupoid:
    """Objects: the set; morphisms (g, x): x -> g.x with bar-compatible comp."""
    perms = tuple(tuple(p) for p in perms)
    npts = len(perms[0]) if perms else 0
    _check_permutation_action(group, perms, npts, InvariantViolation)
    mor = [(gi, x) for gi in range(group.order) for x in range(npts)]
    index = {m: i for i, m in enumerate(mor)}
    src = tuple(x for (_, x) in mor)
    tgt = tuple(perms[gi][x] for (gi, x) in mor)
    comp = {}
    for a_idx, (g2, y) in enumerate(mor):
        for b_idx, (g1, x) in enumerate(mor):
            if y == perms[g1][x]:
                comp[(a_idx, b_idx)] = index[(group.mul[g2][g1], x)]
    return FiniteGroupoid(tuple(range(npts)), src, tgt, comp)


def set_action_on_trivial_groupoid(group: FiniteGroup, perms) -> GroupoidAction:
    """The same set action, packaged as an action on the trivial groupoid."""
    perms = tuple(perms)
    atlas = trivial_groupoid(len(perms[0]) if perms else 0)
    return GroupoidAction(group, atlas, perms, perms)


def trivial_action(group: FiniteGroup, atlas: FiniteGroupoid) -> GroupoidAction:
    obj = tuple(tuple(range(atlas.n_objects)) for _ in range(group.order))
    mor = tuple(tuple(range(atlas.n_morphisms)) for _ in range(group.order))
    return GroupoidAction(group, atlas, obj, mor)


def orbit_space(sa: SimplicialGAction) -> SemiSimplicialSet:
    """Level-wise quotient; models the honest quotient for free actions."""
    s = sa.space
    g = sa.group
    cells = []
    reps = []
    orbit_of = []
    for n in range(s.trunc + 1):
        seen = {}
        level_reps = []
        level_orbit = []
        for c in range(s.size(n)):
            orbit = min(sa.act(gi, n, c) for gi in range(g.order))
            if orbit not in seen:
                seen[orbit] = len(level_reps)
                level_reps.append(orbit)
            level_orbit.append(seen[orbit])
        reps.append(level_reps)
        orbit_of.append(level_orbit)
        cells.append(tuple(s.cells[n][r] for r in level_reps))
    faces = [()]
    for n in range(1, s.trunc + 1):
        faces.append(tuple(tuple(orbit_of[n - 1][s.face(n, i, r)]
                                 for r in reps[n]) for i in range(n + 1)))
    return SemiSimplicialSet(tuple(cells), tuple(faces))


def is_free(sa: SimplicialGAction) -> bool:
    g = sa.group
    return not any(sa.act(gi, n, c) == c
                   for n in range(sa.space.trunc + 1)
                   for gi in range(g.order) if gi != g.identity
                   for c in range(sa.space.size(n)))
