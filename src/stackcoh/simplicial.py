"""Truncated semi-simplicial sets, finite groupoids, nerves and cochains.

Only face maps are stored: the homotopy type in use is the fat geometric
realisation, which quotients by face relations alone, so degeneracy data
would be dead weight.  Each object is checked once, at construction:
__post_init__ runs the exhaustive face-identity (or groupoid-axiom)
check, so consumers such as cochains and total_cochains trust what they
are handed.  The identities d_i d_j = d_{j-1} d_i of a semi-simplicial
set and of both directions of a bisimplicial set are checked by one
routine, _face_identities, on the stored face tables.  A groupoid is
given by its composition table alone: its check finds the identities
and inverses, which no builder works out by hand.

Cells are kept as opaque, canonically ordered labels; a nerve cell at
level n is the tuple of its n morphism indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InvariantViolation, SimplicialIdentityFailure, TruncationMismatch,
)
from .exactalg import Field, Mat
from .homalg import CochainComplex, DoubleComplex


@dataclass
class SemiSimplicialSet:
    """Truncated face-only simplicial object.

    cells[n] lists the level-n cell labels; faces[n][i][c] is the index in
    cells[n-1] of the i-th face (0 <= i <= n) of cell c.  faces[0] is empty.
    """

    cells: tuple
    faces: tuple

    def __post_init__(self):
        self.cells = tuple(tuple(level) for level in self.cells)
        self.faces = tuple(tuple(tuple(fm) for fm in level)
                           for level in self.faces)
        if len(self.faces) != len(self.cells):
            raise InvariantViolation("faces and cells level counts differ")
        for n in range(1, len(self.cells)):
            if len(self.faces[n]) != n + 1:
                raise SimplicialIdentityFailure(
                    f"level {n} must have {n + 1} face maps")
            for i, fm in enumerate(self.faces[n]):
                if len(fm) != len(self.cells[n]):
                    raise SimplicialIdentityFailure(
                        f"face map {i} at level {n} has wrong length")
                for target in fm:
                    if not 0 <= target < len(self.cells[n - 1]):
                        raise SimplicialIdentityFailure(
                            f"face target out of range at level {n}")
        self.validate()

    @property
    def trunc(self) -> int:
        return len(self.cells) - 1

    def size(self, n: int) -> int:
        return len(self.cells[n]) if 0 <= n <= self.trunc else 0

    def face(self, n: int, i: int, c: int) -> int:
        return self.faces[n][i][c]

    def validate(self):
        """Exhaustive check of the identities d_i d_j = d_{j-1} d_i, i < j."""
        for n in range(2, self.trunc + 1):
            _face_identities(
                self.faces[n], self.faces[n - 1],
                lambda i, j, c: f"d_{i} d_{j} != d_{j - 1} d_{i} "
                                f"on cell {c} at level {n}")


def _face_identities(upper, lower, message):
    """Check d_i d_j = d_{j-1} d_i (i < j) on every cell of one level.

    upper[i][c] is the i-th face of cell c, lower[i] the i-th face map of
    the level below; message(i, j, c) words a failure.
    """
    for j in range(1, len(upper)):
        for i in range(j):
            lower_i, lower_j = lower[i], lower[j - 1]
            for c, (a, b) in enumerate(zip(upper[j], upper[i])):
                if lower_i[a] != lower_j[b]:
                    raise SimplicialIdentityFailure(message(i, j, c))


@dataclass
class FiniteGroupoid:
    """Finite groupoid: comp[(a, b)] = a after b, defined iff src(a) = tgt(b).

    validate() finds the identity ids[x] of each object and the inverse
    inv[m] of each morphism, and keeps them.
    """

    objects: tuple
    mor_src: tuple
    mor_tgt: tuple
    comp: dict

    def __post_init__(self):
        self.validate()

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.mor_src)

    def validate(self):
        """The groupoid axioms; the one check of group axioms as well,
        since a group is checked as its one-object groupoid."""
        n_obj, n_mor = self.n_objects, self.n_morphisms
        src, tgt, comp = self.mor_src, self.mor_tgt, self.comp
        for m in range(n_mor):
            if not (0 <= src[m] < n_obj and 0 <= tgt[m] < n_obj):
                raise InvariantViolation(f"morphism {m} endpoints out of range")
        for (a, b), c in comp.items():
            if src[a] != tgt[b]:
                raise InvariantViolation(f"comp defined on non-composable ({a},{b})")
            if src[c] != src[b] or tgt[c] != tgt[a]:
                raise InvariantViolation(f"comp endpoints wrong at ({a},{b})")
        into = [[] for _ in range(n_obj)]     # morphisms by target
        for m in range(n_mor):
            into[tgt[m]].append(m)
        if len(comp) != sum(len(into[src[a]]) for a in range(n_mor)):
            raise InvariantViolation("comp is not defined on every "
                                     "composable pair")
        # in a groupoid the only idempotent loop at x is its identity
        ids = [None] * n_obj
        for m in range(n_mor):
            if src[m] == tgt[m] and ids[src[m]] is None and comp[(m, m)] == m:
                ids[src[m]] = m
        if None in ids:
            raise InvariantViolation(
                f"object {ids.index(None)} has no identity morphism")
        inv = []
        for m in range(n_mor):
            if comp[(m, ids[src[m]])] != m:
                raise InvariantViolation(f"right identity fails at {m}")
            if comp[(ids[tgt[m]], m)] != m:
                raise InvariantViolation(f"left identity fails at {m}")
            inv.append(next((i for i in into[src[m]] if src[i] == tgt[m]
                             and comp[(i, m)] == ids[src[m]]
                             and comp[(m, i)] == ids[tgt[m]]), None))
            if inv[m] is None:
                raise InvariantViolation(f"morphism {m} has no inverse")
        for (a, b), ab in comp.items():
            for c in into[src[b]]:
                if comp[(ab, c)] != comp[(a, comp[(b, c)])]:
                    raise InvariantViolation(
                        f"associativity fails at ({a},{b},{c})")
        self.ids, self.inv = tuple(ids), tuple(inv)


def trivial_groupoid(k: int) -> FiniteGroupoid:
    """Disjoint union of k points: only identity morphisms."""
    comp = {(m, m): m for m in range(k)}
    return FiniteGroupoid(tuple(range(k)), tuple(range(k)), tuple(range(k)),
                          comp)


def pair_groupoid(k: int) -> FiniteGroupoid:
    """Objects 0..k-1 with exactly one morphism between any ordered pair."""
    objects = tuple(range(k))
    mor = [(i, j) for i in range(k) for j in range(k)]  # (tgt, src) pairs
    index = {m: idx for idx, m in enumerate(mor)}
    src = tuple(s for (_, s) in mor)
    tgt = tuple(t for (t, _) in mor)
    comp = {}
    for a, (ta, sa) in enumerate(mor):
        for b, (tb, sb) in enumerate(mor):
            if sa == tb:
                comp[(a, b)] = index[(ta, sb)]
    return FiniteGroupoid(objects, src, tgt, comp)


def nerve(g: FiniteGroupoid, n_top: int) -> SemiSimplicialSet:
    """Composable chains (m_1, .., m_n) with src(m_i) = tgt(m_{i+1}).

    d_0 drops the first arrow, d_n the last (moving the base point), inner
    faces compose adjacent arrows.
    """
    cells = [tuple(("obj", x) for x in range(g.n_objects))]
    extendable = {x: [m for m in range(g.n_morphisms) if g.mor_tgt[m] == x]
                  for x in range(g.n_objects)}
    level = [(m,) for m in range(g.n_morphisms)]
    for n in range(1, n_top + 1):
        cells.append(tuple(level))
        nxt = []
        for chain in level:
            last_src = g.mor_src[chain[-1]]
            for m in extendable[last_src]:
                nxt.append(chain + (m,))
        level = nxt

    faces = [()]
    for n in range(1, n_top + 1):
        prev_index = {c: i for i, c in enumerate(cells[n - 1])}
        level_faces = []
        for i in range(n + 1):
            fm = []
            for chain in cells[n]:
                if n == 1:
                    m = chain[0]
                    target = ("obj", g.mor_src[m] if i == 0 else g.mor_tgt[m])
                elif i == 0:
                    target = chain[1:]
                elif i == n:
                    target = chain[:-1]
                else:
                    target = chain[:i - 1] + (g.comp[(chain[i - 1], chain[i])],) \
                        + chain[i + 1:]
                fm.append(prev_index[target])
            level_faces.append(tuple(fm))
        faces.append(tuple(level_faces))
    return SemiSimplicialSet(tuple(cells), tuple(faces))


def _face_sum(face_maps, rows: int, cols: int, module_dim: int,
              field: Field, twist=None) -> Mat:
    """The alternating face sum  sum_i (-1)^i d_i^*  on module_dim-valued
    cochains; face_maps[i] gives the i-th face of each source cell in
    order (a table or an iterator).  twist, when given, maps a source
    cell c to the matrix through which the last face carries the value
    (a local coefficient system).  It runs face by face, and a plain
    face of scalar cochains adds +-1 at (cell, target) directly."""
    entries = {}
    last = len(face_maps) - 1 if twist is not None else -1
    for i, faces in enumerate(face_maps):
        sign = -1 if i % 2 else 1
        if i == last:
            for c, tgt in enumerate(faces):
                for (r, k), v in twist(c).entries.items():
                    key = (c * module_dim + r, tgt * module_dim + k)
                    entries[key] = entries.get(key, 0) + sign * v
        elif module_dim == 1:
            for key in enumerate(faces):
                entries[key] = entries.get(key, 0) + sign
        else:
            for c, tgt in enumerate(faces):
                for t in range(module_dim):
                    key = (c * module_dim + t, tgt * module_dim + t)
                    entries[key] = entries.get(key, 0) + sign
    return Mat(rows, cols, entries, field)


def cochains(s: SemiSimplicialSet, field: Field) -> CochainComplex:
    """Field-valued cochains; the differential is the alternating face sum."""
    dims = [s.size(n) for n in range(s.trunc + 1)]
    diffs = [_face_sum(s.faces[n + 1], dims[n + 1], dims[n], 1, field)
             for n in range(s.trunc)]
    return CochainComplex(field, tuple(dims), tuple(diffs),
                          boundary_degree=s.trunc)


@dataclass
class BiSemiSimplicialSet:
    """Bi-truncated face-only bisimplicial object.

    cells[(p, n)] lists cells; faces_h[(p, n)][i] maps to (p-1, n) for
    0 <= i <= p, faces_v[(p, n)][j] maps to (p, n-1) for 0 <= j <= n.
    """

    trunc_h: int
    trunc_v: int
    cells: dict
    faces_h: dict
    faces_v: dict

    def __post_init__(self):
        self.validate()

    def size(self, p: int, n: int) -> int:
        if 0 <= p <= self.trunc_h and 0 <= n <= self.trunc_v:
            return len(self.cells[(p, n)])
        return 0

    def validate(self):
        for p in range(self.trunc_h + 1):
            for n in range(self.trunc_v + 1):
                count = self.size(p, n)
                for axis, faces, k, below in (
                        ("horizontal", self.faces_h, p, (p - 1, n)),
                        ("vertical", self.faces_v, n, (p, n - 1))):
                    if k < 1:
                        continue
                    maps = faces[(p, n)]
                    if len(maps) != k + 1:
                        raise SimplicialIdentityFailure(
                            f"{axis} face count at {(p, n)}")
                    # zip in _face_identities stops at the shorter map
                    size = self.size(*below)
                    for i, fm in enumerate(maps):
                        if len(fm) != count or \
                                fm and not 0 <= min(fm) <= max(fm) < size:
                            raise SimplicialIdentityFailure(
                                f"{axis} face map {i} at {(p, n)} has wrong "
                                "length or target out of range")
                    if k >= 2:
                        _face_identities(
                            maps, faces[below],
                            lambda i, j, c: f"{axis} identity at {(p, n)}")
                if p >= 1 and n >= 1:
                    # d^v_j d^h_i = d^h_i d^v_j
                    left, below = self.faces_v[(p - 1, n)], \
                        self.faces_h[(p, n - 1)]
                    for i, fh in enumerate(self.faces_h[(p, n)]):
                        for j, fv in enumerate(self.faces_v[(p, n)]):
                            left_j, below_i = left[j], below[i]
                            for a, b in zip(fh, fv):
                                if left_j[a] != below_i[b]:
                                    raise SimplicialIdentityFailure(
                                        f"faces do not commute at {(p, n)}")


def diagonal(b: BiSemiSimplicialSet) -> SemiSimplicialSet:
    """Levels (n, n) with d_i = d_i^H d_i^V; truncations must agree."""
    if b.trunc_h != b.trunc_v:
        raise TruncationMismatch(
            f"trunc_h={b.trunc_h} != trunc_v={b.trunc_v}")
    n_top = b.trunc_h
    cells = [tuple(b.cells[(n, n)]) for n in range(n_top + 1)]
    faces = [()]
    for n in range(1, n_top + 1):
        level_faces = []
        for i in range(n + 1):
            face_h = b.faces_h[(n, n - 1)][i]
            level_faces.append(tuple(face_h[v]
                                     for v in b.faces_v[(n, n)][i]))
        faces.append(tuple(level_faces))
    return SemiSimplicialSet(tuple(cells), tuple(faces))


def total_cochains(b: BiSemiSimplicialSet, field: Field) -> DoubleComplex:
    """Functions on cells[(p, n)] with commuting alternating-sum differentials.

    The truncation flag marks total degrees >= min(trunc) - 1 as
    boundary-unreliable for spectral sequence reports.
    """
    dims = {(p, n): b.size(p, n)
            for p in range(b.trunc_h + 1) for n in range(b.trunc_v + 1)}
    d_h, d_v = {}, {}
    for p in range(b.trunc_h):
        for n in range(b.trunc_v + 1):
            d_h[(p, n)] = _face_sum(b.faces_h[(p + 1, n)], dims[(p + 1, n)],
                                    dims[(p, n)], 1, field)
    for p in range(b.trunc_h + 1):
        for n in range(b.trunc_v):
            d_v[(p, n)] = _face_sum(b.faces_v[(p, n + 1)], dims[(p, n + 1)],
                                    dims[(p, n)], 1, field)

    return DoubleComplex(field, (0, b.trunc_h), (0, b.trunc_v), dims, d_h, d_v,
                         boundary_total_degree=min(b.trunc_h, b.trunc_v) - 1)


def cycle_space(k: int, n_top: int) -> SemiSimplicialSet:
    """The k-gon graph with its degenerate simplices up to level n_top.

    Level n holds the k vertex cells ("v", i) and, for each directed edge
    i -> i+1 and jump position 1 <= j <= n, the cell ("e", i, j); the fat
    realisation has the homotopy type of the circle for every k >= 2 and
    the cochain cohomology is (1, 1, 0, ...) in certified degrees.
    """
    if k < 2:
        raise ValueError("k >= 2 required")
    cells = []
    faces = [()]
    for n in range(n_top + 1):
        level = [("v", i) for i in range(k)]
        if n >= 1:
            level += [("e", i, j) for i in range(k) for j in range(1, n + 1)]
        cells.append(tuple(level))
    for n in range(1, n_top + 1):
        prev_index = {c: i for i, c in enumerate(cells[n - 1])}
        level_faces = []
        for l in range(n + 1):
            fm = []
            for cell in cells[n]:
                if cell[0] == "v":
                    fm.append(prev_index[cell])
                    continue
                _, i, j = cell
                if l < j:
                    target = ("v", (i + 1) % k) if j == 1 else ("e", i, j - 1)
                else:
                    target = ("v", i) if (j == n and l == n) else ("e", i, j)
                fm.append(prev_index[target])
            level_faces.append(tuple(fm))
        faces.append(tuple(level_faces))
    return SemiSimplicialSet(tuple(cells), tuple(faces))
