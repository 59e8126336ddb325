"""Group cohomology via inhomogeneous (bar) cochains.

The coboundary follows the two-sided bar convention used by the
homotopy-quotient face maps: the leading face drops the first argument,
inner faces multiply adjacent arguments with alternating signs, and the
last face acts on the value through rho(g^-1).  With this convention the
bar complex of a trivial module is entry-for-entry the cochain complex of
the one-object groupoid nerve.

Everything here is an oracle for the spectral routes: bar_complex and
action_on_cohomology never read a Borel double complex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvariantViolation, RepresentativeDriftError
from .exactalg import Field, Mat
from .errors import NoSolution
from .homalg import CochainComplex, induced_cohomology_matrix
from .simplicial import cochains
from .stackact import FiniteGroup, as_simplicial_action


@dataclass
class GModule:
    """Finite-dimensional representation given by one matrix per element."""

    group: FiniteGroup
    field: Field
    dim: int
    rho: tuple

    def __post_init__(self):
        self.rho = tuple(self.rho)
        self.validate()

    def validate(self):
        g = self.group
        if len(self.rho) != g.order:
            raise InvariantViolation("one matrix per group element required")
        for m in self.rho:
            if m.shape != (self.dim, self.dim):
                raise InvariantViolation("representation matrix shape")
            if m.field != self.field:
                raise InvariantViolation("representation field mismatch")
        if self.rho[g.identity] != Mat.identity(self.dim, self.field):
            raise InvariantViolation("rho(e) != id")
        for a in range(g.order):
            for b in range(g.order):
                if self.rho[a] * self.rho[b] != self.rho[g.mul[a][b]]:
                    raise InvariantViolation(
                        f"rho({g.elements[a]}) rho({g.elements[b]}) != "
                        f"rho({g.elements[g.mul[a][b]]})")


def trivial_module(group: FiniteGroup, field: Field, dim: int = 1) -> GModule:
    ident = Mat.identity(dim, field)
    return GModule(group, field, dim, tuple(ident for _ in range(group.order)))


def restrict_module(m: GModule, members: list, sub: FiniteGroup) -> GModule:
    """Restriction along a subgroup given by its member indices."""
    return GModule(sub, m.field, m.dim, tuple(m.rho[i] for i in members))


def kron(a: Mat, b: Mat) -> Mat:
    entries = {}
    for (i, j), u in a.entries.items():
        for (k, l), v in b.entries.items():
            entries[(i * b.rows + k, j * b.cols + l)] = u * v
    return Mat(a.rows * b.rows, a.cols * b.cols, entries, a.field)


def module_tensor(a: GModule, b: GModule) -> GModule:
    """Diagonal action on the tensor product."""
    if a.group != b.group or a.field != b.field:
        raise InvariantViolation("tensor of modules over different groups")
    mats = tuple(kron(a.rho[gi], b.rho[gi]) for gi in range(a.group.order))
    return GModule(a.group, a.field, a.dim * b.dim, mats)


def bar_complex(m: GModule, n_top: int) -> CochainComplex:
    """Inhomogeneous cochains G^p -> M, truncated at degree n_top.

    Basis: p-tuples in lexicographic element order, module coordinate minor.
    """
    g = m.group
    field = m.field
    order = g.order
    dims = [order ** p * m.dim for p in range(n_top + 1)]
    tuples = [list(itertools.product(range(order), repeat=p))
              for p in range(n_top + 1)]
    index = [{t: i for i, t in enumerate(level)} for level in tuples]
    diffs = []
    for p in range(n_top):
        entries = {}

        def add(row, col, value):
            entries[(row, col)] = entries.get((row, col), 0) + value

        for t_idx, t in enumerate(tuples[p + 1]):
            row_base = t_idx * m.dim
            col = index[p][t[1:]]
            for r in range(m.dim):
                add(row_base + r, col * m.dim + r, 1)
            for i in range(1, p + 1):
                merged = t[:i - 1] + (g.mul[t[i - 1]][t[i]],) + t[i + 1:]
                col = index[p][merged]
                sign = -1 if i % 2 else 1
                for r in range(m.dim):
                    add(row_base + r, col * m.dim + r, sign)
            col = index[p][t[:p]]
            sign = -1 if (p + 1) % 2 else 1
            twist = m.rho[g.inverse(t[p])]
            for (r, c), v in twist.entries.items():
                add(row_base + r, col * m.dim + c, sign * v)
        diffs.append(Mat(dims[p + 1], dims[p], entries, field))
    return CochainComplex(field, tuple(dims), tuple(diffs),
                          boundary_degree=n_top)


def cochain_action_matrix(sa, field: Field, n: int) -> list:
    """Left action of each group element on level-n cochains (pullback by
    the inverse level map)."""
    mats = []
    size = sa.space.size(n)
    for gi in range(sa.group.order):
        inv = sa.group.inverse(gi)
        entries = {}
        for c in range(size):
            entries[(c, sa.act(inv, n, c))] = 1
        mats.append(Mat(size, size, entries, field))
    return mats


def action_on_cohomology(a, field: Field, n: int,
                         n_top: int | None = None) -> GModule:
    """Induced module structure on H^n of the underlying space.

    Representatives are the deterministic cocycle complement; the matrices
    of all group elements are solved inside ker(d) against the image basis
    plus representatives (homalg.induced_cohomology_matrix).
    """
    if n_top is None:
        n_top = n + 2
    sa = as_simplicial_action(a, n_top)
    complex_ = cochains(sa.space, field)
    try:
        rho = induced_cohomology_matrix(
            complex_, n, cochain_action_matrix(sa, field, n))
    except NoSolution as exc:
        raise RepresentativeDriftError(
            f"an induced map left the tracked cocycle space in degree "
            f"{n}") from exc
    try:
        return GModule(sa.group, field, rho[0].rows, tuple(rho))
    except InvariantViolation as exc:
        raise RepresentativeDriftError(str(exc)) from exc
