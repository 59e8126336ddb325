"""Group-cochain model in the discrete regime.

Cochains are maps G^p -> (total simplicial cochain space with module
values).  The group coboundary drops the first argument, multiplies
adjacent arguments with alternating signs, and twists the last slot
through the action on both the base point and the module; the companion
contraction operator differentiates along one-parameter subgroups and is
identically zero here because the Lie algebra is zero.  The total
differential follows the displayed sign pattern (group coboundary plus
(-1)^p times the simplicial one), which is exactly the total complex of
the transposed Borel double complex; homalg.TotalLayout, the one
totalization, assembles it and CochainComplex checks its square.

Routes and oracles: dbar acts element-wise on cochain tables and never
reads the double complex, so it is the oracle of dbar_matrix, which is
read off the Borel blocks.  getzler_total_cohomology is a route, checked
against the homotopy-quotient computation of stackact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    DegreeMismatch, InvariantViolation, UnsupportedRegime,
)
from .exactalg import Mat, reduced
from .homalg import CochainComplex, cohomology, total_complex
from .spectra import borel_double_complex


@dataclass
class GetzlerContext:
    """Ambient data: action, coefficient module, truncation."""

    sa: object            # SimplicialGAction
    module: object        # GModule over the same group
    n_top: int

    def __post_init__(self):
        if self.module.group != self.sa.group:
            raise InvariantViolation("module group does not match the action")
        s = self.sa.space
        self.sizes = [s.size(n) for n in range(self.n_top + 1)]
        self.offsets = []
        off = 0
        for n in range(self.n_top + 1):
            self.offsets.append(off)
            off += self.sizes[n] * self.module.dim
        self.value_dim = off
        self._dc = None

    def value_index(self, n: int, cell: int, coord: int = 0) -> int:
        return self.offsets[n] + cell * self.module.dim + coord

    def value_component(self, index: int):
        for n in range(self.n_top, -1, -1):
            if index >= self.offsets[n]:
                rest = index - self.offsets[n]
                return n, rest // self.module.dim, rest % self.module.dim
        raise IndexError(index)

    def double_complex(self):
        if self._dc is None:
            self._dc = borel_double_complex(self.sa, self.module, self.n_top)
        return self._dc

    def twist(self, gi: int, vec: dict) -> dict:
        """Left action of gi^-1 on module-valued cochains: pull the base
        point through gi and the value through rho(gi^-1)."""
        g = self.sa.group
        rho = self.module.rho[g.inverse(gi)]
        out = {}
        for idx, v in vec.items():
            n, cell, coord = self.value_component(idx)
            moved = self.sa.act(gi, n, cell)
            for (r, c), u in rho.entries.items():
                if c != coord:
                    continue
                key = self.value_index(n, moved, r)
                out[key] = out.get(key, 0) + u * v
        return reduced(out, self.module.field)


@dataclass
class GetzlerCochain:
    """Table of value vectors indexed by p-tuples of group elements.

    The total-degree bookkeeping is s = p + m + n with m = 0 in this
    set-level model (no positive form degree) and no polynomial part.
    Construction reduces the values into the module's field and drops
    zeros, so dbar accumulates plain sums.
    """

    ctx: GetzlerContext
    p: int
    table: dict

    def __post_init__(self):
        clean = {}
        for t, vec in self.table.items():
            if len(t) != self.p:
                raise DegreeMismatch(
                    f"table key {t} does not have length {self.p}")
            vec = reduced(vec, self.ctx.module.field)
            if vec:
                clean[t] = vec
        self.table = clean

    def value(self, t: tuple) -> dict:
        return dict(self.table.get(tuple(t), {}))

    def is_zero(self) -> bool:
        return not self.table

    def __eq__(self, other):
        return (isinstance(other, GetzlerCochain) and self.p == other.p
                and self.ctx is other.ctx and self.table == other.table)


def dbar(f_cochain: GetzlerCochain) -> GetzlerCochain:
    """Group coboundary: raise the group degree by one.

    (dbar f)(g_1..g_{p+1}) = f(g_2..) + sum_i (-1)^i f(.., g_i g_{i+1}, ..)
    + (-1)^{p+1} (g_{p+1}^{-1} . f(g_1..g_p)).
    """
    ctx = f_cochain.ctx
    g = ctx.sa.group
    p = f_cochain.p
    out = {}

    def add_into(t, vec, sign):
        acc = out.setdefault(t, {})
        for i, v in vec.items():
            acc[i] = acc.get(i, 0) + sign * v

    for t in itertools.product(range(g.order), repeat=p + 1):
        add_into(t, f_cochain.value(t[1:]), 1)
        for i in range(1, p + 1):
            merged = t[:i - 1] + (g.mul[t[i - 1]][t[i]],) + t[i + 1:]
            add_into(t, f_cochain.value(merged), -1 if i % 2 else 1)
        twisted = ctx.twist(t[p], f_cochain.value(t[:p]))
        add_into(t, twisted, -1 if (p + 1) % 2 else 1)
    return GetzlerCochain(ctx, p + 1, out)


def iota_bar(f_cochain: GetzlerCochain, lie=None) -> GetzlerCochain:
    """Contraction along the Lie algebra: zero in the discrete regime.

    Rejects positive-dimensional Lie data instead of approximating the
    smooth cochain spaces it would require.
    """
    if lie is not None and getattr(lie, "dim", 0) > 0:
        raise UnsupportedRegime(
            "contraction requires a zero-dimensional Lie algebra here")
    if f_cochain.p == 0:
        return GetzlerCochain(f_cochain.ctx, 0, {})
    return GetzlerCochain(f_cochain.ctx, f_cochain.p - 1, {})


def total_differential_matrices(ctx: GetzlerContext,
                                max_total: int) -> tuple:
    """Degree-s matrices of dbar + (-1)^p d_simplicial on the graded pieces.

    This is the total complex of the transposed Borel double complex, so
    TotalLayout lays block (p, n) out at total degree p + n in ascending
    simplicial level n, and CochainComplex checks that D^2 = 0.  Blocks
    above max_total are never built, so D^n is exact for n < max_total:
    H^n reads total degrees n - 1..n + 1, and a caller asking for degrees
    up to d passes max_total = d + 1.  Returns (dims, diffs).
    """
    dc = borel_double_complex(ctx.sa, ctx.module, ctx.n_top,
                              max_total=max_total)
    total = total_complex(dc.transpose())
    return total.dims, total.diffs


def getzler_total_cohomology(a, coeff, degrees, n_top: int | None = None) -> list:
    """Cohomology of the total complex, degree by degree.

    Agrees with the homotopy-quotient computation exactly; the assembly
    uses the displayed sign placement and the squared differential is
    checked mechanically.  The blocks are built up to total degree
    max(degrees) + 1, which is all the asked degrees read; n_top (default
    max(degrees) + 2) is the truncation the action must reach and a
    ceiling: degrees at or above it are refused.
    """
    from .spectra import _as_module
    from .stackact import SimplicialGAction, as_simplicial_action
    degrees = list(degrees)
    if n_top is None:
        n_top = max(degrees) + 2
    top = min(max([0, *degrees]) + 1, n_top)
    # a simplicial action must reach n_top; an atlas nerve is built to top
    sa = as_simplicial_action(
        a, n_top if isinstance(a, SimplicialGAction) else top)
    module = _as_module(coeff, sa.group)
    ctx = GetzlerContext(sa, module, n_top)
    dims, diffs = total_differential_matrices(ctx, max_total=top)
    complex_ = CochainComplex(module.field, dims, diffs, boundary_degree=top)
    return [cohomology(complex_, s) for s in degrees]


def dbar_matrix(ctx: GetzlerContext, p: int) -> Mat:
    """Matrix of dbar on full-table cochains of group degree p.

    Block-diagonal over the simplicial levels: exactly the horizontal
    differentials of the underlying double complex.
    """
    dc = ctx.double_complex()
    order = ctx.sa.group.order
    field = ctx.module.field
    src_dim = (order ** p) * ctx.value_dim
    dst_dim = (order ** (p + 1)) * ctx.value_dim
    entries = {}
    for n in range(ctx.n_top + 1):
        block = dc.dh(p, n)
        src_cells = ctx.sizes[n] * ctx.module.dim
        dst_cells = src_cells
        for (r, c), v in block.entries.items():
            t_dst, rest_dst = divmod(r, dst_cells)
            t_src, rest_src = divmod(c, src_cells)
            row = t_dst * ctx.value_dim + ctx.offsets[n] + rest_dst
            col = t_src * ctx.value_dim + ctx.offsets[n] + rest_src
            entries[(row, col)] = v
    return Mat(dst_dim, src_dim, entries, field)
