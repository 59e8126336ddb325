"""Bounded cochain complexes, double complexes, totalization.

Double complexes are stored with commuting differentials; the sign
(-1)^q on the horizontal differential is inserted at totalization.  A
double complex is checked once, as its total: D^2 = 0 there holds
exactly when d_h^2 = 0, d_v^2 = 0 and d_v d_h = d_h d_v hold block by
block, so CochainComplex's check is the one check of all three.
Complexes built from truncated simplicial data carry a boundary degree:
cohomology at or beyond it is refused unless explicitly overridden.

TotalLayout.total_matrix is the one totalization, with two callers:
total_complex and spectra.borel_hyper_complex.  Every total complex goes
through total_complex: the one that spectra.pages builds once per run
(and reads its D^n, its H^n and convergence from), the Getzler model
(the transposed Borel complex) and the Cartan model.
spectra.borel_hyper_complex totalizes each face (a Borel axis against
the coefficient degree) of the Borel complex of a coefficient complex.

Routes and their oracles: the subquotient pages of spectra.pages and
its rank table check each other; the E_infinity of either is checked
against H^n of the total, ranked by the total's own pass
(CochainComplex.rank_through), which reads none of the rank table's
pairs.  Every cohomology dimension without reps, in the Borel, Getzler
and Cartan routes and in the oracles' bar complexes, reads that pass of
its complex, and a lone matrix is ranked by exactalg.rank.  The E_1 /
E_2 identifications are checked by spectra.quotient_cohomology_oracle
and groupcoh.bar_complex, which never build a double complex; the
element-wise getzler.dbar checks the Borel blocks behind
getzler.dbar_matrix.  Every Borel route takes its faces from
stackact.bar_faces and base_faces; these oracles write the bar formula
themselves and read neither.  induced_cohomology_matrix is the
"coordinates in H^n" solve of the oracles (groupcoh.action_on_cohomology
and the E_1 group sums of cartan.torus_weyl_check): coordinates in the
representatives modulo the image.  The d_r solve in spectra.pages is the
route they check; it does not call it, and both call
exactalg.solve_multi.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, TruncationBoundary
from .exactalg import (
    Field, Mat, _cohomology_dim, _column_sieve, mat_from_columns,
    solve_multi,
)


@dataclass
class CochainComplex:
    """Nonnegatively graded complex with degrees 0..N.

    diffs[n] maps degree n to degree n+1 and has shape dims[n+1] x dims[n];
    boundary_degree is the first degree whose cohomology the truncation no
    longer certifies.  None means the top degree: every degree below it is
    certified, and cohomology at the top degree (whose outgoing map is not
    stored) is refused unless overridden.

    The ranks of the differentials come from one ascending pass per
    complex (rank_through), which cohomology extends as far as it reads.
    """

    field: Field
    dims: tuple
    diffs: tuple
    boundary_degree: int | None = None

    def __post_init__(self):
        self.dims = tuple(self.dims)
        self.diffs = tuple(self.diffs)
        if len(self.diffs) != max(len(self.dims) - 1, 0):
            raise InvariantViolation(
                f"expected {len(self.dims) - 1} differentials, got {len(self.diffs)}")
        for n, d in enumerate(self.diffs):
            if d.shape != (self.dims[n + 1], self.dims[n]):
                raise InvariantViolation(
                    f"diff[{n}] has shape {d.shape}, expected "
                    f"({self.dims[n + 1]}, {self.dims[n]})")
            if d.field != self.field:
                raise InvariantViolation("field mismatch in differential")
        for n in range(len(self.diffs) - 1):
            if not (self.diffs[n + 1] * self.diffs[n]).is_zero():
                raise InvariantViolation(f"d.d != 0 at degree {n}")
        self._ranked = 0            # differentials the rank pass has sieved
        self._cleared = frozenset()  # the pivots of the last one's sieve

    def rank_through(self, n: int):
        """Extend the rank pass through D^n, filling each one's rank.

        The columns of D^m go into exactalg._column_sieve left to right,
        skipping the pivots of D^{m-1}'s sieve (the clearing of Bauer,
        Kerber and Reininghaus, "Clear and compress", 2014).  The reduced
        columns of D^{m-1} lie in im D^{m-1}, inside ker D^m, and have
        distinct pivots, so every skipped column of D^m is a combination
        of the kept ones and the rank is unchanged.  Each differential is
        sieved once per complex, whatever order the degrees are asked in.
        A first call at a high degree still starts at D^0: the lower
        differentials are the small ones, and the cleared D^n costs less
        than its rows would.
        """
        while self._ranked <= min(n, len(self.diffs) - 1):
            sieve = _column_sieve(self.diffs[self._ranked], self._cleared)
            self._cleared = frozenset(sieve.pivots)
            self._ranked += 1

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def diff(self, n: int) -> Mat:
        """Outgoing differential at degree n (zero map at the top)."""
        if 0 <= n < len(self.diffs):
            return self.diffs[n]
        return Mat.zero(0, self.dims[n], self.field)

    def diff_into(self, n: int) -> Mat:
        """Incoming differential at degree n (zero map at the bottom)."""
        if n == 0:
            return Mat.zero(self.dims[0], 0, self.field)
        return self.diffs[n - 1]


def cohomology(c: CochainComplex, n: int, override: bool = False,
               reps: bool = False):
    """Degree-n cohomology dimension (optionally with representative cocycles).

    Raises TruncationBoundary at degrees the truncation does not certify,
    unless override is set.
    """
    if not 0 <= n <= c.top_degree:
        raise TruncationBoundary(
            f"degree {n} outside complex range 0..{c.top_degree}")
    bound = c.boundary_degree if c.boundary_degree is not None else c.top_degree
    if n >= bound and not override:
        raise TruncationBoundary(
            f"degree {n} is beyond the certified range (< {bound}); "
            "pass override=True to force")
    # __post_init__ checked the shapes and d.d = 0 at every degree
    if not reps:
        c.rank_through(n)
    return _cohomology_dim(c.diff(n), c.diff_into(n), reps)


def induced_cohomology_matrix(c: CochainComplex, n: int, ops: list) -> list:
    """Matrices on H^n induced by degree-n operators commuting with d.

    Representatives are the deterministic cocycle complement, computed
    once; every operator's images are solved in one elimination for their
    coordinates in the representatives modulo the image of the incoming
    differential, so the output is reproducible.  Raises NoSolution if an
    image leaves the cocycles.
    """
    field = c.field
    dim, reps = cohomology(c, n, reps=True)
    coords = solve_multi(reps, [op.mul_vec(v) for op in ops for v in reps],
                         field, modulo=c.diff_into(n).columns())
    return [mat_from_columns(coords[o * dim:(o + 1) * dim], dim, field)
            for o in range(len(ops))]


@dataclass
class DoubleComplex:
    """Rectangle of blocks with commuting stored differentials.

    d_h[(p, q)]: block (p, q) -> (p+1, q);  d_v[(p, q)]: (p, q) -> (p, q+1).
    Missing maps at the rectangle edge are zero.  boundary_total_degree is
    the first total degree p+q flagged as truncation-unreliable.  The
    constructor checks block shapes only; the identities are checked
    once, as D^2 = 0 of total_complex.
    """

    field: Field
    p_range: tuple
    q_range: tuple
    dims: dict
    d_h: dict
    d_v: dict
    boundary_total_degree: int | None = None

    def __post_init__(self):
        pmin, pmax = self.p_range
        qmin, qmax = self.q_range
        for p in range(pmin, pmax + 1):
            for q in range(qmin, qmax + 1):
                if (p, q) not in self.dims:
                    self.dims[(p, q)] = 0
        for (p, q), m in self.d_h.items():
            if m.shape != (self.dim(p + 1, q), self.dim(p, q)):
                raise InvariantViolation(f"d_h shape wrong at {(p, q)}")
        for (p, q), m in self.d_v.items():
            if m.shape != (self.dim(p, q + 1), self.dim(p, q)):
                raise InvariantViolation(f"d_v shape wrong at {(p, q)}")

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def dh(self, p: int, q: int) -> Mat:
        m = self.d_h.get((p, q))
        if m is None:
            return Mat.zero(self.dim(p + 1, q), self.dim(p, q), self.field)
        return m

    def dv(self, p: int, q: int) -> Mat:
        m = self.d_v.get((p, q))
        if m is None:
            return Mat.zero(self.dim(p, q + 1), self.dim(p, q), self.field)
        return m

    def transpose(self) -> "DoubleComplex":
        return DoubleComplex(
            self.field, self.q_range, self.p_range,
            {(q, p): d for (p, q), d in self.dims.items()},
            {(q, p): m for (p, q), m in self.d_v.items()},
            {(q, p): m for (p, q), m in self.d_h.items()},
            self.boundary_total_degree)


class TotalLayout:
    """Block bookkeeping for the total complex of a double complex.

    Within total degree n the blocks (p, q), p+q = n, are laid out in
    ascending p, so the column filtration F_p is a contiguous tail.
    """

    def __init__(self, dc: DoubleComplex):
        self.dc = dc
        pmin, pmax = dc.p_range
        qmin, qmax = dc.q_range
        self.n_min = pmin + qmin
        self.n_max = pmax + qmax
        self.blocks = {}
        self.offsets = {}
        self.total_dims = {}
        for n in range(self.n_min, self.n_max + 1):
            blocks = []
            offset = 0
            for p in range(pmin, pmax + 1):
                q = n - p
                if qmin <= q <= qmax:
                    blocks.append((p, q))
                    self.offsets[(p, q)] = offset
                    offset += dc.dim(p, q)
            self.blocks[n] = blocks
            self.total_dims[n] = offset

    def total_matrix(self, n: int) -> Mat:
        """D = d_v + (-1)^q d_h from total degree n to n+1."""
        dc = self.dc
        entries = {}
        targets = set(self.blocks.get(n + 1, []))
        for (p, q) in self.blocks.get(n, []):
            src_off = self.offsets[(p, q)]
            if (p, q + 1) in targets:
                dst = self.offsets[(p, q + 1)]
                for (i, j), v in dc.dv(p, q).entries.items():
                    entries[(dst + i, src_off + j)] = v
            if (p + 1, q) in targets:
                dst = self.offsets[(p + 1, q)]
                # no entry gets two terms: source blocks own disjoint
                # columns, targets (p, q + 1) and (p + 1, q) disjoint rows
                sign = -1 if q % 2 else 1
                for (i, j), v in dc.dh(p, q).entries.items():
                    entries[(dst + i, src_off + j)] = sign * v
        return Mat(self.total_dims.get(n + 1, 0), self.total_dims.get(n, 0),
                   entries, dc.field)


def total_complex(dc: DoubleComplex) -> CochainComplex:
    """Totalize with the (-1)^q convention; CochainComplex checks D^2 = 0.

    Degrees are shifted so the result starts at 0 even if the rectangle
    does not contain the origin.
    """
    layout = TotalLayout(dc)
    dims = [layout.total_dims[n] for n in range(layout.n_min, layout.n_max + 1)]
    diffs = [layout.total_matrix(n) for n in range(layout.n_min, layout.n_max)]
    # page reports flag total degree N-1 conservatively, but the total
    # complex itself is complete through degree N, so cohomology is
    # certified strictly below N = boundary_total_degree + 1
    bound = dc.boundary_total_degree
    if bound is not None:
        bound = bound + 1 - layout.n_min
    return CochainComplex(dc.field, tuple(dims), tuple(diffs),
                          boundary_degree=bound)


@dataclass
class CoefficientComplex:
    """Bounded complex of G-modules with equivariant differentials.

    modules[r] must expose .dim and .rho (element index -> Mat); the
    differential diffs[r] maps module r to module r+1.
    """

    modules: tuple
    diffs: tuple

    def __post_init__(self):
        self.modules = tuple(self.modules)
        self.diffs = tuple(self.diffs)
        if len(self.diffs) != max(len(self.modules) - 1, 0):
            raise InvariantViolation("coefficient complex: differential count")
        group = self.modules[0].group
        for mod in self.modules:
            if mod.group is not group and mod.group != group:
                raise InvariantViolation("coefficient complex: group mismatch")
        for r, d in enumerate(self.diffs):
            src, dst = self.modules[r], self.modules[r + 1]
            if d.shape != (dst.dim, src.dim):
                raise InvariantViolation(f"coefficient differential {r} shape")
            for gi in range(len(group.elements)):
                left = d * src.rho[gi]
                right = dst.rho[gi] * d
                if left != right:
                    from .errors import NonEquivariantCoefficients
                    raise NonEquivariantCoefficients(
                        f"coefficient differential {r} is not equivariant "
                        f"for element {group.elements[gi]}")
        for r in range(len(self.diffs) - 1):
            if not (self.diffs[r + 1] * self.diffs[r]).is_zero():
                raise InvariantViolation("coefficient complex: d.d != 0")
