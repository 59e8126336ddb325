"""Bounded cochain complexes, double and triple complexes, totalization.

Double complexes are stored with commuting differentials; the sign
(-1)^q on the horizontal differential is inserted at totalization, so
D^2 = 0 is a checkable postcondition rather than an input convention.
Complexes built from truncated simplicial data carry a boundary degree:
cohomology at or beyond it is refused unless explicitly overridden.

TotalLayout.total_matrix is the one totalization, with two callers:
total_complex and collapse_triple.  Every total complex goes through
total_complex: the one that spectra.pages builds once per run (and reads
its D^n, its H^n and convergence from), the Getzler model (the
transposed Borel complex) and the Cartan model.  collapse_triple
totalizes each face of a triple complex.

Routes and their oracles: the subquotient pages of spectra.pages and
its rank table check each other; the E_1 / E_2 identifications are
checked by spectra.quotient_cohomology_oracle and groupcoh.bar_complex,
which never build a double complex; the element-wise getzler.dbar
checks the Borel blocks behind getzler.dbar_matrix.  Every Borel route
takes its faces from stackact.bar_faces and base_faces; these oracles
write the bar formula themselves and read neither.
induced_cohomology_matrix is the "coordinates in H^n" solve of the
oracles (groupcoh.action_on_cohomology and the Weyl traces of
cartan.torus_weyl_check); the d_r solve in spectra.pages is the route
they check and does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, TruncationBoundary
from .exactalg import (
    Field, Mat, Sieve, _cohomology_dim, mat_from_columns, solve_multi,
)


@dataclass
class CochainComplex:
    """Nonnegatively graded complex with degrees 0..N.

    diffs[n] maps degree n to degree n+1 and has shape dims[n+1] x dims[n];
    boundary_degree is the first degree whose cohomology the truncation no
    longer certifies.  None means the top degree: every degree below it is
    certified, and cohomology at the top degree (whose outgoing map is not
    stored) is refused unless overridden.
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
    return _cohomology_dim(c.diff(n), c.diff_into(n), reps)


def induced_cohomology_matrix(c: CochainComplex, n: int, ops: list) -> list:
    """Matrices on H^n induced by degree-n operators commuting with d.

    Representatives are the deterministic cocycle complement and the
    image basis is the independent columns of the incoming differential;
    both are computed once, and every operator's images are solved in one
    elimination against image basis plus representatives, so the output
    is reproducible.  Raises NoSolution if an image leaves the cocycles.
    """
    field = c.field
    dim, reps = cohomology(c, n, reps=True)
    sieve = Sieve(field)
    image_cols = [col for col in c.diff_into(n).columns()
                  if sieve.insert(col)[0]]
    basis = mat_from_columns(image_cols + reps, c.dims[n], field)
    coords = solve_multi(basis, [op.mul_vec(v) for op in ops for v in reps])
    skip = len(image_cols)
    cols = [{r - skip: v for r, v in x.items() if r >= skip} for x in coords]
    return [mat_from_columns(cols[o * dim:(o + 1) * dim], dim, field)
            for o in range(len(ops))]


@dataclass
class DoubleComplex:
    """Rectangle of blocks with commuting stored differentials.

    d_h[(p, q)]: block (p, q) -> (p+1, q);  d_v[(p, q)]: (p, q) -> (p, q+1).
    Missing maps at the rectangle edge are zero.  boundary_total_degree is
    the first total degree p+q flagged as truncation-unreliable.
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
        for p in range(pmin, pmax):
            for q in range(qmin, qmax + 1):
                if p + 1 < pmax:
                    comp = self.dh(p + 1, q) * self.dh(p, q)
                    if not comp.is_zero():
                        raise InvariantViolation(f"d_h^2 != 0 at {(p, q)}")
        for p in range(pmin, pmax + 1):
            for q in range(qmin, qmax):
                if q + 1 < qmax:
                    comp = self.dv(p, q + 1) * self.dv(p, q)
                    if not comp.is_zero():
                        raise InvariantViolation(f"d_v^2 != 0 at {(p, q)}")
        for p in range(pmin, pmax):
            for q in range(qmin, qmax):
                left = self.dv(p + 1, q) * self.dh(p, q)
                right = self.dh(p, q + 1) * self.dv(p, q)
                if left != right:
                    raise InvariantViolation(
                        f"stored differentials do not commute at {(p, q)}")

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

    @classmethod
    def _derived(cls, field, p_range, q_range, dims, d_h, d_v,
                boundary_total_degree=None) -> "DoubleComplex":
        """Assemble from the blocks of an already validated complex.

        The one path that skips the construction check: __post_init__
        does not run.  Every check in it is symmetric in the two axes or
        a subset of TripleComplex.validate(), so a transpose or a face of
        a validated complex passes it by construction.  dims must already
        list every block of the rectangle.
        """
        dc = cls.__new__(cls)
        dc.__dict__.update(field=field, p_range=p_range, q_range=q_range,
                           dims=dims, d_h=d_h, d_v=d_v,
                           boundary_total_degree=boundary_total_degree)
        return dc

    def transpose(self) -> "DoubleComplex":
        return DoubleComplex._derived(
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
class TripleComplex:
    """Box of blocks with three pairwise commuting differentials.

    d[axis][(a, b, c)] raises the chosen axis by one.
    """

    field: Field
    ranges: tuple          # ((amin, amax), (bmin, bmax), (cmin, cmax))
    dims: dict
    d: tuple               # (d0, d1, d2), each dict keyed by (a, b, c)

    def __post_init__(self):
        self.validate()

    def dim(self, key) -> int:
        return self.dims.get(key, 0)

    def dmat(self, axis: int, key) -> Mat:
        m = self.d[axis].get(key)
        if m is None:
            return Mat.zero(self.dim(_step(key, axis)), self.dim(key),
                            self.field)
        return m

    def validate(self):
        for key in [key for key in self.dims if self.dim(key)]:
            for ax in range(3):
                step2 = self.dmat(ax, _step(key, ax))
                if not (step2 * self.dmat(ax, key)).is_zero():
                    raise InvariantViolation(f"d{ax}^2 != 0 at {key}")
            for ax1, ax2 in ((0, 1), (0, 2), (1, 2)):
                left = self.dmat(ax2, _step(key, ax1)) * self.dmat(ax1, key)
                right = self.dmat(ax1, _step(key, ax2)) * self.dmat(ax2, key)
                if left != right:
                    raise InvariantViolation(
                        f"d{ax1} and d{ax2} do not commute at {key}")


def _step(key: tuple, axis: int) -> tuple:
    """key raised by one along axis."""
    return key[:axis] + (key[axis] + 1,) + key[axis + 1:]


def collapse_triple(tc: TripleComplex, pair=(0, 1),
                    boundary_total_degree: int | None = None) -> DoubleComplex:
    """Totalize two axes of a triple complex into the horizontal index.

    pair = (i, j): for each degree t of the remaining axis, the (i, j) face
    is totalized by TotalLayout with axis i as p, so axis i carries the sign
    (-1)^(degree along axis j) and sub-blocks ascend in the axis-i degree.
    The remaining axis becomes the vertical of the returned DoubleComplex,
    acting block-diagonally between consecutive faces.
    """
    i, j = pair
    if i == j or not (0 <= i < 3 and 0 <= j < 3):
        raise ValueError("pair must name two distinct axes")
    k = ({0, 1, 2} - {i, j}).pop()
    (kmin, kmax) = tc.ranges[k]
    faces = {t: TotalLayout(_face(tc, i, j, k, t))
             for t in range(kmin, kmax + 1)}
    n_min, n_max = faces[kmin].n_min, faces[kmin].n_max
    dims, d_h, d_v = {}, {}, {}
    for t, lay in faces.items():
        for s in range(n_min, n_max + 1):
            dims[(s, t)] = lay.total_dims[s]
            if s < n_max:
                d_h[(s, t)] = lay.total_matrix(s)
            if t < kmax:
                d_v[(s, t)] = _block_diagonal(tc, (i, j, k), t, s, lay,
                                              faces[t + 1])
    return DoubleComplex(tc.field, (n_min, n_max), (kmin, kmax),
                         dims, d_h, d_v,
                         boundary_total_degree=boundary_total_degree)


def _face(tc: TripleComplex, i: int, j: int, k: int, t: int) -> DoubleComplex:
    """Slice at degree t along axis k, with axis i as p and axis j as q."""
    (imin, imax), (jmin, jmax) = tc.ranges[i], tc.ranges[j]
    dims, d_h, d_v = {}, {}, {}
    for a in range(imin, imax + 1):
        for b in range(jmin, jmax + 1):
            key = _make_key(i, j, k, a, b, t)
            dims[(a, b)] = tc.dim(key)
            if a < imax:
                d_h[(a, b)] = tc.dmat(i, key)
            if b < jmax:
                d_v[(a, b)] = tc.dmat(j, key)
    return DoubleComplex._derived(tc.field, (imin, imax), (jmin, jmax),
                                 dims, d_h, d_v)


def _block_diagonal(tc: TripleComplex, axes: tuple, t: int, s: int,
                    src: TotalLayout, dst: TotalLayout) -> Mat:
    """Axis-k map from degree s of face t to degree s of face t+1."""
    i, j, k = axes
    entries = {}
    for (a, b) in src.blocks[s]:
        row0, col0 = dst.offsets[(a, b)], src.offsets[(a, b)]
        for (r, c), v in tc.dmat(k, _make_key(i, j, k, a, b, t)).entries.items():
            entries[(row0 + r, col0 + c)] = v
    return Mat(dst.total_dims[s], src.total_dims[s], entries, tc.field)


def _make_key(i, j, k, a, b, t):
    key = [0, 0, 0]
    key[i] = a
    key[j] = b
    key[k] = t
    return tuple(key)


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
                left = d * src.rho_mat(gi)
                right = dst.rho_mat(gi) * d
                if left != right:
                    from .errors import NonEquivariantCoefficients
                    raise NonEquivariantCoefficients(
                        f"coefficient differential {r} is not equivariant "
                        f"for element {group.elements[gi]}")
        for r in range(len(self.diffs) - 1):
            if not (self.diffs[r + 1] * self.diffs[r]).is_zero():
                raise InvariantViolation("coefficient complex: d.d != 0")

    @property
    def length(self) -> int:
        return len(self.modules)
