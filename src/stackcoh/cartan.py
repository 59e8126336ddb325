"""Algebraic Cartan model for compact connected groups given by Lie data.

The acting group enters through its Lie algebra (structure constants),
a finite-dimensional graded algebra with the Cartan calculus operators,
and optionally a finite matrix group W for the non-connected part.  The
symmetric algebra on the dual is truncated at polynomial degree P with
explicit safe-range bookkeeping: cohomology is certified for total
degrees <= 2P - (top degree of A).

Conventions: dual generators u_a have cohomological degree 2; the Cartan
differential is d - sum_a u_a (x) iota_a, built on the joint kernel of
the Lie derivatives.  The Cartan complex is the total complex of
cartan_double_complex, assembled by homalg.total_complex, the one
totalization.

Every invariant subspace is a joint kernel over generators: A^g is the
joint kernel of the L_a, and the W-invariants (of S^p in
invariant_polynomials, of each block in torus_weyl_check) the joint
kernel of w - 1 over the generators w, since W fixes exactly what each
generator fixes.  The closure of W (mulclose_mats) serves only |W| and
the E_1 group sums.

Routes and oracles: cartan_cohomology is the route.  cartan_E1 computes
S^p (x) H(A) from the algebra alone and checks the E_1 page of the
double complex; torus_weyl_check restricts W to A^g, takes the
W-invariant total complex, its pages and its E_infinity sums from one
spectra.pages run, compares the invariant cohomology with E_infinity and
checks E_1 against the rank of the sum over all of W of its action on
S^p (x) H(A^g), read off homalg.induced_cohomology_matrix on H(A^g).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import isqrt, lcm

from .errors import (
    InvariantViolation, NonEquivariantInput, NonInvertibleOrder,
    NotClosedUnderOperators,
)
from .exactalg import (
    Field, Mat, QQ, _is_prime, joint_kernel, mat_from_columns, rank,
    reduced, solve_multi,
)
from .errors import NoSolution
from .homalg import (
    CochainComplex, DoubleComplex, cohomology, induced_cohomology_matrix,
    total_complex,
)


@dataclass
class LieAlgebraData:
    """Structure constants c[a][b] = [xi_a, xi_b] as sparse maps index -> scalar."""

    dim: int
    structure: tuple

    def __post_init__(self):
        self.structure = tuple(tuple(dict(cell) for cell in row)
                               for row in self.structure)
        self.validate()

    def bracket(self, a: int, b: int) -> dict:
        return self.structure[a][b]

    def validate(self):
        k = self.dim
        if len(self.structure) != k or any(len(r) != k for r in self.structure):
            raise InvariantViolation("structure constant table is not k x k")
        for a in range(k):
            for b in range(k):
                lhs = self.structure[a][b]
                rhs = self.structure[b][a]
                for c in set(lhs) | set(rhs):
                    if lhs.get(c, 0) != -rhs.get(c, 0):
                        raise InvariantViolation(
                            f"antisymmetry fails at [{a},{b}]")
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    acc = {}
                    for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                        for d, coef in self.structure[x][y].items():
                            for e, coef2 in self.structure[d][z].items():
                                acc[e] = acc.get(e, 0) + coef * coef2
                    if any(v != 0 for v in acc.values()):
                        raise InvariantViolation(
                            f"Jacobi identity fails at ({a},{b},{c})")


def abelian_lie(dim: int) -> LieAlgebraData:
    empty = tuple(tuple({} for _ in range(dim)) for _ in range(dim))
    return LieAlgebraData(dim, empty)


@dataclass
class GDGA:
    """Graded algebra with differential, contractions and Lie derivatives.

    dims[m] is the dimension of the degree-m piece; d[m]: A^m -> A^{m+1};
    iota[a][m]: A^m -> A^{m-1}; L[a][m]: A^m -> A^m.  mul, when given, maps
    (i, j) to the tensor mul[(i, j)][x][y] = sparse vector of x*y in A^{i+j}.
    """

    field: Field
    dims: tuple
    d: tuple
    iota: tuple
    L: tuple
    mul: dict | None = None

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def dmat(self, m: int) -> Mat:
        if 0 <= m < self.top:
            return self.d[m]
        src = self.dims[m] if 0 <= m <= self.top else 0
        return Mat.zero(self.dims[m + 1] if m + 1 <= self.top else 0, src,
                        self.field)

    def iota_mat(self, a: int, m: int) -> Mat:
        if 1 <= m <= self.top:
            return self.iota[a][m - 1]
        return Mat.zero(self.dims[m - 1] if m - 1 >= 0 else 0,
                        self.dims[m] if 0 <= m <= self.top else 0, self.field)

    def l_mat(self, a: int, m: int) -> Mat:
        if 0 <= m <= self.top:
            return self.L[a][m]
        return Mat.zero(0, 0, self.field)

    def cochain_complex(self) -> CochainComplex:
        """(A, d) as a complete complex: every degree is certified."""
        return CochainComplex(self.field, self.dims,
                              tuple(self.dmat(m) for m in range(self.top)),
                              boundary_degree=self.top + 1)

    def product(self, i: int, j: int, x: int, y: int) -> dict:
        if self.mul is None or (i, j) not in self.mul:
            return {}
        return self.mul[(i, j)][x][y]


def validate_gdga(lie: LieAlgebraData, algebra: GDGA) -> dict:
    """Check every Cartan calculus identity; returns an itemised report."""
    failures = []
    a_count = lie.dim
    top = algebra.top

    def check(name, cond):
        if not cond:
            failures.append(name)

    for m in range(top + 1):
        if m + 2 <= top:
            check(f"d.d=0 at degree {m}",
                  (algebra.dmat(m + 1) * algebra.dmat(m)).is_zero())
    for a in range(a_count):
        for b in range(a_count):
            for m in range(top + 1):
                lhs = algebra.iota_mat(a, m - 1) * algebra.iota_mat(b, m) + \
                    algebra.iota_mat(b, m - 1) * algebra.iota_mat(a, m)
                check(f"iota_{a} iota_{b} anticommute at degree {m}",
                      lhs.is_zero())
    for a in range(a_count):
        for m in range(top + 1):
            cartan_magic = algebra.dmat(m - 1) * algebra.iota_mat(a, m) + \
                algebra.iota_mat(a, m + 1) * algebra.dmat(m)
            check(f"L_{a} = d iota_{a} + iota_{a} d at degree {m}",
                  cartan_magic == algebra.l_mat(a, m))
    for a in range(a_count):
        for b in range(a_count):
            for m in range(top + 1):
                comm = algebra.l_mat(a, m - 1) * algebra.iota_mat(b, m) + \
                    -(algebra.iota_mat(b, m) * algebra.l_mat(a, m))
                expected = Mat.zero(comm.rows, comm.cols, algebra.field)
                for c, coef in lie.bracket(a, b).items():
                    expected = expected + algebra.iota_mat(c, m).scale(coef)
                check(f"[L_{a}, iota_{b}] at degree {m}", comm == expected)
                comm2 = algebra.l_mat(a, m) * algebra.l_mat(b, m) + \
                    -(algebra.l_mat(b, m) * algebra.l_mat(a, m))
                expected2 = Mat.zero(comm2.rows, comm2.cols, algebra.field)
                for c, coef in lie.bracket(a, b).items():
                    expected2 = expected2 + algebra.l_mat(c, m).scale(coef)
                check(f"[L_{a}, L_{b}] at degree {m}", comm2 == expected2)
    for a in range(a_count):
        for m in range(top + 1):
            comm = algebra.dmat(m) * algebra.l_mat(a, m) + \
                -(algebra.l_mat(a, m + 1) * algebra.dmat(m))
            check(f"[L_{a}, d] = 0 at degree {m}", comm.is_zero())
    if algebra.mul is not None:
        for i in range(top + 1):
            for j in range(top + 1):
                for x in range(algebra.dims[i]):
                    for y in range(algebra.dims[j]):
                        prod = algebra.product(i, j, x, y)
                        lhs = algebra.dmat(i + j).mul_vec(prod) \
                            if i + j <= top else {}
                        rhs = {}
                        dx = algebra.dmat(i).col(x) if algebra.dims[i] else {}
                        for z, coef in dx.items():
                            for w, coef2 in algebra.product(i + 1, j, z, y).items():
                                rhs[w] = rhs.get(w, 0) + coef * coef2
                        dy = algebra.dmat(j).col(y) if algebra.dims[j] else {}
                        sign = -1 if i % 2 else 1
                        for z, coef in dy.items():
                            for w, coef2 in algebra.product(i, j + 1, x, z).items():
                                rhs[w] = rhs.get(w, 0) + sign * coef * coef2
                        rhs = reduced(rhs, algebra.field)
                        keys = set(lhs) | set(rhs)
                        if any(lhs.get(k, 0) != rhs.get(k, 0) for k in keys):
                            failures.append(
                                f"Leibniz fails on basis ({i},{x})*({j},{y})")
    return {"valid": not failures, "failures": failures}


def _lie_invariant_bases(lie: LieAlgebraData, algebra: GDGA) -> list:
    """Per degree m, a basis of the joint kernel of the L_a on A^m."""
    return [joint_kernel([algebra.l_mat(a, m) for a in range(lie.dim)],
                         algebra.dims[m], algebra.field)
            for m in range(algebra.top + 1)]


def invariants_subalgebra(lie: LieAlgebraData, algebra: GDGA,
                          bases: list | None = None) -> GDGA:
    """Joint kernel A^g of the Lie derivatives, with the induced
    operators, in the given _lie_invariant_bases (computed if None)."""
    f = algebra.field
    top = algebra.top
    if bases is None:
        bases = _lie_invariant_bases(lie, algebra)
    dims = tuple(len(b) for b in bases)

    def restrict(op: Mat, src_m: int, dst_m: int, name: str) -> Mat:
        return _restrict(op, bases[src_m], bases[dst_m],
                         NotClosedUnderOperators(
                             f"{name} does not preserve the invariant "
                             f"subspace at degree {src_m}"))

    new_d = tuple(restrict(algebra.dmat(m), m, m + 1, "d")
                  for m in range(top))
    new_iota = tuple(
        tuple(restrict(algebra.iota_mat(a, m), m, m - 1, f"iota_{a}")
              for m in range(1, top + 1))
        for a in range(lie.dim))
    new_l = tuple(
        tuple(Mat.zero(dims[m], dims[m], f) for m in range(top + 1))
        for _ in range(lie.dim))
    return GDGA(f, dims, new_d, new_iota, new_l, mul=None)


def _restrict(op: Mat, basis: list, target: list, error) -> Mat:
    """op from span(basis) to span(target), in those bases; raises error
    when an image leaves span(target)."""
    try:
        coords = solve_multi(target, [op.mul_vec(v) for v in basis],
                             op.field)
    except NoSolution as exc:
        raise error from exc
    return mat_from_columns(coords, len(target), op.field)


def monomials(k: int, p: int) -> list:
    """Degree-p monomials in k dual generators, as sorted index tuples."""
    return list(itertools.combinations_with_replacement(range(k), p))


def cartan_double_complex(lie: LieAlgebraData, algebra: GDGA,
                          poly_trunc: int) -> DoubleComplex:
    """Blocks (p, q) = S^p (x) A^{q-p}; the (-1)^q totalization sign
    reproduces d - sum u_a iota_a exactly."""
    f = algebra.field
    top = algebra.top
    monos = [monomials(lie.dim, p) for p in range(poly_trunc + 1)]
    mono_index = [{m: i for i, m in enumerate(level)} for level in monos]
    dims = {}
    for p in range(poly_trunc + 1):
        for q in range(poly_trunc + top + 1):
            m = q - p
            dims[(p, q)] = len(monos[p]) * algebra.dims[m] \
                if 0 <= m <= top else 0
    d_h = {}
    d_v = {}
    for p in range(poly_trunc + 1):
        for q in range(poly_trunc + top):
            m = q - p
            if 0 <= m < top:
                entries = {}
                dmat = algebra.dmat(m)
                for mono_i in range(len(monos[p])):
                    col_base = mono_i * algebra.dims[m]
                    row_base = mono_i * algebra.dims[m + 1]
                    for (r, c), v in dmat.entries.items():
                        entries[(row_base + r, col_base + c)] = v
                d_v[(p, q)] = Mat(dims[(p, q + 1)], dims[(p, q)], entries, f)
            else:
                d_v[(p, q)] = Mat.zero(dims[(p, q + 1)], dims[(p, q)], f)
    for p in range(poly_trunc):
        for q in range(poly_trunc + top + 1):
            m = q - p
            entries = {}
            if 1 <= m <= top:
                sign = 1 if (q + 1) % 2 == 0 else -1
                for mono_i, mono in enumerate(monos[p]):
                    col_base = mono_i * algebra.dims[m]
                    for a in range(lie.dim):
                        imat = algebra.iota_mat(a, m)
                        new_mono = tuple(sorted(mono + (a,)))
                        row_base = mono_index[p + 1][new_mono] * \
                            algebra.dims[m - 1]
                        for (r, c), v in imat.entries.items():
                            key = (row_base + r, col_base + c)
                            entries[key] = entries.get(key, 0) + sign * v
            d_h[(p, q)] = Mat(dims.get((p + 1, q), 0), dims[(p, q)], entries, f)
    return DoubleComplex(f, (0, poly_trunc), (0, poly_trunc + top),
                         dims, d_h, d_v,
                         boundary_total_degree=2 * poly_trunc - top)


def cartan_cohomology(lie: LieAlgebraData, algebra: GDGA, poly_trunc: int,
                      degrees) -> list:
    """Equivariant Betti numbers on the truncation-safe range."""
    inv = invariants_subalgebra(lie, algebra)
    complex_ = total_complex(cartan_double_complex(lie, inv, poly_trunc))
    return [cohomology(complex_, s) for s in degrees]


def cartan_E1(lie: LieAlgebraData, algebra: GDGA, poly_trunc: int) -> dict:
    """(p, q) -> dim S^p (x) H^{q-p}(A) for the connected-group convention."""
    inv = invariants_subalgebra(lie, algebra)
    base = inv.cochain_complex()
    h_dims = [cohomology(base, m) for m in range(inv.top + 1)]
    table = {}
    for p in range(poly_trunc + 1):
        s_dim = len(monomials(lie.dim, p))
        for q in range(p, p + inv.top + 1):
            table[(p, q)] = s_dim * h_dims[q - p]
    return table


CLOSURE_LIMIT = 4096


def _power(w: Mat, e: int) -> Mat:
    """w^e by repeated squaring, e >= 1."""
    result = None
    while e:
        if e & 1:
            result = w if result is None else result * w
        e >>= 1
        if e:
            w = w * w
    return result


def matrix_order(w: Mat, limit: int = CLOSURE_LIMIT) -> int | None:
    """Order of an invertible square matrix; None if it is above limit,
    infinite, or w is singular (its powers never reach the identity).

    Over Q the order d_p is first found mod a prime p > 2^30 that divides
    no denominator of w, where entries stay small: an order d <= limit
    makes d_p divide d.  Baby steps w^j (j < m) and giant steps w^(m k)
    (m k <= limit + m) find it with about 2 m products, m = sqrt(limit):
    the first giant step equal to a baby step w^j gives d_p = m k - j.
    Then w^(d_p) == I is checked exactly.  It holds whenever w has finite
    order, since reduction mod an odd p is injective on the finite
    subgroups of GL_n(Z_(p)) (Minkowski).
    """
    mod = w.field
    if not mod.p:
        den = reduce(lcm, (Fraction(v).denominator
                           for v in w.entries.values()), 1)
        p = 2 ** 31 - 1
        while not den % p or not _is_prime(p):
            p -= 2
        mod = Field(p)
    w_p = Mat(w.rows, w.cols, w.entries, mod)
    one = Mat.identity(w.rows, mod)
    m = isqrt(limit) + 1
    baby = {}
    power = one
    for j in range(m):
        if j and power == one:
            order = j
            break
        baby.setdefault(power, j)
        power = power * w_p
    else:
        # power is w^m; the giant steps are w^(m k)
        order, giant = None, power
        for k in range(1, m + 2):
            if giant in baby:
                order = m * k - baby[giant]
                break
            giant = giant * power
    if order is None or order > limit:
        return None
    return order if _power(w, order) == Mat.identity(w.rows, w.field) \
        else None


def mulclose_mats(gens: list) -> list:
    """Multiplicative closure of tuples of invertible matrices.

    Tuples multiply componentwise; the result is in BFS order with the
    identity tuple first.  A generator that lies in the closure of the
    ones before it is dropped, and every other one at least doubles the
    group, so at most log2(CLOSURE_LIMIT) + 1 generators are ever
    multiplied and a long redundant list costs one lookup per generator.
    Tuples of Mats are hashable, so the closure is a dict keyed by its
    elements.
    """
    def close(kept):
        ident = tuple(Mat.identity(m.rows, m.field) for m in kept[0])
        seen = {ident: None}
        frontier = [ident]
        while frontier:
            new = []
            for w in frontier:
                for g in kept:
                    prod = tuple(a * b for a, b in zip(w, g))
                    if prod not in seen:
                        seen[prod] = None
                        new.append(prod)
                        if len(seen) > CLOSURE_LIMIT:
                            raise InvariantViolation(
                                "matrix group closure exceeds limit")
            frontier = new
        return seen

    kept, seen = [], {}
    for g in gens:
        if g not in seen:
            kept.append(g)
            seen = close(kept)
    return list(seen)


def sym_power_matrix(w: Mat, p: int, monos: list, mono_index: dict) -> Mat:
    """Action of w on S^p via multiplicative extension of w.u_a = sum w[b,a] u_b."""
    cols = {}
    for mono in monos:
        poly = {(): 1}
        for var in mono:
            image = {b: v for (b, a), v in w.entries.items() if a == var}
            new = {}
            for term, coef in poly.items():
                for b, v in image.items():
                    key = tuple(sorted(term + (b,)))
                    new[key] = new.get(key, 0) + coef * v
            poly = new
        cols[mono] = poly
    entries = {}
    for mono, poly in cols.items():
        j = mono_index[mono]
        for term, coef in poly.items():
            entries[(mono_index[term], j)] = coef
    return Mat(len(monos), len(monos), entries, w.field)


def invariant_polynomials(lie: LieAlgebraData, weyl_gens: list,
                          poly_trunc: int) -> list:
    """Per-degree dimensions of the W-invariant polynomials over Q: the
    joint kernel of S^p(w) - 1 over the generators w, as W fixes exactly
    what every generator fixes; an empty generator list means trivial W."""
    out = []
    for p in range(poly_trunc + 1):
        monos = monomials(lie.dim, p)
        mono_index = {m: i for i, m in enumerate(monos)}
        ident = Mat.identity(len(monos), QQ)
        out.append(len(joint_kernel(
            [sym_power_matrix(w, p, monos, mono_index) + (-ident)
             for w in weyl_gens], len(monos), QQ)))
    return out


@dataclass
class TorusWeylReport:
    degrees: list
    series: list    # dimensions of the invariant cohomology
    series_e_infinity: list
    e1_matches: list
    per_degree_ok: list

    @property
    def ok(self) -> bool:
        return all(self.per_degree_ok) and \
            all(row["ok"] for row in self.e1_matches)


def weyl_action(lie: LieAlgebraData, algebra: GDGA, weyl_dual_gens: list,
                weyl_algebra_gens: list):
    """Check Weyl data and close W once; torus_weyl_check reads the result.

    weyl_dual_gens: generators acting on the dual of the Lie algebra;
    weyl_algebra_gens: matching generators acting degree-wise on the
    algebra (list of per-degree matrix tuples, one per dual generator).
    The closure of the dual generators as given sizes |W|, so give them
    over Q (the CLI does): mod 2 a generator -1 reads as 1 and the group
    would shrink, so dual generators over F_2 are refused; mod an odd p
    reduction is injective on a finite group of p-integral matrices
    (Minkowski).  Each algebra map must preserve A^g and commute with d,
    and |W|, the order of the closure of the (dual, algebra) pairs, must
    be invertible in the field.  Returns what torus_weyl_check reads: A^g,
    and the generators and elements of W as pairs (dual over the algebra's
    field, maps on A^g).
    """
    if len(weyl_dual_gens) != len(weyl_algebra_gens):
        raise InvariantViolation(
            f"{len(weyl_dual_gens)} Weyl generators on the dual but "
            f"{len(weyl_algebra_gens)} on the algebra")
    if any(gd.field.p == 2 for gd in weyl_dual_gens):
        raise InvariantViolation(
            "Weyl generators on the dual over F_2 cannot size |W|; give "
            "them over Q")
    f = algebra.field
    bases = _lie_invariant_bases(lie, algebra)
    inv = invariants_subalgebra(lie, algebra, bases)
    # W acts on the dual and on A; the Cartan model is built on A^g, so
    # each map on A is restricted to A^g in the same bases
    gens = [(gd, tuple(_restrict(w, bases[m], bases[m], NonEquivariantInput(
        f"W generator {k} leaves the Lie-invariant subalgebra at "
        f"degree {m}")) for m, w in enumerate(ga)))
        for k, (gd, ga) in enumerate(zip(weyl_dual_gens, weyl_algebra_gens))]

    def over_f(w: Mat) -> Mat:
        return w if w.field == f else Mat(w.rows, w.cols, w.entries, f)

    # the whole group only sizes |W| and feeds the E_1 group sums; the
    # dual stays as given, so the closure is W and not its reduction mod p
    one = (Mat.identity(lie.dim, QQ), *(Mat.identity(n, f) for n in inv.dims))
    group = [(over_f(t[0]), t[1:]) for t in
             mulclose_mats([(gd, *ga) for gd, ga in gens] or [one])]
    if f.p and len(group) % f.p == 0:
        raise NonInvertibleOrder(
            f"|W| = {len(group)} is not invertible mod {f.p}")
    gens = [(over_f(gd), ga) for gd, ga in gens]
    for k, (wd, wa) in enumerate(gens):
        for m in range(inv.top):
            if wa[m + 1] * inv.dmat(m) != inv.dmat(m) * wa[m]:
                raise NonEquivariantInput(
                    f"W generator {k} does not commute with the "
                    f"differential at degree {m}")
    return inv, gens, group


def torus_weyl_check(lie: LieAlgebraData, weyl: tuple, poly_trunc: int,
                     degrees) -> TorusWeylReport:
    """Invariant-series comparison for a torus with Weyl symmetry, on the
    checked data and closed W that weyl_action returned (weyl).  The
    cohomology of the W-invariant subcomplex is compared against the
    E_infinity of the invariant double complex, and E_1 against dim (S^p
    (x) H^{q-p})^W, the rank of the sum over W of S^p(w) (x) H^{q-p}(w),
    which is |W| times the averaging projector.
    """
    from .spectra import pages
    from .groupcoh import kron
    inv, gens, group = weyl
    f = inv.field
    dc = cartan_double_complex(lie, inv, poly_trunc)

    # block action of W on the double complex; the invariant blocks are
    # the vectors every generator fixes, and the Cartan differential must
    # preserve them (checked mechanically on the truncated data)
    monos = {p: monomials(lie.dim, p) for p in range(poly_trunc + 1)}
    mono_index = {p: {m: i for i, m in enumerate(monos[p])}
                  for p in range(poly_trunc + 1)}
    inv_bases = {}
    for (p, q), dim in dc.dims.items():
        ident = Mat.identity(dim, f)
        inv_bases[(p, q)] = joint_kernel(
            [kron(sym_power_matrix(wd, p, monos[p], mono_index[p]),
                  wa[q - p]) + (-ident) for wd, wa in gens],
            dim, f) if dim else []

    def restrict(op: Mat, src_key, dst_key, name):
        return _restrict(op, inv_bases[src_key], inv_bases[dst_key],
                         NonEquivariantInput(f"{name} leaves the invariant "
                                             f"subcomplex at {src_key}"))

    dims_w = {k: len(v) for k, v in inv_bases.items()}
    d_h_w = {}
    d_v_w = {}
    for (p, q) in list(dc.dims.keys()):
        if p < dc.p_range[1]:
            d_h_w[(p, q)] = restrict(dc.dh(p, q), (p, q), (p + 1, q), "u.iota")
        if q < dc.q_range[1]:
            d_v_w[(p, q)] = restrict(dc.dv(p, q), (p, q), (p, q + 1), "d")
    dc_w = DoubleComplex(f, dc.p_range, dc.q_range, dims_w, d_h_w, d_v_w,
                         boundary_total_degree=dc.boundary_total_degree)

    run = pages(dc_w, "columns")
    series_inv = [cohomology(run.total, s) for s in degrees]
    sums = {row["degree"]: row["e_inf_sum"]
            for row in run.convergence["rows"]}
    series_einf = [sums.get(s, 0) for s in degrees]
    e1 = next(p for p in run.pages if p.r == 1)

    # E_1 identification: dims of (S^p (x) H^{q-p})^W from group sums
    base = inv.cochain_complex()
    h_data = {m: induced_cohomology_matrix(base, m,
                                           [pair[1][m] for pair in group])
              for m in range(inv.top + 1)}
    e1_matches = []
    flag = dc_w.boundary_total_degree
    for (p, q), dim in sorted(e1.entries.items()):
        if flag is not None and p + q >= flag:
            continue
        m = q - p
        if not 0 <= m <= inv.top:
            continue
        expected = rank(reduce(Mat.__add__, (
            kron(sym_power_matrix(pair[0], p, monos[p], mono_index[p]),
                 h_data[m][idx]) for idx, pair in enumerate(group))))
        e1_matches.append({"p": p, "q": q, "page": dim,
                           "expected": expected, "ok": dim == expected})

    per_degree_ok = [a == b for a, b in zip(series_inv, series_einf)]
    return TorusWeylReport(list(degrees), series_inv, series_einf,
                           e1_matches, per_degree_ok)
