"""Exact linear algebra: frozen examples, brute-force oracles, properties."""

import itertools
import time
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from stackcoh.errors import NoSolution
from stackcoh.exactalg import (
    GF, QQ, Mat, Sieve, _cohomology_dim, _eliminate, _prepare, _primitive,
    kernel_basis, mat_from_columns, rank, reduced, solve_multi,
)
from stackcoh.groupcoh import kron
from stackcoh.homalg import DoubleComplex, TotalLayout

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def brute_kernel_fp(m: Mat) -> set:
    """Oracle: enumerate every vector of F_p^cols and keep the kernel."""
    p = m.field.p
    kernel = set()
    for vals in itertools.product(range(p), repeat=m.cols):
        vec = {i: v for i, v in enumerate(vals) if v}
        if not vec:
            continue
        if not m.mul_vec(vec):
            kernel.add(tuple(vals))
    return kernel


def brute_rank_q(m: Mat) -> int:
    """Oracle: largest size of a nonvanishing minor (dense, tiny shapes only)."""
    dense = [[m.entries.get((i, j), Fraction(0)) for j in range(m.cols)]
             for i in range(m.rows)]

    def det(rows, cols):
        if not rows:
            return Fraction(1)
        total = Fraction(0)
        r = rows[0]
        for idx, c in enumerate(cols):
            sub = det(rows[1:], cols[:idx] + cols[idx + 1:])
            term = dense[r][c] * sub
            total += term if idx % 2 == 0 else -term
        return total

    best = 0
    n = min(m.rows, m.cols)
    for k in range(1, n + 1):
        found = False
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                if det(list(rows), list(cols)) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
    return best


class TestField:
    def test_large_prime_builds_fast(self):
        start = time.perf_counter()
        assert GF(10**18 + 3).p == 10**18 + 3
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("p", [561, 10**18 + 1, 1, -7, 3215031751,
                                   3317044064679887385961981])
    def test_rejected(self, p):
        # 561 is a Carmichael number, 3215031751 a strong pseudoprime to
        # bases 2, 3, 5 and 7; the last is beyond the certified range
        with pytest.raises(ValueError):
            GF(p)

    @pytest.mark.parametrize("p, x", [(3, Fraction(1, 3)),
                                      (2, Fraction(1, 2))])
    def test_denominator_divisible_by_p_refused(self, p, x):
        with pytest.raises(ZeroDivisionError):
            GF(p).coerce(x)

    def test_zero_is_rationals(self):
        assert GF(0) == QQ

    def test_agrees_with_trial_division(self):
        for p in range(2, 3000):
            prime = all(p % d for d in range(2, int(p**0.5) + 1))
            try:
                GF(p)
                built = True
            except ValueError:
                built = False
            assert built == prime, p


class TestRank:
    def test_identity(self):
        assert rank(Mat.identity(2, QQ)) == 2

    def test_zero(self):
        assert rank(Mat.zero(3, 4, QQ)) == 0

    def test_rank_one_by_hand(self):
        # row 2 is twice row 1
        m = Mat.from_rows([[1, 2], [2, 4]], QQ)
        assert rank(m) == 1

    def test_fractional_entries(self):
        m = Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                           [Fraction(3, 2), Fraction(1, 1)]], QQ)
        assert rank(m) == brute_rank_q(m)

    def test_mod_p_differs_from_q(self):
        m = Mat.from_rows([[2, 0], [0, 2]], QQ)
        assert rank(m) == 2
        m2 = Mat.from_rows([[2, 0], [0, 2]], F2)
        assert rank(m2) == 0


class TestKernel:
    def test_identity_empty(self):
        assert kernel_basis(Mat.identity(2, QQ)) == []

    def test_zero_full(self):
        basis = kernel_basis(Mat.zero(2, 3, QQ))
        assert len(basis) == 3

    def test_f2_brute_force(self):
        m = Mat.from_rows([[1, 1]], F2)
        basis = kernel_basis(m)
        assert len(basis) == 1
        assert basis[0] == {0: 1, 1: 1}
        # oracle over all 4 vectors of F_2^2
        assert brute_kernel_fp(m) == {(1, 1)}

    def test_vectors_annihilated(self):
        m = Mat.from_rows([[1, 2, 3], [4, 5, 6]], QQ)
        for v in kernel_basis(m):
            assert m.mul_vec(v) == {}

    def test_empty_shapes(self):
        assert kernel_basis(Mat.zero(0, 3, QQ)) != []
        assert len(kernel_basis(Mat.zero(0, 3, QQ))) == 3
        assert kernel_basis(Mat.zero(3, 0, QQ)) == []


class TestCohomologyDim:
    def test_point_complex(self):
        d_out = Mat.zero(1, 1, QQ)
        d_in = Mat.zero(1, 0, QQ)
        assert _cohomology_dim(d_out, d_in, False) == 1

    def test_acyclic(self):
        d_out = Mat.from_rows([[1]], QQ)
        d_in = Mat.zero(1, 0, QQ)
        assert _cohomology_dim(d_out, d_in, False) == 0

    def test_circle_middle_degree(self):
        # two vertices collapsed: 0 -> k -> k^2 -> 0 with d_in = (1,1)^T
        d_out = Mat.zero(1, 2, QQ)
        d_in = Mat.from_rows([[1], [1]], QQ)
        assert _cohomology_dim(d_out, d_in, False) == 1

    def test_representatives(self):
        d_out = Mat.zero(1, 2, QQ)
        d_in = Mat.from_rows([[1], [1]], QQ)
        dim, reps = _cohomology_dim(d_out, d_in, True)
        assert dim == 1 and len(reps) == 1
        assert d_out.mul_vec(reps[0]) == {}


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def sparse_mats(draw, field):
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=0, max_value=5))
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if draw(st.booleans()):
                entries[(i, j)] = draw(small_entries)
    return Mat(rows, cols, entries, field)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(sparse_mats(QQ))
    def test_rank_nullity_q(self, m):
        assert rank(m) + len(kernel_basis(m)) == m.cols

    @settings(max_examples=60, deadline=None)
    @given(sparse_mats(F3))
    def test_rank_nullity_f3(self, m):
        assert rank(m) + len(kernel_basis(m)) == m.cols

    @settings(max_examples=40, deadline=None)
    @given(sparse_mats(QQ), st.randoms(use_true_random=False))
    def test_rank_permutation_invariant(self, m, rng):
        rperm = list(range(m.rows))
        cperm = list(range(m.cols))
        rng.shuffle(rperm)
        rng.shuffle(cperm)
        permuted = Mat(m.rows, m.cols,
                       {(rperm[i], cperm[j]): v for (i, j), v in m.entries.items()},
                       m.field)
        assert rank(permuted) == rank(m)

    @settings(max_examples=30, deadline=None)
    @given(sparse_mats(QQ))
    def test_rank_matches_minor_oracle(self, m):
        if m.rows * m.cols <= 16:
            assert rank(m) == brute_rank_q(m)

    @settings(max_examples=30, deadline=None)
    @given(sparse_mats(F2))
    def test_kernel_matches_brute_force_f2(self, m):
        if m.cols <= 4:
            kernel = brute_kernel_fp(m)
            basis = kernel_basis(m)
            for v in basis:
                assert m.mul_vec(v) == {}
            # span check: brute-force kernel size is 2^dim - 1 nonzero vectors
            assert len(kernel) == 2 ** len(basis) - 1

    @settings(max_examples=40, deadline=None)
    @given(sparse_mats(QQ))
    def test_rank_transpose(self, m):
        assert rank(m) == rank(m.transpose())

    @settings(max_examples=40, deadline=None)
    @given(sparse_mats(QQ), st.data())
    def test_solve_roundtrip(self, m, data):
        # solve on the column space: A . x = A . e_j must recover something
        # that maps to the same image vector
        cols = m.columns()
        if rank(m) == m.cols and m.cols:
            targets = [dict(c) for c in cols]
            sols = solve_multi(cols, targets, QQ)
            for j, x in enumerate(sols):
                assert m.mul_vec(x) == {i: v for i, v in cols[j].items()}
        assert_solve_recovers(m, data, QQ)

    @settings(max_examples=40, deadline=None)
    @given(sparse_mats(F3), st.data())
    def test_solve_roundtrip_f3(self, m, data):
        assert_solve_recovers(m, data, F3)

    def test_solve_inconsistent(self):
        a = Mat.from_rows([[1], [0]], QQ)
        with pytest.raises(NoSolution):
            solve_multi(a.columns(), [{1: 1}], QQ)
        # rank-deficient: column 1 is twice column 0, even for b in the span
        deficient = Mat.from_rows([[1, 2], [2, 4]], QQ)
        with pytest.raises(NoSolution):
            solve_multi(deficient.columns(), [{0: 1, 1: 2}], QQ)
        # column 1 lies in span(modulo), even for b in the span
        with pytest.raises(NoSolution):
            solve_multi([{0: 1}, {1: 2}], [{0: 1}], QQ,
                        modulo=[{1: 1, 2: 1}, {2: 1}])


def _full_column_rank(m: Mat) -> Mat:
    """m with an identity block stacked below it."""
    entries = dict(m.entries)
    entries.update({(m.rows + j, j): 1 for j in range(m.cols)})
    return Mat(m.rows + m.cols, m.cols, entries, m.field)


def assert_solve_recovers(m: Mat, data, field):
    """Targets A . x + B . y solve to x, for A = _full_column_rank(m) and B
    a drawn list that holds dependent columns.  B has no entry on A's
    identity rows, so A's columns stay independent modulo span(B)."""
    a = _full_column_rank(m)
    b = data.draw(sparse_mats(field))
    # rows of b from m.rows on move below A's identity rows
    modulo = [{i if i < m.rows else i + a.cols: v for i, v in col.items()}
              for col in b.columns()]
    # dependent columns: each one again, scaled by -2, and the sum of all
    total = {}
    for col in list(modulo):
        modulo.append({i: -2 * v for i, v in col.items()})
        for i, v in col.items():
            total[i] = total.get(i, 0) + v
    modulo = data.draw(st.permutations(modulo + [total]))
    xs = data.draw(st.lists(sparse_vecs(a.cols, field), max_size=3))
    targets = []
    for x in xs:
        t = a.mul_vec(x)
        for k, y in data.draw(sparse_vecs(len(modulo), field)).items():
            for i, v in modulo[k].items():
                t[i] = t.get(i, 0) + y * v
        targets.append(t)
    assert solve_multi(a.columns(), targets, field, modulo=modulo) == xs


@st.composite
def sparse_vecs(draw, size, field):
    """Sparse vectors with fractional entries (coerced into field); over
    F_p only denominators prime to p, the ones with a value mod p."""
    fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if field.p:
        fracs = fracs.filter(lambda x: x.denominator % field.p)
    vec = {}
    for i in range(size):
        v = field.coerce(draw(fracs))
        if v:
            vec[i] = v
    return vec


def _quotient(a, b, p):
    return Fraction(a, b) if not p else a * pow(b, p - 2, p) % p


def _scaled(vec, lam, p):
    return {i: v * lam % p if p else v * lam for i, v in vec.items()}


@st.composite
def elimination_steps(draw, field):
    """(vec, combo, w, cw, piv) with vec[piv] and w[piv] nonzero;
    combo and cw are None for an untracked step."""
    p = field.p
    entry = st.integers(1, p - 1) if p else \
        st.integers(-6, 6).filter(lambda v: v != 0)

    def vector():
        keys = draw(st.sets(st.integers(0, 6), max_size=5))
        return {i: draw(entry) for i in keys}

    piv = draw(st.integers(0, 6))
    vec, w = vector(), vector()
    vec[piv], w[piv] = draw(entry), draw(entry)
    if not draw(st.booleans()):
        return vec, None, w, None, piv
    return vec, vector(), w, vector(), piv


@pytest.mark.parametrize("field", [QQ, F3], ids=["QQ", "GF3"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_elimination_step_matches_fraction_reference(field, data):
    # the step gives lam * (vec - (b/a) w) for an integer lam: lam = 1 in
    # place (over F_p, and over Q when a divides b) with the sign of a
    # reported, else sign(lam) = sign(a) with 1 reported; _primitive
    # then gives what the eager step gives
    vec, combo, w, cw, piv = data.draw(elimination_steps(field))
    p = field.p
    a, b = w[piv], vec[piv]
    factor = _quotient(b, a, p)

    def reference(u, x):
        out = {}
        for i in set(u) | set(x):
            v = u.get(i, 0) - factor * x.get(i, 0)
            v = v % p if p else v
            if v:
                out[i] = v
        return out

    ref_vec = reference(vec, w)
    ref_combo = reference(combo, cw) if combo is not None else {}
    got_vec, got_combo, sign = _eliminate(
        dict(vec), dict(combo) if combo is not None else None, w, cw, piv, p)
    assert piv not in got_vec
    assert (got_combo is None) == (combo is None)
    in_place = bool(p) or b % a == 0
    assert sign == (1 if not in_place or a > 0 else -1)
    assert _primitive(got_vec, got_combo, sign, p) == eager_step(
        dict(vec), dict(combo) if combo is not None else None, w, cw, piv, p)
    got_combo = got_combo or {}
    lead = next(iter(ref_vec or ref_combo), None)
    if lead is None:
        assert got_vec == {} and got_combo == {}
        return
    got_lead = (got_vec if ref_vec else got_combo)[lead]
    lam = _quotient(got_lead, (ref_vec or ref_combo)[lead], p)
    assert lam == 1 if in_place else lam * a > 0
    assert got_vec == _scaled(ref_vec, lam, p)
    assert got_combo == _scaled(ref_combo, lam, p)


def eager_step(vec, combo, w, cw, piv, p):
    """Reference: the elimination step that builds a*vec - b*w over Q as
    new dicts and divides it, with its combination, by the gcd of all
    their entries at every step (over F_p: vec - (b/a)*w, reduced)."""
    a, b = w[piv], vec[piv]
    pairs = ((vec, w),) if combo is None else ((vec, w), (combo, cw))
    out = []
    for u, x in pairs:
        new = {}
        for i in u.keys() | x.keys():
            s = a * u.get(i, 0) - b * x.get(i, 0)
            if p:
                s = s * pow(a, p - 2, p) % p
            if s:
                new[i] = s
        out.append(new)
    g = 0 if p else reduce(gcd, (v for new in out for v in new.values()), 0)
    if g > 1:
        out = [{i: s // g for i, s in new.items()} for new in out]
    return out[0], (out[1] if combo is not None else None)


class ScanSieve:
    """Reference sieve: reduce against every stored pivot in insertion
    order, testing each one for membership in the vector, with the eager
    step."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}
        self.order = []

    def insert(self, vec, combo=None):
        vec, lam = _prepare(vec, self.field)
        if combo is not None:
            combo = {i: v * lam for i, v in combo.items()}
        for piv in self.order:
            if piv in vec:
                w, cw = self.pivots[piv]
                vec, combo = eager_step(vec, combo, w, cw, piv, self.field.p)
        if vec:
            piv = min(vec)
            self.pivots[piv] = (vec, combo)
            self.order.append(piv)
        return vec, combo


@st.composite
def sieve_inputs(draw, field, bound=4):
    """Columns of a random sparse matrix, plus extra vectors drawn as
    sums of earlier columns (so some inserts land in the span)."""
    rows = draw(st.integers(1, 9))
    entry = st.integers(-bound, bound).filter(bool)
    cols = []
    for _ in range(draw(st.integers(1, 12))):
        keys = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
        cols.append({i: draw(entry) for i in keys})
    for _ in range(draw(st.integers(0, 3))):
        picked = draw(st.lists(st.sampled_from(cols), max_size=3))
        total = {}
        for col in picked:
            for i, v in col.items():
                total[i] = total.get(i, 0) + draw(entry) * v
        cols.append(total)
    return [reduced(col, field) for col in cols]


def assert_sieve_replays_scan(field, cols, tracked) -> list:
    """Insert cols into a Sieve and a ScanSieve, comparing after every
    insert; returns the residuals."""
    heap, scan = Sieve(field), ScanSieve(field)
    residuals = []
    for j, col in enumerate(cols):
        got = heap.insert(dict(col), {j: 1} if tracked else None)
        want = scan.insert(dict(col), {j: 1} if tracked else None)
        assert got == want
        assert heap.order == scan.order
        assert heap.pivots == scan.pivots
        residuals.append(got[0])
    assert heap.rank_of == {piv: k for k, piv in enumerate(heap.order)}
    return residuals


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["QQ", "GF2", "GF3"])
@pytest.mark.parametrize("tracked", [False, True],
                         ids=["untracked", "tracked"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_heap_sieve_equals_pivot_scan(field, tracked, data):
    # the heap-driven pivot lookup and the in-place steps must replay the
    # eager scan step for step
    assert_sieve_replays_scan(field, data.draw(sieve_inputs(field)), tracked)


@pytest.mark.parametrize("tracked", [False, True],
                         ids=["untracked", "tracked"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_in_place_steps_equal_eager_steps_over_q(tracked, data):
    # wider entries than the scan test, so that a divides b less often
    assert_sieve_replays_scan(QQ, data.draw(sieve_inputs(QQ, bound=7)),
                              tracked)


@pytest.mark.parametrize("tracked", [False, True],
                         ids=["untracked", "tracked"])
def test_in_place_rule_cases(tracked, monkeypatch):
    # one fixed input through the cases the lazy rule must get right: a
    # negative a in place, an a that does not divide b, and residuals
    # that end empty after them
    from stackcoh import exactalg
    steps = []
    step = exactalg._eliminate

    def watched(vec, combo, w, cw, piv, p):
        steps.append((w[piv], vec[piv]))
        return step(vec, combo, w, cw, piv, p)
    monkeypatch.setattr(exactalg, "_eliminate", watched)
    cols = [{0: -1, 1: 2, 2: 1}, {1: 3, 2: 1}, {0: 1, 1: 4, 2: 1},
            {0: 2, 1: 4, 2: 3}, {0: 1, 1: -1, 2: 5}]
    residuals = assert_sieve_replays_scan(QQ, cols, tracked)
    assert steps[:5] == [(-1, 1), (3, 6), (-1, 2), (3, 8), (-1, 1)]
    assert steps[5] == (3, 1) and len(steps) == 7
    assert residuals[2] == residuals[4] == {}


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["QQ", "GF2", "GF3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_insert_leaves_the_callers_dicts(field, data):
    # the in-place steps touch only the dicts the sieve made itself
    cols = data.draw(sieve_inputs(field))
    combos = [{j: 1, j + 1: -2} for j in range(len(cols))]
    before = [(dict(col), dict(combo)) for col, combo in zip(cols, combos)]
    tracked, untracked = Sieve(field), Sieve(field)
    for col, combo in zip(cols, combos):
        tracked.insert(col, combo)
        untracked.insert(col)
    assert list(zip(cols, combos)) == before


@pytest.mark.parametrize("field", [F2, F3], ids=["GF2", "GF3"])
def test_products_vanishing_mod_p_are_zero(field):
    # every integer sum of this product is a nonzero multiple of p
    p = field.p
    a = Mat(2, p, {(i, k): 1 for i in range(2) for k in range(p)}, field)
    b = Mat(p, 3, {(k, j): j + 1 for k in range(p) for j in range(3)}, field)
    prod = a * b
    assert prod.is_zero() and prod.shape == (2, 3)


@pytest.mark.parametrize("field", [QQ, F2, F3, F5],
                         ids=["QQ", "GF2", "GF3", "GF5"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_row_rank_equals_column_sieve_rank(field, data):
    # rank sieves columns with the pivot at the smallest row; sieving the
    # columns of the transpose sieves the rows of m, and the two ranks
    # agree, also when some columns are sums of others
    m = mat_from_columns(data.draw(sieve_inputs(field)), 9, field)
    assert rank(m.transpose()) == rank(m)


def test_mat_from_columns_roundtrip():
    m = Mat.from_rows([[1, 0], [2, 5]], QQ)
    rebuilt = mat_from_columns(m.columns(), m.rows, QQ)
    assert rebuilt == m


# -- normalisation: Mat.__init__ reduces every entry once ------------------


def _assert_reduced(m: Mat, raw: dict):
    """m holds exactly the nonzero entries of raw, each reduced once into
    m.field from its Fraction value: an int in 1..p-1 over F_p; over Q an
    int when integral, else a Fraction."""
    p = m.field.p
    want = {}
    for key, x in raw.items():
        x = Fraction(x)
        v = x.numerator * pow(x.denominator, -1, p) % p if p else x
        if v:
            want[key] = v
    assert m.entries == want
    for v in m.entries.values():
        if p:
            assert type(v) is int and 0 < v < p
        else:
            assert v != 0
            assert type(v) is (int if Fraction(v).denominator == 1
                               else Fraction)


def raw_entries(p):
    """Unreduced scalars: ints beyond 0..p-1 and fractions whose
    denominators are invertible mod p."""
    dens = [d for d in (1, 2, 3, 4) if not p or d % p]
    bound = 2 * max(p, 3) + 1
    return st.one_of(st.integers(-bound, bound),
                     st.builds(Fraction, st.integers(-7, 7),
                               st.sampled_from(dens)))


@st.composite
def raw_mats(draw, field, rows, cols):
    raw = {}
    for i in range(rows):
        for j in range(cols):
            if draw(st.booleans()):
                raw[(i, j)] = draw(raw_entries(field.p))
    return Mat(rows, cols, raw, field), raw


NORMALISATION_FIELDS = pytest.mark.parametrize(
    "field", [QQ, F2, F3], ids=["QQ", "GF2", "GF3"])


@NORMALISATION_FIELDS
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_producers_hold_reduced_nonzero_entries(field, data):
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, ra = data.draw(raw_mats(field, r, k))
    a2, ra2 = data.draw(raw_mats(field, r, k))
    b, rb = data.draw(raw_mats(field, k, c))
    s = data.draw(raw_entries(field.p))
    _assert_reduced(a, ra)
    prod = {}
    for (i, t), x in ra.items():
        for (t2, j), y in rb.items():
            if t == t2:
                prod[(i, j)] = prod.get((i, j), 0) + Fraction(x) * y
    _assert_reduced(a * b, prod)
    _assert_reduced(a + a2, {key: Fraction(ra.get(key, 0)) + ra2.get(key, 0)
                             for key in ra.keys() | ra2.keys()})
    _assert_reduced(-a, {key: -x for key, x in ra.items()})
    _assert_reduced(a.scale(s), {key: Fraction(x) * s
                                 for key, x in ra.items()})
    _assert_reduced(a.transpose(), {(j, i): x for (i, j), x in ra.items()})
    _assert_reduced(kron(a, b), {(i * k + i2, j * c + j2): Fraction(x) * y
                                 for (i, j), x in ra.items()
                                 for (i2, j2), y in rb.items()})
    # square complex: a on both rows, identities up; D^0 stacks I_k over
    # a, and D^1 is [-a | I_r] (the q = 1 row carries the sign)
    one = {(0, 0): Mat.identity(k, field), (1, 0): Mat.identity(r, field)}
    dc = DoubleComplex(field, (0, 1), (0, 1),
                       {(0, 0): k, (0, 1): k, (1, 0): r, (1, 1): r},
                       {(0, 0): a, (0, 1): a}, one)
    layout = TotalLayout(dc)
    ident_k = {(i, i): 1 for i in range(k)}
    ident_r = {(i, k + i): 1 for i in range(r)}
    _assert_reduced(layout.total_matrix(0),
                    ident_k | {(k + i, j): x for (i, j), x in ra.items()})
    _assert_reduced(layout.total_matrix(1),
                    ident_r | {key: -Fraction(x) for key, x in ra.items()})


@NORMALISATION_FIELDS
def test_raw_entries_come_out_normalised(field):
    p = field.p
    raw = {(0, 0): p, (0, 1): p + 1, (0, 2): -1, (0, 3): Fraction(4, 2)}
    if p != 2:
        raw[(0, 4)] = Fraction(1, 2)
    m = Mat(1, 5, raw, field)
    expected = {QQ: {(0, 1): 1, (0, 2): -1, (0, 3): 2,
                     (0, 4): Fraction(1, 2)},
                F2: {(0, 1): 1, (0, 2): 1},
                F3: {(0, 1): 1, (0, 2): 2, (0, 3): 2, (0, 4): 2}}[field]
    assert m.entries == expected
    _assert_reduced(m, raw)
