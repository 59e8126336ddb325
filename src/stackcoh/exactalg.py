"""Exact sparse linear algebra over Q and prime fields.

Matrices are sparse triplet maps with Fraction (Q) or reduced-int (F_p)
entries.  A Mat holds reduced nonzero entries only: Mat.__init__ is the
one place where matrix entries are normalised (coerced into the field by
Field.coerce, zeros dropped), so every producer, here and in the other
modules, passes plain Python sums and products and reduces nothing
itself.  A sparse vector that never becomes a Mat goes through reduced(),
the same step.  All elimination in the package (Sieve, hence rank, kernels,
cohomology dimensions and solve_multi, and the filtered kernels of
spectra._FilteredTotal) goes through two module-level steps: _prepare
clears a vector to integers over Q (returning the multiplier) or reduces
it mod p, and _eliminate clears one pivot entry.  Elimination is
fraction-free over Q: _eliminate forms a*vec - b*w and divides vec and
its combination by the gcd of all their entries, so there is no rounding
and no runaway coefficient growth.  Pivoting is deterministic: a stored
vector's pivot is its smallest index, and an inserted vector is cleared
against the stored pivots in their insertion order, found from its
support through a heap rather than by scanning every pivot.  The caller
picks the pivot order through the indices it inserts, and there are
three.  Kernels pivot on the smallest row: they insert columns left to
right, so every kernel and representative basis is reproducible across
runs (the rank table of spectra inserts them right to left); solve_multi
pivots in its caller's indices.  A rank does not depend on the order, so
it is sieved where that is cheapest.  rank sieves a lone matrix (a d_r
of the page check, say) by rows, top to bottom with column j stored at
index -j, so each row's pivot is its largest column (de Silva, Morozov
and Vejdemo-Johansson, "Dualities in persistent (co)homology", Inverse
Problems 27, 2011).  The differentials of a complex are ranked in one
ascending pass instead (homalg.CochainComplex.rank_through): the columns
of D^n go into _column_sieve in the kernel order, and every column at a
pivot of D^{n-1}'s sieve is skipped.  Rows gain almost nothing from the
matching clearing: at the truncated top degrees most rows of D^n reduce
to zero and no degree above clears them.  On the six totals of the
dims-only S3 runs of perfbench's ss_ranks workload (best of five) the
rows took 0.21 s, the rows cleared from the degree above 0.20 s, and
the cleared columns 0.06 s.  The page sieves of spectra and its d_r
solve store block index i at -i, so a pivot is the largest block index;
the vectors they keep and the unique coordinates they solve for are
facts about spans, which no pivot order changes.  A Mat's rank is
computed at most once and kept on the (immutable) matrix.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import DimensionMismatch, InvariantViolation, NoSolution


# Miller-Rabin with the first thirteen primes as bases is exact below
# 3317044064679887385961981, the least strong pseudoprime to all of them
# (OEIS A014233); larger moduli are refused rather than guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (p == 0) or the prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int = 0):
        if p:
            if p >= _MR_LIMIT:
                raise ValueError(f"{p} is too large: primality is only "
                                 f"certified below {_MR_LIMIT}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        self.p = p

    def coerce(self, x):
        if type(x) is int:
            return x % self.p if self.p else x
        if self.p:
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise ZeroDivisionError(
                        f"{x} has no value mod {self.p}")
                den = pow(x.denominator % self.p, self.p - 2, self.p)
                return (x.numerator % self.p) * den % self.p
            return int(x) % self.p
        # integral values stay plain ints: exact and much faster; Fraction
        # arithmetic mixes with them transparently
        if isinstance(x, int):
            return x
        f = Fraction(x)
        return int(f) if f.denominator == 1 else f

    def parse(self, text):
        """Parse an exact scalar: an integer, or over Q an integer or "a/b"
        string.  Fraction would also take decimals and exponents, and
        expands "1e10000000" digit by digit, so those raise ValueError."""
        if self.p:
            return int(text) % self.p
        if isinstance(text, str) and not _RATIONAL.fullmatch(text):
            raise ValueError(f"{text!r} is not an integer or 'a/b'")
        return self.coerce(Fraction(text))

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p == 0 else f"GF({self.p})"


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)


def reduced(vec: dict, field: Field) -> dict:
    """vec with every entry coerced into field and the zeros dropped."""
    coerce = field.coerce
    out = {}
    for k, v in vec.items():
        v = coerce(v)
        if v:
            out[k] = v
    return out


class Mat:
    """Immutable sparse matrix: entries maps (row, col) -> nonzero scalar.

    Two slots are filled lazily and never invalidated, which is safe
    because a Mat is never mutated: _col_cache holds the columns, filled
    by the first columns() call, and _rank the rank, filled by the first
    rank() call or column sieve, so rank() sieves a matrix at most once.
    """

    __slots__ = ("rows", "cols", "entries", "field", "_col_cache", "_rank")

    def __init__(self, rows: int, cols: int, entries: dict, field: Field):
        self.rows = rows
        self.cols = cols
        self.field = field
        for (i, j) in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatch(f"entry ({i},{j}) outside {rows}x{cols}")
        self.entries = reduced(entries, field)
        self._col_cache = None
        self._rank = None

    @classmethod
    def from_rows(cls, rows_data, field: Field) -> "Mat":
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if rows_data else 0
        entries = {}
        for i, row in enumerate(rows_data):
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(nrows, ncols, entries, field)

    @classmethod
    def identity(cls, n: int, field: Field) -> "Mat":
        return cls(n, n, {(i, i): 1 for i in range(n)}, field)

    @classmethod
    def zero(cls, rows: int, cols: int, field: Field) -> "Mat":
        return cls(rows, cols, {}, field)

    def columns(self) -> list[dict]:
        if self._col_cache is None:
            cols = [dict() for _ in range(self.cols)]
            for (i, j), v in self.entries.items():
                cols[j][i] = v
            self._col_cache = cols
        return self._col_cache

    def col(self, j: int) -> dict:
        return dict(self.columns()[j])

    def mul_vec(self, vec: dict) -> dict:
        """Matrix times sparse column vector (dict index -> value)."""
        out: dict = {}
        cols = self.columns()
        for j, x in vec.items():
            for i, a in cols[j].items():
                out[i] = out.get(i, 0) + a * x
        return reduced(out, self.field)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} * {other.shape}")
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        out: dict = {}
        cols = self.columns()
        for (k, j), b in other.entries.items():
            for i, a in cols[k].items():
                key = (i, j)
                # drop a running sum that cancels exactly: the d^2 and
                # commutation products cancel, and dead keys cost memory
                s = out.get(key, 0) + a * b
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Mat(self.rows, other.cols, out, self.field)

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape or self.field != other.field:
            raise DimensionMismatch("shape or field mismatch in add")
        out = dict(self.entries)
        for key, v in other.entries.items():
            out[key] = out.get(key, 0) + v
        return Mat(self.rows, self.cols, out, self.field)

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols,
                   {k: -v for k, v in self.entries.items()}, self.field)

    def scale(self, c) -> "Mat":
        return Mat(self.rows, self.cols,
                   {k: v * c for k, v in self.entries.items()}, self.field)

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows,
                   {(j, i): v for (i, j), v in self.entries.items()}, self.field)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.shape == other.shape
                and self.field == other.field and self.entries == other.entries)

    def __hash__(self):
        return hash((self.shape, self.field, frozenset(self.entries.items())))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over {self.field}, nnz={len(self.entries)})"


def _prepare(vec: dict, field: Field) -> tuple[dict, int]:
    """The one preparation of a vector for elimination.

    Over Q: (integer vector, lam) with result == lam * vec, lam the lcm
    of the denominators.  Over F_p: (reduced nonzero entries, 1).
    """
    if field.p:
        return reduced(vec, field), 1
    lam = reduce(lcm, (v.denominator for v in vec.values()), 1)
    out = {}
    for i, v in vec.items():
        w = int(v * lam)
        if w:
            out[i] = w
    return out, lam


def _eliminate(vec: dict, combo: dict | None, w: dict, cw: dict | None,
               piv, p: int):
    """The one elimination step: clear vec[piv] with the pivot vector w.

    combo (may be None) follows by the same column operation with cw.
    Over F_p, vec and combo are updated in place over the support of w.
    Over Q the step builds a*vec - b*w (a = w[piv], b = vec[piv]) as new
    dicts and divides vec and combo by the gcd of all their entries, so
    the result is vec - (b/a)*w up to a nonzero integer scalar.
    Returns (vec, combo).
    """
    b = vec[piv]
    pairs = ((vec, w),) if combo is None else ((vec, w), (combo, cw))
    if p:
        factor = b * pow(w[piv], p - 2, p) % p
        for u, x in pairs:
            for i, y in x.items():
                s = (u.get(i, 0) - factor * y) % p
                if s:
                    u[i] = s
                else:
                    u.pop(i, None)
        return vec, combo
    a = w[piv]
    out = []
    g = 0
    for u, x in pairs:
        new = {}
        for i, y in u.items():
            s = a * y - b * x.get(i, 0)
            if s:
                new[i] = s
        for i, y in x.items():
            if i not in u:
                new[i] = -b * y
        g = reduce(gcd, new.values(), g)
        out.append(new)
    if g > 1:
        out = [{i: s // g for i, s in new.items()} for new in out]
    return out[0], (out[1] if combo is not None else None)


class Sieve:
    """Incremental echelon of sparse vectors (columns, or the rows that
    rank sieves) with optional combination tracking.

    Vectors are sparse dicts, prepared by _prepare and reduced by
    _eliminate, so over Q all stored data is integer.  The pivot of a
    reduced vector is its smallest support index; rank_of maps each pivot
    to its position in order, the insertion order.

    An inserted vector is cleared against the stored pivots in insertion
    order.  _reduce finds them by support: it heapifies the ranks of the
    pivots present in the vector, pops them smallest first, skips a pivot
    the vector no longer holds, and after each step pushes the ranks of
    the later pivots that the pivot vector w brought in.  A stored pivot
    vector holds no earlier pivot index (it was cleared against all of
    them), so w brings in no pivot already passed, and the steps are
    exactly those of a scan of every pivot in order: the same pivots,
    residuals and combinations, over Q and F_p.

    Either every insert into a sieve passes a combo or none does.
    Tracked pivots maintain the invariant  A . combo == vec  where A is the
    implicit matrix whose columns were inserted.
    """

    def __init__(self, field: Field):
        self.field = field
        self.pivots: dict = {}   # pivot index -> (vec, combo)
        self.order: list = []    # pivot indices in insertion order
        self.rank_of: dict = {}  # pivot index -> its position in order

    @property
    def rank(self) -> int:
        return len(self.order)

    def _reduce(self, vec: dict, combo: dict | None):
        """Reduce a prepared vector against all pivots: (vec, combo)."""
        p = self.field.p
        order, pivots, rank_of = self.order, self.pivots, self.rank_of
        heap = [rank_of[i] for i in vec if i in rank_of]
        heapify(heap)
        while heap:
            k = heappop(heap)
            piv = order[k]
            if piv not in vec:
                continue
            w, cw = pivots[piv]
            vec, combo = _eliminate(vec, combo, w, cw, piv, p)
            for i in w:
                j = rank_of.get(i)
                if j is not None and j > k:
                    heappush(heap, j)
        return vec, combo

    def insert(self, vec: dict, combo: dict | None = None):
        """Reduce vec and store it if independent.

        Returns (residual, combo); an empty residual means vec was in the
        span and, when tracking, combo gives the dependency.
        """
        vec, lam = _prepare(vec, self.field)
        if combo is not None:
            combo = {i: v * lam for i, v in combo.items()}
        vec, combo = self._reduce(vec, combo)
        if vec:
            piv = min(vec)
            self.pivots[piv] = (vec, combo)
            self.rank_of[piv] = len(self.order)
            self.order.append(piv)
        return vec, combo


def _column_sieve(m: Mat, skip=frozenset()) -> Sieve:
    """Untracked sieve loaded with the columns of m left to right, each
    stored at its smallest row (the kernel order), except the columns
    whose indices are in skip; fills m._rank.  Unskipped, it is the span
    that _cohomology_dim(reps=True) reads.  The rank pass of a
    homalg.CochainComplex skips columns that are combinations of the
    kept ones, so the rank it fills is still that of m.  A zero matrix
    loads nothing, so a complex's zero differentials cost no columns."""
    sieve = Sieve(m.field)
    if m.entries:
        for j, col in enumerate(m.columns()):
            if j not in skip:
                sieve.insert(col)
    m._rank = sieve.rank
    return sieve


def _row_sieve(m: Mat) -> Sieve:
    """Untracked sieve loaded with the rows of m top to bottom, column j
    stored at index -j so that a row's pivot is its largest column;
    fills m._rank."""
    rows = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[-j] = v
    sieve = Sieve(m.field)
    for i in sorted(rows):
        sieve.insert(rows[i])
    m._rank = sieve.rank
    return sieve


def rank(m: Mat) -> int:
    """Exact rank over the matrix's field, sieved once per matrix.  A
    matrix that no complex pass has ranked is sieved by rows (see the
    module docstring)."""
    if m._rank is None:
        _row_sieve(m)
    return m._rank


def kernel_basis(m: Mat) -> list[dict]:
    """Basis of the right kernel, as sparse column vectors.

    Vectors are normalised: leading (smallest-index) entry 1 over F_p, primitive
    with positive lead over Q.
    """
    f = m.field
    sieve = Sieve(f)
    basis = []
    for j, col in enumerate(m.columns()):
        vec, combo = sieve.insert(col, {j: 1})
        if not vec:
            basis.append(_normalise(combo, f))
    return basis


def joint_kernel(mats: list, cols: int, field: Field) -> list[dict]:
    """kernel_basis of the given cols-column matrices stacked vertically."""
    entries = {}
    offset = 0
    for m in mats:
        for (i, j), v in m.entries.items():
            entries[(offset + i, j)] = v
        offset += m.rows
    return kernel_basis(Mat(offset, cols, entries, field))


def _normalise(vec: dict, f: Field) -> dict:
    if not vec:
        return {}
    lead = min(vec)
    if f.p:
        inv = pow(vec[lead] % f.p, f.p - 2, f.p)
        return {i: (v * inv) % f.p for i, v in sorted(vec.items())}
    g = reduce(gcd, vec.values())
    if vec[lead] < 0:
        g = -g
    return {i: v // g if v % g == 0 else Fraction(v, g)
            for i, v in sorted(vec.items())}


def _cohomology_dim(d_out: Mat, d_in: Mat, reps: bool):
    """dim ker(d_out) - rank(d_in) for a pair d_in then d_out already
    known to compose to zero (a CochainComplex checks that).

    With reps=True also returns cocycle vectors spanning a complement of
    im(d_in) inside ker(d_out), chosen deterministically.
    """
    if not reps:
        return d_out.cols - rank(d_out) - rank(d_in)
    kernel = kernel_basis(d_out)
    sieve = _column_sieve(d_in)
    dim = len(kernel) - sieve.rank
    chosen = []
    for v in kernel:
        residual, _ = sieve.insert(v)
        if residual:
            chosen.append(v)
    if len(chosen) != dim:
        raise InvariantViolation(
            f"{len(chosen)} representatives for a {dim}-dimensional space")
    return dim, chosen


def solve_multi(cols: list[dict], rhs: list[dict], field: Field,
                modulo=()) -> list[dict]:
    """The coordinates x of each sparse b in rhs in cols, modulo
    span(modulo): b - sum_k x[k] cols[k] lies in that span.

    cols must be independent modulo the span, so x is unique; raises
    NoSolution otherwise or if some b has no coordinates.  The modulo
    vectors, which may be dependent, go in with empty combos, so they get
    no coordinates; each b goes in with a marker column len(cols).
    """
    sieve = Sieve(field)
    for v in modulo:
        sieve.insert(v, {})
    for k, col in enumerate(cols):
        if not sieve.insert(col, {k: 1})[0]:
            raise NoSolution("columns are dependent modulo the span")
    mark = len(cols)
    p = field.p
    sols = []
    for b in rhs:
        vec, combo = sieve.insert(b, {mark: 1})
        if vec:
            raise NoSolution("inconsistent system")
        c = combo.pop(mark)
        if p:
            inv = pow(c, p - 2, p)
            sols.append({i: -v * inv % p for i, v in combo.items()})
        else:
            sols.append({i: Fraction(-v, c) for i, v in combo.items()})
    return sols


def mat_from_columns(cols: list[dict], nrows: int, field: Field) -> Mat:
    entries = {}
    for j, col in enumerate(cols):
        for i, v in col.items():
            entries[(i, j)] = v
    return Mat(nrows, len(cols), entries, field)
