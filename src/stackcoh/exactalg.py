"""Exact sparse linear algebra over Q and prime fields.

Matrices are sparse triplet maps with Fraction (Q) or reduced-int (F_p)
entries.  A Mat holds reduced nonzero entries only: Mat.__init__ is the
one place where matrix entries are normalised (coerced into the field by
Field.coerce, zeros dropped), so every producer, here and in the other
modules, passes plain Python sums and products and reduces nothing
itself.  A sparse vector that never becomes a Mat goes through
reduced(), the same step.  All elimination in the package (Sieve, hence
rank, kernels, cohomology dimensions and solve_multi, and the filtered
kernels of spectra._FilteredTotal) goes through two module-level steps:
_prepare clears a vector to integers over Q (returning the multiplier)
or reduces it mod p, and _eliminate clears one pivot entry.  Elimination
is fraction-free over Q (Bareiss, Math. Comp. 22, 1968): when a = w[piv]
divides b = vec[piv], as it nearly always does, _eliminate subtracts
(b/a)*w in place, touching only w's support, else it forms a*vec - b*w;
after the last step _primitive divides vec and its combination once by
the gcd of all their entries, signed as a gcd division after every step
would leave them, so there is no rounding and no runaway coefficient
growth.  A stored vector's pivot is its least key, and an insert is
top-reduced, as in the persistence reduction (Edelsbrunner, Letscher and
Zomorodian, DCG 28, 2002): while its least key is a pivot, that pivot's
vector clears it.  A pivot vector's support lies at or above its key,
so a step brings in only larger keys, and the residual's emptiness, its
least key and its dependency (unique up to a scalar) are those of the
full reduction: all that any caller reads.  The caller picks the pivot
order through the keys it inserts, and there are two.  Kernels and ranks
pivot on the smallest row: _column_sieve inserts columns left to right,
so every kernel and representative basis is reproducible (the rank table
of spectra inserts them right to left).  rank sieves a lone matrix so,
and the differentials of a complex are ranked in one ascending pass
(homalg.CochainComplex.rank_through) that skips every column at a pivot
of D^{n-1}'s sieve.  Rows would gain almost nothing from the matching
clearing, as most rows of the truncated top degrees reduce to zero with
no degree above to clear them (on the six totals of perfbench's ss_ranks
workload: rows 0.21 s, cleared rows 0.20 s, cleared columns 0.06 s).
The page sieves of spectra and its d_r solve store block index i at -i,
so a pivot is the largest block index; the vectors they keep and the
unique coordinates they solve for are facts about spans, which no pivot
order changes.  A Mat's rank is computed at most once and kept on the
(immutable) matrix.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd, inf, lcm

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
    p, coerce = field.p, field.coerce
    out = {}
    for k, v in vec.items():
        if type(v) is not int:
            v = coerce(v)
        elif p:
            v %= p
        if v:
            out[k] = v
    return out


class Mat:
    """Immutable sparse matrix: entries maps (row, col) -> nonzero scalar.

    Two slots are filled lazily and never invalidated, which is safe
    because a Mat is never mutated: _col_cache holds the columns, filled
    by the first columns() call, and _rank the rank, filled by the first
    column sieve, so rank() sieves a matrix at most once.
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
        # column by column, keyed by row: a sum that vanishes in the field
        # (most of a d^2 product, also mod p) never becomes an entry
        p = self.field.p
        out: dict = {}
        cols = self.columns()
        for j, col in enumerate(other.columns()):
            acc: dict = {}
            for k, b in col.items():
                for i, a in cols[k].items():
                    acc[i] = acc.get(i, 0) + a * b
            for i, s in acc.items():
                if s % p if p else s:
                    out[(i, j)] = s
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
    """The one preparation of a vector for elimination, into a new dict.

    Over Q: (integer vector, lam) with result == lam * vec, lam the lcm
    of the denominators (1 if all are ints).  Over F_p: (reduced nonzero
    entries, 1).
    """
    if field.p:
        return reduced(vec, field), 1
    if all(type(v) is int for v in vec.values()):
        return {i: v for i, v in vec.items() if v}, 1
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
    Over F_p, and over Q when a = w[piv] divides b = vec[piv], vec and
    combo become vec - (b/a)*w in place over the support of w, and the
    step returns sign(a).  Otherwise it builds a*vec - b*w as new dicts,
    divides both by the gcd of all their entries and returns 1.  Either
    way the result is a positive multiple of what a*vec - b*w divided
    by that gcd would be, times the returned sign; see _primitive.
    Returns (vec, combo, sign).
    """
    b = vec[piv]
    a = w[piv]
    pairs = ((vec, w),) if combo is None else ((vec, w), (combo, cw))
    if p or b % a == 0:
        factor = b * pow(a, p - 2, p) % p if p else b // a
        for u, x in pairs:
            for i, y in x.items():
                s = u.get(i, 0) - factor * y
                if p:
                    s %= p
                if s:
                    u[i] = s
                else:
                    u.pop(i, None)
        return vec, combo, (1 if a > 0 else -1)
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
    return out[0], (out[1] if combo is not None else None), 1


def _primitive(vec: dict, combo: dict | None, sign: int, p: int):
    """(vec, combo) after _eliminate's steps, sign the product of the
    signs they returned: over Q divided by sign times the gcd of all
    their entries, which is the pair a gcd division after every step
    gives.  Unchanged over F_p, or with sign 0 (no step taken)."""
    if p or not sign:
        return vec, combo
    g = reduce(gcd, vec.values(), 0)
    if combo:
        g = reduce(gcd, combo.values(), g)
    g *= sign
    if g in (0, 1):
        return vec, combo
    return ({i: v // g for i, v in vec.items()},
            None if combo is None else {i: v // g for i, v in combo.items()})


class Sieve:
    """Incremental echelon of sparse vectors with optional combination
    tracking.

    Vectors are sparse dicts, prepared by _prepare, reduced by _eliminate
    and, if a step was taken, made primitive once by _primitive, so over
    Q all stored data is integer; a vector and its combination are
    dicts of the sieve's own, never the caller's.  pivots maps the least
    key of each stored vector to (vec, combo), in insertion order.  An
    insert is only top-reduced, so a stored vector may hold larger pivot
    keys; the module docstring says why no output depends on them.

    Either every insert into a sieve passes a combo or none does.
    Tracked pivots maintain the invariant  A . combo == vec  where A is the
    implicit matrix whose columns were inserted.
    """

    def __init__(self, field: Field):
        self.field = field
        self.pivots: dict = {}   # least key -> (vec, combo)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec: dict, combo: dict | None):
        """Top-reduce a prepared vector: (vec, combo).  A free least key
        costs one lookup; otherwise a heap holds the pivot keys of vec
        and the larger ones each step brings in, so the loop ends, and
        free, a lower bound of vec's free keys, is looked up again only
        once it is below the next pivot key and gone from vec.  Both set
        operations walk vec, not the pivots (keys() - keys() walks both)."""
        pivots = self.pivots
        if not vec or min(vec) not in pivots:
            return vec, combo
        p = self.field.p
        heap = list(vec.keys() & pivots.keys())
        heapify(heap)
        free = min(set(vec).difference(pivots), default=inf)
        sign = 1
        while heap:
            k = heappop(heap)
            if k not in vec:
                continue
            if free < k and free not in vec:
                free = min(set(vec).difference(pivots), default=inf)
            if free < k:
                break
            w, cw = pivots[k]
            vec, combo, s = _eliminate(vec, combo, w, cw, k, p)
            sign *= s
            for i in w:
                if i in pivots:
                    if i > k:
                        heappush(heap, i)
                elif i < free:
                    free = i
        return _primitive(vec, combo, sign, p)

    def insert(self, vec: dict, combo: dict | None = None):
        """Top-reduce vec and store it at its least key if not empty.

        Returns (residual, combo); an empty residual means vec was in the
        span and, when tracking, combo gives the dependency.
        """
        vec, lam = _prepare(vec, self.field)
        if combo is not None:
            combo = {i: v * lam for i, v in combo.items()}
        vec, combo = self._reduce(vec, combo)
        if vec:
            self.pivots[min(vec)] = (vec, combo)
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


def rank(m: Mat) -> int:
    """Exact rank over the matrix's field, sieved once per matrix."""
    if m._rank is None:
        _column_sieve(m)
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
