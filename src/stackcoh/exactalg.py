"""Exact sparse linear algebra over Q and prime fields.

Matrices are sparse triplet maps with Fraction (Q) or reduced-int (F_p)
entries.  Elimination is fraction-free over Q: vectors are cleared to
integers and every reduction step renormalises by the gcd, so no rounding
and no runaway coefficient growth.  Pivoting is deterministic (columns left
to right, smallest pivot row index), which makes every kernel and
representative basis reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    CompositionNonzero, DimensionMismatch, InvariantViolation, NoSolution,
)


class Field:
    """The rationals (p == 0) or the prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int = 0):
        if p:
            if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
                raise ValueError(f"{p} is not prime")
        self.p = p

    def coerce(self, x):
        if self.p:
            if isinstance(x, Fraction):
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
        """Parse an exact scalar: "a/b" or integer string over Q, int mod p."""
        if self.p:
            return int(text) % self.p
        return self.coerce(Fraction(str(text)))

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.p - 2, self.p)
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p == 0 else f"GF({self.p})"


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)


class Mat:
    """Immutable sparse matrix: entries maps (row, col) -> nonzero scalar."""

    __slots__ = ("rows", "cols", "entries", "field", "_col_cache")

    def __init__(self, rows: int, cols: int, entries: dict, field: Field):
        self.rows = rows
        self.cols = cols
        self.field = field
        clean = {}
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatch(f"entry ({i},{j}) outside {rows}x{cols}")
            v = field.coerce(v)
            if v:
                clean[(i, j)] = v
        self.entries = clean
        self._col_cache = None

    @classmethod
    def from_rows(cls, rows_data, field: Field, cols: int | None = None) -> "Mat":
        nrows = len(rows_data)
        ncols = cols if cols is not None else (len(rows_data[0]) if rows_data else 0)
        entries = {}
        for i, row in enumerate(rows_data):
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(nrows, ncols, entries, field)

    @classmethod
    def identity(cls, n: int, field: Field) -> "Mat":
        return cls(n, n, {(i, i): field.one() for i in range(n)}, field)

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
        f = self.field
        out: dict = {}
        cols = self.columns()
        for j, x in vec.items():
            if not x:
                continue
            for i, a in cols[j].items():
                s = f.add(out.get(i, 0), f.mul(a, x))
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
        return out

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} * {other.shape}")
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        f = self.field
        out: dict = {}
        cols = self.columns()
        for (k, j), b in other.entries.items():
            for i, a in cols[k].items():
                key = (i, j)
                s = f.add(out.get(key, 0), f.mul(a, b))
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Mat(self.rows, other.cols, out, f)

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape or self.field != other.field:
            raise DimensionMismatch("shape or field mismatch in add")
        f = self.field
        out = dict(self.entries)
        for key, v in other.entries.items():
            s = f.add(out.get(key, 0), v)
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return Mat(self.rows, self.cols, out, f)

    def __neg__(self) -> "Mat":
        f = self.field
        return Mat(self.rows, self.cols,
                   {k: f.neg(v) for k, v in self.entries.items()}, f)

    def scale(self, c) -> "Mat":
        f = self.field
        c = f.coerce(c)
        return Mat(self.rows, self.cols,
                   {k: f.mul(v, c) for k, v in self.entries.items()}, f)

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


def _integerise(vec: dict) -> tuple[dict, int]:
    """Scale a rational sparse vector by the lcm of denominators.

    Returns (integer vector, multiplier lam) with result == lam * vec.
    """
    lam = 1
    for v in vec.values():
        d = v.denominator
        lam = lam // gcd(lam, d) * d
    out = {}
    for i, v in vec.items():
        w = int(v * lam)
        if w:
            out[i] = w
    return out, lam


class Sieve:
    """Incremental column echelon with optional combination tracking.

    Vectors are sparse dicts.  Over Q all stored data is integer and every
    reduction renormalises by the gcd (fraction-free).  The pivot of a
    reduced vector is its smallest support index; columns are offered left
    to right, so the elimination order is deterministic.

    A sieve must be used either fully tracked or fully untracked.
    Tracked pivots maintain the invariant  A . combo == vec  where A is the
    implicit matrix whose columns were inserted.
    """

    def __init__(self, field: Field, track: bool = False):
        self.field = field
        self.track = track
        self.pivots: dict = {}   # pivot index -> (vec, combo)
        self.order: list = []    # pivot indices in insertion order

    @property
    def rank(self) -> int:
        return len(self.order)

    def _reduce(self, vec: dict, combo: dict | None):
        """Reduce an integer (or mod-p) vector against all pivots.

        Returns (vec, combo, mult): over Q the output satisfies
        reduced == mult * input - (pivot combination), and combo is updated
        by the same column operations.
        """
        p = self.field.p
        vec = dict(vec)
        combo = dict(combo) if combo is not None else None
        mult = 1
        for piv in self.order:
            if piv not in vec:
                continue
            w, cw = self.pivots[piv]
            b = vec[piv]
            if p:
                factor = (b * pow(w[piv], p - 2, p)) % p
                for i, x in w.items():
                    s = (vec.get(i, 0) - factor * x) % p
                    if s:
                        vec[i] = s
                    else:
                        vec.pop(i, None)
                if combo is not None:
                    for i, x in (cw or {}).items():
                        s = (combo.get(i, 0) - factor * x) % p
                        if s:
                            combo[i] = s
                        else:
                            combo.pop(i, None)
            else:
                a = w[piv]
                new = {}
                for i, x in vec.items():
                    s = a * x - b * w.get(i, 0)
                    if s:
                        new[i] = s
                for i, x in w.items():
                    if i not in vec:
                        s = -b * x
                        if s:
                            new[i] = s
                vec = new
                mult *= a
                if combo is not None:
                    newc = {}
                    cw = cw or {}
                    for i, x in combo.items():
                        s = a * x - b * cw.get(i, 0)
                        if s:
                            newc[i] = s
                    for i, x in cw.items():
                        if i not in combo:
                            s = -b * x
                            if s:
                                newc[i] = s
                    combo = newc
                g = mult
                for x in vec.values():
                    g = gcd(g, x)
                if combo is not None:
                    for x in combo.values():
                        g = gcd(g, x)
                if g > 1:
                    vec = {i: x // g for i, x in vec.items()}
                    mult //= g
                    if combo is not None:
                        combo = {i: x // g for i, x in combo.items()}
        return vec, combo, mult

    def _prepare(self, vec: dict, combo: dict | None):
        p = self.field.p
        if p:
            out = {}
            for i, v in vec.items():
                c = self.field.coerce(v)
                if c:
                    out[i] = c
            return out, combo
        ivec, lam = _integerise(vec)
        if combo is not None and lam != 1:
            combo = {i: v * lam for i, v in combo.items()}
        return ivec, combo

    def insert(self, vec: dict, combo: dict | None = None):
        """Reduce vec and store it if independent.

        Returns (residual, combo); an empty residual means vec was in the
        span and, when tracking, combo gives the dependency.
        """
        vec, combo = self._prepare(vec, combo)
        vec, combo, _ = self._reduce(vec, combo)
        if vec:
            piv = min(vec)
            self.pivots[piv] = (vec, combo)
            self.order.append(piv)
        return vec, combo


def _column_sieve(m: Mat) -> Sieve:
    """Untracked sieve loaded with the column space of m."""
    sieve = Sieve(m.field)
    for col in m.columns():
        sieve.insert(col)
    return sieve


def rank(m: Mat) -> int:
    """Exact rank over the matrix's field."""
    return _column_sieve(m).rank


def kernel_basis(m: Mat) -> list[dict]:
    """Basis of the right kernel, as sparse column vectors.

    The count always equals cols - rank.  Vectors are normalised: leading
    (smallest-index) entry 1 over F_p, primitive with positive lead over Q.
    """
    f = m.field
    sieve = Sieve(f, track=True)
    basis = []
    for j, col in enumerate(m.columns()):
        vec, combo = sieve.insert(col, {j: 1 if not f.p else f.one()})
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
    g = 0
    for v in vec.values():
        g = gcd(g, v)
    sign = -1 if vec[lead] < 0 else 1
    g *= sign
    return {i: v // g if v % g == 0 else Fraction(v, g)
            for i, v in sorted(vec.items())}


def cohomology_dim(d_out: Mat, d_in: Mat, reps: bool = False):
    """dim ker(d_out) - rank(d_in) for the two-step complex d_in then d_out.

    With reps=True also returns cocycle vectors spanning a complement of
    im(d_in) inside ker(d_out), chosen deterministically.
    """
    if d_out.cols != d_in.rows:
        raise DimensionMismatch(
            f"cols(d_out)={d_out.cols} != rows(d_in)={d_in.rows}")
    if not (d_out * d_in).is_zero():
        raise CompositionNonzero("d_out . d_in != 0")
    kernel = kernel_basis(d_out)
    sieve = _column_sieve(d_in)
    dim = len(kernel) - sieve.rank
    if not reps:
        return dim
    chosen = []
    for v in kernel:
        residual, _ = sieve.insert(v)
        if residual:
            chosen.append(v)
    if len(chosen) != dim:
        raise InvariantViolation(
            f"{len(chosen)} representatives for a {dim}-dimensional space")
    return dim, chosen


def solve_multi(a: Mat, rhs: list[dict]) -> list[dict]:
    """Solve a . x = b exactly for each sparse b in rhs.

    Requires a to have full column rank; raises NoSolution otherwise or if
    some b is not in the column space.
    """
    f = a.field
    sieve = Sieve(f, track=True)
    for j, col in enumerate(a.columns()):
        vec, _ = sieve.insert(col, {j: 1 if not f.p else f.one()})
        if not vec:
            raise NoSolution("matrix does not have full column rank")
    sols = []
    for b in rhs:
        if f.p:
            bvec = {i: f.coerce(v) for i, v in b.items()}
            bvec = {i: v for i, v in bvec.items() if v}
            lam = 1
        else:
            bvec, lam = _integerise(b)
        vec, combo, mult = sieve._reduce(bvec, {})
        if vec:
            raise NoSolution("inconsistent system")
        # invariant: reduced == mult*lam*b - a*(-combo) and reduced == 0
        x = {}
        if f.p:
            for i, v in combo.items():
                val = (-v) % f.p
                if val:
                    x[i] = val
        else:
            for i, v in combo.items():
                val = Fraction(-v, mult * lam)
                if val:
                    x[i] = val
        sols.append(x)
    return sols


def mat_from_columns(cols: list[dict], nrows: int, field: Field) -> Mat:
    entries = {}
    for j, col in enumerate(cols):
        for i, v in col.items():
            entries[(i, j)] = v
    return Mat(nrows, len(cols), entries, field)
