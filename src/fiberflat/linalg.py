"""Exact matrix kernel: Smith normal form, fiber ranks, integral solving.

Matrices are small and dense; entries are the plain numbers described in
fiberflat.rings.  Conventions pinned here and relied on everywhere else:

* ``snf(A)`` returns A's cached U, D, V with A = U @ D @ V, det(U) and
  det(V) units, and the diagonal of D a divisibility chain with trailing zeros.
* SNF, det and matrix products run on integral
  lifts (_integral_lift): canonical representatives over Z/n and F_p, the
  matrix times the lcm of its denominators (a unit) over Z_(p) and Q.
  field_rank alone eliminates over the field itself (fraction-free, row by
  row over Q): it is the independent Gaussian route that tests check the
  SNF against.
* One integer kernel serves every ring's SNF; over Z/n and F_p it
  eliminates modulo n.  Its pivot is the nonzero
  entry of least absolute value in the working submatrix, ties broken by
  lowest (row, col).  It eliminates D alone and records its row and column
  moves; U, V and their inverses are replayed from the moves when a caller
  first reads them, so rank and divisor queries build no witness.
* Diagonal entries are canonical: non-negative over Z, gcd(e, n) over Z/n
  for the kernel's divisor e (0 when n divides e), the convention
  invariant factors use, pure powers of p over Z_(p), 0 or 1 over fields.
  _snf_full folds the unit part of each divisor into V and Vi.
* Zero-dimension matrices are legal everywhere and behave as zero maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import ContradictionError, InputError
from .rings import BaseRing, Prime, Scalar

__all__ = [
    "Matrix", "SnfDecomposition", "snf", "rank", "rank_over_fiber",
    "solve_integral", "syzygy_matrix", "reduce_matrix", "field_rank", "det",
    "hstack", "vstack", "kron",
]


class Matrix:
    """An immutable matrix over a fiberflat base ring.

    >>> from fiberflat.rings import ZZ
    >>> A = Matrix(ZZ, [[2, 0], [0, 3]])
    >>> (A @ A).row(0)
    (4, 0)
    >>> A.transpose() == A
    True
    """

    __slots__ = ("ring", "rows", "cols", "_data", "_snf", "_hash")

    def __init__(self, ring: BaseRing, data: Iterable[Iterable[object]],
                 cols: int | None = None):
        body = [list(r) for r in data]
        self.ring = ring
        self.rows = len(body)
        if body:
            width = len(body[0])
            if any(len(r) != width for r in body):
                raise InputError("ragged matrix rows")
            if cols is not None and cols != width:
                raise InputError(f"declared {cols} columns, rows have {width}")
            self.cols = width
        else:
            self.cols = 0 if cols is None else cols
        canon = ring.canon
        self._data = tuple(tuple(canon(x) for x in r) for r in body)
        self._snf = None
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, ring: BaseRing, body: Iterable[Sequence[Scalar]], cols: int) -> "Matrix":
        """Trusted constructor: canonical entries, rows of width cols."""
        self = cls.__new__(cls)
        self.ring, self.cols = ring, cols
        self._data = tuple(map(tuple, body))
        self.rows = len(self._data)
        self._snf = self._hash = None
        return self

    @classmethod
    def zeros(cls, ring: BaseRing, m: int, n: int) -> "Matrix":
        z = ring.zero
        return cls._make(ring, [[z] * n for _ in range(m)], n)

    @classmethod
    def identity(cls, ring: BaseRing, n: int) -> "Matrix":
        z, o = ring.zero, ring.one
        return cls._make(ring, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @classmethod
    def diagonal(cls, ring: BaseRing, entries: Sequence[object],
                 m: int | None = None, n: int | None = None) -> "Matrix":
        k = len(entries)
        m = k if m is None else m
        n = k if n is None else n
        if k > min(m, n):
            raise InputError("too many diagonal entries for the requested shape")
        body = [[ring.zero] * n for _ in range(m)]
        for i, e in enumerate(entries):
            body[i][i] = ring.canon(e)
        return cls._make(ring, body, n)

    @classmethod
    def from_columns(cls, ring: BaseRing, columns: Sequence[Sequence[object]],
                     rows: int | None = None) -> "Matrix":
        if columns:
            height = len(columns[0])
            if any(len(c) != height for c in columns):
                raise InputError("ragged matrix columns")
            if rows is not None and rows != height:
                raise InputError(f"declared {rows} rows, columns have {height}")
            return cls(ring, [[c[i] for c in columns] for i in range(height)],
                       cols=len(columns))
        return cls.zeros(ring, 0 if rows is None else rows, 0)

    # -- basics --------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self._data[i]

    def to_rows(self) -> list[list[Scalar]]:
        return [list(r) for r in self._data]

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._data for x in r)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.cols == other.cols and self._data == other._data)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, self.cols, self._data))
        return self._hash

    def __repr__(self) -> str:
        return f"Matrix({self.ring}, {self.rows}x{self.cols}, {[list(r) for r in self._data]})"

    # -- arithmetic ----------------------------------------------------------

    def _reduced(self, body: list[list[Scalar]], cols: int) -> "Matrix":
        """A matrix over this ring from integer-combination entries: the one
        place where results are reduced modulo n over Z/n and F_p."""
        if self.ring.kind in ("Zmod", "Fp"):
            mod = self.ring.param
            body = [[x % mod for x in r] for r in body]
        return Matrix._make(self.ring, body, cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return self._reduced([[a + b for a, b in zip(r, s)]
                              for r, s in zip(self._data, other._data)], self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return self._reduced([[a - b for a, b in zip(r, s)]
                              for r, s in zip(self._data, other._data)], self.cols)

    def __neg__(self) -> "Matrix":
        return self._reduced([[-a for a in r] for r in self._data], self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise InputError(f"ring mismatch: {self.ring} vs {other.ring}")
        if self.cols != other.rows:
            raise InputError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # Integer products on the integral lifts; over Z_(p) and Q the sums
        # are divided by the two scales afterwards.
        sa, lift_a = _integral_lift(self)
        sb, lift_b = _integral_lift(other)
        cols_t = list(zip(*lift_b)) if other.rows else [()] * other.cols
        body = [[sum(map(mul, r, c)) for c in cols_t] for r in lift_a]
        if self.ring.uses_fractions:
            scale = sa * sb
            body = [[Fraction(x, scale) for x in r] for r in body]
        return self._reduced(body, other.cols)

    def transpose(self) -> "Matrix":
        if self.rows == 0:
            return Matrix._make(self.ring, [[] for _ in range(self.cols)], 0)
        return Matrix._make(self.ring, list(zip(*self._data)), self.rows)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        body = [[self._data[i][j] for j in col_idx] for i in row_idx]
        return Matrix._make(self.ring, body, len(col_idx))

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.ring != other.ring:
            raise InputError(f"ring mismatch: {self.ring} vs {other.ring}")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("shape mismatch")


def hstack(blocks: Sequence[Matrix]) -> Matrix:
    """Blocks side by side.  A lone block of nonzero width is returned as
    is (matrices are immutable), so its cached SNF is reused."""
    blocks = [b for b in blocks]
    if not blocks:
        raise InputError("hstack of nothing")
    ring, m = blocks[0].ring, blocks[0].rows
    if any(b.ring != ring or b.rows != m for b in blocks):
        raise InputError("hstack blocks must share ring and height")
    wide = [b for b in blocks if b.cols]
    if len(wide) == 1:
        return wide[0]
    body = [[x for b in blocks for x in b._data[i]] for i in range(m)]
    return Matrix._make(ring, body, sum(b.cols for b in blocks))


def vstack(blocks: Sequence[Matrix]) -> Matrix:
    blocks = [b for b in blocks]
    if not blocks:
        raise InputError("vstack of nothing")
    ring, n = blocks[0].ring, blocks[0].cols
    if any(b.ring != ring or b.cols != n for b in blocks):
        raise InputError("vstack blocks must share ring and width")
    return Matrix._make(ring, [r for b in blocks for r in b._data], n)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with row-major index (i, k) -> i * b.rows + k."""
    if a.ring != b.ring:
        raise InputError("ring mismatch in kron")
    body = [[x * y for x in arow for y in brow] for arow in a._data for brow in b._data]
    return a._reduced(body, a.cols * b.cols)


# -- Smith normal form ------------------------------------------------------

def _chain_ok(ring: BaseRing, divisors: Sequence[Scalar]) -> bool:
    seen_zero = False
    for i, d in enumerate(divisors):
        if d == 0:
            seen_zero = True
        elif seen_zero:
            return False  # trailing zeros only
        if i + 1 < len(divisors) and ring.try_divide(divisors[i + 1], d) is None:
            if not (d == 0 and divisors[i + 1] == 0):
                return False
    return True


@dataclass(eq=False, repr=False)
class SnfDecomposition:
    """A = U @ D @ V with unit-determinant U, V and canonical diagonal D,
    cached on A: the divisors at once, and each of U, Ui (= U^-1), V, Vi
    (= V^-1) replayed from the kernel's moves, reduced into the ring, and
    kept the first time a caller reads it.  Ui @ A @ Vi = D."""

    ring: BaseRing
    rows: int
    cols: int
    elementary_divisors: tuple[Scalar, ...]
    row_moves: list
    col_moves: list
    units: list

    def verify(self, a: Matrix) -> bool:
        """Recheck reconstruction, invertible U and V, and the chain.

        Over Z/n and F_p, U @ Ui = I and V @ Vi = I modulo n prove U and V
        invertible (a one-sided inverse over a commutative ring forces a
        unit determinant); over Z, Z_(p) and Q, det(U) and det(V) are units.
        """
        if self.U @ self.D @ self.V != a:
            return False
        ring = a.ring
        if ring.kind in ("Zmod", "Fp"):
            if not (self.U @ self.Ui == Matrix.identity(ring, self.rows)
                    and self.V @ self.Vi == Matrix.identity(ring, self.cols)):
                return False
        elif not (ring.is_unit(det(self.U)) and ring.is_unit(det(self.V))):
            return False
        return _chain_ok(ring, self.elementary_divisors)

    def _lower(self, n: int, moves: list, inverse: bool,
               units: Iterable[tuple[int, Scalar]]) -> Matrix:
        """The moves replayed on the identity of size n, modulo the ring's
        modulus over Z/n and F_p, as a matrix over the ring, row i times u
        for each (i, u)."""
        ring = self.ring
        if ring.kind in ("Zmod", "Fp"):
            p = ring.param
            body = _replay(n, moves, inverse, p)
            for i, u in units:
                body[i] = [x * u % p for x in body[i]]
        elif ring.uses_fractions:
            rows = _replay(n, moves, inverse)
            body = [[Fraction(x) for x in r] for r in rows]
            for i, u in units:
                body[i] = [x * u for x in rows[i]]
        else:
            body = _replay(n, moves, inverse)
        return Matrix._make(ring, body, n)

    @cached_property
    def D(self) -> Matrix:
        return Matrix.diagonal(self.ring, self.elementary_divisors, self.rows, self.cols)

    @cached_property
    def U(self) -> Matrix:
        return self._lower(self.rows, self.row_moves, True, ()).transpose()

    @cached_property
    def Ui(self) -> Matrix:
        return self._lower(self.rows, self.row_moves, False, ())

    @cached_property
    def V(self) -> Matrix:
        return self._lower(self.cols, self.col_moves, True,
                           [(i, u) for i, u, _ in self.units if u != 1])

    @cached_property
    def Vi(self) -> Matrix:
        return self._lower(self.cols, self.col_moves, False,
                           [(i, u) for i, _, u in self.units if u != 1]).transpose()


# Kernel moves (op, i, j, q): _ADD adds q times line j to line i, _SWAP
# swaps lines i and j, _NEG negates line i; rows of D or columns of D.
_ADD, _SWAP, _NEG = 0, 1, 2


def _replay(n: int, moves: Sequence[tuple[int, int, int, int]],
            inverse: bool = False, mod: int = 0) -> list[list[int]]:
    """The moves applied in order as row operations to I_n; with inverse,
    each move E is applied as (E^-1)^T instead.  With mod > 0 every
    replayed row is reduced into [0, mod), which gives the integer replay's
    entries modulo mod.

    Replaying row moves E_1..E_k gives Ui = E_k...E_1, and with inverse the
    transpose of U = E_1^-1...E_k^-1; for column moves F_1..F_l (D = D F)
    the same calls give the transpose of Vi = F_1...F_l, and V = F_l^-1...F_1^-1.
    """
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for op, i, j, q in moves:
        if op == _ADD:
            if inverse:
                i, j, q = j, i, -q
            if mod:
                rows[i] = [(x + q * y) % mod for x, y in zip(rows[i], rows[j])]
            else:
                rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        elif op == _SWAP:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x % mod if mod else -x for x in rows[i]]
    return rows


def _snf_int(a_rows: Sequence[Sequence[int]], m: int, n: int, mod: int):
    """Integer kernel.  Returns (D, row_moves, col_moves).

    Only D is eliminated.  Every elementary row or column operation on D is
    appended to row_moves or col_moves, in order, as an (op, i, j, q) move;
    the witnesses are replayed from them on first read (see SnfDecomposition).

    With a modulus mod > 0 (Z/n and F_p) D is eliminated over Z/mod: every
    updated row is reduced, entries that leave (-mod, mod) going to
    [0, mod), and the pivot b divides an entry in the ring when gcd(b, mod)
    does.  Euclidean remainders stay below the pivot, so it still shrinks
    to termination; on a lift with entries in (-mod, mod), as _snf_full
    passes, every multiplier q has |q| < mod.  With mod = 0 (Z, Z_(p), Q)
    D is eliminated over Z.
    """
    D = [list(r) for r in a_rows]

    def cut(r):
        return [x if -mod < x < mod else x % mod for x in r]

    row_moves: list[tuple[int, int, int, int]] = []
    col_moves: list[tuple[int, int, int, int]] = []

    def place_pivot(t) -> bool:
        # Smallest |value| nonzero in D[t:, t:], ties by lowest (row, col).
        best, bi = 0, t
        for i in range(t, m):
            av = min(map(abs, filter(None, D[i][t:])), default=0)
            if av and (not best or av < best):
                best, bi = av, i
                if av == 1:
                    break
        if not best:
            return False
        bj = next(j for j in range(t, n) if abs(D[bi][j]) == best)
        if bi != t:
            D[t], D[bi] = D[bi], D[t]
            row_moves.append((_SWAP, t, bi, 0))
        if bj != t:
            for r in D:
                r[t], r[bj] = r[bj], r[t]
            col_moves.append((_SWAP, t, bj, 0))
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            row_moves.append((_NEG, t, t, 0))
        return True

    t = 0
    while t < m and t < n:
        if not place_pivot(t):
            break
        while True:
            # Clear column t by row moves, then row t by column moves (each
            # column's multiplier read off row t first); nonzero remainders
            # shrink the pivot.
            while True:
                top = D[t]
                b = top[t]
                for i in range(t + 1, m):
                    q = (2 * D[i][t] + b) // (2 * b)
                    if q:
                        D[i] = [x - q * y for x, y in zip(D[i], top)]
                        if mod:
                            D[i] = cut(D[i])
                        row_moves.append((_ADD, i, t, -q))
                qs = [(2 * v + b) // (2 * b) for v in top[t + 1:]]
                if any(qs):
                    col_moves.extend((_ADD, j, t, -q) for j, q in enumerate(qs, t + 1) if q)
                    for r in D:
                        rt = r[t]
                        if rt:
                            r[t + 1:] = [x - q * rt for x, q in zip(r[t + 1:], qs)]
                            if mod:
                                r[t + 1:] = cut(r[t + 1:])
                if not (any(top[t + 1:]) or any(D[i][t] for i in range(t + 1, m))):
                    break
                place_pivot(t)
            # Pivot must divide the remaining submatrix (in the ring: g =
            # gcd(pivot, mod) divides it) before t advances.
            g = gcd(D[t][t], mod)
            offender = None if g == 1 else next(
                (i for i in range(t + 1, m) if gcd(*D[i][t + 1:]) % g), None)
            if offender is None:
                break
            D[t] = [x + y for x, y in zip(D[t], D[offender])]
            if mod:
                D[t] = cut(D[t])
            row_moves.append((_ADD, t, offender, 1))
        t += 1
    return D, row_moves, col_moves


def _integral_lift(a: Matrix) -> tuple[int, Sequence[Sequence[int]]]:
    """(scale, rows): integer rows equal to scale * A entrywise.

    The only place a whole matrix is cleared of denominators (field_rank
    clears them row by row).  Over Z_(p) and Q the scale is
    the lcm of the denominators, a unit in both rings; over Z, Z/n and F_p
    it is 1 and the rows are A's own canonical representatives, not a copy.
    """
    if not a.ring.uses_fractions:
        return 1, a._data
    scale = lcm(1, *(x.denominator for r in a._data for x in r))
    return scale, [[x.numerator * (scale // x.denominator) for x in r] for r in a._data]


def _snf_full(a: Matrix) -> SnfDecomposition:
    """The one kernel on A's integral lift: modulo n over Z/n and F_p,
    over Z for Z, Z_(p) and Q.

    Each kernel divisor d that is nonzero in the ring splits as c*u with c
    canonical (gcd(d, n) over Z/n and F_p, p^v over Z_(p), 1 over Q) and u
    a unit; (i, u/scale, scale/u) is kept so that V scales its row i by
    u/scale and Vi its column i by the inverse.  Over Z/n, u is d/c modulo
    n/c, stepped by n/c until it is coprime to n (each prime of c that does
    not divide n/c rules out one residue).  Over Z/n and F_p the kernel's
    pivots lie in (0, n), so its diagonal is 0 exactly past the last pivot,
    and those zeros trail.
    """
    if a._snf is not None:
        return a._snf
    ring, m, n = a.ring, a.rows, a.cols
    kind, p = ring.kind, ring.param
    scale, lift = _integral_lift(a)
    mod = p if kind in ("Zmod", "Fp") else 0
    D, row_moves, col_moves = _snf_int(lift, m, n, mod)
    divisors, units = [], []
    for i in range(min(m, n)):
        d = D[i][i]
        if mod and d:
            c = gcd(d, p)
            u = d // c % (p // c)
            while gcd(u, p) != 1:
                u += p // c
            units.append((i, u, pow(u, -1, p)))
            d = c
        elif ring.uses_fractions and d:
            c = 1
            while kind == "Zloc" and d % (c * p) == 0:
                c *= p
            units.append((i, Fraction(d // c, scale), Fraction(scale, d // c)))
            d = c
        divisors.append(d)
    if ring.uses_fractions:
        divisors = [Fraction(d) for d in divisors]
    a._snf = SnfDecomposition(ring, m, n, tuple(divisors), row_moves, col_moves, units)
    return a._snf


def snf(a: Matrix) -> SnfDecomposition:
    """Smith normal form decomposition A = U @ D @ V, cached on A.

    >>> from fiberflat.rings import ZZ
    >>> snf(Matrix(ZZ, [[2, 0], [0, 3]])).elementary_divisors
    (1, 6)
    >>> from fiberflat.rings import integers_mod
    >>> snf(Matrix(integers_mod(12), [[8]])).elementary_divisors
    (4,)
    """
    return _snf_full(a)


def rank(a: Matrix) -> int:
    """Rank over the fraction field: the number of nonzero divisors."""
    return sum(1 for d in _snf_full(a).elementary_divisors if d != 0)


def rank_over_fiber(a: Matrix, q: Prime) -> int:
    """Rank of the image of A in the residue field at q.

    Computed from the elementary divisors (a divisor survives at q iff it
    does not vanish in kappa(q)); tests cross-check against independent
    Gaussian elimination over the residue field.

    >>> from fiberflat.rings import ZZ, Prime
    >>> rank_over_fiber(Matrix(ZZ, [[6, 4], [2, 2]]), Prime.at(2))
    0
    """
    a.ring.residue_field(q)
    divisors = _snf_full(a).elementary_divisors
    if q.is_generic:
        return sum(1 for d in divisors if d != 0)
    p = q.p
    return sum(1 for d in divisors if Fraction(d).numerator % p)


def det(a: Matrix) -> Scalar:
    """Exact determinant: integer Bareiss on the integral lift.

    Over Z/n and F_p the integer determinant of the canonical lift is
    reduced; over Z_(p) and Q the lift is scale * A, so det(A) is the
    integer determinant divided by scale**n.
    """
    if a.rows != a.cols:
        raise InputError(f"determinant of non-square {a.rows}x{a.cols}")
    ring, n = a.ring, a.rows
    if n == 0:
        return ring.one
    scale, lift = _integral_lift(a)
    mat = [list(r) for r in lift]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if piv is None:
                return ring.zero
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return ring.canon(Fraction(sign * mat[n - 1][n - 1], scale ** n))


def solve_integral(a: Matrix, b: Matrix) -> Matrix | None:
    """Some X over the ring with A @ X == B, or None if none exists.

    Deterministic: the particular solution comes from the cached SNF with
    free coordinates set to zero (and canonical division choices over Z/n).
    A solution that fails A @ X == B (a corrupt SNF) raises ContradictionError.
    """
    if a.ring != b.ring:
        raise InputError(f"ring mismatch: {a.ring} vs {b.ring}")
    if a.rows != b.rows:
        raise InputError(f"A has {a.rows} rows but B has {b.rows}")
    ring = a.ring
    full = _snf_full(a)
    c = full.Ui @ b
    k, l = a.cols, b.cols
    ybody = [[ring.zero] * l for _ in range(k)]
    diag = full.elementary_divisors
    for i in range(a.rows):
        d = diag[i] if i < len(diag) else None
        crow = c._data[i]
        if d is None or d == 0:
            # 0*y = c forces c = 0 (over Z/n the canonical rep is 0 exactly
            # when c vanishes in the ring, so the same test applies).
            if any(x != 0 for x in crow):
                return None
            continue
        yrow = ybody[i]
        for j in range(l):
            x = crow[j]
            if x == 0:
                continue
            q = ring.try_divide(x, d)
            if q is None:
                return None
            yrow[j] = q
    x = full.Vi @ Matrix._make(ring, ybody, l)
    if a @ x != b:
        raise ContradictionError("solve_integral: the solution from the SNF fails A @ X == B")
    return x


def syzygy_matrix(a: Matrix) -> Matrix:
    """Columns generating {x : A @ x = 0} over the ring.

    With A = U @ D @ V, A @ x = 0 exactly when y = V @ x has d_i * y_i = 0
    for each divisor d_i (d_i = 0 past the diagonal), so the kernel is
    generated by column i of Vi times a generator of ann(d_i), for each i
    where that generator is nonzero.  Over Z, Z_(p) and fields these
    columns are the free columns of Vi, part of a basis of the free cover.
    """
    full = _snf_full(a)
    ring = a.ring
    ann = [ring.annihilator(d) for d in full.elementary_divisors]
    ann += [ring.one] * (a.cols - len(ann))
    keep = [i for i, g in enumerate(ann) if g != 0]
    syz = full.Vi.submatrix(range(a.cols), keep)
    if all(ann[i] == 1 for i in keep):
        return syz
    return syz._reduced([[x * ann[i] for x, i in zip(r, keep)] for r in syz._data], len(keep))


def _reduce_into(a: Matrix, target: BaseRing) -> Matrix:
    """A reduced into target, Z/k or F_k for a k that A's ring maps onto
    (any k over Z, a power of p over Z_(p), a divisor of n over Z/n): an
    entry a/b becomes a * b^-1 mod k."""
    k = target.param
    if a.ring.uses_fractions:
        body = [[x.numerator * pow(x.denominator, -1, k) % k for x in r] for r in a._data]
    else:
        body = [[x % k for x in r] for r in a._data]
    return Matrix._make(target, body, a.cols)


def reduce_matrix(a: Matrix, q: Prime) -> Matrix:
    """A reduced into the residue field at q, in one pass over the entries."""
    field = a.ring.residue_field(q)
    if field == a.ring:
        return a
    if q.is_generic:
        return Matrix._make(field, [[Fraction(x) for x in r] for r in a._data], a.cols)
    return _reduce_into(a, field)


def field_rank(a: Matrix) -> int:
    """Gaussian-elimination rank over Q or F_p.

    An independent route from rank_over_fiber's divisor counting; the two
    are cross-checked by the test suite.  Over Q each row is scaled by the
    lcm of its denominators and eliminated fraction-free (Bareiss 1968):
    every update (b*x - f*y) // prev divides exactly by the previous pivot.
    """
    ring = a.ring
    if not ring.is_field:
        raise InputError(f"field_rank needs a field, got {ring}")
    p = ring.param if ring.kind == "Fp" else None
    if p is None:
        rows = []
        for r in a._data:
            s = lcm(1, *(x.denominator for x in r))
            rows.append([x.numerator * (s // x.denominator) for x in r])
    else:
        rows = [list(r) for r in a._data]
    rk, prev = 0, 1
    for j in range(a.cols):
        piv = next((i for i in range(rk, a.rows) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        top = rows[rk]
        b = top[j]
        if p is not None:
            inv = pow(b, -1, p)
            for i in range(rk + 1, a.rows):
                f = rows[i][j]
                if f:
                    fac = (f * inv) % p
                    rows[i] = [(x - fac * y) % p for x, y in zip(rows[i], top)]
        else:
            for i in range(rk + 1, a.rows):
                f = rows[i][j]
                rows[i] = [(b * x - f * y) // prev for x, y in zip(rows[i], top)]
            prev = b
        rk += 1
        if rk == a.rows:
            break
    return rk
