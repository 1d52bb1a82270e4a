"""Exact matrix kernel: Smith normal form, fiber ranks, integral solving.

Matrices are small and dense; entries are the plain numbers described in
fiberflat.rings.  Conventions pinned here and relied on everywhere else:

* ``snf(A)`` returns A's cached U, D, V with A = U @ D @ V, det(U) and
  det(V) units, and the diagonal of D a divisibility chain with trailing zeros.
* SNF, det, field_rank and matrix products run on integral lifts
  (_integral_lift): canonical representatives over Z/n and F_p, the matrix
  times the lcm of its denominators (a unit) over Z_(p) and Q.
* det, field_rank and the minor route share one row elimination, _bareiss.
  Its fraction-free pass over Z runs once per matrix and is cached on it
  (_fraction_free): det, the minors and field_rank over Q (the rank over Q
  of a matrix over Z or Z_(p) too) all read that pass; field_rank over F_p
  eliminates modulo p.  _bareiss never calls the SNF kernel, so field_rank
  stays the independent Gaussian route that tests check fiber ranks against.
* One kernel eliminates for every ring: modulo n over Z/n and F_p, over Z
  otherwise.  Its pivot is the nonzero entry of least absolute value in
  the working submatrix, ties broken by lowest (row, col).  It eliminates
  D alone and records its row and column moves; U, V and their inverses
  are replayed from the moves when a caller first reads them.
* Divisors come from a pass that records no moves, _divisors_mod: unit
  pivots modulo some m first, then the kernel modulo m on the unit-free
  remainder only.  Over Z/n and F_p it runs modulo n.  Over Z, Z_(p) and
  Q it is the last step of the minor route, _minor_divisors, whatever the
  shape: the rank, the last pivot and the gcd of the minors the cached pass
  keeps in its last pivot row and column (in those of the pivot before,
  where the maximal minor is unique), then the divisor pass modulo g, the
  gcd of the two, so nothing is eliminated over Z and no second pass runs.
  The kernel runs on the whole lift only when a witness is first read, and
  its divisors must equal the pass's (ContradictionError otherwise): it is
  the second route for divisors over every ring, so rank and divisor
  queries build no witness and record no move.
* Diagonal entries are canonical: non-negative over Z, gcd(e, n) over Z/n
  for a divisor e of the lift (0 when n divides e), the convention
  invariant factors use, pure powers of p over Z_(p), 0 or 1 over fields.
  _kernel folds the unit part of each divisor into V and Vi.
* Zero-dimension matrices are legal everywhere and behave as zero maps.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import ContradictionError, InputError
from .rings import BaseRing, Prime, Scalar

__all__ = [
    "Matrix", "SnfDecomposition", "snf", "rank_over_fiber",
    "solve_integral", "syzygy_matrix", "reduce_matrix", "field_rank", "det",
    "hstack", "kron",
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

    __slots__ = ("ring", "rows", "cols", "_data", "_snf", "_pass", "_hash")

    def __init__(self, ring: BaseRing, data: Iterable[Iterable[object]],
                 cols: int | None = None):
        if cols is not None and cols < 0:
            raise InputError("negative column count")
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
        self._data = tuple(tuple(map(canon, r)) for r in body)
        self._snf = self._pass = self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, ring: BaseRing, body: Iterable[Sequence[Scalar]], cols: int) -> "Matrix":
        """Trusted constructor: canonical entries, rows of width cols."""
        self = cls.__new__(cls)
        self.ring, self.cols = ring, cols
        self._data = tuple(map(tuple, body))
        self.rows = len(self._data)
        self._snf = self._pass = self._hash = None
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
        mod = _modulus(self.ring)
        if mod:
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


def _modulus(ring: BaseRing) -> int:
    """n over Z/n and F_p, where entries are reduced modulo n; 0 otherwise."""
    return ring.param if ring.kind in ("Zmod", "Fp") else 0


def hstack(blocks: Sequence[Matrix]) -> Matrix:
    """Blocks side by side: one block row of _block_matrix, so a lone
    block of nonzero width is returned as is."""
    if not blocks:
        raise InputError("hstack of nothing")
    return _block_matrix(blocks[0].ring, [blocks[0].rows], [b.cols for b in blocks],
                         {(0, j): b for j, b in enumerate(blocks)})


def _block_matrix(ring: BaseRing, row_dims: Sequence[int], col_dims: Sequence[int],
                  blocks: Mapping[tuple[int, int], Matrix]) -> Matrix:
    """The one block assembler: blocks[(bi, bj)] in block row bi and block
    column bj, of heights row_dims and widths col_dims, zero elsewhere;
    each row is its blocks' rows, or zeros, concatenated.  A block that
    fills the whole matrix is returned as is (matrices are immutable), so
    its cached SNF is reused."""
    shape = (sum(row_dims), sum(col_dims))
    for (bi, bj), mat in blocks.items():
        if mat.ring != ring or (mat.rows, mat.cols) != (row_dims[bi], col_dims[bj]):
            raise InputError("block ring or shape mismatch")
    for mat in blocks.values():
        if (mat.rows, mat.cols) == shape:
            return mat
    body = []
    for bi, h in enumerate(row_dims):
        rows = [[] for _ in range(h)]
        for bj, w in enumerate(col_dims):
            mat = blocks.get((bi, bj))
            for row, src in zip(rows, [[ring.zero] * w] * h if mat is None else mat._data):
                row += src
        body += rows
    return Matrix._make(ring, body, shape[1])


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with row-major index (i, k) -> i * b.rows + k."""
    if a.ring != b.ring:
        raise InputError("ring mismatch in kron")
    body = [[x * y for x in arow for y in brow] for arow in a._data for brow in b._data]
    return a._reduced(body, a.cols * b.cols)


# -- Smith normal form ------------------------------------------------------

def _chain_ok(ring: BaseRing, divisors: Sequence[Scalar]) -> bool:
    """Each divisor divides the next; only 0 follows a 0, so zeros trail."""
    return all(b == 0 if a == 0 else ring.try_divide(b, a) is not None
               for a, b in zip(divisors, divisors[1:]))


class SnfDecomposition:
    """A = U @ D @ V with unit-determinant U, V and canonical diagonal D,
    cached on A: the divisors at once, and each of U, Ui (= U^-1), V, Vi
    (= V^-1) replayed from the kernel's moves, reduced into the ring, and
    kept the first time a caller reads it.  Ui @ A @ Vi = D.

    scale and lift are A's integral lift.  The divisors come from the
    divisor pass (_divisors_mod, over Z, Z_(p) and Q through the minor
    route), and the moves are None until a witness is first read; the
    kernel then runs on the lift, and divisors that differ from the pass's
    raise ContradictionError.
    """

    def __init__(self, ring: BaseRing, rows: int, cols: int,
                 elementary_divisors: tuple[Scalar, ...], scale: int,
                 lift: Sequence[Sequence[int]], row_moves: list | None = None,
                 col_moves: list | None = None, units: list | None = None) -> None:
        self.ring, self.rows, self.cols = ring, rows, cols
        self.elementary_divisors, self.scale, self.lift = elementary_divisors, scale, lift
        self.row_moves, self.col_moves, self.units = row_moves, col_moves, units

    def _moves(self) -> tuple[list, list, list]:
        if self.units is None:
            divisors, moves = _kernel(self.ring, self.scale, self.lift, self.rows, self.cols)
            if divisors != self.elementary_divisors:
                raise ContradictionError(
                    "snf: the kernel's divisors differ from the divisor pass's")
            self.row_moves, self.col_moves, self.units = moves
        return self.row_moves, self.col_moves, self.units

    def verify(self, a: Matrix) -> bool:
        """Recheck reconstruction, invertible U and V, and the chain.

        Over Z/n and F_p, U @ Ui = I and V @ Vi = I modulo n prove U and V
        invertible (a one-sided inverse over a commutative ring forces a
        unit determinant); over Z, Z_(p) and Q, det(U) and det(V) are units.
        """
        ring = a.ring
        diag = [ring.canon(e) for e in self.elementary_divisors]
        zeros = [ring.zero] * (self.cols - len(diag))
        # U @ D with D diagonal: U's first columns scaled by D's diagonal
        ud = a._reduced([[x * e for x, e in zip(r, diag)] + zeros for r in self.U._data],
                        self.cols)
        if ud @ self.V != a:
            return False
        if _modulus(ring):
            if not (self.U @ self.Ui == Matrix.identity(ring, self.rows)
                    and self.V @ self.Vi == Matrix.identity(ring, self.cols)):
                return False
        elif not (ring.is_unit(det(self.U)) and ring.is_unit(det(self.V))):
            return False
        return _chain_ok(ring, self.elementary_divisors)

    def _lower(self, n: int, moves: list, inverse: bool,
               units: Iterable[tuple[int, Scalar]]) -> Matrix:
        """The moves replayed on the identity of size n (modulo the ring's
        modulus over Z/n and F_p) as a matrix over the ring, row i times u
        for each (i, u)."""
        ring = self.ring
        body = _replay(n, moves, inverse, _modulus(ring))
        if ring.uses_fractions:
            body = [[Fraction(x) for x in r] for r in body]
        for i, u in units:
            body[i] = [ring.canon(x * u) for x in body[i]]
        return Matrix._make(ring, body, n)

    @cached_property
    def D(self) -> Matrix:
        return Matrix.diagonal(self.ring, self.elementary_divisors, self.rows, self.cols)

    @cached_property
    def U(self) -> Matrix:
        return self._lower(self.rows, self._moves()[0], True, ()).transpose()

    @cached_property
    def Ui(self) -> Matrix:
        return self._lower(self.rows, self._moves()[0], False, ())

    @cached_property
    def V(self) -> Matrix:
        _, col_moves, units = self._moves()
        return self._lower(self.cols, col_moves, True, [(i, u) for i, u, _ in units if u != 1])

    @cached_property
    def Vi(self) -> Matrix:
        _, col_moves, units = self._moves()
        return self._lower(self.cols, col_moves, False,
                           [(i, u) for i, _, u in units if u != 1]).transpose()


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
    to termination; on a lift with entries in (-mod, mod), as _kernel and
    _divisors_mod pass, every multiplier q has |q| < mod.  With mod = 0
    (Z, Z_(p), Q) D is eliminated over Z.
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

    The only place denominators are cleared.  Over Z_(p) and Q the scale is
    the lcm of the denominators, a unit in both rings; over Z, Z/n and F_p
    it is 1 and the rows are A's own canonical representatives, not a copy.
    """
    if not a.ring.uses_fractions:
        return 1, a._data
    scale = lcm(1, *(x.denominator for r in a._data for x in r))
    return scale, [[x.numerator * (scale // x.denominator) for x in r] for r in a._data]


def _snf_full(a: Matrix) -> SnfDecomposition:
    """A's cached decomposition: divisors from the divisor pass modulo n
    over Z/n and F_p (gcd(s_i, n), n read as the canonical 0), from the
    minor route over Z, Z_(p) and Q; the kernel's moves are left to the
    first witness read."""
    if a._snf is not None:
        return a._snf
    ring, m, n = a.ring, a.rows, a.cols
    scale, lift = _integral_lift(a)
    mod = _modulus(ring)
    if mod:
        divisors = tuple(0 if d == mod else d for d in _divisors_mod(lift, m, n, mod))
    else:
        divisors = _minor_divisors(ring, lift, m, n, _fraction_free(a))
    a._snf = SnfDecomposition(ring, m, n, divisors, scale, lift)
    return a._snf


def _fraction_free(a: Matrix) -> tuple[int, int, int, int, int]:
    """A's cached fraction-free _bareiss pass on its integral lift; det,
    field_rank over Q and the minor route all read this one pass."""
    if a._pass is None:
        a._pass = _bareiss(_integral_lift(a)[1], a.cols)
    return a._pass


def _minor_divisors(ring: BaseRing, lift: Sequence[Sequence[int]], m: int, n: int,
                    elimination: tuple[int, int, int, int, int]) -> tuple[Scalar, ...]:
    """The divisors over Z, Z_(p) and Q from the minors one _bareiss pass
    on the lift keeps (elimination, the pass's result).

    The pass gives the rank r, its last pivot, a nonzero r x r minor up to
    sign, and the gcd of the r x r minors its last pivot row and column
    still hold; d_r = s_1...s_r divides each of them, so each s_i (i <= r)
    divides g, the gcd of that gcd and the last pivot.  Where the r x r
    minor is unique (r = m = n) the pivot row and column hold only the
    pivot, and g takes the gcd of the (r-1)-minors kept for the pivot
    before instead: s_i divides it for i < r, and s_r = |det| /
    (s_1...s_{r-1}).  No second pass runs: any nonzero multiple of d_r
    serves as g.  The divisor pass modulo g gives gcd(s_i, g) = s_i: Smith
    forms commute with reduction (Newman 1972, ch. II; Domich, Kannan and
    Trotter 1987).  Over Z_(p) only p-parts count, and over Q the divisors
    are r ones.
    """
    # x's canonical associate: |x| over Z, its p-part over Z_(p), 1 over Q
    part = {"Z": abs, "Q": lambda x: 1}.get(ring.kind, lambda x: ring.param ** ring.valuation(x))
    r, _, last, held, held_before = elimination
    unique = r == m == n
    g = gcd(part(last), held_before if unique else held)
    head = [1] * r if g == 1 else _divisors_mod(lift, m, n, g)[:r]
    if unique and r:
        head[-1] = part(last) // prod(head[:-1])
    divisors = head + [0] * (min(m, n) - r)
    return tuple(map(Fraction, divisors)) if ring.uses_fractions else tuple(divisors)


def _divisors_mod(lift: Sequence[Sequence[int]], m: int, n: int, mod: int) -> list[int]:
    """gcd(s_i, mod) for the min(m, n) divisors s_i of the lift, mod > 1.

    While some entry is a unit modulo mod it is the pivot: its row and
    column are removed, and its column is cleared in the other rows, each
    row updated in one pass.  A unit pivot splits A as (1) (+) S over any
    commutative ring, so each gives a divisor 1 and the rest are S's.  Zero
    rows are dropped; on what is left, which holds no unit, the kernel
    modulo mod runs.  Divisors past its diagonal are 0, so gcd(0, mod) =
    mod.  mod is never factored (Storjohann 2000 computes Smith forms over
    Z/N this way).
    """
    rows = [r for r in ([x % mod for x in row] for row in lift) if any(r)]
    units = 0
    while rows:
        pivot = next(((i, j) for i, r in enumerate(rows)
                      for j, x in enumerate(r) if x and gcd(x, mod) == 1), None)
        if pivot is None:
            break
        i, j = pivot
        top = rows.pop(i)
        inv = pow(top[j], -1, mod)
        del top[j]
        left = []
        for r in rows:
            f = r.pop(j) * inv % mod
            if f:
                r = [(x - f * y) % mod for x, y in zip(r, top)]
            if any(r):
                left.append(r)
        rows = left
        units += 1
    head = [1] * units
    if rows:
        D = _snf_int(rows, len(rows), n - units, mod)[0]
        head += [gcd(D[i][i], mod) for i in range(min(len(rows), n - units))]
    return head + [mod] * (min(m, n) - len(head))


def _kernel(ring: BaseRing, scale: int, lift: Sequence[Sequence[int]], m: int, n: int):
    """The one kernel on an integral lift, modulo n over Z/n and F_p and
    over Z for Z, Z_(p) and Q: (divisors, (row_moves, col_moves, units)).

    Each kernel divisor d that is nonzero in the ring splits as c*u with c
    canonical (gcd(d, n) over Z/n and F_p, p^v over Z_(p), 1 over Q) and u
    a unit; (i, u/scale, scale/u) is kept so that V scales its row i by
    u/scale and Vi its column i by the inverse.  Over Z/n, u is d/c modulo
    n/c, stepped by n/c until it is coprime to n (each prime of c that does
    not divide n/c rules out one residue).  Over Z/n and F_p the kernel's
    pivots lie in (0, n), so its diagonal is 0 exactly past the last pivot,
    and those zeros trail.
    """
    p, mod = ring.param, _modulus(ring)
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
            c = p ** ring.valuation(d) if ring.kind == "Zloc" else 1
            units.append((i, Fraction(d // c, scale), Fraction(scale, d // c)))
            d = c
        divisors.append(d)
    if ring.uses_fractions:
        divisors = map(Fraction, divisors)
    return tuple(divisors), (row_moves, col_moves, units)


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
    if not a.cols:
        return 0
    divisors = _snf_full(a).elementary_divisors
    if q.is_generic:
        return sum(1 for d in divisors if d != 0)
    p = q.p
    return sum(1 for d in divisors if Fraction(d).numerator % p)


def det(a: Matrix) -> Scalar:
    """Exact determinant: the cached _bareiss pass on the integral lift.

    Over Z/n and F_p the integer determinant of the canonical lift is
    reduced; over Z_(p) and Q the lift is scale * A, so det(A) is the
    integer determinant divided by scale**n.
    """
    if a.rows != a.cols:
        raise InputError(f"determinant of non-square {a.rows}x{a.cols}")
    rk, sign, last, _, _ = _fraction_free(a)
    scale = _integral_lift(a)[0]
    return a.ring.canon(Fraction(sign * last, scale ** a.rows) if rk == a.rows else 0)


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
    """Gaussian-elimination rank over Q or F_p: _bareiss on the integral
    lift, modulo p over F_p.  Over Q, and for a matrix over Z or Z_(p)
    (its rank over Q, the residue field at the generic point, with no
    Fraction copy), it reads the cached fraction-free pass that det and
    the minor route share.

    An independent route from rank_over_fiber's divisor counting; the two
    are cross-checked by the test suite.
    """
    if a.ring.kind == "Zmod":
        raise InputError(f"field_rank needs a field or a domain, got {a.ring}")
    p = _modulus(a.ring)
    return _bareiss(_integral_lift(a)[1], a.cols, p)[0] if p else _fraction_free(a)[0]


def _bareiss(a_rows: Sequence[Sequence[int]], cols: int,
             p: int = 0) -> tuple[int, int, int, int, int]:
    """Forward elimination on a copy of the rows: modulo a prime p, or
    fraction-free over Z with p = 0 (Bareiss 1968), where each update
    (b*x - f*y) // prev divides exactly.  Only entries right of a pivot are
    updated.  Returns (rank r, sign of the row swaps, last pivot, held,
    held before).

    Over Z the k-th pivot is a nonzero k x k minor up to sign, and a square
    matrix of full rank has determinant sign * last pivot.  No later step
    writes to a pivot row, or to a pivot column, so the k-th pivot row from
    the pivot on and its column from the pivot down keep k x k minors up to
    sign.  held is the gcd of those for k = r, held before for k = r - 1;
    both are taken once, after the pass, and are 1 for k < 1."""
    rows = [list(r) for r in a_rows]
    m = len(rows)
    rk, sign, prev = 0, 1, 1
    pivot_cols = []
    for j in range(cols):
        if rk == m:
            break
        if not rows[rk][j]:
            piv = next((i for i in range(rk + 1, m) if rows[i][j]), None)
            if piv is None:
                continue
            rows[rk], rows[piv] = rows[piv], rows[rk]
            sign = -sign
        top = rows[rk]
        b = top[j]
        if p:
            inv = pow(b, -1, p)
            for r in rows[rk + 1:]:
                if r[j]:
                    f = r[j] * inv % p
                    for k in range(j + 1, cols):
                        r[k] = (r[k] - f * top[k]) % p
        else:
            for r in rows[rk + 1:]:
                f = r[j]
                for k in range(j + 1, cols):
                    r[k] = (b * r[k] - f * top[k]) // prev
        prev = b
        pivot_cols.append(j)
        rk += 1

    def held(k: int) -> int:
        if k < 1:
            return 1
        j = pivot_cols[k - 1]
        return gcd(*rows[k - 1][j:], *(r[j] for r in rows[k:]))

    return rk, sign, prev, held(rk), held(rk - 1)
