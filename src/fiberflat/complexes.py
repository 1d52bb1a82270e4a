"""Bounded chain complexes, chain maps, and the standard constructions.

Conventions, fixed once here:

  * a complex lives in degrees [lo, hi]; the boundary in degree i maps
    term(i) to term(i - 1), and d . d = 0 is checked at construction;
  * shift(C, k) puts C_{i-k} in degree i and scales every boundary by
    (-1)^k;
  * cone(f)_i = C_{i-1} (+) D_i with d(c, x) = (-dc, dx - fc);
  * in a total tensor complex the second-factor boundary carries the
    sign (-1)^p of the first-factor degree;
  * Koszul terms are ordered by itertools.combinations, i.e. subsets in
    lexicographic order.

Terms are finitely presented modules; everything below degrades to plain
matrix algebra when the terms are free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod
from typing import Mapping, Sequence

from .errors import ContradictionError, InputError
from .linalg import Matrix, field_rank, hstack, kron, reduce_matrix, snf, solve_integral
from .modules import FpModule, ModuleMap, _pullback
from .rings import BaseRing, Prime


@dataclass(frozen=True)
class FiberProfile:
    """Homology dimensions of a complex after base change to kappa(prime)."""

    prime: Prime
    dims: dict[int, int]

    def is_exact(self) -> bool:
        return all(v == 0 for v in self.dims.values())


class BoundedComplex:
    """A bounded complex of finitely presented modules.

    terms maps each degree in [lo, hi] to its module; boundaries maps each
    degree i in (lo, hi] to the matrix of the map term(i) -> term(i-1),
    which the complex builds (and validates) as a ModuleMap between its own
    terms.  Outside the range term() returns the zero module and boundary()
    the zero map, so callers can index freely.
    """

    __slots__ = ("ring", "lo", "hi", "_terms", "_boundaries")

    def __init__(self, ring: BaseRing, lo: int, hi: int,
                 terms: Mapping[int, FpModule],
                 boundaries: Mapping[int, Matrix]):
        if lo > hi:
            raise InputError(f"empty degree range [{lo}, {hi}]")
        for i in range(lo, hi + 1):
            if i not in terms:
                raise InputError(f"missing term in degree {i}")
            if terms[i].ring != ring:
                raise InputError(f"term in degree {i} lives over {terms[i].ring}")
        for i in range(lo + 1, hi + 1):
            if i not in boundaries:
                raise InputError(f"missing boundary in degree {i}")
        extra = set(boundaries) - set(range(lo + 1, hi + 1))
        if extra:
            raise InputError(f"boundaries given outside (lo, hi]: {sorted(extra)}")
        self.ring = ring
        self.lo = lo
        self.hi = hi
        self._terms = {i: terms[i] for i in range(lo, hi + 1)}
        self._boundaries = {i: ModuleMap(terms[i], terms[i - 1], boundaries[i])
                            for i in range(lo + 1, hi + 1)}
        for i in range(lo + 2, hi + 1):
            dd = self._boundaries[i - 1].matrix @ self._boundaries[i].matrix
            if not self._terms[i - 2].vanishes(dd):
                raise InputError(f"d.d != 0 between degrees {i} and {i - 2}")

    @classmethod
    def free_complex(cls, ring: BaseRing, lo: int, ranks: Sequence[int],
                     matrices: Sequence[Matrix]) -> "BoundedComplex":
        """Free terms of the given ranks (degrees lo, lo+1, ...) and
        matrices[j] as the boundary from degree lo+j+1 down to lo+j."""
        if not ranks:
            raise InputError("free_complex needs at least one term")
        if len(matrices) != len(ranks) - 1:
            raise InputError(f"{len(ranks)} ranks need {len(ranks) - 1} boundary matrices")
        terms = {lo + j: FpModule.free(ring, r) for j, r in enumerate(ranks)}
        return cls(ring, lo, lo + len(ranks) - 1, terms,
                   {lo + j + 1: mat for j, mat in enumerate(matrices)})

    @classmethod
    def single(cls, module: FpModule, degree: int = 0) -> "BoundedComplex":
        return cls(module.ring, degree, degree, {degree: module}, {})

    def __repr__(self) -> str:
        dims = ", ".join(f"{i}:{self._terms[i].gens}" for i in range(self.hi, self.lo - 1, -1))
        return f"BoundedComplex({self.ring}, gens {{{dims}}})"

    def term(self, i: int) -> FpModule:
        if self.lo <= i <= self.hi:
            return self._terms[i]
        return FpModule.zero(self.ring)

    def boundary(self, i: int) -> ModuleMap:
        if self.lo < i <= self.hi:
            return self._boundaries[i]
        return ModuleMap.zero(self.term(i), self.term(i - 1))

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def is_free(self) -> bool:
        return all(self._terms[i].is_free_presentation for i in self.degrees())

    # -- homology ------------------------------------------------------------

    def homology(self, i: int) -> FpModule:
        """H_i = ker(d_i) / im(d_{i+1}) as a finitely presented module.

        With A_j the relations of term(j), the generators are the columns
        of P, generating d_i^{-1}(im A_{i-1}), and the relations are the
        pullback of im d_{i+1} + im A_i along P.  In the bottom degree P
        is the identity, so H_lo is presented as coker[d_{lo+1} | A_lo]
        directly; with a free bottom term that is d_{lo+1} itself, whose
        cached SNF is then reused.

        >>> from fiberflat.rings import ZZ
        >>> cx = BoundedComplex.free_complex(ZZ, 0, [1, 1], [Matrix(ZZ, [[2]])])
        >>> cx.homology(0).invariant_factors()
        InvariantFactors(free_rank=0, torsion=(2,))
        """
        if i < self.lo or i > self.hi:
            return FpModule.zero(self.ring)
        wall = hstack([self.boundary(i + 1).matrix, self.term(i).relations])
        if i == self.lo:
            return FpModule(self.ring, self.term(i).gens, wall)
        p = _pullback(self.boundary(i).matrix, self.term(i - 1).relations)
        return FpModule(self.ring, p.cols, _pullback(p, wall))

    def is_exact_at(self, i: int) -> bool:
        """Whether H_i = 0, read off the elementary divisors of d_i and
        d_{i+1} when term(i) and term(i-1) are free.

        Over Z, Z_(p) and the fields, with r the number of nonzero
        divisors, H_i = 0 exactly when r_i + r_{i+1} = n_i and every
        nonzero divisor of d_{i+1} is a unit.  Over Z/n the rule is
        is_exact_mod_at(i, n).  Other terms build homology(i).

        >>> from fiberflat.rings import ZZ, integers_mod
        >>> cx = BoundedComplex.free_complex(ZZ, 0, [1, 1], [Matrix(ZZ, [[2]])])
        >>> cx.is_exact_at(0), cx.is_exact_at(1)
        (False, True)
        >>> z4 = integers_mod(4)
        >>> BoundedComplex.free_complex(z4, 0, [1, 1, 1], [Matrix(z4, [[2]])] * 2).is_exact_at(1)
        True
        """
        if not (self.term(i).is_free_presentation and self.term(i - 1).is_free_presentation):
            return self.homology(i).is_zero()
        ring = self.ring
        if ring.kind == "Zmod":
            return self.is_exact_mod_at(i, ring.param)
        below, above = ([d for d in self._divisors(j) if d != 0] for j in (i, i + 1))
        return (len(below) + len(above) == self.term(i).gens
                and all(map(ring.is_unit, above)))

    def is_exact_mod_at(self, i: int, d: int) -> bool:
        """Whether H_i(C / dC) = 0, read off C's own cached divisors, for
        term(i) and term(i-1) free and d a canonical torsion factor: |d|
        over Z, p^v over Z_(p), a divisor of n over Z/n.

        U and V stay invertible modulo d, so the boundary d_i of C / dC,
        a free complex over Z/d, has the divisors gcd(e, d) for e among
        those of d_i.  Over Z/d the image of a map with divisors g_j has
        prod d/g_j elements, and H_i = 0 exactly when the images of d_i and
        d_{i+1} together have d^{n_i}.  Over Z/n, is_exact_at(i) is this
        rule with d = n.

        >>> from fiberflat.rings import ZZ
        >>> cx = BoundedComplex.free_complex(ZZ, 0, [1, 1], [Matrix(ZZ, [[6]])])
        >>> cx.is_exact_mod_at(1, 5), cx.is_exact_mod_at(1, 4)
        (True, False)
        """
        divisors = self._divisors(i) + self._divisors(i + 1)
        return prod(d // gcd(int(e), d) for e in divisors) == d ** self.term(i).gens

    def _divisors(self, j: int) -> tuple:
        """The cached elementary divisors of d_j; none outside (lo, hi]."""
        if self.lo < j <= self.hi:
            return snf(self._boundaries[j].matrix).elementary_divisors
        return ()

    def is_exact(self) -> bool:
        return all(self.is_exact_at(i) for i in self.degrees())

    def is_acyclic_away_from(self, degree: int = 0) -> bool:
        return all(self.is_exact_at(i) for i in self.degrees() if i != degree)

    # -- fibers ---------------------------------------------------------------

    def fiber_homology_dim(self, q: Prime, i: int) -> int:
        """dim over kappa(q) of H_i(kappa(q) tensor C)."""
        if i < self.lo or i > self.hi:
            return 0
        return self._fiber_dims(q, i, i)[i]

    def _fiber_dims(self, q: Prime, lo: int, hi: int) -> dict[int, int]:
        """dim over kappa(q) of H_i(kappa(q) tensor C) for lo <= i <= hi.

        Works for arbitrary finitely presented terms: with A_j the reduced
        relations of term(j) and F_j the reduced boundary, the dimension is
          gens_i - rank[F_i | A_{i-1}] + rank A_{i-1} - rank[F_{i+1} | A_i],
        each rank taken over the residue field, and each computed once.
        Past the ends nothing is built: below the bottom term both ranks
        are 0, and above the top one the wall is rank A_hi.
        """
        wall: dict[int, int] = {}
        below: dict[int, int] = {}
        for i in range(lo, hi + 2):
            if i == self.lo:
                wall[i] = below[i] = 0
                continue
            a = reduce_matrix(self._terms[i - 1].relations, q)
            below[i] = field_rank(a)
            wall[i] = (below[i] if i > self.hi else
                       field_rank(hstack([reduce_matrix(self._boundaries[i].matrix, q), a])))
        return {i: self._terms[i].gens - wall[i] + below[i] - wall[i + 1]
                for i in range(lo, hi + 1)}

    def fiber_profile(self, q: Prime) -> FiberProfile:
        return FiberProfile(q, self._fiber_dims(q, self.lo, self.hi))

    def is_fiber_exact(self, q: Prime) -> bool:
        return self.fiber_profile(q).is_exact()


class ChainMap:
    """A degreewise map of complexes commuting with the boundaries.

    maps holds the matrix of each component source.term(i) ->
    target.term(i), which the chain map builds (and validates) as a
    ModuleMap.  Missing degrees are implicitly zero; commutation is checked
    at construction for every degree where it has content.
    """

    __slots__ = ("source", "target", "_maps")

    def __init__(self, source: BoundedComplex, target: BoundedComplex,
                 maps: Mapping[int, Matrix]):
        if source.ring != target.ring:
            raise InputError("chain map needs a common ring")
        self.source = source
        self.target = target
        self._maps = {i: ModuleMap(source.term(i), target.term(i), f) for i, f in maps.items()}
        lo = min(source.lo, target.lo)
        hi = max(source.hi, target.hi)
        for i in range(lo + 1, hi + 1):
            square = (target.boundary(i).matrix @ self.at(i).matrix
                      - self.at(i - 1).matrix @ source.boundary(i).matrix)
            if not target.term(i - 1).vanishes(square):
                raise InputError(f"square at degree {i} does not commute")

    def at(self, i: int) -> ModuleMap:
        f = self._maps.get(i)
        if f is None:
            return ModuleMap.zero(self.source.term(i), self.target.term(i))
        return f

    def is_isomorphism(self) -> bool:
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        for i in range(lo, hi + 1):
            f = self.at(i)
            if not (f.is_injective() and f.is_surjective()):
                return False
        return True


# -- elementary constructions ---------------------------------------------------

def shift(cx: BoundedComplex, k: int) -> BoundedComplex:
    """Degree shift: shift(C, k)_i = C_{i-k}, boundaries scaled by (-1)^k."""
    sign = 1 if k % 2 == 0 else -1
    terms = {i + k: cx.term(i) for i in cx.degrees()}
    bmaps = {i + k: cx.boundary(i).matrix if sign == 1 else -cx.boundary(i).matrix
             for i in range(cx.lo + 1, cx.hi + 1)}
    return BoundedComplex(cx.ring, cx.lo + k, cx.hi + k, terms, bmaps)


def truncate_geq(cx: BoundedComplex, k: int) -> BoundedComplex:
    """Degrees >= k, with the degree-k term replaced by ker(d_k) so that
    homology in degrees >= k is preserved (and degree k picks up H_k)."""
    if k > cx.hi:
        z = FpModule.zero(cx.ring)
        return BoundedComplex(cx.ring, k, k, {k: z}, {})
    if k <= cx.lo:
        return cx
    ker, incl = cx.boundary(k).kernel()
    terms = {i: cx.term(i) for i in range(k + 1, cx.hi + 1)}
    terms[k] = ker
    bmaps = {i: cx.boundary(i).matrix for i in range(k + 2, cx.hi + 1)}
    if k + 1 <= cx.hi:
        f = cx.boundary(k + 1).matrix
        wall = hstack([incl.matrix, cx.term(k).relations])
        sol = solve_integral(wall, f)
        if sol is None:
            raise ContradictionError("boundary image escapes its own kernel")
        bmaps[k + 1] = sol.submatrix(range(ker.gens), range(sol.cols))
    return BoundedComplex(cx.ring, k, cx.hi, terms, bmaps)


def _block_matrix(ring: BaseRing, row_dims: Sequence[int], col_dims: Sequence[int],
                  blocks: Mapping[tuple[int, int], Matrix]) -> Matrix:
    rows = sum(row_dims)
    cols = sum(col_dims)
    body = [[ring.zero] * cols for _ in range(rows)]
    row_off = [0]
    for d in row_dims:
        row_off.append(row_off[-1] + d)
    col_off = [0]
    for d in col_dims:
        col_off.append(col_off[-1] + d)
    for (bi, bj), mat in blocks.items():
        if mat.rows != row_dims[bi] or mat.cols != col_dims[bj]:
            raise InputError("block shape mismatch")
        r0, c0 = row_off[bi], col_off[bj]
        for i in range(mat.rows):
            row = body[r0 + i]
            for j in range(mat.cols):
                row[c0 + j] = mat[i, j]
    return Matrix._make(ring, body, cols)


def cone(f: ChainMap) -> BoundedComplex:
    """Mapping cone: cone(f)_i = C_{i-1} (+) D_i, d(c, x) = (-dc, dx - fc).

    Exact iff f is a quasi-isomorphism; contractible iff f is a homotopy
    equivalence (for free terms these coincide with the checks used in
    the Koszul duality tests).
    """
    cx, dx = f.source, f.target
    ring = cx.ring
    lo = min(cx.lo + 1, dx.lo)
    hi = max(cx.hi + 1, dx.hi)
    terms = {i: cx.term(i - 1).direct_sum(dx.term(i)) for i in range(lo, hi + 1)}
    bmaps = {}
    for i in range(lo + 1, hi + 1):
        gc, gd = cx.term(i - 1).gens, dx.term(i).gens
        row_dims = [cx.term(i - 2).gens, dx.term(i - 1).gens]
        blocks: dict[tuple[int, int], Matrix] = {}
        dc = cx.boundary(i - 1).matrix
        blocks[(0, 0)] = -dc
        blocks[(1, 0)] = -f.at(i - 1).matrix
        blocks[(1, 1)] = dx.boundary(i).matrix
        bmaps[i] = _block_matrix(ring, row_dims, [gc, gd], blocks)
    return BoundedComplex(ring, lo, hi, terms, bmaps)


def tensor_with_module(m: FpModule, cx: BoundedComplex) -> BoundedComplex:
    """M tensor C, termwise: the total tensor with M in degree 0, whose
    terms are m.tensor(C_i) and whose boundaries are id_M tensor d."""
    return total_tensor(BoundedComplex.single(m), cx)


def total_tensor(g: BoundedComplex, c: BoundedComplex) -> BoundedComplex:
    """Total complex of the double complex G tensor C.

    T_n = (+)_{p+q=n} G_p tensor C_q, summands ordered by ascending p;
    the boundary acts by d_G tensor id + (-1)^p id tensor d_C.
    """
    if g.ring != c.ring:
        raise InputError("tensor needs a common ring")
    ring = g.ring
    lo, hi = g.lo + c.lo, g.hi + c.hi

    def parts(n: int) -> list[int]:
        return [p for p in range(max(g.lo, n - c.hi), min(g.hi, n - c.lo) + 1)]

    terms: dict[int, FpModule] = {}
    layout: dict[int, list[int]] = {}
    for n in range(lo, hi + 1):
        ps = parts(n)
        layout[n] = ps
        acc = FpModule.zero(ring)
        for p in ps:
            acc = acc.direct_sum(g.term(p).tensor(c.term(n - p)))
        terms[n] = acc
    bmaps = {}
    for n in range(lo + 1, hi + 1):
        src_ps, tgt_ps = layout[n], layout[n - 1]
        col_dims = [g.term(p).gens * c.term(n - p).gens for p in src_ps]
        row_dims = [g.term(p).gens * c.term(n - 1 - p).gens for p in tgt_ps]
        blocks: dict[tuple[int, int], Matrix] = {}
        for sj, p in enumerate(src_ps):
            q = n - p
            if p - 1 in tgt_ps:
                ti = tgt_ps.index(p - 1)
                blocks[(ti, sj)] = kron(g.boundary(p).matrix,
                                        Matrix.identity(ring, c.term(q).gens))
            if p in tgt_ps:
                ti = tgt_ps.index(p)
                block = kron(Matrix.identity(ring, g.term(p).gens),
                             c.boundary(q).matrix)
                blocks[(ti, sj)] = block if p % 2 == 0 else -block
        bmaps[n] = _block_matrix(ring, row_dims, col_dims, blocks)
    return BoundedComplex(ring, lo, hi, terms, bmaps)


def dual(cx: BoundedComplex) -> BoundedComplex:
    """Hom(-, R) of a complex with free terms: degree i holds the dual of
    C_{-i} and boundaries are the transposed originals (no sign)."""
    if not cx.is_free():
        raise InputError("dual needs free terms")
    ring = cx.ring
    lo, hi = -cx.hi, -cx.lo
    terms = {i: FpModule.free(ring, cx.term(-i).gens) for i in range(lo, hi + 1)}
    bmaps = {i: cx.boundary(-i + 1).matrix.transpose() for i in range(lo + 1, hi + 1)}
    return BoundedComplex(ring, lo, hi, terms, bmaps)


# -- Koszul complexes -----------------------------------------------------------

def koszul_complex(ring: BaseRing, elements: Sequence[object]) -> BoundedComplex:
    """The Koszul complex on the given ring elements, in degrees [0, d].

    Degree i has one generator e_S per size-i subset S (lexicographic
    order); d(e_S) = sum over t in S of (-1)^{pos(t, S)} x_t e_{S - t}.

    >>> from fiberflat.rings import ZZ
    >>> koszul_complex(ZZ, [2, 3]).boundary(1).matrix.to_rows()
    [[2, 3]]
    """
    xs = [ring.canon(x) for x in elements]
    d = len(xs)
    if d == 0:
        raise InputError("koszul complex needs at least one element")
    ranks = [len(list(combinations(range(d), i))) for i in range(d + 1)]
    mats = []
    for i in range(1, d + 1):
        lower = list(combinations(range(d), i - 1))
        upper = list(combinations(range(d), i))
        pos_of = {s: k for k, s in enumerate(lower)}
        body = [[ring.zero] * len(upper) for _ in lower]
        for j, s in enumerate(upper):
            for pos, t in enumerate(s):
                reduced = s[:pos] + s[pos + 1:]
                coeff = xs[t] if pos % 2 == 0 else ring.neg(xs[t])
                body[pos_of[reduced]][j] = coeff
        mats.append(Matrix._make(ring, body, len(upper)))
    return BoundedComplex.free_complex(ring, 0, ranks, mats)


def _merge_sign(subset: tuple[int, ...], d: int) -> int:
    """Sign of the shuffle sorting (subset, complement) into 0..d-1."""
    comp = [t for t in range(d) if t not in subset]
    inversions = sum(1 for s in subset for t in comp if t < s)
    return 1 if inversions % 2 == 0 else -1


def koszul_selfduality(ring: BaseRing, elements: Sequence[object]) -> ChainMap:
    """The classical isomorphism dual(K) -> shift(K, -d) for the Koszul
    complex on d elements: e_S* goes to a sign times e_{complement of S}.

    The degreewise scalars are forced (up to one global choice) by the
    commutation constraint; construction fails loudly if a sign is wrong.
    """
    k = koszul_complex(ring, elements)
    d = k.hi
    src = dual(k)
    tgt = shift(k, -d)
    lams: dict[int, int] = {0: 1}
    for i in range(0, -d, -1):
        lams[i - 1] = lams[i] * (1 if (d + i) % 2 == 0 else -1)
    maps = {}
    for i in range(-d, 1):
        size = -i
        subsets = list(combinations(range(d), size))
        complements = list(combinations(range(d), d - size))
        comp_pos = {s: k2 for k2, s in enumerate(complements)}
        body = [[ring.zero] * len(subsets) for _ in complements]
        for j, s in enumerate(subsets):
            comp = tuple(t for t in range(d) if t not in s)
            val = lams[i] * _merge_sign(s, d)
            body[comp_pos[comp]][j] = ring.canon(val)
        maps[i] = Matrix._make(ring, body, len(subsets))
    return ChainMap(src, tgt, maps)


# -- null homotopies --------------------------------------------------------------

@dataclass(frozen=True)
class HomotopyCertificate:
    """Maps h_i: C_i -> C_{i+1} with d h + h d = id in every degree."""

    complex: BoundedComplex
    maps: dict[int, Matrix]

    def h(self, i: int) -> Matrix:
        cx = self.complex
        got = self.maps.get(i)
        if got is not None:
            return got
        return Matrix.zeros(cx.ring, cx.term(i + 1).gens, cx.term(i).gens)

    def verify(self) -> bool:
        """d h + h d = id in every degree, and every h_i a map of modules:
        it carries the relations of term(i) into those of term(i + 1)."""
        cx = self.complex
        for i in cx.degrees():
            lhs = (cx.boundary(i + 1).matrix @ self.h(i)
                   + self.h(i - 1) @ cx.boundary(i).matrix)
            if not cx.term(i).vanishes(lhs - Matrix.identity(cx.ring, cx.term(i).gens)):
                return False
            rel = cx.term(i).relations
            if rel.cols and not cx.term(i + 1).vanishes(self.h(i) @ rel):
                return False
        return True


def null_homotopy(cx: BoundedComplex) -> HomotopyCertificate | None:
    """An explicit contraction d h + h d = id, or None when none exists.

    One pass from lo: with h_{lo-1} = 0 and A_i the relations of term(i),
    h_i solves d_{i+1} h_i = rhs_i = id - h_{i-1} d_i modulo A_i.  When
    that lift is not a map of modules it is moved to h_i + P Y, with P
    generating the pullback of im A_i along d_{i+1}, and Y and T solving
    P Y A_i + A_{i+1} T = -h_i A_i (row-major vectorization:
    vec(X @ Y @ Z) is kron(X, Z^T) @ vec(Y)); every lift is h_i + P Y for
    some Y, so this finds a map of modules whenever one exists.  In
    degree hi, rhs_hi must vanish.  If k is any contraction, k_i rhs_i
    solves degree i with a map of modules whatever h_{i-1} was, so a
    degree with no solution proves that none exists.
    Free terms never need the correction.  Every returned certificate
    verifies.
    """
    ring = cx.ring
    maps: dict[int, Matrix] = {}
    prev = Matrix.zeros(ring, cx.term(cx.lo).gens, cx.term(cx.lo - 1).gens)
    for i in cx.degrees():
        gi = cx.term(i).gens
        rhs = Matrix.identity(ring, gi) - prev @ cx.boundary(i).matrix
        if i == cx.hi:
            if not cx.term(i).vanishes(rhs):
                return None
            break
        d, a = cx.boundary(i + 1).matrix, cx.term(i).relations
        sol = solve_integral(hstack([d, a]), rhs)
        if sol is None:
            return None
        h_i = sol.submatrix(range(d.cols), range(gi))
        if a.cols and not cx.term(i + 1).vanishes(h_i @ a):
            p = _pullback(d, a)
            system = hstack([kron(p, a.transpose()),
                             kron(cx.term(i + 1).relations, Matrix.identity(ring, a.cols))])
            target = Matrix._make(ring, [[x] for row in (-(h_i @ a)).to_rows() for x in row], 1)
            fix = solve_integral(system, target)
            if fix is None:
                return None
            y = Matrix._make(ring, [[fix[r * gi + c, 0] for c in range(gi)]
                                    for r in range(p.cols)], gi)
            h_i = h_i + p @ y
        maps[i] = prev = h_i
    cert = HomotopyCertificate(cx, maps)
    if not cert.verify():
        raise ContradictionError("constructed homotopy fails verification")
    return cert
