"""Bounded chain complexes, chain maps, and the standard constructions.

Conventions, fixed once here:

  * a complex lives in degrees [lo, hi]; the boundary in degree i maps
    term(i) to term(i - 1), and d . d = 0 is checked at construction;
  * shift(C, k) puts C_{i-k} in degree i and scales every boundary by
    (-1)^k;
  * in a total tensor complex the second-factor boundary carries the
    sign (-1)^p of the first-factor degree;
  * Koszul terms are ordered by itertools.combinations, i.e. subsets in
    lexicographic order.

Terms are finitely presented modules; everything below degrades to plain
matrix algebra when the terms are free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from math import gcd, prod
from typing import Mapping, Sequence

from .errors import ContradictionError, InputError
from .linalg import (
    Matrix, _block_matrix, field_rank, hstack, kron, reduce_matrix, snf, solve_integral,
)
from .modules import FpModule, ModuleMap, _pullback
from .rings import BaseRing, Prime

# Stabilization defaults of the tower reports in towers.py, kept below
# towers so that the CLI states them in its help without importing towers.
DEFAULT_WINDOW = 3
DEFAULT_MAX_STAGE = 32


@dataclass(frozen=True)
class FiberProfile:
    """Homology dimensions of a complex after base change to kappa(q)."""

    dims: dict[int, int]

    def is_exact(self) -> bool:
        return all(v == 0 for v in self.dims.values())


class BoundedComplex:
    """A bounded complex of finitely presented modules.

    terms maps each degree in [lo, hi] to its module; boundaries maps each
    degree i in (lo, hi] to the matrix of the map term(i) -> term(i-1),
    which the complex builds (and validates) as a ModuleMap between its own
    terms.  Outside the range term() returns the zero module and boundary()
    the zero map, so callers can index freely.  Equal terms are kept as one
    module, so they share one relations matrix and its cached SNF.
    Complexes are immutable, so each boundary's wall and each H_i are built
    once.
    """

    __slots__ = ("ring", "lo", "hi", "_terms", "_boundaries", "_homology")

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
        shared: dict[FpModule, FpModule] = {}
        self._terms = {i: shared.setdefault(terms[i], terms[i]) for i in range(lo, hi + 1)}
        self._boundaries = {i: ModuleMap(self._terms[i], self._terms[i - 1], boundaries[i])
                            for i in range(lo + 1, hi + 1)}
        self._homology: dict[int, FpModule] = {}
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

    def _wall(self, j: int) -> Matrix | None:
        """W_j = [d_j | A_{j-1}], A_j the relations of term(j): the wall of
        the boundary d_j (ModuleMap.wall) for lo < j <= hi, A_hi at hi + 1
        and none otherwise.  With term(j-1) free it is d_j itself."""
        if self.lo < j <= self.hi:
            return self._boundaries[j].wall
        return self._terms[self.hi].relations if j == self.hi + 1 else None

    def homology(self, i: int) -> FpModule:
        """H_i = ker(d_i) / im(d_{i+1}) as a finitely presented module,
        built once per degree.

        With A_j the relations of term(j), the generators are the columns
        of P = pullback of the wall W_i = [d_i | A_{i-1}], generating
        d_i^{-1}(im A_{i-1}), and H_i is the image of P in
        coker d_{i+1} = coker W_{i+1}.  In the bottom degree P is the
        identity, so H_lo is coker W_{lo+1} itself; with a free bottom term
        that is d_{lo+1}, whose cached SNF is then reused.

        >>> from fiberflat.rings import ZZ
        >>> cx = BoundedComplex.free_complex(ZZ, 0, [1, 1], [Matrix(ZZ, [[2]])])
        >>> cx.homology(0).invariant_factors()
        InvariantFactors(free_rank=0, torsion=(2,))
        """
        if i < self.lo or i > self.hi:
            return FpModule.zero(self.ring)
        h = self._homology.get(i)
        if h is None:
            h = FpModule(self.ring, self._terms[i].gens, self._wall(i + 1))
            if i > self.lo:
                p = _pullback(self._wall(i), h.gens)
                h = ModuleMap(FpModule.free(self.ring, p.cols), h, p).image()
            self._homology[i] = h
        return h

    def is_exact_at(self, i: int) -> bool:
        """Whether H_i = 0, read off elementary divisors.

        Over Z/n the rule is is_exact_mod_at(i, n), for any terms.  Over Z,
        Z_(p) and the fields, with term(i) and term(i-1) free and r the
        number of nonzero divisors, H_i = 0 exactly when
        r_i + r_{i+1} = n_i and every nonzero divisor of d_{i+1} is a unit;
        other terms build homology(i).

        >>> from fiberflat.rings import ZZ, integers_mod
        >>> cx = BoundedComplex.free_complex(ZZ, 0, [1, 1], [Matrix(ZZ, [[2]])])
        >>> cx.is_exact_at(0), cx.is_exact_at(1)
        (False, True)
        >>> z4 = integers_mod(4)
        >>> BoundedComplex.free_complex(z4, 0, [1, 1, 1], [Matrix(z4, [[2]])] * 2).is_exact_at(1)
        True
        """
        ring = self.ring
        if ring.kind == "Zmod":
            return self.is_exact_mod_at(i, ring.param)
        if not (self.term(i).is_free_presentation and self.term(i - 1).is_free_presentation):
            return self.homology(i).is_zero()
        below, above = ([e for e in _divisors(self._wall(j)) if e != 0] for j in (i, i + 1))
        return (len(below) + len(above) == self.term(i).gens
                and all(map(ring.is_unit, above)))

    def is_exact_mod_at(self, i: int, d: int) -> bool:
        """Whether H_i(C / dC) = 0, read off the cached divisors of C's own
        walls, for any finitely presented terms and d a canonical torsion
        factor: |d| over Z, p^v over Z_(p), a divisor of n over Z/n.

        U and V stay invertible modulo d, so a matrix X with divisors e has
        divisors gcd(e, d) modulo d, and its image in (Z/d)^g has
        |im X| = prod d/gcd(e, d) elements.  In C / dC the cycles of degree
        i number d^{g_i} |im A_{i-1}| / |im W_i| and contain im W_{i+1}, so
        H_i = 0 exactly when |im W_i| |im W_{i+1}| = d^{g_i} |im A_{i-1}|.
        With free terms the walls are the boundaries.  Over Z/n,
        is_exact_at(i) is this rule with d = n.

        >>> from fiberflat.rings import ZZ
        >>> cx = BoundedComplex.free_complex(ZZ, 0, [1, 1], [Matrix(ZZ, [[6]])])
        >>> cx.is_exact_mod_at(1, 5), cx.is_exact_mod_at(1, 4)
        (True, False)
        """
        def size(x: Matrix | None) -> int:
            return prod(d // gcd(int(e), d) for e in _divisors(x))

        gens = self._terms[i].gens if self.lo <= i <= self.hi else 0
        below = self._terms[i - 1].relations if self.lo < i <= self.hi + 1 else None
        return size(self._wall(i)) * size(self._wall(i + 1)) == d ** gens * size(below)

    def is_exact(self) -> bool:
        return all(self.is_exact_at(i) for i in self.degrees())

    def is_acyclic_away_from(self, degree: int = 0) -> bool:
        return all(self.is_exact_at(i) for i in self.degrees() if i != degree)

    # -- fibers ---------------------------------------------------------------

    def fiber_homology_dim(self, q: Prime, i: int) -> int:
        """dim over kappa(q) of H_i(kappa(q) tensor C); fiber_dim of a lone term."""
        if i < self.lo or i > self.hi:
            return 0
        if self.lo == self.hi:
            return self._terms[i].fiber_dim(q)
        return self._fiber_dims(q, i, i)[i]

    def _fiber_dims(self, q: Prime, lo: int, hi: int) -> dict[int, int]:
        """dim over kappa(q) of H_i(kappa(q) tensor C) for lo <= i <= hi.

        Works for arbitrary finitely presented terms: with A_j the relations
        of term(j) and W_j the wall [d_j | A_{j-1}], the dimension is
          gens_i - rank W_i + rank A_{i-1} - rank W_{i+1},
        each rank a _rank_at, computed once.  Past the ends nothing is
        built: there is no wall at or below lo, nor above hi + 1.
        """
        self.ring.residue_field(q)  # rejects a point outside Spec R
        wall = {j: _rank_at(self._wall(j), q) for j in range(lo, hi + 2)}
        return {i: self._terms[i].gens - wall[i] - wall[i + 1]
                + (_rank_at(self._terms[i - 1].relations, q) if i > self.lo else 0)
                for i in range(lo, hi + 1)}

    def fiber_profile(self, q: Prime) -> FiberProfile:
        return FiberProfile(self._fiber_dims(q, self.lo, self.hi))

    def is_fiber_exact(self, q: Prime) -> bool:
        return self.fiber_profile(q).is_exact()


def _rank_at(x: Matrix | None, q: Prime) -> int:
    """The one Gaussian rank of x over kappa(q): field_rank of x itself at
    the generic point (its rank over Q, with no copy reduced into Q), of
    reduce_matrix(x, q) at a prime; 0 with no matrix or no columns."""
    if x is None or not x.cols:
        return 0
    return field_rank(x if q.is_generic else reduce_matrix(x, q))


def _divisors(x: Matrix | None) -> tuple:
    """The cached elementary divisors of x; none when there is no matrix or
    it has no columns, so a free term's relations run no SNF."""
    return snf(x).elementary_divisors if x is not None and x.cols else ()


class ChainMap:
    """A degreewise map of complexes commuting with the boundaries.

    maps holds the matrix of each component source.term(i) ->
    target.term(i), which the chain map builds (and validates) as a
    ModuleMap.  Missing degrees are implicitly zero; commutation is checked
    at construction for every degree where it has content, unless the
    caller passes commuting=True for squares it solved (as lift_along does).
    """

    __slots__ = ("source", "target", "_maps")

    def __init__(self, source: BoundedComplex, target: BoundedComplex,
                 maps: Mapping[int, Matrix], *, commuting: bool = False):
        if source.ring != target.ring:
            raise InputError("chain map needs a common ring")
        self.source = source
        self.target = target
        self._maps = {i: ModuleMap(source.term(i), target.term(i), f) for i, f in maps.items()}
        if commuting:
            return
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

    def fiber_rank(self, q: Prime, i: int) -> int:
        """Rank over kappa(q) of the map induced on H_i: ModuleMap.fiber_rank
        with source and target concentrated in degree i, 0 when f_i is
        absent or i lies outside either complex, and else, with d, A the
        source's boundaries and relations and e, B the target's, rank
        [[d_i, A_{i-1}, 0], [f_i, 0, W]] less the ranks of the walls
        [d_i | A_{i-1}] and W = [e_{i+1} | B_i]: the block's kernel projects
        onto the cycles x with f_i x a boundary, each fiber a wall's kernel."""
        src, tgt = self.source, self.target
        if src.lo == src.hi == tgt.lo == tgt.hi == i:
            return self.at(i).fiber_rank(q)
        src.ring.residue_field(q)  # rejects a point outside Spec R
        f = self._maps.get(i)
        if f is None or not (src.lo <= i <= src.hi and tgt.lo <= i <= tgt.hi):
            return 0
        below, wall = src._terms.get(i - 1), tgt._wall(i + 1)
        blocks, g, r = {(1, 0): f.matrix, (1, 2): wall}, 0, 0
        if below is not None:  # the source's bottom degree has no top blocks
            g, r = below.gens, below.relations.cols
            blocks.update({(0, 0): src._boundaries[i].matrix, (0, 1): below.relations})
        block = _block_matrix(src.ring, [g, wall.rows], [f.source.gens, r, wall.cols], blocks)
        return _rank_at(block, q) - _rank_at(src._wall(i), q) - _rank_at(wall, q)

    def is_isomorphism(self) -> bool:
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        return all(f.is_injective() and f.is_surjective() for f in map(self.at, range(lo, hi + 1)))


# -- elementary constructions ---------------------------------------------------

def shift(cx: BoundedComplex, k: int) -> BoundedComplex:
    """Degree shift: shift(C, k)_i = C_{i-k}, boundaries scaled by (-1)^k."""
    sign = 1 if k % 2 == 0 else -1
    terms = {i + k: cx.term(i) for i in cx.degrees()}
    bmaps = {i + k: cx.boundary(i).matrix if sign == 1 else -cx.boundary(i).matrix
             for i in range(cx.lo + 1, cx.hi + 1)}
    return BoundedComplex(cx.ring, cx.lo + k, cx.hi + k, terms, bmaps)


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
    layout = {n: list(range(max(g.lo, n - c.hi), min(g.hi, n - c.lo) + 1))
              for n in range(lo, hi + 1)}
    terms = {n: FpModule.direct_sum(*(g.term(p).tensor(c.term(n - p)) for p in ps))
             for n, ps in layout.items()}
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
                coeff = xs[t] if pos % 2 == 0 else ring.canon(-xs[t])
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
    h_i solves d_{i+1} h_i = rhs_i = id - h_{i-1} d_i modulo A_i, on the
    wall W_{i+1} = [d_{i+1} | A_i].  When that lift is not a map of modules
    it is moved to h_i + P Y, with P the pullback of W_{i+1} (generating
    d_{i+1}^{-1}(im A_i)), and Y and T solving
    P Y A_i + A_{i+1} T = -h_i A_i; every lift is h_i + P Y for some Y, so
    this finds a map of modules whenever one exists.  With A_i = U D V
    (its cached SNF), Y' = Y U and x = h_i U, the system splits by the
    columns of D into d_j P y'_j + A_{i+1} t_j = -d_j x_j, one solve of
    [d P | A_{i+1}] per run of equal divisors d, and Y = Y' U^-1 with Y'
    zero past the last nonzero divisor.  In degree hi, rhs_hi must vanish.
    If k is any contraction, k_i rhs_i solves degree i with a map of
    modules whatever h_{i-1} was, so a degree with no solution proves that
    none exists.  Free terms never need the correction.  Every returned
    certificate verifies.
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
        wall, a, gn = cx._wall(i + 1), cx.term(i).relations, cx.term(i + 1).gens
        sol = solve_integral(wall, rhs)
        if sol is None:
            return None
        h_i = sol.submatrix(range(gn), range(gi))
        if a.cols and not cx.term(i + 1).vanishes(h_i @ a):
            p, dec = _pullback(wall, gn), snf(a)
            xd, blocks = -(h_i @ dec.U @ dec.D), []
            divisors = [e for e in dec.elementary_divisors if e != 0]
            for d, run in groupby(range(len(divisors)), divisors.__getitem__):
                run = list(run)
                fix = solve_integral(hstack([Matrix.diagonal(ring, [d] * gn) @ p,
                                             cx.term(i + 1).relations]),
                                     xd.submatrix(range(gn), run))
                if fix is None:
                    return None
                blocks.append(fix.submatrix(range(p.cols), range(len(run))))
            blocks.append(Matrix.zeros(ring, p.cols, gi - len(divisors)))
            h_i = h_i + p @ hstack(blocks) @ dec.Ui
        maps[i] = prev = h_i
    cert = HomotopyCertificate(cx, maps)
    if not cert.verify():
        raise ContradictionError("constructed homotopy fails verification")
    return cert
