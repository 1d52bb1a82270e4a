"""Finitely presented modules, module maps, resolutions, and purity.

A module is the cokernel of its relations matrix: generators index the
rows and each column is one relation.  Maps are matrices on generators
(target generators x source generators) and are validated eagerly: every
source relation must land in the span of the target relations, otherwise
the matrix does not define a map of quotients.

Kernels, images, cokernels, and homology all reduce to two primitives
from fiberflat.linalg: syzygy_matrix (column generators of a kernel) and
solve_integral (membership in a column span), applied to a map's wall.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING, Sequence

from .errors import ContradictionError, InputError
from .linalg import (
    Matrix, hstack, kron, rank_over_fiber, snf, solve_integral, syzygy_matrix, _block_matrix,
    _reduce_into, _snf_full,
)
from .rings import BaseRing, GENERIC, Prime, Scalar, integers_mod

if TYPE_CHECKING:
    from .complexes import BoundedComplex


@dataclass(frozen=True)
class InvariantFactors:
    """Canonical decomposition data: M ~ R^free_rank + sum of R/(d) factors.

    The torsion entries are the non-unit, nonzero elementary divisors of the
    relations, a divisibility chain of canonical ring elements (over Z/n,
    divisors of n: each generates the annihilator of its cyclic factor).
    """

    free_rank: int
    torsion: tuple[Scalar, ...]

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


class FpModule:
    """A finitely presented module coker(relations: R^r -> R^gens).

    >>> from fiberflat.rings import ZZ
    >>> M = FpModule(ZZ, 2, Matrix(ZZ, [[2, 0], [0, 3]]))
    >>> M.invariant_factors()
    InvariantFactors(free_rank=0, torsion=(6,))
    """

    __slots__ = ("ring", "gens", "relations", "_inv")

    def __init__(self, ring: BaseRing, gens: int, relations: Matrix | None = None):
        if relations is None:
            relations = Matrix.zeros(ring, gens, 0)
        if gens < 0:
            raise InputError("negative generator count")
        if relations.ring != ring:
            raise InputError(f"relations over {relations.ring}, module over {ring}")
        if relations.rows != gens:
            raise InputError(f"{gens} generators but relations have {relations.rows} rows")
        self.ring = ring
        self.gens = gens
        self.relations = relations
        self._inv: InvariantFactors | None = None

    @classmethod
    def free(cls, ring: BaseRing, n: int) -> "FpModule":
        return cls(ring, n)

    @classmethod
    def zero(cls, ring: BaseRing) -> "FpModule":
        return cls(ring, 0)

    @classmethod
    def cyclic(cls, ring: BaseRing, d: object) -> "FpModule":
        """R/(d), e.g. cyclic(ZZ, 6) is Z/6."""
        return cls(ring, 1, Matrix(ring, [[d]]))

    def __repr__(self) -> str:
        inv = self.invariant_factors()
        return f"FpModule({self.ring}, free={inv.free_rank}, torsion={list(inv.torsion)})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FpModule) and self.ring == other.ring
                and self.gens == other.gens and self.relations == other.relations)

    def __hash__(self) -> int:
        return hash((self.ring, self.gens, self.relations))

    @property
    def is_free_presentation(self) -> bool:
        return self.relations.cols == 0

    # -- classification ----------------------------------------------------

    def _split(self) -> tuple[list[int], dict[int, Scalar]]:
        """(free, torsion): the generator indices whose SNF divisor is zero
        or missing, and each non-unit nonzero divisor by its index; unit
        divisors are in neither.  A free presentation runs no SNF."""
        divisors = _snf_full(self.relations).elementary_divisors if self.relations.cols else ()
        divisors += (0,) * (self.gens - len(divisors))
        return ([i for i, d in enumerate(divisors) if d == 0],
                {i: d for i, d in enumerate(divisors) if d != 0 and not self.ring.is_unit(d)})

    def invariant_factors(self) -> InvariantFactors:
        if self._inv is None:
            free, torsion = self._split()
            self._inv = InvariantFactors(len(free), tuple(torsion.values()))
        return self._inv

    def is_zero(self) -> bool:
        return self.invariant_factors().is_trivial

    def vanishes(self, x: Matrix) -> bool:
        """Whether every column of x, a vector on the generators, is zero in M."""
        return x.is_zero() or solve_integral(self.relations, x) is not None

    def is_isomorphic_to(self, other: "FpModule") -> bool:
        if self.ring != other.ring:
            raise InputError("cannot compare modules over different rings")
        return self.invariant_factors() == other.invariant_factors()

    def is_flat(self) -> bool:
        """Flatness test from the invariant factors.

        Over Z, Z_(p), and fields: no torsion.  Over Z/n a cyclic factor
        R/d (d divides n) is flat iff for every prime power p^e exactly
        dividing n the exponent of p in d is 0 or e, that is iff
        gcd(d, n/d) = 1 (then the factor is a direct summand cut out by the
        CRT idempotents).
        """
        torsion = self.invariant_factors().torsion
        if self.ring.kind != "Zmod":
            return not torsion
        n = self.ring.param
        return all(gcd(d, n // d) == 1 for d in torsion)

    # -- fibers --------------------------------------------------------------

    def fiber_dim(self, q: Prime) -> int:
        """dim over kappa(q) of kappa(q) tensor M (tensoring is right exact)."""
        return self.gens - rank_over_fiber(self.relations, q)

    # -- constructions ---------------------------------------------------------

    def direct_sum(self, *others: "FpModule") -> "FpModule":
        """self (+) others, its relations block-diagonal in summand order;
        a summand over another ring is an InputError.

        >>> from fiberflat.rings import ZZ
        >>> FpModule.cyclic(ZZ, 2).direct_sum(FpModule.free(ZZ, 1), FpModule.cyclic(ZZ, 3))
        FpModule(Z, free=1, torsion=[6])
        """
        summands = (self, *others)
        gens = [m.gens for m in summands]
        rels = _block_matrix(self.ring, gens, [m.relations.cols for m in summands],
                             {(k, k): m.relations for k, m in enumerate(summands)})
        return FpModule(self.ring, sum(gens), rels)

    def tensor(self, other: "FpModule") -> "FpModule":
        """M tensor N presented on pairs (i, j) -> i * other.gens + j.

        >>> from fiberflat.rings import ZZ
        >>> FpModule.cyclic(ZZ, 4).tensor(FpModule.cyclic(ZZ, 6)).invariant_factors()
        InvariantFactors(free_rank=0, torsion=(2,))
        """
        if self.ring != other.ring:
            raise InputError("tensor needs a common ring")
        ia = Matrix.identity(self.ring, self.gens)
        ib = Matrix.identity(self.ring, other.gens)
        rels = hstack([kron(self.relations, ib), kron(ia, other.relations)])
        return FpModule(self.ring, self.gens * other.gens, rels)


def _drop_zero_columns(a: Matrix) -> Matrix:
    keep = [j for j in range(a.cols) if any(a[i, j] != 0 for i in range(a.rows))]
    if len(keep) == a.cols:
        return a
    return a.submatrix(range(a.rows), keep)


def _pullback(wall: Matrix, k: int) -> Matrix:
    """Column generators of {x : f @ x lies in the column span of A}, read
    off a map's wall [f | A] (ModuleMap.wall) with f its first k columns:
    the top k rows of the wall's syzygies, zero columns dropped."""
    syz = syzygy_matrix(wall)
    return _drop_zero_columns(syz.submatrix(range(k), range(syz.cols)))


class ModuleMap:
    """A map of finitely presented modules, given on generators.

    matrix has shape (target.gens x source.gens); construction verifies
    that every source relation is carried into the target relation span.
    The wall [f | A], A the target's relations, is built once and read by
    the kernel, image, injectivity, cokernel, fiber rank and prime set.
    """

    __slots__ = ("source", "target", "matrix", "_wall")

    def __init__(self, source: FpModule, target: FpModule, matrix: Matrix):
        if source.ring != target.ring:
            raise InputError("map needs a common ring")
        if matrix.ring != source.ring:
            raise InputError("matrix ring differs from module ring")
        if matrix.rows != target.gens or matrix.cols != source.gens:
            raise InputError(
                f"map matrix must be {target.gens}x{source.gens}, got {matrix.rows}x{matrix.cols}")
        if source.relations.cols and not target.vanishes(matrix @ source.relations):
            raise InputError("matrix does not carry source relations into target relations")
        self.source = source
        self.target = target
        self.matrix = matrix
        self._wall: Matrix | None = None

    @classmethod
    def zero(cls, source: FpModule, target: FpModule) -> "ModuleMap":
        return cls(source, target, Matrix.zeros(source.ring, target.gens, source.gens))

    def __repr__(self) -> str:
        return f"ModuleMap({self.source!r} -> {self.target!r})"

    @property
    def wall(self) -> Matrix:
        """[f | A], A the relations of the target, built once.  With a free
        target it is f itself (hstack), sharing f's cached SNF."""
        if self._wall is None:
            self._wall = hstack([self.matrix, self.target.relations])
        return self._wall

    # -- exactness primitives ---------------------------------------------

    def kernel(self) -> tuple[FpModule, "ModuleMap"]:
        """The kernel and its inclusion into the source: the image of the
        kernel's generators P, presented on P's columns."""
        p = _pullback(self.wall, self.source.gens)
        ker = ModuleMap(FpModule.free(self.source.ring, p.cols), self.source, p).image()
        return ker, ModuleMap(ker, self.source, p)

    def image(self) -> FpModule:
        """The image, presented on the images of the source generators."""
        return FpModule(self.source.ring, self.source.gens,
                        _pullback(self.wall, self.source.gens))

    def cokernel(self) -> FpModule:
        return FpModule(self.target.ring, self.target.gens, self.wall)

    def is_injective(self) -> bool:
        # the kernel's generators, as vectors on the source generators
        return self.source.vanishes(_pullback(self.wall, self.source.gens))

    def is_surjective(self) -> bool:
        return self.cokernel().is_zero()

    # -- fibers ---------------------------------------------------------------

    def fiber_rank(self, q: Prime) -> int:
        """Rank of the induced map kappa(q) tensor source -> kappa(q) tensor target."""
        return rank_over_fiber(self.wall, q) - rank_over_fiber(self.target.relations, q)

    def fiber_is_injective(self, q: Prime) -> bool:
        return self.fiber_rank(q) == self.source.fiber_dim(q)

    def fiber_is_isomorphism(self, q: Prime) -> bool:
        r = self.fiber_rank(q)
        return r == self.source.fiber_dim(q) == self.target.fiber_dim(q)


# -- bad primes of matrices and modules --------------------------------------

def matrix_bad_primes(a: Matrix) -> set[int]:
    """Primes where the fiber rank of the matrix drops below the generic rank.

    These are exactly the primes dividing the last nonzero elementary
    divisor.  Supported over Z and Z_(p) (elsewhere the spectrum is finite
    and callers enumerate it directly).
    """
    ring = a.ring
    if ring.kind not in ("Z", "Zloc"):
        raise InputError(f"bad primes are not meaningful over {ring}")
    nonzero = [d for d in _snf_full(a).elementary_divisors if d != 0] if a.cols else []
    return set(ring.factor(nonzero[-1])) if nonzero else set()


def relevant_primes(ring: BaseRing, matrices: Sequence[Matrix]) -> list[Prime]:
    """The finite prime set sufficient to decide fiberwise statements:
    the generic point plus every prime where some given matrix drops rank
    (over Z / Z_(p)), or the entire finite spectrum otherwise: the one
    enumeration of points, generic first and then primes ascending."""
    if ring.kind in ("Z", "Zloc"):
        bad: set[int] = set()
        for a in dict.fromkeys(matrices):  # a wall [f | A] is f when A has no columns
            bad |= matrix_bad_primes(a)
        return [GENERIC] + [Prime.at(p) for p in sorted(bad)]
    return list(ring.spectrum())


def module_prime_set(m: FpModule) -> list[Prime]:
    return relevant_primes(m.ring, [m.relations])


def map_prime_set(f: ModuleMap) -> list[Prime]:
    mats = [f.source.relations, f.target.relations, f.matrix, f.wall]
    return relevant_primes(f.source.ring, mats)


# -- flat modules in free coordinates -----------------------------------------

def _free_form(m: FpModule) -> tuple[int, Matrix, Matrix]:
    """(rank, to_free, from_free) for a flat module over a PID-like base.

    to_free @ from_free = identity, and to_free carries the relation span
    to zero, so the pair realizes an isomorphism M ~ R^rank.  Requires
    every elementary divisor of the relations to be a unit or zero.
    """
    free_idx, torsion = m._split()
    if torsion:
        raise InputError("module is not free over this base; cannot take free coordinates")
    full = _snf_full(m.relations)
    to_free = full.Ui.submatrix(free_idx, range(m.gens))
    from_free = full.U.submatrix(range(m.gens), free_idx)
    return len(free_idx), to_free, from_free


def _pure_by_divisors(f: ModuleMap) -> bool:
    """Purity via unit elementary divisors in free coordinates.

    Over Z, Z_(p), fields, and Z/p^e (where flat f.p. modules are free)
    the map is pure iff its free-coordinate matrix has full column count
    of unit divisors.  Composite Z/n splits into p-primary components
    first (CRT), and the criterion is applied per component.
    """
    ring = f.source.ring
    if ring.kind == "Zmod":
        factors = ring.factor(0)
        if len(factors) > 1:
            results = []
            for p, e in sorted(factors.items()):
                comp = integers_mod(p ** e)
                src, tgt = (FpModule(comp, m.gens, _reduce_into(m.relations, comp))
                            for m in (f.source, f.target))
                comp_map = ModuleMap(src, tgt, _reduce_into(f.matrix, comp))
                results.append(_pure_free_case(comp_map))
            return all(results)
    return _pure_free_case(f)


def _pure_free_case(f: ModuleMap) -> bool:
    rank_src, to_free_s, from_free_s = _free_form(f.source)
    rank_tgt, to_free_t, from_free_t = _free_form(f.target)
    g = to_free_t @ f.matrix @ from_free_s
    divisors = snf(g).elementary_divisors
    ring = f.source.ring
    return len(divisors) == rank_src and all(ring.is_unit(d) for d in divisors)


@dataclass(frozen=True)
class PurityReport:
    """Three provably equivalent purity conditions, all computed."""

    injective_with_flat_cokernel: bool
    pure: bool
    fiberwise_injective: bool
    checked_primes: tuple[Prime, ...]

    @property
    def verdict(self) -> bool:
        return self.pure


def purity_report(f: ModuleMap) -> PurityReport:
    """Evaluate all three purity conditions for a map of flat modules.

    Raises ContradictionError if the routes disagree: the supported
    equivalence theorem makes that an implementation bug by definition.
    """
    if not (f.source.is_flat() and f.target.is_flat()):
        raise InputError("purity_report requires flat source and target")
    c1 = f.is_injective() and f.cokernel().is_flat()
    c2 = _pure_by_divisors(f)
    primes = tuple(map_prime_set(f))
    c3 = all(f.fiber_is_injective(q) for q in primes)
    if not (c1 == c2 == c3):
        raise ContradictionError(
            f"purity routes disagree: injective+flat-coker={c1}, "
            f"unit-divisors={c2}, fiberwise-injective={c3}")
    return PurityReport(c1, c2, c3, primes)


# -- free resolutions ---------------------------------------------------------

@dataclass
class Resolution:
    """A free resolution together with the augmentation onto the module.

    complex has free terms in degrees [0, length]; augmentation maps the
    degree-0 term onto the module (its target) and identifies H_0 with it.
    The complex is exact in degrees (0, depth], so tor_dims and ext_dims
    list the fiber dimensions of Tor and Ext in the degrees 0 <= i < depth,
    one prime at a time, by two independent routes.
    """

    complex: "BoundedComplex"
    augmentation: ModuleMap
    depth: int

    def tor_dims(self, q: Prime) -> list[int]:
        """dim over kappa(q) of Tor_i(kappa(q), M) for 0 <= i < depth: the
        homology of the fibered resolution, with the rank of each reduced
        boundary counted once through its elementary divisors.

        >>> from fiberflat.rings import ZZ, Prime
        >>> res = free_resolution(FpModule.cyclic(ZZ, 2), 2)
        >>> res.tor_dims(Prime.at(2)), res.tor_dims(Prime.at(3))
        ([1, 1], [0, 0])
        """
        cx = self.complex
        ranks = [rank_over_fiber(cx.boundary(i).matrix, q) for i in range(self.depth + 1)]
        return [cx.term(i).gens - ranks[i] - ranks[i + 1] for i in range(self.depth)]

    def ext_dims(self, q: Prime) -> list[int]:
        """dim over kappa(q) of Ext^i(M, kappa(q)) for 0 <= i < depth.

        Dualizing the fibered resolution over the field kappa(q) transposes
        each boundary and keeps its rank, so these are read off the Gaussian
        fiber profile of the complex, independently of tor_dims.
        """
        dims = self.complex.fiber_profile(q).dims
        return [dims.get(i, 0) for i in range(self.depth)]


def _require_degree(i: int, depth: int) -> None:
    if not 0 <= i < depth:
        raise InputError(f"degree {i} needs resolution depth > {i}, got {depth}")


def free_resolution(m: FpModule, depth: int) -> Resolution:
    """A free resolution, exact in degrees (0, depth], built on the
    canonical invariant-factor presentation.

    Syzygies are iterated up to the requested depth; ranks stay bounded by
    the torsion count.  Over Z, Z_(p), and fields the canonical relations
    are injective, so the resolution stops at length <= 1.

    >>> from fiberflat.rings import ZZ, integers_mod
    >>> free_resolution(FpModule.cyclic(ZZ, 2), 3).complex.hi
    1
    >>> r = free_resolution(FpModule.cyclic(integers_mod(4), 2), 3)
    >>> [r.complex.boundary(i).matrix.to_rows() for i in (1, 2, 3)]
    [[[2]], [[2]], [[2]]]
    """
    from .complexes import BoundedComplex

    if depth < 1:
        raise InputError("resolution depth must be >= 1")
    ring = m.ring
    free, torsion = m._split()
    # the divisors form a chain, so the torsion generators precede the free ones
    kept = sorted(torsion) + free
    g0 = len(kept)
    eps_matrix = _snf_full(m.relations).U.submatrix(range(m.gens), kept)
    d1 = Matrix.diagonal(ring, list(torsion.values()), m=g0, n=len(torsion))

    boundaries: list[Matrix] = []
    if torsion:
        boundaries.append(d1)
        while len(boundaries) < depth:
            nxt = syzygy_matrix(boundaries[-1])
            if nxt.cols == 0:
                break
            boundaries.append(nxt)
    cx = BoundedComplex.free_complex(ring, 0, [g0] + [b.cols for b in boundaries], boundaries)
    aug = ModuleMap(cx.term(0), m, eps_matrix)
    return Resolution(cx, aug, depth)


def tor_fiber(m: FpModule, q: Prime, i: int, depth: int) -> int:
    """Resolution.tor_dims in degree i on a fresh resolution of m.

    >>> from fiberflat.rings import ZZ, Prime
    >>> tor_fiber(FpModule.cyclic(ZZ, 2), Prime.at(2), 1, 2)
    1
    """
    _require_degree(i, depth)
    return free_resolution(m, depth).tor_dims(q)[i]


def ext_fiber(m: FpModule, q: Prime, i: int, depth: int) -> int:
    """Resolution.ext_dims in degree i on a fresh resolution of m."""
    _require_degree(i, depth)
    return free_resolution(m, depth).ext_dims(q)[i]


def lift_along(f: ModuleMap, res_m: Resolution, res_n: Resolution) -> list[Matrix]:
    """[phi_0, ..., phi_depth] lifting f along given resolutions of its
    source and target: epsN @ phi_0 = f @ epsM and
    dN_j @ phi_j = phi_{j-1} @ dM_j."""
    ring = f.source.ring
    sol = solve_integral(res_n.augmentation.wall, f.matrix @ res_m.augmentation.matrix)
    if sol is None:
        raise ContradictionError("augmentation is not surjective; resolution bug")
    cx_m, cx_n = res_m.complex, res_n.complex
    phis = [sol.submatrix(range(cx_n.term(0).gens), range(sol.cols))]
    for j in range(1, res_m.depth + 1):
        rm, rn = cx_m.term(j).gens, cx_n.term(j).gens
        rhs = phis[j - 1] @ cx_m.boundary(j).matrix
        if rn == 0:
            if not rhs.is_zero():
                raise ContradictionError("chain lift obstructed; resolution bug")
            phis.append(Matrix.zeros(ring, 0, rm))
            continue
        lifted = solve_integral(cx_n.boundary(j).matrix, rhs)
        if lifted is None:
            raise ContradictionError("chain lift obstructed; resolution bug")
        phis.append(lifted)
    return phis


# -- prime filtrations ---------------------------------------------------------

@dataclass(frozen=True)
class PrimeFiltration:
    """0 = M_0 < M_1 < ... < M_r = M with prime cyclic quotients.

    Stages are abstract canonical presentations; step k records the stage
    module M_k and the prime q with M_k / M_{k-1} ~ R/q.
    """

    module: FpModule
    steps: tuple[tuple[FpModule, Prime], ...]

    def quotient_primes(self) -> tuple[Prime, ...]:
        return tuple(q for _, q in self.steps)


def prime_filtration(m: FpModule) -> PrimeFiltration:
    """A finite filtration with quotients R/p (torsion first, primes
    ascending inside each invariant factor, free steps R/(0) last).

    >>> from fiberflat.rings import ZZ
    >>> [q.literal() for q in prime_filtration(FpModule.cyclic(ZZ, 6)).quotient_primes()]
    ['2', '3']
    """
    ring = m.ring
    if ring.kind not in ("Z", "Zloc"):
        raise InputError(f"prime filtrations are implemented over Z and Z_(p), not {ring}")
    inv = m.invariant_factors()
    steps: list[tuple[FpModule, Prime]] = []
    completed: list[Scalar] = []

    def stage(partial: Scalar | None, free_count: int) -> FpModule:
        entries = completed + ([partial] if partial is not None else [])
        rel = Matrix.diagonal(ring, entries, m=len(entries) + free_count,
                              n=len(entries))
        return FpModule(ring, len(entries) + free_count, rel)

    for d in inv.torsion:
        partial: Scalar = ring.one
        for p, e in ring.factor(d).items():
            for _ in range(e):
                partial = ring.canon(partial * p)
                steps.append((stage(partial, 0), Prime.at(p)))
        completed.append(d)
    for j in range(1, inv.free_rank + 1):
        steps.append((stage(None, j), GENERIC))
    return PrimeFiltration(m, tuple(steps))
