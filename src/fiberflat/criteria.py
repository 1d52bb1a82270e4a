"""Executable criteria: fiberwise hypotheses checked against finitely
many primes, with every conclusion recomputed by an independent route.

The load-bearing fact used throughout: a matrix over Z or Z_(p) drops
rank modulo p exactly when p divides its last nonzero elementary
divisor, so "for every prime" statements reduce to the generic point
plus the finitely many divisors of that entry.  bad_primes computes the
set; its soundness is a tested invariant, not an assumption.

Whenever one of the provably equivalent routes disagrees with another,
the checker raises ContradictionError instead of picking a side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import BoundedComplex, HomotopyCertificate, null_homotopy
from .errors import ContradictionError, InputError
from .linalg import _reduce_into, hstack
from .modules import (
    FpModule, ModuleMap, Resolution, free_resolution, matrix_bad_primes,
    map_prime_set, module_prime_set, relevant_primes,
)
from .rings import BaseRing, Prime, integers_mod


@dataclass(frozen=True)
class BadPrimeSet:
    """Primes where some boundary matrix drops fiber rank, with witnesses.

    witness maps each prime to the degrees of the offending boundaries.
    For any prime outside the set, every boundary has its generic rank.
    """

    ring: BaseRing
    primes: tuple[Prime, ...]
    witness: dict[int, tuple[int, ...]]


def bad_primes(cx: BoundedComplex) -> BadPrimeSet:
    """Primes dividing the last nonzero elementary divisor of any
    boundary matrix of a free-term complex over Z or Z_(p).

    >>> from fiberflat.rings import ZZ
    >>> from fiberflat.complexes import koszul_complex
    >>> [p.literal() for p in bad_primes(koszul_complex(ZZ, [6])).primes]
    ['2', '3']
    """
    if cx.ring.kind not in ("Z", "Zloc"):
        raise InputError(f"bad primes are enumerable over Z and Z_(p), not {cx.ring}")
    if not cx.is_free():
        raise InputError("bad_primes expects free terms")
    witness: dict[int, list[int]] = {}
    for i in range(cx.lo + 1, cx.hi + 1):
        for p in sorted(matrix_bad_primes(cx.boundary(i).matrix)):
            witness.setdefault(p, []).append(i)
    primes = tuple(Prime.at(p) for p in sorted(witness))
    return BadPrimeSet(cx.ring, primes, {p: tuple(v) for p, v in sorted(witness.items())})


def complex_prime_set(cx: BoundedComplex) -> list[Prime]:
    """Primes sufficient to decide fiberwise statements about cx: the
    generic point plus rank-drop primes (Z, Z_(p)) of every boundary, every
    boundary beside the relations of the term below it, and every term's
    relations; the full finite spectrum (Z/n); the generic point (fields)."""
    matrices = []
    for i in range(cx.lo + 1, cx.hi + 1):
        f = cx.boundary(i).matrix
        matrices += [f, hstack([f, cx.term(i - 1).relations])]
    matrices += [cx.term(i).relations for i in cx.degrees()]
    return relevant_primes(cx.ring, matrices)


def standard_module_family(ring: BaseRing, extra_primes: tuple[int, ...] = ()) -> list[FpModule]:
    """The one tensor test family of check_main_theorem and
    is_universally_exact, adapted to the base ring.

    Over Z: Z/2, Z/3, Z^2, plus residue fields Z/p of any extra (bad)
    primes.  Over Z_(p): R/p, R^2.  Over Z/n: R/p per prime p | n, plus
    R^2.  Over fields: R^2.  For flat terms composite cyclic members
    decide nothing new: C/6 is C/2 + C/3, and H_i(C/p^2) vanishes wherever
    H_i(C/p) does, by the long exact sequence of 0 -> C/p -> C/p^2 -> C/p
    -> 0.
    """
    if ring.kind == "Z":
        torsion = [2, 3] + [p for p in sorted(extra_primes) if p not in (2, 3)]
        family = [FpModule.cyclic(ring, d) for d in torsion]
        family.append(FpModule.free(ring, 2))
        return family
    if ring.kind == "Zloc":
        return [FpModule.cyclic(ring, ring.param), FpModule.free(ring, 2)]
    if ring.kind == "Zmod":
        family = [FpModule.cyclic(ring, q.p) for q in ring.spectrum()]
        family.append(FpModule.free(ring, 2))
        return family
    return [FpModule.free(ring, 2)]


def _tensor_members(m: FpModule, cx: BoundedComplex) -> list[BoundedComplex]:
    """Complexes whose homology sums to that of m tensor cx.  Only a cx
    with a term that is not a free presentation is decided this way: for
    free cx, _tensor_exact reads each R/(d) off cx's own divisors.

    With m ~ R^f + sum_j R/(d_j) from its invariant factors, m tensor cx
    is cx^f + sum_j cx/d_j cx: the list holds cx itself when f > 0, and for
    each d_j, cx base-changed to R/(d_j), with every term's relations and
    every boundary reduced.  Canonical d_j are |d| over Z, p^v over Z_(p)
    and a divisor of n over Z/n, so R/(d_j) is Z/d_j and an entry a/b
    becomes a * b^-1 mod d_j.  Zero and unit members give the empty list.
    """
    inv = m.invariant_factors()
    members = [cx] if inv.free_rank else []
    for d in inv.torsion:
        quotient = integers_mod(int(d))
        terms = {i: FpModule(quotient, cx.term(i).gens,
                             _reduce_into(cx.term(i).relations, quotient))
                 for i in cx.degrees()}
        bmaps = {i: _reduce_into(cx.boundary(i).matrix, quotient)
                 for i in range(cx.lo + 1, cx.hi + 1)}
        members.append(BoundedComplex(quotient, cx.lo, cx.hi, terms, bmaps))
    return members


def _tensor_exact(m: FpModule, cx: BoundedComplex, skip: int | None = None) -> bool:
    """Whether H_i(m tensor cx) = 0 in every degree i != skip.

    With m ~ R^f + sum_j R/(d_j), the free part is decided as cx itself
    (is_exact_at, when f > 0).  For free cx each torsion factor is read
    off cx's own cached divisors (is_exact_mod_at): no base change, no new
    ring, no new SNF, and the same Smith forms that conclusion_acyclic
    reads.  Other cx go through _tensor_members.
    """
    degrees = [i for i in cx.degrees() if i != skip]
    if not cx.is_free():
        return all(mc.is_exact_at(i) for mc in _tensor_members(m, cx) for i in degrees)
    inv = m.invariant_factors()
    return ((not inv.free_rank or all(map(cx.is_exact_at, degrees)))
            and all(cx.is_exact_mod_at(i, int(d)) for d in inv.torsion for i in degrees))


def _fiber_profiles(cx: BoundedComplex, primes: list[Prime]) -> dict[Prime, dict[int, int]]:
    return {q: cx.fiber_profile(q).dims for q in primes}


@dataclass(frozen=True)
class TheoremReport:
    """Verdict of the fiberwise-acyclicity criterion on one complex.

    hypothesis_holds: the fibers at every checked prime have vanishing
    homology in all positive degrees.  The three conclusion fields are
    always computed; verdict is "VIOLATION" only when the hypothesis
    holds and some conclusion fails, which falsifies the implementation.
    tensor_family_acyclic reads the free part of each family member as C
    itself, so for free members it repeats conclusion_acyclic and is not
    an independent check.  With free terms each torsion part R/(d) is read
    off the same cached Smith forms of C's boundaries that
    conclusion_acyclic reads (see _tensor_exact); the Gaussian fiber
    profiles behind hypothesis_holds are the independent route.
    """

    hypothesis_holds: bool
    checked_primes: tuple[Prime, ...]
    fiber_dims: dict[Prime, dict[int, int]]
    conclusion_acyclic: bool
    conclusion_h0_flat: bool
    tensor_family_acyclic: bool
    h0: FpModule
    verdict: str

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"


def check_main_theorem(cx: BoundedComplex) -> TheoremReport:
    """Check the central criterion on a nonnegative complex of flat terms.

    Hypothesis: every fiber has zero homology in degrees > 0.  When it
    holds, three conclusions are recomputed over the ring itself: the
    complex is acyclic away from degree 0, H_0 is flat, and M tensor C
    stays acyclic for every M in standard_module_family, the test-module
    family that route 3 of is_universally_exact reads too.  Each member M is
    split by its invariant factors (see _tensor_exact): its free part is
    decided as C itself, which is not an independent check.  With free
    terms each torsion factor R/(d) is read off C's cached elementary
    divisors, the Smith forms conclusion_acyclic reads; otherwise C is
    base-changed to Z/d.  The hypothesis, from Gaussian fiber ranks, is
    the independent route.

    >>> from fiberflat.rings import ZZ
    >>> from fiberflat.linalg import Matrix
    >>> cx = BoundedComplex.free_complex(ZZ, 0, [2, 1], [Matrix(ZZ, [[1], [-1]])])
    >>> check_main_theorem(cx).verdict
    'consistent'
    """
    if cx.lo < 0:
        raise InputError("criterion expects complexes concentrated in degrees >= 0")
    for i in cx.degrees():
        if not cx.term(i).is_flat():
            raise InputError(f"term in degree {i} is not flat")
    primes = complex_prime_set(cx)
    dims = _fiber_profiles(cx, primes)
    hypothesis = all(d == 0 for prof in dims.values()
                     for deg, d in prof.items() if deg > 0)
    conclusion_acyclic = cx.is_acyclic_away_from(0)
    h0 = cx.homology(0)
    conclusion_h0_flat = h0.is_flat()
    extra = tuple(p.p for p in primes if p.p is not None)
    tensor_ok = all(_tensor_exact(m, cx, skip=0) for m in standard_module_family(cx.ring, extra))
    if hypothesis and not (conclusion_acyclic and conclusion_h0_flat and tensor_ok):
        verdict = "VIOLATION"
    else:
        verdict = "consistent"
    return TheoremReport(hypothesis, tuple(primes), dims, conclusion_acyclic,
                         conclusion_h0_flat, tensor_ok, h0, verdict)


@dataclass(frozen=True)
class UniversalExactnessReport:
    """Three routes to 'C stays exact under every tensor', all computed."""

    direct: bool
    fiberwise: bool
    tensor_sampled: bool
    checked_primes: tuple[Prime, ...]

    @property
    def verdict(self) -> bool:
        return self.direct


def is_universally_exact(cx: BoundedComplex) -> UniversalExactnessReport:
    """Decide universal exactness three ways and insist they agree.

    Route 1: exact over the ring and every boundary image flat.  Route 2:
    exact on every fiber, by Gaussian ranks.  Route 3: M tensor C stays
    exact for every M in standard_module_family, decided through
    _tensor_exact as in check_main_theorem: the free part of M is C
    itself, and with free terms each torsion factor R/(d) is read off the
    cached divisors that route 1 reads too, so route 2 is the independent
    one; other terms are base-changed to Z/d.  For bounded complexes of
    flat terms over the supported rings these are equivalent;
    disagreement raises ContradictionError.
    """
    for i in cx.degrees():
        if not cx.term(i).is_flat():
            raise InputError(f"term in degree {i} is not flat")
    direct = cx.is_exact()
    if direct:
        for i in range(cx.lo + 1, cx.hi + 1):
            if not cx.boundary(i).image().is_flat():
                direct = False
                break
    primes = complex_prime_set(cx)
    fiberwise = all(cx.is_fiber_exact(q) for q in primes)
    extra = tuple(p.p for p in primes if p.p is not None)
    sampled = all(_tensor_exact(m, cx) for m in standard_module_family(cx.ring, extra))
    if not (direct == fiberwise == sampled):
        raise ContradictionError(
            f"universal exactness routes disagree: direct={direct}, "
            f"fiberwise={fiberwise}, tensor-sampled={sampled}")
    return UniversalExactnessReport(direct, fiberwise, sampled, tuple(primes))


def check_zero_criterion(m: FpModule) -> bool:
    """If a flat module has zero fiber at the generic point and at every
    bad prime of its presentation, it must be the zero module.

    Returns whether the vanishing hypothesis held; when it does, the
    conclusion m = 0 is asserted and a failure is fatal.
    """
    if not m.is_flat():
        raise InputError("zero criterion applies to flat modules")
    primes = module_prime_set(m)
    if any(m.fiber_dim(q) != 0 for q in primes):
        return False
    if not m.is_zero():
        raise ContradictionError("all fibers vanish but the module is nonzero")
    return True


def check_isom_criterion(f: ModuleMap) -> bool:
    """If a map of flat modules is an isomorphism on every fiber, it is
    an isomorphism.  Returns whether the fiberwise hypothesis held;
    when it does, kernel = 0 and cokernel = 0 are asserted fatally."""
    if not (f.source.is_flat() and f.target.is_flat()):
        raise InputError("isomorphism criterion applies to maps of flat modules")
    primes = map_prime_set(f)
    if not all(f.fiber_is_isomorphism(q) for q in primes):
        return False
    if not (f.is_injective() and f.is_surjective()):
        raise ContradictionError("fiberwise isomorphism but not an isomorphism")
    return True


@dataclass(frozen=True)
class FlatnessVerdict:
    """Outcome of the Tor- or Ext-vanishing flatness criterion.

    complete is False over Z/n, where only degrees up to checked_depth
    were examined (the ring has infinite global dimension); the verdict
    text carries the same qualifier.  table holds the fiber dimensions in
    degrees 0..checked_depth at each checked prime, read off resolution,
    which has depth checked_depth + 1.
    """

    functor: str
    positive_vanishing: bool
    vanishing_with_degree_zero: bool
    flat_confirmed: bool | None
    zero_confirmed: bool | None
    checked_primes: tuple[Prime, ...]
    checked_depth: int
    complete: bool
    table: dict[Prime, list[int]] = field(compare=False, repr=False)
    resolution: Resolution = field(compare=False, repr=False)

    def describe(self) -> str:
        scope = "complete" if self.complete else f"checked to depth {self.checked_depth}"
        if self.vanishing_with_degree_zero:
            return f"{self.functor} vanishing including degree 0 ({scope}): module is zero"
        if self.positive_vanishing:
            return f"{self.functor} vanishing in positive degrees ({scope}): module is flat"
        return f"{self.functor} does not vanish ({scope}): no claim"


def _vanishing_criterion(m: FpModule, depth: int, functor: str) -> FlatnessVerdict:
    if depth < 1:
        raise InputError("criterion depth must be >= 1")
    primes = module_prime_set(m)
    res = free_resolution(m, depth + 1)
    dims = res.tor_dims if functor == "tor" else res.ext_dims
    table = {q: dims(q) for q in primes}
    positive = not any(any(row[1:]) for row in table.values())
    with_zero = positive and not any(row[0] for row in table.values())
    flat_confirmed: bool | None = None
    zero_confirmed: bool | None = None
    if positive:
        if not m.is_flat():
            raise ContradictionError(
                f"{functor} vanishes in positive degrees but the module is not flat")
        flat_confirmed = True
    if with_zero:
        if not m.is_zero():
            raise ContradictionError(
                f"{functor} vanishes in all degrees but the module is nonzero")
        zero_confirmed = True
    complete = m.ring.kind != "Zmod"
    return FlatnessVerdict(functor, positive, with_zero, flat_confirmed,
                           zero_confirmed, tuple(primes), depth, complete, table, res)


def tor_flatness_criterion(m: FpModule, depth: int = 1) -> FlatnessVerdict:
    """Tor_i(kappa(q), M) = 0 for 0 < i <= depth at every relevant prime
    forces flatness; vanishing including i = 0 forces M = 0.

    >>> from fiberflat.rings import ZZ
    >>> tor_flatness_criterion(FpModule.free(ZZ, 2)).flat_confirmed
    True
    """
    return _vanishing_criterion(m, depth, "tor")


def ext_flatness_criterion(m: FpModule, depth: int = 1) -> FlatnessVerdict:
    """Same decision through Ext^i(M, kappa(q)), computed independently."""
    return _vanishing_criterion(m, depth, "ext")


def certify_projective_corollary(cx: BoundedComplex) -> HomotopyCertificate:
    """For a free-term complex that is exact on every fiber, produce an
    explicit null homotopy.  The certificate must exist; failure to find
    one is fatal, not a negative answer.
    """
    if not cx.is_free():
        raise InputError("certification needs free terms")
    primes = complex_prime_set(cx)
    for q in primes:
        if not cx.is_fiber_exact(q):
            raise InputError(f"fiber at {q.literal()} is not exact; hypothesis fails")
    cert = null_homotopy(cx)
    if cert is None:
        raise ContradictionError("fiberwise exact but no homotopy found")
    return cert
