"""Towers (directed systems) of complexes, with honest stabilization
detection.

A tower is given by pure stage/transition rules.  TowerComplex, the one
tower class, evaluates each rule once per index, checks each stage's ring
and builds each transition between its own stages n and n + 1; a module
tower (TowerModule) is the tower of one-term complexes in degree 0.
Towers do no linear algebra: every report reads the fiber dimension of H_i
of a list of complexes and the fiber rank on it of the chain maps between
them (tower_fiber in degree 0, tower_complex_homology_fiber in its degree,
tower_tor in degree i of the stages' resolutions and the lifted
transitions), off the module's elementary divisors (FpModule.fiber_dim,
ModuleMap.fiber_rank) where both are concentrated in degree i and by
Gaussian ranks otherwise.  One rule decides every report, and it never
extrapolates: a quantity counts as stabilized only after `window`
consecutive induced isomorphisms (the colimit then equals the value at the
start of the run) or `window` consecutive induced zero maps (the colimit
is 0: every class dies further up the tower).  Anything else is reported
as undetermined at the evaluated bound.

The galleries build three concrete towers with known colimit behavior
and compare the computed reports against the expected values: a strictly
increasing union of rank-1 subgroups of the rationals, the colimit of
Z/p^n under multiplication by p over Z_(p), and a rank-1 complex tower
whose colimit homology is the fraction field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, takewhile
from typing import Callable, Mapping

from .complexes import DEFAULT_MAX_STAGE, DEFAULT_WINDOW, BoundedComplex, ChainMap
from .errors import InputError
from .linalg import Matrix
from .modules import FpModule, free_resolution, lift_along
from .rings import GENERIC, BaseRing, Prime, ZZ, is_prime, localized_at


class TowerComplex:
    """A directed system C_0 -> C_1 -> ... of bounded complexes.  stage(n)
    rejects n < 0, checks the stage's ring and evaluates the rule once;
    transition(n) builds transition_rule(n), the matrix of each degree's
    component, once into a ChainMap between stages n and n + 1, and checks
    it against strictly_increasing (see TowerModule)."""

    strictly_increasing = False

    def __init__(self, ring: BaseRing,
                 stage_rule: Callable[[int], BoundedComplex],
                 transition_rule: Callable[[int], Mapping[int, Matrix]]):
        self.ring = ring
        self._stage_rule = stage_rule
        self._transition_rule = transition_rule
        self._stages: dict[int, BoundedComplex] = {}
        self._transitions: dict[int, ChainMap] = {}

    def stage(self, n: int) -> BoundedComplex:
        if n < 0:
            raise InputError("stage index must be >= 0")
        if n not in self._stages:
            s = self._stage_rule(n)
            if s.ring != self.ring:
                raise InputError(f"stage {n} lives over {s.ring}, tower over {self.ring}")
            self._stages[n] = s
        return self._stages[n]

    def transition(self, n: int) -> ChainMap:
        if n not in self._transitions:
            f = ChainMap(self.stage(n), self.stage(n + 1), self._transition_rule(n))
            if self.strictly_increasing:
                if not f.at(0).is_injective():
                    raise InputError(f"declared injective, but transition {n} is not")
                if f.at(0).is_surjective():
                    raise InputError(f"declared non-surjective, but transition {n} is onto")
            self._transitions[n] = f
        return self._transitions[n]


def TowerModule(ring: BaseRing, stage_rule: Callable[[int], FpModule],
                transition_rule: Callable[[int], Matrix],
                strictly_increasing: bool = False) -> TowerComplex:
    """A directed system M_0 -> M_1 -> ... of finitely presented modules:
    the tower of one-term complexes M_n, transition_rule(n) in degree 0.
    strictly_increasing declares every transition injective and not
    surjective; a violation found on evaluation is an input error (the
    claim is about all stages, checkable only stage by stage)."""
    t = TowerComplex(ring, lambda n: BoundedComplex.single(stage_rule(n)),
                     lambda n: {0: transition_rule(n)})
    t.strictly_increasing = strictly_increasing
    return t


@dataclass(frozen=True)
class StabilizationReport:
    """Per-stage values of one quantity along a tower, with the induced
    maps classified and a terminal status.

    status is "stabilized" (value, at_stage set) or "undetermined"
    (bound records how far the tower was evaluated).
    """

    quantity: str
    values: tuple[int, ...]
    transition_kinds: tuple[str, ...]
    status: str
    value: int | None
    at_stage: int | None
    bound: int
    window: int

    @property
    def stabilized(self) -> bool:
        return self.status == "stabilized"


def _require_bounds(max_stage: int, window: int) -> None:
    # A run of zero isomorphisms would "stabilize" at whatever came last,
    # and a report needs at least stage 0.
    if window < 1:
        raise InputError(f"window must be >= 1, got {window}")
    if max_stage < 0:
        raise InputError(f"max_stage must be >= 0, got {max_stage}")


def _evaluate(t: TowerComplex, q: Prime, max_stage: int,
              window: int) -> tuple[list[BoundedComplex], list[ChainMap]]:
    """Stages 0..max_stage of t and the transitions between them, q checked."""
    _require_bounds(max_stage, window)
    t.ring.residue_field(q)
    return [t.stage(n) for n in range(max_stage + 1)], [t.transition(n) for n in range(max_stage)]


def _report(quantity: str, q: Prime, degree: int, stages: list[BoundedComplex],
            maps: list[ChainMap], window: int) -> StabilizationReport:
    """The one report: values[n] is the fiber dimension of H_degree of
    stages[n] and ranks[n] the fiber rank of maps[n] on it.  Transition n is
    an isomorphism when ranks[n] == values[n] == values[n + 1], else zero
    when ranks[n] == 0.  A trailing run of at least `window` isomorphisms
    stabilizes at the value where the run starts; failing that, such a run
    of zero maps stabilizes at 0.  Anything else is undetermined at the
    evaluated bound."""
    values = [cx.fiber_homology_dim(q, degree) for cx in stages]
    ranks = [f.fiber_rank(q, degree) for f in maps]
    kinds = ["iso" if r == values[n] == values[n + 1] else "zero" if r == 0 else "other"
             for n, r in enumerate(ranks)]
    for kind in ("iso", "zero"):
        at = len(kinds)
        while at > 0 and kinds[at - 1] == kind:
            at -= 1
        if len(kinds) - at >= window:
            return StabilizationReport(quantity, tuple(values), tuple(kinds), "stabilized",
                                       values[at] if kind == "iso" else 0, at, len(kinds), window)
    return StabilizationReport(quantity, tuple(values), tuple(kinds),
                               "undetermined", None, None, len(kinds), window)


def tower_fiber(t: TowerComplex, q: Prime, max_stage: int = DEFAULT_MAX_STAGE,
                window: int = DEFAULT_WINDOW) -> StabilizationReport:
    """Dimensions of kappa(q) tensor stage_n of a module tower with
    induced-map tracking: the report in degree 0.

    A stabilized report gives the fiber dimension of the colimit: base
    change commutes with directed colimits, and an eventually constant
    (resp. eventually vanishing) system has the evident colimit.
    """
    return _report(f"fiber dimension at ({q.literal()})", q, 0,
                   *_evaluate(t, q, max_stage, window), window)


def tower_tor(t: TowerComplex, q: Prime, i: int,
              max_stage: int = DEFAULT_MAX_STAGE,
              window: int = DEFAULT_WINDOW) -> StabilizationReport:
    """Tor_i(kappa(q), stage_n) dimensions along a module tower: the report
    in degree i over the stages' free resolutions.

    Each stage is resolved once, and each transition is lifted to a chain
    map between the resolutions of its ends, whose fiber rank in degree i
    is the induced map on Tor_i.  Tor commutes with directed colimits, so a
    stabilized value is the Tor of the colimit.
    """
    if i < 0:
        raise InputError("Tor degree must be >= 0")
    stages, maps = _evaluate(t, q, max_stage, window)
    res = [free_resolution(cx.term(0), i + 1) for cx in stages]
    lifts = [ChainMap(src.complex, tgt.complex, dict(enumerate(lift_along(f.at(0), src, tgt))),
                      commuting=True)
             for f, src, tgt in zip(maps, res, res[1:])]
    return _report(f"Tor_{i} dimension at ({q.literal()})", q, i,
                   [r.complex for r in res], lifts, window)


@dataclass(frozen=True)
class NotFinitelyGeneratedVerdict:
    """Outcome of the strictly-increasing-union argument.

    holds=True means: every checked transition embeds its stage as a
    proper submodule of the next, so the union over the declared tower
    cannot be finitely generated.  definitive marks whether the tower
    was declared strictly increasing at every stage (versus only checked
    up to the bound).
    """

    holds: bool
    definitive: bool
    stages_checked: int
    detail: str


def tower_not_finitely_generated(t: TowerComplex,
                                 max_stage: int = 8) -> NotFinitelyGeneratedVerdict:
    """Sound non-finite-generation verdict for strictly increasing module
    towers, read off each transition in degree 0.

    Evaluating transition(n) re-verifies the declaration, so a lying
    declaration surfaces as InputError here rather than a wrong verdict.
    """
    if max_stage < 1:  # with no transition checked there is no claim
        raise InputError(f"max_stage must be >= 1, got {max_stage}")
    for n in range(max_stage):
        f = t.transition(n).at(0)
        if not f.is_injective() or f.is_surjective():
            return NotFinitelyGeneratedVerdict(
                False, False, n, f"transition {n} is not a proper embedding; no claim")
    if t.strictly_increasing:
        return NotFinitelyGeneratedVerdict(
            True, True, max_stage,
            "strictly increasing union by declaration, verified per evaluated stage")
    return NotFinitelyGeneratedVerdict(
        True, False, max_stage,
        f"strictly increasing through stage {max_stage}; undeclared beyond")


def tower_complex_homology_fiber(tc: TowerComplex, q: Prime, degree: int,
                                 max_stage: int = DEFAULT_MAX_STAGE,
                                 window: int = DEFAULT_WINDOW) -> StabilizationReport:
    """H_degree of the fibered stage complexes along a complex tower: the
    report in the given degree, for any finitely presented terms."""
    return _report(f"H_{degree} fiber dimension at ({q.literal()})", q, degree,
                   *_evaluate(tc, q, max_stage, window), window)


# -- gallery ---------------------------------------------------------------------

@dataclass(frozen=True)
class GalleryRow:
    label: str
    report: StabilizationReport
    expected: int

    @property
    def ok(self) -> bool:
        return self.report.stabilized and self.report.value == self.expected


@dataclass(frozen=True)
class GalleryReport:
    """One prebuilt tower, its reports, and expected-value comparisons."""

    name: str
    ring: BaseRing
    parameters: dict[str, int]
    rows: tuple[GalleryRow, ...]
    notes: tuple[str, ...]
    ok: bool


_PRIMES = [2]  # the primes in order, as far as any caller has asked


def _nth_prime(n: int) -> int:
    """The prime at index n (2 at 0), extending _PRIMES as needed, so each
    number is tested for primality once per process."""
    q = _PRIMES[-1]
    while len(_PRIMES) <= n:
        q += 1
        if is_prime(q):
            _PRIMES.append(q)
    return _PRIMES[n]


def sum_inverse_primes_tower() -> TowerComplex:
    """Rank-1 stages with transition n given by multiplication by the
    (n+1)-th prime; the union is the subgroup of the rationals generated
    by the reciprocals of all primes (strictly increasing, so not
    finitely generated)."""
    return TowerModule(
        ZZ,
        lambda n: FpModule.free(ZZ, 1),
        lambda n: Matrix(ZZ, [[_nth_prime(n)]]),
        strictly_increasing=True,
    )


def injective_hull_tower(p: int) -> TowerComplex:
    """Stages R/p^(n+1) over Z_(p) with transitions multiplication by p;
    the colimit is the p-power torsion group (the injective hull of the
    residue field)."""
    ring = localized_at(p)
    return TowerModule(
        ring,
        lambda n: FpModule.cyclic(ring, Fraction(p) ** (n + 1)),
        lambda n: Matrix(ring, [[p]]),
        strictly_increasing=True,
    )


def dvr_fraction_field_tower(p: int) -> TowerComplex:
    """Single-term rank-1 free complexes over Z_(p), transitions given by
    multiplication by p in degree 0; the colimit complex has the fraction
    field as its only homology."""
    ring = localized_at(p)
    return TowerComplex(
        ring,
        lambda n: BoundedComplex.free_complex(ring, 0, [1], []),
        lambda n: {0: Matrix(ring, [[p]])},
    )


def gallery(name: str, p: int = 2, max_prime: int = 100,
            max_stage: int = DEFAULT_MAX_STAGE,
            window: int = DEFAULT_WINDOW) -> GalleryReport:
    """Build a named example tower, run its reports, and compare against
    the expected closed-form values.

    Names: "sum-inverse-primes" (parameter max_prime),
    "injective-hull" (parameter p), "dvr-fraction-field" (parameter p).
    Requires 1 <= window <= max_stage, and max_prime >= 2 for
    "sum-inverse-primes", so that some finite prime is checked.

    max_stage bounds only "sum-inverse-primes", and from below: its row j
    (the generic point, then the primes in order) evaluates stages
    0..max(max_stage, j + window + 1), so that the run reaches past the
    step of its prime.  The other two galleries evaluate stages
    0..max(6, window + 2) whatever max_stage is.
    """
    _require_bounds(max_stage, window)
    if max_stage < window:
        raise InputError(f"max_stage must be >= window ({window}), got {max_stage}")
    if name == "sum-inverse-primes":
        if max_prime < 2:
            raise InputError(f"max_prime must be >= 2, got {max_prime}")
        t = sum_inverse_primes_tower()
        primes = takewhile(lambda q: q <= max_prime, map(_nth_prime, count()))
        targets = [GENERIC] + [Prime.at(q) for q in primes]
        # the (x p) step of row idx sits at transition idx - 1; make sure
        # the evaluation window reaches past it
        rows = tuple(GalleryRow(f"h_0 at ({q.literal()})",
                                tower_fiber(t, q, max(max_stage, idx + window + 1), window), 1)
                     for idx, q in enumerate(targets))
        nfg = tower_not_finitely_generated(t)
        notes = (f"not finitely generated: {nfg.holds} "
                 f"({'definitive' if nfg.definitive else 'bounded'}; "
                 f"{nfg.stages_checked} stages checked)",)
        ok = all(r.ok for r in rows) and nfg.holds
        return GalleryReport(name, ZZ, {"max_prime": max_prime}, rows, notes, ok)

    if name == "injective-hull":
        t = injective_hull_tower(p)
        maximal = Prime.at(p)
        specs = [("Tor_0 at maximal", maximal, 0, 0),
                 ("Tor_1 at maximal", maximal, 1, 1),
                 ("Tor_0 at (0)", GENERIC, 0, 0),
                 ("Tor_1 at (0)", GENERIC, 1, 0)]
        rows = tuple(GalleryRow(label, tower_tor(t, q, i, max(6, window + 2), window), expected)
                     for label, q, i, expected in specs)
        nfg = tower_not_finitely_generated(t)
        notes = (f"not finitely generated: {nfg.holds}",)
        ok = all(r.ok for r in rows) and nfg.holds
        return GalleryReport(name, t.ring, {"p": p}, rows, notes, ok)

    if name == "dvr-fraction-field":
        tc = dvr_fraction_field_tower(p)
        specs = [("H_0 at maximal", Prime.at(p), 0), ("H_0 at (0)", GENERIC, 1)]
        rows = tuple(GalleryRow(label, tower_complex_homology_fiber(
                         tc, q, 0, max(6, window + 2), window), expected)
                     for label, q, expected in specs)
        notes = ("stage complexes are fiberwise exact at the maximal ideal "
                 "in the colimit, yet the generic homology survives",)
        return GalleryReport(name, tc.ring, {"p": p}, rows, notes, all(r.ok for r in rows))

    raise InputError(f"unknown gallery {name!r}; "
                     "known: sum-inverse-primes, injective-hull, dvr-fraction-field")
