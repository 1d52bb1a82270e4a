"""Directed systems of modules and complexes: stabilization detection,
the non-finite-generation argument, and the prebuilt gallery towers."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from fiberflat import linalg, towers
from fiberflat.complexes import BoundedComplex, koszul_complex, tensor_with_module
from fiberflat.errors import InputError
from fiberflat.linalg import Matrix, hstack
from fiberflat.modules import FpModule, relevant_primes, tor_fiber
from fiberflat.rings import GENERIC, Prime, ZZ, is_prime, localized_at, parse_ring
from fiberflat.towers import (
    TowerComplex,
    TowerModule,
    dvr_fraction_field_tower,
    gallery,
    injective_hull_tower,
    sum_inverse_primes_tower,
    tower_complex_homology_fiber,
    tower_fiber,
    tower_not_finitely_generated,
    tower_tor,
)


def constant_tower(module, matrix_rows):
    ring = module.ring
    return TowerModule(
        ring,
        lambda n: module,
        lambda n: Matrix(ring, matrix_rows))


# -- stabilization bookkeeping ---------------------------------------------------

def test_identity_transitions_stabilize_immediately():
    t = constant_tower(FpModule.cyclic(ZZ, 2), [[1]])
    rep = tower_fiber(t, Prime.at(2), max_stage=6)
    assert rep.stabilized and rep.value == 1 and rep.at_stage == 0
    assert rep.values == (1,) * 7
    assert set(rep.transition_kinds) == {"iso"}


def test_zero_transitions_give_zero_colimit():
    # every class dies one stage up, so the colimit vanishes even though
    # each stage has a one-dimensional fiber
    t = constant_tower(FpModule.cyclic(ZZ, 2), [[0]])
    rep = tower_fiber(t, Prime.at(2), max_stage=6)
    assert rep.stabilized and rep.value == 0
    assert rep.values == (1,) * 7
    assert set(rep.transition_kinds) == {"zero"}


def test_stabilization_reports_the_start_of_the_iso_run():
    def stage(n):
        return FpModule.free(ZZ, 2 if n < 2 else 1)

    def transition(n):
        if n == 0:
            return Matrix(ZZ, [[1, 0], [0, 1]])
        if n == 1:
            return Matrix(ZZ, [[1, 0]])
        return Matrix(ZZ, [[1]])

    t = TowerModule(ZZ, stage, transition)
    rep = tower_fiber(t, GENERIC, max_stage=6)
    assert rep.values == (2, 2, 1, 1, 1, 1, 1)
    assert rep.transition_kinds[1] == "other"
    assert rep.stabilized and rep.at_stage == 2 and rep.value == 1


def test_alternating_tower_is_undetermined():
    def transition(n):
        return Matrix(ZZ, [[2 if n % 2 == 0 else 1]])

    t = TowerModule(ZZ, lambda n: FpModule.free(ZZ, 1), transition)
    rep = tower_fiber(t, Prime.at(2), max_stage=6)
    assert rep.status == "undetermined"
    assert rep.value is None and rep.at_stage is None
    assert rep.bound == 6
    assert rep.transition_kinds == ("zero", "iso") * 3
    # a window of 1 happily accepts the trailing iso; the caller owns that risk
    t2 = TowerModule(ZZ, lambda n: FpModule.free(ZZ, 1), transition)
    assert tower_fiber(t2, Prime.at(2), max_stage=6, window=1).stabilized


def _rank_one_towers(ring, on_stage=lambda n: None):
    """A module tower and a complex tower over Z whose stages are rank-1
    free over `ring`, calling on_stage(n) whenever a stage rule runs."""
    def module_stage(n):
        on_stage(n)
        return FpModule.free(ring, 1)

    def complex_stage(n):
        on_stage(n)
        return BoundedComplex.free_complex(ring, 0, [1], [])

    return [TowerModule(ZZ, module_stage, lambda n: Matrix(ring, [[1]])),
            TowerComplex(ZZ, complex_stage, lambda n: {0: Matrix(ring, [[1]])})]


def test_stage_rules_are_memoized():
    calls = []
    for t in _rank_one_towers(ZZ, calls.append):
        calls.clear()
        t.stage(3)
        t.stage(3)
        f = t.transition(3)
        assert t.transition(3) is f
        assert calls == [3, 4]
        with pytest.raises(InputError, match="stage index"):
            t.stage(-1)


def test_declared_flags_are_verified_per_stage():
    lying = TowerModule(
        ZZ, lambda n: FpModule.free(ZZ, 1),
        lambda n: Matrix(ZZ, [[0]]),
        strictly_increasing=True)
    with pytest.raises(InputError, match="declared injective, but transition 0 is not"):
        lying.transition(0)

    onto = TowerModule(
        ZZ, lambda n: FpModule.free(ZZ, 1),
        lambda n: Matrix(ZZ, [[1]]),
        strictly_increasing=True)
    with pytest.raises(InputError, match="declared non-surjective, but transition 0 is onto"):
        tower_fiber(onto, GENERIC, max_stage=4)


def test_mismatched_stages_are_rejected():
    for wrong_ring in _rank_one_towers(localized_at(2)):
        with pytest.raises(InputError, match="stage 0 lives over"):
            wrong_ring.stage(0)
        with pytest.raises(InputError, match="stage 0 lives over"):
            wrong_ring.transition(0)

    # the tower builds each transition between its own stages, so a matrix
    # of the wrong shape, or one that is not a map of the stages, is refused
    wrong_shape = TowerModule(
        ZZ, lambda n: FpModule.free(ZZ, 1), lambda n: Matrix(ZZ, [[1, 0], [0, 1]]))
    with pytest.raises(InputError, match="must be 1x1"):
        wrong_shape.transition(0)
    not_a_map = TowerModule(
        ZZ, lambda n: FpModule.cyclic(ZZ, 2) if n == 0 else FpModule.free(ZZ, 1),
        lambda n: Matrix(ZZ, [[1]]))
    with pytest.raises(InputError, match="does not carry"):
        not_a_map.transition(0)
    wrong_component = TowerComplex(
        ZZ, lambda n: BoundedComplex.free_complex(ZZ, 0, [1], []),
        lambda n: {0: Matrix(ZZ, [[1, 1]])})
    with pytest.raises(InputError, match="must be 1x1"):
        wrong_component.transition(0)


# -- the reciprocal-primes tower ---------------------------------------------------

def test_reciprocal_primes_tower_fibers():
    t = sum_inverse_primes_tower()
    at3 = tower_fiber(t, Prime.at(3), max_stage=8)
    assert at3.values == (1,) * 9
    # transition 1 multiplies by 3, which is the only step killing the fiber
    assert at3.transition_kinds.count("zero") == 1
    assert at3.transition_kinds[1] == "zero"
    assert at3.stabilized and at3.value == 1

    at0 = tower_fiber(t, GENERIC, max_stage=8)
    assert at0.stabilized and at0.value == 1 and at0.at_stage == 0
    assert set(at0.transition_kinds) == {"iso"}


def test_reciprocal_primes_tower_one_zero_step_per_prime():
    t = sum_inverse_primes_tower()
    primes = [p for p in range(2, 101) if is_prime(p)]
    for idx, p in enumerate(primes):
        need = idx + 4
        rep = tower_fiber(t, Prime.at(p), max_stage=need)
        assert rep.transition_kinds.count("zero") == 1
        assert rep.transition_kinds.count("iso") == len(rep.transition_kinds) - 1
        assert rep.transition_kinds[idx] == "zero"
        assert rep.stabilized and rep.value == 1


def test_reciprocal_primes_transitions_test_each_number_once(monkeypatch):
    # transitions 0..59 multiply by the primes up to p_59 = 281: every
    # number up to 281 is tested for primality at most once in all
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(towers, "is_prime", counted)
    t = sum_inverse_primes_tower()
    assert [t.transition(n).at(0).matrix[0, 0] for n in range(60)][-3:] == [271, 277, 281]
    assert len(calls) == len(set(calls)) and all(n <= 281 for n in calls)


def test_reciprocal_primes_tower_not_finitely_generated():
    v = tower_not_finitely_generated(sum_inverse_primes_tower())
    assert v.holds and v.definitive
    assert v.stages_checked == 8


def test_non_fg_verdict_needs_proper_embeddings():
    const = constant_tower(FpModule.free(ZZ, 1), [[1]])
    v = tower_not_finitely_generated(const)
    assert not v.holds and not v.definitive
    assert "transition 0" in v.detail

    undeclared = TowerModule(
        ZZ, lambda n: FpModule.free(ZZ, 1),
        lambda n: Matrix(ZZ, [[2]]))
    v = tower_not_finitely_generated(undeclared, max_stage=5)
    assert v.holds and not v.definitive
    assert "stage 5" in v.detail


def test_non_fg_verdict_needs_a_checked_transition():
    """With no transition evaluated there is nothing to claim: the identity
    tower Z -> Z -> ... is finitely generated, and max_stage < 1 is refused
    rather than answered with holds=True."""
    identity = TowerModule(ZZ, lambda n: FpModule.free(ZZ, 1), lambda n: Matrix(ZZ, [[1]]))
    for max_stage in (0, -1, -5):
        with pytest.raises(InputError, match="max_stage must be >= 1"):
            tower_not_finitely_generated(identity, max_stage=max_stage)
    v = tower_not_finitely_generated(identity, max_stage=1)
    assert not v.holds and v.stages_checked == 0
    assert tower_not_finitely_generated(sum_inverse_primes_tower(), max_stage=1).stages_checked == 1


# -- the p-power torsion tower ---------------------------------------------------

def test_injective_hull_tower_tor_profile():
    t = injective_hull_tower(2)
    maximal = Prime.at(2)

    tor0 = tower_tor(t, maximal, 0, max_stage=6)
    assert tor0.values == (1,) * 7
    assert set(tor0.transition_kinds) == {"zero"}
    assert tor0.stabilized and tor0.value == 0

    tor1 = tower_tor(t, maximal, 1, max_stage=6)
    assert tor1.values == (1,) * 7
    assert set(tor1.transition_kinds) == {"iso"}
    assert tor1.stabilized and tor1.value == 1 and tor1.at_stage == 0

    for i in (0, 1):
        generic = tower_tor(t, GENERIC, i, max_stage=6)
        assert generic.stabilized and generic.value == 0
        assert generic.values == (0,) * 7


def test_tower_tor_resolves_each_stage_once(resolution_calls):
    """Interior stages are resolved once, not once as a transition's target
    and again as the next one's source; the kernel route of each stage
    value agrees with the divisor route of tor_fiber."""
    t = injective_hull_tower(2)
    for i, q in [(0, Prime.at(2)), (1, Prime.at(2)), (1, GENERIC)]:
        resolution_calls.clear()
        rep = tower_tor(t, q, i, max_stage=6)
        assert resolution_calls == [i + 1] * 7
        assert list(rep.values) == [tor_fiber(t.stage(n).term(0), q, i, i + 1) for n in range(7)]


def test_injective_hull_stage_values_match_closed_form():
    # Tor_i(F_2, Z/2^n) is one-dimensional for i in {0, 1}: check each
    # stage against a hand-rolled resolution computation
    ring = localized_at(2)
    for n in range(5):
        m = FpModule.cyclic(ring, Fraction(2) ** (n + 1))
        assert tor_fiber(m, Prime.at(2), 0, 2) == 1
        assert tor_fiber(m, Prime.at(2), 1, 2) == 1


def test_injective_hull_tower_is_strictly_increasing():
    v = tower_not_finitely_generated(injective_hull_tower(3))
    assert v.holds and v.definitive


def test_tower_tor_validation():
    t = injective_hull_tower(2)
    with pytest.raises(InputError):
        tower_tor(t, Prime.at(2), -1)
    # max_stage 0 evaluates a single stage: no transitions, so no verdict
    rep = tower_tor(t, Prime.at(2), 1, max_stage=0)
    assert rep.status == "undetermined" and rep.values == (1,)


def test_every_tower_report_refuses_a_negative_max_stage():
    # every report needs stage 0: a negative bound is refused, and
    # max_stage 0 gives one stage and no transition
    t, tc = injective_hull_tower(2), dvr_fraction_field_tower(3)
    reports = {
        "fiber": lambda s: tower_fiber(t, Prime.at(2), max_stage=s),
        "tor": lambda s: tower_tor(t, Prime.at(2), 1, max_stage=s),
        "complex": lambda s: tower_complex_homology_fiber(tc, Prime.at(3), 0, max_stage=s),
    }
    for name, report in reports.items():
        for max_stage in (-1, -5):
            with pytest.raises(InputError, match="max_stage must be >= 0"):
                report(max_stage)
        rep = report(0)
        assert len(rep.values) == 1 and rep.bound == 0, name
        assert rep.status == "undetermined", name


def test_tower_tor_free_constant_tower():
    t = constant_tower(FpModule.free(ZZ, 1), [[1]])
    rep = tower_tor(t, Prime.at(5), 1, max_stage=4)
    assert rep.stabilized and rep.value == 0


# -- complex towers ---------------------------------------------------------------

def test_dvr_tower_homology():
    tc = dvr_fraction_field_tower(3)
    at_max = tower_complex_homology_fiber(tc, Prime.at(3), 0, max_stage=6)
    assert at_max.values == (1,) * 7
    assert set(at_max.transition_kinds) == {"zero"}
    assert at_max.stabilized and at_max.value == 0

    at_gen = tower_complex_homology_fiber(tc, GENERIC, 0, max_stage=6)
    assert at_gen.stabilized and at_gen.value == 1
    assert set(at_gen.transition_kinds) == {"iso"}


def test_constant_exact_complex_tower_vanishes_everywhere():
    ring = ZZ
    cx = BoundedComplex.free_complex(ring, 0, [1, 1], [Matrix(ring, [[1]])])

    tc = TowerComplex(
        ring,
        lambda n: cx,
        lambda n: {0: Matrix(ring, [[1]]), 1: Matrix(ring, [[1]])})
    for q in (GENERIC, Prime.at(2)):
        for degree in (0, 1):
            rep = tower_complex_homology_fiber(tc, q, degree, max_stage=5)
            assert rep.stabilized and rep.value == 0
            assert rep.values == (0,) * 6


def test_complex_tower_with_module_terms_gets_a_report():
    # Z/4 is not free; kappa(2) (x) Z/4 = F_2 and Q (x) Z/4 = 0.  Over F_2
    # the transitions 1 and 3 are isomorphisms and 2 is zero, and the
    # boundary 2 of Z/4 --2--> Z/4 vanishes, so H_0 = H_1 = F_2 there.
    z4 = FpModule.cyclic(ZZ, 4)
    single = BoundedComplex.single(z4)
    pair = BoundedComplex(ZZ, 0, 1, {0: z4, 1: z4}, {1: Matrix(ZZ, [[2]])})
    cases = [(single, (0,), 1, "iso", 1), (single, (0,), 2, "zero", 0),
             (pair, (0, 1), 3, "iso", 1), (pair, (0, 1), 2, "zero", 0)]
    for cx, degrees, t, kind, value in cases:
        tc = TowerComplex(ZZ, lambda n, cx=cx: cx,
                          lambda n, t=t, degrees=degrees: {i: Matrix(ZZ, [[t]]) for i in degrees})
        for degree in degrees:
            rep = tower_complex_homology_fiber(tc, Prime.at(2), degree, max_stage=3)
            assert rep.values == (1, 1, 1, 1)
            assert rep.transition_kinds == (kind,) * 3
            assert rep.stabilized and rep.value == value
            rep = tower_complex_homology_fiber(tc, GENERIC, degree, max_stage=3)
            assert rep.values == (0, 0, 0, 0)
            assert rep.stabilized and rep.value == 0


# -- pinned reports ----------------------------------------------------------------

PIN_SCALARS = {"Z": [0, 1, -1, 2, 3, 6], "Zloc/3": [0, 1, 3, Fraction(1, 2), Fraction(9, 2)],
               "Z/12": [0, 1, 2, 3, 4, 6]}
PIN_STAGES = 5


def _pinned_towers(lit):
    """Seeded module towers (stage coker A, transition n the map
    c_n I + A Y_n) and complex towers (transition n the map c_n id in
    every degree, on free and on non-free terms) over the ring `lit`, and
    the points of the ring's prime set for all of their matrices."""
    ring = parse_ring(lit)
    rng = random.Random(f"tower-pin:{lit}")
    scalars = PIN_SCALARS[lit]
    seen = []

    def matrix(m, n):
        seen.append(Matrix(ring, [[rng.choice(scalars) for _ in range(n)] for _ in range(m)],
                           cols=n))
        return seen[-1]

    def scaled(g):
        c = rng.choice(scalars)
        seen.append(Matrix.diagonal(ring, [c] * g))
        return seen[-1]

    modules = []
    for _ in range(3):
        g = rng.randint(1, 3)
        m = FpModule(ring, g, matrix(g, rng.randint(1, 2)))
        maps = [scaled(g) + m.relations @ matrix(m.relations.cols, g) for _ in range(PIN_STAGES)]
        modules.append(TowerModule(ring, lambda n, m=m: m, maps.__getitem__))
    free = FpModule.free(ring, 2)
    maps = [matrix(2, 2) for _ in range(PIN_STAGES)]
    modules.append(TowerModule(ring, lambda n: free, maps.__getitem__))
    if ring != parse_ring("Z/12"):  # a proper self-embedding of R: x -> c x, c no unit
        steps = [x for x in scalars if x and not ring.is_unit(x)]
        maps = [Matrix(ring, [[rng.choice(steps)]]) for _ in range(PIN_STAGES)]
        seen.extend(maps)
        modules.append(TowerModule(ring, lambda n: FpModule.free(ring, 1), maps.__getitem__,
                                   strictly_increasing=True))

    d, b = matrix(2, 3), matrix(3, 1)
    complexes = [
        koszul_complex(ring, [rng.choice(scalars) for _ in range(2)]),
        BoundedComplex.free_complex(ring, -1, [2, 3], [matrix(2, 3)]),
        BoundedComplex(ring, 0, 1, {0: FpModule(ring, 2, hstack([d @ b, matrix(2, 1)])),
                                    1: FpModule(ring, 3, b)}, {1: d}),
        tensor_with_module(FpModule.cyclic(ring, rng.choice(scalars[2:])),
                           koszul_complex(ring, [rng.choice(scalars) for _ in range(2)])),
    ]
    chains = []
    for cx in complexes:
        seen.extend(cx.boundary(i).matrix for i in cx.degrees())
        seen.extend(cx.term(i).relations for i in cx.degrees())
        maps = [{i: Matrix.diagonal(ring, [c] * cx.term(i).gens) for i in cx.degrees()}
                for c in (rng.choice(scalars) for _ in range(PIN_STAGES))]
        seen.extend(f for comps in maps for f in comps.values())
        chains.append(TowerComplex(ring, lambda n, cx=cx: cx, maps.__getitem__))
    points = relevant_primes(ring, seen)
    if ring == ZZ:
        points = list(dict.fromkeys(points + [Prime.at(5)]))
    return modules, chains, points


def _report_fields(rep):
    return [rep.quantity, list(rep.values), list(rep.transition_kinds), rep.status,
            rep.value, rep.at_stage, rep.bound, rep.window]


def test_tower_reports_match_their_pinned_digest():
    """Every report of seeded module and complex towers over Z, Zloc/3 and
    Z/12, at every point of the ring's prime set, digested: a refactor of
    the towers keeps each value, transition kind and verdict."""
    record = []
    for lit in sorted(PIN_SCALARS):
        modules, chains, points = _pinned_towers(lit)
        record.append([lit, [q.literal() for q in points]])
        for t in modules:
            for q in points:
                record.append(_report_fields(tower_fiber(t, q, PIN_STAGES - 1, 2)))
                for i in (0, 1, 2):
                    record.append(_report_fields(tower_tor(t, q, i, PIN_STAGES - 1, 2)))
            v = tower_not_finitely_generated(t, PIN_STAGES - 1)
            record.append([v.holds, v.definitive, v.stages_checked, v.detail])
        for tc in chains:
            cx = tc.stage(0)
            for q in points:
                for i in range(cx.lo - 1, cx.hi + 2):
                    record.append(_report_fields(
                        tower_complex_homology_fiber(tc, q, i, PIN_STAGES - 1, 2)))
    digest = hashlib.sha256(json.dumps(record, default=str).encode()).hexdigest()
    assert len(record) > 350
    assert digest == "ff93b1c8ddbada4ae768f0d6b02e2419c933e3d259faad7566134c67a7a8fcf8", digest


# -- gallery ---------------------------------------------------------------------

def _assert_rows_derive_ok(rep):
    for row in rep.rows:
        assert row.ok == (row.report.stabilized and row.report.value == row.expected)


def test_gallery_sum_inverse_primes():
    rep = gallery("sum-inverse-primes", max_prime=20)
    assert rep.ok
    assert rep.parameters == {"max_prime": 20}
    # generic point plus the eight primes up to 20
    assert len(rep.rows) == 9
    assert all(row.ok and row.expected == 1 for row in rep.rows)
    _assert_rows_derive_ok(rep)
    assert rep.rows[0].label == "h_0 at (0)"
    assert any("not finitely generated: True" in note for note in rep.notes)


def test_gallery_injective_hull():
    rep = gallery("injective-hull", p=3)
    assert rep.ok and rep.parameters == {"p": 3}
    expected = {row.label: row.expected for row in rep.rows}
    assert expected == {"Tor_0 at maximal": 0, "Tor_1 at maximal": 1,
                        "Tor_0 at (0)": 0, "Tor_1 at (0)": 0}
    assert all(row.ok for row in rep.rows)
    _assert_rows_derive_ok(rep)


def test_gallery_dvr_fraction_field():
    rep = gallery("dvr-fraction-field", p=5)
    assert rep.ok
    expected = {row.label: row.expected for row in rep.rows}
    assert expected == {"H_0 at maximal": 0, "H_0 at (0)": 1}
    _assert_rows_derive_ok(rep)


def test_gallery_rejects_bounds_that_prove_nothing():
    with pytest.raises(InputError, match="window"):
        gallery("dvr-fraction-field", window=0)
    with pytest.raises(InputError, match="max_stage"):
        gallery("dvr-fraction-field", max_stage=-3)
    with pytest.raises(InputError, match="max_stage"):
        gallery("sum-inverse-primes", max_stage=2, window=3)
    with pytest.raises(InputError, match="max_prime"):
        gallery("sum-inverse-primes", max_prime=-5)
    assert gallery("dvr-fraction-field", max_stage=3, window=3).ok


def test_tower_reports_reject_empty_window():
    with pytest.raises(InputError, match="window"):
        tower_complex_homology_fiber(dvr_fraction_field_tower(3), Prime.at(3), 0,
                                     max_stage=6, window=0)
    with pytest.raises(InputError, match="window"):
        tower_tor(injective_hull_tower(2), Prime.at(2), 0, window=0)
    with pytest.raises(InputError, match="window"):
        tower_fiber(sum_inverse_primes_tower(), GENERIC, window=-1)


@pytest.mark.parametrize("name, kernels, fresh", [
    ("sum-inverse-primes", 425, 851),
    ("injective-hull", 2581, 2581),
    ("dvr-fraction-field", 0, None),
])
def test_gallery_work_at_the_caps_is_bounded(monkeypatch, name, kernels, fresh):
    """Each gallery at the CLI caps runs the move-recording SNF kernel at
    most the pinned number of times, and the two module galleries make at
    most the pinned number of fresh SNFs."""
    counts = {"kernel": 0, "fresh": 0}
    kernel, decomposition = linalg._kernel, linalg.SnfDecomposition

    def counted_kernel(*args):
        counts["kernel"] += 1
        return kernel(*args)

    def counted_decomposition(*args):
        counts["fresh"] += 1
        return decomposition(*args)

    monkeypatch.setattr(linalg, "_kernel", counted_kernel)
    monkeypatch.setattr(linalg, "SnfDecomposition", counted_decomposition)
    assert gallery(name, max_prime=1000, max_stage=256, window=256).ok
    assert counts["kernel"] <= kernels, counts
    if fresh is not None:
        assert counts["fresh"] <= fresh, counts


def test_gallery_unknown_name():
    with pytest.raises(InputError):
        gallery("mystery-tower")
