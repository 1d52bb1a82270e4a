"""Verdict-level checks: the acyclicity criterion, universal exactness,
bad-prime enumeration, and the corollary checkers."""

import random

import pytest

from fiberflat.cli import load_document
from fiberflat.complexes import (
    BoundedComplex,
    koszul_complex,
    null_homotopy,
    tensor_with_module,
    total_tensor,
)
from fiberflat.criteria import (
    bad_primes,
    certify_projective_corollary,
    check_isom_criterion,
    check_main_theorem,
    check_zero_criterion,
    complex_prime_set,
    ext_flatness_criterion,
    is_universally_exact,
    standard_module_family,
    tor_flatness_criterion,
)
from fiberflat.errors import ContradictionError, InputError
from fiberflat.generate import random_complex
from fiberflat.linalg import Matrix, rank_over_fiber
from fiberflat import linalg, modules, rings
from fiberflat.modules import FpModule, ModuleMap, purity_report
from fiberflat.rings import (
    GENERIC, Prime, ZZ, QQ, integers_mod, is_prime, localized_at, prime_field,
)

from _oracles import pullback_homology
from test_cli import _contractible_twisted_z_doc

Z12 = integers_mod(12)


def two_term(ring, rows, ranks):
    return BoundedComplex.free_complex(
        ring, 0, ranks, [Matrix(ring, rows, cols=ranks[1])])


def times(ring, s):
    return two_term(ring, [[s]], [1, 1])


def sampled_by_total_tensor(cx, checked_primes):
    """Route 3 of universal exactness by total tensors, the reference for
    is_universally_exact: G tensor C stays exact for G = R[0] and each
    [R --s--> R], with s = 2, 3 and the checked primes over Z, p over
    Z_(p), each prime of n over Z/n, and no s over a field."""
    ring = cx.ring
    if ring.kind == "Z":
        scalars = sorted({2, 3} | {q.p for q in checked_primes if q.p})
    elif ring.kind == "Zloc":
        scalars = [ring.param]
    elif ring.kind == "Zmod":
        scalars = [q.p for q in ring.spectrum()]
    else:
        scalars = []
    family = [BoundedComplex.free_complex(ring, 0, [1], [])]
    family += [times(ring, s) for s in scalars]
    return all(total_tensor(g, cx).is_exact() for g in family)


# The three-term exact complex R -> R^2 -> R with boundaries [1,-1]^T and
# [1,1]; every homology group vanishes and both boundary images are free.
def exact_three_term(ring=ZZ):
    return BoundedComplex.free_complex(
        ring, 0, [1, 2, 1],
        [Matrix(ring, [[1, 1]]), Matrix(ring, [[1], [-1]])])


# -- the acyclicity criterion --------------------------------------------------

def test_main_theorem_split_injection():
    cx = BoundedComplex.free_complex(ZZ, 0, [2, 1], [Matrix(ZZ, [[1], [-1]])])
    rep = check_main_theorem(cx)
    assert rep.hypothesis_holds
    assert rep.verdict == "consistent" and rep.consistent
    assert rep.conclusion_acyclic
    assert rep.conclusion_h0_flat
    assert rep.tensor_family_acyclic
    # H_0 = Z^2 / (1,-1) is free of rank one
    assert rep.h0.invariant_factors().free_rank == 1
    assert rep.h0.invariant_factors().torsion == ()
    assert rep.checked_primes[0] == GENERIC


def test_main_theorem_multiplication_by_two():
    rep = check_main_theorem(times(ZZ, 2))
    assert not rep.hypothesis_holds
    # hypothesis failure is not a violation; the report simply records it
    assert rep.verdict == "consistent"
    assert rep.fiber_dims[Prime.at(2)] == {0: 1, 1: 1}
    assert rep.fiber_dims[GENERIC] == {0: 0, 1: 0}
    assert not rep.conclusion_h0_flat


def test_main_theorem_zero_complex():
    rep = check_main_theorem(BoundedComplex.free_complex(ZZ, 0, [0], []))
    assert rep.hypothesis_holds
    assert rep.verdict == "consistent"
    assert rep.h0.is_zero()
    assert rep.conclusion_h0_flat


def test_main_theorem_rejects_bad_input():
    from fiberflat.complexes import shift
    cx = times(ZZ, 2)
    with pytest.raises(InputError):
        check_main_theorem(shift(cx, -1))  # now lives in degrees [-1, 0]
    with pytest.raises(InputError):
        check_main_theorem(BoundedComplex.single(FpModule.cyclic(ZZ, 4)))


def test_main_theorem_never_violated_on_generated_instances():
    rng = random.Random(20260814)
    for k in range(60):
        pop = ("hypothesis-true", "hypothesis-false", "contractible")[k % 3]
        spec = random_complex(rng, max_len=4, max_rank=4, entry_bound=6,
                              population=pop)
        rep = check_main_theorem(spec.complex)
        assert rep.verdict == "consistent"
        if spec.hypothesis_true_by_construction:
            assert rep.hypothesis_holds
        else:
            assert not rep.hypothesis_holds


def test_main_theorem_monotone_in_tensor_family():
    # if the criterion accepts C it must keep accepting M (x) C
    rng = random.Random(7)
    specs = [random_complex(rng, max_len=4, max_rank=3, entry_bound=5)
             for _ in range(6)]
    for spec in specs:
        assert check_main_theorem(spec.complex).hypothesis_holds
        for m in standard_module_family(ZZ, [GENERIC]):
            mc = tensor_with_module(m, spec.complex)
            assert all(mc.homology(i).is_zero()
                       for i in mc.degrees() if i > 0)


# -- universal exactness -------------------------------------------------------

def test_universal_exactness_identity():
    rep = is_universally_exact(two_term(ZZ, [[1]], [1, 1]))
    assert rep.verdict
    assert rep.direct and rep.fiberwise and rep.tensor_sampled


def test_universal_exactness_times_two():
    rep = is_universally_exact(times(ZZ, 2))
    assert not rep.verdict
    assert not rep.direct and not rep.fiberwise and not rep.tensor_sampled
    assert Prime.at(2) in rep.checked_primes


def test_universal_exactness_three_term():
    assert is_universally_exact(exact_three_term()).verdict


def test_universal_exactness_rejects_nonflat_terms():
    with pytest.raises(InputError):
        is_universally_exact(BoundedComplex.single(FpModule.cyclic(ZZ, 6)))


def test_universal_exactness_matches_construction():
    rng = random.Random(99)
    for k in range(45):
        pop = ("contractible", "hypothesis-true", "hypothesis-false")[k % 3]
        spec = random_complex(rng, max_len=4, max_rank=3, entry_bound=5,
                              population=pop)
        rep = is_universally_exact(spec.complex)  # raises on route disagreement
        assert rep.direct == rep.fiberwise == rep.tensor_sampled
        assert rep.tensor_sampled == sampled_by_total_tensor(spec.complex, rep.checked_primes)
        if spec.contractible_by_construction:
            assert rep.verdict
        elif spec.torsion_scalars or spec.free_rank_degree0 > 0:
            assert not rep.verdict


# Flat cyclic modules that are not free: R/(d) is a factor of R = R/(d) x R/(n/d).
FLAT_NON_FREE = {Z12: (3, 4), integers_mod(360): (8, 9, 5)}


@pytest.mark.parametrize("ring", [Z12, integers_mod(360), localized_at(3), QQ, prime_field(5)],
                         ids=str)
def test_routes_agree_over_every_ring(ring):
    """Universal exactness three ways, route 3 also against total tensors,
    and the main theorem's conclusions against homology presented by two
    pullbacks, on seeded free complexes and on the same complexes with
    non-free flat terms: a free module presented non-freely and, over Z/n,
    flat cyclic modules that are not free."""
    rng = random.Random(f"routes:{ring}")
    flat = FpModule(ring, 2, Matrix(ring, [[1], [2]]))  # a free module, presented non-freely
    flat_terms = [flat] + [FpModule.cyclic(ring, d) for d in FLAT_NON_FREE.get(ring, ())]
    for k in range(18):
        pop = ("contractible", "hypothesis-true", "hypothesis-false")[k % 3]
        spec = random_complex(rng, ring, max_len=4, max_rank=3, entry_bound=5, population=pop)
        for cx in [spec.complex] + [tensor_with_module(m, spec.complex) for m in flat_terms]:
            uni = is_universally_exact(cx)  # raises on route disagreement
            assert uni.direct == uni.fiberwise == uni.tensor_sampled
            assert uni.tensor_sampled == sampled_by_total_tensor(cx, uni.checked_primes)
            if spec.contractible_by_construction:
                assert uni.verdict
            rep = check_main_theorem(cx)
            assert rep.verdict == "consistent"
            assert rep.conclusion_acyclic == all(
                pullback_homology(cx, i).is_zero() for i in cx.degrees() if i > 0)
            assert rep.h0.is_isomorphic_to(pullback_homology(cx, 0))
            family = standard_module_family(ring, rep.checked_primes)
            assert rep.tensor_family_acyclic == all(
                pullback_homology(tensor_with_module(m, cx), i).is_zero()
                for m in family for i in cx.degrees() if i > 0)


def _snf_key(a):
    return a.ring, a.cols, tuple(map(tuple, a.to_rows()))


@pytest.mark.parametrize("ring, ranks, boundaries", [
    (ZZ, [1, 2, 1], [[[2, 3]], [[3], [-2]]]),
    (ZZ, [1, 3, 2], [[[1, 2, 3]], [[-5, -8], [1, 1], [1, 2]]]),
    (integers_mod(360), [1, 3, 2], [[[1, 2, 3]], [[-5, -8], [1, 1], [1, 2]]]),
    (integers_mod(360), [1, 2, 1], [[[7, 10]], [[10], [-7]]]),
], ids=["Z-121", "Z-132", "Z/360-132", "Z/360-121"])
def test_universal_exactness_decomposes_each_boundary_once(monkeypatch, ring, ranks, boundaries):
    """Route 3 reads the free family member as C itself, so it reuses the
    boundaries' cached Smith forms instead of rebuilding C as R[0] tensor C.
    On these exact complexes no other matrix equals a boundary."""
    cx = BoundedComplex.free_complex(
        ring, 0, ranks, [Matrix(ring, rows, cols=len(rows[0])) for rows in boundaries])
    computed = []
    original = linalg._snf_full

    def counted(a):
        if a._snf is None:
            computed.append(_snf_key(a))
        return original(a)

    for namespace in (linalg, modules):
        monkeypatch.setattr(namespace, "_snf_full", counted)
    assert is_universally_exact(cx).verdict
    for i in range(cx.lo + 1, cx.hi + 1):
        assert computed.count(_snf_key(cx.boundary(i).matrix)) == 1


@pytest.mark.parametrize("ring", [ZZ, Z12, localized_at(3)], ids=str)
def test_no_wall_of_a_non_free_complex_is_decomposed_twice(monkeypatch, ring):
    """Both criteria and null_homotopy read each boundary's wall
    [d_j | A_{j-1}] from the one cached matrix, so across all three no
    matrix equal to a wall runs through the SNF kernel twice."""
    computed = []
    original = linalg._snf_full

    def counted(a):
        if a._snf is None:
            computed.append(_snf_key(a))
        return original(a)

    for namespace in (linalg, modules):
        monkeypatch.setattr(namespace, "_snf_full", counted)
    rng = random.Random(f"walls:{ring}")
    twist = FpModule.cyclic(ring, 3) if ring == Z12 else FpModule(ring, 2, Matrix(ring, [[1], [2]]))
    walls = 0
    for k in range(9):
        pop = ("contractible", "hypothesis-true", "hypothesis-false")[k % 3]
        cx = tensor_with_module(twist, random_complex(rng, ring, max_len=4, max_rank=3,
                                                      entry_bound=7, population=pop).complex)
        computed.clear()
        check_main_theorem(cx)
        is_universally_exact(cx)
        null_homotopy(cx)
        for j in range(cx.lo + 1, cx.hi + 1):
            if cx._wall(j).cols:
                walls += 1
                assert computed.count(_snf_key(cx._wall(j))) <= 1, (k, j)
    assert walls >= 20


def _equal_term_builders():
    """Builders of non-free complexes with two equal terms built separately:
    tensor_with_module of seeded complexes with equal ranks in two degrees,
    over Z, Z/12 and Z_(3), and a document parsed by load_document."""
    builders = []
    for ring in (ZZ, Z12, localized_at(3)):
        rng = random.Random(f"equal-terms:{ring}")
        twist = FpModule.cyclic(ring, 3) if ring == Z12 else FpModule(ring, 2, Matrix(ring, [[1], [2]]))
        made = 0
        while made < 6:
            pop = ("contractible", "hypothesis-true", "hypothesis-false")[made % 3]
            cx = random_complex(rng, ring, max_len=4, max_rank=3, entry_bound=7,
                                population=pop).complex
            ranks = [cx.term(i).gens for i in cx.degrees()]
            if len(set(ranks)) < len(ranks):
                builders.append(lambda twist=twist, cx=cx: tensor_with_module(twist, cx))
                made += 1
    doc = _contractible_twisted_z_doc(8)
    return builders + [lambda: load_document(doc, "complex")[1]]


def test_no_matrix_of_a_complex_with_equal_terms_is_decomposed_twice(monkeypatch):
    """BoundedComplex keeps one module per distinct term, so equal terms
    share one relations matrix and its cached SNF: from the complex's
    construction on, through both criteria and null_homotopy, no matrix
    runs through the SNF kernel twice, whether its terms came from
    tensor_with_module or from a document."""
    computed = []
    original = linalg._snf_full

    def counted(a):
        if a._snf is None:
            computed.append(_snf_key(a))
        return original(a)

    for namespace in (linalg, modules):
        monkeypatch.setattr(namespace, "_snf_full", counted)
    for k, build in enumerate(_equal_term_builders()):
        computed.clear()
        cx = build()
        check_main_theorem(cx)
        is_universally_exact(cx)
        null_homotopy(cx)
        rels = [_snf_key(cx.term(i).relations) for i in cx.degrees()]
        assert len(set(rels)) < len(rels) and not cx.is_free(), k
        assert len(computed) == len(set(computed)), k


@pytest.mark.parametrize("ring", [ZZ, Z12, localized_at(3)], ids=str)
def test_universal_exactness_reads_flat_images_off_the_walls(monkeypatch, ring):
    """Route 1 of is_universally_exact presents im d_i = C_i / im d_{i+1} by
    the wall W_{i+1} once C is exact, so it builds no pullback.  H_i is
    memoized, so after C.is_exact() nothing else in the criterion would."""
    rng = random.Random(f"flat-images:{ring}")
    twist = FpModule.cyclic(ring, 3) if ring == Z12 else FpModule(ring, 2, Matrix(ring, [[1], [2]]))
    cases = []
    for _ in range(6):
        cx = random_complex(rng, ring, max_len=4, max_rank=3, entry_bound=7,
                            population="contractible").complex
        cases += [cx, tensor_with_module(twist, cx)]
    pullbacks = []
    original = modules._pullback

    def counted(wall, k):
        pullbacks.append(k)
        return original(wall, k)

    for cx in cases:
        assert cx.is_exact()
        for namespace in ("fiberflat.modules", "fiberflat.complexes"):
            monkeypatch.setattr(f"{namespace}._pullback", counted)
        assert is_universally_exact(cx).direct
        monkeypatch.undo()
    assert pullbacks == []
    assert any(not cx.is_free() for cx in cases)


def test_check_main_theorem_factors_the_modulus_once(monkeypatch):
    """Over Z/n the family's members R/p come from the checked prime set,
    so n is factored once, for the spectrum."""
    z360 = integers_mod(360)
    cx = random_complex(random.Random(360), z360, max_len=4, max_rank=3,
                        entry_bound=9).complex
    calls = []
    original = rings.factor_trial

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(rings, "factor_trial", counted)
    assert check_main_theorem(cx).consistent
    assert calls == [360]


@pytest.mark.parametrize("ring", [ZZ, integers_mod(360), localized_at(3)], ids=str)
def test_free_tensor_family_builds_no_complex_and_no_quotient_snf(monkeypatch, ring):
    """On a free complex every family member is read off C's own divisors:
    neither criterion builds a BoundedComplex or runs an SNF over another
    ring."""
    rng = random.Random(f"no-base-change:{ring}")
    pops = ("contractible", "hypothesis-true", "hypothesis-false") * 2
    complexes = [random_complex(rng, ring, max_len=4, max_rank=3, entry_bound=9,
                                population=pop).complex for pop in pops]
    built, snf_rings = [], set()
    original_init, original_snf = BoundedComplex.__init__, linalg._snf_full

    def counted_init(self, *args, **kwargs):
        built.append(args)
        original_init(self, *args, **kwargs)

    def counted_snf(a):
        if a._snf is None:
            snf_rings.add(a.ring)
        return original_snf(a)

    monkeypatch.setattr(BoundedComplex, "__init__", counted_init)
    for namespace in (linalg, modules):
        monkeypatch.setattr(namespace, "_snf_full", counted_snf)
    verdicts = set()
    for cx in complexes:
        rep = check_main_theorem(cx)
        assert rep.verdict == "consistent"
        verdicts.add(is_universally_exact(cx).verdict)
    assert verdicts == {True, False}
    assert built == []
    assert snf_rings == {ring}


def _tensor_family_oracle(cx, skip):
    """Whether M tensor C is exact away from skip for every M in the family,
    through tensor_with_module and the pullback oracle."""
    return all(pullback_homology(tensor_with_module(m, cx), i).is_zero()
               for m in standard_module_family(cx.ring, complex_prime_set(cx))
               for i in cx.degrees() if i != skip)


def test_non_free_complexes_take_the_wall_rule(monkeypatch):
    """A complex with a term that is not a free presentation is decided as a
    free one is: each torsion member R/(d) of the family by is_exact_mod_at
    on C itself, in every degree, and both criteria agree with M tensor C
    through the pullback oracle."""
    seen = []
    original = BoundedComplex.is_exact_mod_at

    def counted(self, i, d):
        seen.append((self, i, d))
        return original(self, i, d)

    monkeypatch.setattr(BoundedComplex, "is_exact_mod_at", counted)
    free = exact_three_term()
    cases = [tensor_with_module(FpModule(ZZ, 2, Matrix(ZZ, [[1], [2]])), free),
             tensor_with_module(FpModule.cyclic(Z12, 3), exact_three_term(Z12))]
    for cx in cases:
        assert not cx.is_free()
        torsion = {int(d) for m in standard_module_family(cx.ring, complex_prime_set(cx))
                   for d in m.invariant_factors().torsion}
        seen.clear()
        assert check_main_theorem(cx).tensor_family_acyclic == _tensor_family_oracle(cx, 0)
        assert is_universally_exact(cx).tensor_sampled == _tensor_family_oracle(cx, None)
        assert all(c is cx for c, _, _ in seen)
        assert {(i, d) for _, i, d in seen} >= {(i, d) for d in torsion for i in cx.degrees()}


@pytest.mark.parametrize("ring", [Z12, integers_mod(360)], ids=str)
def test_non_free_zmod_complex_builds_no_homology_and_no_complex(monkeypatch, ring):
    """Over Z/n exactness is read off the walls for any terms: is_exact_at
    builds no homology, and neither criterion builds a BoundedComplex; the
    only H_i built is the H_0 that check_main_theorem reports."""
    rng = random.Random(f"non-free:{ring}")
    twists = (3, 4) if ring == Z12 else (8, 9, 5)
    complexes = []
    for pop in ("contractible", "hypothesis-true", "hypothesis-false") * 2:
        base = random_complex(rng, ring, max_len=4, max_rank=3, entry_bound=9,
                              population=pop).complex
        complexes += [tensor_with_module(FpModule.cyclic(ring, t), base) for t in twists]
    assert not any(cx.is_free() for cx in complexes)
    built, homology = [], []
    original_init, original_homology = BoundedComplex.__init__, BoundedComplex.homology

    def counted_init(self, *args, **kwargs):
        built.append(args)
        original_init(self, *args, **kwargs)

    def counted_homology(self, i):
        homology.append(i)
        return original_homology(self, i)

    monkeypatch.setattr(BoundedComplex, "__init__", counted_init)
    monkeypatch.setattr(BoundedComplex, "homology", counted_homology)
    verdicts = set()
    for cx in complexes:
        for i in range(cx.lo - 1, cx.hi + 2):
            assert cx.is_exact_at(i) == pullback_homology(cx, i).is_zero(), i
        assert homology == []
        assert check_main_theorem(cx).consistent
        assert homology == [0]
        homology.clear()
        verdicts.add(is_universally_exact(cx).verdict)
        assert homology == []
    assert verdicts == {True, False}
    assert built == []


# -- bad primes ----------------------------------------------------------------

def test_bad_primes_examples():
    bad = bad_primes(times(ZZ, 2))
    assert [p.literal() for p in bad.primes] == ["2"]
    assert bad.witness == {2: (1,)}

    assert bad_primes(two_term(ZZ, [[1]], [1, 1])).primes == ()
    assert [p.literal() for p in bad_primes(koszul_complex(ZZ, [6])).primes] \
        == ["2", "3"]


def test_bad_primes_over_localization():
    z2 = localized_at(2)
    assert [p.literal() for p in bad_primes(times(z2, 2)).primes] == ["2"]
    # 3 is a unit in Z_(2), so the boundary is invertible there
    assert bad_primes(times(z2, 3)).primes == ()


def test_bad_primes_rejects_other_rings():
    for ring in (Z12, prime_field(5), QQ):
        with pytest.raises(InputError):
            bad_primes(times(ring, 1))
    with pytest.raises(InputError):
        bad_primes(BoundedComplex.single(FpModule.cyclic(ZZ, 4)))


def test_bad_primes_soundness_outside_the_set():
    rng = random.Random(424242)
    candidates = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101]
    for _ in range(12):
        pop = rng.choice(("hypothesis-true", "hypothesis-false"))
        spec = random_complex(rng, max_len=4, max_rank=4, entry_bound=8,
                              population=pop)
        cx = spec.complex
        inside = {p.p for p in bad_primes(cx).primes}
        outside = [p for p in candidates if p not in inside][:20]
        generic = cx.fiber_profile(GENERIC).dims
        for p in outside:
            assert cx.fiber_profile(Prime.at(p)).dims == generic


def test_complex_prime_set_comes_in_report_order():
    """The CLI prints a computed prime set as it comes: generic point
    first, then primes ascending; free and non-free terms alike."""
    rng = random.Random(2929)
    longest = 0
    for ring in (ZZ, localized_at(3), Z12, integers_mod(360), prime_field(5), QQ):
        for pop in ("hypothesis-true", "hypothesis-false", "hypothesis-false"):
            cx = random_complex(rng, ring, max_len=4, max_rank=4, population=pop).complex
            for c in (cx, tensor_with_module(FpModule.cyclic(ring, 10), cx)):
                primes = complex_prime_set(c)
                assert primes == sorted(primes, key=Prime.sort_key), ring
                longest = max(longest, len(primes))
    assert longest >= 3


def test_bad_primes_are_the_finite_checked_points():
    rng = random.Random(2930)
    witnessed = set()
    for ring in (ZZ, localized_at(3)):
        for _ in range(12):
            pop = rng.choice(("hypothesis-true", "hypothesis-false"))
            cx = random_complex(rng, ring, max_len=4, max_rank=4, population=pop).complex
            bad = bad_primes(cx)
            assert bad.primes == tuple(complex_prime_set(cx)[1:])
            assert list(bad.witness) == [q.p for q in bad.primes]
            ds = {i: cx.boundary(i).matrix for i in range(cx.lo + 1, cx.hi + 1)}
            for q in bad.primes:
                assert bad.witness[q.p] == tuple(
                    i for i, d in ds.items() if rank_over_fiber(d, q) < rank_over_fiber(d, GENERIC))
                witnessed.add(ring)
    assert witnessed == {ZZ, localized_at(3)}


# 4294967311 * 4294967357, split by Pollard-Brent rho
SEMIPRIME = 18446744400127067027


def test_bad_primes_factors_a_repeated_boundary_once(monkeypatch):
    """Eight equal boundaries are one matrix to the prime set: its last
    divisor is factored once, and each prime is witnessed in all eight
    degrees."""
    calls = []
    real = rings.factor_trial
    monkeypatch.setattr(rings, "factor_trial", lambda n: calls.append(n) or real(n))
    d = Matrix(ZZ, [[0, SEMIPRIME], [0, 0]])
    bad = bad_primes(BoundedComplex.free_complex(ZZ, 0, [2] * 9, [d] * 8))
    assert [q.p for q in bad.primes] == [4294967311, 4294967357]
    assert bad.witness == {4294967311: tuple(range(1, 9)), 4294967357: tuple(range(1, 9))}
    assert calls == [SEMIPRIME]


def test_bad_primes_refuses_a_prime_without_a_rank_drop(monkeypatch):
    real = modules.matrix_bad_primes
    monkeypatch.setattr(modules, "matrix_bad_primes", lambda a: real(a) | {7})
    assert [q.literal() for q in complex_prime_set(times(ZZ, 6))] == ["0", "2", "3", "7"]
    with pytest.raises(ContradictionError, match="no boundary drops rank"):
        bad_primes(times(ZZ, 6))


def test_complex_prime_set_contents():
    lits = [p.literal() for p in complex_prime_set(times(ZZ, 6))]
    assert lits == ["0", "2", "3"]
    # module terms contribute their presentation primes
    lits = [p.literal()
            for p in complex_prime_set(BoundedComplex.single(FpModule.cyclic(ZZ, 4)))]
    assert lits == ["0", "2"]
    assert [p.literal() for p in complex_prime_set(times(QQ, 1))] == ["0"]
    assert [p.literal() for p in complex_prime_set(times(Z12, 5))] == ["2", "3"]


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def test_prime_sets_factor_each_matrix_once(monkeypatch):
    """A boundary whose last divisor is a 42-bit semiprime is factored once
    per prime set, also where it meets a free term below it or a free target."""
    n = _next_prime(2 ** 21 - 2 ** 18) * _next_prime(2 ** 21 + 2 ** 19)
    d = Matrix(ZZ, [[2, 6 + n], [1, 3 + n]])  # Smith form diag(1, n)
    cx = two_term(ZZ, d.to_rows(), [2, 2])
    calls = []
    factor = rings.factor_trial
    monkeypatch.setattr(rings, "factor_trial", lambda k: calls.append(k) or factor(k))
    free = FpModule.free(ZZ, 2)
    for run in (lambda: check_main_theorem(cx), lambda: is_universally_exact(cx),
                lambda: purity_report(ModuleMap(free, free, d))):
        calls.clear()
        run()
        assert calls == [n]


# -- corollary checkers --------------------------------------------------------

def test_map_criterion_identity_and_doubling():
    one = FpModule.free(ZZ, 1)
    rep = purity_report(ModuleMap(one, one, Matrix(ZZ, [[1]])))
    assert rep.verdict
    assert rep.injective_with_flat_cokernel and rep.pure and rep.fiberwise_injective

    rep = purity_report(ModuleMap(one, one, Matrix(ZZ, [[2]])))
    assert not rep.verdict
    assert not rep.injective_with_flat_cokernel
    assert not rep.pure and not rep.fiberwise_injective


def test_zero_criterion():
    assert check_zero_criterion(FpModule.free(ZZ, 0))
    # Z is flat with a one-dimensional generic fiber: hypothesis fails
    assert not check_zero_criterion(FpModule.free(ZZ, 1))
    with pytest.raises(InputError):
        check_zero_criterion(FpModule.cyclic(ZZ, 4))


def test_isom_criterion():
    two = FpModule.free(ZZ, 2)
    assert check_isom_criterion(ModuleMap(two, two, Matrix(ZZ, [[1, 1], [0, 1]])))
    one = FpModule.free(ZZ, 1)
    assert not check_isom_criterion(ModuleMap(one, one, Matrix(ZZ, [[2]])))
    # injective on fibers but never surjective: hypothesis fails cleanly
    assert not check_isom_criterion(ModuleMap(one, two, Matrix(ZZ, [[1], [0]])))
    with pytest.raises(InputError):
        check_isom_criterion(ModuleMap(FpModule.cyclic(ZZ, 4),
                                       FpModule.cyclic(ZZ, 4),
                                       Matrix(ZZ, [[1]])))


def test_flatness_criterion_flat_module():
    for crit in (tor_flatness_criterion, ext_flatness_criterion):
        v = crit(FpModule.free(ZZ, 2))
        assert v.positive_vanishing and v.flat_confirmed
        assert not v.vanishing_with_degree_zero and v.zero_confirmed is None
        assert v.complete
        assert "module is flat" in v.describe()


def test_flatness_criterion_zero_module():
    v = tor_flatness_criterion(FpModule.free(ZZ, 0), depth=2)
    assert v.vanishing_with_degree_zero and v.zero_confirmed
    assert "module is zero" in v.describe()


def test_flatness_criterion_torsion_module():
    for crit in (tor_flatness_criterion, ext_flatness_criterion):
        v = crit(FpModule.cyclic(ZZ, 2))
        assert not v.positive_vanishing
        assert v.flat_confirmed is None and v.zero_confirmed is None
        assert "no claim" in v.describe()
        assert Prime.at(2) in v.checked_primes


def test_flatness_criterion_depth_cap_over_zmod():
    v = tor_flatness_criterion(FpModule.free(Z12, 1), depth=3)
    assert v.flat_confirmed and not v.complete
    assert "checked to depth 3" in v.describe()
    with pytest.raises(InputError):
        tor_flatness_criterion(FpModule.free(ZZ, 1), depth=0)


@pytest.mark.parametrize("functor", ["tor", "ext"])
def test_flatness_criterion_resolves_the_module_once(resolution_calls, functor):
    crit = tor_flatness_criterion if functor == "tor" else ext_flatness_criterion
    v = crit(FpModule.cyclic(Z12, 2), 3)
    assert not v.positive_vanishing
    assert resolution_calls == [4]


def test_certify_projective_corollary_examples():
    ident = two_term(ZZ, [[1]], [1, 1])
    assert certify_projective_corollary(ident).verify()
    assert certify_projective_corollary(exact_three_term()).verify()
    with pytest.raises(InputError):
        certify_projective_corollary(times(ZZ, 2))
    with pytest.raises(InputError):
        certify_projective_corollary(BoundedComplex.single(FpModule.cyclic(ZZ, 4)))


def test_certify_projective_corollary_random_split():
    rng = random.Random(31337)
    for _ in range(20):
        spec = random_complex(rng, max_len=4, max_rank=4, entry_bound=6,
                              population="contractible")
        assert certify_projective_corollary(spec.complex).verify()


@pytest.mark.parametrize("ring,divisors", [(Z12, (3, 4)), (integers_mod(360), (8, 9, 5, 40))],
                         ids=["Z/12", "Z/360"])
def test_projective_corollary_on_non_free_projective_terms(ring, divisors):
    """A bounded complex of projective modules is contractible exactly when
    it is exact; R/d is projective over Z/n when gcd(d, n/d) = 1, so its
    tensor with a free complex has non-free projective terms."""
    rng = random.Random(f"projective:{ring}")
    for k in range(30):
        pop = ("contractible", "hypothesis-true", "hypothesis-false")[k % 3]
        spec = random_complex(rng, ring, max_len=4, max_rank=3, entry_bound=5, population=pop)
        for d in divisors:
            cx = tensor_with_module(FpModule.cyclic(ring, d), spec.complex)
            assert (null_homotopy(cx) is not None) == cx.is_exact()


# -- standard test families ----------------------------------------------------

def test_standard_module_family_shapes():
    fam = standard_module_family(ZZ, [GENERIC])
    assert len(fam) == 3
    torsion = [m.invariant_factors().torsion for m in fam[:2]]
    assert torsion == [(2,), (3,)]
    assert fam[-1].invariant_factors().free_rank == 2
    # bad primes outside {2, 3} get their residue field appended
    fam5 = standard_module_family(ZZ, [GENERIC, Prime.at(5)])
    assert any(m.invariant_factors().torsion == (5,) for m in fam5)

    zl = standard_module_family(localized_at(3), localized_at(3).spectrum())
    assert [m.invariant_factors().torsion for m in zl] == [(3,), ()]
    assert len(standard_module_family(Z12, list(Z12.spectrum()))) == 3
    assert len(standard_module_family(QQ, [GENERIC])) == 1
