"""Finitely presented modules: classification, functors, resolutions."""

import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from fiberflat import modules
from fiberflat.errors import ContradictionError, InputError
from fiberflat.generate import random_fp_module
from fiberflat.linalg import Matrix, reduce_matrix
from fiberflat.modules import (
    FpModule, ModuleMap, ext_fiber, free_resolution, lift_along,
    map_prime_set, matrix_bad_primes, module_prime_set,
    prime_filtration, purity_report, tor_fiber,
)
from fiberflat.rings import (
    GENERIC, Prime, QQ, ZZ, factor_trial, integers_mod, localized_at, prime_field,
)


Z12 = integers_mod(12)
Z4 = integers_mod(4)


def test_presentation_counts_are_checked_in_order():
    with pytest.raises(InputError, match="negative generator count"):
        FpModule(ZZ, -1)
    with pytest.raises(InputError, match="2 generators but relations have 1 rows"):
        FpModule(ZZ, 2, Matrix(ZZ, [[2]]))


def test_invariant_factor_classification():
    m = FpModule(ZZ, 2, Matrix(ZZ, [[2, 0], [0, 3]]))
    inv = m.invariant_factors()
    assert inv.free_rank == 0 and inv.torsion == (6,)
    m = FpModule(ZZ, 2, Matrix(ZZ, [[2], [0]]))
    inv = m.invariant_factors()
    assert inv.free_rank == 1 and inv.torsion == (2,)
    assert FpModule.cyclic(ZZ, 0).invariant_factors().free_rank == 1
    assert FpModule.free(ZZ, 3).invariant_factors().free_rank == 3
    assert FpModule.zero(ZZ).is_zero()
    assert FpModule.cyclic(ZZ, 1).is_zero()
    assert FpModule.cyclic(ZZ, -6).is_isomorphic_to(FpModule.cyclic(ZZ, 6))


def test_invariant_factors_over_zmod_collapse_associates():
    # gcd with the modulus classifies cyclic factors over Z/n
    assert FpModule.cyclic(Z12, 8).invariant_factors().torsion == (4,)
    assert FpModule.cyclic(Z12, 5).is_zero()
    assert FpModule.cyclic(Z12, 0).invariant_factors().free_rank == 1
    assert FpModule.cyclic(Z12, 6).invariant_factors().torsion == (6,)


def test_invariant_factors_over_zloc_are_prime_powers():
    ring = localized_at(3)
    m = FpModule.cyclic(ring, Fraction(18))
    assert m.invariant_factors().torsion == (9,)
    assert FpModule.cyclic(ring, Fraction(2, 5)).is_zero()


def test_flatness_by_classification():
    assert FpModule.free(ZZ, 2).is_flat()
    assert not FpModule.cyclic(ZZ, 2).is_flat()
    # over Z/12 = Z/4 x Z/3 the CRT summands are flat, other torsion is not
    assert FpModule.cyclic(Z12, 4).is_flat()
    assert FpModule.cyclic(Z12, 3).is_flat()
    assert not FpModule.cyclic(Z12, 2).is_flat()
    assert not FpModule.cyclic(Z12, 6).is_flat()
    assert FpModule.free(Z12, 2).is_flat()


def test_flatness_over_zmod_matches_the_exponent_rule():
    # R/d over Z/n is flat iff every prime of n divides d to exponent 0 or
    # to its full exponent in n
    for n in range(2, 401):
        exponents = factor_trial(n)
        for d in (d for d in range(1, n + 1) if n % d == 0):
            dfac = factor_trial(d)
            rule = all(dfac.get(p, 0) in (0, e) for p, e in exponents.items())
            assert FpModule.cyclic(integers_mod(n), d).is_flat() == rule, (n, d)


def test_tensor_matches_gcd_formula_exhaustively():
    for a in range(1, 31):
        for b in range(1, 31):
            t = FpModule.cyclic(ZZ, a).tensor(FpModule.cyclic(ZZ, b))
            assert t.is_isomorphic_to(FpModule.cyclic(ZZ, gcd(a, b))), (a, b)


def test_tensor_with_free_and_zero():
    m = FpModule.cyclic(ZZ, 6)
    assert m.tensor(FpModule.free(ZZ, 2)).is_isomorphic_to(m.direct_sum(m))
    assert m.tensor(FpModule.zero(ZZ)).is_zero()
    assert FpModule.cyclic(ZZ, 0).tensor(m).is_isomorphic_to(m)


@pytest.mark.parametrize("ring", [ZZ, Z12, localized_at(3), QQ], ids=str)
def test_direct_sum_of_many_is_the_pairwise_chain(ring):
    """One block-diagonal call over any number of summands equals the
    pairwise chain by content, and both equal relations placed entry by
    entry."""
    rng = random.Random(f"direct-sum:{ring}")
    for _ in range(20):
        parts = [random_fp_module(rng, ring, max_gens=3, max_rels=3) for _ in range(3)]
        a, b, c = parts
        three = a.direct_sum(b, c)
        assert three == a.direct_sum(b).direct_sum(c) == a.direct_sum(b.direct_sum(c))
        gens, cols = sum(m.gens for m in parts), sum(m.relations.cols for m in parts)
        body = [[0] * cols for _ in range(gens)]
        r0 = c0 = 0
        for m in parts:
            for i in range(m.gens):
                for j in range(m.relations.cols):
                    body[r0 + i][c0 + j] = m.relations[i, j]
            r0, c0 = r0 + m.gens, c0 + m.relations.cols
        assert three == FpModule(ring, gens, Matrix(ring, body, cols=cols))
        assert a.direct_sum() == a
    with pytest.raises(InputError):
        FpModule.cyclic(ring, 2).direct_sum(FpModule.free(ring, 1), FpModule.cyclic(Z4, 2))


def test_fiber_dimensions():
    m = FpModule.cyclic(ZZ, 4)
    assert m.fiber_dim(Prime.at(2)) == 1
    assert m.fiber_dim(Prime.at(3)) == 0
    assert m.fiber_dim(GENERIC) == 0
    assert FpModule.free(ZZ, 3).fiber_dim(Prime.at(7)) == 3
    assert FpModule.free(ZZ, 3).fiber_dim(GENERIC) == 3


def seeded_modules(ring, count, seed):
    rng = random.Random(seed)
    return [random_fp_module(rng, ring) for _ in range(count)]


@pytest.mark.parametrize("ring,seed", [
    (ZZ, 11), (Z12, 12), (Z4, 13), (localized_at(3), 14), (QQ, 15),
    (prime_field(5), 16), (integers_mod(8), 17), (integers_mod(360), 18)])
def test_ext_equals_tor_dimensionwise(ring, seed):
    """The duality invariant: two independent routes, degrees up to 3."""
    for m in seeded_modules(ring, 25, seed):
        res = free_resolution(m, 4)
        for q in module_prime_set(m):
            assert res.tor_dims(q) == res.ext_dims(q), (m, q)
            for i in range(4):
                assert ext_fiber(m, q, i, 4) == tor_fiber(m, q, i, 4), (m, q, i)


@pytest.mark.parametrize("ring,seed", [(ZZ, 21), (localized_at(2), 22), (Z12, 23)])
def test_flat_iff_tor1_vanishes(ring, seed):
    for m in seeded_modules(ring, 30, seed):
        vanishes = all(tor_fiber(m, q, 1, 2) == 0 for q in module_prime_set(m))
        assert m.is_flat() == vanishes, m


@pytest.mark.parametrize("ring,seed", [(ZZ, 31), (localized_at(3), 32)])
def test_zero_criterion_shape(ring, seed):
    # fibers vanishing everywhere forces the zero module among flat modules
    for m in seeded_modules(ring, 30, seed):
        if not m.is_flat():
            continue
        if all(m.fiber_dim(q) == 0 for q in module_prime_set(m)):
            assert m.is_zero()


def test_kernel_image_cokernel_on_multiplication_by_two():
    z = FpModule.free(ZZ, 1)
    f = ModuleMap(z, z, Matrix(ZZ, [[2]]))
    ker, incl = f.kernel()
    assert ker.is_zero()
    assert f.target.vanishes(f.matrix @ incl.matrix)
    assert f.image().is_isomorphic_to(z)
    assert f.cokernel().is_isomorphic_to(FpModule.cyclic(ZZ, 2))
    assert f.is_injective() and not f.is_surjective()
    # non-free sources: Z/2 --x2--> Z/4 is injective, Z/4 --x1--> Z/2 is not
    z2, z4 = FpModule.cyclic(ZZ, 2), FpModule.cyclic(ZZ, 4)
    assert ModuleMap(z2, z4, Matrix(ZZ, [[2]])).is_injective()
    assert not ModuleMap(z4, z2, Matrix(ZZ, [[1]])).is_injective()
    # a target with relations: Z --(1, 1)--> coker[0; 4] = Z + Z/4, whose
    # wall is [f | A] = [[1, 0], [1, 4]]
    zz4 = FpModule(ZZ, 2, Matrix(ZZ, [[0], [4]]))
    g = ModuleMap(z, zz4, Matrix(ZZ, [[1], [1]]))
    assert g.wall == Matrix(ZZ, [[1, 0], [1, 4]])
    assert g.is_injective() and g.kernel()[0].is_zero()
    assert g.image().is_isomorphic_to(z)
    coker_af = FpModule(ZZ, 2, Matrix(ZZ, [[0, 1], [4, 1]]))
    assert g.cokernel().invariant_factors() == coker_af.invariant_factors()
    assert g.cokernel().is_isomorphic_to(FpModule.cyclic(ZZ, 4))


@pytest.mark.parametrize("ring", [ZZ, Z12, localized_at(3), prime_field(5)],
                         ids=["Z", "Z12", "Zloc3", "F5"])
def test_is_injective_agrees_with_the_kernel(ring):
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        src, tgt = (random_fp_module(rng, ring, max_gens=2, max_rels=2, entry_bound=4) for _ in range(2))
        mat = Matrix(ring, [[rng.randint(-3, 3) for _ in range(src.gens)]
                            for _ in range(tgt.gens)], cols=src.gens)
        try:
            f = ModuleMap(src, tgt, mat)
        except InputError:
            continue
        assert f.is_injective() == f.kernel()[0].is_zero()
        checked += 1
    assert checked >= 40


def test_kernel_of_torsion_endomorphism():
    m = FpModule.cyclic(ZZ, 4)
    f = ModuleMap(m, m, Matrix(ZZ, [[2]]))
    ker, incl = f.kernel()
    assert ker.is_isomorphic_to(FpModule.cyclic(ZZ, 2))
    assert f.target.vanishes(f.matrix @ incl.matrix)
    assert f.image().is_isomorphic_to(FpModule.cyclic(ZZ, 2))
    assert f.cokernel().is_isomorphic_to(FpModule.cyclic(ZZ, 2))


def random_map(rng, ring, max_gens=3):
    src = random_fp_module(rng, ring, max_gens=max_gens, max_rels=3)
    tgt = random_fp_module(rng, ring, max_gens=max_gens, max_rels=3)
    # a random matrix rarely defines a map; scale columns into the target
    # relations' reach by composing with the projection-friendly zero map
    # fallback when validation fails.
    for _ in range(40):
        body = [[rng.randint(-4, 4) if ring.kind == "Z" else ring.canon(rng.randrange(ring.param))
                 for _ in range(src.gens)] for _ in range(tgt.gens)]
        try:
            return ModuleMap(src, tgt, Matrix(ring, body, cols=src.gens))
        except InputError:
            continue
    return ModuleMap.zero(src, tgt)


@pytest.mark.parametrize("ring,seed", [(ZZ, 41), (Z12, 42)])
def test_first_isomorphism_theorem(ring, seed):
    rng = random.Random(seed)
    for _ in range(25):
        f = random_map(rng, ring)
        ker, incl = f.kernel()
        assert f.target.vanishes(f.matrix @ incl.matrix)
        assert f.image().is_isomorphic_to(incl.cokernel())


@pytest.mark.parametrize("ring,seed", [(ZZ, 51), (Z12, 52), (localized_at(2), 53)])
def test_free_resolution_is_exact_and_augments(ring, seed):
    rng = random.Random(seed)
    for _ in range(12):
        m = random_fp_module(rng, ring)
        res = free_resolution(m, 3)
        cx = res.complex
        assert cx.lo == 0 and cx.is_free()
        assert cx.homology(0).is_isomorphic_to(m)
        for i in range(1, cx.hi):
            assert cx.homology(i).is_zero(), (m, i)
        eps = res.augmentation
        assert eps.source is cx.term(0) and eps.target is m
        assert eps.is_surjective()
        if cx.hi >= 1:
            assert m.vanishes(eps.matrix @ cx.boundary(1).matrix)


@pytest.mark.parametrize("ring", [ZZ, localized_at(3), QQ, prime_field(5)],
                         ids=["Z", "Zloc/3", "Q", "F5"])
def test_resolutions_over_a_domain_stop_at_d1_without_syzygies(monkeypatch, ring):
    """Over Z, Z_(p) and the fields d1 is a nonzero diagonal over a domain,
    hence injective: no syzygy is taken.  Over Z/n they still are."""
    rng = random.Random(61)
    cases = [FpModule.cyclic(ring, 6), FpModule(ring, 2, Matrix(ring, [[9, 3], [0, 6]]))]
    cases += [random_fp_module(rng, ring) for _ in range(8)]

    def refused(a):
        raise AssertionError("syzygy_matrix called")

    monkeypatch.setattr(modules, "syzygy_matrix", refused)
    resolutions = [free_resolution(m, 3) for m in cases]
    with pytest.raises(AssertionError):
        free_resolution(FpModule.cyclic(Z12, 4), 3)
    monkeypatch.undo()
    for m, res in zip(cases, resolutions):
        cx = res.complex
        assert cx.hi == (1 if m.invariant_factors().torsion else 0)
        assert cx.homology(0).is_isomorphic_to(m) and cx.is_exact_at(1)
        assert res.augmentation.is_surjective()


def test_resolution_periodicity_over_zmod():
    res = free_resolution(FpModule.cyclic(Z4, 2), 5)
    mats = [res.complex.boundary(i).matrix.to_rows() for i in range(1, 6)]
    assert mats == [[[2]]] * 5
    # Syzygies are read off the SNF: ann(4) in Z/12 is generated by 12/4 = 3,
    # and ann(3) by 4, which closes the period.
    res = free_resolution(FpModule.cyclic(Z12, 4), 5)
    mats = [res.complex.boundary(i).matrix.to_rows() for i in range(1, 6)]
    assert mats == [[[4]], [[3]], [[4]], [[3]], [[4]]]
    res = free_resolution(FpModule.cyclic(integers_mod(25), 5), 5)
    mats = [res.complex.boundary(i).matrix.to_rows() for i in range(1, 6)]
    assert mats == [[[5]]] * 5


def test_tor_fiber_known_values():
    m = FpModule.cyclic(ZZ, 4)
    assert tor_fiber(m, Prime.at(2), 0, 2) == 1
    assert tor_fiber(m, Prime.at(2), 1, 2) == 1
    assert tor_fiber(m, Prime.at(3), 1, 2) == 0
    assert tor_fiber(m, GENERIC, 0, 2) == 0
    free = FpModule.free(ZZ, 2)
    assert tor_fiber(free, Prime.at(2), 0, 2) == 2
    assert tor_fiber(free, Prime.at(2), 1, 2) == 0
    with pytest.raises(InputError):
        tor_fiber(m, Prime.at(2), 2, 2)


def test_periodic_tor_over_z4():
    """Tor_i over Z/4 of the residue field against Z/2 stays one-dimensional."""
    m = FpModule.cyclic(Z4, 2)
    for i in range(7):
        assert tor_fiber(m, Prime.at(2), i, i + 1) == 1
        assert ext_fiber(m, Prime.at(2), i, i + 1) == 1


def test_lift_along_commutes():
    rng = random.Random(61)
    for ring in (ZZ, Z12):
        for _ in range(10):
            f = random_map(rng, ring)
            res_m, res_n = free_resolution(f.source, 2), free_resolution(f.target, 2)
            phis = lift_along(f, res_m, res_n)
            eps_m, eps_n = res_m.augmentation, res_n.augmentation
            assert f.target.vanishes(eps_n.matrix @ phis[0] - f.matrix @ eps_m.matrix)
            for j in range(1, 3):
                top = res_n.complex.boundary(j).matrix @ phis[j]
                bot = phis[j - 1] @ res_m.complex.boundary(j).matrix
                assert top == bot, (ring, j)


def test_module_prime_sets():
    labels = [q.literal() for q in module_prime_set(FpModule.cyclic(ZZ, 12))]
    assert labels == ["0", "2", "3"]
    labels = [q.literal() for q in module_prime_set(FpModule.free(ZZ, 2))]
    assert labels == ["0"]
    f = ModuleMap(FpModule.free(ZZ, 1), FpModule.free(ZZ, 1), Matrix(ZZ, [[10]]))
    assert {q.literal() for q in map_prime_set(f)} >= {"0", "2", "5"}
    assert matrix_bad_primes(Matrix(ZZ, [[6, 0], [0, 4]])) == {2, 3}
    assert matrix_bad_primes(Matrix(ZZ, [[1, 0], [0, 1]])) == set()


def test_module_and_map_prime_sets_come_in_report_order():
    """The CLI prints a computed prime set as it comes: generic point
    first, then primes ascending."""
    rng = random.Random(2931)
    longest = 0
    for ring in (ZZ, localized_at(3), Z12, integers_mod(360), prime_field(5), QQ):
        for _ in range(8):
            m = random_fp_module(rng, ring)
            rows = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(m.gens)]
            f = ModuleMap(FpModule.free(ring, 2), m, Matrix(ring, rows, cols=2))
            for primes in (module_prime_set(m), map_prime_set(f)):
                assert primes == sorted(primes, key=Prime.sort_key), ring
                longest = max(longest, len(primes))
    assert longest >= 3


def test_purity_examples():
    z = FpModule.free(ZZ, 1)
    z2 = FpModule.free(ZZ, 2)
    pure = purity_report(ModuleMap(z, z2, Matrix(ZZ, [[2], [3]])))
    assert pure.verdict and pure.pure and pure.fiberwise_injective
    assert pure.injective_with_flat_cokernel
    impure = purity_report(ModuleMap(z, z, Matrix(ZZ, [[2]])))
    assert not impure.verdict and not impure.pure
    assert not impure.injective_with_flat_cokernel
    assert not impure.fiberwise_injective


def test_purity_over_composite_zmod():
    r = FpModule.free(Z12, 1)
    unit = purity_report(ModuleMap(r, r, Matrix(Z12, [[5]])))
    assert unit.verdict
    double = purity_report(ModuleMap(r, r, Matrix(Z12, [[2]])))
    assert not double.verdict
    assert not double.injective_with_flat_cokernel
    assert not double.fiberwise_injective
    # CRT summand inclusion Z/4 -> Z/4 + Z/3 is pure over Z/12
    four = FpModule.cyclic(Z12, 4)
    both = four.direct_sum(FpModule.cyclic(Z12, 3))
    incl = ModuleMap(four, both, Matrix(Z12, [[1], [0]]))
    rep = purity_report(incl)
    assert rep.verdict


@pytest.mark.parametrize("n", [12, 360])
def test_purity_routes_agree_on_seeded_flat_zmod_maps(n):
    """purity_report, whose three routes raise on disagreement, on random
    maps between sums of flat cyclic modules R/d, gcd(d, n/d) = 1, over a
    composite Z/n; d = n is a free summand R presented by the relation 0."""
    ring = integers_mod(n)
    flat = [d for d in range(2, n + 1) if n % d == 0 and gcd(d, n // d) == 1]
    rng = random.Random(f"purity:{n}")

    def module(ds):
        return FpModule(ring, len(ds), Matrix.diagonal(ring, ds))

    verdicts = []
    for _ in range(40):
        src, tgt = ([rng.choice(flat) for _ in range(rng.randint(1, 3))] for _ in "st")
        # d * x lies in (e) exactly when x is a multiple of e / gcd(d, e)
        body = [[rng.randrange(n) * (e // gcd(d, e)) for d in src] for e in tgt]
        f = ModuleMap(module(src), module(tgt), Matrix(ring, body, cols=len(src)))
        verdicts.append(purity_report(f).verdict)
    assert True in verdicts and False in verdicts


def test_purity_requires_flat_ends():
    z = FpModule.free(ZZ, 1)
    torsion = FpModule.cyclic(ZZ, 2)
    with pytest.raises(InputError):
        purity_report(ModuleMap.zero(z, torsion))


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=-2, max_value=2), min_size=4, max_size=4))
def test_purity_routes_never_disagree_on_2x2(entries):
    z2 = FpModule.free(ZZ, 2)
    f = ModuleMap(z2, z2, Matrix(ZZ, [entries[:2], entries[2:]]))
    purity_report(f)  # raises ContradictionError on any route disagreement


def test_prime_filtration_invariants():
    rng = random.Random(71)
    for ring in (ZZ, localized_at(2)):
        for _ in range(15):
            m = random_fp_module(rng, ring)
            pf = prime_filtration(m)
            inv = m.invariant_factors()
            finite = [q.p for _, q in pf.steps if not q.is_generic]
            assert prod(finite) == prod(int(d) for d in inv.torsion) or inv.torsion == ()
            if inv.torsion == ():
                assert finite == []
            assert sum(1 for _, q in pf.steps if q.is_generic) == inv.free_rank
            if pf.steps:
                assert pf.steps[-1][0].is_isomorphic_to(m)
            else:
                assert m.is_zero()
    with pytest.raises(InputError):
        prime_filtration(FpModule.cyclic(Z12, 2))


def test_prime_filtration_quotient_order():
    pf = prime_filtration(FpModule.cyclic(ZZ, 12))
    assert [q.literal() for q in pf.quotient_primes()] == ["2", "2", "3"]
    pf = prime_filtration(FpModule(ZZ, 2, Matrix(ZZ, [[2, 0], [0, 0]])))
    assert [q.literal() for q in pf.quotient_primes()] == ["2", "0"]


def test_module_map_validation_is_eager():
    src = FpModule.free(ZZ, 1)
    tgt = FpModule.cyclic(ZZ, 4)
    ModuleMap(src, tgt, Matrix(ZZ, [[1]]))  # fine
    bad_src = FpModule.cyclic(ZZ, 2)
    with pytest.raises(InputError):
        # 1 does not send the relation 2 into 4Z: not well defined
        ModuleMap(bad_src, tgt, Matrix(ZZ, [[1]]))


def test_fiberwise_map_data():
    z = FpModule.free(ZZ, 1)
    f = ModuleMap(z, z, Matrix(ZZ, [[6]]))
    assert f.fiber_rank(GENERIC) == 1
    assert f.fiber_rank(Prime.at(2)) == 0
    assert f.fiber_is_injective(Prime.at(5))
    assert not f.fiber_is_injective(Prime.at(3))
    assert f.fiber_is_isomorphism(Prime.at(5))
    assert not f.fiber_is_isomorphism(Prime.at(2))
