"""Bounded complexes: homology, fibers, Koszul, duality, homotopies."""

import random
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

import fiberflat.complexes
from fiberflat.complexes import (
    BoundedComplex, ChainMap, HomotopyCertificate, dual,
    koszul_complex, koszul_selfduality, null_homotopy, shift,
    tensor_with_module, total_tensor,
)
from fiberflat.criteria import _tensor_exact
from fiberflat.errors import InputError
from fiberflat.generate import random_complex, random_fp_module, random_unimodular
from fiberflat.linalg import (
    Matrix, _block_matrix, field_rank, hstack, kron, reduce_matrix, syzygy_matrix,
)
from fiberflat.modules import FpModule, ModuleMap, free_resolution, lift_along, map_prime_set
from fiberflat.rings import (
    GENERIC, Prime, ZZ, factor_trial, integers_mod, localized_at, parse_ring,
)

from _oracles import (
    fiber_complex, fraction_rank, kernel_basis_fiber_rank, kronecker_null_homotopy, modp_rank,
    pullback_homology,
)


def two_term(ring, matrix_rows, ranks):
    return BoundedComplex.free_complex(
        ring, 0, ranks, [Matrix(ring, matrix_rows, cols=ranks[1])])


def test_d_squared_is_enforced():
    with pytest.raises(InputError):
        BoundedComplex.free_complex(
            ZZ, 0, [1, 1, 1],
            [Matrix(ZZ, [[1]]), Matrix(ZZ, [[1]])])
    # Z --x--> Z --1--> Z/2: d.d = [[x]] is a nonzero matrix, and it is the
    # zero map exactly when x lies in the relation span 2Z of Z/2
    z, z2 = FpModule.free(ZZ, 1), FpModule.cyclic(ZZ, 2)

    def over_z2(x):
        return BoundedComplex(ZZ, 0, 2, {0: z2, 1: z, 2: z},
                              {1: Matrix(ZZ, [[1]]), 2: Matrix(ZZ, [[x]])})

    assert over_z2(2).is_exact()
    with pytest.raises(InputError, match="d.d"):
        over_z2(3)
    # the complex builds each boundary as a map of its own terms: Z/2 --1--> Z
    # does not carry the relation 2 to 0, and a 2 x 1 matrix has the wrong shape
    with pytest.raises(InputError, match="does not carry"):
        BoundedComplex(ZZ, 0, 1, {0: z, 1: z2}, {1: Matrix(ZZ, [[1]])})
    with pytest.raises(InputError, match="must be 1x1"):
        BoundedComplex(ZZ, 0, 1, {0: z, 1: z}, {1: Matrix(ZZ, [[1], [1]])})


def test_homology_of_multiplication_complex():
    cx = two_term(ZZ, [[2]], [1, 1])
    assert cx.homology(0).is_isomorphic_to(FpModule.cyclic(ZZ, 2))
    assert cx.homology(1).is_zero()
    assert not cx.is_exact()
    assert cx.is_acyclic_away_from(0)


def test_homology_outside_range_is_zero():
    cx = two_term(ZZ, [[2]], [1, 1])
    assert cx.homology(5).is_zero()
    assert cx.homology(-1).is_zero()
    assert cx.term(9).is_zero()
    d9 = cx.boundary(9)
    assert d9.target.vanishes(d9.matrix)


def test_homology_with_module_terms():
    # Z/4 --2--> Z/4 over Z: kernel (2)/image (2) = 0 in degree 1? no:
    # H_1 = ker(2)/0 = Z/2, H_0 = (Z/4)/(2) = Z/2.
    m = FpModule.cyclic(ZZ, 4)
    cx = BoundedComplex(ZZ, 0, 1, {0: m, 1: m}, {1: Matrix(ZZ, [[2]])})
    assert cx.homology(1).is_isomorphic_to(FpModule.cyclic(ZZ, 2))
    assert cx.homology(0).is_isomorphic_to(FpModule.cyclic(ZZ, 2))


def test_single_and_zero_complexes():
    single = BoundedComplex.single(FpModule.free(ZZ, 2), 3)
    assert single.lo == single.hi == 3
    assert single.homology(3).invariant_factors().free_rank == 2
    zero = BoundedComplex.free_complex(ZZ, 0, [0], [])
    assert zero.is_exact()


# -- exactness from divisors, checked against the pullback route -------------

# Per ring, module parameters s for R/(s): zero, a unit, a prime, a prime
# power and a composite (whatever the ring has of these).
CYCLIC_PARAMETERS = {
    "Z": [0, -1, 3, 4, -12],
    "Z/4": [0, 3, 2],
    "Z/12": [0, 5, 3, 4, 6, 8],
    "Z/360": [0, 7, 5, 9, 30, 100],
    "Zloc/3": [0, Fraction(2), Fraction(1, 2), 3, Fraction(9, 2), Fraction(18, 5)],
    "Q": [0, Fraction(3, 2)],
    "F5": [0, 3],
}


def _unit_twist(rng, cx):
    """cx with each basis vector scaled by a unit of Z_(3) or Q, so the
    boundaries get fractional entries."""
    units = [Fraction(2), Fraction(1, 2), Fraction(4, 5), Fraction(-7, 4), Fraction(1)]
    scale = {i: [rng.choice(units) for _ in range(cx.term(i).gens)]
             for i in range(cx.lo - 1, cx.hi + 1)}
    mats = []
    for i in range(cx.lo + 1, cx.hi + 1):
        d = cx.boundary(i).matrix
        mats.append(Matrix(cx.ring, [[d[r, c] * scale[i][c] / scale[i - 1][r]
                                      for c in range(d.cols)] for r in range(d.rows)],
                           cols=d.cols))
    ranks = [cx.term(i).gens for i in cx.degrees()]
    return BoundedComplex.free_complex(cx.ring, cx.lo, ranks, mats)


def _seeded_complexes(lit, seed, count=6):
    rng = random.Random(f"{lit}:{seed}")
    ring = parse_ring(lit)
    for k in range(count):
        for pop in ("contractible", "hypothesis-true", "hypothesis-false"):
            cx = random_complex(rng, ring, max_len=4, max_rank=4, entry_bound=7,
                                population=pop).complex
            yield _unit_twist(rng, cx) if ring.uses_fractions else cx


def _primary_parts(h):
    """(free rank, prime-power orders of the finite cyclic summands) of a
    module over Z, Z_(p), a field or Z/n, where R/n itself counts as a
    finite summand, so that sums of modules over R and over Z/d compare
    as groups."""
    inv = h.invariant_factors()
    free, orders = inv.free_rank, [int(d) for d in inv.torsion]
    if h.ring.kind == "Zmod":
        free, orders = 0, orders + [h.ring.param] * free
    return free, sorted(p ** e for n in orders for p, e in factor_trial(n).items())


def _member_sum(members, free_rank, i):
    """The primary parts of H_i of the sum of the members, the first
    counted free_rank times when the member has a free part."""
    parts = [_primary_parts(mc.homology(i)) for mc in members]
    if free_rank:
        parts += parts[:1] * (free_rank - 1)
    return sum(f for f, _ in parts), sorted(o for _, os in parts for o in os)


def _non_free_complexes(lit, seed, count=4):
    """Seeded complexes tensored with R presented as coker[1; 2] and, over
    Z/12, with R/3: every term has relations."""
    ring = parse_ring(lit)
    twists = [FpModule(ring, 2, Matrix(ring, [[1], [2]]))]
    if ring.kind == "Zmod":
        twists.append(FpModule.cyclic(ring, 3))
    for cx in _seeded_complexes(lit, seed, count):
        for m in twists:
            yield tensor_with_module(m, cx)


@pytest.mark.parametrize("lit", ["Z", "Z/12", "Zloc/3"])
def test_each_wall_and_homology_is_built_once(lit):
    """A boundary's wall [d | A] is built once and is what _wall reads; with
    a free target it is d itself; each H_i is built once."""
    for cx in _non_free_complexes(lit, 61):
        assert not cx.is_free()
        for j in range(cx.lo + 1, cx.hi + 1):
            assert cx._wall(j) is cx.boundary(j).wall is cx.boundary(j).wall
            assert cx._wall(j) == hstack([cx.boundary(j).matrix, cx.term(j - 1).relations])
        assert cx._wall(cx.hi + 1) is cx.term(cx.hi).relations
        assert cx._wall(cx.lo) is None and cx._wall(cx.hi + 2) is None
        for i in cx.degrees():
            assert cx.homology(i) is cx.homology(i)
    for cx in _seeded_complexes(lit, 62, 2):
        for j in range(cx.lo + 1, cx.hi + 1):
            f = cx.boundary(j)
            if f.matrix.cols:
                assert f.wall is f.matrix


@pytest.mark.parametrize("lit", sorted(CYCLIC_PARAMETERS))
def test_exactness_from_divisors_matches_pullback_homology(lit):
    complexes = list(_seeded_complexes(lit, 11))
    entries = [x for cx in complexes for i in range(cx.lo + 1, cx.hi + 1)
               for r in cx.boundary(i).matrix.to_rows() for x in r]
    assert any(Fraction(x).denominator != 1 for x in entries) == parse_ring(lit).uses_fractions
    for cx in complexes:
        for i in range(cx.lo - 1, cx.hi + 2):
            oracle = pullback_homology(cx, i)
            assert cx.is_exact_at(i) == oracle.is_zero(), i
            assert cx.homology(i).invariant_factors() == oracle.invariant_factors(), i
        assert cx.is_exact() == all(pullback_homology(cx, i).is_zero() for i in cx.degrees())


def _family_inputs(lit, rng):
    """Members R/(s) for each cyclic parameter, free R and R^2, and non-cyclic
    R/2 + R/4, R/p + R/p^2, R + R/p and two random presentations."""
    ring = parse_ring(lit)
    p = 3 if ring.kind == "Z" else max([q.p for q in ring.spectrum() if q.p] or [2])
    cyclic = [FpModule.cyclic(ring, s) for s in CYCLIC_PARAMETERS[lit]]
    sums = [(2, 4), (p, p * p), (0, p)]
    return (cyclic + [FpModule.free(ring, 1), FpModule.free(ring, 2)]
            + [FpModule.cyclic(ring, a).direct_sum(FpModule.cyclic(ring, b)) for a, b in sums]
            + [random_fp_module(rng, ring, max_gens=3, max_rels=3, entry_bound=6)
               for _ in range(2)])


@pytest.mark.parametrize("lit", sorted(CYCLIC_PARAMETERS))
def test_cyclic_base_change_matches_tensor_with_module(lit):
    """The split of _tensor_exact against tensor_with_module through the
    pullback oracle, on free complexes and on the same complexes with
    non-free flat terms: with M ~ R^f + sum_j R/(d_j), M tensor C has the
    homology of C^f + sum_j C tensor R/(d_j), and is exact in degree i
    exactly when C is (if f > 0) and is_exact_mod_at(i, d_j) holds for
    every j; and tensor_with_module against its termwise definition."""
    ring = parse_ring(lit)
    rng = random.Random(f"members:{lit}")
    flat = FpModule(ring, 2, Matrix(ring, [[1], [2]]))  # a free module, presented non-freely
    free = list(_seeded_complexes(lit, 12, count=2))
    if ring.uses_fractions:  # a/b -> a mod k is no change of basis on this column
        free.append(two_term(ring, [[1, Fraction(1, 2)], [1, 2]], [2, 2]))
    complexes = free + [tensor_with_module(flat, cx) for cx in free[::2]]
    for cx in complexes:
        for m in _family_inputs(lit, rng):
            tensored = tensor_with_module(m, cx)
            ident = Matrix.identity(ring, m.gens)
            for i in cx.degrees():
                assert tensored.term(i) == m.tensor(cx.term(i))
                assert tensored.boundary(i).matrix == kron(ident, cx.boundary(i).matrix)
            inv = m.invariant_factors()
            members = [cx] * bool(inv.free_rank) + [
                tensor_with_module(FpModule.cyclic(ring, d), cx) for d in inv.torsion]
            exact = []
            for i in cx.degrees():
                want = pullback_homology(tensored, i)
                got = ((not inv.free_rank or cx.is_exact_at(i))
                       and all(cx.is_exact_mod_at(i, int(d)) for d in inv.torsion))
                assert got == want.is_zero(), (m, i)
                assert _member_sum(members, inv.free_rank, i) == _primary_parts(want), (m, i)
                exact.append(got)
            assert _tensor_exact(m, cx) == all(exact), m


# Members R^f + sum_j R/(d_j), as (f, (d_j, ...)), with composite d_j.
DIVISOR_RULE_MEMBERS = {
    "Z": [(0, (4,)), (0, (6,)), (0, (8,)), (0, (9,)), (0, (12,)), (0, (25,)), (0, (45,)),
          (1, (6,)), (2, (2, 12))],
    "Zloc/3": [(0, (3,)), (0, (9,)), (0, (27,)), (1, (9,)), (0, (3, 9))],
    "Z/8": [(0, (2,)), (0, (4,)), (1, (2,)), (0, (2, 4))],
    "Z/9": [(0, (3,)), (1, (3,)), (0, (3, 3))],
    "Z/12": [(0, (2,)), (0, (4,)), (0, (6,)), (1, (6,)), (0, (2, 6))],
    "Z/360": [(0, (4,)), (0, (8,)), (0, (12,)), (0, (45,)), (0, (72,)), (1, (8,)), (0, (6, 60))],
    "F5": [(1, ()), (2, ())],
}
# Per ring, s such that C tensor R/(s) has terms that are not free
# presentations, not flat where the ring allows it.
CYCLIC_TWIST = {"Z": 4, "Zloc/3": 3, "Z/8": 2, "Z/9": 3, "Z/12": 2, "Z/360": 6, "F5": 0}


@pytest.mark.parametrize("lit", sorted(DIVISOR_RULE_MEMBERS))
def test_divisor_rule_matches_the_base_change(lit):
    """H_i(C / dC) read off the divisors of C's walls (is_exact_mod_at)
    against C tensor R/(d) through the pullback oracle, per torsion factor
    and degree from lo - 1 to hi + 1, on free complexes and on the same
    complexes tensored with a flat module presented non-freely, a cyclic
    module and a random presentation (flat or not); over Z/n also with
    d = n (is_exact_at); and _tensor_exact against the oracle with every
    degree excluded in turn, and none."""
    ring = parse_ring(lit)
    rng = random.Random(f"divisor-rule:{lit}")
    members = []
    for f, ds in DIVISOR_RULE_MEMBERS[lit]:
        m = FpModule.free(ring, f)
        for d in ds:
            m = m.direct_sum(FpModule.cyclic(ring, d))
        assert m.invariant_factors().free_rank == f
        assert m.invariant_factors().torsion == tuple(ring.canon(d) for d in ds)
        members.append(m)
    twists = [FpModule(ring, 2, Matrix(ring, [[1], [2]])), FpModule.cyclic(ring, CYCLIC_TWIST[lit])]
    outcomes, non_free = set(), 0
    for k, base in enumerate(_seeded_complexes(lit, 17, count=4)):
        complexes = [base]
        if k % 3 == 0:
            twist = random_fp_module(rng, ring, max_gens=2, max_rels=2, entry_bound=12)
            complexes += [tensor_with_module(t, base) for t in twists + [twist]]
        for cx in complexes:
            non_free += not cx.is_free()
            extra = [random_fp_module(rng, ring, max_gens=3, max_rels=3, entry_bound=12)
                     for _ in range(2)]
            for m in members + extra:
                inv = m.invariant_factors()
                for d in inv.torsion:
                    quotient = tensor_with_module(FpModule.cyclic(ring, d), cx)
                    for i in range(cx.lo - 1, cx.hi + 2):
                        got = cx.is_exact_mod_at(i, int(d))
                        assert got == pullback_homology(quotient, i).is_zero(), (d, i)
                        outcomes.add(got)
                tensored = tensor_with_module(m, cx)
                exact = {i: pullback_homology(tensored, i).is_zero() for i in cx.degrees()}
                for skip in [None, *cx.degrees()]:
                    want = all(ok for i, ok in exact.items() if i != skip)
                    assert _tensor_exact(m, cx, skip) == want, (m, skip)
            if ring.kind == "Zmod":
                for i in range(cx.lo - 1, cx.hi + 2):
                    got = cx.is_exact_mod_at(i, ring.param)
                    assert got == cx.is_exact_at(i) == pullback_homology(cx, i).is_zero(), i
    assert non_free > 0
    assert outcomes == (set() if ring.is_field else {True, False})


def test_non_free_terms_take_the_homology_fallback(monkeypatch):
    """Over Z a complex with non-free terms builds H_i in is_exact_at; a
    torsion factor R/(d) of the tensor family is read off the divisors of
    its walls instead, with no homology built."""
    base = next(cx for cx in _seeded_complexes("Z", 13) if cx.hi > cx.lo)
    cx = tensor_with_module(FpModule.cyclic(ZZ, 4), base)
    assert not cx.is_free()
    built = []
    homology = BoundedComplex.homology
    monkeypatch.setattr(BoundedComplex, "homology",
                        lambda self, i: built.append(i) or homology(self, i))
    for i in cx.degrees():
        assert cx.is_exact_at(i) == pullback_homology(cx, i).is_zero()
    assert built == list(cx.degrees())
    built.clear()
    tensored = tensor_with_module(FpModule.cyclic(ZZ, 2), cx)
    for i in range(cx.lo - 1, cx.hi + 2):
        assert cx.is_exact_mod_at(i, 2) == pullback_homology(tensored, i).is_zero(), i
    assert built == []


def test_fiber_profile_matches_reduced_complex_homology():
    rng = random.Random(101)
    for _ in range(20):
        cx = random_complex(rng, max_len=4, max_rank=4,
                            population=rng.choice(["contractible", "hypothesis-false"])).complex
        for p in (None, 2, 3, 5):
            q = GENERIC if p is None else Prime.at(p)
            reduced = fiber_complex(cx, q)
            for i in cx.degrees():
                direct = reduced.homology(i).invariant_factors().free_rank
                assert cx.fiber_homology_dim(q, i) == direct, (p, i)


def _fiber_dim_oracle(cx, q, i):
    """dim H_i(kappa(q) tensor C) from its definition, with the oracles' own
    elimination: V_j = kappa^{g_j} / im A_j, the image of d_j in V_{j-1} has
    dimension rank[d_j | A_{j-1}] - rank A_{j-1}, and no d_j exists outside
    (lo, hi]."""
    def rk(blocks, height):
        rows = [[x for b in blocks for x in b.row(r)] for r in range(height)]
        cols = sum(b.cols for b in blocks)
        return fraction_rank(rows, cols) if q.is_generic else modp_rank(rows, cols, q.p)

    def image(j):
        if not cx.lo < j <= cx.hi:
            return 0
        below = cx.term(j - 1)
        return (rk([cx.boundary(j).matrix, below.relations], below.gens)
                - rk([below.relations], below.gens))

    here = cx.term(i)
    return here.gens - rk([here.relations], here.gens) - image(i) - image(i + 1)


def _with_end_relations(rng, cx):
    """cx with random relations on its bottom term and, above it, a top
    term with one more generator, which the top boundary kills, and as
    relations a multiple of that generator and twice the syzygies of the
    top boundary."""
    ring, lo, hi = cx.ring, cx.lo, cx.hi
    terms = {i: cx.term(i) for i in cx.degrees()}
    bmaps = {i: cx.boundary(i).matrix for i in range(lo + 1, hi + 1)}
    g = terms[lo].gens
    terms[lo] = FpModule(ring, g, Matrix(ring, [[rng.randint(-6, 6) for _ in range(2)]
                                                for _ in range(g)], cols=2))
    if hi > lo:
        d = bmaps[hi]
        syz = syzygy_matrix(d)
        rel = [[2 * x for x in r] + [0] for r in syz.to_rows()]
        rel.append([0] * syz.cols + [rng.choice([2, 3, 4, 6])])
        terms[hi] = FpModule(ring, d.cols + 1, Matrix(ring, rel, cols=syz.cols + 1))
        bmaps[hi] = Matrix(ring, [list(r) + [0] for r in d.to_rows()], cols=d.cols + 1)
    return BoundedComplex(ring, lo, hi, terms, bmaps)


def test_fiber_dims_with_relations_in_the_end_terms(monkeypatch):
    """Relations in the bottom and top terms: fiber_profile against
    fiber_homology_dim, the definition-level oracle and the Euler
    characteristic, with no zero module or zero map built on the way."""
    rng = random.Random(109)
    cases = [BoundedComplex(ZZ, 0, 1, {1: FpModule(ZZ, 2, Matrix(ZZ, [[2], [0]])),
                                       0: FpModule.free(ZZ, 1)}, {1: Matrix(ZZ, [[0, 1]])})]
    for lit in ("Z", "Z/12"):
        cases += [_with_end_relations(rng, cx) for cx in _seeded_complexes(lit, 19, count=3)]
    assert sum(not cx.term(cx.hi).is_free_presentation for cx in cases) >= 6
    assert all(not cx.term(cx.lo).is_free_presentation
               for cx in cases[1:] if cx.term(cx.lo).gens)

    def no_zero_objects(*args):
        pytest.fail("a fiber profile built a zero object")

    monkeypatch.setattr(FpModule, "zero", no_zero_objects)
    monkeypatch.setattr(ModuleMap, "zero", no_zero_objects)
    for cx in cases:
        primes = ([GENERIC] + [Prime.at(p) for p in (2, 3, 5)] if cx.ring == ZZ
                  else list(cx.ring.spectrum()))
        for q in primes:
            profile = cx.fiber_profile(q)
            chi = sum((-1) ** i * (cx.term(i).gens
                                   - field_rank(reduce_matrix(cx.term(i).relations, q)))
                      for i in cx.degrees())
            assert sum((-1) ** i * v for i, v in profile.dims.items()) == chi
            for i in cx.degrees():
                oracle = _fiber_dim_oracle(cx, q, i)
                assert profile.dims[i] == cx.fiber_homology_dim(q, i) == oracle, (q, i)
    assert cases[0].fiber_profile(Prime.at(2)).dims == {0: 0, 1: 1}
    assert cases[0].fiber_profile(GENERIC).dims == {0: 0, 1: 0}


def test_fiber_dim_formula_on_module_terms():
    # fiber dims must track universal coefficients, e.g. tensoring the
    # multiplication-by-4 complex with Z/2 doubles the fiber at (2).
    base = two_term(ZZ, [[4]], [1, 1])
    tensored = tensor_with_module(FpModule.cyclic(ZZ, 2), base)
    q = Prime.at(2)
    assert tensored.fiber_homology_dim(q, 0) == 1
    assert tensored.fiber_homology_dim(q, 1) == 1
    assert tensored.fiber_homology_dim(GENERIC, 0) == 0


def test_fiber_profile_shares_ranks_across_degrees():
    # fiber_profile computes each rank once for all degrees; every entry
    # must still equal the single-degree dimension and the formula
    # gens_i - rank[F_i | A_{i-1}] + rank A_{i-1} - rank[F_{i+1} | A_i]
    rng = random.Random(107)
    for _ in range(12):
        base = random_complex(rng, max_len=4, max_rank=3,
                              population=rng.choice(["contractible", "hypothesis-false"])).complex
        cx = tensor_with_module(FpModule.cyclic(ZZ, rng.choice([2, 3, 6])), base)
        assert not cx.is_free()
        for p in (None, 2, 3, 5):
            q = GENERIC if p is None else Prime.at(p)

            def rk(*blocks):
                return field_rank(hstack([reduce_matrix(b, q) for b in blocks]))

            profile = cx.fiber_profile(q)
            for i in cx.degrees():
                rel_below, rel_here = cx.term(i - 1).relations, cx.term(i).relations
                formula = (cx.term(i).gens - rk(cx.boundary(i).matrix, rel_below)
                           + rk(rel_below) - rk(cx.boundary(i + 1).matrix, rel_here))
                assert profile.dims[i] == cx.fiber_homology_dim(q, i) == formula, (p, i)
            assert cx.is_fiber_exact(q) == profile.is_exact()


def test_euler_characteristic_is_fiber_independent():
    rng = random.Random(103)
    for _ in range(15):
        cx = random_complex(rng, max_len=4, max_rank=4,
                            population="hypothesis-false").complex
        chi = sum((-1) ** i * cx.term(i).gens for i in cx.degrees())
        for p in (None, 2, 3, 7):
            q = GENERIC if p is None else Prime.at(p)
            fiber_chi = sum((-1) ** i * cx.fiber_homology_dim(q, i)
                            for i in cx.degrees())
            assert chi == fiber_chi


def test_chain_map_validation_and_iso():
    c = two_term(ZZ, [[2]], [1, 1])
    d = two_term(ZZ, [[2]], [1, 1])
    ChainMap(c, d, {0: Matrix(ZZ, [[1]]), 1: Matrix(ZZ, [[1]])})
    with pytest.raises(InputError, match="commute"):
        # degree-0 identity against degree-1 negation does not commute
        ChainMap(c, d, {0: Matrix(ZZ, [[1]]), 1: Matrix(ZZ, [[-1]])})
    ident = ChainMap(c, c, {i: Matrix.identity(ZZ, 1) for i in c.degrees()})
    assert ident.is_isomorphism()
    assert not ChainMap(c, c, {i: Matrix(ZZ, [[2]]) for i in c.degrees()}).is_isomorphism()
    assert not ChainMap(two_term(ZZ, [[1]], [1, 1]), c, {}).is_isomorphism()
    # into Z --1--> Z/2 the square d.f_1 - f_0.d = 1 - x is a nonzero
    # matrix; it commutes exactly when 1 - x vanishes in Z/2
    one = two_term(ZZ, [[1]], [1, 1])
    z2 = FpModule.cyclic(ZZ, 2)
    e = BoundedComplex(ZZ, 0, 1, {0: z2, 1: one.term(1)}, {1: Matrix(ZZ, [[1]])})

    def into_e(x):
        return ChainMap(one, e, {0: Matrix(ZZ, [[x]]), 1: Matrix(ZZ, [[1]])})

    into_e(3)
    with pytest.raises(InputError, match="commute"):
        into_e(2)
    # each component is built as a map of the terms: Z/2 --1--> Z is not one
    with pytest.raises(InputError, match="does not carry"):
        ChainMap(e, one, {0: Matrix(ZZ, [[1]])})


# -- maps induced on fiber homology ------------------------------------------------

# per ring: scalars c for c * id, some vanishing at some point, and small
# entries for the degree +1 maps h of the chain maps c * id + d h + h d
FIBER_RANK_SCALARS = {
    "Z": [0, 1, -1, 2, 3, 6, 10],
    "Zloc/3": [0, 3, Fraction(1, 2), 6, Fraction(9, 2)],
    "Z/12": [0, 2, 3, 5, 6],
    "F5": [0, 2],
    "Q": [0, Fraction(2, 3)],
}


def _points(ring):
    """Every admissible point: the spectrum, or over Z the generic point
    and (2), (3), (5)."""
    if ring == ZZ:
        return [GENERIC] + [Prime.at(p) for p in (2, 3, 5)]
    return list(ring.spectrum())


def _vanishes_at(ring, c, q):
    c = Fraction(ring.canon(c))
    return c == 0 if q.is_generic else c.numerator % q.p == 0


def _direct_sum(c, d):
    """C (+) D, termwise, with block-diagonal boundaries."""
    ring, lo, hi = c.ring, min(c.lo, d.lo), max(c.hi, d.hi)
    terms = {i: c.term(i).direct_sum(d.term(i)) for i in range(lo, hi + 1)}
    bmaps = {i: _block_matrix(ring, [c.term(i - 1).gens, d.term(i - 1).gens],
                              [c.term(i).gens, d.term(i).gens],
                              {(0, 0): c.boundary(i).matrix, (1, 1): d.boundary(i).matrix})
             for i in range(lo + 1, hi + 1)}
    return BoundedComplex(ring, lo, hi, terms, bmaps)


def _scaled(cx, c):
    return ChainMap(cx, cx, {i: Matrix.diagonal(cx.ring, [c] * cx.term(i).gens)
                             for i in cx.degrees()})


def _inclusion(c, total, d):
    """C -> C (+) D = total."""
    ring = c.ring
    return ChainMap(c, total, {i: _block_matrix(ring, [c.term(i).gens, d.term(i).gens],
                                                [c.term(i).gens],
                                                {(0, 0): Matrix.identity(ring, c.term(i).gens)})
                               for i in total.degrees()})


def _projection(c, total, d):
    """C (+) D = total -> D."""
    ring = c.ring
    return ChainMap(total, d, {i: _block_matrix(ring, [d.term(i).gens],
                                                [c.term(i).gens, d.term(i).gens],
                                                {(0, 1): Matrix.identity(ring, d.term(i).gens)})
                               for i in total.degrees()})


def _with_homology(lit):
    """R^2 -diag(2, 0)-> R^2 followed by seeded free complexes: over the
    fields the seeded ones may have no homology at all."""
    ring = parse_ring(lit)
    return [two_term(ring, [[2, 0], [0, 0]], [2, 2]), *_seeded_complexes(lit, 31, count=2)]


def _fiber_rank_complexes(lit):
    """Free complexes, and the first three tensored with coker[1; 2], R/2,
    R/3, R/4 and R/9, so that every term has relations."""
    ring = parse_ring(lit)
    free = _with_homology(lit)
    twists = [FpModule(ring, 2, Matrix(ring, [[1], [2]]))] + [
        FpModule.cyclic(ring, d) for d in (2, 3, 4, 9)]
    return free + [tensor_with_module(m, cx) for cx in free[:3] for m in twists]


@pytest.mark.parametrize("lit", sorted(FIBER_RANK_SCALARS))
def test_chain_map_fiber_rank_closed_forms(lit):
    """ChainMap.fiber_rank in every degree at every point: the identity has
    rank dim H_i, the zero map 0, c * id one or the other as c vanishes in
    kappa(q) or not, and the inclusion C -> C (+) D and the projection
    C (+) D -> D have ranks dim H_i(C) and dim H_i(D)."""
    ring = parse_ring(lit)
    cases = _fiber_rank_complexes(lit)
    assert sum(not cx.is_free() for cx in cases) == 15
    seen = set()
    for n, cx in enumerate(cases):
        other = cases[(n + 1) % len(cases)]
        total = _direct_sum(cx, other)
        ident = _scaled(cx, 1)
        zero = ChainMap(cx, cx, {})
        scaled = [(c, _scaled(cx, c)) for c in FIBER_RANK_SCALARS[lit]]
        incl, proj = _inclusion(cx, total, other), _projection(cx, total, other)
        for q in _points(ring):
            for i in cx.degrees():
                dim = cx.fiber_homology_dim(q, i)
                seen.add((cx.is_free(), dim > 0))
                assert ident.fiber_rank(q, i) == dim, (n, q, i)
                assert zero.fiber_rank(q, i) == 0, (n, q, i)
                for c, f in scaled:
                    assert f.fiber_rank(q, i) == (0 if _vanishes_at(ring, c, q) else dim), (c, q, i)
            for i in total.degrees():
                assert incl.fiber_rank(q, i) == cx.fiber_homology_dim(q, i), (n, q, i)
                assert proj.fiber_rank(q, i) == other.fiber_homology_dim(q, i), (n, q, i)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _homotopic_scalar(rng, source, target, lit, c):
    """c * id + d h + h d from C = source to itself, or, with target
    C (+) C, two such maps stacked, for random maps h of degree +1."""
    ring, entries = source.ring, FIBER_RANK_SCALARS[lit] + [1, 1]

    def component():
        h = {i: Matrix(ring, [[rng.choice(entries) for _ in range(source.term(i).gens)]
                              for _ in range(source.term(i + 1).gens)],
                       cols=source.term(i).gens)
             for i in range(source.lo - 1, source.hi + 1)}
        return {i: (Matrix.diagonal(ring, [c] * source.term(i).gens)
                    + source.boundary(i + 1).matrix @ h[i] + h[i - 1] @ source.boundary(i).matrix)
                for i in source.degrees()}

    if target is source:
        return ChainMap(source, source, component())
    top, bottom = component(), component()
    return ChainMap(source, target, {i: _block_matrix(ring, [source.term(i).gens] * 2,
                                                      [source.term(i).gens],
                                                      {(0, 0): top[i], (1, 0): bottom[i]})
                                     for i in source.degrees()})


@pytest.mark.parametrize("lit", sorted(FIBER_RANK_SCALARS))
def test_chain_map_fiber_rank_matches_the_kernel_basis_route(lit):
    """On chain maps of free complexes, ChainMap.fiber_rank against the rank
    f_i K adds to the reduced image of e_{i+1}, K a kernel basis of the
    reduced d_i: endomorphisms c * id + d h + h d, maps into C (+) C, and
    2 x 2 scalar matrices acting blockwise on C (+) C, whose rank over
    kappa(q) may be 1."""
    ring = parse_ring(lit)
    rng = random.Random(f"fiber rank {lit}")
    scalars = FIBER_RANK_SCALARS[lit]
    compared, kinds = 0, set()

    def kind(f, q, i, rank):
        if rank == f.source.fiber_homology_dim(q, i) == f.target.fiber_homology_dim(q, i):
            return "iso"
        return "zero" if rank == 0 else "other"

    for cx in _with_homology(lit):
        doubled = _direct_sum(cx, cx)
        maps = [_homotopic_scalar(rng, cx, cx, lit, rng.choice(scalars)),
                _homotopic_scalar(rng, cx, doubled, lit, rng.choice(scalars))]
        for _ in range(2):
            a, b, c, e = (rng.choice(scalars + [1]) for _ in range(4))
            maps.append(ChainMap(doubled, doubled, {i: _block_matrix(
                ring, [cx.term(i).gens] * 2, [cx.term(i).gens] * 2,
                {(0, 0): Matrix.diagonal(ring, [a] * cx.term(i).gens),
                 (0, 1): Matrix.diagonal(ring, [b] * cx.term(i).gens),
                 (1, 0): Matrix.diagonal(ring, [c] * cx.term(i).gens),
                 (1, 1): Matrix.diagonal(ring, [e] * cx.term(i).gens)})
                for i in cx.degrees()}))
        for f in maps:
            for q in _points(ring):
                for i in range(f.source.lo - 1, f.source.hi + 2):
                    rank = f.fiber_rank(q, i)
                    assert rank == kernel_basis_fiber_rank(f, q, i), (q, i)
                    compared += 1
                    kinds.add(kind(f, q, i, rank))
    assert compared >= 150
    assert kinds == {"iso", "zero", "other"}


@pytest.mark.parametrize("lit", sorted(FIBER_RANK_SCALARS))
def test_chain_map_fiber_rank_in_degree_zero_is_the_module_map_fiber_rank(lit):
    """On modules in degree 0, the Gaussian block rank of
    ChainMap.fiber_rank(q, 0) equals ModuleMap.fiber_rank(q), read off
    elementary divisors, at every point of the map's prime set (and, over Z,
    at (2), (3) and (5)): seeded maps f: R^a / C -> R^b / [f C | E] between
    finitely presented modules, free ones included.  The source is padded
    with a zero term in degree -1 and the target with one in degree 1, so
    the block is read rather than the module map it equals."""
    ring = parse_ring(lit)
    rng = random.Random(f"degree-zero:{lit}")
    entries = FIBER_RANK_SCALARS[lit] + [1, -1, 4]
    zero = FpModule.zero(ring)

    def matrix(m, n):
        return Matrix(ring, [[rng.choice(entries) for _ in range(n)] for _ in range(m)], cols=n)

    checked = 0
    for _ in range(40):
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        f, c = matrix(b, a), matrix(a, rng.randint(0, 3))
        source = FpModule(ring, a, c)
        target = FpModule(ring, b, hstack([f @ c, matrix(b, rng.randint(0, 2))]))
        g = ModuleMap(source, target, f)
        padded = ChainMap(BoundedComplex(ring, -1, 0, {-1: zero, 0: source},
                                         {0: Matrix.zeros(ring, 0, a)}),
                          BoundedComplex(ring, 0, 1, {0: target, 1: zero},
                                         {1: Matrix.zeros(ring, b, 0)}), {0: f})
        for q in dict.fromkeys(map_prime_set(g) + _points(ring)):
            assert padded.fiber_rank(q, 0) == g.fiber_rank(q), (a, b, f, q)
            checked += 1
    assert checked >= 40


def test_chain_map_fiber_rank_rejects_points_outside_the_spectrum():
    z12 = integers_mod(12)
    cx = two_term(z12, [[2]], [1, 1])
    f = _scaled(cx, 1)
    assert f.fiber_rank(Prime.at(2), 0) == 1
    for q in (GENERIC, Prime.at(5)):
        with pytest.raises(InputError):
            f.fiber_rank(q, 0)


def test_chain_map_commuting_flag_skips_only_the_square_check():
    # commuting=True takes the caller's word for the squares (a lift_along
    # solves each one), so a non-commuting map is accepted and read as given
    c = two_term(ZZ, [[2]], [1, 1])
    maps = {0: Matrix(ZZ, [[1]]), 1: Matrix(ZZ, [[-1]])}
    with pytest.raises(InputError, match="commute"):
        ChainMap(c, c, maps)
    assert ChainMap(c, c, maps, commuting=True).at(1).matrix == Matrix(ZZ, [[-1]])
    with pytest.raises(InputError, match="common ring"):
        ChainMap(c, two_term(integers_mod(12), [[2]], [1, 1]), {}, commuting=True)
    with pytest.raises(InputError):
        ChainMap(c, c, {0: Matrix(ZZ, [[1, 0]])}, commuting=True)
    # a lift along resolutions passes the full check as well
    z4 = integers_mod(4)
    f = ModuleMap(FpModule.cyclic(z4, 2), FpModule.cyclic(z4, 2), Matrix(z4, [[1]]))
    res = free_resolution(f.source, 3)
    lifted = dict(enumerate(lift_along(f, res, res)))
    checked = ChainMap(res.complex, res.complex, lifted)
    trusted = ChainMap(res.complex, res.complex, lifted, commuting=True)
    assert all(checked.fiber_rank(Prime.at(2), i) == trusted.fiber_rank(Prime.at(2), i) == 1
               for i in range(3))


def test_shift_conventions():
    cx = two_term(ZZ, [[2]], [1, 1])
    assert shift(cx, 0).boundary(1).matrix == cx.boundary(1).matrix
    s1 = shift(cx, 1)
    assert s1.lo == 1 and s1.hi == 2
    assert s1.boundary(2).matrix == -cx.boundary(1).matrix
    s2 = shift(s1, 1)
    assert s2.boundary(3).matrix == shift(cx, 2).boundary(3).matrix
    assert shift(shift(cx, 3), -3).boundary(1).matrix == cx.boundary(1).matrix


def test_tensor_with_module_known_homology():
    cx = two_term(ZZ, [[2]], [1, 1])
    tensored = tensor_with_module(FpModule.cyclic(ZZ, 2), cx)
    assert tensored.homology(0).is_isomorphic_to(FpModule.cyclic(ZZ, 2))
    assert tensored.homology(1).is_isomorphic_to(FpModule.cyclic(ZZ, 2))


def test_koszul_ranks_and_low_homology():
    kx = koszul_complex(ZZ, [2, 3, 5])
    assert [kx.term(i).gens for i in range(4)] == [comb(3, i) for i in range(4)]
    assert kx.boundary(1).matrix.to_rows() == [[2, 3, 5]]
    for i in range(1, 4):
        assert kx.homology(i).is_zero()  # (2,3,5) is a regular sequence
    assert kx.homology(0).is_zero()  # the ideal is the whole ring
    k2 = koszul_complex(ZZ, [2])
    assert k2.homology(0).is_isomorphic_to(FpModule.cyclic(ZZ, 2))
    assert k2.homology(1).is_zero()


def test_koszul_on_non_regular_pair():
    kx = koszul_complex(ZZ, [4, 6])
    assert kx.homology(0).is_isomorphic_to(FpModule.cyclic(ZZ, 2))
    # syzygy (3,-2) against boundary image 2*(3,-2)
    assert kx.homology(1).is_isomorphic_to(FpModule.cyclic(ZZ, 2))
    assert kx.homology(2).is_zero()


def test_koszul_squares_to_zero_for_larger_sequences():
    koszul_complex(ZZ, [2, 3, 5, 7, 11])  # construction validates d*d = 0
    koszul_complex(integers_mod(35), [2, 3])
    koszul_complex(localized_at(3), [Fraction(3), Fraction(6)])


@pytest.mark.parametrize("elements", [[2], [2, 3], [2, 3, 5], [2, 3, 5, 7]])
def test_koszul_selfduality_over_z(elements):
    phi = koszul_selfduality(ZZ, elements)
    assert phi.is_isomorphism()
    d = len(elements)
    kx = koszul_complex(ZZ, elements)
    assert phi.source.lo == -d and phi.target.lo == -d
    assert phi.source.term(0).gens == 1 and phi.target.term(-d).gens == 1
    assert kx.term(d).gens == 1


def test_koszul_selfduality_over_zmod():
    phi = koszul_selfduality(integers_mod(35), [2, 3])
    assert phi.is_isomorphism()


def test_total_tensor_of_koszul_complexes_matches_joint_koszul():
    t = total_tensor(koszul_complex(ZZ, [2]), koszul_complex(ZZ, [3]))
    k = koszul_complex(ZZ, [2, 3])
    assert t.lo == k.lo and t.hi == k.hi
    for i in k.degrees():
        assert t.homology(i).is_isomorphic_to(k.homology(i)), i
    # and with a non-regular pair, where homology is nontrivial
    t = total_tensor(koszul_complex(ZZ, [4]), koszul_complex(ZZ, [6]))
    k = koszul_complex(ZZ, [4, 6])
    for i in k.degrees():
        assert t.homology(i).is_isomorphic_to(k.homology(i)), i


def test_total_tensor_signs_on_random_pairs():
    rng = random.Random(107)
    for _ in range(8):
        a = random_complex(rng, max_len=3, max_rank=3, population="contractible").complex
        b = random_complex(rng, max_len=3, max_rank=3, population="hypothesis-false").complex
        total_tensor(a, b)  # d*d = 0 is validated eagerly


def test_dual_mirrors_invariant_factors():
    cx = two_term(ZZ, [[2]], [1, 1])
    dx = dual(cx)
    assert dx.lo == -1 and dx.hi == 0
    assert dx.homology(-1).is_isomorphic_to(FpModule.cyclic(ZZ, 2))
    assert dx.homology(0).is_zero()
    ddx = dual(dx)
    assert ddx.lo == cx.lo and ddx.hi == cx.hi
    for i in range(cx.lo + 1, cx.hi + 1):
        assert ddx.boundary(i).matrix == cx.boundary(i).matrix
    with pytest.raises(InputError):
        dual(BoundedComplex.single(FpModule.cyclic(ZZ, 2)))


def test_null_homotopy_exhaustive_rank_one():
    # over Z a bounded free complex is contractible iff it is exact;
    # for [Z -a-> Z] that means a = +-1.
    for a in range(-3, 4):
        cx = two_term(ZZ, [[a]], [1, 1])
        cert = null_homotopy(cx)
        if abs(a) == 1:
            assert cert is not None and cert.verify()
        else:
            assert cert is None


def test_null_homotopy_exhaustive_diagonal_two_by_two():
    for a, b in product(range(-2, 3), repeat=2):
        cx = two_term(ZZ, [[a, 0], [0, b]], [2, 2])
        cert = null_homotopy(cx)
        assert (cert is not None) == (abs(a) == 1 and abs(b) == 1)


def test_null_homotopy_on_three_term_exact_complex():
    cx = BoundedComplex.free_complex(
        ZZ, 0, [1, 2, 1],
        [Matrix(ZZ, [[1, 1]]), Matrix(ZZ, [[1], [-1]])])
    assert cx.is_exact()
    cert = null_homotopy(cx)
    assert cert is not None and cert.verify()
    # dh + hd = id, spot-checked at degree 1
    d2, d1 = cx.boundary(2).matrix, cx.boundary(1).matrix
    h1, h0 = cert.h(1), cert.h(0)
    ident = Matrix.identity(ZZ, 2)
    assert d2 @ h1 + h0 @ d1 == ident


def test_homotopy_certificate_verify_rejects_corruption():
    cx = two_term(ZZ, [[1]], [1, 1])
    cert = null_homotopy(cx)
    assert cert is not None
    doctored = HomotopyCertificate(cx, {i: m for i, m in cert.maps.items()})
    bad = dict(doctored.maps)
    bad[0] = Matrix(ZZ, [[5]])
    assert not HomotopyCertificate(cx, bad).verify()


def test_null_homotopy_over_zmod_torsion_complex():
    # over Z/4 the truncated period [Z/4 -2-> Z/4] has Z/2 homology at
    # both ends (ker 2 = im 2 = (2) but nothing maps onto the kernel in
    # degree 1), so no contraction can exist.
    r = integers_mod(4)
    cx = two_term(r, [[2]], [1, 1])
    half = FpModule.cyclic(r, 2)
    assert cx.homology(1).is_isomorphic_to(half)
    assert cx.homology(0).is_isomorphic_to(half)
    assert null_homotopy(cx) is None


def _short_exact_complexes(n):
    """Every exact 0 -> R/a -f-> R/b -g-> R/c -> 0 over R = Z/n with a, b, c
    dividing n (R/n presented by the relation 0), as (complex, a, c).
    Exactness is decided on the underlying groups Z/a, Z/b, Z/c by counting:
    f injective, g surjective and |ker g| = a."""
    ring = integers_mod(n)
    divs = [d for d in range(1, n + 1) if n % d == 0]
    for a, c in product(divs, repeat=2):
        b = a * c
        if n % b:
            continue
        for f, g in product(range(n), repeat=2):
            if (f * a) % b or (g * b) % c or (g * f) % c:
                continue  # not maps of modules, or g f != 0
            if (len({f * x % b for x in range(a)}) != a
                    or len({g * y % c for y in range(b)}) != c
                    or sum(g * y % c == 0 for y in range(b)) != a):
                continue
            terms = {k: FpModule.cyclic(ring, d % n) for k, d in ((0, c), (1, b), (2, a))}
            maps = {1: Matrix(ring, [[g]]), 2: Matrix(ring, [[f]])}
            yield BoundedComplex(ring, 0, 2, terms, maps), a, c


@pytest.mark.parametrize("n", [4, 12, 18])
def test_null_homotopies_of_short_exact_sequences_are_module_maps(n):
    # a short exact sequence is contractible exactly when it splits, that
    # is when R/b = R/a + R/c, i.e. gcd(a, c) = 1
    count = 0
    for cx, a, c in _short_exact_complexes(n):
        count += 1
        cert = null_homotopy(cx)
        assert (cert is not None) == (gcd(a, c) == 1), (cx, a, c)
        if cert is not None:
            for i in (0, 1):
                ModuleMap(cx.term(i), cx.term(i + 1), cert.h(i))
    assert count


def test_homotopy_certificate_verify_rejects_non_maps():
    # 0 -> Z/4 -3-> Z/12 -2-> Z/3 -> 0 over Z/12: h_0 = 2 satisfies
    # d h + h d = id but does not carry 3 (the relation of Z/3) into the
    # relation 0 of the middle term
    r = integers_mod(12)
    terms = {0: FpModule.cyclic(r, 3), 1: FpModule.cyclic(r, 0), 2: FpModule.cyclic(r, 4)}
    cx = BoundedComplex(r, 0, 2, terms, {1: Matrix(r, [[2]]), 2: Matrix(r, [[3]])})
    assert not HomotopyCertificate(cx, {0: Matrix(r, [[2]]), 1: Matrix(r, [[3]])}).verify()
    cert = null_homotopy(cx)
    assert cert is not None and cert.h(0) == Matrix(r, [[8]])


def test_null_homotopy_over_zmod_split_complex():
    r = integers_mod(4)
    cx = two_term(r, [[1]], [1, 1])
    cert = null_homotopy(cx)
    assert cert is not None and cert.verify()


# -- the per-divisor correction against the Kronecker system -------------------

SES_SCALARS = {"Z": [(2, 3), (3, 2), (2, 2), (4, 3), (1, 5)],
               "Z/8": [(2, 4), (4, 2), (2, 2), (1, 2)],
               "Z/12": [(4, 3), (3, 4), (2, 6), (2, 3), (2, 2)],
               "Z/360": [(8, 45), (9, 40), (5, 72), (4, 6), (6, 10)],
               "Zloc/3": [(3, 3), (9, 1), (3, 2), (1, 9)],
               "F5": [(1, 1)]}


def _rebased(rng, cx):
    """cx with the generators of each term changed by a random unimodular U_j:
    relations U_j A_j and boundaries U_{j-1} d_j U_j^-1."""
    ring = cx.ring
    u = {j: random_unimodular(rng, ring, cx.term(j).gens, entry_bound=3) for j in cx.degrees()}
    terms = {j: FpModule(ring, cx.term(j).gens, u[j][0] @ cx.term(j).relations)
             for j in cx.degrees()}
    return BoundedComplex(ring, cx.lo, cx.hi, terms,
                          {j: u[j - 1][0] @ cx.boundary(j).matrix @ u[j][1]
                           for j in range(cx.lo + 1, cx.hi + 1)})


def _correction_cases(literal, seed, count):
    """Non-free complexes, rebased so that first lifts are often not maps of
    modules: those of _non_free_complexes, and sums of short exact
    sequences R/(a) -b-> R/(ab) -1-> R/(b) with an optional R -1-> R."""
    rng = random.Random(f"kronecker:{literal}:{seed}")
    ring = parse_ring(literal)
    for cx in _non_free_complexes(literal, seed, count):
        yield _rebased(rng, cx)
    for _ in range(6 * count):
        blocks = [rng.choice(SES_SCALARS[literal]) for _ in range(rng.randrange(1, 4))]
        k, iso = len(blocks), rng.randrange(2)
        rel = {2: [a for a, _ in blocks], 1: [a * b for a, b in blocks] + [0] * iso,
               0: [b for _, b in blocks] + [0] * iso}
        terms = {j: FpModule(ring, len(r), Matrix.diagonal(ring, r)) for j, r in rel.items()}
        bds = {2: Matrix.diagonal(ring, [b for _, b in blocks], k + iso, k),
               1: Matrix.identity(ring, k + iso)}
        yield _rebased(rng, BoundedComplex(ring, 0, 2, terms, bds))


@pytest.mark.parametrize("literal", sorted(SES_SCALARS))
def test_null_homotopy_agrees_with_the_kronecker_correction(monkeypatch, literal):
    corrections = []
    original = fiberflat.complexes._pullback

    def counted(wall, k):
        corrections.append(k)
        return original(wall, k)

    monkeypatch.setattr(fiberflat.complexes, "_pullback", counted)
    found = set()
    for cx in _correction_cases(literal, 71, 3):
        assert not cx.is_free()
        cert = null_homotopy(cx)
        ref = kronecker_null_homotopy(cx)
        assert (cert is None) == (ref is None), cx
        found.add(cert is not None)
        if cert is not None:
            assert cert.verify() and ref.verify()
            for i in cx.degrees():
                ModuleMap(cx.term(i), cx.term(i + 1), cert.h(i))
    assert found == {True, False}
    # only the correction reads the pullback; F5 has no non-unit divisor to correct
    assert literal == "F5" or len(corrections) >= 10
