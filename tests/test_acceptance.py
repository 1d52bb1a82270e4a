"""Acceptance suite: ten criteria, one test (and one pass/fail line) each.

Every check is exact integer or rational arithmetic, so there are no
numeric tolerances anywhere; the only pinned budgets are wall-clock
limits per criterion.  Seeds are fixed so reruns see the same instances.
"""

import random
import time
from fractions import Fraction

from fiberflat.complexes import dual, koszul_complex, koszul_selfduality, null_homotopy
from fiberflat.criteria import certify_projective_corollary, check_main_theorem
from fiberflat.generate import random_complex, random_fp_module
from fiberflat.linalg import (
    Matrix,
    det,
    field_rank,
    reduce_matrix,
    snf,
)
from fiberflat.modules import (
    FpModule,
    ModuleMap,
    ext_fiber,
    matrix_bad_primes,
    module_prime_set,
    purity_report,
    tor_fiber,
)
from fiberflat.rings import GENERIC, Prime, ZZ, integers_mod, is_prime
from fiberflat.towers import gallery

from _oracles import determinantal_divisors


class Budget:
    """Measure one criterion and enforce its wall-clock limit."""

    def __init__(self, number, seconds, detail=""):
        self.number = number
        self.seconds = seconds
        self.detail = detail

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"criterion {self.number}: PASS"
                  f" ({self.detail}; {elapsed:.1f}s < {self.seconds}s)")
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.1f}s)")
        return False


def test_criterion_01_main_theorem_on_1000_random_complexes():
    rng = random.Random(0xF1BE5)
    with Budget(1, 60, "1000 complexes, both populations, 0 violations"):
        true_seen = false_seen = 0
        for k in range(1000):
            population = "hypothesis-true" if k % 2 == 0 else "hypothesis-false"
            spec = random_complex(rng, max_len=5, max_rank=5, entry_bound=8,
                                  population=population)
            rep = check_main_theorem(spec.complex)
            assert rep.verdict != "VIOLATION"
            if population == "hypothesis-true":
                true_seen += 1
                assert rep.hypothesis_holds
                assert rep.conclusion_acyclic
                assert rep.h0.invariant_factors().torsion == ()
                assert rep.conclusion_h0_flat
                assert rep.tensor_family_acyclic
            else:
                false_seen += 1
                assert not rep.hypothesis_holds
        assert true_seen == false_seen == 500


def test_criterion_02_purity_equivalence_exhaustive_2x2():
    free2 = FpModule.free(ZZ, 2)
    with Budget(2, 10, "625 matrices, three conditions, 0 disagreements"):
        checked = 0
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in range(-2, 3):
                    for d in range(-2, 3):
                        f = ModuleMap(free2, free2, Matrix(ZZ, [[a, b], [c, d]]))
                        rep = purity_report(f)  # raises on disagreement
                        assert rep.injective_with_flat_cokernel == rep.pure \
                            == rep.fiberwise_injective
                        checked += 1
        assert checked == 625


def test_criterion_03_null_homotopy_certification():
    rng = random.Random(0xC0C0)
    with Budget(3, 30, "200 split-exact certified, 200 torsion rejected"):
        for _ in range(200):
            spec = random_complex(rng, max_len=5, max_rank=5, entry_bound=8,
                                  population="contractible")
            cert = certify_projective_corollary(spec.complex)
            assert cert.verify()  # dh + hd = id, exactly
        for _ in range(200):
            spec = random_complex(rng, max_len=5, max_rank=5, entry_bound=8,
                                  population="hypothesis-false")
            cx = spec.complex
            assert any(not cx.homology(i).is_zero() for i in cx.degrees())
            assert null_homotopy(cx) is None


def test_criterion_04_gallery_reciprocal_primes():
    with Budget(4, 5, "h_0 = 1 at (0) and 25 primes; not finitely generated"):
        rep = gallery("sum-inverse-primes", max_prime=100)
        assert rep.ok
        assert len(rep.rows) == 26  # generic point plus the primes up to 100
        for row in rep.rows:
            assert row.report.stabilized and row.report.value == 1
        assert any("not finitely generated: True" in note for note in rep.notes)


def test_criterion_05_gallery_p_power_torsion_tor():
    with Budget(5, 5, "p in {2,3,5}: Tor_0 = 0, Tor_1 = k, stable by stage 3"):
        for p in (2, 3, 5):
            rep = gallery("injective-hull", p=p)
            assert rep.ok
            by_label = {row.label: row.report for row in rep.rows}
            tor0 = by_label["Tor_0 at maximal"]
            tor1 = by_label["Tor_1 at maximal"]
            assert tor0.stabilized and tor0.value == 0 and tor0.at_stage <= 3
            assert tor1.stabilized and tor1.value == 1 and tor1.at_stage <= 3
            for label in ("Tor_0 at (0)", "Tor_1 at (0)"):
                assert by_label[label].value == 0


def test_criterion_06_gallery_dvr_fraction_field():
    with Budget(6, 5, "p in {2,3,5}: maximal fibers die, generic H_0 = 1"):
        for p in (2, 3, 5):
            rep = gallery("dvr-fraction-field", p=p)
            assert rep.ok
            by_label = {row.label: row.report for row in rep.rows}
            # stage complexes live in degree 0 only, so every other degree
            # is zero on the nose; degree 0 carries the whole story
            assert by_label["H_0 at maximal"].value == 0
            assert by_label["H_0 at (0)"].value == 1


def test_criterion_07_koszul_self_duality():
    cases = [(ZZ, [2]), (ZZ, [2, 3]), (ZZ, [2, 3, 5]), (ZZ, [2, 3, 5, 7]),
             (integers_mod(35), [2, 3])]
    with Budget(7, 5, "five element lists, exact chain isomorphisms"):
        for ring, elements in cases:
            phi = koszul_selfduality(ring, elements)
            assert phi.is_isomorphism()
            kx = koszul_complex(ring, elements)
            dk = dual(kx)
            d = len(elements)
            # the map runs dual(K) -> K[-d], both concentrated in [-d, 0]
            for i in range(-d, 1):
                assert phi.source.term(i).gens == dk.term(i).gens
                assert phi.target.term(i).gens == kx.term(i + d).gens


def test_criterion_08_ext_tor_duality_dimensions():
    rng = random.Random(0xE77)
    z12 = integers_mod(12)
    with Budget(8, 30, "200 modules over Z and 200 over Z/12, all degrees"):
        for _ in range(200):
            m = random_fp_module(rng, ZZ)
            for q in module_prime_set(m):
                for i in (0, 1):
                    assert ext_fiber(m, q, i, 2) == tor_fiber(m, q, i, 2)
        for _ in range(200):
            m = random_fp_module(rng, z12)
            for q in module_prime_set(m):
                for i in (0, 1, 2, 3):
                    assert ext_fiber(m, q, i, 4) == tor_fiber(m, q, i, 4)


def test_criterion_09_periodic_tor_over_z4():
    z4 = integers_mod(4)
    m = FpModule.cyclic(z4, 2)
    with Budget(9, 1, "Tor_i(F_2, Z/2) over Z/4, 0 <= i <= 6, all dim 1"):
        for i in range(7):
            assert tor_fiber(m, Prime.at(2), i, 7) == 1


def test_criterion_10_linear_algebra_foundation():
    rng = random.Random(0x5EED)
    prime_pool = [p for p in range(2, 200) if is_prime(p)]
    with Budget(10, 60, "10000 matrices: snf contract + 20 outside primes each"):
        for _ in range(10000):
            m = rng.randrange(0, 7)
            n = rng.randrange(0, 7)
            a = Matrix(ZZ, [[rng.randrange(-9, 10) for _ in range(n)]
                            for _ in range(m)], cols=n)
            dec = snf(a)
            assert dec.U @ dec.D @ dec.V == a
            assert det(dec.U) in (1, -1) and det(dec.V) in (1, -1)
            divisors = dec.elementary_divisors
            assert len(divisors) == min(m, n)
            for d, d_next in zip(divisors, divisors[1:]):
                if d == 0:
                    assert d_next == 0
                else:
                    assert d_next % d == 0
            running = 1
            for k, dd in enumerate(determinantal_divisors(a)):
                running *= divisors[k]
                assert dd == abs(running)
            # soundness: ranks only drop inside the reported prime set
            bad = matrix_bad_primes(a)
            generic_rank = field_rank(reduce_matrix(a, GENERIC))
            outside = [p for p in prime_pool if p not in bad][:20]
            assert len(outside) == 20
            for p in outside:
                assert field_rank(reduce_matrix(a, Prime.at(p))) == generic_rank
