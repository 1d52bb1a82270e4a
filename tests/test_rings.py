"""Ring layer: literals, arithmetic, residue fields, spectra."""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, strategies as st

from fiberflat import cli, rings
from fiberflat.errors import ContradictionError, InputError
from fiberflat.linalg import Matrix, rank_over_fiber, reduce_matrix
from fiberflat.modules import FpModule
from fiberflat.rings import (
    GENERIC, PRIMALITY_BOUND, Prime, QQ, ZZ, factor_trial, integers_mod, is_prime,
    localized_at, parse_prime, parse_ring, parse_scalar, prime_field, render_scalar,
)
from fiberflat.towers import TowerModule, sum_inverse_primes_tower, tower_fiber, tower_tor

from _oracles import fraction_rank, modp_rank, reduce_entry, trial_factor
from test_cli import _child_env


@pytest.mark.parametrize("literal", ["Z", "Q", "Z/12", "Z/7", "Zloc/5", "F3"])
def test_ring_literal_round_trip(literal):
    assert parse_ring(literal).literal() == literal


@pytest.mark.parametrize("literal", [
    "Z/1", "Z/0", "Z/-4", "F4", "F1", "Zloc/6", "Zloc/1", "Zp", "Q/2", "", "z",
])
def test_bad_ring_literals_rejected(literal):
    with pytest.raises(InputError):
        parse_ring(literal)


def test_zero_ring_rejected_at_construction():
    with pytest.raises(InputError):
        integers_mod(1)
    with pytest.raises(InputError):
        localized_at(9)
    with pytest.raises(InputError):
        prime_field(10)


def test_spectrum_sizes_match_distinct_prime_counts():
    # omega(n) points for Z/n; a DVR has two; fields have one.
    assert len(integers_mod(12).spectrum()) == 2
    assert len(integers_mod(30).spectrum()) == 3
    assert len(integers_mod(8).spectrum()) == 1
    assert len(localized_at(5).spectrum()) == 2
    assert len(prime_field(7).spectrum()) == 1
    assert len(QQ.spectrum()) == 1
    with pytest.raises(InputError):
        ZZ.spectrum()


def test_spectrum_membership():
    assert ZZ.admits(GENERIC) and ZZ.admits(Prime.at(97))
    assert localized_at(3).admits(Prime.at(3))
    assert not localized_at(3).admits(Prime.at(5))
    assert integers_mod(12).admits(Prime.at(2))
    assert not integers_mod(12).admits(Prime.at(5))
    assert not integers_mod(12).admits(GENERIC)


def test_residue_fields():
    assert ZZ.residue_field(Prime.at(5)).literal() == "F5"
    assert ZZ.residue_field(GENERIC).literal() == "Q"
    assert localized_at(5).residue_field(GENERIC).literal() == "Q"
    assert localized_at(5).residue_field(Prime.at(5)).literal() == "F5"
    assert integers_mod(12).residue_field(Prime.at(3)).literal() == "F3"
    assert prime_field(7).residue_field(GENERIC).literal() == "F7"
    with pytest.raises(InputError):
        ZZ.residue_field(Prime.at(6))


def test_residue_fields_are_built_once_per_prime(monkeypatch):
    """kappa(q) is built for every fiber reduction; building F_p again would
    re-run Miller-Rabin on p each time.  A rejected p is never cached."""
    prime_field(3)
    q = Prime.at(3)
    calls = []

    def counted(n):
        calls.append(n)
        return original(n)

    original = is_prime
    monkeypatch.setattr(rings, "is_prime", counted)
    assert tower_fiber(sum_inverse_primes_tower(), q, max_stage=8).stabilized
    assert calls == []
    for _ in range(2):
        with pytest.raises(InputError):
            prime_field(6)
    assert calls == [6, 6]


def _reduce_scalar(ring, q, x):
    (y,) = reduce_matrix(Matrix(ring, [[x]]), q).row(0)
    return y


def test_residue_reduction_values():
    assert _reduce_scalar(ZZ, Prime.at(5), 7) == 2
    assert _reduce_scalar(ZZ, GENERIC, 7) == Fraction(7)
    # 7/2 at (3): 2 is a unit, inverse 2, so 7*2 = 14 = 2 mod 3.
    assert _reduce_scalar(localized_at(3), Prime.at(3), Fraction(7, 2)) == 2
    assert _reduce_scalar(integers_mod(12), Prime.at(2), 7) == 1


# Every ring with the points of its spectrum; Spec Z is sampled.
RING_POINTS = [
    (ZZ, [GENERIC, Prime.at(2), Prime.at(3), Prime.at(5), Prime.at(7)]),
    (integers_mod(12), [Prime.at(2), Prime.at(3)]),
    (integers_mod(360), [Prime.at(2), Prime.at(3), Prime.at(5)]),
    (localized_at(3), [GENERIC, Prime.at(3)]),
    (QQ, [GENERIC]),
    (prime_field(5), [GENERIC]),
]


@pytest.mark.parametrize("ring, points", RING_POINTS, ids=[str(r) for r, _ in RING_POINTS])
@given(data=st.data())
def test_reduce_matrix_matches_entrywise_reduction(ring, points, data):
    m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    if ring.uses_fractions:
        # denominators coprime to 3 keep every entry in Zloc/3
        den = st.sampled_from([1, 2, 4, 5, 7, 10]) if ring.kind == "Zloc" else st.integers(1, 12)
        entry = st.builds(Fraction, st.integers(-50, 50), den)
    else:
        entry = st.integers(-400, 400)
    a = Matrix(ring, [[data.draw(entry) for _ in range(n)] for _ in range(m)], cols=n)
    for q in points:
        reduced = reduce_matrix(a, q)
        assert reduced.ring == ring.residue_field(q)
        assert (reduced.rows, reduced.cols) == (a.rows, a.cols)
        expected = [[reduce_entry(ring.kind, q.p, x) for x in r] for r in a.to_rows()]
        assert reduced.to_rows() == expected
        assert all(type(x) is type(y) for r, e in zip(reduced.to_rows(), expected)
                   for x, y in zip(r, e))


@pytest.mark.parametrize("ring, q, doc", [
    (localized_at(3), Prime.at(5), {"lo": 0, "hi": 1, "ranks_or_terms": [1, 1],
                                    "boundaries": [[[3]]]}),
    (integers_mod(12), GENERIC, {"lo": 0, "hi": 1, "ranks_or_terms": [1, 1],
                                 "boundaries": [[[2]]]}),
], ids=["Zloc3-at-5", "Z12-generic"])
def test_inadmissible_points_give_one_message(capsys, ring, q, doc):
    """residue_field alone rejects a point outside Spec R; the fiber rank,
    the reduction, the fibers command and the tower reports all say so in
    its words."""
    expected = f"{q} is not a point of Spec {ring}"
    a = Matrix(ring, [[1, 2]])
    for call in (lambda: ring.residue_field(q), lambda: rank_over_fiber(a, q),
                 lambda: reduce_matrix(a, q)):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == expected
    text = json.dumps({"version": 1, "ring": ring.literal(), "complex": doc})
    assert cli.main(["fibers", "--primes", q.literal(), text]) == 2
    assert capsys.readouterr().err == f"input error: {expected}\n"
    tower = TowerModule(ring, lambda n: FpModule.cyclic(ring, 2),
                        lambda n: Matrix(ring, [[1]]))
    for report in (lambda: tower_fiber(tower, q, max_stage=2),
                   lambda: tower_tor(tower, q, 1, max_stage=2)):
        with pytest.raises(InputError) as exc:
            report()
        assert str(exc.value) == expected


def test_generic_prime_ordering_and_literals():
    primes = [Prime.at(5), GENERIC, Prime.at(2)]
    ordered = sorted(primes, key=lambda q: q.sort_key())
    assert [q.literal() for q in ordered] == ["0", "2", "5"]
    assert parse_prime("0") == GENERIC
    assert parse_prime("11") == Prime.at(11)
    with pytest.raises(InputError):
        parse_prime("x")


def test_canonical_representatives():
    assert integers_mod(6).canon(-1) == 5
    assert ZZ.canon(-3) == -3
    assert localized_at(3).canon(Fraction(4, 2)) == Fraction(2)
    with pytest.raises(InputError):
        localized_at(3).canon(Fraction(1, 3))
    with pytest.raises(InputError):
        integers_mod(6).canon(Fraction(1, 2))


def test_units():
    assert ZZ.is_unit(-1) and not ZZ.is_unit(2) and not ZZ.is_unit(0)
    assert integers_mod(12).is_unit(5) and not integers_mod(12).is_unit(4)
    assert localized_at(3).is_unit(Fraction(2, 5)) and not localized_at(3).is_unit(Fraction(3))
    assert QQ.is_unit(Fraction(-7, 2)) and not QQ.is_unit(Fraction(0))
    assert prime_field(5).is_unit(3) and not prime_field(5).is_unit(0)


def test_valuation():
    assert localized_at(2).valuation(Fraction(12, 5)) == 2
    assert localized_at(2).valuation(Fraction(0)) is None
    with pytest.raises(InputError, match="valuations are taken in Z_"):
        ZZ.valuation(40)


def test_factor_agrees_with_factor_trial_and_valuation():
    """BaseRing.factor names the primes of R dividing x: the product of p^e
    is |x| over Z, the p-part over Z_(p), gcd(x, n) over Z/n, and 1 over
    the fields."""
    rng = random.Random(27)
    for _ in range(300):
        x = rng.choice([1, -1]) * rng.randint(1, 10 ** 7)
        fac = ZZ.factor(x)
        assert fac == factor_trial(abs(x)) and prod(p ** e for p, e in fac.items()) == abs(x)
        n = rng.randint(2, 10 ** 5)
        for y in (x, 0):
            fac = integers_mod(n).factor(y)
            assert fac == factor_trial(gcd(y, n))
            assert prod(p ** e for p, e in fac.items()) == gcd(y, n)
        for p in (2, 3, 5, 7):
            ring = localized_at(p)
            y = Fraction(x, rng.choice([d for d in (1, 2, 3, 5, 7, 11) if d % p]))
            fac, v = ring.factor(y), ring.valuation(y)
            assert fac == ({p: v} if v else {}) and v == factor_trial(abs(x)).get(p, 0)
            assert prod(q ** e for q, e in fac.items()) == p ** v
        assert prime_field(7).factor(x) == {} and QQ.factor(Fraction(x, 3)) == {}
    assert integers_mod(360).factor(0) == {2: 3, 3: 2, 5: 1}
    for ring in (ZZ, localized_at(3)):
        with pytest.raises(InputError, match="factor"):
            ring.factor(0)


def test_factor_trial_matches_trial_division():
    """Seeded n up to 10^12, a tenth of them near the top, against plain
    trial division; every n the library workloads factor, 2..360, keeps
    its sorted dict."""
    rng = random.Random(28)
    draws = [rng.randint(1, 10 ** rng.randint(1, 12)) for _ in range(360)]
    draws += [rng.randint(10 ** 11, 10 ** 12) for _ in range(40)]
    for n in draws + list(range(1, 361)):
        assert list(factor_trial(n).items()) == sorted(trial_factor(n).items()), n


def _random_prime(rng, bits):
    while True:
        p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if is_prime(p):
            return p


def test_factor_trial_splits_semiprimes_past_trial_division():
    rng = random.Random(40)
    for _ in range(12):
        p, q = (_random_prime(rng, rng.randint(20, 40)) for _ in range(2))
        fac = factor_trial(p * q)
        assert prod(f ** e for f, e in fac.items()) == p * q
        assert all(is_prime(f) for f in fac) and set(fac) == {p, q}
    assert factor_trial(18446744400127067027) == {4294967311: 1, 4294967357: 1}
    # a prime power: every batch gcd is the whole cofactor, so rho replays it
    assert factor_trial(1000003 ** 3 * 1000033) == {1000003: 3, 1000033: 1}
    assert factor_trial(4294967311 ** 2) == {4294967311: 2}


def test_factor_trial_step_budget(monkeypatch):
    """The budget is FACTOR_STEPS steps of rho, and running out names n."""
    monkeypatch.setattr(rings, "FACTOR_STEPS", 1000)
    with pytest.raises(InputError, match="cannot factor 18446744400127067027 within 1000 steps"):
        factor_trial(18446744400127067027)
    assert factor_trial(1021 * 1031 * 1033) == {1021: 1, 1031: 1, 1033: 1}


def test_factor_trial_checks_its_product(monkeypatch):
    """A rho step that returned a non-divisor would lose part of n."""
    monkeypatch.setattr(rings, "_rho_divisor", lambda m, steps: (2, steps))
    with pytest.raises(ContradictionError, match="multiply to"):
        factor_trial(18446744400127067027)


def test_prime_looking_factor_past_the_bound_exits_2(capsys):
    """The small factor splits off; the cofactor, a prime at or above
    PRIMALITY_BOUND, cannot be certified, so the command exits 2."""
    big = 2 ** 89 - 1
    assert big >= PRIMALITY_BOUND
    with pytest.raises(InputError, match=f"its factor {big},"):
        factor_trial(6 * big)
    doc = json.dumps({"version": 1, "ring": f"Z/{6 * big}", "complex": {
        "lo": 0, "hi": 0, "ranks_or_terms": [1], "boundaries": []}})
    assert cli.main(["check-theorem", doc]) == 2
    assert "input error: cannot factor" in capsys.readouterr().err


def test_a_factor_past_the_bound_is_refused_after_one_strong_test_round(monkeypatch):
    """No number of Miller-Rabin bases proves a factor at or above
    PRIMALITY_BOUND prime, so factor_trial refuses one that passes the
    strong test to base 2 without trying the other 12: one modular
    exponentiation on the least probable prime past the bound."""
    big = next(n for n in range(PRIMALITY_BOUND | 1, PRIMALITY_BOUND + 10 ** 4, 2)
               if all(n % a for a in rings._MR_BASES) and rings._strong_probable_prime(n))
    bases = []
    monkeypatch.setattr(rings, "pow", lambda *args: bases.append(args[0]) or pow(*args),
                        raising=False)
    with pytest.raises(InputError, match=f"its factor {big},"):
        factor_trial(big)
    assert bases == [2]


def test_factor_budget_ends_a_128_bit_semiprime():
    """As one CLI process: exit 2 with an input error, in bounded time."""
    rng = random.Random(128)
    n = _random_prime(rng, 64) * _random_prime(rng, 64)
    doc = json.dumps({"version": 1, "ring": "Z", "complex": {
        "lo": 0, "hi": 1, "ranks_or_terms": [1, 1], "boundaries": [[[n]]]}})
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fiberflat", "badprimes", doc],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"input error: cannot factor {n} within")
    assert elapsed < 5, elapsed


def test_is_prime_matches_a_sieve():
    n = 10 ** 5
    sieve = [True] * n
    sieve[0] = sieve[1] = False
    for k in range(2, int(n ** 0.5) + 1):
        if sieve[k]:
            sieve[k * k::k] = [False] * len(range(k * k, n, k))
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]


def test_is_prime_on_large_integers():
    # strong pseudoprimes to bases 2..7 and to bases 2..23 respectively
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 18 + 3)
    assert not is_prime((10 ** 6 + 3) * (10 ** 6 + 33))
    # no answer past the bound where the 13 bases are proven exact
    is_prime(PRIMALITY_BOUND - 1)
    with pytest.raises(InputError, match="primality"):
        is_prime(PRIMALITY_BOUND)
    with pytest.raises(InputError):
        Prime.at(2 ** 89 - 1)


def test_try_divide():
    assert ZZ.try_divide(6, 2) == 3
    assert ZZ.try_divide(6, 4) is None
    # 2y = 6 mod 12 has solutions {3, 9}; the canonical answer is the least.
    assert integers_mod(12).try_divide(6, 2) == 3
    assert integers_mod(12).try_divide(5, 2) is None
    assert localized_at(3).try_divide(Fraction(3), Fraction(9)) is None
    assert localized_at(3).try_divide(Fraction(9), Fraction(3)) == 3
    assert QQ.try_divide(Fraction(1), Fraction(3)) == Fraction(1, 3)


def test_scalar_parse_render_round_trip():
    assert parse_scalar(ZZ, -4) == -4
    assert parse_scalar(localized_at(3), "7/2") == Fraction(7, 2)
    assert render_scalar(Fraction(7, 2)) == "7/2"
    assert render_scalar(Fraction(4)) == 4
    assert render_scalar(-4) == -4
    with pytest.raises(InputError):
        parse_scalar(ZZ, True)
    with pytest.raises(InputError):
        parse_scalar(ZZ, "2/0")
    with pytest.raises(InputError):
        parse_scalar(integers_mod(6), "1/2")


small_int = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrix_pair(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    a = [[draw(small_int) for _ in range(k)] for _ in range(m)]
    b = [[draw(small_int) for _ in range(n)] for _ in range(k)]
    return a, b


@given(int_matrix_pair(), st.sampled_from([None, 2, 3, 5]))
def test_reduce_matrix_is_multiplicative(pair, p):
    a_rows, b_rows = pair
    q = GENERIC if p is None else Prime.at(p)
    a = Matrix(ZZ, a_rows)
    b = Matrix(ZZ, b_rows)
    assert reduce_matrix(a @ b, q) == reduce_matrix(a, q) @ reduce_matrix(b, q)


@given(int_matrix_pair(), st.sampled_from([None, 2, 3, 5]))
def test_rank_over_fiber_matches_reduced_gaussian_rank(pair, p):
    a_rows, _ = pair
    a = Matrix(ZZ, a_rows)
    if p is None:
        expected = fraction_rank(a_rows, a.cols)
        q = GENERIC
    else:
        expected = modp_rank(a_rows, a.cols, p)
        q = Prime.at(p)
    assert rank_over_fiber(a, q) == expected
