"""Exact linear algebra kernel: SNF, ranks, divisors, solving, syzygies."""

import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from fiberflat.errors import ContradictionError, InputError
from fiberflat.linalg import (
    Matrix, _block_matrix, _snf_full, det, field_rank, hstack,
    rank_over_fiber, reduce_matrix, snf, solve_integral, syzygy_matrix,
)
from fiberflat import linalg, modules
from fiberflat.complexes import BoundedComplex
from fiberflat.criteria import check_main_theorem, is_universally_exact, tor_flatness_criterion
from fiberflat.generate import random_complex, random_fp_module, random_unimodular
from fiberflat.modules import FpModule, ModuleMap, matrix_bad_primes, module_prime_set
from fiberflat.rings import (
    GENERIC, Prime, QQ, ZZ, integers_mod, localized_at, prime_field,
)

from _oracles import (
    box_kernel, box_solve, determinantal_divisors, fraction_rank, minor_gcd,
    modp_rank, naive_det, zmod_kernel, zmod_span,
)

entry = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrix(draw, max_dim=5):
    m = draw(st.integers(min_value=0, max_value=max_dim))
    n = draw(st.integers(min_value=0, max_value=max_dim))
    return Matrix(ZZ, [[draw(entry) for _ in range(n)] for _ in range(m)], cols=n)


def assert_snf_contract(a):
    dec = snf(a)
    assert dec.verify(a)
    assert dec.U @ dec.D @ dec.V == a
    ring = a.ring
    assert ring.is_unit(det(dec.U)) and ring.is_unit(det(dec.V))
    divisors = dec.elementary_divisors
    assert len(divisors) == min(a.rows, a.cols)
    seen_zero = False
    for i, d in enumerate(divisors):
        assert d == ring.canon(d)
        if d == 0:
            seen_zero = True
            continue
        assert not seen_zero, "nonzero divisor after a zero one"
        if i + 1 < len(divisors) and divisors[i + 1] != 0:
            assert ring.try_divide(divisors[i + 1], d) is not None
    # off-diagonal of D vanishes
    for i in range(dec.D.rows):
        for j in range(dec.D.cols):
            if i != j:
                assert dec.D[i, j] == 0


@given(int_matrix())
def test_snf_contract_over_z(a):
    assert_snf_contract(a)
    for d in snf(a).elementary_divisors:
        assert d >= 0


@given(int_matrix(max_dim=4), st.sampled_from([4, 8, 9, 12, 30, 360]))
def test_snf_contract_over_zmod(a, n):
    ring = integers_mod(n)
    b = Matrix(ring, [[ring.canon(x % n) for x in row] for row in a.to_rows()],
               cols=a.cols)
    assert_snf_contract(b)
    # each divisor is gcd(e, n) for the integer divisor e of the lift
    # (0 for n), a divisor of n
    lifted = snf(Matrix(ZZ, b.to_rows(), cols=b.cols)).elementary_divisors
    divisors = snf(b).elementary_divisors
    assert divisors == tuple(gcd(e, n) % n for e in lifted)
    assert all(n % (d or n) == 0 for d in divisors)


@st.composite
def fraction_matrix(draw, ring, max_dim=4):
    """Entries a/b with b coprime to p over Z_(p), any b != 0 over Q."""
    p = ring.param
    den = st.integers(min_value=-12, max_value=12).filter(
        lambda b: b != 0 and (p is None or b % p != 0))
    m = draw(st.integers(min_value=0, max_value=max_dim))
    n = draw(st.integers(min_value=0, max_value=max_dim))
    return Matrix(ring, [[Fraction(draw(entry), draw(den)) for _ in range(n)]
                         for _ in range(m)], cols=n)


@given(st.sampled_from([2, 3]).flatmap(lambda p: fraction_matrix(localized_at(p))))
def test_snf_contract_over_zloc(b):
    ring, p = b.ring, b.ring.param
    assert_snf_contract(b)
    divisors = snf(b).elementary_divisors
    for d in divisors:
        if d != 0:
            # canonical form is a pure power of p
            assert d == p ** ring.valuation(d)
    # independent route: the k-th determinantal divisor is e_1 * ... * e_k
    for k, dk in enumerate(determinantal_divisors(b), start=1):
        assert prod(divisors[:k]) == dk


@given(st.one_of(
    fraction_matrix(QQ),
    int_matrix(max_dim=4).map(lambda a: Matrix(prime_field(5), a.to_rows(), cols=a.cols))))
def test_snf_contract_over_fields(b):
    ring = b.ring
    assert_snf_contract(b)
    for d in snf(b).elementary_divisors:
        assert d == ring.one or d == ring.zero


@given(st.sampled_from([QQ, localized_at(3)]).flatmap(fraction_matrix))
def test_product_over_fraction_rings_matches_fraction_arithmetic(a):
    rows = a.to_rows()
    product = (a @ a.transpose()).to_rows()
    assert product == [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in rows]
                       for r in rows]
    assert all(isinstance(x, Fraction) for r in product for x in r)


def test_pinned_snf_example():
    a = Matrix(ZZ, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert snf(a).elementary_divisors == (2, 2, 156)
    # cross-check against raw minor gcds: e_k = d_k / d_{k-1}
    rows = a.to_rows()
    d1, d2, d3 = (minor_gcd(rows, k) for k in (1, 2, 3))
    assert (d1, d2 // d1, d3 // d2) == (2, 2, 156)


def test_zmod_divisors_are_gcds_with_n():
    # The pinned convention over Z/n: each divisor is gcd(e, n) for the
    # integer kernel's divisor e, the generator of (e) that invariant
    # factors report; the unit e / gcd(e, n) is folded into V.
    ring = integers_mod(12)
    assert snf(Matrix(ring, [[8]])).elementary_divisors == (4,)
    assert snf(Matrix(ring, [[5]])).elementary_divisors == (1,)
    assert snf(Matrix(ring, [[6, 0], [0, 9]])).elementary_divisors == (3, 6)
    # 8 = 4 * 5 with the unit 5 in V (5 * 5 = 1 mod 12)
    dec = snf(Matrix(ring, [[8]]))
    assert (dec.U.to_rows(), dec.D.to_rows(), dec.V.to_rows()) == ([[1]], [[4]], [[5]])
    # the divisor 4 vanishes in kappa(2) and not in kappa(3)
    assert rank_over_fiber(Matrix(ring, [[8]]), Prime.at(2)) == 0
    assert rank_over_fiber(Matrix(ring, [[8]]), Prime.at(3)) == 1


def _lift_over(rng, k, m, n):
    """A random integer lift of an m x n matrix over Z/k: entries in
    [-2k, 2k] (negative ones and ones >= k included), with zero rows and
    columns now and then."""
    rows = [[rng.randint(-2 * k, 2 * k) for _ in range(n)] for _ in range(m)]
    for i in range(m):
        if rng.random() < 0.2:
            rows[i] = [0] * n
    for j in range(n):
        if rng.random() < 0.2:
            for r in rows:
                r[j] = 0
    return rows


def test_modular_kernel_divisors_match_the_integer_kernel():
    # Over Z/k and F_p the kernel eliminates modulo k; its divisors, taken
    # as gcd(d, k), must be those of the integer kernel (modulus 0) on the
    # same lift, and its moves must carry the lift to its diagonal mod k.
    rng = random.Random(16)
    rings = [integers_mod(k) for k in (2, 4, 8, 12, 27, 360, 997, 1000)]
    rings += [prime_field(2), prime_field(5)]
    for ring in rings:
        k = ring.param
        shapes = [(0, 3), (3, 0), (0, 0)]
        shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
        for m, n in shapes:
            rows = _lift_over(rng, k, m, n)
            D, row_moves, col_moves = linalg._snf_int(rows, m, n, k)
            D0 = linalg._snf_int(rows, m, n, 0)[0]
            r = min(m, n)
            assert [gcd(D[i][i], k) % k for i in range(r)] == \
                [gcd(D0[i][i], k) % k for i in range(r)]
            ui = linalg._replay(m, row_moves)
            vi_t = linalg._replay(n, col_moves)
            product = [[sum(ui[i][s] * rows[s][t] * vi_t[j][t]
                            for s in range(m) for t in range(n)) for j in range(n)]
                       for i in range(m)]
            assert [[x % k for x in row] for row in product] == \
                [[x % k for x in row] for row in D]
            assert all(D[i][j] % k == 0 for i in range(m) for j in range(n) if i != j)
            a = Matrix(ring, rows, cols=n)
            dec = snf(a)
            assert dec.verify(a)
            assert dec.elementary_divisors == tuple(gcd(D0[i][i], k) % k for i in range(r))
            # multipliers below k keep the replayed witnesses small
            assert all(abs(q) <= k for *_, q in dec.row_moves + dec.col_moves)


def test_modular_replay_is_the_integer_replay_reduced():
    # Over Z/k and F_p the witnesses are replayed modulo k, row by row; they
    # must equal the integer replay reduced afterwards, entry for entry.
    rng = random.Random(40)
    for ring in [integers_mod(k) for k in (8, 12, 360)] + [prime_field(5)]:
        k = ring.param
        for _ in range(25):
            m, n = rng.randint(0, 9), rng.randint(0, 9)
            a = Matrix(ring, [[rng.randint(-400, 400) for _ in range(n)] for _ in range(m)],
                       cols=n)
            dec = snf(a)
            assert dec.row_moves is None  # the divisor pass records no moves
            row_moves, col_moves, _ = dec._moves()
            for size, moves in ((m, row_moves), (n, col_moves)):
                for inverse in (False, True):
                    reduced = [[x % k for x in r] for r in linalg._replay(size, moves, inverse)]
                    assert linalg._replay(size, moves, inverse, k) == reduced
            integer = linalg._replay(m, row_moves)
            assert dec.Ui.to_rows() == [[x % k for x in r] for r in integer]
            assert dec.verify(a)


def test_verify_rejects_a_non_invertible_witness_over_z12():
    # With A = 0, U @ D @ V = A holds whatever U and V are, so only the
    # invertibility check can reject them: U @ Ui = I and V @ Vi = I mod 12.
    z12 = integers_mod(12)
    a = Matrix.zeros(z12, 2, 2)
    for witness, bad in (("U", [[2, 0], [0, 1]]), ("V", [[1, 0], [0, 3]])):
        dec = linalg.SnfDecomposition(z12, 2, 2, (0, 0), 1, a.to_rows(), [], [], [])
        assert dec.verify(a)
        dec = linalg.SnfDecomposition(z12, 2, 2, (0, 0), 1, a.to_rows(), [], [], [])
        setattr(dec, witness, Matrix(z12, bad))
        assert dec.U @ dec.D @ dec.V == a
        assert not dec.verify(a), witness


def test_verify_rejects_a_non_unimodular_witness_over_domains():
    # Over Z, Z_(p) and Q only the determinant check can reject a witness
    # when A = 0: U and V must have unit determinants.
    for ring, p in ((ZZ, 2), (localized_at(3), 3), (QQ, 0)):
        a = Matrix.zeros(ring, 2, 2)
        lift = [[0, 0], [0, 0]]
        for witness, bad in (("U", [[p, 0], [0, 1]]), ("V", [[1, 2], [2, 4]])):
            dec = linalg.SnfDecomposition(ring, 2, 2, (ring.zero,) * 2, 1, lift, [], [], [])
            assert dec.verify(a)
            dec = linalg.SnfDecomposition(ring, 2, 2, (ring.zero,) * 2, 1, lift, [], [], [])
            setattr(dec, witness, Matrix(ring, bad))
            assert dec.U @ dec.D @ dec.V == a
            assert not dec.verify(a), (ring, witness)


def test_chain_check_rejects_a_broken_chain_and_a_leading_zero():
    z12 = integers_mod(12)
    assert linalg._chain_ok(ZZ, (1, 2, 6, 0, 0))
    assert linalg._chain_ok(z12, (2, 4, 0))
    assert not linalg._chain_ok(ZZ, (2, 3))  # 2 does not divide 3
    assert not linalg._chain_ok(z12, (4, 2))
    assert not linalg._chain_ok(localized_at(3), (Fraction(3), Fraction(1)))
    for ring, late in ((ZZ, 2), (QQ, Fraction(1)), (z12, 3), (z12, 12)):
        assert not linalg._chain_ok(ring, (0, late)), (ring, late)  # a zero before a nonzero


def test_verify_rejects_an_altered_divisor():
    # verify forms U @ D by scaling U's columns by the divisors; with the last
    # nonzero divisor set to 0 the chain still holds and U, V are unchanged,
    # so only the reconstruction can reject it.  The altered copy keeps the
    # kernel's moves, which verifying the original first has run.
    rng = random.Random(43)
    for ring in (ZZ, integers_mod(360), integers_mod(12), localized_at(3), prime_field(5), QQ):
        for m, n in ((3, 3), (2, 4), (4, 2), (5, 5)):
            a = Matrix(ring, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], cols=n)
            dec = snf(a)
            nonzero = [k for k, e in enumerate(dec.elementary_divisors) if e != 0]
            if not nonzero:
                continue
            divisors = list(dec.elementary_divisors)
            divisors[nonzero[-1]] = ring.zero
            assert dec.verify(a)
            altered = linalg.SnfDecomposition(ring, m, n, tuple(divisors), dec.scale, dec.lift,
                                              dec.row_moves, dec.col_moves, dec.units)
            assert not altered.verify(a), (ring, m, n)


MINOR_ROUTE_RINGS = [ZZ, localized_at(2), localized_at(3), QQ]
Q100 = 2 ** 100 - 15  # a 100-bit prime


def _kernel_divisors(ring, a):
    """The canonical divisors of the integer kernel (modulus 0) on A's lift."""
    _, lift = linalg._integral_lift(a)
    D = linalg._snf_int(lift, a.rows, a.cols, 0)[0]
    out = []
    for i in range(min(a.rows, a.cols)):
        d = abs(D[i][i])
        if ring.kind == "Q":
            d = int(d != 0)
        elif ring.kind == "Zloc" and d:
            c = 1
            while d % (c * ring.param) == 0:
                c *= ring.param
            d = c
        out.append(Fraction(d) if ring.uses_fractions else d)
    return tuple(out)


def _planted(rng, m, n, chain):
    """U @ diag(1, ..., 1, *chain) @ V, m x n, for seeded unimodular U and V."""
    d = Matrix.diagonal(ZZ, [1] * (min(m, n) - len(chain)) + chain, m, n)
    u, _ = random_unimodular(rng, ZZ, m, entry_bound=400, steps=3 * m)
    v, _ = random_unimodular(rng, ZZ, n, entry_bound=400, steps=3 * n)
    return (u @ d @ v).to_rows()


def _minor_route_cases(rng):
    """(m, n, rows): 0 x k, k x 0, 0 x 0, 1 x 1, zero, rank-deficient,
    square and non-square shapes up to 12 x 12 with entries in [-400, 400],
    planted divisors diag(1, ..., 1, 2^a 3^b q) with q a 100-bit prime, and
    planted square chains diag(1, ..., 1, 6, 6q)."""
    cases = [(0, 4, []), (4, 0, [[]] * 4), (0, 0, []), (3, 5, [[0] * 5] * 3),
             (1, 1, [[0]]), (1, 1, [[-7]]), (1, 1, [[12 * Q100]]), (3, 3, [[0] * 3] * 3),
             (3, 3, [[2, 4, 6], [1, 1, 1], [5, 7, 9]])]
    for _ in range(60):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        rows = [[rng.randint(-400, 400) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.4:  # rank-deficient: a row a combination of two others
            rows[-1] = [2 * x - 3 * y for x, y in zip(rows[0], rows[m // 2])]
        cases.append((m, n, rows))
    for m, n in ((5, 7), (7, 5), (12, 10), (1, 3), (6, 6), (9, 12)):
        planted = 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 3) * Q100
        cases.append((m, n, _planted(rng, m, n, [planted])))
    for n in (2, 3, 5, 8, 12):
        cases.append((n, n, _planted(rng, n, n, [6, 6 * Q100])))
    return cases


@pytest.mark.parametrize("ring", MINOR_ROUTE_RINGS, ids=str)
def test_minor_route_divisors_match_the_integer_kernel(ring, monkeypatch):
    # Over Z, Z_(p) and Q, whatever the shape, the divisors come from two
    # minors and the divisor pass modulo their gcd; they must be the integer
    # kernel's.  A planted 100-bit divisor of a non-square matrix must take
    # the modular path; in a planted square chain (6, 6q) the pass runs
    # modulo a multiple of 6, and the last divisor is |det| / (s_1...s_{n-1}).
    passes = _counted(monkeypatch, "_divisors_mod")
    kernels = _counted(monkeypatch, "_snf_int")
    rng = random.Random(f"minor-route:{ring}")
    planted = squares = 0
    for m, n, rows in _minor_route_cases(rng):
        if ring.uses_fractions and rows and rng.random() < 0.5:
            rows = [[Fraction(x, rng.choice([1, 5, 7])) for x in r] for r in rows]
        a = Matrix(ring, rows, cols=n)
        del passes[:], kernels[:]
        divisors = snf(a).elementary_divisors
        moduli = [mod for *_, mod in passes]
        assert 0 not in [mod for *_, mod in kernels]  # the integer kernel waits for a witness read
        assert divisors == _kernel_divisors(ring, a), (ring, m, n)
        if ring == ZZ and m != n and divisors and divisors[-1] and divisors[-1] % Q100 == 0:
            assert any(mod % Q100 == 0 for mod in moduli)
            planted += 1
        if ring == ZZ and m == n and divisors[-2:] == (6, 6 * Q100):
            assert any(mod % 6 == 0 for mod in moduli)
            squares += 1
        assert snf(a).verify(a)
    assert (planted, squares) == ((5, 5) if ring == ZZ else (0, 0))


def test_prime_set_and_exactness_run_no_integer_kernel(monkeypatch):
    # On free Z complexes the prime set and the rank rule read divisors
    # only, for square and non-square boundaries alike, so the integer
    # kernel never runs.
    rng = random.Random(25)
    k = 6
    ranks = [k + 2, 2 * k, k]
    scalars = [2, 5] + [1] * (k - 2)
    s1 = Matrix(ZZ, [[scalars[r] if c == r + k else 0 for c in range(2 * k)]
                     for r in range(k + 2)])
    s2 = Matrix(ZZ, [[int(c == r) for c in range(k)] for r in range(2 * k)])
    bases = [random_unimodular(rng, ZZ, n, entry_bound=9, steps=2 * n) for n in ranks]
    mats = [bases[0][0] @ s1 @ bases[1][1], bases[1][0] @ s2 @ bases[2][1]]
    cx = BoundedComplex.free_complex(ZZ, 0, ranks, mats)
    u, _ = random_unimodular(rng, ZZ, k, entry_bound=9, steps=2 * k)
    v, _ = random_unimodular(rng, ZZ, k, entry_bound=9, steps=2 * k)
    chain = Matrix.diagonal(ZZ, [1] * (k - 2) + [6, 42])
    square = BoundedComplex.free_complex(ZZ, 0, [k, k], [u @ chain @ v])
    integer_runs = []
    original = linalg._snf_int
    monkeypatch.setattr(linalg, "_snf_int", lambda rows, m, n, mod: (
        integer_runs.append((m, n)) if mod == 0 else None) or original(rows, m, n, mod))
    primes = set().union(*(matrix_bad_primes(cx.boundary(i).matrix) for i in (1, 2)))
    exact = [cx.is_exact_at(i) for i in cx.degrees()]
    assert primes == {2, 5} and exact == [False, True, True]
    assert matrix_bad_primes(square.boundary(1).matrix) == {2, 3, 7}
    assert [square.is_exact_at(i) for i in square.degrees()] == [False, True]
    assert integer_runs == []
    snf(cx.boundary(1).matrix).U  # a witness read runs it
    snf(square.boundary(1).matrix).Vi
    assert integer_runs == [(k + 2, 2 * k), (k, k)]


@pytest.mark.parametrize("ring", MINOR_ROUTE_RINGS, ids=str)
def test_a_wrong_minor_route_divisor_is_caught_at_the_first_witness_read(ring, monkeypatch):
    # The integer kernel that builds the witnesses is the second route: a
    # minor route that returns a wrong divisor is refused at the first read.
    original = linalg._minor_divisors

    def wrong(*args):
        divisors = list(original(*args))
        divisors[0] *= ring.param or 2
        return tuple(divisors)

    monkeypatch.setattr(linalg, "_minor_divisors", wrong)
    for rows in ([[2, 4, 4], [-6, 6, 12]], [[1, 0], [0, 1], [1, 1]]):
        for witness in ("U", "V", "Ui", "Vi"):
            a = Matrix(ring, rows)
            with pytest.raises(ContradictionError):
                getattr(snf(a), witness)


ZMOD_PASS_RINGS = [integers_mod(8), integers_mod(12), integers_mod(360), prime_field(5)]


def _divisor_pass_cases(rng):
    """(m, n, rows): 0 x k, k x 0, 0 x 0, zero, dense and rank-deficient
    matrices up to 9 x 9 with entries in [-400, 400], matrices of multiples
    of 2, 3 and 6 (unit-free modulo 8, 12 or 360 where the factor is shared),
    and such a block under two dense rows, so both steps of the pass run."""
    def multiples(c, m, n):
        return [[c * rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]

    cases = [(0, 4, []), (4, 0, [[]] * 4), (0, 0, []), (3, 5, [[0] * 5] * 3), (1, 1, [[0]])]
    for _ in range(30):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[rng.randint(-400, 400) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.4:  # rank-deficient: a row a combination of two others
            rows[-1] = [2 * x - 3 * y for x, y in zip(rows[0], rows[m // 2])]
        cases.append((m, n, rows))
    for c in (2, 3, 6):
        for _ in range(8):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            cases.append((m, n, multiples(c, m, n)))
    for _ in range(8):
        m, n = rng.randint(1, 7), rng.randint(3, 9)
        dense = [[rng.randint(-400, 400) for _ in range(n)] for _ in range(2)]
        cases.append((m + 2, n, dense + multiples(6, m, n)))
    return cases


@pytest.mark.parametrize("ring", ZMOD_PASS_RINGS, ids=str)
def test_divisor_pass_modulo_n_matches_the_kernel(ring, monkeypatch):
    # Unit pivots first, then the kernel on the unit-free remainder alone:
    # gcd(s_i, n) must be the kernel's divisors on the whole lift, and
    # snf's, for empty, zero, rank-deficient and unit-free matrices alike.
    k = ring.param
    calls = _counted(monkeypatch, "_snf_int")
    rng = random.Random(f"divisor-pass:{ring}")
    remainders = 0
    for m, n, rows in _divisor_pass_cases(rng):
        a = Matrix(ring, rows, cols=n)
        lift = linalg._integral_lift(a)[1]
        del calls[:]
        got = tuple(0 if d == k else d for d in linalg._divisors_mod(lift, m, n, k))
        for rest, *_ in calls:  # the kernel only sees a remainder with no unit
            assert rest and all(gcd(x, k) > 1 for row in rest for x in row), (m, n, rows)
        remainders += len(calls)
        assert got == linalg._kernel(ring, 1, lift, m, n)[0], (m, n, rows)
        assert snf(a).elementary_divisors == got
        assert snf(a).verify(a)
    if ring.is_field:  # every nonzero entry is a unit
        assert remainders == 0
    else:
        assert remainders >= 10


@pytest.mark.parametrize("ring", ZMOD_PASS_RINGS, ids=str)
def test_a_wrong_divisor_pass_is_caught_at_the_first_witness_read(ring, monkeypatch):
    # Over Z/n and F_p the kernel that builds the witnesses is the second
    # route: a divisor pass that changes one divisor is refused at the
    # first read of any witness.
    original = linalg._divisors_mod

    def wrong(lift, m, n, mod):
        divisors = original(lift, m, n, mod)
        divisors[0] = 1 if divisors[0] == mod else mod
        return divisors

    monkeypatch.setattr(linalg, "_divisors_mod", wrong)
    for rows in ([[2, 4, 4], [-6, 6, 12]], [[1, 0], [0, 1], [1, 1]], [[0, 0], [0, 0]]):
        for witness in ("U", "V", "Ui", "Vi"):
            dec = snf(Matrix(ring, rows))
            assert dec.row_moves is None
            with pytest.raises(ContradictionError):
                getattr(dec, witness)


class _KernelRan(Exception):
    pass


def test_zmod_criteria_read_divisors_and_run_no_kernel(monkeypatch):
    # Over Z/360 and Z/12 both theorem criteria and the divisor reads of the
    # flatness criterion (prime set, flat, zero) finish with the kernel
    # replaced by one that raises, and agree with the real kernel's run:
    # check_main_theorem and is_universally_exact on seeded complexes of
    # every population, tor_flatness_criterion on seeded modules.
    def inputs(ring):
        rng = random.Random(f"no-kernel:{ring}")
        complexes = [random_complex(rng, ring, max_len=4, max_rank=4, entry_bound=9,
                                    population=pop).complex
                     for pop in ("contractible", "hypothesis-true", "hypothesis-false") * 3]
        mods = [random_fp_module(rng, ring) for _ in range(8)]
        return complexes, mods + [FpModule.cyclic(ring, d) for d in (0, 1, 4, 6, 7)]

    def verdicts(cx):
        report = check_main_theorem(cx)
        return report.verdict, report.hypothesis_holds, is_universally_exact(cx).verdict

    def raising(*args):
        raise _KernelRan

    for ring in (integers_mod(360), integers_mod(12)):
        complexes, mods = inputs(ring)
        want = [verdicts(cx) for cx in complexes]
        tor = [tor_flatness_criterion(m, 2) for m in mods]
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_kernel", raising)
            complexes, mods = inputs(ring)
            got = [verdicts(cx) for cx in complexes]
            reads = [(module_prime_set(m), m.is_flat(), m.is_zero()) for m in mods]
        assert got == want and {v for v, _, _ in got} == {"consistent"}, ring
        assert {h for _, h, _ in got} == {True, False}, ring
        for verdict, (primes, flat, zero) in zip(tor, reads):
            assert list(verdict.checked_primes) == primes
            assert (verdict.positive_vanishing, verdict.vanishing_with_degree_zero) == (flat, zero)


def _counted(monkeypatch, name):
    """Arguments of every call to linalg.<name> from here on."""
    calls = []
    original = getattr(linalg, name)
    monkeypatch.setattr(linalg, name, lambda *args: calls.append(args) or original(*args))
    return calls


@pytest.mark.parametrize("first", ["snf", "field_rank", "det"])
def test_divisors_field_rank_and_det_share_one_pass(first, monkeypatch):
    # Over Z the minor route, field_rank and det read one cached
    # fraction-free pass on the lift, whichever of them runs first.
    passes = _counted(monkeypatch, "_bareiss")
    rng = random.Random(f"one-pass:{first}")
    readers = {"snf": lambda a: snf(a).elementary_divisors, "field_rank": field_rank, "det": det}
    order = [first] + [name for name in readers if name != first]
    for n in (1, 2, 3, 5, 6):
        for rows in (_planted(rng, n, n, [6 * n]),
                     [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]):
            a = Matrix(ZZ, rows)
            del passes[:]
            got = {name: readers[name](a) for name in order}
            assert len(passes) == 1, (n, rows)
            assert got["det"] == naive_det(rows) != 0
            assert got["field_rank"] == n
            assert got["snf"] == _kernel_divisors(ZZ, a)


def _shaped_cases(rng):
    """(shape, m, n, rows): seeded wide, tall, rank-deficient, rank 1 and
    full-rank square matrices, half of them with planted common factors so
    that the kernel runs modulo some g > 1."""
    def entries(m, n, bound=20):
        return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]

    def full_rank(m, n):
        rows = entries(m, n)
        while fraction_rank(rows, n) < min(m, n):
            rows = entries(m, n)
        return rows

    def factor():
        return 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 3) * rng.choice([1, 5, 7])

    cases = []
    for _ in range(12):
        k = rng.randint(1, 7)
        m, n = k, k + rng.randint(1, 4)
        chain = [factor(), factor()]
        chain[1] *= chain[0]
        wide = _planted(rng, m, n, chain[2 - min(k, 2):]) if rng.random() < 0.5 else full_rank(m, n)
        cases.append(("wide", m, n, wide))
        cases.append(("tall", n, m, [list(col) for col in zip(*wide)]))
        r = rng.randint(1, 5)
        m, n = r + rng.randint(1, 4), r + rng.randint(1, 4)
        left, right = entries(m, r, 9), entries(r, n, 9)
        c = factor() if rng.random() < 0.5 else 1
        cases.append(("rank-deficient", m, n,
                      [[c * sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                       for row in left]))
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        u, v = [rng.randint(-9, 9) or 1 for _ in range(m)], [rng.randint(-9, 9) or 1 for _ in range(n)]
        c = factor()
        cases.append(("rank 1", m, n, [[c * x * y for y in v] for x in u]))
        n = rng.randint(1, 8)
        chain = [factor(), factor()]
        chain[1] *= chain[0]
        square = _planted(rng, n, n, chain[2 - min(n, 2):]) if rng.random() < 0.5 else full_rank(n, n)
        cases.append(("full-rank square", n, n, square))
    return cases


@pytest.mark.parametrize("ring", [ZZ, localized_at(3)], ids=str)
def test_kept_minor_divisors_match_the_integer_kernel_on_every_shape(ring, monkeypatch):
    # g comes from the minors the pass keeps in its last pivot row and
    # column (its pivot before, for a full-rank square): for every shape
    # the divisors must be the integer kernel's on the lift, field_rank
    # must count the nonzero ones, and no shape runs a second pass.
    passes = _counted(monkeypatch, "_bareiss")
    kernels = _counted(monkeypatch, "_divisors_mod")
    rng = random.Random(f"kept-minors:{ring}")
    shapes, reduced = set(), 0
    for shape, m, n, rows in _shaped_cases(rng):
        if ring.uses_fractions:  # each row over a unit of Z_(3)
            rows = [[Fraction(x, d) for x in r] for r, d in zip(rows, rng.choices([1, 2, 5, 7], k=m))]
        a = Matrix(ring, rows, cols=n)
        rank = fraction_rank(rows, n)
        expected = {"rank 1": rank == 1, "rank-deficient": rank < min(m, n)}
        assert expected.get(shape, rank == min(m, n)), (shape, rows)
        del passes[:], kernels[:]
        divisors = snf(a).elementary_divisors
        assert field_rank(a) == sum(d != 0 for d in divisors) == rank
        moduli = [mod for *_, mod in kernels]
        assert 0 not in moduli
        reduced += any(mod > 1 for mod in moduli)
        assert divisors == _kernel_divisors(ring, a), (shape, m, n)
        lift = [list(row) for row in linalg._integral_lift(a)[1]]
        assert [list(map(list, args[0])) for args in passes] == [lift], (shape, m, n)
        shapes.add(shape)
    assert len(shapes) == 5 and reduced >= 10


@pytest.mark.parametrize("ring", [ZZ, localized_at(3)], ids=str)
def test_one_pass_when_the_kept_minors_leave_g_at_the_last_pivot(ring, monkeypatch):
    # In [[p, 1, 0], [0, 1, 1]] the last pivot row keeps the 2 x 2 minors p
    # and p, and so does the pivot: g stays p, a multiple of d_2 = 1, and
    # the divisor pass modulo p gives the divisors from that one pass; its
    # two unit pivots leave no remainder for the kernel.
    p = ring.param or 2
    passes = _counted(monkeypatch, "_bareiss")
    kernels = _counted(monkeypatch, "_divisors_mod")
    remainders = _counted(monkeypatch, "_snf_int")
    a = Matrix(ring, [[p, 1, 0], [0, 1, 1]])
    assert snf(a).elementary_divisors == (ring.one, ring.one)
    assert [list(map(list, args[0])) for args in passes] == [[[p, 1, 0], [0, 1, 1]]]
    assert [mod for *_, mod in kernels] == [p] and remainders == []
    # the same matrix with its columns permuted keeps the minor 1 in its
    # last pivot row: one pass and no modular pass
    del passes[:], kernels[:]
    b = Matrix(ring, [[1, p, 0], [1, 0, 1]])
    assert snf(b).elementary_divisors == (ring.one, ring.one)
    assert len(passes) == 1 and kernels == []
    # a full-rank square: g comes from the 1-minors p and 1 kept for the
    # pivot before the last, and s_2 = |det| / s_1
    del passes[:]
    c = Matrix(ring, [[p, 1], [0, 1]])
    assert snf(c).elementary_divisors == (ring.one, ring.canon(p))
    assert len(passes) == 1 and kernels == []


@given(int_matrix(max_dim=4))
def test_determinantal_divisors_match_minor_enumeration(a):
    divisors = determinantal_divisors(a)
    rows = a.to_rows()
    assert len(divisors) == min(a.rows, a.cols)
    for k, d in enumerate(divisors, start=1):
        assert d == minor_gcd(rows, k)


@given(int_matrix(max_dim=4))
def test_determinantal_divisors_consistent_with_snf(a):
    elems = snf(a).elementary_divisors
    for k, d in enumerate(determinantal_divisors(a), start=1):
        assert d == abs(prod(elems[:k]))


@given(int_matrix())
def test_rank_drop_iff_prime_divides_last_divisor(a):
    elems = [d for d in snf(a).elementary_divisors if d != 0]
    generic = rank_over_fiber(a, GENERIC)
    assert generic == len(elems)
    last = elems[-1] if elems else 1
    for p in (2, 3, 5, 7, 11, 13):
        dropped = rank_over_fiber(a, Prime.at(p)) < generic
        assert dropped == (last % p == 0)


@given(int_matrix())
def test_field_rank_routes_agree(a):
    assert rank_over_fiber(a, GENERIC) == fraction_rank(a.to_rows(), a.cols)
    for p in (2, 5):
        reduced = reduce_matrix(a, Prime.at(p))
        assert field_rank(reduced) == modp_rank(a.to_rows(), a.cols, p)
        assert rank_over_fiber(a, Prime.at(p)) == field_rank(reduced)


ALL_RINGS = [ZZ, integers_mod(12), integers_mod(360), localized_at(3), QQ,
             prime_field(5), prime_field(2)]


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
@settings(max_examples=40)
@given(data=st.data())
def test_witnesses_are_inverse_pairs(ring, data):
    if ring.uses_fractions:
        a = data.draw(fraction_matrix(ring, max_dim=5))
    else:
        z = data.draw(int_matrix())
        a = Matrix(ring, z.to_rows(), cols=z.cols)
    full = _snf_full(a)
    eye_m, eye_n = Matrix.identity(ring, a.rows), Matrix.identity(ring, a.cols)
    assert full.U @ full.Ui == eye_m and full.Ui @ full.U == eye_m
    assert full.V @ full.Vi == eye_n and full.Vi @ full.V == eye_n
    assert full.Ui @ a @ full.Vi == full.D


def _built(a):
    return {w for w in ("U", "D", "V", "Ui", "Vi") if w in vars(a._snf)}


@pytest.mark.parametrize("ring", [ZZ, localized_at(3)], ids=str)
def test_witnesses_are_built_only_when_read(ring, monkeypatch):
    def fresh():
        return Matrix(ring, [[2, 4, 4], [-6, 6, 12], [10, 4, 16], [2, 0, 2]])

    for read in (lambda a: rank_over_fiber(a, GENERIC),
                 lambda a: rank_over_fiber(a, Prime.at(3)), matrix_bad_primes,
                 lambda a: FpModule(ring, a.rows, a).invariant_factors(),
                 lambda a: snf(a).elementary_divisors):
        a = fresh()
        read(a)
        assert _built(a) == set()
    a = fresh()
    assert snf(a) is a._snf is _snf_full(a)
    # purity in free coordinates reads only the divisors of its matrix
    seen = []
    monkeypatch.setattr(modules, "snf", lambda g: seen.append(g) or snf(g))
    f = ModuleMap(FpModule.free(ring, 3), FpModule.free(ring, 4), fresh())
    assert modules._pure_free_case(f) is (ring.kind == "Zloc")  # 2 is a unit only at (3)
    (g,) = seen
    assert _built(g) == set()
    a = fresh()
    syzygy_matrix(a)
    assert _built(a) == {"Vi"}
    a = fresh()
    assert solve_integral(a, Matrix(ring, [[6], [0], [14], [2]])) is not None
    assert _built(a) == {"Ui", "Vi"}


@st.composite
def low_rank_q_matrix(draw):
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    r = draw(st.integers(0, min(m, n)))
    frac = st.builds(Fraction, entry, st.integers(1, 12))
    left = [[draw(frac) for _ in range(r)] for _ in range(m)]
    right_cols = list(zip(*[[draw(frac) for _ in range(n)] for _ in range(r)])) or [()] * n
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in right_cols]
            for row in left], n


F = Fraction
# A singular matrix, a zero column, a zero leading entry that forces a row
# swap, and the 0 x 0 matrix, each with fractional entries.
ELIMINATION_EDGES = [
    [[F(1, 2), F(1)], [F(3, 2), F(3)]],
    [[F(0), F(1, 2), F(2)], [F(0), F(3), F(-1, 4)], [F(0), F(5), F(7)]],
    [[F(0), F(2), F(1, 2)], [F(1, 2), F(1), F(1)], [F(3), F(0), F(1)]],
    [],
]


@given(low_rank_q_matrix())
@example(case=(ELIMINATION_EDGES[0], 2))
@example(case=(ELIMINATION_EDGES[1], 3))
@example(case=(ELIMINATION_EDGES[2], 3))
@example(case=(ELIMINATION_EDGES[3], 0))
def test_field_rank_over_q_matches_fraction_elimination(case):
    rows, n = case
    assert field_rank(Matrix(QQ, rows, cols=n)) == fraction_rank(rows, n)
    # The generic fiber over Z and Z_(3) of the matrix times the lcm of its
    # denominators, or of their powers of 3: the rank is the same.
    s = lcm(1, *(x.denominator for r in rows for x in r))
    s3 = gcd(s, 3 ** s.bit_length())
    for ring, scale in ((ZZ, s), (localized_at(3), s3)):
        a = Matrix(ring, [[x * scale for x in r] for r in rows], cols=n)
        assert field_rank(reduce_matrix(a, GENERIC)) == fraction_rank(rows, n)


@st.composite
def small_system(draw):
    d = [[draw(st.integers(min_value=-3, max_value=3)) for _ in range(2)]
         for _ in range(2)]
    c = [draw(st.integers(min_value=-6, max_value=6)) for _ in range(2)]
    return d, c


@settings(max_examples=150)
@given(small_system())
def test_solve_integral_agrees_with_box_search(system):
    # With entries in [-3,3] and rhs in [-6,6], any solvable system has a
    # solution with |x_i| <= 40: Cramer caps the full-rank case at 36, and
    # a rank-1 equation a x1 + b x2 = e has a Bezout solution within ~18.
    d_rows, c = system
    d = Matrix(ZZ, d_rows)
    b = Matrix(ZZ, [[c[0]], [c[1]]])
    x = solve_integral(d, b)
    boxed = box_solve(d_rows, [c[0], c[1]], bound=40)
    if x is None:
        assert boxed is None
    else:
        assert d @ x == b
        assert boxed is not None


def test_solve_integral_examples():
    d = Matrix(ZZ, [[2, 0], [0, 3]])
    x = solve_integral(d, Matrix(ZZ, [[4], [9]]))
    assert x is not None and d @ x == Matrix(ZZ, [[4], [9]])
    assert solve_integral(d, Matrix(ZZ, [[1], [0]])) is None
    ring = integers_mod(12)
    d = Matrix(ring, [[2]])
    x = solve_integral(d, Matrix(ring, [[6]]))
    assert x is not None and d @ x == Matrix(ring, [[6]])
    assert solve_integral(d, Matrix(ring, [[5]])) is None
    # multiple right-hand columns at once
    rhs = Matrix(ZZ, [[2, 4], [0, 6]])
    x = solve_integral(Matrix(ZZ, [[2, 0], [0, 3]]), rhs)
    assert x is not None and Matrix(ZZ, [[2, 0], [0, 3]]) @ x == rhs


def test_solve_integral_rejects_a_solution_that_fails_the_check():
    # a corrupt cached SNF (that of [[1]]) yields x = 3, and 2 * 3 != 3; the
    # product check must survive python -O, so it is a raise, not an assert
    a = Matrix(ZZ, [[2]])
    a._snf = snf(Matrix(ZZ, [[1]]))
    with pytest.raises(ContradictionError, match="solve_integral"):
        solve_integral(a, Matrix(ZZ, [[3]]))


@given(int_matrix(max_dim=3))
def test_syzygy_columns_generate_the_kernel(a):
    s = syzygy_matrix(a)
    assert (a @ s).is_zero()
    for v in box_kernel(a.to_rows(), a.cols, bound=2):
        target = Matrix(ZZ, [[x] for x in v], cols=1)
        assert solve_integral(s, target) is not None


def test_syzygy_over_zmod():
    ring = integers_mod(12)
    a = Matrix(ring, [[4]])
    s = syzygy_matrix(a)
    assert (a @ s).is_zero()
    # kernel of x -> 4x mod 12 is generated by 3
    assert solve_integral(s, Matrix(ring, [[3]])) is not None
    assert solve_integral(s, Matrix(ring, [[1]])) is None


@st.composite
def zmod_matrix(draw, moduli, max_dim=3):
    n = draw(st.sampled_from(moduli))
    m, k = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    return Matrix(integers_mod(n), [[draw(st.integers(0, n - 1)) for _ in range(k)]
                                    for _ in range(m)], cols=k)


@settings(max_examples=60)
@given(zmod_matrix([4, 6, 8, 9, 12]))
def test_zmod_syzygies_span_the_brute_force_kernel(a):
    n, k = a.ring.param, a.cols
    s = syzygy_matrix(a)
    assert s.rows == k and (a @ s).is_zero()
    columns = list(zip(*s.to_rows())) if k else []
    assert zmod_span(columns, k, n) == zmod_kernel(a.to_rows(), k, n)


@given(int_matrix(max_dim=3))
def test_field_syzygies_span_kernel(a):
    for q in (GENERIC, Prime.at(2)):
        reduced = reduce_matrix(a, q)
        ns = syzygy_matrix(reduced)
        assert (reduced @ ns).is_zero()
        assert ns.cols == a.cols - field_rank(reduced)
        assert field_rank(ns) == ns.cols


@given(st.integers(min_value=0, max_value=3).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))))
def test_det_is_multiplicative(pair):
    a_rows, b_rows = pair
    n = len(a_rows)
    a = Matrix(ZZ, a_rows, cols=n)
    b = Matrix(ZZ, b_rows, cols=n)
    assert det(a @ b) == det(a) * det(b)


fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@pytest.mark.parametrize("ring", [QQ, localized_at(3), ZZ], ids=["QQ", "Zloc3", "ZZ"])
@settings(max_examples=60)
@given(rows=st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(st.lists(fraction, min_size=n, max_size=n), min_size=n, max_size=n)))
@example(rows=ELIMINATION_EDGES[0])
@example(rows=ELIMINATION_EDGES[1])
@example(rows=ELIMINATION_EDGES[2])
@example(rows=ELIMINATION_EDGES[3])
def test_det_with_fractional_entries_matches_laplace(ring, rows):
    # over Z_(3) denominators divisible by 3 are not ring elements, and
    # over Z no denominator is: those entries are scaled into the ring
    if ring.kind == "Zloc":
        rows = [[x if x.denominator % 3 else x * 3 for x in r] for r in rows]
    elif ring == ZZ:
        rows = [[x * x.denominator for x in r] for r in rows]
    d = det(Matrix(ring, rows, cols=len(rows)))
    assert d == naive_det(rows) and isinstance(d, Fraction) == ring.uses_fractions


@pytest.mark.parametrize("ring", ALL_RINGS + [integers_mod(8), localized_at(2)], ids=str)
def test_det_and_field_rank_never_call_the_snf(ring, monkeypatch):
    # They are the independent routes that tests check the SNF against.
    def no_snf(a):
        raise AssertionError("the SNF kernel was called")

    monkeypatch.setattr(linalg, "_snf_full", no_snf)
    rng = random.Random(f"no-snf:{ring}")
    points = (GENERIC, Prime.at(2), Prime.at(3)) if ring == ZZ else ring.spectrum()
    for _ in range(20):
        n = rng.randint(0, 6)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice([1, 5, 7]) if ring.uses_fractions else 1)
                 for _ in range(n)] for _ in range(rng.randint(0, 6))]
        a = Matrix(ring, rows, cols=n)
        if a.rows == a.cols:
            assert det(a) == ring.canon(naive_det(rows))
        for q in points:
            k = ring.residue_field(q).param
            expected = fraction_rank(rows, n) if k is None else modp_rank(
                [[x.numerator * pow(x.denominator, -1, k) for x in r] for r in rows], n, k)
            assert field_rank(reduce_matrix(a, q)) == expected
        if ring.kind == "Zmod":
            with pytest.raises(InputError):
                field_rank(a)
        elif not ring.is_field:  # over Z and Z_(p): the rank over Q, with no Fraction copy
            assert field_rank(a) == fraction_rank(rows, n)


def test_hstack_returns_a_lone_wide_block_itself():
    a = Matrix(ZZ, [[1, 2], [3, 4]])
    assert hstack([a, Matrix.zeros(ZZ, a.rows, 0)]) is a
    assert hstack([Matrix.zeros(ZZ, a.rows, 0), a]) is a
    assert hstack([a]) is a
    assert hstack([a, a]) == Matrix(ZZ, [[1, 2, 1, 2], [3, 4, 3, 4]])
    for blocks in ([a, Matrix.zeros(ZZ, 3, 0)], [a, Matrix(ZZ, [[5]])],
                   [Matrix.zeros(ZZ, 1, 0), a], [a, Matrix(integers_mod(4), [[1], [2]])]):
        with pytest.raises(InputError):
            hstack(blocks)


def test_block_matrix_places_blocks_and_checks_their_shape():
    a, b = Matrix(ZZ, [[1, 2], [3, 4]]), Matrix(ZZ, [[5], [6]])
    m = _block_matrix(ZZ, [2, 2], [2, 1], {(0, 0): a, (1, 1): b, (1, 0): -a})
    assert m == Matrix(ZZ, [[1, 2, 0], [3, 4, 0], [-1, -2, 5], [-3, -4, 6]])
    assert _block_matrix(ZZ, [0, 2], [0, 1], {(1, 1): b}) == b
    assert _block_matrix(ZZ, [], [], {}) == Matrix.zeros(ZZ, 0, 0)
    for blocks in ({(0, 0): b}, {(0, 1): a}, {(0, 0): Matrix(integers_mod(4), [[1, 2], [3, 0]])}):
        with pytest.raises(InputError):
            _block_matrix(ZZ, [2, 2], [2, 1], blocks)


def test_empty_matrix_edge_cases():
    a = Matrix.zeros(ZZ, 0, 3)
    b = Matrix.zeros(ZZ, 3, 0)
    assert snf(a).elementary_divisors == ()
    assert rank_over_fiber(a, GENERIC) == 0 and rank_over_fiber(b, GENERIC) == 0
    assert (a @ b).rows == 0 and (a @ b).cols == 0
    assert (b @ a).rows == 3 and (b @ a).cols == 3
    assert det(Matrix.zeros(ZZ, 0, 0)) == 1
    assert syzygy_matrix(a).cols == 3  # zero map: everything is a syzygy
    x = solve_integral(b, Matrix.zeros(ZZ, 3, 1))
    assert x is not None and x.rows == 0
    assert hstack([a, a]).cols == 6


def test_matrix_validation():
    with pytest.raises(InputError):
        Matrix(ZZ, [[1, 2], [3]])
    with pytest.raises(InputError):
        Matrix(ZZ, [[Fraction(1, 2)]])
    with pytest.raises(InputError):
        Matrix(ZZ, [[1]]) @ Matrix(ZZ, [[1, 2], [3, 4]])
    with pytest.raises(InputError):
        Matrix(ZZ, [[1]]) + Matrix(integers_mod(4), [[1]])
    with pytest.raises(InputError, match="negative column count"):
        Matrix(ZZ, [], cols=-3)


def test_rank_over_fiber_rejects_foreign_primes():
    a = Matrix(integers_mod(12), [[2]])
    with pytest.raises(InputError):
        rank_over_fiber(a, Prime.at(5))
