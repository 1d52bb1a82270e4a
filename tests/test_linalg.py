"""Exact linear algebra kernel: SNF, ranks, divisors, solving, syzygies."""

import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from fiberflat.errors import ContradictionError, InputError
from fiberflat.linalg import (
    Matrix, _snf_full, det, field_rank, hstack, rank,
    rank_over_fiber, reduce_matrix, snf, solve_integral, syzygy_matrix, vstack,
)
from fiberflat import linalg, modules
from fiberflat.modules import FpModule, ModuleMap, matrix_bad_primes
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
            for size, moves in ((m, dec.row_moves), (n, dec.col_moves)):
                for inverse in (False, True):
                    reduced = [[x % k for x in r] for r in linalg._replay(size, moves, inverse)]
                    assert linalg._replay(size, moves, inverse, k) == reduced
            integer = linalg._replay(m, dec.row_moves)
            assert dec.Ui.to_rows() == [[x % k for x in r] for r in integer]
            assert dec.verify(a)


def test_verify_rejects_a_non_invertible_witness_over_z12():
    # With A = 0, U @ D @ V = A holds whatever U and V are, so only the
    # invertibility check can reject them: U @ Ui = I and V @ Vi = I mod 12.
    z12 = integers_mod(12)
    a = Matrix.zeros(z12, 2, 2)
    for witness, bad in (("U", [[2, 0], [0, 1]]), ("V", [[1, 0], [0, 3]])):
        dec = linalg.SnfDecomposition(z12, 2, 2, (0, 0), [], [], [])
        assert dec.verify(a)
        dec = linalg.SnfDecomposition(z12, 2, 2, (0, 0), [], [], [])
        setattr(dec, witness, Matrix(z12, bad))
        assert dec.U @ dec.D @ dec.V == a
        assert not dec.verify(a), witness


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
    assert rank(a) == fraction_rank(a.to_rows(), a.cols)
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

    for read in (rank, lambda a: rank_over_fiber(a, Prime.at(3)), matrix_bad_primes,
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


@given(low_rank_q_matrix())
def test_field_rank_over_q_matches_fraction_elimination(case):
    rows, n = case
    assert field_rank(Matrix(QQ, rows, cols=n)) == fraction_rank(rows, n)


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


@pytest.mark.parametrize("ring", [QQ, localized_at(3)], ids=["QQ", "Zloc3"])
@settings(max_examples=60)
@given(rows=st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(st.lists(fraction, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_with_fractional_entries_matches_laplace(ring, rows):
    # over Z_(3) denominators divisible by 3 are not ring elements
    if ring.kind == "Zloc":
        rows = [[x if x.denominator % 3 else x * 3 for x in r] for r in rows]
    d = det(Matrix(ring, rows, cols=len(rows)))
    assert d == naive_det(rows) and isinstance(d, Fraction)


def test_hstack_returns_a_lone_wide_block_itself():
    a = Matrix(ZZ, [[1, 2], [3, 4]])
    assert hstack([a, Matrix.zeros(ZZ, a.rows, 0)]) is a
    assert hstack([Matrix.zeros(ZZ, a.rows, 0), a]) is a
    assert hstack([a]) is a
    assert hstack([a, a]) == Matrix(ZZ, [[1, 2, 1, 2], [3, 4, 3, 4]])


def test_empty_matrix_edge_cases():
    a = Matrix.zeros(ZZ, 0, 3)
    b = Matrix.zeros(ZZ, 3, 0)
    assert snf(a).elementary_divisors == ()
    assert rank(a) == 0 and rank(b) == 0
    assert (a @ b).rows == 0 and (a @ b).cols == 0
    assert (b @ a).rows == 3 and (b @ a).cols == 3
    assert det(Matrix.zeros(ZZ, 0, 0)) == 1
    assert syzygy_matrix(a).cols == 3  # zero map: everything is a syzygy
    x = solve_integral(b, Matrix.zeros(ZZ, 3, 1))
    assert x is not None and x.rows == 0
    assert hstack([a, a]).cols == 6
    assert vstack([b, b]).rows == 6


def test_matrix_validation():
    with pytest.raises(InputError):
        Matrix(ZZ, [[1, 2], [3]])
    with pytest.raises(InputError):
        Matrix(ZZ, [[Fraction(1, 2)]])
    with pytest.raises(InputError):
        Matrix(ZZ, [[1]]) @ Matrix(ZZ, [[1, 2], [3, 4]])
    with pytest.raises(InputError):
        Matrix(ZZ, [[1]]) + Matrix(integers_mod(4), [[1]])


def test_rank_over_fiber_rejects_foreign_primes():
    a = Matrix(integers_mod(12), [[2]])
    with pytest.raises(InputError):
        rank_over_fiber(a, Prime.at(5))
