"""Brute-force reference computations used as independent test oracles.

Most of these work on plain lists of ints or Fractions, deliberately
bypassing the library's Matrix type and its cached decompositions, so a
bug in the SNF kernel cannot hide behind itself.  The last section takes
library objects: determinantal divisors and fibered complexes, which only
tests use, computed without the SNF, homology presented by two
pullbacks in every degree, the route exactness is checked against,
null homotopies corrected by one Kronecker system per degree, and the
map a chain map of free complexes induces on fiber homology, read off a
kernel basis.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from fiberflat.complexes import BoundedComplex, HomotopyCertificate
from fiberflat.linalg import (
    Matrix, field_rank, hstack, kron, reduce_matrix, solve_integral, syzygy_matrix,
)
from fiberflat.modules import FpModule, _pullback


def naive_det(rows):
    """Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * naive_det(minor)
    return total


def minor_gcd(rows, k):
    """k-th determinantal divisor by full minor enumeration (0 if all vanish)."""
    m, n = len(rows), len(rows[0]) if rows else 0
    g = 0
    for ri in combinations(range(m), k):
        for ci in combinations(range(n), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, abs(naive_det(sub)))
    return g


def fraction_rank(rows, cols):
    """Row-reduction rank over Q, no pivoting cleverness."""
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def modp_rank(rows, cols, p):
    """Gaussian elimination over F_p on int matrices already reduced mod p."""
    work = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] % p != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [(x * inv) % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] % p:
                factor = work[i][col]
                work[i] = [(a - factor * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def box_solve(d_rows, c, bound=20):
    """Search integer solutions of D x = c with |x_i| <= bound.

    Returns a solution vector or None.  Only sensible for tiny systems;
    the solver cross-check runs it on 2x2 instances.
    """
    if not d_rows:
        return ()
    n = len(d_rows[0])
    for xs in product(range(-bound, bound + 1), repeat=n):
        if all(sum(row[j] * xs[j] for j in range(n)) == c[i]
               for i, row in enumerate(d_rows)):
            return xs
    return None


def box_kernel(d_rows, n, bound=3):
    """All nonzero integer kernel vectors of D with entries in [-bound, bound]."""
    out = []
    for xs in product(range(-bound, bound + 1), repeat=n):
        if any(xs) and all(sum(row[j] * xs[j] for j in range(n)) == 0
                           for row in d_rows):
            out.append(xs)
    return out


def zmod_kernel(d_rows, k, n):
    """Every vector of (Z/n)^k that D sends to 0 mod n, as tuples."""
    return {xs for xs in product(range(n), repeat=k)
            if all(sum(a * x for a, x in zip(row, xs)) % n == 0 for row in d_rows)}


def zmod_span(columns, k, n):
    """The subgroup of (Z/n)^k generated by the columns (closure under adding
    a column), which is their Z/n-span."""
    span = {(0,) * k}
    frontier = list(span)
    while frontier:
        v = frontier.pop()
        for c in columns:
            w = tuple((x + y) % n for x, y in zip(v, c))
            if w not in span:
                span.add(w)
                frontier.append(w)
    return span


def reduce_entry(kind, p, x):
    """One entry of a matrix over a ring of the given kind reduced into
    kappa(p), where p None is the generic point: the reduction map applied
    entry by entry, re-canonicalising each scalar."""
    if p is None:
        return x if kind == "Fp" else Fraction(x)
    if kind in ("Zloc", "Q"):
        x = Fraction(x)
        return (x.numerator % p) * pow(x.denominator % p, -1, p) % p
    return int(x) % p


def trial_factor(n):
    """{prime: exponent} of n >= 1 by trial division up to its square root."""
    out, f = {}, 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# -- oracles on library objects -------------------------------------------------

def determinantal_divisors(a):
    """k-th entry: gcd of all k x k minors of a Matrix over Z or Z_(p).

    Minors of the integral lift (a times the lcm of its denominators) are
    shared across subset levels with a Laplace-expansion DP.  Over Z_(p)
    the lift scales each k-minor by a unit, so the gcd is p to the least
    valuation of the integer minors.  The k-th divisor equals the product
    of the first k elementary divisors up to units.
    """
    ring, m, n = a.ring, a.rows, a.cols
    assert ring.kind in ("Z", "Zloc"), f"no gcds over {ring}"
    rows = [[Fraction(x) for x in r] for r in a.to_rows()]
    scale = lcm(1, *(x.denominator for r in rows for x in r))
    data = [[int(x * scale) for x in r] for r in rows]
    kmax = min(m, n)
    out = []
    level = {((), ()): 1}
    for k in range(1, kmax + 1):
        nxt = {}
        g = 0
        for rows_sel in combinations(range(m), k):
            r0, rest = rows_sel[0], rows_sel[1:]
            row = data[r0]
            for cols_sel in combinations(range(n), k):
                acc, sign = 0, 1
                for t, c in enumerate(cols_sel):
                    acc += sign * row[c] * level[(rest, cols_sel[:t] + cols_sel[t + 1:])]
                    sign = -sign
                nxt[(rows_sel, cols_sel)] = acc
                g = gcd(g, acc)
        out.append(g)
        if g == 0:
            # All k-minors vanish, so all larger minors vanish too.
            out.extend([0] * (kmax - k))
            break
        level = nxt
    if ring.kind == "Zloc":
        p = ring.param
        out = [Fraction(p ** _valuation(g, p) if g else 0) for g in out]
    return out


def _valuation(g, p):
    v = 0
    while g % p == 0:
        g, v = g // p, v + 1
    return v


def fiber_complex(cx, q):
    """The complex of kappa(q)-vector spaces obtained by reducing a
    complex with free terms."""
    assert cx.is_free(), "fiber_complex needs free terms"
    ranks = [cx.term(i).gens for i in cx.degrees()]
    mats = [reduce_matrix(cx.boundary(i).matrix, q) for i in range(cx.lo + 1, cx.hi + 1)]
    return BoundedComplex.free_complex(cx.ring.residue_field(q), cx.lo, ranks, mats)


def kernel_basis_fiber_rank(f, q, i):
    """Rank over kappa(q) of the map a chain map f of free complexes
    induces on H_i: with K a kernel basis of the reduced source boundary
    d_i and E the reduced target boundary e_{i+1}, the rank f_i K adds to
    the image of E."""
    assert f.source.is_free() and f.target.is_free(), "kernel_basis_fiber_rank needs free terms"
    kernel = syzygy_matrix(reduce_matrix(f.source.boundary(i).matrix, q))
    image = reduce_matrix(f.target.boundary(i + 1).matrix, q)
    mapped = reduce_matrix(f.at(i).matrix, q) @ kernel
    return field_rank(hstack([mapped, image])) - field_rank(image)


def pullback_homology(cx, i):
    """H_i with generators P = pullback(d_i, A_{i-1}) and relations
    pullback(P, [d_{i+1} | A_i]), A_j the relations of term(j), in every
    degree including the bottom one.  Every wall [f | A] is stacked here,
    so this route reads neither ModuleMap.wall nor BoundedComplex._wall."""
    p = _pullback(hstack([cx.boundary(i).matrix, cx.term(i - 1).relations]), cx.term(i).gens)
    wall = hstack([cx.boundary(i + 1).matrix, cx.term(i).relations])
    return FpModule(cx.ring, p.cols, _pullback(hstack([p, wall]), p.cols))


def kronecker_null_homotopy(cx):
    """null_homotopy's degreewise lift with its correction as one Kronecker
    system per degree: a lift h_i that is not a map of modules is moved to
    h_i + P Y, P the pullback of the wall W_{i+1} = [d_{i+1} | A_i], with Y
    and T solving P Y A_i + A_{i+1} T = -h_i A_i in row-major
    vectorization (vec(X @ Y @ Z) is kron(X, Z^T) @ vec(Y)).  Returns the
    certificate, unverified, or None when some degree has no solution."""
    ring = cx.ring
    maps = {}
    prev = Matrix.zeros(ring, cx.term(cx.lo).gens, cx.term(cx.lo - 1).gens)
    for i in cx.degrees():
        gi = cx.term(i).gens
        rhs = Matrix.identity(ring, gi) - prev @ cx.boundary(i).matrix
        if i == cx.hi:
            return HomotopyCertificate(cx, maps) if cx.term(i).vanishes(rhs) else None
        wall = hstack([cx.boundary(i + 1).matrix, cx.term(i).relations])
        a, gn = cx.term(i).relations, cx.term(i + 1).gens
        sol = solve_integral(wall, rhs)
        if sol is None:
            return None
        h_i = sol.submatrix(range(gn), range(gi))
        if a.cols and not cx.term(i + 1).vanishes(h_i @ a):
            p = _pullback(wall, gn)
            system = hstack([kron(p, a.transpose()),
                             kron(cx.term(i + 1).relations, Matrix.identity(ring, a.cols))])
            target = Matrix(ring, [[x] for row in (-(h_i @ a)).to_rows() for x in row], cols=1)
            fix = solve_integral(system, target)
            if fix is None:
                return None
            y = Matrix(ring, [[fix[r * gi + c, 0] for c in range(gi)] for r in range(p.cols)],
                       cols=gi)
            h_i = h_i + p @ y
        maps[i] = prev = h_i
