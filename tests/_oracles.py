"""Brute-force reference computations used as independent test oracles.

Everything here works on plain lists of ints or Fractions, deliberately
bypassing the library's Matrix type and its cached decompositions, so a
bug in the SNF kernel cannot hide behind itself.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd


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
