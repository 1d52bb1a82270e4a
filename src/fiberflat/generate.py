"""Seeded generators for random test instances.

Complexes are built from split-exact blocks [R^a -> R^a] placed in
adjacent degrees, plus optional free summands, then conjugated by random
unimodular changes of basis.  d . d = 0 holds structurally (no two
blocks share a boundary), so the generator never needs rejection on the
complex itself; only entry-size bounds are enforced by resampling.

Populations:
  * "contractible": every block map unimodular, no free summands;
  * "hypothesis-true": unimodular blocks, free summands in degree 0;
  * "hypothesis-false": at least one block with determinant of absolute
    value >= 2 (its cokernel contributes torsion homology, and the fiber
    at any prime dividing the determinant is inexact in degree > 0).

Everything is a pure function of the supplied random.Random instance.
"""

from __future__ import annotations

from random import Random
from typing import NamedTuple

from .complexes import BoundedComplex
from .errors import InputError
from .linalg import _ADD, _NEG, _SWAP, Matrix, _replay
from .modules import FpModule
from .rings import BaseRing, ZZ

_POPULATIONS = ("contractible", "hypothesis-true", "hypothesis-false")


def random_unimodular(rng: Random, ring: BaseRing, n: int,
                      entry_bound: int = 8, steps: int | None = None
                      ) -> tuple[Matrix, Matrix]:
    """A random determinant +-1 matrix and its exact inverse.

    Built as a product of elementary row moves (linalg's add-multiple, swap
    and negation) applied to the identity; the inverse is replayed from the
    same moves.  Entry magnitudes are kept within entry_bound by retrying
    with fewer steps.
    """
    if n == 0:
        e = Matrix.identity(ring, 0)
        return e, e
    want = steps if steps is not None else n + rng.randrange(0, 3)
    while True:
        moves = []
        for _ in range(want):
            kind = rng.randrange(3)
            if kind == 0 and n >= 2:
                i, j = rng.sample(range(n), 2)
                moves.append((_ADD, i, j, rng.choice((-1, 1))))
            elif kind == 1 and n >= 2:
                i, j = rng.sample(range(n), 2)
                moves.append((_SWAP, i, j, 0))
            else:
                moves.append((_NEG, rng.randrange(n), 0, 0))
        u = _replay(n, moves)
        if max(abs(x) for row in u for x in row) <= entry_bound:
            ui = zip(*_replay(n, moves, True))
            return Matrix(ring, u, cols=n), Matrix(ring, ui, cols=n)
        if want == 0:
            e = Matrix.identity(ring, n)
            return e, e
        want -= 1


def _random_block(rng: Random, ring: BaseRing, size: int, entry_bound: int,
                  torsion: int | None) -> Matrix:
    """A size x size map: unimodular, or with one diagonal entry torsion."""
    for attempt in range(24):
        u, _ = random_unimodular(rng, ring, size, entry_bound)
        if torsion is None:
            return u
        v, _ = random_unimodular(rng, ring, size, entry_bound)
        diag = Matrix.diagonal(ring, [torsion] + [1] * (size - 1))
        cand = u @ diag @ v
        if max(abs(int(x)) for row in cand.to_rows() for x in row) <= entry_bound:
            return cand
    return Matrix.diagonal(ring, [torsion] + [1] * (size - 1))


class ComplexSpecimen(NamedTuple):
    """A generated complex plus the facts its construction guarantees."""

    complex: BoundedComplex
    population: str
    torsion_scalars: tuple[int, ...]
    free_rank_degree0: int

    @property
    def hypothesis_true_by_construction(self) -> bool:
        return not self.torsion_scalars

    @property
    def contractible_by_construction(self) -> bool:
        return self.population == "contractible"


def random_complex(rng: Random, ring: BaseRing | None = None,
                   max_len: int = 5, max_rank: int = 5, entry_bound: int = 8,
                   population: str = "hypothesis-true") -> ComplexSpecimen:
    """A random bounded complex of free modules in degrees [0, max_len-1].

    Ranks per degree stay <= max_rank and entries within entry_bound.
    See the module docstring for what each population guarantees.
    """
    if population not in _POPULATIONS:
        raise InputError(f"unknown population {population!r}")
    ring = ring if ring is not None else ZZ
    if max_len < 2 or max_rank < 1:
        raise InputError("need max_len >= 2 and max_rank >= 1")
    top = max_len - 1
    budget = [max_rank] * max_len
    blocks: list[tuple[int, int, int | None]] = []

    n_blocks = rng.randrange(1, max_len)
    torsion_at = rng.randrange(n_blocks) if population == "hypothesis-false" else -1
    for b in range(n_blocks):
        spots = [j for j in range(top) if budget[j] >= 1 and budget[j + 1] >= 1]
        if not spots:
            break
        j = rng.choice(spots)
        size = rng.randrange(1, min(budget[j], budget[j + 1]) + 1)
        budget[j] -= size
        budget[j + 1] -= size
        scalar = rng.choice((2, 3, 4, 5, 6)) if b == torsion_at else None
        blocks.append((j, size, scalar))
    if population == "hypothesis-false" and not any(s for _, _, s in blocks):
        blocks[0] = (blocks[0][0], blocks[0][1], rng.choice((2, 3, 4, 5, 6)))

    free0 = 0
    if population == "hypothesis-true" and budget[0] > 0 and rng.random() < 0.7:
        free0 = rng.randrange(1, budget[0] + 1)
        budget[0] -= free0

    ranks = [0] * max_len
    for j, size, _ in blocks:
        ranks[j] += size
        ranks[j + 1] += size
    ranks[0] += free0
    while len(ranks) > 1 and ranks[-1] == 0:
        ranks.pop()
    length = len(ranks)

    # Each degree's coordinates split into: free part, then slots serving
    # as targets of blocks above (low side), then slots serving as sources
    # of blocks below (high side).  Keeping the two ranges disjoint is what
    # makes d . d = 0 structural.
    low_sum = [0] * length
    for j, size, _ in blocks:
        low_sum[j] += size
    low_cursor = {j: (free0 if j == 0 else 0) for j in range(length)}
    high_cursor = {j: (free0 if j == 0 else 0) + low_sum[j] for j in range(length)}
    placed: dict[int, list[tuple[int, int, Matrix]]] = {}
    for j, size, scalar in blocks:
        phi = _random_block(rng, ring, size, entry_bound, scalar)
        r = low_cursor[j]
        c = high_cursor[j + 1]
        placed.setdefault(j + 1, []).append((r, c, phi))
        low_cursor[j] += size
        high_cursor[j + 1] += size
    mats = []
    for i in range(1, length):
        body = [[ring.zero] * ranks[i] for _ in range(ranks[i - 1])]
        for r0, c0, phi in placed.get(i, ()):
            for a in range(phi.rows):
                for b in range(phi.cols):
                    body[r0 + a][c0 + b] = phi[a, b]
        mats.append(Matrix._make(ring, body, ranks[i]))

    mats = _twist(rng, ring, ranks, mats, entry_bound)
    cx = BoundedComplex.free_complex(ring, 0, ranks, mats)
    scalars = tuple(s for _, _, s in blocks if s is not None)
    return ComplexSpecimen(cx, population, scalars, free0)


def _twist(rng: Random, ring: BaseRing, ranks: list[int],
           mats: list[Matrix], entry_bound: int) -> list[Matrix]:
    """Conjugate by a random basis change per degree, keeping entries
    within bound (give up on the twist rather than loosen the bound)."""
    for steps in (3, 2, 1, 0):
        if steps == 0:
            return mats
        pairs = [random_unimodular(rng, ring, r, entry_bound, steps) for r in ranks]
        twisted = []
        ok = True
        for i, d in enumerate(mats, start=1):
            nd = pairs[i - 1][0] @ d @ pairs[i][1]
            if any(abs(int(x)) > entry_bound for row in nd.to_rows() for x in row):
                ok = False
                break
            twisted.append(nd)
        if ok:
            return twisted
    return mats


def random_fp_module(rng: Random, ring: BaseRing | None = None,
                     max_gens: int = 4, max_rels: int = 4,
                     entry_bound: int = 9) -> FpModule:
    """A random finitely presented module: unconstrained relation matrix."""
    ring = ring if ring is not None else ZZ
    g = rng.randrange(0, max_gens + 1)
    r = rng.randrange(0, max_rels + 1)
    body = [[rng.randrange(-entry_bound, entry_bound + 1) for _ in range(r)]
            for _ in range(g)]
    return FpModule(ring, g, Matrix(ring, body, cols=r))
