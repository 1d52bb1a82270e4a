"""The seeded generators behind the acceptance corpora and the benchmark
inputs: their contracts, and their exact output pinned by digest."""

import hashlib
from random import Random

import pytest

from fiberflat.generate import random_complex, random_unimodular
from fiberflat.linalg import Matrix
from fiberflat.rings import QQ, ZZ, integers_mod, localized_at

RINGS = [ZZ, integers_mod(12), localized_at(3), QQ]


def _rows(m):
    return [[str(x) for x in row] for row in m.to_rows()]


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_random_unimodular_is_an_inverse_pair_within_bound(ring):
    rng = Random(5)
    for n in range(7):
        for bound in (1, 3, 8):
            u, ui = random_unimodular(rng, ring, n, bound)
            assert u @ ui == Matrix.identity(ring, n) == ui @ u
            if ring.kind != "Zmod":  # Z/n reduces the entries
                assert all(abs(x) <= bound for row in u.to_rows() for x in row)


def _digest(parts):
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def test_random_unimodular_output_is_pinned():
    parts = []
    for ring in RINGS:
        rng = Random(f"unimodular {ring}")
        for n in range(9):
            for bound in (1, 2, 8):
                for steps in (None, 2):
                    u, ui = random_unimodular(rng, ring, n, bound, steps)
                    parts.append((_rows(u), _rows(ui)))
    assert _digest(parts) == "34c7ce582fa1c1ab117e894c5426c202d6445d331e0ee359ec9dcd46346c7bf7"


def test_random_complex_output_is_pinned():
    parts = []
    for ring in (ZZ, integers_mod(360), localized_at(3)):
        for population in ("contractible", "hypothesis-true", "hypothesis-false"):
            rng = Random(f"complex {ring} {population}")
            for _ in range(10):
                spec = random_complex(rng, ring, max_len=5, max_rank=5, population=population)
                cx = spec.complex
                parts.append(([cx.term(i).gens for i in cx.degrees()],
                              [_rows(cx.boundary(i).matrix) for i in cx.degrees()],
                              spec.torsion_scalars, spec.free_rank_degree0))
    assert _digest(parts) == "86fd8ff140ac14796824c02d24d073237d5ef00bbce3d2c60520e2ff86b3144b"
