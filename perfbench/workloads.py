"""Seeded inputs and checked library calls for the in-process workloads.

An item is plain data (ring literal, ranks, integer rows) plus the facts
its construction guarantees.  Running an item builds the fiberflat objects
from that data through the public constructors and asks for one verdict,
so every pass over an item starts with cold per-object caches.  Items
come in rounds with a fixed mix of shapes; round r of a workload depends
only on the seed and r.

small-batch: criterion-1-style complexes over Z from random_complex,
    contractible complexes through certify_projective_corollary, and
    modules of known structure through the Tor/Ext flatness criteria.
dense-batch: dense complexes built here from random_unimodular, Matrix
    and BoundedComplex.free_complex: a block form whose d.d = 0 is
    structural, conjugated by long products of elementary matrices, over
    Z, Z/360 and Zloc/3, through check_main_theorem.
"""

from __future__ import annotations

from math import gcd
from random import Random

# Bound per entry of the unimodular factors: far above what the step
# counts below reach, so random_unimodular never retries.
_NO_RETRY_BOUND = 2 ** 62


def _ff():
    import fiberflat
    return fiberflat


# -- facts that hold by construction ------------------------------------------

def canonical_divisor(ring_lit: str, s: int) -> int:
    """The invariant factor that R/(s) reports, by ring arithmetic."""
    if ring_lit.startswith("Z/"):
        return gcd(s, int(ring_lit[2:]))
    if ring_lit.startswith("Zloc/"):
        p = int(ring_lit[5:])
        out = 1
        while s % p == 0:
            s //= p
            out *= p
        return out
    return abs(s)


def _cyclic_is_flat(ring_lit: str, d: int) -> bool:
    """R/(d) is flat over Z (d unit or 0) or over Z/12 (d generates an
    idempotent ideal: Z/12 = Z/4 x Z/3, so R/3 and R/4 are summands)."""
    if ring_lit == "Z":
        return d in (0, 1, -1)
    return gcd(d, 12) in (1, 3, 4, 12)


def _is_unit(ring_lit: str, d: int) -> bool:
    if ring_lit == "Z":
        return d in (1, -1)
    return gcd(d, 12) == 1


# -- small-batch --------------------------------------------------------------

# Theorem items take about 90% of the untraced item time and set what the
# workload shows (many small SNFs, ModuleMap construction); the certify and
# module items keep null_homotopy, free_resolution and invariant_factors in
# the traced metrics at under 10% of the time.  A traced run's report
# ("shares") gives the split.
_SMALL_ROUND = (
    ("theorem", "hypothesis-true"), ("theorem", "hypothesis-false"),
    ("theorem", "hypothesis-true"), ("theorem", "hypothesis-false"),
    ("theorem", "hypothesis-true"), ("theorem", "hypothesis-false"),
    ("theorem", "hypothesis-true"), ("theorem", "hypothesis-false"),
    ("certify", "contractible"), ("certify", "contractible"),
    ("module", ("Z", "tor", 1)), ("module", ("Z", "ext", 1)),
    ("module", ("Z/12", "tor", 2)), ("module", ("Z/12", "ext", 2)),
)
_MODULE_DIAG = {"Z": (0, 1, 1, 2, 3, 4, 6), "Z/12": (0, 1, 5, 2, 3, 4, 6)}


def _complex_data(cx) -> tuple[list[int], list[list[list[int]]]]:
    ranks = [cx.term(i).gens for i in cx.degrees()]
    mats = [[[int(x) for x in row] for row in cx.boundary(i).matrix.to_rows()]
            for i in range(cx.lo + 1, cx.hi + 1)]
    return ranks, mats


def small_module(rng: Random, ring_lit: str, functor: str, depth: int) -> dict:
    ff = _ff()
    g = rng.randrange(1, 5)
    r = rng.randrange(0, 5)
    diag = [rng.choice(_MODULE_DIAG[ring_lit]) for _ in range(min(g, r))]
    body = [[0] * r for _ in range(g)]
    for i, d in enumerate(diag):
        body[i][i] = d
    u, _ = ff.random_unimodular(rng, ff.ZZ, g, entry_bound=4)
    v, _ = ff.random_unimodular(rng, ff.ZZ, r, entry_bound=4)
    rel = u @ ff.Matrix(ff.ZZ, body, cols=r) @ v
    killed = sum(1 for d in diag if _is_unit(ring_lit, d))
    flat = all(_cyclic_is_flat(ring_lit, d) for d in diag)
    return {"kind": "module", "ring": ring_lit, "gens": g, "cols": r,
            "rows": [[int(x) for x in row] for row in rel.to_rows()],
            "functor": functor, "depth": depth,
            "flat": flat, "zero": killed == g}


def small_round(seed: int, r: int) -> list[dict]:
    ff = _ff()
    rng = Random(f"small-batch:{seed}:{r}")
    out = []
    for kind, what in _SMALL_ROUND:
        if kind == "module":
            out.append(small_module(rng, *what))
            continue
        spec = ff.random_complex(rng, max_len=5, max_rank=5, entry_bound=8,
                                 population=what)
        ranks, mats = _complex_data(spec.complex)
        out.append({"kind": kind, "ring": "Z", "ranks": ranks, "mats": mats,
                    "population": what, "h0_free": spec.free_rank_degree0})
    return out


# -- dense-batch --------------------------------------------------------------

# (ring, number of terms, boundary rank k, boundary carrying the non-unit
# scalar s in the hypothesis-false population, s, population); five items
# per population.  Term ranks stay within 12..32 (degree 0 adds two free
# summands).  Zloc/3 keeps the smallest shape: its SNF kernel costs about
# ten times the integer one.  Only the entries depend on the seed, so
# every round costs about the same.
#
# A hypothesis-false item skips the tensor family and costs a third to a
# half of a true one of the same shape, so the shapes differ by population.
# They are chosen so that every item but the Zloc/3 hypothesis-true one
# takes about the same time (400-600 ms each on a 2-core VM; that one
# about 1 s).  The median and p75 then fall inside one cluster of items.
# With items of very different costs, a percentile that falls in a gap
# between two of them jumps from one side to the other from run to run.
_DENSE_SHAPES = (
    ("Z", 2, 22, 1, 5, "hypothesis-true"), ("Z", 2, 22, 1, 5, "hypothesis-false"),
    ("Z", 3, 12, 2, 4, "hypothesis-true"), ("Z", 3, 15, 2, 4, "hypothesis-false"),
    ("Z/360", 2, 22, 1, 4, "hypothesis-true"), ("Z/360", 2, 30, 1, 4, "hypothesis-false"),
    ("Z/360", 2, 23, 1, 4, "hypothesis-true"), ("Z/360", 3, 13, 1, 3, "hypothesis-false"),
    ("Zloc/3", 2, 12, 1, 9, "hypothesis-true"), ("Zloc/3", 2, 12, 1, 9, "hypothesis-false"),
)
_DENSE_FREE0 = 2
# elementary steps per unit of rank in each unimodular factor: about
# 8-11 bits per factor entry, 15-22 bits per boundary entry
_DENSE_STEPS = 36


def dense_complex(rng: Random, ring_lit: str, terms: int, k: int,
                  torsion_at: int, scalar: int, population: str) -> dict:
    """A dense free complex and the verdict its construction guarantees.

    Degree j >= 1 holds a block B_j of rank k mapped by a diagonal onto a
    block A_{j-1} of degree j-1; d_{j-1} vanishes on A_{j-1}, so d.d = 0
    before conjugation, and conjugating d_j to P_{j-1} d_j P_j^-1 keeps it.
    Hypothesis-true diagonals are all 1; hypothesis-false ones carry a
    single non-unit scalar at boundary torsion_at.
    """
    ff = _ff()
    zz = ff.ZZ
    free0 = _DENSE_FREE0
    if population == "hypothesis-true":
        torsion_at, scalar = 0, 1
    # degree j has A_j (first k coords, j < terms-1), then B_j (k coords,
    # j >= 1); degree 0 adds free0 free coordinates after A_0
    ranks = [k + free0] + [2 * k] * (terms - 2) + [k]
    structural = []
    for j in range(1, terms):
        rows, cols = ranks[j - 1], ranks[j]
        body = [[0] * cols for _ in range(rows)]
        src = 0 if j == terms - 1 else k      # B_j offset inside degree j
        for t in range(k):
            body[t][src + t] = scalar if (j == torsion_at and t == 0) else 1
        structural.append(ff.Matrix(zz, body, cols=cols))
    bases = [ff.random_unimodular(rng, zz, n, entry_bound=_NO_RETRY_BOUND,
                                  steps=_DENSE_STEPS * n) for n in ranks]
    mats = [bases[j - 1][0] @ structural[j - 1] @ bases[j][1] for j in range(1, terms)]
    for lower, upper in zip(mats, mats[1:]):
        if not (lower @ upper).is_zero():
            raise RuntimeError("dense generator broke d.d = 0")
    if ring_lit.startswith("Z/"):
        acyclic = not torsion_at
    else:
        acyclic = torsion_at in (0, 1)
    h0_torsion = [canonical_divisor(ring_lit, scalar)] if torsion_at == 1 else []
    return {"kind": "theorem", "ring": ring_lit, "ranks": ranks,
            "mats": [[[int(x) for x in row] for row in m.to_rows()] for m in mats],
            "population": population, "h0_free": free0,
            "acyclic": acyclic, "h0_torsion": h0_torsion}


def dense_round(seed: int, r: int) -> list[dict]:
    rng = Random(f"dense-batch:{seed}:{r}")
    return [dense_complex(rng, *shape) for shape in _DENSE_SHAPES]


# -- running and checking -----------------------------------------------------

def run_item(item: dict):
    """Build the item's objects from plain data and compute its verdict."""
    ff = _ff()
    ring = ff.parse_ring(item["ring"])
    if item["kind"] == "module":
        rel = ff.Matrix(ring, item["rows"], cols=item["cols"])
        m = ff.FpModule(ring, item["gens"], rel)
        crit = ff.tor_flatness_criterion if item["functor"] == "tor" else ff.ext_flatness_criterion
        return crit(m, item["depth"])
    mats = [ff.Matrix(ring, rows, cols=item["ranks"][j + 1])
            for j, rows in enumerate(item["mats"])]
    cx = ff.BoundedComplex.free_complex(ring, 0, item["ranks"], mats)
    if item["kind"] == "certify":
        return ff.certify_projective_corollary(cx)
    return ff.check_main_theorem(cx)


def check_item(item: dict, result) -> str | None:
    """None when the verdict matches the construction, else the reason."""
    kind = item["kind"]
    if kind == "module":
        flat_confirmed = True if item["flat"] else None
        zero_confirmed = True if item["zero"] else None
        got = (result.positive_vanishing, result.vanishing_with_degree_zero,
               result.flat_confirmed, result.zero_confirmed)
        want = (item["flat"], item["zero"], flat_confirmed, zero_confirmed)
        return None if got == want else f"flatness verdict {got} != {want}"
    if kind == "certify":
        return None if result.verify() else "null homotopy failed dh + hd = id"
    if result.verdict != "consistent":
        return f"verdict {result.verdict}"
    true_pop = item["population"] == "hypothesis-true"
    if result.hypothesis_holds != true_pop:
        return f"hypothesis_holds={result.hypothesis_holds} for {item['population']}"
    inv = result.h0.invariant_factors()
    torsion = [int(x) for x in inv.torsion]
    if true_pop:
        if not (result.conclusion_acyclic and result.conclusion_h0_flat
                and result.tensor_family_acyclic):
            return "hypothesis-true complex with a failing conclusion"
        if inv.free_rank != item["h0_free"] or torsion:
            return f"H_0 = {inv} but the construction gives R^{item['h0_free']}"
        return None
    if "acyclic" in item:
        if result.conclusion_acyclic != item["acyclic"]:
            return f"conclusion_acyclic={result.conclusion_acyclic}, expected {item['acyclic']}"
        if inv.free_rank != item["h0_free"] or torsion != item["h0_torsion"]:
            return (f"H_0 = {inv} but the construction gives "
                    f"R^{item['h0_free']} + {item['h0_torsion']}")
    return None


ROUND_MAKERS = {
    "small-batch": small_round,
    "dense-batch": dense_round,
}
