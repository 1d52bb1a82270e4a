"""The cli-docs corpus: well-formed documents for every CLI command.

Fixed documents have their canonical stdout digest stored in
cli_digests.json next to this file; a few seeded documents (criterion-1
complexes and a Z/12 module) change with the seed and are checked only
against the library.  Every document is also checked field by field
against an in-process library call on the same input, built here from
the document with the public constructors rather than the CLI parser.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from random import Random

import workloads

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_digests.json")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


# Two semiprimes with factors of 21 and 22 bits: the CLI factors them by
# trial division, which is what makes these documents slow today.
BAD_P, BAD_Q = _next_prime(2 ** 20 + 2 ** 19), _next_prime(2 ** 21 + 2 ** 20)
THM_P, THM_Q = _next_prime(2 ** 21 - 2 ** 18), _next_prime(2 ** 21 + 2 ** 19)


def _semiprime_boundary(n: int) -> list[list[int]]:
    """[[2,1],[1,1]] @ diag(1, n) @ [[1,3],[0,1]]: Smith form diag(1, n)."""
    return [[2, 6 + n], [1, 3 + n]]


def _complex_doc(ring: str, ranks_hi_to_lo: list, boundaries_hi_to_lo: list) -> dict:
    hi = len(ranks_hi_to_lo) - 1
    return {"version": 1, "ring": ring,
            "complex": {"lo": 0, "hi": hi, "ranks_or_terms": ranks_hi_to_lo,
                        "boundaries": boundaries_hi_to_lo}}


def _module_doc(ring: str, gens: int, columns: list) -> dict:
    return {"version": 1, "ring": ring, "module": {"generators": gens, "relations": columns}}


# id -> (command, flags, document or None, facts known by construction)
FIXED = {
    "snf-z": ("snf", [], {"version": 1, "ring": "Z", "matrix": {
        "entries": [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]}}, {}),
    "snf-zloc3": ("snf", [], {"version": 1, "ring": "Zloc/3", "matrix": {
        "entries": [["1/2", 3], [6, "9/4"]]}}, {}),
    "homology-z": ("homology", [], _complex_doc(
        "Z", [1, 2, 2], [[[2], [0]], [[0, 0], [0, 3]]]), {}),
    # over fields the Smith form runs through the same kernel entry point
    "snf-q": ("snf", [], {"version": 1, "ring": "Q", "matrix": {
        "entries": [["1/2", 3], [6, "9/4"], [1, "-2/3"]]}}, {"divisors": [1, 1]}),
    "homology-f5": ("homology", [], _complex_doc(
        "F5", [1, 2, 2], [[[2], [0]], [[0, 0], [0, 3]]]),
        {"homology": [{"degree": 2, "free_rank": 0, "torsion": []},
                      {"degree": 1, "free_rank": 0, "torsion": []},
                      {"degree": 0, "free_rank": 1, "torsion": []}]}),
    "fibers-z": ("fibers", [], _complex_doc("Z", [2, 3], [[[1, 2], [3, 4], [5, 6]]]), {}),
    "badprimes-semiprime": ("badprimes", [], _complex_doc(
        "Z", [2, 2], [_semiprime_boundary(BAD_P * BAD_Q)]),
        {"primes": [BAD_P, BAD_Q]}),
    # degree 1 has rank 2 and d = [1, -1]: H_1 = ker d = Z, so the
    # hypothesis fails at the generic point
    "check-theorem-small": ("check-theorem", [], _complex_doc("Z", [2, 1], [[[1, -1]]]),
                            {"hypothesis_holds": False, "verdict": "consistent"}),
    "check-theorem-semiprime": ("check-theorem", [], _complex_doc(
        "Z", [2, 2], [_semiprime_boundary(THM_P * THM_Q)]),
        {"hypothesis_holds": False, "checked_primes": ["0", str(THM_P), str(THM_Q)]}),
    "check-map-z": ("check-map", [], {"version": 1, "ring": "Z", "map": {
        "source": {"generators": 2, "relations": []},
        "target": {"generators": 3, "relations": []},
        "matrix": [[1, 0], [0, 1], [2, 3]]}}, {"verdict": True}),
    "check-universal-z": ("check-universal", [], _complex_doc(
        "Z", [1, 2, 1], [[[1], [1]], [[1, -1]]]), {"verdict": True}),
    "tor-z4-depth": ("tor", ["--depth", "4"], _module_doc("Z/4", 1, [[2]]),
                     {"resolution_periodic": True}),
    "ext-z": ("ext", ["--depth", "2"], _module_doc("Z", 2, [[2, 0]]), {}),
    "koszul-z35": ("koszul", ["--ring", "Z/35", "--elements", "2,3"], None,
                   {"selfduality_isomorphism": True}),
    "nullhomotopy-z": ("nullhomotopy", [], _complex_doc("Z", [2, 2], [[[2, 1], [1, 1]]]),
                       {"contractible": True}),
    "filtration-z": ("filtration", [], _module_doc("Z", 2, [[12, 0], [0, 5]]), {}),
    "gallery-injective-hull": ("gallery", ["injective-hull", "-p", "2"], None, {"ok": True}),
    "gallery-dvr": ("gallery", ["dvr-fraction-field", "-p", "3"], None, {"ok": True}),
    "gallery-sum-inverse-primes": ("gallery", ["sum-inverse-primes", "--max-prime", "30"],
                                   None, {"ok": True}),
}


def seeded(seed: int) -> dict:
    """Documents drawn from the seed: one complex of each criterion-1
    population through check-theorem and a Z/12 module through tor."""
    import fiberflat as ff
    rng = Random(f"cli-docs:{seed}")
    out = {}
    for pop in ("hypothesis-true", "hypothesis-false"):
        spec = ff.random_complex(rng, max_len=5, max_rank=5, entry_bound=8, population=pop)
        cx = spec.complex
        ranks = [cx.term(i).gens for i in range(cx.hi, cx.lo - 1, -1)]
        bds = [[[int(x) for x in row] for row in cx.boundary(i).matrix.to_rows()]
               for i in range(cx.hi, cx.lo, -1)]
        out[f"seeded-check-theorem-{pop}"] = (
            "check-theorem", [], _complex_doc("Z", ranks, bds),
            {"hypothesis_holds": pop == "hypothesis-true"})
    m = workloads.small_module(rng, "Z/12", "tor", 2)
    columns = [[m["rows"][i][j] for i in range(m["gens"])] for j in range(m["cols"])]
    out["seeded-tor-z12"] = ("tor", ["--depth", "2"], _module_doc("Z/12", m["gens"], columns),
                             {"criterion": {"positive_vanishing": m["flat"]}})
    return out


def corpus(seed: int) -> dict:
    docs = dict(FIXED)
    docs.update(seeded(seed))
    return docs


def write_corpus(docs: dict, directory: str) -> dict[str, list[str]]:
    """Write each document and return its argv after `--format json`."""
    os.makedirs(directory, exist_ok=True)
    argv = {}
    for doc_id, (command, flags, doc, _) in docs.items():
        if doc is None:
            argv[doc_id] = [command, *flags]
            continue
        path = os.path.join(directory, f"{doc_id}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv[doc_id] = [command, *flags, path]
    return argv


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def stored_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- the in-process reference -------------------------------------------------

def _render(x) -> object:
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def _scalar(x):
    if isinstance(x, str):
        a, b = x.split("/")
        return Fraction(int(a), int(b))
    return x


def _build(ff, doc: dict):
    ring = ff.parse_ring(doc["ring"])
    if "matrix" in doc:
        rows = [[_scalar(x) for x in r] for r in doc["matrix"]["entries"]]
        return ring, ff.Matrix(ring, rows, cols=len(rows[0]))
    if "module" in doc:
        return ring, _module(ff, ring, doc["module"])
    if "map" in doc:
        mp = doc["map"]
        src, tgt = _module(ff, ring, mp["source"]), _module(ff, ring, mp["target"])
        return ring, ff.ModuleMap(src, tgt, ff.Matrix(ring, mp["matrix"], cols=src.gens))
    c = doc["complex"]
    ranks = list(reversed(c["ranks_or_terms"]))
    mats = [ff.Matrix(ring, rows, cols=ranks[j + 1])
            for j, rows in enumerate(reversed(c["boundaries"]))]
    return ring, ff.BoundedComplex.free_complex(ring, c["lo"], ranks, mats)


def _module(ff, ring, payload: dict):
    g = payload["generators"]
    cols = payload.get("relations", [])
    return ff.FpModule(ring, g, ff.Matrix.from_columns(ring, cols, rows=g))


def _inv_json(m) -> dict:
    inv = m.invariant_factors()
    return {"free_rank": inv.free_rank, "torsion": [_render(d) for d in inv.torsion]}


def _sorted(primes) -> list:
    return sorted(primes, key=lambda q: q.sort_key())


def reference(ff, command: str, flags: list[str], doc: dict | None) -> dict:
    """The fields a correct CLI report must carry, from library calls."""
    if command == "koszul":
        ring = ff.parse_ring(flags[flags.index("--ring") + 1])
        elements = [int(x) for x in flags[flags.index("--elements") + 1].split(",")]
        kx = ff.koszul_complex(ring, elements)
        return {"ranks": [kx.term(i).gens for i in range(kx.hi, kx.lo - 1, -1)],
                "selfduality_isomorphism": ff.koszul_selfduality(ring, elements).is_isomorphism()}
    if command == "gallery":
        kwargs = {}
        if "-p" in flags:
            kwargs["p"] = int(flags[flags.index("-p") + 1])
        if "--max-prime" in flags:
            kwargs["max_prime"] = int(flags[flags.index("--max-prime") + 1])
        rep = ff.gallery(flags[0], **kwargs)
        return {"ok": rep.ok,
                "rows": [{"label": r.label, "value": r.report.value,
                          "status": r.report.status, "ok": r.ok} for r in rep.rows]}
    ring, obj = _build(ff, doc)
    if command == "snf":
        return {"divisors": [_render(d) for d in ff.snf(obj).elementary_divisors],
                "verified": True}
    if command == "homology":
        return {"homology": [{"degree": i, **_inv_json(obj.homology(i))}
                             for i in range(obj.hi, obj.lo - 1, -1)]}
    if command == "fibers":
        rows = []
        for q in _sorted(ff.complex_prime_set(obj)):
            dims = obj.fiber_profile(q).dims
            rows.append({"prime": q.literal(),
                         "dims": [[i, dims[i]] for i in range(obj.hi, obj.lo - 1, -1)]})
        return {"profiles": rows}
    if command == "badprimes":
        bp = ff.bad_primes(obj)
        return {"primes": [q.p for q in bp.primes],
                "witness": [[p, list(d)] for p, d in sorted(bp.witness.items())]}
    if command == "check-theorem":
        rep = ff.check_main_theorem(obj)
        return {"hypothesis_holds": rep.hypothesis_holds,
                "checked_primes": [q.literal() for q in _sorted(rep.checked_primes)],
                "conclusion_acyclic": rep.conclusion_acyclic,
                "conclusion_h0_flat": rep.conclusion_h0_flat,
                "tensor_family_acyclic": rep.tensor_family_acyclic,
                "h0": _inv_json(rep.h0), "verdict": rep.verdict}
    if command == "check-map":
        rep = ff.purity_report(obj)
        return {"injective_with_flat_cokernel": rep.injective_with_flat_cokernel,
                "pure": rep.pure, "fiberwise_injective": rep.fiberwise_injective,
                "verdict": rep.verdict}
    if command == "check-universal":
        rep = ff.is_universally_exact(obj)
        return {"direct": rep.direct, "fiberwise": rep.fiberwise,
                "tensor_sampled": rep.tensor_sampled, "verdict": rep.verdict}
    if command in ("tor", "ext"):
        depth = int(flags[flags.index("--depth") + 1])
        fiber = ff.tor_fiber if command == "tor" else ff.ext_fiber
        crit = ff.tor_flatness_criterion if command == "tor" else ff.ext_flatness_criterion
        table = [{"prime": q.literal(),
                  "dims": [[i, fiber(obj, q, i, depth + 1)] for i in range(depth, -1, -1)]}
                 for q in _sorted(ff.module_prime_set(obj))]
        v = crit(obj, depth)
        return {"table": table, "module": _inv_json(obj),
                "criterion": {"positive_vanishing": v.positive_vanishing,
                              "vanishing_with_degree_zero": v.vanishing_with_degree_zero,
                              "flat_confirmed": v.flat_confirmed,
                              "zero_confirmed": v.zero_confirmed,
                              "checked_depth": v.checked_depth, "complete": v.complete}}
    if command == "nullhomotopy":
        return {"contractible": ff.null_homotopy(obj) is not None}
    if command == "filtration":
        pf = ff.prime_filtration(obj)
        return {"module": _inv_json(obj),
                "quotients": [q.literal() for _, q in pf.steps]}
    raise ValueError(f"no reference for command {command!r}")


def _subset_mismatch(expected, got, path: str) -> str | None:
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return f"{path}: expected an object, got {got!r}"
        for key, val in expected.items():
            bad = _subset_mismatch(val, got.get(key), f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(expected, list) and expected and isinstance(expected[0], dict):
        if not isinstance(got, list) or len(got) != len(expected):
            return f"{path}: expected {len(expected)} entries, got {got!r}"
        for k, (e, g) in enumerate(zip(expected, got)):
            bad = _subset_mismatch(e, g, f"{path}[{k}]")
            if bad:
                return bad
        return None
    return None if expected == got else f"{path}: CLI says {got!r}, expected {expected!r}"


def check_output(doc_id: str, spec: tuple, ref: dict, returncode: int, stdout: str) -> str | None:
    """None when exit code and verdict fields match library and construction."""
    command, _, _, facts = spec
    if returncode != 0:
        return f"{doc_id}: exit code {returncode}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return f"{doc_id}: stdout is not one JSON document"
    if out.get("command") != command:
        return f"{doc_id}: report is for command {out.get('command')!r}"
    if command == "filtration":
        out = dict(out, quotients=[s["quotient"] for s in out.get("steps", [])])
    for source, expected in (("library", ref), ("construction", facts)):
        bad = _subset_mismatch(expected, out, doc_id)
        if bad:
            return f"{bad} (from the {source})"
    return None
