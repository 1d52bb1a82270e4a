"""Golden command-line output: stdout, stderr and exit code of a fixed set
of invocations, each pinned by a digest in golden_cli.json.

The cases are the README examples, the three galleries (at their
defaults, over a grid of windows and stages, and in JSON at their caps),
`koszul`, and
documents drawn here from a fixed seed (complexes with free and non-free
terms, lo != 0, documents that must exit 2, and modules for tor/ext), each
run in text and in JSON.  A second seed draws the `badprimes`, `check-map`,
`snf` and `filtration` cases and unsorted, repeated `--primes` lists, so
the first seed's cases stay as they were.  A change that alters any byte of the output
fails here; a deliberate change re-records the digests with

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import hashlib
import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest

from fiberflat.cli import main

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "golden_cli.json"

# ring literal -> scalars (a, b) for a short exact sequence
# R/(a) -b-> R/(ab) -1-> R/(b); the middle relation is 0 when ab = n in Z/n
SES_SCALARS = {
    "Z": [(2, 2), (2, 3), (3, 2), (4, 2)],
    "Z/12": [(2, 3), (4, 3), (3, 4), (2, 2), (2, 6)],
    "Zloc/3": [(3, 3), (3, 2), (9, 3)],
    "F5": [(1, 1)],
}
TORSION = {"Z": [2, 3, 4, 6], "Z/12": [2, 3, 4, 6], "Zloc/3": [3, 9], "F5": [5]}


def _readme_argvs():
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("fiberflat ")]


def _random_complex_doc(rng):
    """A complex assembled from blocks placed in degrees lo..hi, then
    twisted by elementary changes of generators: a free term, a map
    R -c-> R, a torsion term R/(a), or a short exact sequence of cyclic
    modules."""
    ring = rng.choice(sorted(SES_SCALARS))
    lo = rng.choice((-1, 0, 0, 2))
    length = rng.randrange(1, 4)
    hi = lo + length - 1
    slots = {j: [] for j in range(lo, hi + 1)}   # degree -> relation scalar or None
    entries = []                                   # (degree of source, row, col, value)
    for _ in range(rng.randrange(1, 4)):
        kinds = ["free", "torsion"] + (["map"] if length >= 2 else []) + (
            ["ses"] if length >= 3 else [])
        kind = rng.choice(kinds)
        if kind in ("free", "torsion"):
            j = rng.randrange(lo, hi + 1)
            slots[j].append(None if kind == "free" else rng.choice(TORSION[ring]))
        elif kind == "map":
            j = rng.randrange(lo + 1, hi + 1)
            slots[j].append(None)
            slots[j - 1].append(None)
            entries.append((j, len(slots[j - 1]) - 1, len(slots[j]) - 1,
                            rng.choice((1, -1, 2, 3))))
        else:
            j = rng.randrange(lo + 2, hi + 1)
            a, b = rng.choice(SES_SCALARS[ring])
            for deg, rel in ((j, a), (j - 1, a * b), (j - 2, b)):
                slots[deg].append(rel)
            entries.append((j, len(slots[j - 1]) - 1, len(slots[j]) - 1, b))
            entries.append((j - 1, len(slots[j - 2]) - 1, len(slots[j - 1]) - 1, 1))
    gens = {j: len(s) for j, s in slots.items()}
    rels = {j: [[r if row == k else 0 for row in range(gens[j])]
                for k, r in enumerate(s) if r is not None] for j, s in slots.items()}
    bds = {j: [[0] * gens[j] for _ in range(gens[j - 1])] for j in range(lo + 1, hi + 1)}
    for j, r, c, v in entries:
        bds[j][r][c] = v
    for j in range(lo, hi + 1):
        if gens[j] < 2 or rng.random() < 0.3:
            continue
        i, k = rng.sample(range(gens[j]), 2)
        s = rng.choice((1, -1))
        # generators x -> U x with U = I + s E_ik: rows of the relations and
        # of the boundary into degree j, columns of the boundary out of j
        for col in rels[j]:
            col[i] += s * col[k]
        if j + 1 in bds:
            bds[j + 1][i] = [x + s * y for x, y in zip(bds[j + 1][i], bds[j + 1][k])]
        if j in bds:
            for row in bds[j]:
                row[k] -= s * row[i]
    terms = [gens[j] if not rels[j] else {"generators": gens[j], "relations": rels[j]}
             for j in range(hi, lo - 1, -1)]
    return {"version": 1, "ring": ring, "complex": {
        "lo": lo, "hi": hi, "ranks_or_terms": terms,
        "boundaries": [bds[j] for j in range(hi, lo, -1)]}}


def _corrupt(rng, doc):
    """One fault in a copy of doc, with at least one nonempty boundary:
    a changed entry (which may still be valid), an extra row, a scalar the
    ring does not admit, or a term too many."""
    doc = json.loads(json.dumps(doc))
    cx = doc["complex"]
    b = rng.choice([b for b in cx["boundaries"] if b and b[0]])
    kind = rng.randrange(5)
    if kind < 2:
        b[rng.randrange(len(b))][rng.randrange(len(b[0]))] += rng.choice((1, 2))
    elif kind == 2:
        b.append([0] * len(b[0]))
    elif kind == 3:
        b[0][0] = "1/2"
    else:
        cx["hi"] += 1
    return doc


def _random_module_doc(rng):
    ring = rng.choice(("Z", "Z/12", "Z/8", "Zloc/3"))
    g = rng.randrange(0, 4)
    cols = [[rng.randrange(-6, 7) for _ in range(g)] for _ in range(rng.randrange(0, 4))]
    return {"version": 1, "ring": ring, "module": {"generators": g, "relations": cols}}


def _seeded_cases():
    rng = Random("fiberflat golden cli")
    commands = ["homology", "check-theorem", "check-universal", "nullhomotopy", "fibers"]
    cases = {}
    for n in range(48):
        doc = _random_complex_doc(rng)
        if n % 2:
            while not any(b and b[0] for b in doc["complex"]["boundaries"]):
                doc = _random_complex_doc(rng)
            doc = _corrupt(rng, doc)
        text = json.dumps(doc)
        picked = rng.sample(commands, 2)
        for cmd in picked:
            cases[f"doc{n:02d}-{cmd}"] = [cmd, text]
    for n in range(8):
        text = json.dumps(_random_module_doc(rng))
        for cmd in ("tor", "ext"):
            cases[f"module{n}-{cmd}"] = [cmd, "--depth", str(rng.randrange(1, 4)), text]
    cases["fibers-primes"] = ["fibers", "--primes", "5,2", json.dumps(_random_complex_doc(rng))]
    return cases


# 4294967311 * 4294967357: its one split takes Pollard-Brent rho, not trial division
SEMIPRIME = 18446744400127067027


def _doc(ring, key, payload):
    return json.dumps({"version": 1, "ring": ring, key: payload})


def _free_complex_doc(rng, ring):
    """Free terms in degrees 0..2 with d_1 = [X | 0] and d_2 = [0; Y], X and
    Y seeded with entries in [-6, 6], then one elementary change of
    generators in degree 1, so that d_1 d_2 = 0 still holds."""
    n0, k, j, n2 = (rng.randrange(1, 4) for _ in range(4))
    d1 = [[rng.randint(-6, 6) for _ in range(k)] + [0] * j for _ in range(n0)]
    d2 = [[0] * n2 for _ in range(k)] + [[rng.randint(-6, 6) for _ in range(n2)] for _ in range(j)]
    i, l = rng.sample(range(k + j), 2)
    s = rng.choice((1, -1))
    # generators x -> U x with U = I + s E_il: rows of d_2, columns of d_1
    d2[i] = [a + s * b for a, b in zip(d2[i], d2[l])]
    for row in d1:
        row[l] -= s * row[i]
    return _doc(ring, "complex", {"lo": 0, "hi": 2, "ranks_or_terms": [n2, k + j, n0],
                                  "boundaries": [d2, d1]})


def _matrix(rng, rows, cols, entries):
    return [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]


def _prime_set_cases():
    """badprimes, check-map, snf, filtration and --primes cases from their
    own seed."""
    rng = Random("fiberflat golden cli: prime sets")
    cases = {}
    for ring in ("Z", "Zloc/3"):
        for n in range(4):
            cases[f"badprimes-{ring}-{n}"] = ["badprimes", _free_complex_doc(rng, ring)]
    cases["badprimes-semiprime-8fold"] = ["badprimes", _doc("Z", "complex", {
        "lo": 0, "hi": 8, "ranks_or_terms": [2] * 9, "boundaries": [[[0, SEMIPRIME], [0, 0]]] * 8})]
    cases["badprimes-Z12"] = ["badprimes", _free_complex_doc(rng, "Z/12")]
    cases["badprimes-nonfree"] = ["badprimes", _doc("Z", "complex", {
        "lo": 0, "hi": 1, "ranks_or_terms": [1, {"generators": 1, "relations": [[4]]}],
        "boundaries": [[[2]]]})]
    targets = {"Z": [], "Z/12": [[4]], "Zloc/3": []}
    for ring, rels in targets.items():
        for n in range(2):
            g = rng.randrange(1, 3)
            h = g + rng.randrange(2)
            target = {"generators": h, "relations": [col + [0] * (h - 1) for col in rels]}
            cases[f"check-map-{ring}-{n}"] = ["check-map", _doc(ring, "map", {
                "source": {"generators": g, "relations": []}, "target": target,
                "matrix": _matrix(rng, h, g, (0, 1, -1, 2, 3))})]
        cases[f"check-map-{ring}-pure"] = ["check-map", _doc(ring, "map", {
            "source": {"generators": 1, "relations": []},
            "target": {"generators": 2, "relations": []}, "matrix": [[1], [3]]})]
    scalars = {"Z": range(-9, 10), "Z/12": range(12), "Zloc/3": [1, 3, 6, -9, "1/2", "3/4"],
               "Q": [0, 1, -2, "1/2", "-3/5"], "F5": range(5)}
    for ring, entries in scalars.items():
        cases[f"snf-{ring}"] = ["snf", _doc(ring, "matrix", {"entries": _matrix(rng, 3, 2, entries)})]
    for ring in ("Z", "Zloc/3"):
        for n in range(2):
            g = rng.randrange(1, 4)
            cols = _matrix(rng, g, g, range(-9, 10))
            cases[f"filtration-{ring}-{n}"] = ["filtration", _doc(ring, "module", {
                "generators": g, "relations": cols})]
    cases["fibers-primes-unsorted"] = ["fibers", "--primes", "5,2,0,2", _free_complex_doc(rng, "Z")]
    cases["tor-primes-unsorted"] = ["tor", "--primes", "3,2", _doc("Z/12", "module", {
        "generators": 2, "relations": _matrix(rng, 2, 2, (0, 2, 3, 4, 6))})]
    return cases


def _cases():
    cases = {f"readme{n}": [a for a in argv if a not in ("--format", "json")]
             for n, argv in enumerate(_readme_argvs())}
    cases.update({
        "gallery-sum-inverse-primes": ["gallery", "sum-inverse-primes", "--max-prime", "30"],
        "gallery-injective-hull": ["gallery", "injective-hull", "-p", "3"],
        "gallery-dvr-fraction-field": ["gallery", "dvr-fraction-field"],
        "gallery-sum-inverse-primes-w1": ["gallery", "sum-inverse-primes", "--max-prime", "50",
                                          "--window", "1", "--max-stage", "4"],
        "gallery-sum-inverse-primes-w5": ["gallery", "sum-inverse-primes", "--max-prime", "50",
                                          "--window", "5", "--max-stage", "12"],
        "gallery-injective-hull-p2-w1": ["gallery", "injective-hull", "-p", "2", "--window", "1"],
        "gallery-injective-hull-p5-w4": ["gallery", "injective-hull", "-p", "5",
                                         "--window", "4", "--max-stage", "8"],
        "gallery-dvr-fraction-field-p2-w1": ["gallery", "dvr-fraction-field", "-p", "2",
                                             "--window", "1"],
        "gallery-dvr-fraction-field-p7-w5": ["gallery", "dvr-fraction-field", "-p", "7",
                                             "--window", "5", "--max-stage", "9"],
        "koszul-z": ["koszul", "--elements", "2,3,5"],
        "koszul-z35": ["koszul", "--ring", "Z/35", "--elements", "2,3"],
        "koszul-f2": ["koszul", "--ring", "F2", "--elements", "1,0"],
        "relations-not-carried": ["homology", json.dumps({"version": 1, "ring": "Z", "complex": {
            "lo": 0, "hi": 1, "ranks_or_terms": [{"generators": 1, "relations": [[4]]}, 1],
            "boundaries": [[[1]]]}})],
        "dd-nonzero": ["homology", json.dumps({"version": 1, "ring": "Z/12", "complex": {
            "lo": 0, "hi": 2, "ranks_or_terms": [1, 1, {"generators": 1, "relations": [[4]]}],
            "boundaries": [[[1]], [[2]]]}})],
    })
    cases.update(_seeded_cases())
    cases.update(_prime_set_cases())
    out = {}
    for name, argv in cases.items():
        out[f"{name}-text"] = argv
        out[f"{name}-json"] = ["--format", "json", "--seed", "7", *argv]
    caps = ["--window", "256", "--max-stage", "256"]
    out["gallery-sum-inverse-primes-caps-json"] = [
        "--format", "json", "gallery", "sum-inverse-primes", "--max-prime", "1000", *caps]
    for name in ("injective-hull", "dvr-fraction-field"):
        out[f"gallery-{name}-caps-json"] = ["--format", "json", "gallery", name, *caps]
    return out


def _digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert _digest(CASES[name]) == expected[name]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({name: _digest(argv) for name, argv in sorted(CASES.items())},
                                  indent=1, sort_keys=True) + "\n", encoding="utf-8")
