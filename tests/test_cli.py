"""End-to-end command-line checks, run in process through main()."""

import dataclasses
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fiberflat import cli, towers
from fiberflat.cli import (
    MAX_DEPTH, MAX_KOSZUL_ELEMENTS, MAX_PRIME_BOUND, MAX_RANK, MAX_STAGE,
    load_document, main, render_document,
)
from fiberflat.complexes import BoundedComplex, HomotopyCertificate, tensor_with_module
from fiberflat.errors import InputError
from fiberflat.generate import random_unimodular
from fiberflat.linalg import Matrix
from fiberflat.modules import FpModule, Resolution
from fiberflat.rings import PRIMALITY_BOUND, ZZ

# -- document corpus -----------------------------------------------------------

DOCS = {
    "module": {
        "version": 1, "ring": "Z",
        "module": {"generators": 2, "relations": [[4, 0], [0, 6]]},
    },
    "map": {
        "version": 1, "ring": "Z",
        "map": {"source": {"generators": 1, "relations": []},
                "target": {"generators": 1, "relations": []},
                "matrix": [[2]]},
    },
    "complex": {
        "version": 1, "ring": "Z",
        "complex": {"lo": 0, "hi": 1, "ranks_or_terms": [1, 1],
                    "boundaries": [[[6]]]},
    },
    "matrix": {
        "version": 1, "ring": "Z",
        "matrix": {"entries": [[2, 4], [-6, 8]], "cols": 2},
    },
}

TIMES_TWO_CX = json.dumps({
    "version": 1, "ring": "Z",
    "complex": {"lo": 0, "hi": 1, "ranks_or_terms": [1, 1],
                "boundaries": [[[2]]]}})

SPLIT_INJ_CX = json.dumps({
    "version": 1, "ring": "Z",
    "complex": {"lo": 0, "hi": 1, "ranks_or_terms": [1, 2],
                "boundaries": [[[1], [-1]]]}})

EXACT_3TERM_CX = json.dumps({
    "version": 1, "ring": "Z",
    "complex": {"lo": 0, "hi": 2, "ranks_or_terms": [1, 2, 1],
                "boundaries": [[[1], [-1]], [[1, 1]]]}})

IDENTITY_CX = json.dumps({
    "version": 1, "ring": "Z",
    "complex": {"lo": 0, "hi": 1, "ranks_or_terms": [1, 1],
                "boundaries": [[[1]]]}})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    assert code == 0, err
    return json.loads(out)


# -- documents round-trip ------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(DOCS))
def test_document_round_trip(kind):
    doc = DOCS[kind]
    ring, payload = load_document(json.dumps(doc), kind)
    assert render_document(ring, payload) == doc


def test_round_trip_with_fractions_and_module_terms():
    doc = {
        "version": 1, "ring": "Zloc/3",
        "module": {"generators": 2, "relations": [["1/2", 3], [0, "9/5"]]},
    }
    ring, m = load_document(json.dumps(doc), "module")
    assert render_document(ring, m) == doc

    doc = {
        "version": 1, "ring": "Z/12",
        "complex": {"lo": -1, "hi": 0,
                    "ranks_or_terms": [{"generators": 1, "relations": [[4]]}, 2],
                    "boundaries": [[[3], [0]]]},
    }
    ring, cx = load_document(json.dumps(doc), "complex")
    assert render_document(ring, cx) == doc


def test_zero_row_matrix_round_trip():
    doc = {"version": 1, "ring": "Q", "matrix": {"entries": [], "cols": 3}}
    ring, mat = load_document(json.dumps(doc), "matrix")
    assert mat.rows == 0 and mat.cols == 3
    assert render_document(ring, mat) == doc


def test_document_validation_errors(capsys):
    # two payloads at once
    doc = dict(DOCS["matrix"])
    doc["module"] = DOCS["module"]["module"]
    assert run(capsys, "snf", json.dumps(doc))[0] == 2
    # wrong payload for the command
    assert run(capsys, "snf", json.dumps(DOCS["module"]))[0] == 2
    # missing ring, bad ring, bad version
    assert run(capsys, "snf", '{"matrix": {"entries": [[1]]}}')[0] == 2
    assert run(capsys, "snf", '{"ring": "Z/1", "matrix": {"entries": [[1]]}}')[0] == 2
    doc = dict(DOCS["matrix"])
    doc["version"] = 2
    assert run(capsys, "snf", json.dumps(doc))[0] == 2


def _doc(ring, kind, payload):
    return json.dumps({"version": 1, "ring": ring, kind: payload})


@pytest.mark.parametrize("command, text", [
    ("snf", _doc(5, "matrix", {"entries": [[1]]})),
    ("homology", _doc("Z", "complex", {"lo": 0, "hi": 0, "ranks_or_terms": 7,
                                       "boundaries": []})),
    ("homology", _doc("Z", "complex", {"lo": 0, "hi": 1, "ranks_or_terms": [1, 1],
                                       "boundaries": 7})),
    ("homology", _doc("Z", "complex", {"lo": 0, "hi": 1, "ranks_or_terms": [True, 1],
                                       "boundaries": [[[1]]]})),
    ("homology", _doc("Z", "complex", {"lo": True, "hi": 1, "ranks_or_terms": [1],
                                       "boundaries": []})),
    ("homology", _doc("Z", "complex", {"lo": 0, "hi": True, "ranks_or_terms": [1, 1],
                                       "boundaries": [[[1]]]})),
    ("tor", _doc("Z", "module", {"generators": True, "relations": [[2]]})),
    ("snf", _doc("Z", "matrix", {"entries": [], "cols": True})),
    ("snf", '{"version": 1, "ring": "Z", "matrix": {"entries": [[' + "9" * 4301 + "]]}}"),
    ("snf", '{"version": 1, "ring": "Z", "matrix": {"entries": '
            + "[" * 100000 + "]" * 100000 + "}}"),
], ids=["ring-int", "ranks-int", "boundaries-int", "rank-true", "lo-true", "hi-true",
        "generators-true", "cols-true", "int-past-digit-limit", "nesting-too-deep"])
def test_malformed_fields_exit_2(capsys, command, text):
    code, out, err = run(capsys, command, text)
    assert code == 2 and out == ""
    assert err.startswith("input error:")


def test_results_past_the_digit_limit_are_printed(capsys):
    # A = 10^4000 + 1 and B = 10^4000 + 3 have 4001 digits, within the input
    # limit; the divisor A*B = 10^8000 + 4*10^4000 + 3 has 8001.
    a, b = "1" + "0" * 3999 + "1", "1" + "0" * 3999 + "3"
    product = "1" + "0" * 3999 + "4" + "0" * 3999 + "3"
    matrix = _doc("Z", "matrix", {"entries": [[int(a), 0], [0, int(b)]]})
    complex_doc = _doc("Z", "complex", {"lo": 0, "hi": 1, "ranks_or_terms": [2, 2],
                                        "boundaries": [[[int(a), 0], [0, int(b)]]]})
    code, out, err = run(capsys, "snf", matrix)
    assert (code, err) == (0, "") and f"elementary divisors: 1, {product}\n" in out
    code, out, err = run(capsys, "--format", "json", "snf", matrix)
    assert (code, err) == (0, "") and f'"divisors":[1,{product}]' in out
    code, out, err = run(capsys, "homology", complex_doc)
    assert (code, err) == (0, "") and out.endswith(f"H_0 = R/{product}\n")
    code, out, err = run(capsys, "--format", "json", "homology", complex_doc)
    assert (code, err) == (0, "") and f'"torsion":[{product}]' in out
    # input integers are still held to the limit, also after a run
    assert run(capsys, "snf", _doc("Z", "matrix", {"entries": [[product]]}))[0] == 2
    assert run(capsys, "snf", matrix.replace(a, a + "0" * 300, 1))[0] == 2


@pytest.mark.parametrize("entry", ["1e100000000", "1e10000000", "1e5000", "1.5", " 7 ",
                                   "1_000", "1e-3", "1/-2", "0x10", "9" * 4301])
def test_scalar_strings_outside_the_grammar_exit_2(capsys, entry):
    # Only "a" and "a/b" are scalars; each must be refused at once, before
    # an exponent is expanded or a digit string past the limit is read.
    runs = [["snf", _doc("Q", "matrix", {"entries": [[entry]]})]]
    if entry == entry.strip():  # koszul strips the spaces around an element
        runs.append(["koszul", "--ring", "Q", f"--elements={entry}"])
    for argv in runs:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "") and err.startswith("input error: bad matrix entry")


MEGABYTE = "1" * 10 ** 6


@pytest.mark.parametrize("argv, message", [
    (["snf", _doc("Z", "matrix", {"entries": [[MEGABYTE]]})], "bad matrix entry"),
    (["snf", _doc("Z", "matrix", {"entries": [[MEGABYTE + "x"]]})], "bad matrix entry"),
    (["snf", _doc("Z/" + MEGABYTE, "matrix", {"entries": [[1]]})], "bad ring literal"),
    (["fibers", "--primes", MEGABYTE, json.dumps(DOCS["complex"])], "bad prime literal"),
    (["homology", _doc("Z", "complex", {"lo": 0, "hi": 1, "ranks_or_terms": [1, 1],
                                        "boundaries": MEGABYTE})], "'boundaries' must be a list"),
], ids=["digits", "letters", "ring", "primes", "list"])
def test_a_megabyte_string_is_quoted_by_a_prefix(capsys, argv, message):
    # A string of any length is refused with one short stderr line: a prefix
    # of it and its length, not the string.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and message in err
    assert err.count("\n") == 1 and len(err) < 200 and " characters)" in err


def test_repeated_primes_print_once(capsys):
    for fmt in ("text", "json"):
        code, out, _ = run(capsys, "--format", fmt, "fibers", "--primes", "2,2,0",
                           json.dumps(DOCS["complex"]))
        assert code == 0 and out.count('"prime":"2"' if fmt == "json" else "fiber at (2)") == 1
        assert out.count('"prime":"0"' if fmt == "json" else "fiber at (0)") == 1
        code, out, _ = run(capsys, "--format", fmt, "tor", "--primes", "3,3",
                           _doc("Z", "module", {"generators": 1, "relations": [[3]]}))
        assert code == 0 and out.count('"prime":"3"' if fmt == "json" else "at (3)") == 1


def test_input_error_paths(capsys):
    code, out, err = run(capsys, "snf", "{broken json")
    assert code == 2 and "input error" in err
    code, out, err = run(capsys, "snf", "/no/such/file.json")
    assert code == 2 and "cannot read" in err


def test_every_boundary_is_parsed_before_any_is_checked(capsys):
    # degree 2 maps Z/4 --1--> Z, which is not a map of modules, and degree
    # 1 has a row too many: the malformed matrix is reported first
    doc = _doc("Z", "complex", {"lo": 0, "hi": 2,
                                "ranks_or_terms": [{"generators": 1, "relations": [[4]]}, 1, 1],
                                "boundaries": [[[1]], [[1], [1]]]})
    assert run(capsys, "homology", doc) == (
        2, "", "input error: boundary at degree 1 has 2 rows, expected 1\n")


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(TIMES_TWO_CX))
    code, out, _ = run(capsys, "homology", "-")
    assert code == 0
    assert "H_1 = 0" in out and "H_0 = R/2" in out


# -- determinism ---------------------------------------------------------------

def test_json_output_is_canonical_and_repeatable(capsys):
    first = run(capsys, "--format", "json", "gallery", "sum-inverse-primes",
                "--max-prime", "10")
    second = run(capsys, "--format", "json", "gallery", "sum-inverse-primes",
                 "--max-prime", "10")
    assert first == second and first[0] == 0
    out = first[1].strip()
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))


def test_seed_is_recorded_in_json_only(capsys):
    doc = json.dumps(DOCS["matrix"])
    payload = json.loads(run(capsys, "--format", "json", "--seed", "17", "snf", doc)[1])
    assert payload["seed"] == 17
    assert "seed" not in run_json(capsys, "snf", doc)


# -- individual commands -------------------------------------------------------

def test_snf_command(capsys):
    # divisor chain of [[2,4],[-6,8]]: gcd 2, then |det|/2 = 40/2
    payload = run_json(capsys, "snf", json.dumps(DOCS["matrix"]))
    assert payload["divisors"] == [2, 20]
    assert payload["verified"] is True
    code, out, _ = run(capsys, "snf", json.dumps(DOCS["matrix"]))
    assert code == 0 and "elementary divisors: 2, 20" in out


def test_homology_command_reports_top_degree_first(capsys):
    payload = run_json(capsys, "homology", TIMES_TWO_CX)
    assert [row["degree"] for row in payload["homology"]] == [1, 0]
    assert payload["homology"][1] == {"degree": 0, "free_rank": 0, "torsion": [2]}


def test_fibers_command_orders_primes(capsys):
    payload = run_json(capsys, "fibers", json.dumps(DOCS["complex"]))
    assert [row["prime"] for row in payload["profiles"]] == ["0", "2", "3"]
    # degree listing descends
    assert payload["profiles"][1]["dims"] == [[1, 1], [0, 1]]

    payload = run_json(capsys, "fibers", "--primes", "5,2",
                       json.dumps(DOCS["complex"]))
    assert [row["prime"] for row in payload["profiles"]] == ["2", "5"]


def test_fibers_rejects_inadmissible_primes(capsys):
    assert run(capsys, "fibers", "--primes", "4", json.dumps(DOCS["complex"]))[0] == 2
    doc = json.dumps({"version": 1, "ring": "Z/12",
                      "complex": {"lo": 0, "hi": 1, "ranks_or_terms": [1, 1],
                                  "boundaries": [[[5]]]}})
    assert run(capsys, "fibers", "--primes", "5", doc)[0] == 2


def test_fibers_with_primes_skips_the_prime_set(capsys, monkeypatch):
    """--primes replaces the complex's prime set, which is then never
    computed: a bad --primes value is reported, and a prime set that
    would fail (a divisor with a prime factor past PRIMALITY_BOUND, which
    trial division cannot reach in test time, stood in for by the patch)
    is reported only without --primes."""
    calls = []

    def failing(cx):
        calls.append(cx)
        raise InputError("prime set failed")

    monkeypatch.setattr(cli, "complex_prime_set", failing)
    payload = run_json(capsys, "fibers", "--primes", "5,2", json.dumps(DOCS["complex"]))
    assert [row["prime"] for row in payload["profiles"]] == ["2", "5"]
    assert calls == []
    doc = _doc("Z/4", "complex", {"lo": 0, "hi": 1, "ranks_or_terms": [1, 1],
                                  "boundaries": [[[2]]]})
    code, out, err = run(capsys, "fibers", "--primes", "5", doc)
    assert (code, out, err) == (2, "", "input error: (5) is not a point of Spec Z/4\n")
    assert calls == []
    code, out, err = run(capsys, "fibers", doc)
    assert (code, out, err) == (2, "", "input error: prime set failed\n")
    assert len(calls) == 1


def test_badprimes_command(capsys):
    payload = run_json(capsys, "badprimes", json.dumps(DOCS["complex"]))
    assert payload["primes"] == [2, 3]
    assert payload["witness"] == [[2, [1]], [3, [1]]]
    doc = json.dumps({"version": 1, "ring": "Q",
                      "complex": {"lo": 0, "hi": 1, "ranks_or_terms": [1, 1],
                                  "boundaries": [[[1]]]}})
    assert run(capsys, "badprimes", doc)[0] == 2


def test_check_theorem_command(capsys):
    payload = run_json(capsys, "check-theorem", SPLIT_INJ_CX)
    assert payload["hypothesis_holds"] is True
    assert payload["verdict"] == "consistent"
    assert payload["h0"] == {"free_rank": 1, "torsion": []}

    payload = run_json(capsys, "check-theorem", TIMES_TWO_CX)
    assert payload["hypothesis_holds"] is False
    assert payload["verdict"] == "consistent"
    assert payload["checked_primes"] == ["0", "2"]
    with pytest.raises(SystemExit) as exc:
        main(["check-theorem", "--parallel", "3", TIMES_TWO_CX])
    assert exc.value.code == 2


def test_check_map_command(capsys):
    payload = run_json(capsys, "check-map", json.dumps(DOCS["map"]))
    assert payload["verdict"] is False
    assert payload["injective_with_flat_cokernel"] is False
    assert payload["pure"] is False
    assert payload["fiberwise_injective"] is False

    identity = {"version": 1, "ring": "Z",
                "map": {"source": {"generators": 1, "relations": []},
                        "target": {"generators": 1, "relations": []},
                        "matrix": [[1]]}}
    assert run_json(capsys, "check-map", json.dumps(identity))["verdict"] is True


def test_check_universal_command(capsys):
    payload = run_json(capsys, "check-universal", EXACT_3TERM_CX)
    assert payload["verdict"] is True
    assert payload["direct"] and payload["fiberwise"] and payload["tensor_sampled"]
    assert run_json(capsys, "check-universal", TIMES_TWO_CX)["verdict"] is False


# Pinned byte for byte: a Z/12 complex R/4 -> (R/4)^2 -> R/4 whose terms are
# flat and not free, and a two-term Z_(3) complex whose cokernel is nonzero.
CHECK_UNIVERSAL_GOLDEN = [
    ({"version": 1, "ring": "Z/12",
      "complex": {"lo": 0, "hi": 2,
                  "ranks_or_terms": [{"generators": 1, "relations": [[4]]},
                                     {"generators": 2, "relations": [[4, 0], [0, 4]]},
                                     {"generators": 1, "relations": [[4]]}],
                  "boundaries": [[[1], [-1]], [[1, 1]]]}},
     '{"checked_primes":["2","3"],"command":"check-universal","direct":true,'
     '"fiberwise":true,"ring":"Z/12","tensor_sampled":true,"verdict":true}\n'),
    ({"version": 1, "ring": "Zloc/3",
      "complex": {"lo": 0, "hi": 1, "ranks_or_terms": [2, 2],
                  "boundaries": [[["3/2", 1], [0, 3]]]}},
     '{"checked_primes":["0","3"],"command":"check-universal","direct":false,'
     '"fiberwise":false,"ring":"Zloc/3","tensor_sampled":false,"verdict":false}\n'),
]


@pytest.mark.parametrize("doc, expected", CHECK_UNIVERSAL_GOLDEN, ids=["Z/12-non-free", "Zloc/3-not-exact"])
def test_check_universal_json_is_pinned(capsys, doc, expected):
    assert run(capsys, "--format", "json", "check-universal", json.dumps(doc)) == (0, expected, "")


def _readme_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("fiberflat ")]


def _subcommand(argv):
    while argv[0].startswith("--"):  # global options, each with a value
        argv = argv[2:]
    return argv[0]


@pytest.mark.parametrize("argv", [shlex.split(line)[1:] for line in _readme_examples()],
                         ids=_subcommand)
def test_readme_examples_exit_0(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 0, err


def test_tor_command_depth_and_periodicity(capsys):
    doc = json.dumps({"version": 1, "ring": "Z/4",
                      "module": {"generators": 1, "relations": [[2]]}})
    payload = run_json(capsys, "tor", "--depth", "3", doc)
    assert payload["depth"] == 3
    (row,) = payload["table"]
    assert row["prime"] == "2"
    assert row["dims"] == [[3, 1], [2, 1], [1, 1], [0, 1]]
    assert payload["criterion"]["complete"] is False
    assert payload["criterion"]["positive_vanishing"] is False
    assert payload["resolution_periodic"] is True

    ext = run_json(capsys, "ext", "--depth", "3", doc)
    assert ext["table"] == payload["table"]


@pytest.mark.parametrize("functor", ["tor", "ext"])
def test_tor_ext_commands_resolve_the_module_once(capsys, resolution_calls, functor):
    """The criterion's resolution feeds the table and the periodicity check;
    nothing is re-resolved per prime, per degree or for the table."""
    doc = _doc("Z/12", "module", {"generators": 1, "relations": [[2]]})
    code, _, err = run(capsys, functor, "--depth", "3", doc)
    assert code == 0, err
    assert resolution_calls == [4]


@pytest.mark.parametrize("functor", ["tor", "ext"])
def test_tor_ext_tables_compute_each_prime_once(capsys, monkeypatch, functor):
    """The criterion's per-prime table is printed as it is: one tor_dims or
    ext_dims call per printed prime, and another only for a --primes value
    the criterion did not check."""
    calls = []
    original = getattr(Resolution, f"{functor}_dims")
    monkeypatch.setattr(Resolution, f"{functor}_dims",
                        lambda res, q: calls.append(q.literal()) or original(res, q))
    doc = _doc("Z", "module", {"generators": 2, "relations": [[4, 0], [0, 6]]})
    payload = run_json(capsys, functor, "--depth", "3", doc)
    assert [row["prime"] for row in payload["table"]] == ["0", "2", "3"]
    assert calls == ["0", "2", "3"]
    calls.clear()
    payload = run_json(capsys, functor, "--depth", "3", "--primes", "7,2", doc)
    assert [row["prime"] for row in payload["table"]] == ["2", "7"]
    assert calls == ["0", "2", "3", "7"]


@pytest.mark.parametrize("functor", ["tor", "ext"])
def test_tor_ext_report_a_bad_prime_before_a_bad_depth(capsys, functor):
    code, out, err = run(capsys, functor, "--depth", "0", "--primes", "5", Z4_MODULE)
    assert (code, out, err) == (2, "", "input error: (5) is not a point of Spec Z/4\n")
    code, out, err = run(capsys, functor, "--depth", "0", Z4_MODULE)
    assert (code, out, err) == (2, "", "input error: criterion depth must be >= 1\n")


def test_tor_command_flat_module(capsys):
    doc = json.dumps({"version": 1, "ring": "Z",
                      "module": {"generators": 2, "relations": []}})
    payload = run_json(capsys, "tor", doc)
    assert payload["criterion"]["flat_confirmed"] is True
    assert payload["criterion"]["complete"] is True
    assert payload["resolution_periodic"] is False


def test_koszul_command(capsys):
    payload = run_json(capsys, "koszul", "--elements", "2,3")
    assert payload["ranks"] == [1, 2, 1]
    assert payload["selfduality_isomorphism"] is True
    payload = run_json(capsys, "koszul", "--ring", "Z/35", "--elements", "2,3")
    assert payload["ring"] == "Z/35"
    assert run(capsys, "koszul", "--elements", "")[0] == 2
    assert run(capsys, "koszul", "--elements", "1/2")[0] == 2


@pytest.mark.parametrize("ring, elements", [("Z", "-2,3"), ("Q", "-1/2,4"), ("Z/12", "-6"),
                                            ("Z", "2,-3")])
def test_koszul_reads_a_negative_first_element_after_a_space(capsys, ring, elements):
    """argparse alone reads -2,3, which is no plain negative number, as an
    option string and exits 2; both spellings must give the same report."""
    spaced = run(capsys, "--format", "json", "koszul", "--ring", ring, "--elements", elements)
    joined = run(capsys, "--format", "json", "koszul", "--ring", ring, f"--elements={elements}")
    assert spaced == joined and spaced[0] == 0


def test_nullhomotopy_command(capsys):
    payload = run_json(capsys, "nullhomotopy", IDENTITY_CX)
    assert payload["contractible"] is True and payload["verified"] is True
    # h_0 contracts degree 0 into degree 1; h_1 has nowhere to go (0 x 1)
    assert payload["maps"] == [[1, []], [0, [[1]]]]

    payload = run_json(capsys, "nullhomotopy", TIMES_TWO_CX)
    assert payload["contractible"] is False
    code, out, _ = run(capsys, "nullhomotopy", TIMES_TWO_CX)
    assert code == 0 and "NONE" in out


def test_nullhomotopy_verifies_its_certificate_once(capsys, monkeypatch):
    calls = []
    original = HomotopyCertificate.verify

    def counted(cert):
        calls.append(cert)
        return original(cert)

    monkeypatch.setattr(HomotopyCertificate, "verify", counted)
    payload = run_json(capsys, "nullhomotopy", _split_sequence_doc(2))
    assert payload["contractible"] is True and payload["verified"] is True
    assert len(calls) == 1


def _split_sequence_doc(k):
    """The k-fold sum of 0 -> Z/4 -3-> Z/12 -2-> Z/3 -> 0 over Z/12, which
    splits by CRT but whose first lift h_0 = 2 is not a map of modules."""
    def diag(x):
        return [[x if r == c else 0 for c in range(k)] for r in range(k)]
    return json.dumps({"ring": "Z/12", "complex": {
        "lo": 0, "hi": 2,
        "ranks_or_terms": [{"generators": k, "relations": diag(4)}, k,
                           {"generators": k, "relations": diag(3)}],
        "boundaries": [diag(3), diag(2)]}})


def test_nullhomotopy_json_is_pinned_on_non_free_terms(capsys):
    expected = ('{"command":"nullhomotopy","contractible":true,'
                '"maps":[[2,[]],[1,[[3]]],[0,[[8]]]],"ring":"Z/12","verified":true}\n')
    assert run(capsys, "--format", "json", "nullhomotopy", _split_sequence_doc(1)) == (0, expected, "")


@pytest.mark.parametrize("k", [16, 32, 64])
def test_nullhomotopy_on_a_k_fold_sum_is_fast(capsys, k):
    start = time.perf_counter()
    payload = run_json(capsys, "nullhomotopy", _split_sequence_doc(k))
    assert payload["contractible"] is True
    assert time.perf_counter() - start < 5.0


def _contractible_twisted_z_doc(k):
    """A seeded contractible free Z complex of ranks [k, 2k, k] (split
    projections in random unimodular bases) tensored with Z presented as
    coker[1; 2], so every term has relations and the first lift is
    corrected."""
    rng = random.Random(k)
    ranks = [k, 2 * k, k]
    s1 = Matrix(ZZ, [[int(c == r + k) for c in range(2 * k)] for r in range(k)])
    s2 = Matrix(ZZ, [[int(c == r) for c in range(k)] for r in range(2 * k)])
    bases = [random_unimodular(rng, ZZ, n, entry_bound=9, steps=2 * n) for n in ranks]
    mats = [bases[0][0] @ s1 @ bases[1][1], bases[1][0] @ s2 @ bases[2][1]]
    cx = BoundedComplex.free_complex(ZZ, 0, ranks, mats)
    twisted = tensor_with_module(FpModule(ZZ, 2, Matrix(ZZ, [[1], [2]])), cx)
    return json.dumps(render_document(ZZ, twisted))


def test_nullhomotopy_on_a_twisted_z_complex_of_rank_64_is_fast(capsys):
    doc = _contractible_twisted_z_doc(32)
    start = time.perf_counter()
    payload = run_json(capsys, "nullhomotopy", doc)
    assert payload["contractible"] is True
    assert time.perf_counter() - start < 5.0


def test_snf_on_a_dense_96_square_over_z360_is_fast(capsys):
    rng = random.Random(96)
    doc = json.dumps({"version": 1, "ring": "Z/360", "matrix": {
        "entries": [[rng.randint(-9, 9) for _ in range(96)] for _ in range(96)]}})
    start = time.perf_counter()
    payload = run_json(capsys, "snf", doc)
    assert payload["verified"] is True
    assert time.perf_counter() - start < 10.0


def test_filtration_command(capsys):
    doc = json.dumps({"version": 1, "ring": "Z",
                      "module": {"generators": 2, "relations": [[12, 0]]}})
    payload = run_json(capsys, "filtration", doc)
    assert payload["verified"] is True
    assert [s["quotient"] for s in payload["steps"]] == ["2", "2", "3", "0"]
    assert payload["steps"][-1]["stage"] == {"free_rank": 1, "torsion": [12]}


def test_gallery_command(capsys):
    payload = run_json(capsys, "gallery", "sum-inverse-primes", "--max-prime", "10")
    assert payload["ok"] is True
    assert [r["label"] for r in payload["rows"]] == [
        "h_0 at (0)", "h_0 at (2)", "h_0 at (3)", "h_0 at (5)", "h_0 at (7)"]
    assert all(r["value"] == 1 and r["status"] == "stabilized"
               for r in payload["rows"])

    payload = run_json(capsys, "gallery", "injective-hull", "-p", "3")
    assert payload["ok"] is True and payload["parameters"] == {"p": 3}
    assert run(capsys, "gallery", "mystery")[0] == 2


@pytest.mark.parametrize("name,flags,counts", [
    ("injective-hull", ["--max-stage", "6"], [7] * 4),
    ("injective-hull", ["--max-stage", "40"], [7] * 4),
    ("injective-hull", ["--max-stage", "5", "--window", "5"], [8] * 4),
    ("dvr-fraction-field", ["--max-stage", "6"], [7] * 2),
    ("dvr-fraction-field", ["--max-stage", "40"], [7] * 2),
    # rows (0), (2), (3), (5), (7): row j evaluates at least stages 0..j + window + 1
    ("sum-inverse-primes", ["--max-prime", "10", "--max-stage", "3"], [5, 6, 7, 8, 9]),
    ("sum-inverse-primes", ["--max-prime", "10", "--max-stage", "6"], [7, 7, 7, 8, 9]),
    ("sum-inverse-primes", ["--max-prime", "10", "--max-stage", "40"], [41] * 5),
])
def test_gallery_max_stage_bounds(capsys, name, flags, counts):
    """--max-stage is a floor for sum-inverse-primes and is otherwise only
    checked against --window: the other galleries evaluate stages
    0..max(6, window + 2)."""
    payload = run_json(capsys, "gallery", name, *flags)
    assert [len(r["values"]) for r in payload["rows"]] == counts


def test_gallery_rejects_bounds_that_prove_nothing(capsys):
    # a window of 0 used to "stabilize" H_0 at maximal at 1, not 0
    assert run(capsys, "gallery", "dvr-fraction-field", "--window", "0")[0] == 2
    assert run(capsys, "gallery", "dvr-fraction-field", "--max-stage", "-3")[0] == 2
    assert run(capsys, "gallery", "dvr-fraction-field", "--max-stage", "2")[0] == 2
    # a max prime below 2 used to check only the generic point and report ok
    assert run(capsys, "gallery", "sum-inverse-primes", "--max-prime", "-5")[0] == 2


def test_gallery_mismatch_exits_3(capsys, monkeypatch):
    real = towers.gallery
    monkeypatch.setattr(towers, "gallery",
                        lambda *a, **kw: dataclasses.replace(real(*a, **kw), ok=False))
    code, out, _ = run(capsys, "--format", "json", "gallery", "dvr-fraction-field")
    assert code == 3 and json.loads(out)["ok"] is False


# -- size caps -------------------------------------------------------------------

def _single_term(ring, rank):
    return _doc(ring, "complex", {"lo": 0, "hi": 0, "ranks_or_terms": [rank],
                                  "boundaries": []})


Z4_MODULE = _doc("Z/4", "module", {"generators": 1, "relations": [[2]]})
# 64 generators over Z/360 with relations diag(2, ..., 65): the resolution never
# stops, so `--depth 64` reads 65 boundaries at each of the primes 2, 3 and 5.
WIDE_Z360_MODULE = _doc("Z/360", "module", {
    "generators": 64,
    "relations": [[k + 2 if k == i else 0 for k in range(64)] for i in range(64)]})


@pytest.mark.parametrize("argv", [
    ["homology", _single_term("Z", MAX_RANK + 1)],
    ["homology", _single_term("Z", 10 ** 8)],
    ["tor", _doc("Z", "module", {"generators": MAX_RANK + 1, "relations": []})],
    ["tor", _doc("Z", "module", {"generators": 1, "relations": [[2]] * (MAX_RANK + 1)})],
    ["snf", _doc("Z", "matrix", {"entries": [], "cols": MAX_RANK + 1})],
    ["snf", _doc("Z", "matrix", {"entries": [[]] * (MAX_RANK + 1), "cols": 0})],
    ["snf", _doc("Z", "matrix", {"entries": [[0] * (MAX_RANK + 1)]})],
    ["tor", "--depth", str(MAX_DEPTH + 1), Z4_MODULE],
    ["ext", "--depth", str(10 ** 30), Z4_MODULE],
    ["koszul", "--elements", ",".join(["2"] * (MAX_KOSZUL_ELEMENTS + 1))],
    ["gallery", "sum-inverse-primes", "--max-prime", str(MAX_PRIME_BOUND + 1)],
    ["gallery", "dvr-fraction-field", "--max-stage", str(MAX_STAGE + 1)],
], ids=["rank", "rank-1e8", "generators", "relations", "cols", "rows", "row-length",
        "depth", "depth-1e30", "koszul-elements", "max-prime", "max-stage"])
def test_values_above_their_cap_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "cap" in err


@pytest.mark.parametrize("argv", [
    ["homology", _single_term("Zloc/3", MAX_RANK)],
    ["tor", "--depth", str(MAX_DEPTH), Z4_MODULE],
    ["koszul", "--ring", "Q", "--elements", ",".join(map(str, range(1, MAX_KOSZUL_ELEMENTS + 1)))],
    ["gallery", "sum-inverse-primes", "--max-prime", str(MAX_PRIME_BOUND),
     "--max-stage", str(MAX_STAGE), "--window", str(MAX_STAGE)],
    ["tor", "--depth", str(MAX_DEPTH), WIDE_Z360_MODULE],
    ["ext", "--depth", str(MAX_DEPTH), WIDE_Z360_MODULE],
], ids=["rank", "depth", "koszul-elements", "gallery", "depth-wide-tor", "depth-wide-ext"])
def test_values_at_their_cap_finish(capsys, argv):
    start = time.perf_counter()
    assert run(capsys, "--format", "json", *argv)[0] == 0
    assert time.perf_counter() - start < 5.0


BIG_PRIME = 10 ** 18 + 3


@pytest.mark.parametrize("argv", [
    ["fibers", "--primes", str(BIG_PRIME), TIMES_TWO_CX],
    ["gallery", "injective-hull", "-p", str(BIG_PRIME)],
    ["homology", _single_term(f"Zloc/{BIG_PRIME}", 2)],
], ids=["fibers", "gallery", "zloc-ring"])
def test_big_prime_literals_finish_within_the_fuzz_deadline(capsys, argv):
    start = time.perf_counter()
    assert run(capsys, "--format", "json", *argv)[0] == 0
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("argv", [
    ["fibers", "--primes", str(PRIMALITY_BOUND), TIMES_TWO_CX],
    ["homology", _single_term(f"Zloc/{PRIMALITY_BOUND + 2}", 2)],
], ids=["fibers", "zloc-ring"])
def test_prime_literals_past_the_primality_bound_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("input error:")


@pytest.mark.parametrize("ring, reason", [
    ("Zloc/4", "requires a prime parameter"),
    (f"Zloc/{PRIMALITY_BOUND + 2}", f"cannot decide primality of integers >= {PRIMALITY_BOUND}"),
], ids=["composite", "past-bound"])
def test_ring_literals_report_the_constructor_reason(capsys, ring, reason):
    code, out, err = run(capsys, "homology", _single_term(ring, 2))
    assert code == 2 and out == "" and reason in err


# -- contradiction exit path ---------------------------------------------------

def test_failed_reverification_exits_3(capsys, monkeypatch):
    fake = SimpleNamespace(verify=lambda a: False)
    monkeypatch.setattr("fiberflat.cli.snf", lambda mat: fake)
    code, out, err = run(capsys, "snf", json.dumps(DOCS["matrix"]))
    assert code == 3 and "fatal" in err and out == ""

    # null_homotopy verifies its certificate, the one check before printing
    monkeypatch.setattr(HomotopyCertificate, "verify", lambda self: False)
    assert run(capsys, "nullhomotopy", IDENTITY_CX)[0] == 3


# -- document fuzzing ------------------------------------------------------------

SMALL = st.integers(-3, 4)
JUNK = st.one_of(
    st.none(), st.booleans(), SMALL, st.sampled_from(["", "Z", "1/2", "x"]),
    st.lists(SMALL, max_size=3), st.lists(st.lists(SMALL, max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["generators", "relations"]), SMALL, max_size=2))


def _grid(rows, cols):
    return st.lists(st.lists(SMALL, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def _module_payloads(draw):
    g = draw(st.integers(0, 2))
    return {"generators": g, "relations": draw(st.lists(st.lists(
        SMALL, min_size=g, max_size=g), max_size=2))}


@st.composite
def _matrix_payloads(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return {"entries": draw(_grid(rows, cols)), "cols": cols}


@st.composite
def _complex_payloads(draw):
    lo, n = draw(st.integers(-1, 1)), draw(st.integers(1, 3))
    # terms from degree hi down to lo, mostly free ranks
    terms = [draw(st.one_of(st.integers(0, 2), st.integers(0, 2), _module_payloads()))
             for _ in range(n)]
    gens = [t if isinstance(t, int) else t["generators"] for t in terms]
    bounds = [draw(_grid(gens[k + 1], gens[k])) for k in range(n - 1)]
    return {"lo": lo, "hi": lo + n - 1, "ranks_or_terms": terms, "boundaries": bounds}


_PAYLOADS = {"matrix": _matrix_payloads(), "module": _module_payloads(),
             "complex": _complex_payloads()}
_FUZZ_COMMANDS = {"snf": ("matrix", []), "homology": ("complex", []),
                  "check-theorem": ("complex", []), "tor": ("module", ["--depth", "1"])}


@st.composite
def _fuzz_cases(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    kind, flags = _FUZZ_COMMANDS[command]
    payload = draw(_PAYLOADS[kind])
    doc = {"version": 1, "ring": draw(st.sampled_from(["Z", "Q", "Z/4", "Z/6", "Zloc/3", "F5"])),
           kind: payload}
    # perturb at most one field of the document or of its payload
    target = draw(st.sampled_from([None, doc, payload]))
    if target is not None:
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(JUNK)
    return [command, *flags, json.dumps(doc)]


@settings(max_examples=150, deadline=5000)
@given(_fuzz_cases())
def test_fuzzed_documents_end_in_a_documented_exit(argv):
    # deadline is the per-case time bound; any exception other than the
    # two handled by main escapes and fails the test
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(["--format", "json", *argv])
    assert code in (0, 2, 3), err.getvalue()


# -- flag fuzzing ------------------------------------------------------------------

def _flag(lo, hi):
    """A flag value: an integer around the allowed range, or text argparse rejects."""
    return st.one_of(st.integers(lo, hi).map(str),
                     st.sampled_from(["x", "1.5", "", "1" + "0" * 30, "9" * 5000]))


@st.composite
def _flag_cases(draw):
    command = draw(st.sampled_from(["tor", "ext", "koszul", "gallery"]))
    if command in ("tor", "ext"):
        return [command, "--depth", draw(_flag(-2, MAX_DEPTH + 2)), Z4_MODULE]
    if command == "koszul":
        n = draw(st.integers(0, MAX_KOSZUL_ELEMENTS + 2))
        elements = draw(st.lists(st.sampled_from(["0", "1", "2", "3", "-6", "1/2", "x"]),
                                 min_size=n, max_size=n))
        ring = draw(st.sampled_from(["Z", "Q", "Z/12", "Zloc/3", "F5"]))
        return ["koszul", "--ring", ring, "--elements", ",".join(elements)]
    name = draw(st.sampled_from(["sum-inverse-primes", "injective-hull",
                                 "dvr-fraction-field", "mystery"]))
    argv = ["gallery", name]
    for flag, lo, hi in (("-p", -3, 12), ("--max-prime", -3, MAX_PRIME_BOUND + 2),
                         ("--max-stage", -3, MAX_STAGE + 2), ("--window", -1, MAX_STAGE + 2)):
        if draw(st.booleans()):
            argv += [flag, draw(_flag(lo, hi))]
    return argv


@settings(max_examples=60, deadline=5000)
@given(_flag_cases())
def test_fuzzed_flags_end_in_a_documented_exit(argv):
    # argparse rejects text that is not an integer by raising SystemExit(2)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        try:
            code = main(["--format", "json", *argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), err.getvalue()


@pytest.mark.parametrize("argv", [["koszul", "--elements", "2,3,5,7,11,13"],
                                  ["--format", "json", "koszul", "--elements", "2,3,5"],
                                  ["gallery", "dvr-fraction-field"]])
def test_closed_stdout_is_not_a_traceback(argv):
    """A reader that goes away (`| head -1`) must not turn a verdict into a
    traceback.  The read end is closed before the spawn, so every write to
    stdout fails with EPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "fiberflat", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=_child_env(), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 0 and b"Traceback" not in proc.stderr, proc.stderr.decode()


def _child_env():
    """The environment of a child interpreter that imports this fiberflat."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


# -- package imports -------------------------------------------------------------

def test_fresh_interpreter_resolves_every_public_name():
    """generate and towers load on first use; every name in __all__ still
    resolves, and dir() lists it before it is resolved."""
    code = ("import fiberflat, json, sys\n"
            "unlisted = sorted(set(fiberflat.__all__) - set(dir(fiberflat)))\n"
            "loaded = sorted(m for m in ('fiberflat.towers', 'fiberflat.generate') if m in sys.modules)\n"
            "resolved = [getattr(fiberflat, name) for name in fiberflat.__all__]\n"
            "print(json.dumps([len(resolved), unlisted, loaded]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    count, unlisted, loaded = json.loads(proc.stdout)
    assert count == 80 and unlisted == [] and loaded == []


@pytest.mark.parametrize("argv, towers_loaded", [
    (["check-theorem", json.dumps(DOCS["complex"])], False),
    (["gallery", "dvr-fraction-field"], True),
], ids=["check-theorem", "gallery"])
def test_a_cli_run_imports_only_what_its_command_runs(argv, towers_loaded):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "fiberflat",
                           "--format", "json", *argv],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"fiberflat.criteria", "fiberflat.cli"} <= loaded
    assert ("fiberflat.towers" in loaded) == towers_loaded
    assert "fiberflat.generate" not in loaded
    report = json.loads(proc.stdout)
    assert report.get("ok", True) is True and report.get("verdict", "consistent") == "consistent"
