"""Command-line front end.

Input documents are JSON: {"version": 1, "ring": "<literal>", <payload>}
where the payload is exactly one of

  "module":  {"generators": g, "relations": [[...], ...]}
             relations are listed as columns, each of length g;
  "map":     {"source": <module>, "target": <module>, "matrix": rows}
             matrix is row-major, shape target.generators x source.generators;
  "complex": {"lo": i, "hi": j, "ranks_or_terms": [...], "boundaries": [...]}
             both lists run from degree hi down to lo (boundaries down to
             lo+1); each ranks_or_terms entry is a free rank or a module
             payload; each boundary is a row-major matrix mapping degree
             d to d-1;
  "matrix":  {"entries": rows, "cols": optional column count}.

Scalars are JSON integers or strings "a" or "a/b" (a an optionally signed
decimal integer, b a positive one).  Ring literals: Z, Q, Z/<n>, Zloc/<p>,
F<p>.

Every size the CLI accepts is capped (see the MAX_* constants below); a
value above its cap is malformed input.  An integer in the input may have
at most the interpreter's int/str digit limit (4300 digits by default);
results are printed whatever their size.

Machine output (--format json) is canonical: sorted keys, no spaces, so
identical inputs yield byte-identical reports.  Primes are listed with
the generic point "0" first, then ascending; degrees descend.  Exit
codes: 0 = verdict computed (whatever it is), 2 = malformed input,
3 = fatal contradiction (a provably-equivalent check disagreed, a
verified hypothesis with a failed conclusion, or a gallery value that
differs from its closed form).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Any

from .complexes import (
    DEFAULT_MAX_STAGE, DEFAULT_WINDOW, BoundedComplex, koszul_complex,
    koszul_selfduality, null_homotopy,
)
from .criteria import (
    BadPrimeSet, bad_primes, check_main_theorem, complex_prime_set,
    ext_flatness_criterion, is_universally_exact, tor_flatness_criterion,
)
from .errors import ContradictionError, InputError
from .linalg import Matrix, snf
from .modules import (
    FpModule, ModuleMap, prime_filtration, purity_report,
)
from .rings import (
    BaseRing, Prime, parse_prime, parse_ring, parse_scalar, quoted, render_scalar,
)

# Caps on every size the CLI accepts, so that each run ends in bounded time.
MAX_RANK = 256               # term rank; generator, relation, row and column counts
MAX_DEPTH = 64               # tor / ext --depth
MAX_KOSZUL_ELEMENTS = 8      # koszul --elements
MAX_PRIME_BOUND = 1000       # gallery --max-prime
MAX_STAGE = 256              # gallery --max-stage


# Integers in the input are read under the interpreter's int/str digit
# limit (4300 digits by default).  main lifts it for the rest of a run, so
# results of any size print.
INPUT_DIGITS = sys.get_int_max_str_digits()


@contextmanager
def _int_digits(limit: int):
    """int <-> str conversions limited to limit digits (0: none) in the block."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# -- document handling -------------------------------------------------------

def _load_json(source: str) -> Any:
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith("{"):
        text = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {source}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers past the
        # int-conversion digit limit; RecursionError, nesting too deep.
        raise InputError(f"not valid JSON: {exc}") from exc


def _capped(value: int, what: str, cap: int) -> int:
    if value > cap:
        raise InputError(f"{what} {value} is above the cap of {cap}")
    return value


def _json_int(obj: Any, what: str, minimum: int | None = None,
              cap: int | None = None) -> int:
    """obj as a JSON integer; true and false are rejected, not read as 1 and 0."""
    if type(obj) is not int or (minimum is not None and obj < minimum):
        raise InputError(f"bad {what} {quoted(obj)}")
    return obj if cap is None else _capped(obj, what, cap)


def _json_list(obj: Any, what: str) -> list:
    if not isinstance(obj, list):
        raise InputError(f"'{what}' must be a list, got {quoted(obj)}")
    return obj


def _doc_ring(obj: Any) -> BaseRing:
    if not isinstance(obj, dict):
        raise InputError("document must be a JSON object")
    version = obj.get("version", 1)
    if type(version) is not int or version != 1:
        raise InputError(f"unsupported document version {quoted(version)}")
    if "ring" not in obj:
        raise InputError("document is missing the ring literal")
    if not isinstance(obj["ring"], str):
        raise InputError(f"ring literal must be a string, got {quoted(obj['ring'])}")
    return parse_ring(obj["ring"])


def _parse_matrix(ring: BaseRing, rows: Any, cols: int | None = None) -> Matrix:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise InputError("matrix must be a list of rows")
    _capped(len(rows), "matrix row count", MAX_RANK)
    _capped(max(map(len, rows), default=0), "matrix column count", MAX_RANK)
    body = [[parse_scalar(ring, x) for x in r] for r in rows]
    if cols is None:
        if not body:
            raise InputError("a 0-row matrix needs an explicit column count")
        cols = len(body[0])
    return Matrix(ring, body, cols=cols)


def parse_module_payload(ring: BaseRing, obj: Any) -> FpModule:
    if not isinstance(obj, dict) or "generators" not in obj:
        raise InputError("module payload needs 'generators' and 'relations'")
    g = _json_int(obj["generators"], "generator count", 0, MAX_RANK)
    columns = _json_list(obj.get("relations", []), "relations")
    _capped(len(columns), "relation count", MAX_RANK)
    for c in columns:
        if not isinstance(c, list) or len(c) != g:
            raise InputError(f"each relation column must have length {g}")
    parsed = [[parse_scalar(ring, x) for x in c] for c in columns]
    return FpModule(ring, g, Matrix.from_columns(ring, parsed, rows=g))


def parse_map_payload(ring: BaseRing, obj: Any) -> ModuleMap:
    if not isinstance(obj, dict) or not {"source", "target", "matrix"} <= set(obj):
        raise InputError("map payload needs 'source', 'target', 'matrix'")
    source = parse_module_payload(ring, obj["source"])
    target = parse_module_payload(ring, obj["target"])
    mat = _parse_matrix(ring, obj["matrix"], cols=source.gens)
    return ModuleMap(source, target, mat)


def parse_complex_payload(ring: BaseRing, obj: Any) -> BoundedComplex:
    if not isinstance(obj, dict) or not {"lo", "hi", "ranks_or_terms"} <= set(obj):
        raise InputError("complex payload needs 'lo', 'hi', 'ranks_or_terms', 'boundaries'")
    lo, hi = _json_int(obj["lo"], "lo"), _json_int(obj["hi"], "hi")
    if lo > hi:
        raise InputError(f"bad degree range [{lo}, {hi}]")
    entries = _json_list(obj["ranks_or_terms"], "ranks_or_terms")
    bodies = _json_list(obj.get("boundaries", []), "boundaries")
    if len(entries) != hi - lo + 1:
        raise InputError(f"expected {hi - lo + 1} terms from degree {hi} down to {lo}")
    if len(bodies) != hi - lo:
        raise InputError(f"expected {hi - lo} boundaries from degree {hi} down to {lo + 1}")
    terms: dict[int, FpModule] = {}
    for off, entry in enumerate(entries):
        deg = hi - off
        if isinstance(entry, dict):
            terms[deg] = parse_module_payload(ring, entry)
        else:
            terms[deg] = FpModule.free(
                ring, _json_int(entry, f"rank at degree {deg}", 0, MAX_RANK))
    bmaps: dict[int, Matrix] = {}
    for off, body in enumerate(bodies):
        deg = hi - off
        mat = bmaps[deg] = _parse_matrix(ring, body, cols=terms[deg].gens)
        if mat.rows != terms[deg - 1].gens:
            raise InputError(f"boundary at degree {deg} has {mat.rows} rows, "
                             f"expected {terms[deg - 1].gens}")
    return BoundedComplex(ring, lo, hi, terms, bmaps)


def parse_matrix_payload(ring: BaseRing, obj: Any) -> Matrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise InputError("matrix payload needs 'entries'")
    cols = obj.get("cols")
    if cols is not None:
        cols = _json_int(cols, "column count", 0, MAX_RANK)
    return _parse_matrix(ring, obj["entries"], cols)


_PAYLOAD_PARSERS = {
    "module": parse_module_payload,
    "map": parse_map_payload,
    "complex": parse_complex_payload,
    "matrix": parse_matrix_payload,
}


def load_document(source: str, expect: str) -> tuple[BaseRing, Any]:
    with _int_digits(INPUT_DIGITS):
        obj = _load_json(source)
        ring = _doc_ring(obj)
        present = [k for k in _PAYLOAD_PARSERS if k in obj]
        if len(present) != 1:
            raise InputError(f"document must carry exactly one payload, found {present}")
        if present[0] != expect:
            raise InputError(f"this command needs a '{expect}' document, got '{present[0]}'")
        return ring, _PAYLOAD_PARSERS[expect](ring, obj[expect])


def render_module_payload(m: FpModule) -> dict[str, Any]:
    cols = [[render_scalar(m.relations[i, j]) for i in range(m.gens)]
            for j in range(m.relations.cols)]
    return {"generators": m.gens, "relations": cols}


def render_matrix(mat: Matrix) -> list[list[Any]]:
    return [[render_scalar(x) for x in row] for row in mat.to_rows()]


def render_document(ring: BaseRing, payload: Any) -> dict[str, Any]:
    """Inverse of load_document, for round-trip checks and tooling."""
    doc: dict[str, Any] = {"version": 1, "ring": ring.literal()}
    if isinstance(payload, FpModule):
        doc["module"] = render_module_payload(payload)
    elif isinstance(payload, ModuleMap):
        doc["map"] = {"source": render_module_payload(payload.source),
                      "target": render_module_payload(payload.target),
                      "matrix": render_matrix(payload.matrix)}
    elif isinstance(payload, BoundedComplex):
        cx = payload
        entries: list[Any] = []
        for deg in range(cx.hi, cx.lo - 1, -1):
            t = cx.term(deg)
            entries.append(t.gens if t.is_free_presentation else render_module_payload(t))
        doc["complex"] = {
            "lo": cx.lo, "hi": cx.hi, "ranks_or_terms": entries,
            "boundaries": [render_matrix(cx.boundary(d).matrix)
                           for d in range(cx.hi, cx.lo, -1)],
        }
    elif isinstance(payload, Matrix):
        doc["matrix"] = {"entries": render_matrix(payload), "cols": payload.cols}
    else:
        raise InputError(f"cannot render {type(payload).__name__}")
    return doc


# -- shared rendering ---------------------------------------------------------

def _module_text(m: FpModule) -> str:
    inv = m.invariant_factors()
    parts = []
    if inv.free_rank:
        parts.append(f"R^{inv.free_rank}")
    parts.extend(f"R/{render_scalar(d)}" for d in inv.torsion)
    return " + ".join(parts) if parts else "0"


def _module_json(m: FpModule) -> dict[str, Any]:
    inv = m.invariant_factors()
    return {"free_rank": inv.free_rank,
            "torsion": [render_scalar(d) for d in inv.torsion]}


def _emit(args: argparse.Namespace, ring: BaseRing, payload: dict[str, Any],
          text_lines: list[str]) -> str:
    """The report: in JSON the command's own fields plus its name, the ring
    literal and any --seed; in text the given lines."""
    if args.format == "json":
        report = {"command": args.command, "ring": ring.literal(), **payload}
        if args.seed is not None:
            report["seed"] = args.seed
        return json.dumps(report, sort_keys=True, separators=(",", ":"))
    return "\n".join(text_lines)


# -- commands -----------------------------------------------------------------

def _cmd_snf(args) -> tuple[str, int]:
    ring, mat = load_document(args.input, "matrix")
    dec = snf(mat)
    if not dec.verify(mat):
        raise ContradictionError("SNF decomposition failed re-verification")
    payload = {
        "divisors": [render_scalar(d) for d in dec.elementary_divisors],
        "U": render_matrix(dec.U), "D": render_matrix(dec.D),
        "V": render_matrix(dec.V), "verified": True,
    }
    lines = [f"ring: {ring.literal()}",
             f"elementary divisors: {', '.join(str(render_scalar(d)) for d in dec.elementary_divisors) or '(none)'}",
             f"U: {render_matrix(dec.U)}",
             f"D: {render_matrix(dec.D)}",
             f"V: {render_matrix(dec.V)}",
             "reconstruction A = U D V: verified"]
    return _emit(args, ring, payload, lines), 0


def _cmd_homology(args) -> tuple[str, int]:
    ring, cx = load_document(args.input, "complex")
    rows = []
    lines = [f"ring: {ring.literal()}", f"degrees: [{cx.lo}, {cx.hi}]"]
    for i in range(cx.hi, cx.lo - 1, -1):
        h = cx.homology(i)
        rows.append({"degree": i, **_module_json(h)})
        lines.append(f"H_{i} = {_module_text(h)}")
    return _emit(args, ring, {"lo": cx.lo, "hi": cx.hi, "homology": rows}, lines), 0


def _primes_for(args, ring: BaseRing) -> list[Prime]:
    """The distinct points named by --primes, in Spec R and in report order."""
    if not args.primes:
        return []
    out = []
    with _int_digits(INPUT_DIGITS):
        for tok in args.primes.split(","):
            q = parse_prime(tok.strip())
            ring.residue_field(q)
            out.append(q)
    return sorted(set(out), key=Prime.sort_key)


def _cmd_fibers(args) -> tuple[str, int]:
    ring, cx = load_document(args.input, "complex")
    primes = _primes_for(args, ring) or complex_prime_set(cx)
    rows = []
    lines = [f"ring: {ring.literal()}"]
    for q in primes:
        prof = cx.fiber_profile(q)
        dims = [[i, prof.dims[i]] for i in range(cx.hi, cx.lo - 1, -1)]
        rows.append({"prime": q.literal(), "dims": dims})
        rendered = ", ".join(f"h_{i}={d}" for i, d in dims)
        lines.append(f"fiber at ({q.literal()}): {rendered}")
    return _emit(args, ring, {"profiles": rows}, lines), 0


def _cmd_badprimes(args) -> tuple[str, int]:
    ring, cx = load_document(args.input, "complex")
    bp: BadPrimeSet = bad_primes(cx)
    witness = [[p, list(degs)] for p, degs in bp.witness.items()]
    payload = {"primes": [q.p for q in bp.primes], "witness": witness}
    lines = [f"ring: {ring.literal()}",
             f"bad primes: {', '.join(str(q.p) for q in bp.primes) or '(none)'}"]
    for p, degs in witness:
        lines.append(f"  {p}: rank drop in boundary degrees {degs}")
    return _emit(args, ring, payload, lines), 0


def _cmd_check_theorem(args) -> tuple[str, int]:
    ring, cx = load_document(args.input, "complex")
    rep = check_main_theorem(cx)
    fibers = [{"prime": q.literal(),
               "dims": [[i, rep.fiber_dims[q][i]] for i in sorted(rep.fiber_dims[q], reverse=True)]}
              for q in rep.checked_primes]
    payload = {
        "hypothesis_holds": rep.hypothesis_holds,
        "checked_primes": [q.literal() for q in rep.checked_primes],
        "fibers": fibers,
        "conclusion_acyclic": rep.conclusion_acyclic,
        "conclusion_h0_flat": rep.conclusion_h0_flat,
        "tensor_family_acyclic": rep.tensor_family_acyclic,
        "h0": _module_json(rep.h0),
        "verdict": rep.verdict,
    }
    lines = [f"ring: {ring.literal()}",
             f"checked primes: {', '.join('(' + q.literal() + ')' for q in rep.checked_primes)}",
             f"hypothesis (all fibers acyclic in degrees > 0): {'holds' if rep.hypothesis_holds else 'fails'}",
             f"conclusion: complex acyclic in degrees > 0: {rep.conclusion_acyclic}",
             f"conclusion: H_0 flat: {rep.conclusion_h0_flat}   [H_0 = {_module_text(rep.h0)}]",
             f"conclusion: tensor family stays acyclic: {rep.tensor_family_acyclic}",
             f"verdict: {rep.verdict}"]
    return _emit(args, ring, payload, lines), 0 if rep.verdict == "consistent" else 3


def _cmd_check_map(args) -> tuple[str, int]:
    ring, f = load_document(args.input, "map")
    rep = purity_report(f)
    payload = {
        "injective_with_flat_cokernel": rep.injective_with_flat_cokernel,
        "pure": rep.pure,
        "fiberwise_injective": rep.fiberwise_injective,
        "checked_primes": [q.literal() for q in rep.checked_primes],
        "verdict": rep.verdict,
    }
    lines = [f"ring: {ring.literal()}",
             f"injective with flat cokernel: {rep.injective_with_flat_cokernel}",
             f"pure (unit elementary divisors): {rep.pure}",
             f"fiberwise injective: {rep.fiberwise_injective}",
             f"all three agree: verdict {rep.verdict}"]
    return _emit(args, ring, payload, lines), 0


def _cmd_check_universal(args) -> tuple[str, int]:
    ring, cx = load_document(args.input, "complex")
    rep = is_universally_exact(cx)
    payload = {
        "direct": rep.direct, "fiberwise": rep.fiberwise,
        "tensor_sampled": rep.tensor_sampled,
        "checked_primes": [q.literal() for q in rep.checked_primes],
        "verdict": rep.verdict,
    }
    lines = [f"ring: {ring.literal()}",
             f"exact with flat images: {rep.direct}",
             f"exact on every fiber: {rep.fiberwise}",
             f"sampled total tensors exact: {rep.tensor_sampled}",
             f"universally exact: {rep.verdict}"]
    return _emit(args, ring, payload, lines), 0


def _cmd_tor_ext(args) -> tuple[str, int]:
    """tor and ext, told apart by args.command."""
    functor = args.command
    depth = _capped(args.depth, "--depth", MAX_DEPTH)
    ring, m = load_document(args.input, "module")
    criterion = tor_flatness_criterion if functor == "tor" else ext_flatness_criterion
    asked = _primes_for(args, ring)
    verdict = criterion(m, depth)
    res = verdict.resolution
    dims_at = res.tor_dims if functor == "tor" else res.ext_dims
    table = []
    lines = [f"ring: {ring.literal()}", f"module: {_module_text(m)}"]
    for q in asked or verdict.checked_primes:
        row = verdict.table[q] if q in verdict.table else dims_at(q)
        dims = [[i, row[i]] for i in range(depth, -1, -1)]
        table.append({"prime": q.literal(), "dims": dims})
        rendered = ", ".join(f"{functor}_{i}={d}" for i, d in dims)
        lines.append(f"at ({q.literal()}): {rendered}")
    cx = res.complex
    periodic = any(cx.boundary(j).matrix == cx.boundary(j + 1).matrix
                   for j in range(1, cx.hi))
    payload = {
        "depth": depth, "module": _module_json(m), "table": table,
        "criterion": {
            "positive_vanishing": verdict.positive_vanishing,
            "vanishing_with_degree_zero": verdict.vanishing_with_degree_zero,
            "flat_confirmed": verdict.flat_confirmed,
            "zero_confirmed": verdict.zero_confirmed,
            "checked_depth": verdict.checked_depth,
            "complete": verdict.complete,
        },
        "resolution_periodic": periodic,
    }
    lines.append(verdict.describe())
    if periodic:
        lines.append("resolution repeats: consecutive syzygy boundaries coincide")
    return _emit(args, ring, payload, lines), 0


def _cmd_koszul(args) -> tuple[str, int]:
    with _int_digits(INPUT_DIGITS):
        ring = parse_ring(args.ring)
        tokens = [tok.strip() for tok in args.elements.split(",") if tok.strip()]
        _capped(len(tokens), "number of --elements", MAX_KOSZUL_ELEMENTS)
        elements = [parse_scalar(ring, tok) for tok in tokens]
    if not elements:
        raise InputError("need at least one element")
    kx = koszul_complex(ring, elements)
    phi = koszul_selfduality(ring, elements)
    iso = phi.is_isomorphism()
    if not iso:
        raise ContradictionError("self-duality map failed to be an isomorphism")
    payload = {
        "elements": [render_scalar(x) for x in elements],
        "ranks": [kx.term(i).gens for i in range(kx.hi, kx.lo - 1, -1)],
        "boundaries": [render_matrix(kx.boundary(i).matrix)
                       for i in range(kx.hi, kx.lo, -1)],
        "selfduality_isomorphism": iso,
    }
    lines = [f"ring: {ring.literal()}",
             f"elements: {', '.join(str(render_scalar(x)) for x in elements)}",
             f"ranks (degree {kx.hi} down to {kx.lo}): "
             + ", ".join(str(kx.term(i).gens) for i in range(kx.hi, kx.lo - 1, -1)),
             "self-duality chain isomorphism: verified"]
    return _emit(args, ring, payload, lines), 0


def _cmd_nullhomotopy(args) -> tuple[str, int]:
    ring, cx = load_document(args.input, "complex")
    cert = null_homotopy(cx)
    if cert is None:
        return _emit(args, ring, {"contractible": False},
                     [f"ring: {ring.literal()}", "verdict: NONE (no null homotopy exists)"]), 0
    maps = [[i, render_matrix(cert.h(i))] for i in range(cx.hi, cx.lo - 1, -1)]
    lines = [f"ring: {ring.literal()}", "verdict: contractible (dh + hd = id verified)"]
    for i, mat in maps:
        lines.append(f"h_{i}: {mat}")
    return _emit(args, ring, {"contractible": True, "maps": maps, "verified": True}, lines), 0


def _cmd_filtration(args) -> tuple[str, int]:
    ring, m = load_document(args.input, "module")
    pf = prime_filtration(m)
    inv = m.invariant_factors()
    finite = [q for _, q in pf.steps if not q.is_generic]
    product = 1
    for q in finite:
        product *= q.p
    expected = 1
    for d in inv.torsion:
        expected *= int(d)
    generic_steps = sum(1 for _, q in pf.steps if q.is_generic)
    if product != expected or generic_steps != inv.free_rank:
        raise ContradictionError("filtration failed re-verification")
    if pf.steps and not pf.steps[-1][0].is_isomorphic_to(m):
        raise ContradictionError("filtration does not end at the module")
    steps = [{"stage": _module_json(stage), "quotient": q.literal()}
             for stage, q in pf.steps]
    payload = {"module": _module_json(m), "steps": steps, "verified": True}
    lines = [f"ring: {ring.literal()}", f"module: {_module_text(m)}"]
    for k, (stage, q) in enumerate(pf.steps, start=1):
        lines.append(f"step {k}: stage {_module_text(stage)}   quotient R/({q.literal()})")
    lines.append("verified: quotient orders multiply to the torsion order; "
                 f"{generic_steps} free step(s)")
    return _emit(args, ring, payload, lines), 0


def _cmd_gallery(args) -> tuple[str, int]:
    from .towers import gallery  # the one command that builds towers

    _capped(args.max_prime, "--max-prime", MAX_PRIME_BOUND)
    _capped(args.max_stage, "--max-stage", MAX_STAGE)
    rep = gallery(args.name, p=args.p, max_prime=args.max_prime,
                  max_stage=args.max_stage, window=args.window)
    rows = []
    lines = [f"gallery: {rep.name}", f"ring: {rep.ring.literal()}",
             "parameters: " + ", ".join(f"{k}={v}" for k, v in sorted(rep.parameters.items()))]
    for row in rep.rows:
        r = row.report
        rows.append({
            "label": row.label, "values": list(r.values),
            "transitions": list(r.transition_kinds), "status": r.status,
            "value": r.value, "at_stage": r.at_stage,
            "expected": row.expected, "ok": row.ok,
        })
        val = f"{r.value} (from stage {r.at_stage})" if r.stabilized else f"undetermined at {r.bound}"
        mark = "ok" if row.ok else "MISMATCH"
        lines.append(f"  {row.label}: {val}   expected {row.expected} -> {mark}")
    for note in rep.notes:
        lines.append(f"note: {note}")
    lines.append(f"gallery consistent: {rep.ok}")
    payload = {"name": rep.name, "parameters": rep.parameters, "rows": rows,
               "notes": list(rep.notes), "ok": rep.ok}
    return _emit(args, rep.ring, payload, lines), 0 if rep.ok else 3


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberflat",
        description="Exact fiberwise-acyclicity checks for bounded complexes "
                    "over Z, Z/n, Z_(p), F_p, and Q.")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (json is canonical and byte-stable)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed recorded in machine reports")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, takes_input=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if takes_input:
            p.add_argument("input", help="JSON document: a path, inline JSON, or - for stdin")
        return p

    command("snf", _cmd_snf, "Smith normal form of a matrix document")
    command("homology", _cmd_homology, "homology of a complex, top degree first")
    p = command("fibers", _cmd_fibers, "fiber homology profile per prime")
    p.add_argument("--primes", help="comma-separated prime literals (default: computed set)")
    command("badprimes", _cmd_badprimes, "primes where a boundary drops rank")
    command("check-theorem", _cmd_check_theorem, "fiberwise-acyclicity hypothesis and conclusions")
    command("check-map", _cmd_check_map, "three-way purity criterion for a map")
    command("check-universal", _cmd_check_universal, "universal exactness, three routes")
    for name in ("tor", "ext"):
        p = command(name, _cmd_tor_ext, f"{name} dimensions against residue fields")
        p.add_argument("--depth", type=int, default=1,
                       help=f"largest homological degree to examine (default 1, "
                            f"at most {MAX_DEPTH})")
        p.add_argument("--primes", help="comma-separated prime literals")
    p = command("koszul", _cmd_koszul, "Koszul complex and its self-duality check", False)
    p.add_argument("--ring", default="Z", help="ring literal (default Z)")
    p.add_argument("--elements", required=True,
                   help=f"comma-separated ring elements (at most {MAX_KOSZUL_ELEMENTS})")
    command("nullhomotopy", _cmd_nullhomotopy, "explicit contraction or NONE")
    command("filtration", _cmd_filtration, "prime filtration of a module")
    p = command("gallery", _cmd_gallery, "prebuilt example towers with expected values", False)
    p.add_argument("name", help="sum-inverse-primes | injective-hull | dvr-fraction-field")
    p.add_argument("-p", type=int, default=2, help="prime parameter (default 2)")
    p.add_argument("--max-prime", type=int, default=100, dest="max_prime",
                   help=f"largest prime checked (default 100, at most {MAX_PRIME_BOUND})")
    p.add_argument("--max-stage", type=int, default=DEFAULT_MAX_STAGE, dest="max_stage",
                   help=f"sum-inverse-primes: lowest last stage evaluated; row j "
                        f"(0 = the generic point) goes on to stage j + window + 1 if "
                        f"that is later. injective-hull and dvr-fraction-field evaluate "
                        f"stages 0..max(6, window + 2) and use it only to check "
                        f"window <= max-stage (default {DEFAULT_MAX_STAGE}, "
                        f"at most {MAX_STAGE})")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--elements" in argv[:-1]:
        # argparse takes a value such as -2,3, no plain negative number, for an option
        k = argv.index("--elements")
        argv[k:k + 2] = [f"--elements={argv[k + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        with _int_digits(0):
            out, code = args.run(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ContradictionError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 3
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # the reader left; send the interpreter's flush at exit to /dev/null
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
