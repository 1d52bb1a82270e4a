#!/usr/bin/env python3
"""Layered benchmark for fiberflat: seeded workloads, checked verdicts.

Run from the root of a fiberflat source tree (it imports ./src/fiberflat):

    python3 perfbench/run.py --workload small-batch --seed 1 --seconds 20 --trace 0

Workloads (one process, one caller, closed loop, serial):
  small-batch  thousands of tiny criterion-1 complexes, contractible
               complexes and small modules through the library;
  dense-batch  dense complexes of rank 12-32 over Z, Z/360 and Zloc/3
               through check_main_theorem;
  cli-docs     one `python -m fiberflat --format json ...` process per
               document of a corpus covering every command.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 is
a separate run: it installs timing wrappers around the calls between
fiberflat modules (tracer.py), runs a fixed number of rounds traced and
the same rounds untraced, and reports per-layer metrics.

Every verdict is checked against what the input's construction
guarantees and, for the CLI, against an in-process library call.  The
last line of stdout is the result object; the line before it ("report")
holds the full report with provenance.  Spans and reports are written to
.perfbench_out/ in the working directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import ceil
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "fiberflat")
OUT = os.path.join(ROOT, ".perfbench_out")

# tail: the fixed percentile reported as latency_tail_ms; a run goes on
# until at least ten samples lie beyond it.  setup_rounds: rounds
# generated during set-up; a run that needs more starts again from the
# first (run_item rebuilds every object from plain data, so a repeated
# round starts as cold as a new one).  Items are decoded before their
# clock starts.  trace_rounds: rounds of the traced
# run, fixed so that its counts repeat exactly for a seed.
WORKLOADS = {
    "small-batch": {"tail": 99, "setup_rounds": 240, "trace_rounds": 30},
    "dense-batch": {"tail": 75, "setup_rounds": 6, "trace_rounds": 1},
    "cli-docs": {"tail": 75, "trace_rounds": 2},
}
SETUP_SAMPLES = 3          # the run's own set-up plus fresh-process probes
FLOOR_SAMPLES = 5          # interpreter and import probes (traced run)
MAX_LOOP_S = 120.0         # hard stop for a run that cannot reach its samples
CHILD_TIMEOUT_S = 60.0

END_TO_END = {"setup_s": "s", "verdicts_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- helpers ------------------------------------------------------------------

def min_items(tail: int) -> int:
    return ceil(10 / (1 - tail / 100))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_fiberflat():
    """Import fiberflat from ./src and nowhere else."""
    if not os.path.isfile(os.path.join(PKG, "__init__.py")):
        raise SetupError(f"no fiberflat sources under {SRC}; run from the repository root")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import fiberflat
    if os.path.dirname(os.path.abspath(fiberflat.__file__)) != PKG:
        raise SetupError(f"fiberflat was imported from {fiberflat.__file__}, not {PKG}")
    return fiberflat


def provenance(seed: int) -> dict:
    h = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name), "rb") as fh:
                data = fh.read()
            h.update(name.encode() + b"\0" + data)
            lines += sum(1 for ln in data.decode().splitlines() if ln.strip())
    # the ceiling keeps git from looking for a repository above ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:
        commit = None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"seed": seed, "python": platform.python_version(), "nproc": nproc,
            "commit": commit, "src_sha256": h.hexdigest(), "src_lines": lines,
            "platform": platform.platform()}


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[float, int, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


# -- set-up -------------------------------------------------------------------

def setup(workload: str, seed: int, doc_dir: str):
    """Import fiberflat and build the workload's inputs; returns
    (seconds, inputs).  The clock starts before the import, so this is
    meaningful as a measurement only in a fresh process."""
    t0 = time.perf_counter()
    import_fiberflat()
    if workload == "cli-docs":
        import fiberflat.cli  # noqa: F401  (the documents are run through it)
        import clidocs
        docs = clidocs.corpus(seed)
        inputs = (docs, clidocs.write_corpus(docs, doc_dir))
    else:
        import workloads
        make = workloads.ROUND_MAKERS[workload]
        # items are kept as JSON text, so the pool adds little to peak_rss_mb
        inputs = [[json.dumps(item) for item in make(seed, r)]
                  for r in range(WORKLOADS[workload]["setup_rounds"])]
    return time.perf_counter() - t0, inputs


def setup_probes(workload: str, seed: int, count: int) -> list[float]:
    out = []
    for _ in range(count):
        _, code, stdout = run_child([sys.executable, os.path.join(HERE, "run.py"),
                                     "--setup-probe", "--workload", workload,
                                     "--seed", str(seed)])
        if code != 0:
            raise SetupError(f"set-up probe exited with {code}")
        out.append(float(stdout.strip().splitlines()[-1]))
    return out


def floor_probes() -> dict[str, float]:
    interp, imp = [], []
    for _ in range(FLOOR_SAMPLES):
        secs, code, _ = run_child([sys.executable, "-c", "pass"])
        if code != 0:
            raise SetupError("bare interpreter probe failed")
        interp.append(secs * 1000)
        _, code, stdout = run_child([sys.executable, "-c",
                                     "import time; t = time.perf_counter(); "
                                     "import fiberflat.cli; print(time.perf_counter() - t)"])
        if code != 0:
            raise SetupError("import probe failed")
        imp.append(float(stdout.strip()) * 1000)
    return {"cli.interpreter_ms": statistics.median(interp),
            "cli.import_ms": statistics.median(imp)}


# -- library workloads --------------------------------------------------------

def closed_loop(round_of, do_item, n_rounds: int | None, seconds: float,
                need: int) -> dict:
    """One caller, serial: run whole rounds of items until n_rounds are
    done, or until `seconds` have passed and `need` items have finished.
    do_item(item) returns (seconds waited, failure or None)."""
    lat: list[float] = []
    failures: list[str] = []
    start = time.perf_counter()
    r = 0
    while True:
        for item in round_of(r):
            secs, error = do_item(item)
            lat.append(secs)
            if error is not None:
                failures.append(f"round {r}: {error}")
        r += 1
        elapsed = time.perf_counter() - start
        if n_rounds is not None:
            if r >= n_rounds:
                break
        elif (elapsed >= seconds and len(lat) >= need) or elapsed >= MAX_LOOP_S:
            break
    return {"latencies": lat, "failures": failures, "rounds": r,
            "wall_s": time.perf_counter() - start}


def _spans(tracer):
    if tracer is None:
        return lambda name: contextlib.nullcontext()
    return tracer.span


def library_pass(pool: list, n_rounds: int | None, seconds: float, need: int,
                 tracer=None) -> dict:
    """Time each library verdict and check it against its construction.
    Round r is pool[r % len(pool)], so the pool never grows."""
    import workloads
    span = _spans(tracer)
    kind_s: dict[str, float] = {}

    def do_item(text: str):
        item = json.loads(text)
        t0 = time.perf_counter()
        try:
            with span("item"):
                result = workloads.run_item(item)
        except Exception as exc:  # a failed item is counted, not fatal
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        secs = time.perf_counter() - t0
        kind_s[item["kind"]] = kind_s.get(item["kind"], 0.0) + secs
        with span("check"):
            error = workloads.check_item(item, result)
        return secs, error and f"{item['kind']} over {item['ring']}: {error}"

    res = closed_loop(lambda r: pool[r % len(pool)], do_item, n_rounds, seconds, need)
    res["kind_s"] = kind_s
    return res


def cli_pass(docs: dict, argv: dict, seed: int, n_rounds: int | None, seconds: float,
             need: int, in_process: bool = False, tracer=None) -> dict:
    """Run every document once per round, in a seeded order per round:
    as a child process, or through fiberflat.cli.main in this process.
    Outputs are checked afterwards by check_cli_outputs."""
    span = _spans(tracer)
    outputs: list[tuple[str, int, str]] = []
    if in_process:
        import fiberflat.cli

    def round_of(r: int) -> list[str]:
        order = sorted(docs)
        Random(f"cli-docs-order:{seed}:{r}").shuffle(order)
        return order

    def do_item(doc_id: str):
        args = ["--format", "json", *argv[doc_id]]
        t0 = time.perf_counter()
        try:
            if in_process:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), span("item"):
                    code = fiberflat.cli.main(args)
                stdout = buf.getvalue()
            else:
                _, code, stdout = run_child([sys.executable, "-m", "fiberflat", *args])
        except Exception as exc:  # a failed document is counted, not fatal
            return time.perf_counter() - t0, f"{doc_id}: {type(exc).__name__}: {exc}"
        secs = time.perf_counter() - t0
        outputs.append((doc_id, code, stdout))
        return secs, None

    res = closed_loop(round_of, do_item, n_rounds, seconds, need)
    res["outputs"] = outputs
    return res


def check_cli_outputs(ff, docs: dict, outputs: list, failures: list[str]) -> dict:
    """Check outputs against library and construction; count digest changes."""
    import clidocs
    stored = clidocs.stored_digests()
    refs: dict[str, dict] = {}
    first: dict[str, str] = {}
    changed: set[str] = set()
    for doc_id, code, stdout in outputs:
        spec = docs[doc_id]
        if doc_id not in refs:
            refs[doc_id] = clidocs.reference(ff, spec[0], spec[1], spec[2])
        error = clidocs.check_output(doc_id, spec, refs[doc_id], code, stdout)
        if first.setdefault(doc_id, stdout) != stdout:
            error = f"{doc_id}: stdout differs between runs of the same document"
        if error is not None:
            failures.append(error)
        if doc_id in clidocs.FIXED and stored.get(doc_id) != clidocs.digest(stdout):
            changed.add(doc_id)
    return {"digest_changes": sorted(changed), "digests": {
        d: clidocs.digest(s) for d, s in first.items() if d in clidocs.FIXED}}


# -- the two kinds of run -----------------------------------------------------

def summarize(latencies: list[float], tail: int) -> dict:
    """Median and nearest-rank tail percentile, in milliseconds."""
    lat = sorted(latencies)
    n = len(lat)
    rank = max(1, ceil(tail / 100 * n))
    return {"latency_p50_ms": statistics.median(lat) * 1000,
            "latency_tail_ms": lat[rank - 1] * 1000,
            "samples": n, "beyond_tail": n - rank}


def end_to_end_run(workload: str, seed: int, seconds: float) -> dict:
    cfg = WORKLOADS[workload]
    need = min_items(cfg["tail"])
    doc_dir = os.path.join(OUT, f"docs-{workload}-{seed}")
    setup_s, inputs = setup(workload, seed, doc_dir)
    ff = import_fiberflat()
    report: dict = {}
    if workload == "cli-docs":
        docs, argv = inputs
        res = cli_pass(docs, argv, seed, None, seconds, need)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        report["cli"] = check_cli_outputs(ff, docs, res["outputs"], res["failures"])
    else:
        report["setup_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        res = library_pass(inputs, None, seconds, need)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = [setup_s] + setup_probes(workload, seed, SETUP_SAMPLES - 1)
    stats = summarize(res["latencies"], cfg["tail"])
    attempted = len(res["latencies"])
    failed = len(res["failures"])
    metrics = {"setup_s": statistics.median(samples),
               # verified verdicts per second the caller spent waiting
               "verdicts_per_s": (attempted - failed) / sum(res["latencies"]),
               "latency_p50_ms": stats["latency_p50_ms"],
               "latency_tail_ms": stats["latency_tail_ms"],
               "peak_rss_mb": rss_kb / 1024}
    report.update({"setup_samples_s": samples, "rounds": res["rounds"],
                   "loop_wall_s": res["wall_s"], "tail_percentile": cfg["tail"],
                   "samples": stats["samples"], "beyond_tail": stats["beyond_tail"],
                   "fail_ratio": failed / attempted, "failures": res["failures"][:20]})
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}


def traced_run(workload: str, seed: int) -> dict:
    import clidocs
    import tracer as tracer_mod
    n_rounds = WORKLOADS[workload]["trace_rounds"]
    cli_rounds = WORKLOADS["cli-docs"]["trace_rounds"]
    doc_dir = os.path.join(OUT, f"docs-{workload}-{seed}")
    _, inputs = setup(workload, seed, doc_dir)
    ff = import_fiberflat()
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        if workload == "cli-docs":
            docs, argv = inputs
            traced = cli_pass(docs, argv, seed, n_rounds, 0, 0, in_process=True, tracer=tr)
        else:
            traced = library_pass(inputs, n_rounds, 0, 0, tracer=tr)
    finally:
        tr.uninstall()
    if workload == "cli-docs":
        plain = cli_pass(docs, argv, seed, n_rounds, 0, 0, in_process=True)
        cli_plain, cli_outputs = plain, traced["outputs"] + plain["outputs"]
    else:
        plain = library_pass(inputs, n_rounds, 0, 0)
        # The cli.* metrics are measured on every traced run: the corpus
        # is run untraced through fiberflat.cli.main in this process.
        docs = clidocs.corpus(seed)
        argv = clidocs.write_corpus(docs, doc_dir)
        cli_plain = cli_pass(docs, argv, seed, cli_rounds, 0, 0, in_process=True)
        cli_outputs = cli_plain["outputs"]
    failures = traced["failures"] + plain["failures"]
    if cli_plain is not plain:
        failures += cli_plain["failures"]
    cli = check_cli_outputs(ff, docs, cli_outputs, failures)
    spans = tr.spans()
    metrics = tr.metrics(spans)
    layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s")
                     and k.count(".") == 1)
    bookkeeping = tr.bookkeeping_s(spans)
    metrics.update(floor_probes())
    metrics["cli.in_process_ms"] = statistics.median(cli_plain["latencies"]) * 1000
    metrics["cli.output_digest_changes"] = len(cli["digest_changes"])
    metrics["trace.overhead_ratio"] = sum(traced["latencies"]) / sum(plain["latencies"])
    metrics["trace.unattributed_s"] = traced["wall_s"] - layer_self - bookkeeping
    metrics["shape.src_lines"] = provenance(seed)["src_lines"]
    span_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.bin")
    tr.write(spans, span_path)
    report = {"rounds": n_rounds, "spans": len(spans["name"]),
              "span_file": os.path.relpath(span_path, ROOT),
              "traced_wall_s": traced["wall_s"], "trace_bookkeeping_s": bookkeeping,
              "shares": shares(tr, spans, metrics, traced, plain),
              "cli": cli, "failures": failures[:20]}
    attempted = len(traced["latencies"]) + len(plain["latencies"])
    if cli_plain is not plain:
        attempted += len(cli_plain["latencies"])
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics,
            "report": report}


def shares(tr, spans: dict, metrics: dict, traced: dict, plain: dict) -> dict:
    """Where the time of a traced run goes, as shares: what the workloads
    are meant to expose.  Item time is the traced time of the items; the
    shares by item kind come from the untraced pass."""
    item_s = sum(traced["latencies"])
    main_s = tr.inclusive(spans)[0].get("criteria.check_main_theorem", 0.0)
    snf_s = sum(metrics[f"linalg.snf.{b}_s"] for b in ("Z", "Zmod", "Zloc", "field"))
    out = {"snf_of_item_time": snf_s / item_s,
           "ModuleMap_init_of_item_time": metrics["modules.ModuleMap_init_s"] / item_s,
           "BoundedComplex_init_of_item_time":
               metrics["complexes.BoundedComplex_init_s"] / item_s,
           "snf_repeat_ratio": metrics["linalg.snf.repeat_ratio"],
           "snf_repeat_ratio_across_run": (tr.snf_run_repeats / tr.snf_computed
                                           if tr.snf_computed else 0.0),
           "check_main_theorem_of_item_time": main_s / item_s}
    if main_s:
        for stage in ("prime_set", "fiber_profiles", "ring_homology", "tensor_family"):
            out[f"{stage}_of_check_main_theorem"] = metrics[f"criteria.stage.{stage}_s"] / main_s
    kind_s = plain.get("kind_s", {})
    total = sum(kind_s.values())
    for kind, secs in sorted(kind_s.items()):
        out[f"kind.{kind}_of_untraced_item_time"] = secs / total
    return out


def units_for(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bits_max"):
        return "bits"
    if name.endswith("src_lines"):
        return "lines"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    try:
        if args.setup_probe:
            doc_dir = os.path.join(OUT, f"probe-{os.getpid()}")
            secs, _ = setup(args.workload, args.seed, doc_dir)
            shutil.rmtree(doc_dir, ignore_errors=True)
            print(repr(secs))
            return 0
        if args.trace:
            out = traced_run(args.workload, args.seed)
        else:
            out = end_to_end_run(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics = {k: {"value": v, "unit": units_for(k)} for k, v in out["metrics"].items()}
    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance(args.seed), **out["report"]}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"report": report, "metrics": metrics}, fh, indent=1)
    for name, m in metrics.items():
        extra = ""
        if name == "latency_tail_ms":
            extra = (f"  (p{report['tail_percentile']} of {report['samples']} samples, "
                     f"{report['beyond_tail']} beyond it)")
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}{extra}")
    print(f"{'fail_ratio':40s} {out['failed'] / out['attempted']:14.6g} ratio"
          f"  ({out['failed']} failed of {out['attempted']} attempted)")
    for line in report.get("failures", []):
        print(f"FAILED {line}")
    print("report " + json.dumps(report, sort_keys=True))
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
