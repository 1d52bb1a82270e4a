"""Timing wrappers installed from outside the fiberflat package.

The tracer replaces, in every namespace that imported it, each function
that one fiberflat module takes from another, and wraps the constructors
(__init__ and classmethods) of the package's classes.  Besides these it
wraps only what a per-layer metric reads: a few module-internal
functions (the SNF kernel entry point, primality and factoring, the
stages of the main check) and three methods (FpModule.invariant_factors,
BoundedComplex.homology, BoundedComplex.fiber_profile).  Other methods
are not wrapped, so their time counts as self time of the layer that
called them.  Nothing under src/ is edited: uninstall() puts every
original object back.

Each call becomes a span: name, parent span, start and end.  While the
run goes on only span boundaries are appended to two flat arrays; when
it ends they are replayed into spans with parent ids, aggregated, and
written out.  A layer's self time is the duration of its spans minus the
part covered by their child spans.  The benchmark's own work is recorded
as spans of the pseudo-layer "bench".
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
from array import array
from fractions import Fraction
from time import perf_counter

LAYERS = ("rings", "linalg", "modules", "complexes", "criteria", "towers",
          "generate", "cli")

# Functions wrapped inside their own module as well, because the metrics
# need them even when the caller lives in the same module.
_INTERNAL = {
    "rings": ("is_prime", "factor_trial"),
    "linalg": ("_snf_full",),
    "modules": ("matrix_bad_primes", "free_resolution"),
    "criteria": ("complex_prime_set", "_fiber_profiles", "standard_module_family",
                 "check_main_theorem"),
    "cli": ("main",),
}

# Methods that a per-layer metric reads.
_METHODS = {"FpModule": ("invariant_factors",),
            "BoundedComplex": ("homology", "fiber_profile")}

_SNF_BUCKET = {"Z": "Z", "Zmod": "Zmod", "Zloc": "Zloc", "Q": "field", "Fp": "field"}


def _entry_bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(x).bit_length()


class Tracer:
    """Installs wrappers, records spans, and reports per-layer metrics."""

    def __init__(self) -> None:
        self._names: list[str] = []      # "layer.qualified_name"
        self._short: list[str] = []      # function name without class
        self._layer: list[int] = []
        self._name_ids: dict[str, int] = {}
        # The hot path appends one event per span boundary: a name id at
        # the start, CLOSE at the end, and BOOKKEEPING when the wrapper of
        # the span that just closed finished its own accounting.  spans()
        # turns the events into spans with parent ids.
        self._events = array("l")
        self._times = array("d")
        self._restore: list[tuple[object, str, object]] = []
        self.snf_computed = 0
        self.snf_repeats = 0           # of a matrix reduced earlier in the same item
        self.snf_run_repeats = 0       # of a matrix reduced earlier in the run
        self.snf_time = {"Z": 0.0, "Zmod": 0.0, "Zloc": 0.0, "field": 0.0}
        self.witness_bits_max = 0
        self._snf_seen: set = set()
        self._snf_run_seen: set = set()

    CLOSE, BOOKKEEPING = -1, -2

    # -- spans ------------------------------------------------------------

    def _name_id(self, layer: str, qualname: str) -> int:
        key = f"{layer}.{qualname}"
        nid = self._name_ids.get(key)
        if nid is None:
            nid = len(self._names)
            self._name_ids[key] = nid
            self._names.append(key)
            self._short.append(qualname.rsplit(".", 1)[-1])
            self._layer.append(LAYERS.index(layer) if layer in LAYERS else -1)
        return nid

    def span(self, qualname: str):
        """Context manager recording a span of the pseudo-layer "bench".

        A bench span named "item" also starts a new scope for SNF repeats.
        """
        return _BenchSpan(self, self._name_id("bench", qualname), qualname == "item")

    def _wrap(self, fn, layer: str, qualname: str):
        nid = self._name_id(layer, qualname)
        ev, tm = self._events.append, self._times.append
        close = self.CLOSE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ev(nid)
            tm(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tm(perf_counter())
                ev(close)

        return wrapper

    def _wrap_snf(self, fn):
        """_snf_full with per-ring time, repeat detection and witness size."""
        nid = self._name_id("linalg", "_snf_full")
        ev, tm = self._events.append, self._times.append
        close, bookkeeping = self.CLOSE, self.BOOKKEEPING

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            computes = getattr(a, "_snf", None) is None
            ev(nid)
            t0 = perf_counter()
            tm(t0)
            try:
                full = fn(a, *args, **kwargs)
            finally:
                t1 = perf_counter()
                tm(t1)
                ev(close)
            if computes:
                self._note_snf(a, full, t1 - t0)
                tm(perf_counter())
                ev(bookkeeping)
            return full

        return wrapper

    def _note_snf(self, a, full, seconds: float) -> None:
        self.snf_computed += 1
        self.snf_time[_SNF_BUCKET.get(a.ring.kind, "field")] += seconds
        key = (a.ring.kind, a.ring.param, a.cols, tuple(map(tuple, a.to_rows())))
        if key in self._snf_seen:
            self.snf_repeats += 1
        else:
            self._snf_seen.add(key)
        if key in self._snf_run_seen:
            self.snf_run_repeats += 1
        else:
            self._snf_run_seen.add(key)
        for w in (full.U, full.V):
            for row in w.to_rows():
                for x in row:
                    b = _entry_bits(x)
                    if b > self.witness_bits_max:
                        self.witness_bits_max = b

    # -- installation ---------------------------------------------------------

    def _set(self, target, attr: str, value) -> None:
        self._restore.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"fiberflat.{name}") for name in LAYERS}
        package = importlib.import_module("fiberflat")
        owner_of = {m.__name__: name for name, m in mods.items()}
        wrappers: dict[int, object] = {}

        def wrapped(fn, layer, qualname):
            w = wrappers.get(id(fn))
            if w is None:
                if qualname == "_snf_full":
                    w = self._wrap_snf(fn)
                else:
                    w = self._wrap(fn, layer, qualname)
                wrappers[id(fn)] = w
            return w

        # module-level functions, in every namespace that holds them
        for ns in list(mods.values()) + [package]:
            for attr, obj in list(vars(ns).items()):
                if not inspect.isfunction(obj):
                    continue
                layer = owner_of.get(obj.__module__)
                if layer is None:
                    continue
                own = obj.__module__ == ns.__name__
                if own and attr not in _INTERNAL.get(layer, ()):
                    continue
                self._set(ns, attr, wrapped(obj, layer, obj.__name__))

        # constructors of the package's classes, and the methods in _METHODS
        for layer, mod in mods.items():
            for cls in list(vars(mod).values()):
                if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                    continue
                if (cls.__name__.startswith("_") or issubclass(cls, BaseException)
                        or dataclasses.is_dataclass(cls)):
                    continue
                for attr, raw in list(vars(cls).items()):
                    qual = f"{cls.__name__}.{attr}"
                    if isinstance(raw, classmethod):
                        self._set(cls, attr, classmethod(wrapped(raw.__func__, layer, qual)))
                    elif attr == "__init__" or attr in _METHODS.get(cls.__name__, ()):
                        self._set(cls, attr, wrapped(raw, layer, qual))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, value = self._restore.pop()
            setattr(target, attr, value)

    # -- aggregation ----------------------------------------------------------

    def spans(self) -> dict[str, array]:
        """Replay the events into spans: parent id, name id, start, end,
        and end of the wrapper's bookkeeping (>= end), in start order."""
        parent, name, outermost = array("l"), array("l"), array("b")
        t0, t1, t2 = array("d"), array("d"), array("d")
        active = [0] * len(self._names)
        stack: list[int] = []
        last = -1
        for ev, t in zip(self._events, self._times):
            if ev >= 0:
                sid = len(name)
                parent.append(stack[-1] if stack else -1)
                name.append(ev)
                outermost.append(active[ev] == 0)
                active[ev] += 1
                t0.append(t)
                t1.append(t)
                t2.append(t)
                stack.append(sid)
            elif ev == self.CLOSE:
                last = stack.pop()
                t1[last] = t2[last] = t
                active[name[last]] -= 1
            else:
                t2[last] = t
        return {"parent": parent, "name": name, "outermost": outermost,
                "t0": t0, "t1": t1, "t2": t2}

    def inclusive(self, sp: dict[str, array]) -> tuple[dict[str, float], dict[str, int]]:
        """Inclusive time (outermost spans only, so recursion counts once)
        and call count, by qualified name."""
        names, name, t0, t1 = self._names, sp["name"], sp["t0"], sp["t1"]
        outermost = sp["outermost"]
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        for sid in range(len(name)):
            key = names[name[sid]]
            calls[key] = calls.get(key, 0) + 1
            if outermost[sid]:
                inclusive[key] = inclusive.get(key, 0.0) + (t1[sid] - t0[sid])
        return inclusive, calls

    def metrics(self, sp: dict[str, array]) -> dict[str, float]:
        """Per-layer totals over the spans from spans()."""
        short, layer_of = self._short, self._layer
        parent, name, t0, t1, t2 = sp["parent"], sp["name"], sp["t0"], sp["t1"], sp["t2"]
        n = len(name)
        covered = [0.0] * n
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                covered[p] += t2[sid] - t0[sid]
        layer_self = {lay: 0.0 for lay in LAYERS + ("bench",)}
        layer_calls = {lay: 0 for lay in LAYERS}
        for sid in range(n):
            lid = layer_of[name[sid]]
            lay = LAYERS[lid] if lid >= 0 else "bench"
            layer_self[lay] += (t1[sid] - t0[sid]) - covered[sid]
            if lid >= 0:
                layer_calls[lay] += 1

        inclusive, calls = self.inclusive(sp)

        def incl(*keys: str) -> float:
            return sum(inclusive.get(k, 0.0) for k in keys)

        def count(*keys: str) -> int:
            return sum(calls.get(k, 0) for k in keys)

        # Stages of check_main_theorem, by time window: its prime-set and
        # fiber-profile calls, then the ring homology up to the first call
        # that builds or uses the tensor family, then the tensor family up
        # to the end of the span.
        stages = dict.fromkeys(("prime_set", "fiber_profiles", "ring_homology",
                                "tensor_family"), 0.0)
        main_id = self._name_ids.get("criteria.check_main_theorem")
        fiber_end: dict[int, float] = {}
        tensor_start: dict[int, float] = {}
        for sid in range(n):
            p = parent[sid]
            if p < 0 or name[p] != main_id:
                continue
            fn = short[name[sid]]
            if fn == "complex_prime_set":
                stages["prime_set"] += t2[sid] - t0[sid]
            elif fn == "_fiber_profiles":
                stages["fiber_profiles"] += t2[sid] - t0[sid]
                fiber_end[p] = t2[sid]
            elif fn in ("standard_module_family", "tensor_with_module"):
                tensor_start.setdefault(p, t0[sid])
        for sid in range(n):
            if name[sid] == main_id:
                start = tensor_start.get(sid, t1[sid])
                stages["ring_homology"] += start - fiber_end.get(sid, t0[sid])
                stages["tensor_family"] += t1[sid] - start

        out: dict[str, float] = {}
        for lay in LAYERS:
            if lay == "generate":
                continue
            out[f"{lay}.calls"] = layer_calls[lay]
            out[f"{lay}.self_s"] = layer_self[lay]
        out["bench.self_s"] = layer_self["bench"]
        out["linalg.snf.calls"] = self.snf_computed
        out["linalg.snf.repeat_ratio"] = (self.snf_repeats / self.snf_computed
                                          if self.snf_computed else 0.0)
        for bucket, secs in self.snf_time.items():
            out[f"linalg.snf.{bucket}_s"] = secs
        out["linalg.witness_bits_max"] = self.witness_bits_max
        out["linalg.field_rank_s"] = incl("linalg.field_rank")
        out["linalg.solve_integral_s"] = incl("linalg.solve_integral")
        out["linalg.syzygy_matrix_s"] = incl("linalg.syzygy_matrix")
        out["modules.ModuleMap_init.calls"] = count("modules.ModuleMap.__init__")
        out["modules.ModuleMap_init_s"] = incl("modules.ModuleMap.__init__")
        out["complexes.BoundedComplex_init.calls"] = count("complexes.BoundedComplex.__init__")
        out["complexes.BoundedComplex_init_s"] = incl("complexes.BoundedComplex.__init__")
        out["modules.invariant_factors_s"] = incl("modules.FpModule.invariant_factors")
        out["modules.matrix_bad_primes_s"] = incl("modules.matrix_bad_primes")
        out["modules.free_resolution_s"] = incl("modules.free_resolution")
        out["complexes.homology_s"] = incl("complexes.BoundedComplex.homology")
        out["complexes.fiber_profile_s"] = incl("complexes.BoundedComplex.fiber_profile")
        out["complexes.tensor_with_module_s"] = incl("complexes.tensor_with_module")
        out["complexes.null_homotopy_s"] = incl("complexes.null_homotopy")
        for stage, secs in stages.items():
            out[f"criteria.stage.{stage}_s"] = secs
        out["rings.factor.calls"] = count("rings.is_prime", "rings.factor_trial")
        out["rings.factor_s"] = incl("rings.is_prime", "rings.factor_trial")
        return out

    @staticmethod
    def bookkeeping_s(sp: dict[str, array]) -> float:
        """Time the wrappers spent on their own accounting."""
        return sum(b - a for a, b in zip(sp["t1"], sp["t2"]))

    def write(self, sp: dict[str, array], path: str) -> None:
        """Spans as a JSON header line followed by the raw column arrays."""
        cols = ("parent", "name", "t0", "t1", "t2")
        header = {"names": self._names, "count": len(sp["name"]),
                  "columns": [[c, sp[c].typecode, sp[c].itemsize] for c in cols]}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in cols:
                sp[c].tofile(fh)


class _BenchSpan:
    __slots__ = ("tracer", "nid", "new_scope")

    def __init__(self, tracer: Tracer, nid: int, new_scope: bool) -> None:
        self.tracer, self.nid, self.new_scope = tracer, nid, new_scope

    def __enter__(self):
        if self.new_scope:
            self.tracer._snf_seen.clear()
        self.tracer._events.append(self.nid)
        self.tracer._times.append(perf_counter())
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer._times.append(perf_counter())
        self.tracer._events.append(Tracer.CLOSE)
        return False
