"""Every fiberflat name the benchmark in perfbench/ uses must still exist.

The benchmark imports the package and its tracer wraps functions and
methods by name.  A rename or deletion under src/ does not always fail the
benchmark: a traced name that no longer exists just leaves its metric at
0.  This test reads the names from the benchmark sources and resolves
each one.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import fiberflat
from fiberflat.linalg import Matrix

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = ("rings", "linalg", "modules", "complexes", "criteria", "towers", "generate", "cli")

# Named in the tracer's stage logic and wrapper bookkeeping.
REQUIRED = [
    "linalg._snf_full", "rings.is_prime", "rings.factor_trial",
    "modules.matrix_bad_primes", "modules.free_resolution",
    "criteria.complex_prime_set", "criteria._fiber_profiles",
    "criteria.standard_module_family", "criteria.check_main_theorem",
    "complexes.tensor_with_module", "cli.main",
    "modules.FpModule.invariant_factors", "complexes.BoundedComplex.homology",
    "complexes.BoundedComplex.fiber_profile",
]


def _source(name):
    return (BENCH / name).read_text(encoding="utf-8")


def _tracer_dict(name):
    tree = ast.parse(_source("tracer.py"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracer.py no longer defines {name}")


def _bench_names():
    names = set(REQUIRED)
    for layer, fns in _tracer_dict("_INTERNAL").items():
        names.update(f"{layer}.{fn}" for fn in fns)
    for cls, attrs in _tracer_dict("_METHODS").items():
        layer = getattr(fiberflat, cls).__module__.rsplit(".", 1)[-1]
        names.update(f"{layer}.{cls}.{a}" for a in attrs)
    # span names the per-layer metrics read: incl(...), count(...), _name_ids.get(...)
    for args in re.findall(r"\b(?:incl|count|get)\(([^)]*)\)", _source("tracer.py")):
        names.update(n for n in re.findall(r'"([\w.]+)"', args) if n.split(".")[0] in LAYERS)
    return sorted(names)


def _package_names():
    names = set()
    for f in ("workloads.py", "clidocs.py"):
        names.update(re.findall(r"\bff\.([A-Za-z_]\w*)", _source(f)))
    return sorted(names)


@pytest.mark.parametrize("dotted", _bench_names())
def test_traced_name_exists(dotted):
    layer, *attrs = dotted.split(".")
    obj = importlib.import_module(f"fiberflat.{layer}")
    for a in attrs:
        assert hasattr(obj, a), f"perfbench reads fiberflat.{dotted}"
        obj = getattr(obj, a)
    assert callable(obj)


@pytest.mark.parametrize("name", _package_names())
def test_package_name_used_by_workloads_exists(name):
    assert hasattr(fiberflat, name), f"perfbench uses fiberflat.{name}"


def test_snf_cache_attributes_the_tracer_reads():
    # the SNF wrapper tells a computed SNF from a cached one by Matrix._snf,
    # and measures witness size on the cached decomposition's U and V
    a = Matrix(fiberflat.ZZ, [[2, 4], [6, 8]])
    assert a._snf is None
    fiberflat.linalg._snf_full(a)
    assert a._snf is not None and a._snf.U.to_rows() and a._snf.V.to_rows()
