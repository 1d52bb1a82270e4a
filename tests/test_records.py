"""Value semantics of the package's records: reports are read-only tuples
(NamedTuple), primes and rings read-only slotted values."""

import copy
import pickle

import pytest

from fiberflat.complexes import koszul_complex
from fiberflat.criteria import (
    FlatnessVerdict, check_main_theorem, is_universally_exact, tor_flatness_criterion,
)
from fiberflat.errors import InputError
from fiberflat.linalg import Matrix
from fiberflat.modules import FpModule, InvariantFactors, ModuleMap, Resolution, purity_report
from fiberflat.rings import GENERIC, BaseRing, Prime, ZZ, integers_mod, localized_at
from fiberflat.towers import StabilizationReport, sum_inverse_primes_tower, tower_fiber


RECORDS = {
    "Prime": lambda: Prime.at(7),
    "generic Prime": lambda: Prime(),
    "BaseRing": lambda: BaseRing("Zmod", 12),
    "InvariantFactors": lambda: FpModule.cyclic(ZZ, 6).invariant_factors(),
    "PurityReport": lambda: purity_report(
        ModuleMap(FpModule.free(ZZ, 1), FpModule.free(ZZ, 2), Matrix(ZZ, [[1], [0]]))),
    "FiberProfile": lambda: koszul_complex(ZZ, [6]).fiber_profile(Prime.at(2)),
    "UniversalExactnessReport": lambda: is_universally_exact(koszul_complex(ZZ, [2, 3])),
    "FlatnessVerdict": lambda: tor_flatness_criterion(FpModule.cyclic(ZZ, 4), 2),
    "StabilizationReport": lambda: tower_fiber(sum_inverse_primes_tower(), Prime.at(2), 6, 2),
}


# records holding a dict compare equal but, as before, have no hash
UNHASHABLE = {"FiberProfile"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_records_are_equal_hash_equal_and_read_only(name):
    build = RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a
    field = a._fields[0] if isinstance(a, tuple) else ("p" if name.endswith("Prime") else "kind")
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown = 1


def test_records_keep_their_field_names_order_and_construction():
    assert InvariantFactors(free_rank=0, torsion=(6,)) == InvariantFactors(0, (6,))
    assert repr(InvariantFactors(0, (6,))) == "InvariantFactors(free_rank=0, torsion=(6,))"
    assert repr(Prime.at(3)) == "Prime(p=3)" and repr(GENERIC) == "Prime(p=None)"
    assert repr(localized_at(3)) == "BaseRing(kind='Zloc', param=3)"
    assert Prime(3) == Prime.at(3) and Prime(p=None) == GENERIC and GENERIC != Prime.at(2)
    assert BaseRing(kind="Zmod", param=12) == integers_mod(12) != integers_mod(6)
    assert ZZ != localized_at(2) and ZZ != "Z" and Prime.at(2) != 2
    assert len({Prime.at(2), Prime(2), GENERIC}) == 2
    assert StabilizationReport._fields == ("quantity", "values", "transition_kinds", "status",
                                           "value", "at_stage", "bound", "window")
    assert Resolution._fields == ("complex", "augmentation", "depth")
    report = check_main_theorem(koszul_complex(ZZ, [6]))
    assert report._fields[0] == "hypothesis_holds" and report.consistent


@pytest.mark.parametrize("build", [lambda: Prime.at(4), lambda: Prime(1), lambda: BaseRing("X"),
                                   lambda: BaseRing("Zmod", 1), lambda: BaseRing("Fp", 6),
                                   lambda: BaseRing("Q", 2)])
def test_invalid_primes_and_rings_are_refused_at_construction(build):
    with pytest.raises(InputError):
        build()


def test_flatness_verdict_equality_ignores_table_and_resolution():
    a, b = (tor_flatness_criterion(FpModule.cyclic(ZZ, 4), 2) for _ in range(2))
    assert a.resolution is not b.resolution
    altered = a._replace(table={}, resolution=None)
    assert altered == b and hash(altered) == hash(b) and not altered != b
    assert repr(altered) == repr(b)
    assert "table" not in repr(a) and "resolution" not in repr(a)
    assert repr(a).startswith("FlatnessVerdict(functor='tor', positive_vanishing=")
    assert a._replace(checked_depth=a.checked_depth + 1) != a
    assert isinstance(a, FlatnessVerdict) and a.table == b.table
