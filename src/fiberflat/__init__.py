"""fiberflat: exact fiberwise acyclicity and flatness checks.

Bounded complexes of finitely presented flat modules over computable
noetherian rings (Z, Z/n, Z_(p), F_p, Q), with certified Smith normal
forms, Tor/Ext fiber dimensions, null-homotopy certificates, and tower
stabilization reports.  See the README for the CLI surface.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .errors import ContradictionError, InputError
from .rings import (
    GENERIC, BaseRing, Prime, ZZ, QQ,
    integers_mod, localized_at, parse_prime, parse_ring, prime_field,
)
from .linalg import (
    Matrix, SnfDecomposition, det, field_rank, rank_over_fiber, reduce_matrix,
    snf, solve_integral, syzygy_matrix,
)
from .modules import (
    FpModule, InvariantFactors, ModuleMap, PrimeFiltration, PurityReport,
    Resolution, ext_fiber, free_resolution, map_prime_set, matrix_bad_primes,
    module_prime_set, prime_filtration, purity_report, tor_fiber,
)
from .complexes import (
    DEFAULT_MAX_STAGE, DEFAULT_WINDOW, BoundedComplex, ChainMap, FiberProfile,
    HomotopyCertificate, dual, koszul_complex, koszul_selfduality,
    null_homotopy, shift, tensor_with_module, total_tensor,
)
from .criteria import (
    BadPrimeSet, FlatnessVerdict, TheoremReport, UniversalExactnessReport,
    bad_primes, certify_projective_corollary, check_isom_criterion,
    check_main_theorem, check_zero_criterion,
    complex_prime_set, ext_flatness_criterion, is_universally_exact,
    standard_module_family, tor_flatness_criterion,
)

# Every command of the CLI runs the modules above, so they load with the
# package.  The names of generate and towers are resolved on first use
# (PEP 562) and then stored here, so a CLI run loads those two modules
# only if its command builds towers.
_LAZY = {
    "generate": ("ComplexSpecimen", "random_complex", "random_fp_module",
                 "random_unimodular"),
    "towers": ("GalleryReport", "GalleryRow", "NotFinitelyGeneratedVerdict",
               "StabilizationReport", "TowerComplex", "TowerModule",
               "dvr_fraction_field_tower", "gallery", "injective_hull_tower",
               "sum_inverse_primes_tower", "tower_complex_homology_fiber",
               "tower_fiber", "tower_not_finitely_generated", "tower_tor"),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)]
                 + list(_LAZY_OWNER))

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _LAZY_OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_OWNER))
