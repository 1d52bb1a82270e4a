"""Rules about the package source itself."""

import ast
from pathlib import Path


def test_no_assert_statements():
    """python -O strips assert, and a failing one is a traceback rather than
    exit 3; a check the verdict depends on raises ContradictionError."""
    sources = sorted((Path(__file__).parent.parent / "src" / "fiberflat").glob("*.py"))
    assert sources
    found = {}
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert found == {}


def _mentions(name):
    """{file: [top-level definition around each mention]} for the name
    under src/fiberflat: a use, an attribute, an import or a def."""
    sources = sorted((Path(__file__).parent.parent / "src" / "fiberflat").glob("*.py"))
    assert len(sources) > 1
    found = {}
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if ((isinstance(node, ast.Name) and node.id == name)
                        or (isinstance(node, ast.Attribute) and node.attr == name)
                        or (isinstance(node, (ast.alias, ast.FunctionDef)) and node.name == name)):
                    found.setdefault(path.name, []).append(owner)
    return found


def test_only_rings_references_factor_trial():
    """Ring elements are taken apart in fiberflat.rings alone: elsewhere
    the primes dividing x come from BaseRing.factor."""
    assert set(_mentions("factor_trial")) <= {"rings.py"}


def test_only_relevant_primes_calls_matrix_bad_primes():
    """Matrices become points in one place, modules.relevant_primes; the
    criteria and the CLI read its points instead of factoring again."""
    assert _mentions("matrix_bad_primes") == {
        "__init__.py": ["<module>"],
        "modules.py": ["matrix_bad_primes", "relevant_primes"],
    }


def test_towers_do_no_linear_algebra():
    """Tower reports read stage fiber dimensions and transition fiber
    ranks; no matrix is reduced, stacked or decomposed in towers.py."""
    for name in ("field_rank", "reduce_matrix", "syzygy_matrix", "hstack", "snf",
                 "solve_integral", "_block_matrix", "kron", "rank_over_fiber"):
        assert "towers.py" not in _mentions(name), name


def test_only_rank_at_reads_a_fiber_by_elimination():
    """Outside linalg, a rank over kappa(q) by Gaussian elimination is
    taken in one place, complexes._rank_at."""
    for name in ("field_rank", "reduce_matrix"):
        found = {file: owners for file, owners in _mentions(name).items() if file != "linalg.py"}
        assert found == {"__init__.py": ["<module>"], "complexes.py": ["<module>", "_rank_at"]}, name


def test_bareiss_runs_only_from_the_cached_pass_and_field_rank_over_f_p():
    """Every Z, Z_(p) and Q matrix runs one fraction-free pass, cached by
    linalg._fraction_free; field_rank over F_p is the other caller.  The
    minor route reads the cached pass and starts none of its own."""
    assert _mentions("_bareiss") == {"linalg.py": ["_fraction_free", "field_rank", "_bareiss"]}


def test_the_kernel_runs_only_from_a_witness_read():
    """Divisors over every ring come from a pass that records no moves;
    linalg._kernel, which records them, runs only when SnfDecomposition
    first replays a witness (its _moves)."""
    assert _mentions("_kernel") == {"linalg.py": ["SnfDecomposition", "_kernel"]}
