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


def test_only_rings_references_factor_trial():
    """Ring elements are taken apart in fiberflat.rings alone: elsewhere
    the primes dividing x come from BaseRing.factor."""
    sources = sorted((Path(__file__).parent.parent / "src" / "fiberflat").glob("*.py"))
    assert len(sources) > 1
    found = {}
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        names = [node for node in ast.walk(tree)
                 if (isinstance(node, ast.Name) and node.id == "factor_trial")
                 or (isinstance(node, ast.Attribute) and node.attr == "factor_trial")
                 or (isinstance(node, ast.alias) and node.name == "factor_trial")]
        if names and path.name != "rings.py":
            found[path.name] = len(names)
    assert found == {}
