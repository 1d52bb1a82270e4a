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
