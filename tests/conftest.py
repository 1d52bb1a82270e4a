"""Shared fixtures."""

import pytest

from fiberflat import cli, criteria, modules, towers


@pytest.fixture
def resolution_calls(monkeypatch):
    """The depth of every free_resolution call, patched under each name it
    is bound to."""
    calls = []
    original = modules.free_resolution

    def counted(m, depth):
        calls.append(depth)
        return original(m, depth)

    for namespace in (modules, criteria, cli, towers):
        monkeypatch.setattr(namespace, "free_resolution", counted, raising=False)
    return calls
