"""Shared fixtures."""

import pytest

from simphom.simpset import SimplicialSet


@pytest.fixture
def apply_map_calls(monkeypatch):
    """The list of maps passed to ``SimplicialSet.apply_map`` from now on,
    counted through a wrapper around the method."""
    calls = []
    original = SimplicialSet.apply_map

    def counted(self, phi, x):
        calls.append(phi)
        return original(self, phi, x)

    monkeypatch.setattr(SimplicialSet, "apply_map", counted)
    return calls
