"""Shared fixtures: one technology and one cell of each kind per session.

Everything in the library is immutable (frozen dataclasses), so
session-scoped sharing is safe and keeps the suite fast.
"""

import pytest

from repro.devices import ptm22
from repro.sram import make_cell


@pytest.fixture(scope="session")
def tech():
    return ptm22()


@pytest.fixture(scope="session")
def cell6(tech):
    return make_cell("6t", tech)


@pytest.fixture(scope="session")
def cell8(tech):
    return make_cell("8t", tech)


@pytest.fixture()
def tmp_cache(tmp_path, monkeypatch):
    """Redirect the characterization cache into a per-test tmp dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


@pytest.fixture()
def certified_dies(monkeypatch):
    """The fault dies classified from a ``CleanReference``'s clean
    activations instead of a full pass, in call order."""
    from repro.fault.evaluate import CleanReference

    dies = []
    original = CleanReference.predictions

    def recording(reference, die):
        predictions = original(reference, die)
        if predictions is not None:
            dies.append(die)
        return predictions

    monkeypatch.setattr(CleanReference, "predictions", recording)
    return dies
