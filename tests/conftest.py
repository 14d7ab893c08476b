"""Session-wide fixtures."""

import pytest

from repro.harness import litmus
from repro.protocols.explore import EXPLORABLE_PROTOCOLS, synthesize_corpus


@pytest.fixture(scope="session")
def synthesized():
    """``{protocol: synthesize_corpus(protocol)}``: the walk of every
    explorable protocol at corpus bounds, run once per test session."""
    return {name: synthesize_corpus(name) for name in EXPLORABLE_PROTOCOLS}


@pytest.fixture
def walked(monkeypatch, synthesized):
    """Make corpus generation reuse the session's walk (the CLI and
    drift-check paths stay end to end; only the walk is not redone)."""
    monkeypatch.setattr(litmus, "synthesize_corpus",
                        lambda name: synthesized[name])
    return synthesized
