"""The protocol walk (repro.protocols.explore).

Covers the walk's three contracts: it is deterministic (same handlers,
same corpus, byte for byte), it checks the real handlers against the
declarative specs (a table edit that outlaws a step the handlers take
makes the walk *fail*, not silently shrink), and the committed litmus
corpus covers every ``(state, event, receiver tag)`` edge the walk
reaches.  Replay of the corpus on the real machines lives in
tests/integration/test_litmus.py.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.protocols import conformance
from repro.protocols.conformance import STACHE_SPEC
from repro.protocols.directory import DirectoryState
from repro.protocols.explore import (
    EXPLORABLE_PROTOCOLS,
    ExploreConfig,
    explore_protocol,
)
from repro.protocols.verify import CoherenceViolation

CORPUS_DIR = pathlib.Path(__file__).parents[1] / "litmus"

SMALL = ExploreConfig(nodes=2, blocks=1, ops_per_node=1)


# ----------------------------------------------------------------------
# Walk mechanics
# ----------------------------------------------------------------------
def test_every_model_explores_under_small_bounds():
    for name in EXPLORABLE_PROTOCOLS:
        result = explore_protocol(name, SMALL)
        assert result.states > 1
        assert result.transitions >= result.states - 1
        assert result.edges
        # Every edge's witness prefix actually took the edge.
        for edge, visit in result.edge_visits.items():
            assert edge in visit.edges


def test_exploration_is_deterministic():
    one = explore_protocol("stache", SMALL)
    two = explore_protocol("stache", SMALL)
    assert one.edges == two.edges
    assert one.states == two.states
    assert one.transitions == two.transitions


def test_degenerate_bounds_are_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        ExploreConfig(nodes=1)
    # A replay that long would run into the parked messages' arrivals.
    ExploreConfig(max_steps=48)
    with pytest.raises(ValueError, match="parked-message horizon"):
        ExploreConfig(max_steps=49)
    with pytest.raises(ValueError, match="no exploration system"):
        explore_protocol("em3d-update", SMALL)


def test_depth_bound_terminates_the_adversarial_livelock():
    """Three nodes can poison each other's grants forever under unfair
    scheduling (each refetch triggers the writeback/invalidation that
    poisons the other's next grant) — the depth bound is what makes the
    walk finite.  A tight bound must terminate quickly and still reach
    the poisoning edge."""
    config = ExploreConfig(nodes=3, blocks=1, ops_per_node=1,
                           total_ops=2, max_steps=12)
    result = explore_protocol("stache", config)
    assert result.states > 1
    assert ("pending-invalidate", "stache.inval", "Busy") in result.edges


def test_walk_divergence_from_the_spec_tables_is_a_coherence_violation(
        monkeypatch):
    """Drop one legal transition from the stache tables: the real
    handlers take it, so the strict monitor on the walked machine must
    raise, naming the missing edge — the tripwire that catches the spec
    and the implementation drifting apart."""
    narrowed = dataclasses.replace(
        STACHE_SPEC,
        directory_transitions=frozenset(
            edge for edge in STACHE_SPEC.directory_transitions
            if edge != (DirectoryState.HOME, DirectoryState.SHARED)
        ),
    )
    monkeypatch.setitem(conformance.SPECS, "stache", narrowed)
    with pytest.raises(CoherenceViolation, match="home -> shared"):
        explore_protocol("stache", SMALL)


# ----------------------------------------------------------------------
# Corpus coverage: the tentpole acceptance property
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", sorted(EXPLORABLE_PROTOCOLS))
def test_corpus_covers_every_reachable_edge(protocol, synthesized):
    """The committed corpus is a *complete* set cover: the union of its
    cases' edges equals every (state, event, receiver tag) edge the
    bounded walk of the protocol's handlers reaches.  One test per
    walked system (migratory shares stache's tables and em3d-update's
    corpus is stache-derived)."""
    cases, result = synthesized[protocol]
    covered = {tuple(edge) for case in cases for edge in case.edges}
    assert covered == result.edges
    # And the committed corpus files carry exactly these cases.
    committed = json.loads(
        (CORPUS_DIR / f"{protocol}.json").read_text())["cases"]
    assert [case["name"] for case in committed] == [c.name for c in cases]
    committed_edges = {
        tuple(edge) for case in committed for edge in case["edges"]
    }
    assert committed_edges == result.edges


def test_stache_corpus_enumerates_the_overtaking_family(synthesized):
    """The grant-vs-invalidation overtaking family is derived, not
    sampled: the corpus contains cases that poison a grant and cases
    that complete the poisoned-grant refetch."""
    cases, _result = synthesized["stache"]
    poisoning = [c for c in cases
                 if c.expect_stats.get("stache.grants_poisoned")]
    refetching = [c for c in cases
                  if c.expect_stats.get("stache.poisoned_grants_refetched")]
    assert poisoning
    assert refetching
    # The schedule that pins the family is pure delay arithmetic on the
    # two independent channels (DATA on response, INVAL on request).
    case = refetching[0]
    delayed = {rule["handler"] for rule in case.schedule}
    assert "stache.data" in delayed
    assert "stache.inval" in delayed


def test_synthesized_schedules_are_well_formed(synthesized):
    for protocol in sorted(EXPLORABLE_PROTOCOLS):
        cases, _ = synthesized[protocol]
        for case in cases:
            assert case.programs, case.name
            for rule in case.schedule:
                assert rule["occurrence"] >= 1
                assert rule["delay"] >= 0
                assert rule["action"] in (None, "reorder")
                assert rule["src"] != rule["dst"]
            for node, ops in case.programs.items():
                assert 0 <= node < case.nodes
                ats = [at for _op, _block, at in ops]
                assert ats == sorted(ats)  # program order is time order
