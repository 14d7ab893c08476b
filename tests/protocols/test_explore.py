"""The symbolic protocol explorer (repro.protocols.explore).

Covers the explorer's three contracts: it is deterministic (same
tables, same corpus, byte for byte), it enforces the declarative specs
against its own protocol models (a table edit that legalizes nothing
new makes exploration *fail*, not silently shrink), and the committed
litmus corpus covers every reachable ``(state, event)`` edge of every
explorable ProtocolSpec.  Replay of the corpus on the real machines
lives in tests/integration/test_litmus.py.
"""

import dataclasses
import pathlib

import pytest

from repro.protocols.conformance import STACHE_SPEC
from repro.protocols.directory import DirectoryState
from repro.protocols.explore import (
    EXPLORABLE_PROTOCOLS,
    ExploreConfig,
    SpecDivergence,
    explore,
    explore_protocol,
    synthesize_corpus,
)

CORPUS_DIR = pathlib.Path(__file__).parents[1] / "litmus"

SMALL = ExploreConfig(nodes=2, blocks=1, ops_per_node=1)


# ----------------------------------------------------------------------
# Exploration mechanics
# ----------------------------------------------------------------------
def test_every_model_explores_under_small_bounds():
    for name in EXPLORABLE_PROTOCOLS:
        result = explore_protocol(name, SMALL)
        assert result.states > 1
        assert result.transitions >= result.states - 1
        assert result.edges
        # Every edge's witness trace actually contains the edge.
        for edge, path in result.edge_paths.items():
            trace_edges = {e for step in path.trace for e in step[-1]}
            assert edge in trace_edges


def test_exploration_is_deterministic():
    one = explore_protocol("stache", SMALL)
    two = explore_protocol("stache", SMALL)
    assert one.edges == two.edges
    assert one.states == two.states
    assert one.transitions == two.transitions


def test_degenerate_bounds_are_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        ExploreConfig(nodes=1)
    with pytest.raises(ValueError, match="no exploration model"):
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


def test_model_divergence_from_the_spec_tables_is_an_error():
    """Drop one legal transition from the stache tables: the model (a
    line-for-line twin of the handlers) must step outside the narrowed
    spec and raise, naming the missing edge — the same tripwire that
    would catch the spec and the implementation drifting apart."""
    model_cls = EXPLORABLE_PROTOCOLS["stache"]
    narrowed = dataclasses.replace(
        STACHE_SPEC,
        directory_transitions=frozenset(
            edge for edge in STACHE_SPEC.directory_transitions
            if edge != (DirectoryState.HOME, DirectoryState.SHARED)
        ),
    )

    class Narrowed(model_cls):
        spec = narrowed

    with pytest.raises(SpecDivergence, match="home -> shared"):
        explore(Narrowed(SMALL), SMALL)


# ----------------------------------------------------------------------
# Corpus coverage: the tentpole acceptance property
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", sorted(EXPLORABLE_PROTOCOLS))
def test_corpus_covers_every_reachable_edge(protocol):
    """The committed corpus is a *complete* set cover: the union of its
    cases' edges equals every (state, event, dst-state) edge the
    bounded exploration of the protocol's spec can reach.  One test per
    unique explorable spec (migratory shares stache's tables and
    em3d-update's corpus is stache-derived)."""
    cases, result = synthesize_corpus(protocol)
    covered = {tuple(edge) for case in cases for edge in case.edges}
    assert covered == result.edges
    # And the committed corpus files carry exactly these cases.
    import json

    committed = json.loads(
        (CORPUS_DIR / f"{protocol}.json").read_text())["cases"]
    assert [case["name"] for case in committed] == [c.name for c in cases]
    committed_edges = {
        tuple(edge) for case in committed for edge in case["edges"]
    }
    assert committed_edges == result.edges


def test_stache_corpus_enumerates_the_overtaking_family():
    """The grant-vs-invalidation overtaking family is derived, not
    sampled: the corpus contains cases that poison a grant and cases
    that complete the poisoned-grant refetch."""
    cases, _result = synthesize_corpus("stache")
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


def test_synthesized_schedules_are_well_formed():
    for protocol in sorted(EXPLORABLE_PROTOCOLS):
        cases, _ = synthesize_corpus(protocol)
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
