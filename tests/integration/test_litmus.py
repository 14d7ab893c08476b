"""The synthesized litmus corpus, replayed on the real machines.

The walk pins what it reached on one system per protocol; the replays
carry it to the rest: every committed case runs on every
``backend:protocol`` system its corpus maps to, with strict conformance
monitoring and register-consistency checking.  The late-grant
overtaking family — the race the FaultPlan vocabulary exists to pin —
is additionally asserted *by its counters*: the pinned schedule must
actually poison and refetch a grant on both Tempest backends, not
merely run green.
"""

import pathlib

import pytest

from repro.backends import all_systems
from repro.harness.litmus import (
    CORPUS_PROTOCOLS,
    REPLAY_SYSTEMS,
    check_corpus,
    load_corpus,
    replay_case,
)

CORPUS_DIR = pathlib.Path(__file__).parents[1] / "litmus"


# ----------------------------------------------------------------------
# Corpus hygiene
# ----------------------------------------------------------------------
def test_committed_corpus_is_not_stale(walked):
    """Byte-for-byte regeneration: a handler or table change that alters
    the reachable edges or schedules must be accompanied by a corpus
    regeneration (``python -m repro litmus``)."""
    assert check_corpus(CORPUS_DIR) == []


def test_replay_systems_cover_the_full_matrix():
    covered = {system
               for systems in REPLAY_SYSTEMS.values()
               for system in systems}
    assert covered == set(all_systems())
    assert set(REPLAY_SYSTEMS) == set(CORPUS_PROTOCOLS)


def test_cli_litmus_check_passes_on_the_committed_corpus(walked, capsys):
    from repro.cli import main

    assert main(["litmus", "--check", "--dir", str(CORPUS_DIR)]) == 0
    assert "up to date" in capsys.readouterr().out


def test_cli_litmus_check_reports_drift(walked, tmp_path, capsys):
    from repro.cli import main

    assert main(["litmus", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    stale = tmp_path / "stache.json"
    stale.write_text(stale.read_text().replace('"delay": ', '"delay":  ', 1))
    assert main(["litmus", "--check", "--dir", str(tmp_path)]) == 1
    assert "stale" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Full-matrix replay
# ----------------------------------------------------------------------
MATRIX = [
    (protocol, system)
    for protocol in CORPUS_PROTOCOLS
    for system in REPLAY_SYSTEMS[protocol]
]


@pytest.mark.parametrize("protocol,system", MATRIX)
def test_corpus_replays_clean(protocol, system):
    """Every case of every corpus file: no conformance violation, no
    register-consistency violation, nothing left in flight, and the
    monitor actually watched the run."""
    cases = load_corpus(CORPUS_DIR, protocol)
    assert cases
    total_checks = 0
    for case in cases:
        replay = replay_case(case, system)
        assert replay.consistency == [], (case.name, system)
        assert replay.violations == [], (case.name, system)
        assert replay.in_flight == 0, (case.name, system)
        total_checks += replay.checks
    assert total_checks > 0


# ----------------------------------------------------------------------
# The overtaking family, pinned and counted
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", ["typhoon:stache", "decoupled:stache", "blizzard:stache"])
def test_late_grant_overtaking_family_replays_deterministically(system):
    """A *synthesized* case (not a hand-written one) drives the real
    machine through grant poisoning and the poisoned-grant refetch on
    every Tempest backend: the invalidation, pinned to an earlier slot
    than the delayed data reply, arrives while the requester's tag is
    still Busy."""
    cases = load_corpus(CORPUS_DIR, "stache")
    family = [case for case in cases
              if case.expect_stats.get("stache.poisoned_grants_refetched")]
    assert family, "corpus lost the overtaking family"
    for case in family:
        replay = replay_case(case, system)
        assert replay.clean, (case.name, system)
        assert replay.stats["stache.grants_poisoned"] >= 1, case.name
        assert replay.stats["stache.poisoned_grants_refetched"] >= 1, \
            case.name
        # Determinism: an identical replay lands on the same cycle.
        again = replay_case(case, system)
        assert again.execution_time == replay.execution_time
        assert again.stats == replay.stats


def test_model_counters_match_the_real_machine_on_stache():
    """Stronger than green: for every stache case, the counters the
    walk saw along its prefix are *lower bounds* the full replay meets
    — draining the parked tail adds work, it never undoes what the
    pinned prefix made happen."""
    for case in load_corpus(CORPUS_DIR, "stache"):
        replay = replay_case(case, "typhoon:stache")
        for counter, expected in case.expect_stats.items():
            assert replay.stats[counter] >= expected, (case.name, counter)
