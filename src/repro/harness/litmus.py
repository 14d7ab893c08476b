"""Synthesized litmus corpus: serialization, drift checks, and replay.

:mod:`repro.protocols.explore` walks each protocol's real handlers and
pins what it reaches as concrete litmus tests; this module is the
harness half of that pipeline.  It owns

* the on-disk corpus format (``tests/litmus/*.json``, one file per
  protocol, committed and byte-stable so review sees schedule changes),
* the drift check CI runs (``python -m repro litmus --check``
  regenerates by walking the handlers and fails on any difference), and
* the replayer: run a case to completion on any ``backend:protocol``
  system through :func:`~repro.protocols.explore.run_case` (the
  synthesized schedule pinned by a
  :class:`~repro.network.faults.ScriptedFaultPlan`, the online
  :class:`~repro.protocols.conformance.ConformanceMonitor` on) and
  check the observed values with
  :func:`~repro.protocols.history.check_register_consistency`.

A corpus is *portable by construction*: the schedules name handlers and
endpoints, not backend internals, so the stache corpus replays on
every Tempest backend, on the migratory variant (whose different message
sequences simply never match the pinned rules), and on em3d-update
(whose ordinary shared data rides the plain Stache paths).  Rules that
never fire are harmless; the monitor and the consistency checker are
what every replay must satisfy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.protocols.explore import (
    SynthesizedCase,
    run_case,
    synthesize_corpus,
)
from repro.protocols.history import check_register_consistency
from repro.sim.config import MachineConfig

__all__ = [
    "CORPUS_PROTOCOLS",
    "REPLAY_SYSTEMS",
    "LitmusReplay",
    "corpus_path",
    "generate_corpus",
    "check_corpus",
    "load_corpus",
    "replay_case",
    "main",
]

#: Protocols with their own exploration corpus, in file order.
#: ``em3d-update`` is serialized as a *derived* corpus: its ordinary
#: shared-data traffic is the plain Stache protocol, so the stache
#: traces replay on it verbatim (the step-indexed update channel is
#: exercised by the em3d application tests, not by litmus schedules).
CORPUS_PROTOCOLS = ("stache", "dirnnb", "ivy", "em3d-update")

#: Corpus file -> every ``backend:protocol`` system it replays on.
#: The union is exactly ``repro.backends.all_systems()``.
REPLAY_SYSTEMS = {
    "stache": ("typhoon:stache", "decoupled:stache", "blizzard:stache",
               "typhoon:migratory", "decoupled:migratory",
               "blizzard:migratory"),
    "dirnnb": ("dirnnb",),
    "ivy": ("typhoon:ivy", "decoupled:ivy", "blizzard:ivy"),
    "em3d-update": ("typhoon:em3d-update", "decoupled:em3d-update",
                    "blizzard:em3d-update"),
}


def corpus_path(directory: str | Path, protocol: str) -> Path:
    return Path(directory) / f"{protocol}.json"


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def _case_to_dict(case: SynthesizedCase) -> dict:
    payload = asdict(case)
    payload["programs"] = {
        str(node): [list(op) for op in ops]
        for node, ops in sorted(case.programs.items())
    }
    return payload


def _case_from_dict(payload: dict) -> SynthesizedCase:
    return SynthesizedCase(
        protocol=payload["protocol"],
        name=payload["name"],
        nodes=payload["nodes"],
        blocks=payload["blocks"],
        programs={
            int(node): [tuple(op) for op in ops]
            for node, ops in payload["programs"].items()
        },
        schedule=payload["schedule"],
        edges=payload["edges"],
        expect_stats=payload["expect_stats"],
        trace=payload["trace"],
    )


def _derive_em3d_cases(stache_cases: list) -> list:
    derived = []
    for case in stache_cases:
        payload = _case_to_dict(case)
        payload["protocol"] = "em3d-update"
        payload["name"] = case.name.replace("stache", "em3d-update", 1)
        derived.append(_case_from_dict(payload))
    return derived


def _corpus_payload(protocol: str, cases: list,
                    edges: int, states: int) -> dict:
    return {
        "format": 1,
        "protocol": protocol,
        "generator": "python -m repro litmus",
        "explored_edges": edges,
        "explored_states": states,
        "cases": [_case_to_dict(case) for case in cases],
    }


def _render(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def generate_corpus(directory: str | Path = "tests/litmus",
                    write: bool = True) -> dict[str, str]:
    """Synthesize every corpus; returns ``{protocol: rendered json}``.

    Deterministic end to end (the walk draws no randomness), so two
    generations from the same handlers are byte-identical — the property
    the CI drift check leans on.
    """
    rendered: dict[str, str] = {}
    stache_cases: list = []
    for protocol in CORPUS_PROTOCOLS:
        if protocol == "em3d-update":
            cases = _derive_em3d_cases(stache_cases)
            edges = states = 0
            payload = _corpus_payload(protocol, cases, edges, states)
            payload["derived_from"] = "stache"
            del payload["explored_edges"], payload["explored_states"]
        else:
            cases, result = synthesize_corpus(protocol)
            if protocol == "stache":
                stache_cases = cases
            payload = _corpus_payload(protocol, cases,
                                      len(result.edges), result.states)
        rendered[protocol] = _render(payload)
    if write:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for protocol, text in rendered.items():
            corpus_path(directory, protocol).write_text(text)
    return rendered


def check_corpus(directory: str | Path = "tests/litmus") -> list[str]:
    """Regenerate and diff against the committed corpus.

    Returns drift messages (empty = clean).  A missing file is drift.
    """
    problems = []
    for protocol, text in generate_corpus(directory, write=False).items():
        path = corpus_path(directory, protocol)
        if not path.exists():
            problems.append(f"{path}: missing (run `python -m repro litmus`)")
            continue
        if path.read_text() != text:
            problems.append(
                f"{path}: stale — the committed corpus no longer matches "
                f"the protocol handlers (run `python -m repro litmus`)"
            )
    return problems


def load_corpus(directory: str | Path,
                protocol: str) -> list[SynthesizedCase]:
    payload = json.loads(corpus_path(directory, protocol).read_text())
    return [_case_from_dict(entry) for entry in payload["cases"]]


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass
class LitmusReplay:
    """Outcome of one case on one system."""

    case: str
    system: str
    execution_time: float
    checks: int
    stats: dict = field(default_factory=dict)
    consistency: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    in_flight: int = 0

    @property
    def clean(self) -> bool:
        return not self.consistency and not self.violations


def replay_case(case: SynthesizedCase, system: str,
                config: MachineConfig | None = None) -> LitmusReplay:
    """Run one synthesized case to completion on the real simulator.

    The machine is built and run by
    :func:`~repro.protocols.explore.run_case`, the function the walk
    replays its prefixes with: home of the litmus region on node 0,
    strict conformance monitoring, the schedule as a scripted fault
    plan.
    """
    run = run_case(case, system, config)
    machine = run.machine
    transport = machine.transport
    return LitmusReplay(
        case=case.name,
        system=system,
        execution_time=machine.execution_time,
        checks=run.monitor.checks,
        stats={key: machine.stats.get(key) for key in case.expect_stats},
        consistency=check_register_consistency(machine.history),
        violations=list(run.monitor.violations),
        in_flight=len(transport.pending) if transport is not None else 0,
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """``repro litmus``: regenerate (default) or ``--check`` the corpus."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro litmus",
        description="Synthesize the pinned litmus corpus by walking "
                    "the protocol handlers.",
    )
    parser.add_argument("--dir", default="tests/litmus",
                        help="corpus directory (default: tests/litmus)")
    parser.add_argument("--check", action="store_true",
                        help="fail if the committed corpus differs from "
                             "a fresh generation")
    args = parser.parse_args(argv)
    if args.check:
        problems = check_corpus(args.dir)
        for problem in problems:
            print(problem)
        if problems:
            return 1
        print(f"litmus corpus in {args.dir} is up to date")
        return 0
    rendered = generate_corpus(args.dir, write=True)
    for protocol, text in rendered.items():
        cases = text.count('"name"')
        print(f"wrote {corpus_path(args.dir, protocol)} ({cases} cases)")
    return 0
