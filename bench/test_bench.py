"""Smoke tests of the benchmark's internals on tiny inputs: ``pytest bench/``."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import compare  # noqa: E402
import micro  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, check_outputs  # noqa: E402

#: Every ledger workload shrunk to a run of a few hundred milliseconds.
TINY = {
    "mp3d-typhoon": dict(nodes=4, params=dict(molecules=64, space_cells=16,
                                              iterations=2)),
    "em3d-dirnnb": dict(nodes=4, params=dict(nodes_per_proc=8, degree=3,
                                             remote_fraction=0.3,
                                             iterations=2)),
    "em3d-decoupled": dict(nodes=4, params=dict(nodes_per_proc=8, degree=3,
                                                remote_fraction=0.5,
                                                iterations=2)),
    "ocean-blizzard": dict(nodes=4, params=dict(grid=12, iterations=2)),
    "sweep-typhoon": dict(nodes=2, params=dict(records=64, sweeps=40)),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.fixture(scope="module")
def results():
    """One run of every mode of every tiny workload, in this process."""
    return {
        name: {mode: child.run(tiny(name), 2, mode)
               for mode in ("setup", "run", "trace", "sample")}
        for name in WORKLOADS
    }


def test_spec_names_the_workloads_and_metrics():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["bench"]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_sampled_runs_reproduce_the_outcome(results, name):
    modes = results[name]
    assert modes["trace"]["outcome"] == modes["run"]["outcome"]
    assert modes["sample"]["outcome"] == modes["run"]["outcome"]
    trace = modes["trace"]["trace"]
    assert trace["absent"] == []
    assert trace["total_s"] == pytest.approx(modes["trace"]["wall_s"],
                                             rel=0.05)


def test_every_metric_gets_a_value(results):
    spec = run.load_spec()
    micro_values = {name: 1.0 for name in micro.MICROBENCHMARKS}
    for name, modes in results.items():
        samples = run.Samples(name)
        for mode in ("setup", "run", "trace", "sample"):
            samples.by_mode[mode].append(modes[mode])
        samples.pairs.append((modes["run"], modes["sample"]))
        report = run.workload_report(samples, 2, spec, micro_values)
        assert report["correct"], report["problems"]
        assert set(report["end_to_end"]) == {
            m["name"] for m in spec["end_to_end"]}
        assert {metric for metric, row in report["end_to_end"].items()
                if "raw" in row} == {"sim_cycles_per_s", "refs_per_s",
                                     "wall_s", "setup_s"}
        missing = [metric for metric, row in report["per_layer"].items()
                   if row["value"] is None]
        assert missing == []
        shares = sum(report["per_layer"][f"{layer}.share"]["value"]
                     for layer in LAYERS)
        assert shares == pytest.approx(1.0)
        json.dumps(report)


def test_mismatched_outcomes_are_failures(results):
    modes = results["mp3d-typhoon"]
    samples = run.Samples("mp3d-typhoon")
    samples.by_mode["run"].append(modes["run"])
    other = dict(modes["run"], outcome=dict(modes["run"]["outcome"],
                                            execution_time=1))
    samples.by_mode["run"].append(other)
    problems = run.check(samples, 2)
    assert problems and "differs" in problems[0]


def test_output_check_catches_a_wrong_value():
    from repro.apps.base import AppContext
    from repro.harness.runner import build_machine
    from workloads import machine_config, make_app

    workload = tiny("sweep-typhoon")
    machine, protocol = build_machine(workload.system,
                                      machine_config(workload, 1))
    app = make_app(workload, 1)
    app.setup(machine, protocol)
    machine.run_workers(lambda n: app.worker(AppContext(machine, n)))
    check_outputs(workload, machine, app)
    app.poke(machine, app.array.addr(0), -1)
    with pytest.raises(ValueError):
        check_outputs(workload, machine, app)


def test_microbenchmarks_report_positive_times(monkeypatch):
    monkeypatch.setattr(micro, "MICROBENCHMARKS", {
        name: (bench, 500)
        for name, (bench, _count) in micro.MICROBENCHMARKS.items()})
    values = micro.run_all()
    assert set(values) == set(micro.MICROBENCHMARKS)
    assert all(value > 0 for value in values.values())


def _summary(values, better="higher", bound=0.1):
    return dict(run.summary(values), better=better, bound=bound)


@pytest.mark.parametrize("a, b, better, expected", [
    ([100, 101, 99, 100], [100, 102, 99, 101], "higher", "within bound"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "higher", "worse"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "lower", "better"),
    ([100, 140, 70, 100], [100, 101, 99, 100], "higher", "unresolved"),
    ([100, 140, 70, 100], [150, 151, 149, 150], "higher", "better"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(_summary(a, better), _summary(b, better)) \
        == expected


def test_compare_fails_on_worse_or_more_errors():
    def ledger(values, error_rate):
        return {"workloads": {"w": {
            "error_rate": error_rate,
            "end_to_end": {"wall_s": _summary(values, "lower")}}}}

    _rows, ok = compare.compare(ledger([1, 1, 1], 0), ledger([1, 1, 1], 0))
    assert ok
    _rows, ok = compare.compare(ledger([1, 1, 1], 0), ledger([2, 2, 2], 0))
    assert not ok
    _rows, ok = compare.compare(ledger([1, 1, 1], 0), ledger([1, 1, 1], 0.5))
    assert not ok
