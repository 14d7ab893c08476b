"""Tests for the command-line front end."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import backends
from repro.cli import build_parser, main
from repro.harness import experiments
from repro.sim.config import MAX_NODES, MachineConfig

SRC = Path(__file__).resolve().parents[2] / "src"


def test_list_enumerates_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("table1", "table2", "table3", "figure3", "figure4",
                 "messages", "ablations"):
        assert name in out


def test_table2_runs_and_prints(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Simulation parameters" in out
    assert "Network latency" in out


def test_table1_runs(capsys):
    assert main(["table1"]) == 0
    assert "force-write" in capsys.readouterr().out


def test_figure3_with_app_subset(capsys):
    assert main(["figure3", "--nodes", "2", "--apps", "ocean"]) == 0
    out = capsys.readouterr().out
    assert "ocean" in out
    assert "barnes" not in out


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["figure3", "--apps", "linpack"])


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["figure9"])


def test_parser_defaults():
    args = build_parser().parse_args(["figure4"])
    assert args.nodes == 8
    assert args.seed == 42


def test_differential_subcommand(capsys, monkeypatch):
    """The subcommand's wiring, on one real system: CI's differential
    job runs the whole matrix."""
    monkeypatch.setattr(backends, "all_systems", lambda: ("typhoon:stache",))
    assert main(["differential", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "typhoon:stache" in out
    assert "2 nodes" in out
    assert "NO" not in out.split("events_batched")[-1]


@pytest.mark.parametrize("argv,nodes", [
    (["differential"], 4),
    (["differential", "--nodes", "16"], 16),
    (["differential", "--nodes", "2"], 2),
])
def test_differential_honours_an_explicit_node_count(argv, nodes,
                                                     monkeypatch):
    seen = []

    def fake(nodes, seed, **_workload):
        seen.append(nodes)
        return experiments.ExperimentResult("differential", "stub", ["x"])

    monkeypatch.setattr(experiments, "run_differential", fake)
    assert main(argv) == 0
    assert seen == [nodes]


@pytest.mark.parametrize("argv,workload", [
    (["differential"], ("mp3d", "small")),
    (["differential", "--workload", "barnes:small"], ("barnes", "small")),
])
def test_differential_runs_the_named_workload(argv, workload, monkeypatch):
    seen = []

    def fake(nodes, seed, app, dataset):
        seen.append((app, dataset))
        return experiments.ExperimentResult("differential", "stub", ["x"])

    monkeypatch.setattr(experiments, "run_differential", fake)
    assert main(argv) == 0
    assert seen == [workload]


def test_differential_rejects_an_unknown_workload(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["differential", "--workload", "barnes:huge"])
    assert excinfo.value.code == 2
    assert "no workload barnes/huge" in capsys.readouterr().err


@pytest.mark.parametrize("command,runner", [
    ("granularity", "run_granularity"),
    ("reliability", "run_reliability_ladder"),
    ("conformance", "run_conformance_matrix"),
    ("cost-points", "run_cost_points"),
    ("matrix", "run_system_matrix"),
])
def test_matrix_experiments_honour_an_explicit_node_count(command, runner,
                                                          monkeypatch):
    """An explicit ``--nodes`` is used as given, above 4 too; without
    the flag these experiments run on 4 nodes."""
    seen = []

    def fake(nodes, seed):
        seen.append(nodes)
        return experiments.ExperimentResult(command, "stub", ["x"])

    monkeypatch.setattr(experiments, runner, fake)
    for argv in ([command, "--nodes", "6"], [command, "--nodes", "2"],
                 [command]):
        assert main(argv) == 0
    assert seen == [6, 2, 4]


# ----------------------------------------------------------------------
# Cached sweeps: python -m repro sweep ... (docs/sweeps.md)
# ----------------------------------------------------------------------
def _run(store, *extra):
    return ["sweep", "run", "--systems", "dirnnb",
            "--workloads", "ocean:small", "--cache-sizes", "1024",
            "--seeds", "1,2", "--nodes", "2", "--store", str(store),
            *extra]


def test_sweep_run_prints_table_and_cache_stats(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(_run(store)) == 0
    captured = capsys.readouterr()
    assert "ocean" in captured.out and "dirnnb" in captured.out
    # Progress and the cache line go to stderr, the table to stdout.
    assert "executed" not in captured.out
    assert captured.err.splitlines() == [
        "  cell 1/2", "  cell 2/2", "executed 2 cells, 0 hits"]

    assert main(_run(store, "--format", "csv")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("system,application")
    assert len(lines) == 3


def test_sweep_resubmit_is_all_hits(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(_run(store, "--format", "csv")) == 0
    cold = capsys.readouterr().out
    assert main(_run(store, "--format", "csv")) == 0
    captured = capsys.readouterr()
    assert captured.err.endswith("executed 0 cells, 2 hits\n")
    assert captured.out == cold


def test_sweep_store_maintenance(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(_run(store)) == 0
    capsys.readouterr()

    assert main(["sweep", "store", "stats", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "entries: 2" in out and "0 stale" in out

    assert main(["sweep", "store", "gc", "--store", str(store)]) == 0
    assert "removed 0 stale entries, kept 2" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Bad machine sizes end in one usage-error line, not a traceback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("argv", [
    ["figure4", "--nodes", "0"],
    ["figure3", "--nodes", "-2"],
    ["sweep", "run", "--nodes", "0"],
])
def test_node_count_below_one_rejected_by_parser(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --nodes: need at least one node" in err


@pytest.mark.parametrize("argv", [
    ["breakdown", "--nodes", "1000000"],
    ["sweep", "run", "--nodes", str(MAX_NODES + 1)],
])
def test_node_count_above_max_rejected_by_parser(argv, capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert time.perf_counter() - start < 1.0
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument --nodes: at most {MAX_NODES} nodes" in err


def test_config_validation_error_is_one_line(monkeypatch, capsys):
    def invalid_machine():
        MachineConfig(page_size=1000).validate()

    monkeypatch.setattr(experiments, "run_table2", invalid_machine)
    assert main(["table2"]) == 2
    assert capsys.readouterr().err == (
        "repro: error: page size must be a multiple of the block size\n")


def test_sweep_config_validation_error_is_one_line(tmp_path, capsys):
    assert main(["sweep", "run", "--cache-sizes", "100", "--nodes", "2",
                 "--store", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "repro sweep: error: cache size must be a multiple of the block "
        "size\n")


@pytest.mark.parametrize("flag,value,message", [
    ("--systems", "nosuch", "--systems: unknown system 'nosuch'"),
    ("--workloads", "ocean:huge", "--workloads: no workload ocean:huge"),
    ("--cache-sizes", "abc",
     "--cache-sizes: expected comma-separated integers, got 'abc'"),
    ("--seeds", "x", "--seeds: expected comma-separated integers, got 'x'"),
    ("--cache-sizes", "0",
     "cache size 0 is smaller than one set (4 x 32-byte blocks)"),
    ("--cache-sizes", "2048,64",
     "cache size 64 is smaller than one set (4 x 32-byte blocks)"),
    ("--cache-sizes", "160",
     "cache size must be a whole number of sets (4 x 32-byte blocks)"),
])
def test_sweep_submit_bad_input_is_one_line_and_writes_no_job(
        tmp_path, capsys, flag, value, message):
    """``sweep run`` checks every axis value before any cell runs, so a
    bad one writes nothing to the store."""
    store = tmp_path / "store"
    assert main(["sweep", "run", flag, value, "--nodes", "2",
                 "--store", str(store)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"repro sweep: error: {message}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not store.exists() or not any(store.rglob("*.json"))


def test_node_count_zero_from_the_shell_has_no_traceback():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "figure4", "--nodes", "0"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1] == (
        "repro: error: argument --nodes: need at least one node, got 0")
