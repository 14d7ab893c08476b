"""Tests for the command-line front end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.harness import experiments
from repro.sim.config import MachineConfig

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


def test_bench_runs(capsys):
    assert main(["bench", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "Dispatch throughput" in out
    assert "events_per_s" in out


def test_bench_has_no_kernel_flag():
    """There is one dispatch path, so there is nothing to select."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "--kernel", "compiled"])


def test_differential_subcommand(capsys):
    assert main(["differential", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "typhoon:stache" in out
    assert "NO" not in out.split("events_batched")[-1]


# ----------------------------------------------------------------------
# The sweep-service CLI: python -m repro sweep ... (docs/sweeps.md)
# ----------------------------------------------------------------------
def _submit(store, *extra):
    return ["sweep", "submit", "--systems", "dirnnb",
            "--workloads", "ocean:small", "--cache-sizes", "1024",
            "--seeds", "1,2", "--nodes", "2", "--store", str(store),
            *extra]


def _job_id(output):
    assert output.startswith("job ")
    return output.split()[1].rstrip(":")


def test_sweep_submit_status_result_roundtrip(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(_submit(store)) == 0
    out = capsys.readouterr().out
    job = _job_id(out)
    assert "executed 2 cells, 0 hits" in out
    assert "state: complete" in out

    assert main(["sweep", "status", job, "--store", str(store)]) == 0
    assert "complete — 2/2 cells" in capsys.readouterr().out

    assert main(["sweep", "result", job, "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "ocean" in out and "dirnnb" in out

    assert main(["sweep", "result", job, "--store", str(store),
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("system,application")
    assert len(lines) == 3


def test_sweep_resubmit_is_all_hits(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(_submit(store)) == 0
    capsys.readouterr()
    assert main(_submit(store)) == 0
    assert "executed 0 cells, 2 hits" in capsys.readouterr().out


def test_sweep_no_run_defers_execution(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(_submit(store, "--no-run")) == 0
    out = capsys.readouterr().out
    job = _job_id(out)
    assert "state: pending" in out

    assert main(["sweep", "result", job, "--store", str(store)]) == 1
    assert "not in store" in capsys.readouterr().err

    assert main(["sweep", "run", job, "--store", str(store)]) == 0
    assert "executed 2 cells" in capsys.readouterr().out
    assert main(["sweep", "result", job, "--store", str(store)]) == 0
    assert "ocean" in capsys.readouterr().out


def test_sweep_jobs_and_store_maintenance(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(_submit(store)) == 0
    job = _job_id(capsys.readouterr().out)

    assert main(["sweep", "jobs", "--store", str(store)]) == 0
    assert job in capsys.readouterr().out

    assert main(["sweep", "store", "stats", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "entries: 2" in out and "0 stale" in out

    assert main(["sweep", "store", "gc", "--store", str(store)]) == 0
    assert "removed 0 stale entries, kept 2" in capsys.readouterr().out


def test_sweep_cache_experiment_runs(capsys):
    assert main(["sweep-cache", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "cold" in out and "warm" in out
    assert "rows_identical" in out


# ----------------------------------------------------------------------
# Bad machine sizes end in one usage-error line, not a traceback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("argv", [
    ["figure4", "--nodes", "0"],
    ["figure3", "--nodes", "-2"],
    ["sweep", "submit", "--nodes", "0"],
])
def test_node_count_below_one_rejected_by_parser(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --nodes: need at least one node" in err


def test_config_validation_error_is_one_line(monkeypatch, capsys):
    def invalid_machine():
        MachineConfig(page_size=1000).validate()

    monkeypatch.setattr(experiments, "run_table2", invalid_machine)
    assert main(["table2"]) == 2
    assert capsys.readouterr().err == (
        "repro: error: page size must be a multiple of the block size\n")


def test_sweep_config_validation_error_is_one_line(tmp_path, capsys):
    assert main(["sweep", "submit", "--cache-sizes", "100", "--nodes", "2",
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
])
def test_sweep_submit_bad_input_is_one_line_and_writes_no_job(
        tmp_path, capsys, flag, value, message):
    store = tmp_path / "store"
    assert main(["sweep", "submit", flag, value, "--nodes", "2",
                 "--store", str(store)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro sweep: error: {message}")
    assert err.count("\n") == 1
    assert not (store / "jobs").exists() or not list(
        (store / "jobs").iterdir())


@pytest.mark.parametrize("command", ["status", "result", "run"])
def test_sweep_unknown_job_is_one_line(tmp_path, capsys, command):
    assert main(["sweep", command, "nosuchjob",
                 "--store", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro sweep: error: no job 'nosuchjob'")
    assert err.count("\n") == 1


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
