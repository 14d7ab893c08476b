"""Input-surface fuzz: a bad input ends in one clean line, never a traceback.

Three surfaces take input from outside the simulator: the machine
configuration, the fault specification, and the command line.  For each,
Hypothesis draws values around and across the valid ranges, and every
draw must either run cleanly or be refused with a ``ValueError`` (the
type ``ConfigError`` refines) whose message is one line — on the command
line, exit status 2 and one ``error:`` line on stderr.  The draws are
derandomized so tier-1 sees the same inputs on every run.
"""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import ReadMostlyApplication
from repro.cli import main
from repro.harness.runner import run_application
from repro.network.faults import FaultSpec
from repro.sim.config import (CacheConfig, MachineConfig, NetworkConfig,
                              TlbConfig)
from repro.sim.engine import SimulationError

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=40)

SYSTEMS = ("dirnnb", "typhoon:stache", "blizzard:stache", "decoupled:ivy")


def one_field_off(valid, invalid):
    """Draw every field from ``valid`` except, half the time, one field
    from ``invalid``: a draw with several bad fields says no more than one
    with a single bad field, and must still run cleanly when all are
    good."""
    fields = sorted(valid)

    @st.composite
    def draw(draw_):
        values = {name: draw_(st.sampled_from(valid[name]))
                  for name in fields}
        broken = draw_(st.sampled_from(fields + [None] * len(fields)))
        if broken is not None:
            values[broken] = draw_(st.sampled_from(invalid[broken]))
        return values

    return draw()


def tiny_run(system, config, faults=None):
    run_application(system, ReadMostlyApplication(records=4,
                                                  reads_per_phase=2),
                    config, faults=faults)


def clean_refusal(error: BaseException, gave_up_ok: bool = False) -> None:
    message = str(error)
    if gave_up_ok and isinstance(error, SimulationError):
        # A hostile but valid fault spec: the transport's documented
        # give-up, not a crash.
        assert "undelivered after" in message, repr(message)
        return
    assert isinstance(error, ValueError), repr(error)
    assert message and "\n" not in message, repr(message)


MACHINE = one_field_off(
    valid=dict(nodes=[1, 2, 3, 4], block=[16, 32, 64], page=[1024, 4096],
               cache=[512, 2048], assoc=[1, 2, 4], tlb=[1, 8, 64],
               latency=[0, 1, 11, 20], barrier=[0, 11],
               topology=["ideal", "mesh2d"],
               placement=["round_robin", "first_touch"], hit=[0, 1, 2]),
    invalid=dict(nodes=[-2, 0, 2000], block=[-64, 0, 3, 24],
                 page=[-4096, 0, 100, 4097], cache=[-1, 0, 100, 3000],
                 assoc=[-1, 0, 3, 9], tlb=[-1, 0], latency=[-3],
                 barrier=[-1], topology=["torus"], placement=["nearest"],
                 hit=[-1]))


@FUZZ
@given(system=st.sampled_from(SYSTEMS), fields=MACHINE)
def test_machine_config_runs_or_refuses_cleanly(system, fields):
    try:
        config = MachineConfig(
            nodes=fields["nodes"], block_size=fields["block"],
            page_size=fields["page"],
            cache=CacheConfig(size_bytes=fields["cache"],
                              associativity=fields["assoc"],
                              block_size=fields["block"]),
            tlb=TlbConfig(entries=fields["tlb"]),
            network=NetworkConfig(latency=fields["latency"],
                                  barrier_latency=fields["barrier"],
                                  topology=fields["topology"]),
            page_placement=fields["placement"],
            cache_hit_cycles=fields["hit"], seed=1)
        tiny_run(system, config)
    except Exception as error:  # noqa: BLE001 - the property under test
        clean_refusal(error)


FAULTS = one_field_off(
    valid=dict(drop=[0.0, 0.02, 0.05], dup=[0.0, 0.03], delay=[0.0, 0.1],
               reorder=[0.0, 0.05], bounds=[(1, 8), (0, 3)],
               stall=[(0, 0), (100, 10)], recv=[None, 0, 1, 4],
               send=[None, 1, 4], attempts=[8, 12]),
    invalid=dict(drop=[-0.5, 1.5, 1.0], dup=[-0.1, 2.0], delay=[-1.0, 1.5],
                 reorder=[1.5], bounds=[(-2, 3), (5, 2)],
                 stall=[(100, 0), (100, 100), (100, -5)],
                 recv=[-1], send=[0], attempts=[-1, 0, 1]))


@FUZZ
@given(system=st.sampled_from(SYSTEMS[1:]), fields=FAULTS)
def test_fault_spec_runs_or_refuses_cleanly(system, fields):
    try:
        spec = FaultSpec(
            name="fuzz", drop_pct=fields["drop"], dup_pct=fields["dup"],
            delay_pct=fields["delay"], reorder_pct=fields["reorder"],
            delay_min=fields["bounds"][0], delay_max=fields["bounds"][1],
            stall_every=fields["stall"][0], stall_cycles=fields["stall"][1],
            recv_queue_limit=fields["recv"],
            send_queue_depth=fields["send"],
            max_attempts=fields["attempts"])
        tiny_run(system, MachineConfig(nodes=2, seed=1), faults=spec)
    except Exception as error:  # noqa: BLE001 - the property under test
        clean_refusal(error, gave_up_ok=True)


NODE_ARGS = st.sampled_from(["-1", "0", "1", "2", "x", "", "2.5",
                             "99999999"])


@FUZZ
@given(argv=st.one_of(
    st.tuples(st.sampled_from(["table1", "list", "nosuch"]),
              st.just("--nodes"), NODE_ARGS),
    st.tuples(st.just("table1"), st.sampled_from(["--format", "--seed"]),
              st.sampled_from(["", "csv", "json", "xml", "-3", "x"])),
    # Only refusals: a valid --apps would run a whole figure.
    st.tuples(st.just("figure3"), st.just("--apps"),
              st.sampled_from(["nosuch", "ocean,nosuch", "x"])),
    st.tuples(st.just("sweep"), st.just("run"),
              st.sampled_from(["--systems", "--workloads", "--cache-sizes",
                               "--seeds", "--nodes", "--workers"]),
              st.sampled_from(["", "nosuch", "ocean:nosuch", "-1", "0",
                               "x", "typhoon:nosuch"]))))
def test_cli_arguments_run_or_refuse_cleanly(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as store, \
            redirect_stdout(io.StringIO()), redirect_stderr(err):
        argv = list(argv)
        if argv[0] == "sweep":
            argv += ["--store", store]
        try:
            status = main(argv)
        except SystemExit as exit_:
            status = exit_.code
    err = err.getvalue()
    if status:
        assert status == 2, (argv, status, err)
        lines = [line for line in err.splitlines() if "error:" in line]
        assert len(lines) == 1 and "Traceback" not in err, (argv, err)
