"""Unit tests for the fault-injection layer (repro.network.faults).

Covers the FaultSpec/FaultPlan surface, the interconnect's four link
faults, the reliable transport's retry/backoff/NACK machinery, the NP's
bounded queues and stall windows, and the DeliveryGuard.  End-to-end
resilience under random workloads lives in
tests/integration/test_fault_resilience.py.
"""

import pytest

from repro.network.faults import RELIABILITY_LADDER, FaultPlan, FaultSpec
from repro.network.message import NACK_HANDLER, Message, VirtualNetwork
from repro.sim.config import MachineConfig
from repro.sim.engine import SimulationError
from repro.sim.rng import RngStreams
from repro.tempest.messaging import DeliveryGuard
from repro.typhoon.system import TyphoonMachine


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan surface
# ----------------------------------------------------------------------
def test_default_spec_is_null_and_lossy_is_not():
    assert FaultSpec().is_null
    assert FaultSpec(name="none").is_null
    assert not FaultSpec(drop_pct=0.01).is_null
    assert not FaultSpec(stall_every=100, stall_cycles=10).is_null
    assert not FaultSpec(recv_queue_limit=4).is_null
    assert FaultPlan.none().is_null
    assert not FaultPlan.lossy().is_null
    assert FaultPlan.lossy().spec.drop_pct == 0.10


@pytest.mark.parametrize("kwargs", [
    {"drop_pct": 1.5},
    {"dup_pct": -0.1},
    {"drop_pct": 0.6, "dup_pct": 0.3, "reorder_pct": 0.2},
    {"delay_min": 5, "delay_max": 2},
    {"stall_every": 10, "stall_cycles": 10},
    {"stall_every": 10, "stall_cycles": 0},
    {"max_attempts": 0},
])
def test_spec_validation_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        FaultSpec(**kwargs)


def test_plan_of_coerces_spec_and_passes_through():
    spec = FaultSpec(drop_pct=0.1)
    plan = FaultPlan.of(spec)
    assert isinstance(plan, FaultPlan) and plan.spec is spec
    assert FaultPlan.of(plan) is plan
    assert FaultPlan.of(None) is None
    with pytest.raises(TypeError):
        FaultPlan.of("lossy")


def test_link_verdict_requires_bind():
    plan = FaultPlan.lossy()
    message = Message(src=0, dst=1, handler="x")
    with pytest.raises(SimulationError):
        plan.link_verdict(message)


def test_link_verdicts_are_deterministic_per_seed():
    def verdicts(seed):
        plan = FaultPlan.lossy().bind(RngStreams(seed).stream("faults"))
        return [plan.link_verdict(Message(src=0, dst=1, handler="x"))
                for _ in range(200)]

    run_a, run_b = verdicts(7), verdicts(7)
    assert run_a == run_b
    assert verdicts(8) != run_a  # different stream, different schedule
    actions = {action for action, _ in run_a}
    assert "drop" in actions and "dup" in actions  # lossy defaults hit both


def test_link_verdict_exempts_late_attempts():
    plan = FaultPlan(FaultSpec(drop_pct=1.0, fault_attempt_limit=2))
    plan.bind(RngStreams(1).stream("faults"))
    early = Message(src=0, dst=1, handler="x")
    assert plan.link_verdict(early)[0] == "drop"
    late = Message(src=0, dst=1, handler="x", attempt=3)
    assert plan.link_verdict(late)[0] is None


def test_stall_until_window_arithmetic():
    plan = FaultPlan(FaultSpec(stall_every=200, stall_cycles=40))
    assert plan.stall_until(0, 0) == 40       # window start
    assert plan.stall_until(0, 39) == 40      # just inside
    assert plan.stall_until(0, 40) is None    # window end is open
    assert plan.stall_until(0, 199) is None
    assert plan.stall_until(0, 230) == 240    # second period
    assert FaultPlan.none().stall_until(0, 0) is None


def test_reliability_ladder_starts_reliable_and_gets_lossier():
    assert RELIABILITY_LADDER[0].is_null
    drops = [spec.drop_pct for spec in RELIABILITY_LADDER]
    assert drops == sorted(drops) and drops[-1] == 0.10


# ----------------------------------------------------------------------
# Interconnect + transport, driven through a real two-node machine
# ----------------------------------------------------------------------
def machine_with(spec, nodes=2, seed=3):
    machine = TyphoonMachine(MachineConfig(nodes=nodes, seed=seed))
    calls = []

    def handler(tempest, message):
        calls.append((tempest.node_id, message.payload.get("tag"),
                      message.xid, machine.engine.now))

    for node in machine.nodes:
        node.tempest.register_handler("test.echo", handler, 10)
    plan = machine.install_fault_plan(spec)
    return machine, plan, calls


def test_null_spec_installs_nothing():
    machine, plan, _calls = machine_with(FaultSpec(name="none"))
    assert plan is None
    assert machine.fault_plan is None and machine.transport is None


def test_drops_are_retransmitted_until_delivered():
    # 100% drop with a low exemption threshold: attempts 1-2 die in the
    # network, attempt 3 is exempt and lands.
    machine, _plan, calls = machine_with(
        FaultSpec(drop_pct=1.0, fault_attempt_limit=2, retry_timeout=50))
    machine.tempests[0].send(1, "test.echo", tag="a")
    machine.engine.run()
    assert [c[:2] for c in calls] == [(1, "a")]
    stats = machine.stats
    assert stats.get("network.fault_drops") == 2
    assert stats.get("tempest.retries") == 2
    assert not machine.transport.pending
    # exponential backoff: attempt 2 waits 50, attempt 3 waits 100.
    assert machine.engine.now >= 150


def test_duplicate_delivery_is_suppressed_by_guard():
    machine, _plan, calls = machine_with(FaultSpec(dup_pct=1.0))
    guard = DeliveryGuard(machine.stats, "node1.np.duplicates_dropped")
    # Re-register behind a guard (machine_with registers unguarded).
    registry = machine.nodes[1].registry
    spec = registry._handlers["test.echo"]
    registry._handlers["test.echo"] = type(spec)(
        spec.name, guard.wrap(spec.fn), spec.instructions)
    machine.tempests[0].send(1, "test.echo", tag="a")
    machine.engine.run()
    assert [c[:2] for c in calls] == [(1, "a")]  # handler ran exactly once
    assert machine.stats.get("network.fault_dups") == 1
    assert machine.stats.get("tempest.duplicates_dropped") == 1
    assert machine.stats.get("node1.np.duplicates_dropped") == 1
    assert not machine.transport.pending


def test_unguarded_duplicate_runs_handler_twice():
    # The guard, not the network, provides at-most-once: without it the
    # ghost copy dispatches again (same xid both times).
    machine, _plan, calls = machine_with(FaultSpec(dup_pct=1.0))
    machine.tempests[0].send(1, "test.echo", tag="a")
    machine.engine.run()
    assert len(calls) == 2
    assert calls[0][2] == calls[1][2] == 1  # one transaction id


def test_delay_fault_postpones_arrival():
    machine, _plan, calls = machine_with(
        FaultSpec(delay_pct=1.0, delay_min=30, delay_max=30))
    machine.tempests[0].send(1, "test.echo", tag="a")
    machine.engine.run()
    latency = machine.config.network.latency
    # send at 0, arrive at latency + 30, handler charge 10 cycles.  (The
    # clock after the run is the spent retransmit timer's.)
    (_node, _tag, _xid, handled), = calls
    assert handled == latency + 30 + 10
    assert machine.stats.get("network.fault_delays") == 1


def test_reorder_bypasses_channel_fifo():
    # Delay the first packet heavily; reorder lets the second overtake
    # the FIFO floor the first one set.
    machine, _plan, calls = machine_with(
        FaultSpec(reorder_pct=1.0, delay_pct=0.5, delay_min=100,
                  delay_max=100),
        seed=11)
    plan = machine.fault_plan
    # Find a seed-stable prefix: draw verdicts until we see (delayed,
    # then undelayed) — instead, just send many and assert order differs
    # from send order at least once.
    for index in range(8):
        machine.tempests[0].send(1, "test.echo", tag=index)
    machine.engine.run()
    received = [tag for _node, tag, *_ in calls]
    assert sorted(received) == list(range(8))  # nothing lost
    assert received != list(range(8))          # ...but order scrambled
    assert machine.stats.get("network.fault_reorders") == 8


def test_send_queue_credit_returns_exactly_once_under_faults():
    # Tiny send queue + guaranteed drops: if a drop or duplicate leaked
    # or double-returned a credit, the NP's in-flight counters would not
    # return to zero (or the overflow buffer would wedge).
    machine, _plan, _calls = machine_with(
        FaultSpec(drop_pct=0.5, dup_pct=0.3, send_queue_depth=1,
                  fault_attempt_limit=2, retry_timeout=50),
        seed=5)
    for index in range(10):
        machine.tempests[0].send(1, "test.echo", tag=index)
    machine.engine.run()
    np = machine.nodes[0].np
    assert np._in_flight == {0: 0, 1: 0}
    assert not np._overflow
    assert not machine.transport.pending


def test_recv_queue_bound_nacks_and_recovers():
    machine, _plan, calls = machine_with(
        FaultSpec(recv_queue_limit=1, retry_timeout=200))
    # Three same-cycle sends: the first dispatches immediately, the
    # second queues, the third finds the queue full and is NACKed.
    for index in range(3):
        machine.tempests[0].send(1, "test.echo", tag=index)
    machine.engine.run()
    assert sorted(tag for _n, tag, *_ in calls) == [0, 1, 2]
    stats = machine.stats
    assert stats.get("tempest.nacks_sent") >= 1
    assert stats.get("node1.np.nacks_sent") >= 1
    assert stats.get("tempest.nacks_received") >= 1
    assert not machine.transport.pending


def test_each_nack_rearm_is_followed_by_exactly_one_retransmit():
    """A NACK supersedes the transaction's retransmit timer: the timer
    armed at the send still fires, but as a no-op, so each retransmit
    follows one NACK by exactly ``nack_backoff`` cycles."""
    machine, _plan, calls = machine_with(
        FaultSpec(recv_queue_limit=1, retry_timeout=200, nack_backoff=64))
    machine.nodes[1].tempest.register_handler(
        "test.slow", lambda tempest, message: None, 500)
    sends, nacks = [], []

    def observe(event, message):
        if event == "send" and message.payload.get("tag") == "nacked":
            sends.append(machine.engine.now)
        elif event == "deliver" and message.handler == NACK_HANDLER:
            nacks.append(machine.engine.now)

    machine.interconnect.observers.append(observe)
    # The slow handler holds node 1's processor past cycle 500, the
    # second message fills its one-slot queue, and the third is NACKed
    # again and again, long after its first timer (cycle 200) is due.
    machine.tempests[0].send(1, "test.slow")
    machine.tempests[0].send(1, "test.echo", tag="queued")
    machine.tempests[0].send(1, "test.echo", tag="nacked")
    machine.engine.run()
    assert len(nacks) >= 3 and nacks[-1] > 200
    assert sends[1:] == [t + 64 for t in nacks]
    assert machine.stats.get("tempest.retries") == len(nacks)
    assert [tag for _n, tag, *_ in calls] == ["queued", "nacked"]
    assert not machine.transport.pending


def test_max_attempts_exhaustion_raises():
    machine, _plan, _calls = machine_with(
        FaultSpec(drop_pct=1.0, fault_attempt_limit=100, max_attempts=3,
                  retry_timeout=10))
    machine.tempests[0].send(1, "test.echo", tag="a")
    with pytest.raises(SimulationError, match="undelivered after 3"):
        machine.engine.run()


def test_baf_overflow_represents_fault_without_losing_it():
    machine, _plan, _calls = machine_with(FaultSpec(baf_limit=1))
    np = machine.nodes[0].np
    np._busy = True  # hold the dispatch loop so the buffer fills
    fault_a, fault_b = object(), object()
    np._present_fault(fault_a)
    np._present_fault(fault_b)  # over the bound: deferred, not dropped
    assert list(np._baf_buffer) == [fault_a]
    assert machine.stats.get("node0.np.baf_overflows") == 1
    # After the drain delay the fault is re-presented; make room first.
    np._baf_buffer.clear()
    machine.engine.run(until=machine.config.typhoon.overflow_drain_cycles)
    assert list(np._baf_buffer) == [fault_b]
    np._busy = False


def test_stall_window_freezes_dispatch_until_wake():
    machine, _plan, calls = machine_with(
        FaultSpec(stall_every=1000, stall_cycles=100))
    latency = machine.config.network.latency
    machine.tempests[0].send(1, "test.echo", tag="a")
    machine.engine.run()
    # Arrival at `latency` falls inside the [0, 100) stall window, so
    # dispatch waits until cycle 100, then charges 10 handler cycles.
    (_node, _tag, _xid, handled), = calls
    assert handled == 100 + 10
    assert machine.stats.get("node1.np.stalls") >= 1


def test_nack_messages_are_never_tracked():
    # A NACK itself must not acquire an xid (it has no retransmit path
    # and must not recurse into the transport).
    machine, _plan, _calls = machine_with(
        FaultSpec(recv_queue_limit=1, drop_pct=0.3, retry_timeout=100),
        seed=9)
    for index in range(6):
        machine.tempests[0].send(1, "test.echo", tag=index)
    machine.engine.run()
    tracked = machine.stats.get("tempest.tracked_sends")
    nacks = machine.stats.get("tempest.nacks_sent")
    assert nacks >= 1
    assert tracked == 6  # only the six data messages, none of the NACKs
    assert not machine.transport.pending


# ----------------------------------------------------------------------
# DeliveryGuard
# ----------------------------------------------------------------------
def test_delivery_guard_passes_none_and_caps_memory():
    guard = DeliveryGuard(capacity=2)
    assert guard.seen(0, None) is False
    assert guard.seen(0, None) is False  # None is never "a duplicate"
    assert guard.seen(0, 1) is False
    assert guard.seen(0, 1) is True
    guard.seen(0, 2), guard.seen(0, 3)  # evicts (0, 1) (capacity 2)
    assert guard.seen(0, 1) is False  # forgotten after eviction


def test_delivery_guard_keys_on_sender_and_xid():
    # Per-sender id streams can reuse the same xid value; one sender's
    # xid must never suppress another's.
    guard = DeliveryGuard()
    assert guard.seen(0, 7) is False
    assert guard.seen(1, 7) is False  # same xid, different sender
    assert guard.seen(0, 7) is True
    assert guard.seen(1, 7) is True


def test_delivery_guard_wrap_ignores_non_message_arguments():
    calls = []
    guard = DeliveryGuard()
    wrapped = guard.wrap(lambda tempest, arg: calls.append(arg))

    class FaultLike:  # AccessFault has no xid attribute
        pass

    fault = FaultLike()
    wrapped(None, fault)
    wrapped(None, fault)
    assert calls == [fault, fault]  # no suppression without an xid


# ----------------------------------------------------------------------
# Scripted (deterministic) schedules: FaultRule / ScriptedFaultPlan
# ----------------------------------------------------------------------
def _packet(handler="stache.data", src=0, dst=1, attempt=1):
    return Message(src=src, dst=dst, handler=handler,
                   vnet=VirtualNetwork.RESPONSE, attempt=attempt)


def test_fault_rule_validation():
    from repro.network.faults import FaultRule

    with pytest.raises(ValueError, match="not in"):
        FaultRule(handler="stache.data", action="explode")
    with pytest.raises(ValueError, match="1-based"):
        FaultRule(handler="stache.data", occurrence=0, delay=5)
    with pytest.raises(ValueError, match="non-negative"):
        FaultRule(handler="stache.data", delay=-1)
    with pytest.raises(ValueError, match="inert"):
        FaultRule(handler="stache.data")  # no action, no delay


def test_fault_rule_matching_is_by_handler_and_endpoints():
    from repro.network.faults import FaultRule

    rule = FaultRule(handler="stache.data", src=0, dst=1, delay=10)
    assert rule.matches(_packet())
    assert not rule.matches(_packet(handler="stache.inval"))
    assert not rule.matches(_packet(src=2))
    assert not rule.matches(_packet(dst=2))
    wildcard = FaultRule(handler="stache.data", delay=10)
    assert wildcard.matches(_packet(src=2, dst=0))


def test_scripted_plan_fires_on_the_nth_occurrence_only():
    from repro.network.faults import FaultRule, ScriptedFaultPlan

    plan = ScriptedFaultPlan([
        FaultRule(handler="stache.data", src=0, dst=1,
                  occurrence=2, delay=500),
    ])
    assert plan.link_verdict(_packet()) == (None, 0)   # first: untouched
    assert plan.link_verdict(_packet()) == (None, 500)  # second: delayed
    assert plan.link_verdict(_packet()) == (None, 0)   # third: untouched


def test_scripted_plan_first_action_wins_and_delays_accumulate():
    from repro.network.faults import FaultRule, ScriptedFaultPlan

    plan = ScriptedFaultPlan([
        FaultRule(handler="stache.data", action="reorder", delay=100),
        FaultRule(handler="stache.data", dst=1, delay=40),
    ])
    assert plan.link_verdict(_packet()) == ("reorder", 140)


def test_scripted_plan_exempts_retransmissions():
    from repro.network.faults import FaultRule, ScriptedFaultPlan

    plan = ScriptedFaultPlan([
        FaultRule(handler="stache.data", occurrence=1, delay=500),
    ])
    # A retry neither fires nor consumes the occurrence counter.
    assert plan.link_verdict(_packet(attempt=2)) == (None, 0)
    assert plan.link_verdict(_packet()) == (None, 500)


def test_scripted_plan_installs_without_randomness():
    """A scripted plan is live (is_null False) even though its base
    spec rolls no dice, installs on a real machine, and raises the
    retransmit timeout so the transport cannot undercut a pinned
    delay with an early retry copy."""
    from repro.network.faults import FaultRule, ScriptedFaultPlan

    rules = [FaultRule(handler="stache.data", delay=500)]
    plan = ScriptedFaultPlan(rules)
    assert not plan.is_null
    assert ScriptedFaultPlan([]).is_null
    assert plan.spec.retry_timeout == ScriptedFaultPlan.RETRY_TIMEOUT
    machine = TyphoonMachine(MachineConfig(nodes=2, seed=1))
    from repro.protocols.stache import StacheProtocol

    StacheProtocol().install(machine)
    bound = machine.install_fault_plan(plan)
    assert bound is plan
    assert machine.transport is not None
