"""Tests for the access-history consistency checker, and property tests
running it as an oracle over both protocols."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.history import (
    AccessHistory,
    AccessRecord,
    check_register_consistency,
)
from tests.protocols.conftest import (
    make_dirnnb_machine,
    make_stache_machine,
    run_script,
)


def rec(node, addr, is_write, value, start, end):
    return AccessRecord(node, addr, is_write, value, start, end)


class TestCheckerUnit:
    def check(self, *records):
        history = AccessHistory()
        for record in records:
            history.record(record.node, record.addr, record.is_write,
                           record.value, record.start, record.end)
        return check_register_consistency(history)

    def test_read_of_initial_value_is_legal(self):
        assert self.check(rec(0, 0x100, False, 0, 0, 5)) == []

    def test_read_after_write_sees_it(self):
        violations = self.check(
            rec(0, 0x100, True, 7, 0, 10),
            rec(1, 0x100, False, 7, 20, 25),
        )
        assert violations == []

    def test_read_of_stale_initial_after_completed_write_is_violation(self):
        violations = self.check(
            rec(0, 0x100, True, 7, 0, 10),
            rec(1, 0x100, False, 0, 20, 25),
        )
        assert len(violations) == 1
        assert "overwritten" in str(violations[0]) or "never written" in str(
            violations[0])

    def test_read_overlapping_write_may_see_either_value(self):
        assert self.check(
            rec(0, 0x100, True, 7, 10, 30),
            rec(1, 0x100, False, 0, 15, 20),
        ) == []
        assert self.check(
            rec(0, 0x100, True, 7, 10, 30),
            rec(1, 0x100, False, 7, 15, 20),
        ) == []

    def test_read_of_overwritten_value_is_violation(self):
        violations = self.check(
            rec(0, 0x100, True, 1, 0, 10),
            rec(0, 0x100, True, 2, 20, 30),
            rec(1, 0x100, False, 1, 40, 45),
        )
        assert len(violations) == 1

    def test_read_of_never_written_value_is_violation(self):
        violations = self.check(rec(1, 0x100, False, 99, 0, 5))
        assert len(violations) == 1
        assert "never written" in str(violations[0])

    def test_read_of_future_write_is_violation(self):
        violations = self.check(
            rec(0, 0x100, True, 7, 50, 60),
            rec(1, 0x100, False, 7, 0, 5),
        )
        assert len(violations) == 1

    def test_concurrent_writes_allow_either_outcome(self):
        for observed in (1, 2):
            assert self.check(
                rec(0, 0x100, True, 1, 0, 20),
                rec(1, 0x100, True, 2, 5, 25),
                rec(2, 0x100, False, observed, 40, 45),
            ) == []

    def test_addresses_are_independent(self):
        assert self.check(
            rec(0, 0x100, True, 7, 0, 10),
            rec(1, 0x200, False, 0, 20, 25),  # different address: initial ok
        ) == []


NODES = 4
OPS = st.lists(
    st.tuples(
        st.integers(0, NODES - 1),
        st.booleans(),
        st.integers(0, 3),   # page
        st.integers(0, 3),   # block
        st.integers(0, 99),  # value tag
    ),
    min_size=2,
    max_size=40,
)


def programs_from(ops):
    programs = {node: [] for node in range(NODES)}
    for index, (node, is_write, page, block, tag) in enumerate(ops):
        addr = 0x1000_0000 + page * 4096 + block * 32
        if is_write:
            programs[node].append(("w", addr, (node, tag, index)))
        else:
            programs[node].append(("r", addr))
    return programs


@given(ops=OPS, seed=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_property_stache_history_is_register_consistent(ops, seed):
    machine, protocol, region = make_stache_machine(
        nodes=NODES, seed=seed, shared_bytes=4 * 4096)
    machine.history = AccessHistory()
    run_script(machine, programs_from(ops))
    violations = check_register_consistency(machine.history)
    assert violations == [], "\n".join(str(v) for v in violations)


@given(ops=OPS, seed=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_property_dirnnb_history_is_register_consistent(ops, seed):
    machine, region = make_dirnnb_machine(
        nodes=NODES, seed=seed, shared_bytes=4 * 4096)
    machine.history = AccessHistory()
    run_script(machine, programs_from(ops))
    violations = check_register_consistency(machine.history)
    assert violations == [], "\n".join(str(v) for v in violations)


@given(ops=OPS, seed=st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_property_stache_with_replacement_is_register_consistent(ops, seed):
    machine, protocol, region = make_stache_machine(
        nodes=NODES, seed=seed, shared_bytes=4 * 4096, stache_page_budget=1)
    machine.history = AccessHistory()
    run_script(machine, programs_from(ops))
    violations = check_register_consistency(machine.history)
    assert violations == [], "\n".join(str(v) for v in violations)


@given(ops=OPS, seed=st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_property_migratory_protocol_is_register_consistent(ops, seed):
    """The exclusive-on-read optimization must not break consistency."""
    from repro.protocols.migratory import MigratoryProtocol
    from repro.protocols.verify import check_stache_coherence
    from repro.sim.config import MachineConfig
    from repro.typhoon.system import TyphoonMachine

    machine = TyphoonMachine(MachineConfig(nodes=NODES, seed=seed))
    protocol = MigratoryProtocol()
    machine.install_protocol(protocol)
    region = machine.heap.allocate(4 * 4096, label="test")
    protocol.setup_region(region)
    machine.history = AccessHistory()
    run_script(machine, programs_from(ops))
    violations = check_register_consistency(machine.history)
    assert violations == [], "\n".join(str(v) for v in violations)
    check_stache_coherence(machine, region)


#: A store that hits in the cache in the same cycle as the writeback
#: handler that exports and downgrades its block (node 1, cycle 716):
#: the hypothesis example that exposed the lost store, pinned.
LOST_STORE_OPS = [(0, False, 0, 0, 0)] * 12 + [
    (0, False, 1, 0, 0), (1, False, 0, 0, 0), (0, False, 0, 1, 0),
    (0, False, 0, 1, 0), (1, True, 0, 1, 0), (1, False, 1, 0, 0),
    (1, True, 0, 1, 0),
]


def test_store_hitting_before_a_same_cycle_downgrade_is_not_lost():
    machine, protocol, region = make_stache_machine(
        nodes=NODES, seed=0, shared_bytes=4 * 4096, stache_page_budget=1)
    machine.history = AccessHistory()
    run_script(machine, programs_from(LOST_STORE_OPS))
    violations = check_register_consistency(machine.history)
    assert violations == [], "\n".join(str(v) for v in violations)
