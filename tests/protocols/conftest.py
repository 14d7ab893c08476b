"""Shared helpers for protocol tests."""

from __future__ import annotations

import pytest

from repro.backends import compose
from repro.protocols.dirnnb import DirNNBMachine
from repro.sim.config import MachineConfig


def make_stache_machine(nodes=4, seed=1, shared_bytes=4 * 4096,
                        system="typhoon:stache", **config_kwargs):
    """A machine with Stache installed (a TyphoonMachine unless
    ``system`` names another backend) and one shared region."""
    machine, protocol = compose(
        system, MachineConfig(nodes=nodes, seed=seed, **config_kwargs))
    region = machine.heap.allocate(shared_bytes, label="test")
    protocol.setup_region(region)
    return machine, protocol, region


def make_dirnnb_machine(nodes=4, seed=1, shared_bytes=4 * 4096, **config_kwargs):
    machine = DirNNBMachine(MachineConfig(nodes=nodes, seed=seed, **config_kwargs))
    region = machine.heap.allocate(shared_bytes, label="test")
    return machine, region


def run_script(machine, script):
    """Run per-node op lists; returns {node: [read values, in order]}.

    Ops: ``("r", addr)``, ``("w", addr, value)``, ``("b",)`` barrier,
    ``("c", cycles)`` compute.
    """
    reads = {node_id: [] for node_id in range(machine.num_nodes)}

    def worker(node_id):
        node = machine.nodes[node_id]
        for op in script.get(node_id, []):
            if op[0] == "r":
                value = yield from node.access(op[1], False)
                reads[node_id].append(value)
            elif op[0] == "w":
                yield from node.access(op[1], True, op[2])
            elif op[0] == "b":
                yield from machine.barrier_wait(node_id)
            elif op[0] == "c":
                yield op[1]
            else:
                raise ValueError(f"unknown op {op}")

    machine.run_workers(worker)
    return reads


#: The three Tempest backends, each running Stache.
TEMPEST_STACHE = ("typhoon:stache", "decoupled:stache", "blizzard:stache")


@pytest.fixture
def stache4():
    return make_stache_machine(nodes=4)


@pytest.fixture
def dirnnb4():
    return make_dirnnb_machine(nodes=4)
