"""Whole-run goldens for every system, on a reliable and a lossy network.

The handler-dispatch loops (the Typhoon NP, the decoupled handler CPU,
Blizzard's CPU-side servicing) and the network send/deliver path are
performance-critical code that must never change simulated behaviour.
These goldens pin, for all twelve ``backend:protocol`` systems running
mp3d/small on 4 nodes, the simulated execution time, a digest of the
complete sorted statistics, and a digest of every node's final memory
image.  They are pinned twice: once on a reliable network, and once
under one lossy plan that drops, duplicates and delays packets, opens
periodic dispatch stall windows, bounds the receive queue and the BAF
buffer, and shrinks the NP send queues, so the NACK, send-overflow and
duplicate-suppression branches of the dispatch loop are held to the
same outcome as the common path.  (The BAF bound never binds in these
runs: each node's single thread has at most one fault outstanding.)

``events_fired`` is deliberately not pinned: it counts engine
bookkeeping, which a faster dispatch loop may legitimately reduce.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.backends import all_systems
from repro.harness.runner import run_application
from repro.harness.workloads import workload
from repro.network.faults import FaultSpec
from repro.sim.config import MachineConfig

LOSSY = FaultSpec(
    name="golden-lossy", drop_pct=0.05, dup_pct=0.03, delay_pct=0.1,
    delay_min=1, delay_max=9, stall_every=400, stall_cycles=25,
    recv_queue_limit=32, baf_limit=1, send_queue_depth=2,
)

# system -> (execution_time, stats digest, per-node image digests)
RELIABLE_GOLDENS = {
    "dirnnb": (81687, "32b160946d66450f", ("579c9a956620491d",)),
    "typhoon:stache": (97890, "e0cdcb65f8ee8d74", (
        "8cd8cae58e0524c5", "c8e7d28eb8351ccf", "173970d5a696b4d6",
        "df9fe953b2146696")),
    "typhoon:migratory": (75397, "1da8e22a930ce95a", (
        "ffa586d395e4ab48", "fa002511fa3252dc", "d03a00129560f12f",
        "36dc407c70582f41")),
    "typhoon:ivy": (2105525, "1559b6a8961ee021", (
        "d459574e69207cd1", "1bdf7ad1ddb84f35", "46722174172d557c",
        "995a68e8163bba60")),
    "typhoon:em3d-update": (97890, "e0cdcb65f8ee8d74", (
        "8cd8cae58e0524c5", "c8e7d28eb8351ccf", "173970d5a696b4d6",
        "df9fe953b2146696")),
    "decoupled:stache": (158693, "f6a83309400cfe31", (
        "98a18f254d193245", "8e9aec676c7a3f64", "00ca84fb7a1e7850",
        "48e364a0dc2f9600")),
    "decoupled:migratory": (116518, "b84888edd294a4cf", (
        "d18e61b9d3c22267", "a53281ed6e92269c", "85593e26467b74f6",
        "5f17b4fad0e7d95e")),
    "decoupled:ivy": (3077169, "cf0f29ba8f057ced", (
        "d459574e69207cd1", "1bdf7ad1ddb84f35", "46722174172d557c",
        "995a68e8163bba60")),
    "decoupled:em3d-update": (158693, "f6a83309400cfe31", (
        "98a18f254d193245", "8e9aec676c7a3f64", "00ca84fb7a1e7850",
        "48e364a0dc2f9600")),
    "blizzard:stache": (215748, "11259e8be72ab0e8", (
        "df90b2708400cc25", "03ea38f59ac38eba", "75319eb905aa53ba",
        "6ef43a8686de7598")),
    "blizzard:migratory": (165591, "27ded714c0a264aa", (
        "afe03fae1498d251", "b66d8a63fde5aed2", "b0318fb1b0ccb8f2",
        "b27385c8c08f85f7")),
    "blizzard:ivy": (8232187, "1579b39f2d914435", (
        "2b4598bf6707819f", "a77c64c940e86d59", "c25beb764db77e49",
        "0c664da0f2929eda")),
}

#: IVY's rows: under this plan's losses a recall or invalidation often
#: overtakes its grant and must wait for it and for the access it
#: enables (see repro.protocols.ivy).  Blizzard's row is slow because
#: its bounded inbox NACKs much of every 64-packet page transfer.
LOSSY_GOLDENS = {
    "dirnnb": (94258.0, "d7b7f0c2a2b6b06b", ("5f34478302da46fa",)),
    "typhoon:stache": (113007.0, "74b076a939383d9a", (
        "a6a5c3d71d88a9be", "8a7476ee667fb485", "dfb0fa2da45fd76b",
        "ffd35dc0f9caa00c")),
    "typhoon:migratory": (86457.0, "4e6e43f083157ce0", (
        "4d9e83ecd3d8ca94", "103516d018f1f0d1", "f33a9aa427f0b2d2",
        "d2c889f339eb82ff")),
    "typhoon:ivy": (2052086.0, "9de2b75367e211f4", (
        "b3b0e40f25acf4f4", "330521095ecb14b8", "fe77154acf020f26",
        "15fb7259e38a9bf0")),
    "typhoon:em3d-update": (113007.0, "74b076a939383d9a", (
        "a6a5c3d71d88a9be", "8a7476ee667fb485", "dfb0fa2da45fd76b",
        "ffd35dc0f9caa00c")),
    "decoupled:stache": (175434.0, "c262f095f1a2c227", (
        "34d5d829c498a48d", "22e84c66a16f0e59", "0815ae0cf02f5a64",
        "0bf2a8dad8482141")),
    "decoupled:migratory": (126899.0, "cce0829bd46d2ea6", (
        "5770f3c28ea98df0", "6d5540a3456c8b71", "7678f05f1ac04f70",
        "14378fd2c9889aff")),
    "decoupled:ivy": (3250874.0, "3ca5d19b78d60ca0", (
        "c9a32005dce5f8ea", "dd1d46899c2166c9", "17a311515db53ba6",
        "f9ac6acd6b5b9d2f")),
    "decoupled:em3d-update": (175434.0, "c262f095f1a2c227", (
        "34d5d829c498a48d", "22e84c66a16f0e59", "0815ae0cf02f5a64",
        "0bf2a8dad8482141")),
    "blizzard:stache": (222777.0, "c7618284c9424938", (
        "df19789ae8f87c20", "5b3c83c2744f0dac", "b1aa9517b52a6926",
        "e17c03d38249c5b6")),
    "blizzard:migratory": (165602.0, "530b8a470b70c803", (
        "21d152ca31595c5f", "611c21b07be29d70", "f135f781454e0c70",
        "5d15e4590651af13")),
    "blizzard:ivy": (13608865.0, "649a1f3308daee89", (
        "86f06ac4220c5b5e", "bc1e3c597ce0aa95", "00e15bd12fc2d30c",
        "89fc0cae8ca7e8ec")),
}


def _digest(items) -> str:
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()[:16]


def _outcome(system: str, faults):
    config = MachineConfig(nodes=4, seed=42).with_cache_size(2048)
    result = run_application(system, workload("mp3d", "small").build(),
                             config, faults=faults)
    machine = result["machine"]
    if hasattr(machine, "shared_image"):
        images = (_digest(machine.shared_image.items()),)
    else:
        images = tuple(_digest(node.image.items()) for node in machine.nodes)
    pinned = (result["execution_time"],
              _digest(machine.stats.as_dict().items()), images)
    return pinned, machine.stats


def test_goldens_cover_every_system():
    assert set(RELIABLE_GOLDENS) == set(all_systems())
    assert set(LOSSY_GOLDENS) == set(all_systems())


@pytest.mark.parametrize("system", sorted(RELIABLE_GOLDENS))
def test_reliable_outcome_pinned(system):
    pinned, _stats = _outcome(system, None)
    assert pinned == RELIABLE_GOLDENS[system]


@pytest.fixture(scope="module")
def lossy_outcomes():
    """Every system's lossy run: (pinned outcome, statistics)."""
    return {system: _outcome(system, LOSSY) for system in LOSSY_GOLDENS}


@pytest.mark.parametrize("system", sorted(LOSSY_GOLDENS))
def test_lossy_outcome_pinned(system, lossy_outcomes):
    pinned, _stats = lossy_outcomes[system]
    assert pinned == LOSSY_GOLDENS[system]


#: IVY's page requests on the reliable network (the RELIABLE_GOLDENS runs).
RELIABLE_IVY_PAGE_REQUESTS = {
    "typhoon:ivy": 1655, "decoupled:ivy": 1655, "blizzard:ivy": 3337,
}


@pytest.mark.parametrize("system", sorted(RELIABLE_IVY_PAGE_REQUESTS))
def test_lossy_ivy_refaults_no_more_than_reliable(system, lossy_outcomes):
    """Losses reorder IVY's grants and recalls, but every faulting
    access still completes on the grant it asked for: a recall that
    overtook a grant waits for the access, so the page does not bounce
    more often than on a reliable network."""
    _pinned, stats = lossy_outcomes[system]
    assert stats.get("ivy.overtaken_grants") > 0
    assert (stats.get("ivy.page_requests")
            <= RELIABLE_IVY_PAGE_REQUESTS[system])


def test_lossy_plan_exercises_every_fault_branch(lossy_outcomes):
    """The lossy goldens only guard the fault branches they reach."""
    totals = {suffix: sum(stats.total(suffix)
                          for _pinned, stats in lossy_outcomes.values())
              for suffix in (".np.stalls", ".hp.stalls", ".np.nacks_sent",
                             ".hp.nacks_sent", ".np.sends_overflowed",
                             "tempest.duplicates_dropped",
                             "network.fault_drops")}
    assert all(totals.values()), totals
