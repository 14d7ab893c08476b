"""Layer microbenchmarks: one small fixed piece of work per layer.

Each benchmark times one operation of one layer through public calls,
repeats the timing a few times, and reports the median in nanoseconds
per operation, normalised to the reference host like every other time
in this benchmark (see ``hostspeed.py``).  Each takes well under two
seconds.

* ``sim.ns_per_event``: ``Engine.schedule`` plus firing the event.
* ``apps.ns_per_resume``: one process resume through the engine (two
  processes alternate, so every numeric yield is a scheduled wakeup).
* ``memory.ns_per_inline_hit``: one ``access_inline`` TLB + cache hit on
  a Typhoon node.
* ``typhoon.ns_per_dispatch``: one message through a Typhoon NP, from
  ``enqueue_message`` to the handler's return, with the compiled kernel
  when the build has one.
* ``network.ns_per_send_deliver``: one ``Interconnect.send`` plus its
  delivery to the destination's sink.
"""

from __future__ import annotations

import statistics
import time

from hostspeed import timed_region

#: Timed repetitions per microbenchmark; the median is reported.
REPEATS = 5


def _engine_events(n: int) -> float:
    from repro.sim.engine import Engine

    engine = Engine()

    def noop():
        return None

    with timed_region() as region:
        for i in range(n):
            engine.schedule(i % 97 + 1, noop)
        engine.run()
    return region.normalized_s


def _process_resumes(n: int) -> float:
    from repro.sim.engine import Engine
    from repro.sim.process import Process

    engine = Engine()

    def ticker():
        for _ in range(n // 2):
            yield 1

    Process(engine, ticker())
    Process(engine, ticker())
    with timed_region() as region:
        engine.run()
    return region.normalized_s


def _typhoon(nodes: int):
    from repro.harness.runner import build_machine
    from repro.sim.config import MachineConfig

    machine, protocol = build_machine("typhoon:stache",
                                      MachineConfig(nodes=nodes))
    try:
        from repro.kernel import install_kernel
    except ImportError:
        pass
    else:
        install_kernel(machine, "compiled")
    return machine, protocol


def _inline_hits(n: int) -> float:
    from repro.apps.base import AppContext

    machine, protocol = _typhoon(1)
    region = machine.heap.allocate(4096, home=0, label="micro")
    protocol.setup_region(region)
    addr = region.base

    def touch(node_id):
        yield from AppContext(machine, node_id).read(addr)

    machine.run_workers(touch)
    inline = machine.nodes[0].access_inline
    if inline(addr, False) is None:
        raise RuntimeError("micro: access_inline missed a warm address")
    with timed_region() as timed:
        for _ in range(n):
            inline(addr, False)
    return timed.normalized_s


def _np_dispatches(n: int) -> float:
    from repro.network.message import Message

    machine, _protocol = _typhoon(2)
    node = machine.nodes[1]
    calls = []
    node.tempest.register_handler(
        "micro.null", lambda _tempest, message: calls.append(message), 1)
    messages = [Message(src=0, dst=1, handler="micro.null", size_words=3)
                for _ in range(n)]
    enqueue = node.np.enqueue_message
    with timed_region() as region:
        for message in messages:
            enqueue(message)
        machine.engine.run()
    if len(calls) != n:
        raise RuntimeError(f"micro: NP ran {len(calls)} of {n} handlers")
    return region.normalized_s


def _send_deliver(n: int) -> float:
    from repro.network.interconnect import Interconnect
    from repro.network.message import Message
    from repro.network.topology import make_topology
    from repro.sim.config import NetworkConfig
    from repro.sim.engine import Engine
    from repro.sim.stats import Stats

    nodes = 32
    config = NetworkConfig()
    engine = Engine()
    network = Interconnect(
        engine, config,
        make_topology(config.topology, nodes, config.latency,
                      config.mesh_per_hop),
        Stats(),
    )
    received = []
    for node in range(nodes):
        network.attach(node, received.append)
    messages = [Message(src=i % nodes, dst=(7 * i + 1) % nodes,
                        handler="micro", size_words=3) for i in range(n)]
    with timed_region() as region:
        for message in messages:
            network.send(message)
        engine.run()
    if len(received) != n:
        raise RuntimeError(f"micro: {len(received)} of {n} delivered")
    return region.normalized_s


#: metric name -> (benchmark, operations per timing)
MICROBENCHMARKS = {
    "sim.ns_per_event": (_engine_events, 100_000),
    "apps.ns_per_resume": (_process_resumes, 100_000),
    "memory.ns_per_inline_hit": (_inline_hits, 100_000),
    "typhoon.ns_per_dispatch": (_np_dispatches, 20_000),
    "network.ns_per_send_deliver": (_send_deliver, 50_000),
}


def run_all() -> dict[str, float]:
    """Median nanoseconds per operation for every microbenchmark."""
    results = {}
    for name, (bench, n) in MICROBENCHMARKS.items():
        samples = [bench(n) / n * 1e9 for _ in range(REPEATS)]
        results[name] = statistics.median(samples)
    return results


if __name__ == "__main__":
    start = time.perf_counter()
    for metric, value in run_all().items():
        print(f"{metric:30s} {value:10.1f} ns")
    print(f"({time.perf_counter() - start:.1f} s)")
