"""The interconnect: message delivery and the hardware barrier network.

Delivery preserves point-to-point FIFO order per (source, destination,
virtual network) channel — the property protocols rely on.  Latency comes
from the topology model; the paper's simulations "do not accurately model
network ... contention" (Section 6) and neither, by default, do we, but a
simple serialization model (one packet per channel per cycle) can be
enabled to check that the conclusions are contention-robust.
"""

from __future__ import annotations

from typing import Callable

from repro.network.message import Message, NACK_HANDLER
from repro.network.topology import IdealTopology, Mesh2D
from repro.sim.config import NetworkConfig
from repro.sim.engine import Engine, SimulationError
from repro.sim.process import Future
from repro.sim.stats import Stats


class Interconnect:
    """Routes messages between attached nodes."""

    def __init__(
        self,
        engine: Engine,
        config: NetworkConfig,
        topology: IdealTopology | Mesh2D,
        stats: Stats | None = None,
        model_contention: bool = False,
    ):
        self.engine = engine
        self.config = config
        self.topology = topology
        self.stats = stats if stats is not None else Stats()
        self.model_contention = model_contention
        self._max_payload = config.max_payload_words
        # Hot-path caches: the per-pair latency table (the topology is
        # pure and fixed, so it is evaluated once per pair), the raw
        # counter dict (a defaultdict — plain indexing is the same as
        # Stats.incr) and the latency distribution, created on first send
        # so an idle interconnect publishes no counters.
        self._latencies = [
            [topology.latency(src, dst) for dst in range(topology.nodes)]
            for src in range(topology.nodes)
        ]
        #: The least latency between two distinct nodes: the lookahead
        #: one node's events leave every other node (a local message
        #: comes from the node itself).  Fault delays and contention only
        #: add to it.
        self.min_latency = min(
            (latency for src, row in enumerate(self._latencies)
             for dst, latency in enumerate(row) if src != dst),
            default=0)
        self._counters = self.stats._counters
        self._latency_dist = None
        self._sinks: dict[int, Callable[[Message], None]] = {}
        # channel -> earliest time the next delivery may occur (FIFO floor).
        self._channel_clear: dict[tuple[int, int, int], float] = {}
        #: Observers called with ("send"|"deliver"|"drop", message); used
        #: by the protocol trace tool.
        self.observers: list[Callable[[str, Message], None]] = []
        # Fault injection (repro.network.faults): both stay None on a
        # reliable network, keeping the hot path a single pointer test.
        self._fault_plan = None
        self._transport = None

    # ------------------------------------------------------------------
    def attach(self, node: int, sink: Callable[[Message], None]) -> None:
        """Register the delivery callback for one node (its NP or controller)."""
        if node in self._sinks:
            raise SimulationError(f"node {node} already attached")
        self._sinks[node] = sink

    def install_faults(self, plan, transport) -> None:
        """Activate a bound FaultPlan and its ReliableTransport.

        Every subsequent remote injection is classified by the plan
        (drop/dup/delay/reorder) and tracked by the transport until the
        receiver actually accepts it.
        """
        self._fault_plan = plan
        self._transport = transport

    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Inject a packet; it arrives after the topology latency.

        Local messages (src == dst) short-circuit the network and arrive
        next cycle, modelling the CPU->local-NP direct path of Section 5.1.
        """
        dst = message.dst
        if dst not in self._sinks:
            raise SimulationError(f"message to unattached node {dst}")
        size = message.size_words
        if size > self._max_payload:
            message.validated(self._max_payload)  # raises PacketTooLarge
        engine = self.engine
        now = engine.now
        message.send_time = now

        counters = self._counters
        counters["network.packets"] += 1
        counters["network.words"] += size
        if self.observers:
            for observer in self.observers:
                observer("send", message)
        src = message.src
        if src == dst:
            counters["network.local_packets"] += 1
            engine.post(now + 1, self._deliver, message, owner=dst)
            return
        if self._fault_plan is None and not self.model_contention:
            # Reliable, contention-free: every packet on a channel takes
            # the same fixed latency and is sent no earlier than the one
            # before it, so it arrives no earlier either and the
            # channel's FIFO floor never binds.  The floor is not kept:
            # packets sent after a fault plan is installed also arrive
            # after every packet scheduled here.
            arrival = now + self._latencies[src][dst]
            dist = self._latency_dist
            if dist is None:
                dist = self._latency_dist = self.stats.distribution(
                    "network.latency")
            dist.add(arrival - now)
            # A delivery is its destination's event.
            engine.post(arrival, self._deliver, message, owner=dst)
            return

        arrival = now + self._latencies[src][dst]
        plan = self._fault_plan
        action = None
        if plan is not None:
            transport = self._transport
            if (transport is not None and message.xid is None
                    and message.handler != NACK_HANDLER):
                transport.track(message)
            action, extra = plan.link_verdict(message)
            if extra:
                counters["network.fault_delays"] += 1
                arrival += extra  # applied before the FIFO floor below
            if action == "reorder":
                # Bypass the channel's FIFO floor entirely (and leave the
                # floor untouched): this packet may overtake earlier ones.
                counters["network.fault_reorders"] += 1
                dist = self._latency_dist
                if dist is None:
                    dist = self._latency_dist = self.stats.distribution(
                        "network.latency")
                dist.add(arrival - now)
                engine.schedule_at(arrival, self._deliver, message)
                return
        channel = (message.src, message.dst, message.vnet)
        floor = self._channel_clear.get(channel, 0)
        if arrival < floor:
            arrival = floor  # preserve FIFO order on the channel
        if self.model_contention:
            # Serialize the channel: a packet occupies it for its word count.
            self._channel_clear[channel] = arrival + message.size_words
        else:
            self._channel_clear[channel] = arrival
        if action == "drop":
            # The packet occupies the channel, then dies at its would-be
            # arrival.  Excluded from the delivered-latency distribution.
            counters["network.fault_drops"] += 1
            engine.schedule_at(arrival, self._drop, message)
            return
        dist = self._latency_dist
        if dist is None:
            dist = self._latency_dist = self.stats.distribution("network.latency")
        dist.add(arrival - now)
        engine.schedule_at(arrival, self._deliver, message)
        if action == "dup":
            # A ghost copy trails the original; the fire-once credit and
            # the receiver's DeliveryGuard make it harmless.
            counters["network.fault_dups"] += 1
            engine.schedule_at(arrival + plan.spec.dup_lag,
                               self._deliver, message)

    def _deliver(self, message: Message) -> None:
        if self.observers:
            for observer in self.observers:
                observer("deliver", message)
        transport = self._transport
        if transport is not None and message.handler == NACK_HANDLER:
            # NI-level negative acknowledgement: consumed here, never
            # dispatched to the node's sink.
            transport.on_nack(message)
            return
        self._sinks[message.dst](message)
        callback = message.on_delivered
        if callback is not None:
            # Fire-once: a message can reach delivery more than once
            # (duplication fault, spurious retransmit); the send-queue
            # credit must return exactly once.
            message.on_delivered = None
            callback(message)
        if transport is not None and message.xid is not None:
            if message.nacked:
                # The sink refused the packet (bounded queue) and sent a
                # NACK: delivery did not constitute receipt, so the
                # retransmit timer keeps running.
                message.nacked = False
            else:
                transport.on_receipt(message)

    def _drop(self, message: Message) -> None:
        """A fault-plan drop: the packet dies in the network.

        The sender's injection-queue credit still returns (the local NI
        accepted the packet); the reliable transport's timer, which was
        *not* stopped, will retransmit.
        """
        for observer in self.observers:
            observer("drop", message)
        callback = message.on_delivered
        if callback is not None:
            message.on_delivered = None
            callback(message)

    @property
    def attached_nodes(self) -> list[int]:
        return sorted(self._sinks)

    def __repr__(self) -> str:
        return f"Interconnect({len(self._sinks)} nodes, {self.topology!r})"


class BarrierNetwork:
    """The dedicated low-latency barrier (CM-5 control network analogue).

    ``arrive(node)`` returns a future that resolves ``barrier_latency``
    cycles after the last participant arrives.  Episodes are implicit and
    sequential: all participants of episode *k* must arrive before any
    participant may arrive for episode *k+1* — which the returned futures
    enforce naturally, since a process cannot re-arrive until released.
    """

    def __init__(self, engine: Engine, participants: int, latency: int,
                 stats: Stats | None = None):
        if participants < 1:
            raise SimulationError("barrier needs at least one participant")
        self.engine = engine
        self.participants = participants
        self.latency = latency
        self.stats = stats if stats is not None else Stats()
        self._counters = self.stats._counters
        self._waiting: dict[int, Future] = {}
        self.episodes = 0

    def arrive(self, node: int) -> Future:
        if node in self._waiting:
            raise SimulationError(f"node {node} arrived at the barrier twice")
        future = Future(self.engine)
        self._waiting[node] = future
        if len(self._waiting) == self.participants:
            waiters, self._waiting = self._waiting, {}
            self.episodes += 1
            self._counters["barrier.episodes"] += 1
            for waiter in waiters.values():
                self.engine.schedule(self.latency, waiter.resolve, None)
        return future

    def __repr__(self) -> str:
        return (
            f"BarrierNetwork(waiting={len(self._waiting)}/"
            f"{self.participants}, episodes={self.episodes})"
        )
