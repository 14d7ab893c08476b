"""Deterministic fault injection for the interconnect and node front-ends.

The paper's design sections worry about finite resources — BAF-buffer
overflow, NP dispatch backpressure, full send queues (Section 4's overflow
discussion, Section 5.1's queue sizing) — but the simulator otherwise
models a perfectly reliable, in-order network.  This module supplies the
missing adversary: a seeded :class:`FaultPlan` the
:class:`~repro.network.interconnect.Interconnect` consults on every remote
injection, able to drop, duplicate, delay, or reorder packets, plus
node-level faults (periodic NP stall windows, bounded receive/BAF/send
queues with NACK on overflow).

Determinism contract
--------------------
* Every random decision comes from one named stream of
  :class:`~repro.sim.rng.RngStreams` (``machine.rng.stream("faults")``),
  so a (seed, plan) pair always produces the same fault schedule.
* A null plan (``FaultPlan.none()``, or any spec whose ``is_null`` is
  true) installs **nothing**: no events, no counters, no RNG draws.  The
  fixed-seed goldens in ``tests/integration/test_determinism_goldens.py``
  are bit-identical with or without it.
* Messages past ``fault_attempt_limit`` retransmissions are exempt from
  link faults, so every tracked message is eventually delivered — the
  "no message is permanently lost" guarantee is deterministic, not
  merely probabilistic.

See ``docs/faults.md`` for the taxonomy and a worked example.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from repro.network.message import Message
from repro.sim.engine import SimulationError


@dataclass(frozen=True)
class FaultSpec:
    """An immutable, picklable description of a fault workload.

    All fields are plain primitives so specs can ride through
    ``multiprocessing`` as sweep-axis values.  The default instance is
    inert (``is_null`` is true).

    Link faults (applied per remote packet):

    * ``drop_pct`` — probability the packet silently dies in the network.
    * ``dup_pct`` — probability a ghost copy arrives ``dup_lag`` cycles
      after the original.
    * ``delay_pct`` / ``delay_min`` / ``delay_max`` — probability and
      bounds of an extra in-flight delay (cycles).
    * ``reorder_pct`` — probability the packet bypasses its channel's
      FIFO floor (it may overtake earlier packets on the same channel).

    ``drop_pct + dup_pct + reorder_pct`` must not exceed 1: a single
    uniform draw classifies each packet, so the three are exclusive.

    Node faults:

    * ``stall_every`` / ``stall_cycles`` — the NP dispatch loop freezes
      for the first ``stall_cycles`` of every ``stall_every``-cycle
      period (queued work waits; nothing is lost).
    * ``recv_queue_limit`` — request-network receive-queue bound; an
      arriving tracked request beyond it is NACKed back to the sender.
      Responses are never bounded (the Section 5.1 deadlock discipline:
      the response network must always sink).
    * ``baf_limit`` — BAF-buffer bound; an overflowing fault is re-presented
      after ``overflow_drain_cycles`` rather than lost.
    * ``send_queue_depth`` — overrides the NP's per-vnet send-queue depth
      (smaller = more overflow-buffer traffic).

    Recovery knobs (used by the ReliableTransport):

    * ``retry_timeout`` / ``retry_backoff`` — first retransmit fires
      ``retry_timeout`` cycles after a tracked send; attempt *n* waits
      ``retry_timeout * retry_backoff**(n-1)``.
    * ``nack_backoff`` — retransmit delay after an explicit NACK.
    * ``max_attempts`` — give up (raise ``SimulationError``) past this.
    * ``fault_attempt_limit`` — attempts beyond this are exempt from
      drop/dup/reorder, guaranteeing eventual delivery.
    """

    name: str = "none"
    drop_pct: float = 0.0
    dup_pct: float = 0.0
    delay_pct: float = 0.0
    delay_min: int = 1
    delay_max: int = 8
    reorder_pct: float = 0.0
    dup_lag: int = 3
    stall_every: int = 0
    stall_cycles: int = 0
    recv_queue_limit: int | None = None
    baf_limit: int | None = None
    send_queue_depth: int | None = None
    retry_timeout: int = 200
    retry_backoff: float = 2.0
    nack_backoff: int = 64
    max_attempts: int = 12
    fault_attempt_limit: int = 4

    def __post_init__(self) -> None:
        for field in ("drop_pct", "dup_pct", "delay_pct", "reorder_pct"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field}={value} outside [0, 1]")
        if self.drop_pct + self.dup_pct + self.reorder_pct > 1.0:
            raise ValueError(
                "drop_pct + dup_pct + reorder_pct must not exceed 1"
            )
        if self.delay_min < 0 or self.delay_max < self.delay_min:
            raise ValueError(
                f"bad delay bounds [{self.delay_min}, {self.delay_max}]"
            )
        if self.stall_every and not 0 < self.stall_cycles < self.stall_every:
            raise ValueError(
                "stall_cycles must satisfy 0 < stall_cycles < stall_every"
            )
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        for field, least in (("recv_queue_limit", 0), ("baf_limit", 0),
                             ("send_queue_depth", 1)):
            value = getattr(self, field)
            if value is not None and value < least:
                raise ValueError(f"{field}={value} must be at least {least}")

    @property
    def is_null(self) -> bool:
        """True when the spec injects nothing (installing it is a no-op)."""
        return (
            self.drop_pct == 0.0
            and self.dup_pct == 0.0
            and self.delay_pct == 0.0
            and self.reorder_pct == 0.0
            and self.stall_every == 0
            and self.recv_queue_limit is None
            and self.baf_limit is None
            and self.send_queue_depth is None
        )


class FaultPlan:
    """A :class:`FaultSpec` bound to an RNG stream: the live decision maker.

    The interconnect asks :meth:`link_verdict` for every remote packet;
    the NP asks :meth:`stall_until` whenever its dispatch loop wakes.
    Bind before use: ``plan.bind(machine.rng.stream("faults"))``.
    """

    __slots__ = ("spec", "_rng")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self._rng: Random | None = None

    # -- construction ---------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """The inert plan: injects nothing, perturbs nothing."""
        return cls(FaultSpec())

    @classmethod
    def lossy(cls, name: str = "lossy", drop_pct: float = 0.10,
              dup_pct: float = 0.05, delay_pct: float = 0.25,
              delay_min: int = 1, delay_max: int = 16) -> "FaultPlan":
        """A convenience lossy-link plan (defaults: 10% drop, 5% dup)."""
        return cls(FaultSpec(
            name=name, drop_pct=drop_pct, dup_pct=dup_pct,
            delay_pct=delay_pct, delay_min=delay_min, delay_max=delay_max,
        ))

    @staticmethod
    def of(value: "FaultPlan | FaultSpec | None") -> "FaultPlan | None":
        """Coerce a spec (or pass through a plan / None)."""
        if value is None or isinstance(value, FaultPlan):
            return value
        if isinstance(value, FaultSpec):
            return FaultPlan(value)
        raise TypeError(f"expected FaultPlan, FaultSpec or None, got {value!r}")

    # -- state ----------------------------------------------------------
    @property
    def is_null(self) -> bool:
        return self.spec.is_null

    def bind(self, rng: Random) -> "FaultPlan":
        """Attach the RNG stream all link verdicts will draw from."""
        self._rng = rng
        return self

    # -- decisions ------------------------------------------------------
    def link_verdict(self, message: Message) -> tuple[str | None, int]:
        """Classify one remote packet: ``(action, extra_delay)``.

        ``action`` is ``"drop"``, ``"dup"``, ``"reorder"`` or None
        (deliver normally); ``extra_delay`` is additional in-flight
        cycles (applied in every case except that a dropped packet dies
        at its would-be arrival time).  Retransmissions past
        ``fault_attempt_limit`` always get ``(None, extra_delay)``.
        """
        spec = self.spec
        rng = self._rng
        if rng is None:
            raise SimulationError("FaultPlan used before bind()")
        extra = 0
        if spec.delay_pct and rng.random() < spec.delay_pct:
            extra = rng.randint(spec.delay_min, spec.delay_max)
        if message.attempt <= spec.fault_attempt_limit:
            roll = rng.random()
            if roll < spec.drop_pct:
                return "drop", extra
            if roll < spec.drop_pct + spec.dup_pct:
                return "dup", extra
            if roll < spec.drop_pct + spec.dup_pct + spec.reorder_pct:
                return "reorder", extra
        return None, extra

    def stall_until(self, node: int, now: float) -> float | None:
        """If ``now`` falls inside an NP stall window, the cycle it ends.

        Pure arithmetic (no RNG): the first ``stall_cycles`` of every
        ``stall_every``-cycle period are frozen, identically on every
        node.  Returns None outside a window or when stalls are off.
        """
        spec = self.spec
        if not spec.stall_every:
            return None
        phase = now % spec.stall_every
        if phase < spec.stall_cycles:
            return now - phase + spec.stall_cycles
        return None

    def __repr__(self) -> str:
        bound = "bound" if self._rng is not None else "unbound"
        return f"FaultPlan({self.spec.name!r}, {bound})"


# ----------------------------------------------------------------------
# Scripted (deterministic) fault schedules
# ----------------------------------------------------------------------
_SCRIPTED_ACTIONS = (None, "drop", "dup", "reorder")


@dataclass(frozen=True)
class FaultRule:
    """One pinned link action: the ``occurrence``-th matching packet.

    A rule matches a remote packet by handler name and (optionally)
    source/destination node; the match counter is per rule, counted over
    first-attempt sends only, so retransmissions neither consume nor
    perturb the schedule.  ``action`` is one of the
    :meth:`FaultPlan.link_verdict` verdicts (or None for a pure delay);
    ``delay`` adds in-flight cycles on top.

    Rules are plain frozen dataclasses so a scripted schedule serialises
    field-by-field into a litmus-test file and reconstructs exactly
    (:mod:`repro.harness.litmus`).
    """

    handler: str
    src: int | None = None
    dst: int | None = None
    occurrence: int = 1
    action: str | None = None
    delay: int = 0

    def __post_init__(self) -> None:
        if self.action not in _SCRIPTED_ACTIONS:
            raise ValueError(
                f"action {self.action!r} not in {_SCRIPTED_ACTIONS}"
            )
        if self.occurrence < 1:
            raise ValueError("occurrence is 1-based; must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if self.action is None and self.delay == 0:
            raise ValueError("rule with no action and no delay is inert")

    def matches(self, message: Message) -> bool:
        return (message.handler == self.handler
                and (self.src is None or message.src == self.src)
                and (self.dst is None or message.dst == self.dst))


class ScriptedFaultPlan(FaultPlan):
    """A fault plan that replays an explicit schedule — no randomness.

    Where :class:`FaultPlan` rolls a die per packet, this plan consults
    an ordered list of :class:`FaultRule` values: each remote packet
    bumps the counter of every rule it matches, and a rule whose
    counter reaches its ``occurrence`` fires (first firing rule's
    action wins; delays accumulate).  The same machine, program, and
    schedule therefore produce the same interleaving on every run —
    which is what lets a synthesized litmus test pin an adversarial
    message ordering (a grant overtaken by a later invalidation, say)
    instead of waiting for a seed to find it.

    Retransmissions (``message.attempt > 1``) are exempt from matching
    entirely, so a dropped packet's retry is always delivered clean;
    the base spec's ``retry_timeout`` is raised far beyond any scripted
    delay so the reliable transport cannot undercut a pinned delay with
    an early retransmit copy.
    """

    __slots__ = ("rules", "_counts")

    #: Retransmit timeout for scripted runs: larger than any plausible
    #: scripted delay, so the transport never races a pinned schedule.
    RETRY_TIMEOUT = 2_000_000

    def __init__(self, rules, spec: FaultSpec | None = None):
        rules = tuple(rules)
        if spec is None:
            spec = FaultSpec(name="scripted",
                             retry_timeout=self.RETRY_TIMEOUT)
        super().__init__(spec)
        self.rules = rules
        self._counts = [0] * len(rules)

    @property
    def is_null(self) -> bool:
        """A scripted plan with rules always installs (and takes the
        interconnect off its reliable-network fast path), even though
        its base spec draws no random faults."""
        return not self.rules and self.spec.is_null

    def link_verdict(self, message: Message) -> tuple[str | None, int]:
        if message.attempt > 1:
            return None, 0
        action: str | None = None
        extra = 0
        for index, rule in enumerate(self.rules):
            if not rule.matches(message):
                continue
            self._counts[index] += 1
            if self._counts[index] == rule.occurrence:
                if action is None:
                    action = rule.action
                extra += rule.delay
        return action, extra


#: The fault ladder ``repro.harness.experiments.run_reliability_ladder``
#: climbs: reliable baseline, then increasingly lossy links.
RELIABILITY_LADDER: tuple[FaultSpec, ...] = (
    FaultSpec(name="none"),
    FaultSpec(name="drop1", drop_pct=0.01),
    FaultSpec(name="lossy5", drop_pct=0.05, dup_pct=0.02,
              delay_pct=0.10, delay_min=1, delay_max=8),
    FaultSpec(name="lossy10", drop_pct=0.10, dup_pct=0.05,
              delay_pct=0.25, delay_min=1, delay_max=16),
)
