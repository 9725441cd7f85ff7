"""The main user/data network fabric.

Responsibilities:

* carry launched messages from source to destination with the topology's
  latency;
* guarantee reliable, in-order delivery per (src, dst) pair (an Alewife
  property the UDM model inherits);
* model destination backpressure two ways:

  - each destination NI exposes a small hardware input queue; messages
    that arrive while it is full wait *inside the network* — exactly the
    condition the atomicity timer exists to bound; and
  - the network's own capacity toward a destination is finite
    (``credits_per_destination``); when it is exhausted, senders block in
    ``inject`` (the paper's "store operations ... will block if the
    network is currently unable to accept a message"). This coarse
    credit model stands in for wormhole back-pressure: per-destination
    occupancy is what limits senders, while cross-destination
    head-of-line blocking is ignored (documented simplification).

The fabric is deliberately ignorant of GIDs, protection and buffering —
those live in the NI and the OS.

Fault injection: when a :class:`~repro.faults.injector.FaultInjector`
is attached (``fabric.injector``), the fabric becomes *unreliable* —
per the plan, messages may be dropped (the credit is held until the
would-be arrival, then released), duplicated (a copy with a fresh
simulation identity), delayed by latency spikes (order-preserving), or
reordered (the per-pair FIFO floor is waived and seeded jitter added).
Kernel-GID traffic is spared by default (``FaultPlan.spare_kernel``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Protocol

from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.network.message import Message
from repro.network.topology import MeshTopology


class DeliveryPort(Protocol):
    """What the fabric needs from an attached network interface."""

    def network_deliver(self, message: Message) -> bool:
        """Offer a message; return False if the input queue is full."""
        ...


@dataclass
class FabricStats:
    """Aggregate fabric counters (per machine)."""

    messages_sent: int = 0
    messages_delivered: int = 0
    total_latency: int = 0
    words_carried: int = 0
    sender_blocks: int = 0
    max_backlog: Dict[int, int] = field(default_factory=dict)
    # Fault-injection outcomes (always zero on a reliable fabric).
    messages_dropped: int = 0
    messages_duplicated: int = 0
    latency_spikes: int = 0
    # perfbench reads these two names; nothing increments them.
    fast_path_sends: int = 0
    general_path_sends: int = 0

    @property
    def mean_latency(self) -> float:
        if not self.messages_delivered:
            return 0.0
        return self.total_latency / self.messages_delivered


class NetworkFabric:
    """Event-driven message transport over a :class:`MeshTopology`."""

    def __init__(self, engine: Engine, topology: MeshTopology,
                 credits_per_destination: int = 16) -> None:
        if credits_per_destination < 1:
            raise ValueError("need at least one credit per destination")
        self.engine = engine
        self.topology = topology
        self.credits_per_destination = credits_per_destination
        self.stats = FabricStats()
        self._ports: Dict[int, DeliveryPort] = {}
        # Messages that arrived at a node but found its NI input queue
        # full; they block in the network in arrival order.
        self._blocked: Dict[int, Deque[Message]] = {}
        # Network occupancy (in flight + blocked) per destination.
        self._occupancy: Dict[int, int] = {}
        # Senders blocked waiting for a credit toward a destination.
        self._credit_waiters: Dict[int, Deque[Event]] = {}
        # Enforce per-(src, dst) FIFO even when message lengths differ.
        self._last_arrival: Dict[tuple[int, int], int] = {}
        #: Optional message tracer (set by Machine.enable_tracing).
        self.tracer = None
        #: Optional observatory (set by Machine.enable_observability).
        self.obs = None
        #: Optional fault injector (set by Machine for faulted runs).
        #: When present the fabric becomes *unreliable*: messages may be
        #: dropped, duplicated, delayed or reordered per the plan.
        self.injector = None

    def attach(self, node_id: int, port: DeliveryPort) -> None:
        """Register the network interface serving ``node_id``."""
        if node_id in self._ports:
            raise ValueError(f"node {node_id} already attached")
        self.topology._check(node_id)
        self._ports[node_id] = port
        self._blocked[node_id] = deque()
        self._occupancy[node_id] = 0
        self._credit_waiters[node_id] = deque()

    # ------------------------------------------------------------------
    # Source-side flow control
    # ------------------------------------------------------------------
    def has_credit(self, dst: int) -> bool:
        """True if the network can accept a message toward ``dst`` now."""
        return self._occupancy[dst] < self.credits_per_destination

    def credit_event(self, dst: int) -> Event:
        """An event triggered when a credit toward ``dst`` frees up.

        The waiter must re-check :meth:`has_credit` after waking (another
        sender may have claimed the credit first).
        """
        event = Event(f"credit@{dst}")
        self._credit_waiters[dst].append(event)
        self.stats.sender_blocks += 1
        return event

    # ------------------------------------------------------------------
    # Injection (called from the NI at launch time)
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Accept a launched message and schedule its arrival.

        Callers must hold a credit (``has_credit`` was true); launching
        into a full network is a modelling error, not an architectural
        trap, so it raises.
        """
        message.validate()
        if message.dst not in self._ports:
            raise ValueError(f"no network interface at node {message.dst}")
        if not self.has_credit(message.dst):
            raise RuntimeError(
                f"launch toward node {message.dst} without network credit"
            )
        engine = self.engine
        message.inject_time = engine.now
        self._occupancy[message.dst] += 1
        self.stats.messages_sent += 1
        self.stats.words_carried += message.length_words
        if self.obs is not None:
            self.obs.h_message_words.observe(message.length_words)
        if self.tracer is not None:
            from repro.analysis.trace import TraceEvent

            self.tracer.note_message(message)
            self.tracer.record(engine.now, TraceEvent.INJECT,
                               message.msg_id, message.src)

        latency = self.topology.latency(
            message.src, message.dst, message.length_words
        )
        if self.injector is None:
            self._schedule_arrival(message, latency)
            return
        decision = self.injector.on_send(message)
        if decision.drop:
            # The doomed flits still occupy the channel until their
            # would-be arrival; only then does the credit free up.
            self.stats.messages_dropped += 1
            engine.call_after(latency, self._dropped, message)
            return
        if decision.extra_latency:
            self.stats.latency_spikes += 1
            latency += decision.extra_latency
        if decision.duplicate:
            self._send_duplicate(message, latency)
        self._schedule_arrival(message, latency,
                               unordered=decision.unordered,
                               jitter=decision.jitter)

    def _ordered_arrival(self, message: Message, latency: int) -> int:
        """The arrival cycle of ``message`` sent now with ``latency``,
        raised to the per-(src, dst) FIFO floor, which it then becomes:
        a short message never overtakes a longer one on the same pair."""
        pair = (message.src, message.dst)
        arrival = self.engine.now + latency
        floor = self._last_arrival.get(pair, -1) + 1
        if arrival < floor:
            arrival = floor
        self._last_arrival[pair] = arrival
        return arrival

    def _schedule_arrival(self, message: Message, latency: int,
                          unordered: bool = False,
                          jitter: int = 0) -> None:
        if unordered:
            # Reordering fault: waive the FIFO floor so this message
            # may overtake (or be overtaken by) its pair neighbours.
            arrival = self.engine.now + latency + jitter
        else:
            arrival = self._ordered_arrival(message, latency)
        self.engine.schedule(arrival, self._arrive, message)

    def _send_duplicate(self, original: Message, latency: int) -> None:
        """Inject a fabric-made copy of ``original`` (same wire bits,
        fresh simulation identity). The copy transiently overcommits
        the destination's credit by one slot — the modelling cost of a
        fault the credit protocol never budgeted for."""
        copy = Message(
            dst=original.dst, handler=original.handler,
            payload=original.payload, src=original.src,
            gid=original.gid, bulk=original.bulk,
        )
        copy.inject_time = self.engine.now
        self._occupancy[copy.dst] += 1
        self.stats.messages_duplicated += 1
        if self.injector is not None:
            self.injector.note_duplicate(copy.msg_id)
        if self.tracer is not None:
            from repro.analysis.trace import TraceEvent

            self.tracer.note_message(copy)
            self.tracer.record(self.engine.now, TraceEvent.DUPLICATE,
                               copy.msg_id, copy.src,
                               f"dup-of={original.msg_id}")
        self._schedule_arrival(copy, latency + 1, unordered=True)

    def _dropped(self, message: Message) -> None:
        """A planned drop reached its loss point: release the slot."""
        if self.injector is not None:
            self.injector.note_dropped(message.msg_id)
        if self.tracer is not None:
            from repro.analysis.trace import TraceEvent

            self.tracer.record(self.engine.now, TraceEvent.DROP,
                               message.msg_id, message.dst, "planned")
        self._release_slot(message.dst)

    # ------------------------------------------------------------------
    # Arrival / backpressure
    # ------------------------------------------------------------------
    def _arrive(self, message: Message) -> None:
        backlog = self._blocked[message.dst]
        if backlog:
            # Preserve arrival order behind already-blocked traffic.
            backlog.append(message)
            self._note_backlog(message.dst)
            return
        if not self._ports[message.dst].network_deliver(message):
            backlog.append(message)
            self._note_backlog(message.dst)
            return
        self._delivered(message)

    def input_space_freed(self, node_id: int) -> None:
        """NI callback: a hardware input-queue slot opened at ``node_id``.

        Drains as much blocked traffic as the queue will now take.
        """
        backlog = self._blocked[node_id]
        port = self._ports[node_id]
        while backlog:
            message = backlog[0]
            if not port.network_deliver(message):
                return
            backlog.popleft()
            self._delivered(message)

    def blocked_count(self, node_id: int) -> int:
        """Messages currently blocked in the network at ``node_id``."""
        return len(self._blocked[node_id])

    def _delivered(self, message: Message) -> None:
        message.deliver_time = self.engine.now
        if self.tracer is not None:
            from repro.analysis.trace import TraceEvent

            self.tracer.record(self.engine.now, TraceEvent.DELIVER,
                               message.msg_id, message.dst)
        self.stats.messages_delivered += 1
        self.stats.total_latency += message.deliver_time - message.inject_time
        if self.obs is not None:
            self.obs.h_delivery_latency.observe(
                message.deliver_time - message.inject_time
            )
        self._release_slot(message.dst)

    def _release_slot(self, dst: int) -> None:
        self._occupancy[dst] -= 1
        waiters = self._credit_waiters[dst]
        if waiters and self.has_credit(dst):
            waiters.popleft().trigger()

    def _note_backlog(self, node_id: int) -> None:
        depth = len(self._blocked[node_id])
        if depth > self.stats.max_backlog.get(node_id, 0):
            self.stats.max_backlog[node_id] = depth
