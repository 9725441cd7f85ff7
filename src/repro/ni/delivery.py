"""Pluggable NI delivery disciplines (the ``delivery=`` config axis).

The paper argues two-case delivery against two concrete design points
from the related literature: memory-protection-based zero-copy receive
rings (Power) and DAMQ-style dynamically partitioned shared input
queues. This module makes all three first-class, config-selectable
disciplines behind one small interface, so the same machine, fault
planner, invariant checker and golden-artifact pipeline exercise each
of them head to head (see docs/DELIVERY.md).

* ``twocase`` — the paper's system and the default. The discipline is
  a pure no-op: admission is the fixed hardware-queue bound already in
  :meth:`~repro.ni.interface.NetworkInterface.network_deliver`.
  Behaviour is byte-identical to a machine built before this axis
  existed.
* ``zerocopy`` — arriving messages for the *running* process pin their
  words directly in a per-NI receive ring mapped into user space; the
  hardware queue is the ring, so its capacity (in words) is the real
  admission bound. When the ring cannot hold a matching message the
  delivery takes a protection fault and the kernel falls back to
  buffered delivery (``TransitionReason.ZEROCOPY_FAULT``); every
  kernel-side drain models the fault trap
  (:attr:`~repro.core.costs.KernelCosts.zerocopy_fault_trap`). The
  discipline tracks the pinned footprint, which must return to zero
  once the ring drains.
* ``damq`` — the fixed per-NI queue becomes a dynamically partitioned
  shared pool with per-source linked lists. Each source's share shrinks
  as more sources contend (one slot is reserved per other active
  source); a source at its share is refused (the fabric holds the
  message and retries on ``input_space_freed``). Under full-pool
  occupancy pressure the discipline evicts the heaviest source's
  traffic to the software buffer (``TransitionReason.QUEUE_PRESSURE``).

Disciplines never duplicate or drop messages: a refusal leaves the
message in the fabric's blocked backlog (checker-resident) and a
zero-copy fault *accepts* the message onto the buffered path, so the
conservation, FIFO and mode-legality invariants hold for every
discipline — which is exactly what ``tests/property/test_prop_delivery``
proves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.core.two_case import DeliveryMode, TransitionReason
from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.glaze.kernel import NodeKernel
    from repro.ni.interface import NetworkInterface, NiConfig

#: The closed set of delivery disciplines.
DELIVERY_KINDS = ("twocase", "zerocopy", "damq")


@dataclass
class DeliveryStats:
    """Per-NI discipline counters (zero for fields a discipline never
    touches; the obs registry sums them across nodes)."""

    # Zero-copy
    zerocopy_accepts: int = 0    # messages pinned directly in the ring
    fault_traps: int = 0         # protection-fault traps taken
    fallbacks: int = 0           # ring overflows -> buffered fallback
    pinned_words: int = 0        # live pinned words (0 after drain)
    pinned_pages_peak: int = 0   # high-water pinned footprint, pages
    # DAMQ
    damq_admits: int = 0         # messages admitted to the shared pool
    damq_evictions: int = 0      # occupancy-pressure evictions
    damq_share_refusals: int = 0  # refusals at the per-source share
    damq_peak_occupancy: int = 0  # high-water shared-pool occupancy


class DeliveryDiscipline:
    """Interface every delivery discipline implements.

    The NI consults the discipline at three points of the general
    delivery path — admission (:meth:`admit`), acceptance
    (:meth:`on_accept`) and disposal (:meth:`on_dispose`). The
    kernel binds itself in (:meth:`bind`) so a discipline can trigger
    buffered-mode transitions through the one legal funnel,
    :meth:`~repro.glaze.kernel.NodeKernel.enter_buffered_mode`.
    """

    name = "twocase"
    #: Does :meth:`admit` replace the fixed hardware-queue bound?
    shapes_admission = False

    def __init__(self, config: "NiConfig", ni: "NetworkInterface") -> None:
        self.config = config
        self.ni = ni
        self.kernel: Optional["NodeKernel"] = None
        self.stats = DeliveryStats()

    def bind(self, kernel: "NodeKernel") -> None:
        """Wire the node's kernel (called from ``NodeKernel.__init__``)."""
        self.kernel = kernel

    def admit(self, ni: "NetworkInterface", message: Message) -> bool:
        """May ``message`` enter the input structure right now?

        Only consulted when :attr:`shapes_admission` is true. Returning
        False leaves the message blocked in the fabric; it is retried on
        ``input_space_freed``. Implementations may trigger side effects
        (fault fallback, pressure eviction) but must never drop or
        duplicate the message.
        """
        raise NotImplementedError

    def on_accept(self, message: Message) -> None:
        """``message`` was appended to the NI input structure."""

    def on_dispose(self, message: Message) -> None:
        """``message`` left the NI input structure (user or kernel)."""

    def kernel_drain_cost(self, costs) -> int:
        """Extra cycles one kernel mismatch drain pays under this
        discipline (0 keeps the default path byte-identical — the
        kernel skips the yield entirely)."""
        return 0


class TwoCaseDiscipline(DeliveryDiscipline):
    """The paper's system: a no-op discipline, byte-identical default."""

    name = "twocase"


class ZeroCopyDiscipline(DeliveryDiscipline):
    """Pinned receive ring with protection-fault fallback."""

    name = "zerocopy"
    shapes_admission = True

    def __init__(self, config: "NiConfig", ni: "NetworkInterface") -> None:
        super().__init__(config, ni)
        self.ring_words = config.zerocopy_ring_words
        self.page_size_words = config.page_size_words
        #: msg_id -> words pinned for it in the ring.
        self._pinned: Dict[int, int] = {}

    # -- ring accounting ------------------------------------------------
    @property
    def pinned_words(self) -> int:
        return self.stats.pinned_words

    @property
    def pinned_pages(self) -> int:
        words = self.stats.pinned_words
        return -(-words // self.page_size_words) if words else 0

    def _matches_user(self, ni: "NetworkInterface", message: Message) -> bool:
        """Would this message be consumed at user level from the ring?"""
        return (
            not message.is_kernel
            and not ni.registers.divert_mode
            and message.gid == ni.registers.current_gid
        )

    def admit(self, ni: "NetworkInterface", message: Message) -> bool:
        if not self._matches_user(ni, message):
            # Mismatching (or diverted, or OS) traffic never touches the
            # user ring; the kernel drains it through the buffered path.
            return True
        if (self.stats.pinned_words + message.length_words
                <= self.ring_words):
            return True
        # Ring full: the write past the pinned region protection-faults
        # and the kernel falls back to buffered delivery for this
        # process. The message itself is *accepted* — with divert-mode
        # now set it arrives as kernel-drained buffered traffic, so
        # nothing is lost and the ring is no longer on its path.
        self.stats.fallbacks += 1
        kernel = self.kernel
        if kernel is not None:
            state = kernel._target_state(message.gid)
            if state is not None and state.mode is not DeliveryMode.BUFFERED:
                kernel.enter_buffered_mode(
                    state, TransitionReason.ZEROCOPY_FAULT)
        return True

    def on_accept(self, message: Message) -> None:
        ni = self.ni
        if not self._matches_user(ni, message):
            return
        stats = self.stats
        stats.zerocopy_accepts += 1
        self._pinned[message.msg_id] = message.length_words
        stats.pinned_words += message.length_words
        pages = self.pinned_pages
        if pages > stats.pinned_pages_peak:
            stats.pinned_pages_peak = pages

    def on_dispose(self, message: Message) -> None:
        words = self._pinned.pop(message.msg_id, None)
        if words is not None:
            self.stats.pinned_words -= words

    def kernel_drain_cost(self, costs) -> int:
        """Every kernel drain exists because a delivery faulted off the
        ring: charge the protection-fault trap and count it."""
        self.stats.fault_traps += 1
        return costs.kernel.zerocopy_fault_trap


class DamqDiscipline(DeliveryDiscipline):
    """Dynamically partitioned shared input queue (DAMQ-style)."""

    name = "damq"
    shapes_admission = True

    def __init__(self, config: "NiConfig", ni: "NetworkInterface") -> None:
        super().__init__(config, ni)
        self.capacity = config.input_queue_capacity
        #: Per-source occupancy of the shared pool.
        self.occupancy: Dict[int, int] = {}
        #: Per-source linked lists threading the shared pool.
        self._per_source: Dict[int, Deque[Message]] = {}

    # -- dynamic partitioning -------------------------------------------
    def share_limit(self, src: int) -> int:
        """This source's current share of the pool: the whole pool
        minus one reserved slot per *other* active source."""
        active = len(self.occupancy)
        if src not in self.occupancy:
            active += 1
        return max(1, self.capacity - (active - 1))

    def choose_victim(self) -> Optional[int]:
        """Eviction policy: the source with the largest occupancy
        (lowest source id on ties). Exposed for the unit tests."""
        if not self.occupancy:
            return None
        return min(self.occupancy,
                   key=lambda src: (-self.occupancy[src], src))

    def admit(self, ni: "NetworkInterface", message: Message) -> bool:
        if self.occupancy.get(message.src, 0) >= \
                self.share_limit(message.src):
            # The share bound applies even when the pool still has free
            # slots (and when this source filled it alone): a source at
            # its dynamic share is back-pressured, not allowed to evict
            # everyone else. The fabric retries on ``input_space_freed``.
            self.stats.damq_share_refusals += 1
            return False
        if len(ni._input) >= self.capacity:
            # Occupancy pressure on the full pool: evict the heaviest
            # source's traffic to the software buffer, then refuse (the
            # fabric retries once the kernel drains a slot).
            self._evict_under_pressure()
            return False
        return True

    def _evict_under_pressure(self) -> None:
        victim = self.choose_victim()
        if victim is None:
            return
        queue = self._per_source.get(victim)
        if not queue:
            return
        head = queue[0]
        kernel = self.kernel
        if kernel is None or head.is_kernel:
            return
        state = kernel._target_state(head.gid)
        if state is None or state.mode is DeliveryMode.BUFFERED:
            # Already draining through the buffered path (or the gid is
            # gone); the pending mismatch service will free slots.
            return
        kernel.enter_buffered_mode(state, TransitionReason.QUEUE_PRESSURE)
        self.stats.damq_evictions += 1

    def on_accept(self, message: Message) -> None:
        stats = self.stats
        stats.damq_admits += 1
        src = message.src
        self.occupancy[src] = self.occupancy.get(src, 0) + 1
        self._per_source.setdefault(src, deque()).append(message)
        depth = len(self.ni._input)
        if depth > stats.damq_peak_occupancy:
            stats.damq_peak_occupancy = depth

    def on_dispose(self, message: Message) -> None:
        src = message.src
        count = self.occupancy.get(src)
        if count is None:
            return
        if count <= 1:
            del self.occupancy[src]
        else:
            self.occupancy[src] = count - 1
        queue = self._per_source.get(src)
        if queue:
            # Global FIFO drain implies per-source FIFO, so the head of
            # this source's list is the disposed message.
            if queue[0].msg_id == message.msg_id:
                queue.popleft()
            else:  # pragma: no cover - defensive
                try:
                    queue.remove(message)
                except ValueError:
                    pass
            if not queue:
                del self._per_source[src]

    def kernel_drain_cost(self, costs) -> int:
        """Draining a shared pool re-links the per-source lists."""
        return costs.kernel.damq_evict_scan


_DISCIPLINES = {
    "twocase": TwoCaseDiscipline,
    "zerocopy": ZeroCopyDiscipline,
    "damq": DamqDiscipline,
}


def make_discipline(config: "NiConfig",
                    ni: "NetworkInterface") -> DeliveryDiscipline:
    """Build the discipline ``config.delivery`` names."""
    try:
        cls = _DISCIPLINES[config.delivery]
    except KeyError:
        raise ValueError(
            f"unknown delivery discipline {config.delivery!r}; "
            f"expected one of {DELIVERY_KINDS}"
        ) from None
    return cls(config, ni)


__all__ = [
    "DELIVERY_KINDS", "DamqDiscipline", "DeliveryDiscipline",
    "DeliveryStats", "TwoCaseDiscipline", "ZeroCopyDiscipline",
    "make_discipline",
]
