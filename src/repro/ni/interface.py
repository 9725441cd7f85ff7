"""The network interface proper: queues, operations, interrupt lines.

This class ties together the register file, the UAC, the atomicity
timer, the GID check and the hardware input queue, and implements the
Table 1 operations with their exact trap conditions. Interrupt delivery
is *level-triggered with an in-service latch*: a line raises once when
its condition becomes true, and again only after the service routine
completes with the condition still true — which is how the kernel's
drain loops avoid interrupt storms while never losing a wakeup.

Interrupt conditions (evaluated in :meth:`_update`):

* **mismatch-available** (kernel): a message is at the head of the input
  queue and either *divert-mode* is set or its GID differs from
  *current-gid*.
* **message-available** (user): head message matches *current-gid*,
  divert-mode clear. Delivered as a user upcall only when
  *interrupt-disable* is clear and the processor is at user level;
  otherwise the flag remains readable for polling and the condition is
  re-evaluated on ``endatom``/kernel exit.
* **atomicity-timeout** (kernel): the timer expired; the timer runs
  while the user holds *interrupt-disable* with a matching message
  pending (or *timer-force*), and ``dispose`` restarts it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from repro.sim.engine import Engine
from repro.network.fabric import NetworkFabric
from repro.network.message import KERNEL_GID, Message
from repro.ni.delivery import make_discipline
from repro.ni.registers import RegisterFile
from repro.ni.timer import AtomicityTimer
from repro.ni.traps import Trap, TrapSignal
from repro.ni.uac import UserAtomicityControl


@dataclass
class NiConfig:
    """Hardware parameters of one network interface."""

    #: Hardware input queue depth, in messages. The paper stresses the
    #: hardware cost is "a small, single message queue"; the default of
    #: 2 models the arriving-message landing register plus the window.
    #: Under ``delivery="zerocopy"`` the receive ring *is* the input
    #: structure (capacity = ring words); under ``delivery="damq"`` the
    #: shared pool replaces the fixed queue (capacity = pool slots).
    input_queue_capacity: int = 2
    #: Atomicity-timer preset, in cycles. "The exact timeout value is a
    #: free parameter that may be changed without affecting correctness."
    atomicity_timeout: int = 5000
    #: Which delivery discipline governs the input structure (see
    #: :mod:`repro.ni.delivery` and docs/DELIVERY.md).
    delivery: str = "twocase"
    #: Zero-copy receive-ring capacity, in words.
    zerocopy_ring_words: int = 512
    #: Page size used for the pinned-footprint accounting.
    page_size_words: int = 1024


@dataclass
class NiStats:
    """Per-node interface counters."""

    delivered_to_user: int = 0     # messages disposed on the fast path
    delivered_to_kernel: int = 0   # messages disposed by the kernel
    message_available_upcalls: int = 0
    mismatch_interrupts: int = 0
    atomicity_timeouts: int = 0
    max_input_queue: int = 0
    input_stalls: int = 0          # fault-injected transient stalls
    forced_timeouts: int = 0       # fault-injected timer expiries
    # perfbench reads these two names; nothing increments them.
    fast_deliveries: int = 0
    general_deliveries: int = 0


class NetworkInterface:
    """One node's FUGU network interface."""

    def __init__(self, engine: Engine, node_id: int, fabric: NetworkFabric,
                 config: Optional[NiConfig] = None) -> None:
        self.engine = engine
        self.node_id = node_id
        self.fabric = fabric
        self.config = config or NiConfig()
        self.registers = RegisterFile()
        self.uac = UserAtomicityControl()
        self.timer = AtomicityTimer(
            engine, self.config.atomicity_timeout, self._timeout_fired
        )
        self.stats = NiStats()
        self._input: Deque[Message] = deque()
        #: Delivery discipline governing the input structure. The default
        #: two-case discipline is a pure no-op; the alternatives shape
        #: admission (see repro.ni.delivery).
        self.discipline = make_discipline(self.config, self)

        # Delivery hooks, wired by the kernel and the UDM runtime.
        self.deliver_message_available: Optional[Callable[[], None]] = None
        self.deliver_mismatch_available: Optional[Callable[[], None]] = None
        self.deliver_atomicity_timeout: Optional[Callable[[], None]] = None
        #: Predicate: may a user-level upcall be raised right now?
        self.user_level_ready: Callable[[], bool] = lambda: True

        # In-service latches (see module docstring).
        self._mismatch_in_service = False
        self._upcall_in_service = False

        #: Optional observatory (set by Machine.enable_observability).
        self.obs = None
        #: Optional fault injector (set by the machine). While a stall
        #: is active the interface refuses network deliveries, exactly
        #: the full-input-queue condition the atomicity timer bounds.
        self.fault_injector = None
        self._stalled_until = -1

        fabric.attach(node_id, self)

    # ------------------------------------------------------------------
    # Status flags (readable registers)
    # ------------------------------------------------------------------
    @property
    def head(self) -> Optional[Message]:
        return self._input[0] if self._input else None

    @property
    def message_available(self) -> bool:
        """The user-visible *message-available* flag."""
        head = self.head
        return (
            head is not None
            and not head.is_kernel
            and not self.registers.divert_mode
            and head.gid == self.registers.current_gid
        )

    @property
    def mismatch_pending(self) -> bool:
        """Head message needs kernel attention: divert-mode, a GID
        mismatch, or an operating-system (kernel-GID) message."""
        head = self.head
        return head is not None and (
            self.registers.divert_mode
            or head.is_kernel
            or head.gid != self.registers.current_gid
        )

    @property
    def input_queue_length(self) -> int:
        return len(self._input)

    def space_available(self, dst: int) -> bool:
        """The *space-available* register for a described destination."""
        return self.fabric.has_credit(dst)

    # ------------------------------------------------------------------
    # Fabric-facing side
    # ------------------------------------------------------------------
    def network_deliver(self, message: Message) -> bool:
        """Fabric offers a message; accept if the input queue has room."""
        if self._stalled_until > self.engine.now:
            return False
        discipline = self.discipline
        if discipline.shapes_admission:
            # Alternative disciplines own the admission decision: the
            # zerocopy ring accounts in words (and diverts to buffered
            # mode instead of refusing), the DAMQ enforces per-source
            # share limits and triggers occupancy-pressure eviction.
            if not discipline.admit(self, message):
                return False
        elif len(self._input) >= self.config.input_queue_capacity:
            return False
        if self.fault_injector is not None:
            cycles = self.fault_injector.ni_stall_cycles(self.node_id)
            if cycles > 0:
                # Transient input stall: refuse deliveries until the
                # stall clears, then drain whatever blocked behind it.
                self._stalled_until = self.engine.now + cycles
                self.stats.input_stalls += 1
                self.engine.call_after(cycles, self._stall_over)
                return False
        self._input.append(message)
        if discipline.shapes_admission:
            discipline.on_accept(message)
        if len(self._input) > self.stats.max_input_queue:
            self.stats.max_input_queue = len(self._input)
        if self.obs is not None:
            self.obs.h_input_queue.observe(len(self._input))
        self._update()
        return True

    def _stall_over(self) -> None:
        self.fabric.input_space_freed(self.node_id)
        self._update()

    def force_timeout(self) -> None:
        """Fault hook: fire the atomicity-timeout path unconditionally,
        as if the hardware counter had just reached zero."""
        self.stats.forced_timeouts += 1
        self._timeout_fired()

    # ------------------------------------------------------------------
    # Table 1 operations
    # ------------------------------------------------------------------
    def describe(self, dst: int, handler, payload=(),
                 kernel_bit: bool = False) -> None:
        """Write the output descriptor (the first phase of inject)."""
        self.registers.output.describe(dst, handler, tuple(payload),
                                       kernel_bit)

    def launch(self, privileged: bool = False) -> Optional[Message]:
        """Commit the described message to the network (Table 1).

        Returns the in-flight message, or None when the descriptor was
        empty (launch is then a no-op, per the Table 1 guard).
        """
        output = self.registers.output
        if output.kernel_bit and not privileged:
            raise TrapSignal(Trap.PROTECTION_VIOLATION,
                             {"reason": "user launch with kernel message"})
        if output.length == 0:
            return None
        gid = KERNEL_GID if output.kernel_bit else self.registers.current_gid
        if privileged and output.kernel_bit:
            gid = KERNEL_GID
        message = Message(
            dst=output.dst,
            handler=output.handler,
            payload=output.payload,
            src=self.node_id,
            gid=gid,
        )
        output.clear()
        self.fabric.send(message)
        return message

    def launch_bulk(self, dst: int, handler, payload,
                    privileged: bool = False) -> Message:
        """Commit a bulk (user-level DMA) transfer to the network.

        Bulk transfers bypass the 16-word output buffer: the DMA engine
        reads the data from memory and streams it into the network. The
        GID stamp and protection model are identical to ``launch``.
        """
        message = Message(
            dst=dst,
            handler=handler,
            payload=tuple(payload),
            src=self.node_id,
            gid=KERNEL_GID if privileged else self.registers.current_gid,
            bulk=True,
        )
        message.validate()
        self.fabric.send(message)
        return message

    def dispose(self, privileged: bool = False) -> Message:
        """Free the head message (Table 1 trap conditions for user mode).

        The privileged form is the kernel's path for unloading the queue
        in divert mode; it bypasses the dispose-extend trap but still
        requires a message to exist.
        """
        if not privileged:
            if self.registers.divert_mode:
                raise TrapSignal(Trap.DISPOSE_EXTEND)
            if not self.message_available:
                raise TrapSignal(Trap.BAD_DISPOSE)
        elif not self._input:
            raise TrapSignal(Trap.BAD_DISPOSE,
                             {"reason": "kernel dispose on empty queue"})
        message = self._input.popleft()
        if self.discipline.shapes_admission:
            self.discipline.on_dispose(message)
        if privileged:
            self.stats.delivered_to_kernel += 1
        else:
            self.stats.delivered_to_user += 1
        # Forward progress: dispose presets (briefly disables) the timer.
        self.timer.restart()
        self.uac.dispose_pending = False
        # A slot opened: let blocked network traffic in, then re-evaluate.
        self.fabric.input_space_freed(self.node_id)
        self._update()
        return message

    def beginatom(self, mask: int) -> None:
        """UAC := UAC | mask."""
        self.uac.set_user_bits(mask)
        self._update()

    def endatom(self, mask: int) -> None:
        """Clear user UAC bits, with the Table 1 trap checks."""
        if self.uac.dispose_pending:
            raise TrapSignal(Trap.DISPOSE_FAILURE)
        if self.uac.atomicity_extend:
            raise TrapSignal(Trap.ATOMICITY_EXTEND)
        self.uac.clear_user_bits(mask)
        self._update()

    def peek(self) -> Optional[Message]:
        """Examine the next message without dequeuing it (user view)."""
        if not self.message_available:
            return None
        return self.head

    # ------------------------------------------------------------------
    # Kernel register writes
    # ------------------------------------------------------------------
    def set_divert_mode(self, value: bool, privileged: bool = True) -> None:
        self.registers.write_divert_mode(value, privileged)
        self._update()

    def set_current_gid(self, gid: int, privileged: bool = True) -> None:
        self.registers.write_current_gid(gid, privileged)
        self._update()

    def set_kernel_uac(self, dispose_pending: Optional[bool] = None,
                       atomicity_extend: Optional[bool] = None) -> None:
        """Kernel writes of the privileged UAC flags."""
        if dispose_pending is not None:
            self.uac.dispose_pending = dispose_pending
        if atomicity_extend is not None:
            self.uac.atomicity_extend = atomicity_extend

    # ------------------------------------------------------------------
    # Interrupt machinery
    # ------------------------------------------------------------------
    def reevaluate(self) -> None:
        """Re-check interrupt conditions (kernel-exit / endatom hook)."""
        self._update()

    def mismatch_serviced(self) -> None:
        """Kernel mismatch handler completed; re-arm the line."""
        self._mismatch_in_service = False
        self._update()

    def upcall_complete(self) -> None:
        """User message-available upcall completed; re-arm the line."""
        self._upcall_in_service = False
        self._update()

    def _update(self) -> None:
        self.timer.update(self._timer_condition())
        if self.mismatch_pending:
            if not self._mismatch_in_service and \
                    self.deliver_mismatch_available is not None:
                self._mismatch_in_service = True
                self.stats.mismatch_interrupts += 1
                self.deliver_mismatch_available()
            return
        if (
            self.message_available
            and not self.uac.interrupt_disable
            and not self._upcall_in_service
            and self.deliver_message_available is not None
            and self.user_level_ready()
        ):
            self._upcall_in_service = True
            self.stats.message_available_upcalls += 1
            self.deliver_message_available()

    def _timer_condition(self) -> bool:
        """Table 3: interrupt-disable with a message pending, or
        timer-force, enables the atomicity timer."""
        if self.uac.timer_force:
            return True
        return self.uac.interrupt_disable and self.message_available

    def _timeout_fired(self) -> None:
        self.stats.atomicity_timeouts += 1
        if self.deliver_atomicity_timeout is not None:
            self.deliver_atomicity_timeout()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NI node={self.node_id} q={len(self._input)} "
            f"gid={self.registers.current_gid} "
            f"divert={self.registers.divert_mode}>"
        )
