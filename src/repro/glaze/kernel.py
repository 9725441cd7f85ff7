"""The per-node Glaze kernel.

One :class:`NodeKernel` per node owns:

* the NI interrupt vectors — *mismatch-available* (demultiplex diverted
  messages into per-job virtual buffers, Figure 5) and
  *atomicity-timeout* (revoke the user's interrupt-disable privilege and
  enter buffered mode);
* the synchronous trap services (Table 2): dispose-extend emulation,
  atomicity-extend (spawn the buffered-mode message-handling thread),
  page faults, and the fatal protocol traps;
* two-case mode transitions: entering buffered mode for any of the
  Section 4.3 reasons, and the buffer-drained exit back to fast mode;
* the context-switch path used by the gang scheduler, including save and
  restore of the user's UAC bits and the quantum-start transition into
  buffered mode when messages accumulated while the job was out;
* the guaranteed-delivery path: when the frame pool is empty, the
  insertion handler pages space out over the second network and invokes
  overflow control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Optional

from repro.core.two_case import DeliveryMode, TransitionReason
from repro.machine.processor import Compute, Frame
from repro.network.message import KERNEL_GID, Message
from repro.ni.traps import Trap, TrapSignal
from repro.glaze.jobs import Job, JobNodeState

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.machine.node import Node
    from repro.machine.machine import Machine


class GlazeError(RuntimeError):
    """Fatal operating-system-level condition in the simulation."""


class ApplicationProtocolError(GlazeError):
    """An application violated the UDM discipline (e.g. dispose-failure)."""


@dataclass
class KernelStats:
    mismatch_services: int = 0
    messages_inserted: int = 0
    insert_cycles: int = 0
    vmalloc_inserts: int = 0
    dropped_unknown_gid: int = 0
    revocations: int = 0
    watchdog_fires: int = 0
    page_faults: int = 0
    page_outs: int = 0
    context_switches: int = 0
    kernel_messages: int = 0


class NodeKernel:
    """Glaze on one node."""

    def __init__(self, node: "Node", machine: "Machine") -> None:
        self.node = node
        self.machine = machine
        self.stats = KernelStats()
        #: The job currently scheduled on this node (None = idle).
        self.scheduled: Optional[JobNodeState] = None
        #: Kernel-message services, by handler name.
        self._services: Dict[str, Callable[[Message], Generator]] = {}
        #: Set when the mismatch service left a message in the network
        #: (pinned queue full): re-delivery retries after a delay.
        self._mismatch_retry = False
        #: Message popped from the NI but not yet inserted/dispatched —
        #: the mismatch service holds it across its yields. Tracked so
        #: the invariant checker can count it as resident, not lost.
        self.in_transit: Optional[Message] = None

        ni = node.ni
        ni.discipline.bind(self)
        ni.deliver_mismatch_available = self._raise_mismatch
        ni.deliver_atomicity_timeout = self._raise_timeout
        ni.deliver_message_available = self._raise_message_available
        ni.user_level_ready = lambda: not node.processor.in_kernel
        node.processor.on_return_to_user.append(ni.reevaluate)
        machine.second_network.attach(node.node_id, self._second_net_service)

    # ------------------------------------------------------------------
    # Shorthand
    # ------------------------------------------------------------------
    @property
    def ni(self):
        return self.node.ni

    @property
    def processor(self):
        return self.node.processor

    @property
    def costs(self):
        return self.machine.costs

    @property
    def engine(self):
        return self.machine.engine

    @property
    def _always_buffered(self) -> bool:
        """No fast case exists: the always-buffered ablation or the
        memory-based baseline architecture."""
        from repro.core.two_case import DeliveryArchitecture

        config = self.machine.config
        return (
            config.force_buffered
            or config.architecture is DeliveryArchitecture.MEMORY_BASED
        )

    # ------------------------------------------------------------------
    # Kernel services (messages on the main network with the kernel GID,
    # and service requests on the second network)
    # ------------------------------------------------------------------
    def register_service(self, name: str,
                         handler: Callable[[Message], Generator]) -> None:
        if name in self._services:
            raise ValueError(f"kernel service {name!r} already registered")
        self._services[name] = handler

    def _second_net_service(self, src: int, kind: str, payload: Any) -> None:
        """Second-network messages: overflow-control coordination."""
        if kind == "suspend-job":
            job = self.machine.job_by_gid(payload["gid"])
            if job is not None:
                job.suspended = True
        elif kind == "resume-job":
            job = self.machine.job_by_gid(payload["gid"])
            if job is not None:
                job.suspended = False
        # Unknown kinds are ignored: the second network is best-effort
        # infrastructure shared with other users (e.g. shared memory).

    # ------------------------------------------------------------------
    # Interrupt delivery
    # ------------------------------------------------------------------
    def _raise_mismatch(self) -> None:
        self.processor.raise_kernel(self._mismatch_factory)

    def _mismatch_factory(self) -> Optional[Frame]:
        ni = self.ni
        if not ni.mismatch_pending:
            # Condition evaporated (e.g. divert cleared) before delivery.
            ni.mismatch_serviced()
            return None
        return Frame(
            self._mismatch_service(), name=f"k:mismatch@{self.node.node_id}",
            kernel=True, on_done=lambda _res: self._mismatch_done(),
        )

    def _mismatch_done(self) -> None:
        if self._mismatch_retry:
            # A pinned queue was full: hold the message in the network
            # and retry delivery after the hardware's backoff.
            self._mismatch_retry = False
            self.engine.call_after(self.costs.kernel.pinned_retry_delay,
                                   self.ni.mismatch_serviced)
            return
        self.ni.mismatch_serviced()

    def _raise_message_available(self) -> None:
        """Route the user interrupt to the scheduled job's runtime."""
        state = self.scheduled
        if state is None or state.runtime is None:
            # No user context can take the upcall; drop the latch
            # without re-evaluating (the next state change re-raises).
            self.ni._upcall_in_service = False
            return
        state.runtime.raise_upcall()

    def _raise_timeout(self) -> None:
        self.processor.raise_kernel(self._timeout_factory)

    def _timeout_factory(self) -> Optional[Frame]:
        return Frame(
            self._timeout_service(), name=f"k:timeout@{self.node.node_id}",
            kernel=True,
        )

    # ------------------------------------------------------------------
    # Mismatch-available service: the buffer-insertion handler
    # ------------------------------------------------------------------
    def _mismatch_service(self) -> Generator:
        """Drain mismatching messages into software buffers (Figure 5)."""
        self.stats.mismatch_services += 1
        yield Compute(self.costs.kernel.mismatch_entry)
        ni = self.ni
        # Discipline surcharge: zerocopy charges the protection-fault
        # trap that redirected delivery here, damq the eviction scan.
        # The default discipline returns 0 and the yield is skipped, so
        # the two-case path stays byte-identical.
        extra = ni.discipline.kernel_drain_cost(self.costs)
        if extra:
            yield Compute(extra)
        while ni.mismatch_pending:
            head = ni.head
            if not head.is_kernel:
                target = self._target_state(head.gid)
                if target is not None and \
                        self._pinned_queue_full(target, head):
                    # Memory-based backpressure: leave the message in
                    # the network and retry after a delay.
                    self._mismatch_retry = True
                    return
            message = ni.dispose(privileged=True)
            self.in_transit = message
            if message.is_kernel:
                yield from self._dispatch_kernel_message(message)
                self.in_transit = None
                continue
            state = self._target_state(message.gid)
            if state is None:
                self.stats.dropped_unknown_gid += 1
                self.in_transit = None
                continue
            yield from self._insert_into_buffer(state, message)
            self.in_transit = None

    def _target_state(self, gid: int) -> Optional[JobNodeState]:
        job = self.machine.job_by_gid(gid)
        if job is None:
            return None
        return job.node_states.get(self.node.node_id)

    @staticmethod
    def _pinned_queue_full(state: JobNodeState, message: Message) -> bool:
        from repro.glaze.buffering import PinnedQueue

        buffer = state.buffer
        if not isinstance(buffer, PinnedQueue):
            return False
        return (buffer.words_in_use + message.length_words
                > buffer.capacity_words)

    def _insert_into_buffer(self, state: JobNodeState,
                            message: Message) -> Generator:
        """Insert one message into a job's virtual buffer, handling
        page allocation, pool exhaustion and overflow control."""
        from repro.glaze.buffering import PinnedQueue

        if isinstance(state.buffer, PinnedQueue):
            # Memory-based baseline: the hardware demultiplexes into
            # the pinned queue; capacity was checked before dispose.
            yield Compute(self.costs.kernel.hardware_demux)
            state.buffer.insert(message)
            self.node.dma.transfer(message.length_words)
            if self.machine.tracer is not None:
                from repro.analysis.trace import TraceEvent

                self.machine.tracer.record(
                    self.engine.now, TraceEvent.BUFFER_INSERT,
                    message.msg_id, self.node.node_id, "pinned queue",
                )
            self.stats.messages_inserted += 1
            state.job.two_case.buffered_messages += 1
            if state is self.scheduled:
                self._maybe_start_drain(state)
            return
        if state.mode is not DeliveryMode.BUFFERED:
            # First diverted message for a descheduled (or just-revoked)
            # process: it is now in buffered mode.
            reason = (
                TransitionReason.GID_MISMATCH
                if state is not self.scheduled
                else TransitionReason.EXPLICIT
            )
            self.enter_buffered_mode(state, reason)
        while True:
            pages = state.buffer.pages_needed(message)
            if self.node.frame_pool.free_frames >= pages:
                break
            # Guaranteed delivery: page out over the second network.
            yield from self._page_out_for_space(state)
        obs = self.machine.obs
        if obs is not None:
            obs.h_insert_pages.observe(pages)
        cost = self.costs.buffered.insert_cost_pages(pages)
        yield Compute(cost)
        self.stats.insert_cycles += cost
        self.stats.vmalloc_inserts += pages
        state.buffer.insert(message)
        # The message body moves by DMA, costing no processor cycles.
        self.node.dma.transfer(message.length_words)
        if self.machine.tracer is not None:
            from repro.analysis.trace import TraceEvent

            self.machine.tracer.record(
                self.engine.now, TraceEvent.BUFFER_INSERT,
                message.msg_id, self.node.node_id,
                f"gid={message.gid}",
            )
        self.stats.messages_inserted += 1
        state.job.two_case.buffered_messages += 1
        self.machine.overflow.on_insert(self, state)
        if state is self.scheduled:
            self._maybe_start_drain(state)

    def _page_out_for_space(self, state: JobNodeState) -> Generator:
        """The deadlock-free path to backing store (Section 4.2)."""
        self.stats.page_outs += 1
        self.machine.overflow.on_frames_exhausted(self, state)
        # Request the page-out over the reserved second network and wait
        # out the backing-store latency; one frame then frees up.
        self.machine.second_network.send(
            self.node.node_id, self.node.node_id, "page-out",
            {"gid": state.gid}, words=self.machine.config.page_size_words,
        )
        yield Compute(self.costs.kernel.page_out)
        self.node.frame_pool.loan_frame()

    def _dispatch_kernel_message(self, message: Message) -> Generator:
        self.stats.kernel_messages += 1
        service = self._services.get(message.handler)
        if service is None:
            raise GlazeError(
                f"no kernel service {message.handler!r} on node "
                f"{self.node.node_id}"
            )
        yield from service(message)

    # ------------------------------------------------------------------
    # Atomicity-timeout service: revocation
    # ------------------------------------------------------------------
    def _timeout_service(self) -> Generator:
        """Act on an expired atomicity timer.

        Under the default ``REVOKE`` policy: switch from physical
        atomicity (a disabled queue) to virtual atomicity (messages
        buffered and hidden until the atomic section exits). The pending
        message(s) divert into the buffer via the mismatch path the
        moment divert-mode is set.

        Under the optional ``WATCHDOG`` policy (Polling Watchdog): the
        kernel strips the user's interrupt-disable so the pending
        message's user interrupt fires immediately — accelerating
        sluggish polling at the cost of the polling-mode atomicity
        guarantee.
        """
        from repro.core.atomicity import TimeoutPolicy

        yield Compute(self.costs.kernel.mode_transition)
        state = self.scheduled
        if state is None:
            return
        policy = getattr(self.machine.config, "timeout_policy",
                         TimeoutPolicy.REVOKE)
        if policy is TimeoutPolicy.WATCHDOG and self.ni.message_available:
            self.stats.watchdog_fires += 1
            self.ni.uac.interrupt_disable = False
            self.ni.reevaluate()
            return
        self.stats.revocations += 1
        if state.mode is DeliveryMode.FAST:
            self.enter_buffered_mode(state, TransitionReason.ATOMICITY_TIMEOUT)
        # The user keeps the illusion of atomicity; when it ends the
        # endatom traps (atomicity-extend) and the drain thread starts.
        self.ni.set_kernel_uac(atomicity_extend=True)

    # ------------------------------------------------------------------
    # Two-case mode transitions
    # ------------------------------------------------------------------
    def enter_buffered_mode(self, state: JobNodeState,
                            reason: TransitionReason) -> None:
        if state.mode is DeliveryMode.BUFFERED:
            return
        state.mode = DeliveryMode.BUFFERED
        state.job.two_case.note_transition(reason)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.record_mode(self.engine.now, self.node.node_id,
                               state.gid, True, reason.value)
        obs = self.machine.obs
        if obs is not None:
            obs.note_event("mode-enter", node=self.node.node_id,
                           gid=state.gid, reason=reason.value)
        if state.runtime is not None:
            state.runtime.on_enter_buffered()
        if state is self.scheduled:
            self.ni.set_divert_mode(True)

    def exit_buffered_syscall(self, state: JobNodeState) -> Generator:
        """Runtime syscall: leave buffered mode if the buffer is empty.

        Returns True on success. Runs inline in the calling user frame;
        the empty check and the divert clear happen without a yield in
        between, so no message can slip past the transition.
        """
        yield Compute(self.costs.kernel.mode_transition)
        if self._always_buffered:
            return False  # no fast case in this configuration
        if not state.buffer.empty or state.mode is not DeliveryMode.BUFFERED:
            return False
        state.mode = DeliveryMode.FAST
        state.drain_active = False
        state.job.two_case.transitions_to_fast += 1
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.record_mode(self.engine.now, self.node.node_id,
                               state.gid, False, "drained")
        obs = self.machine.obs
        if obs is not None:
            obs.note_event("mode-exit", node=self.node.node_id,
                           gid=state.gid, reason="drained")
        self.ni.set_kernel_uac(atomicity_extend=False)
        if state.runtime is not None:
            state.runtime.on_exit_buffered()
        if state is self.scheduled:
            self.ni.set_divert_mode(False)
        return True

    # ------------------------------------------------------------------
    # Buffered-mode drain thread management
    # ------------------------------------------------------------------
    def _maybe_start_drain(self, state: JobNodeState) -> None:
        """Create the high-priority message-handling thread if needed.

        Section 4.2: if the application is inside an atomic section (or
        a handler), that thread keeps draining and the kernel merely
        arms atomicity-extend; otherwise a new message-handling thread
        runs the handlers of the buffered messages.
        """
        if (
            state.mode is not DeliveryMode.BUFFERED
            or state is not self.scheduled
            or state.drain_active
            or state.buffer.empty
            or state.runtime is None
        ):
            return
        if self.ni.uac.interrupt_disable:
            # Mid-atomic-section: defer until endatom traps.
            self.ni.set_kernel_uac(atomicity_extend=True)
            return
        state.drain_active = True
        self._push_drain_frame(state)

    def _push_drain_frame(self, state: JobNodeState, attempts: int = 0) -> None:
        """Push the drain thread above the job's current thread.

        Deferred until the processor is at user level; conditions are
        re-verified at push time (the job may have been descheduled).
        """
        self.engine.call_soon(self._try_push_drain, state)

    def _try_push_drain(self, state: JobNodeState) -> None:
        if (
            not state.installed
            or state.mode is not DeliveryMode.BUFFERED
            or state.buffer.empty
        ):
            state.drain_active = False
            return
        if self.processor.in_kernel:
            self.engine.call_after(1, self._try_push_drain, state)
            return
        frame = Frame(
            state.runtime.drain_loop(),
            name=f"drain:{state.job.name}@{self.node.node_id}",
            kernel=False,
            on_done=lambda _res: self._drain_finished(state),
            job_gid=state.gid,
        )
        self.processor.push_frame(frame)

    def _drain_finished(self, state: JobNodeState) -> None:
        state.drain_active = False
        # If messages arrived after the drain checked (and the exit
        # syscall refused), a fresh drain starts.
        self._maybe_start_drain(state)

    # ------------------------------------------------------------------
    # Synchronous traps (run inline in the trapping user frame)
    # ------------------------------------------------------------------
    def service_trap(self, signal: TrapSignal, state: JobNodeState,
                     endatom_mask: int = 0b11) -> Generator:
        """Handle a trap raised by an NI operation in user code."""
        trap = signal.trap
        yield Compute(self.costs.kernel.trap_overhead)
        if trap is Trap.ATOMICITY_EXTEND:
            self._trap_atomicity_extend(state, endatom_mask)
        elif trap is Trap.PAGE_FAULT:
            yield from self._trap_page_fault(state)
        elif trap is Trap.DISPOSE_FAILURE:
            raise ApplicationProtocolError(
                f"job {state.job.name} ended an atomic section without "
                "freeing the pending message (dispose-failure)"
            )
        elif trap is Trap.BAD_DISPOSE:
            raise ApplicationProtocolError(
                f"job {state.job.name} executed dispose with no pending "
                "message (bad-dispose)"
            )
        elif trap is Trap.PROTECTION_VIOLATION:
            raise ApplicationProtocolError(
                f"job {state.job.name} protection violation: {signal.info}"
            )
        else:  # pragma: no cover - defensive
            raise GlazeError(f"unhandled trap {trap}")

    def _trap_atomicity_extend(self, state: JobNodeState, mask: int) -> None:
        """The user's atomic section ended after a revocation: clear the
        flag, complete the endatom, and start the drain thread."""
        self.ni.set_kernel_uac(atomicity_extend=False)
        self.ni.uac.clear_user_bits(mask)
        self.ni.reevaluate()
        self._maybe_start_drain(state)

    def _trap_page_fault(self, state: JobNodeState) -> Generator:
        """A handler touched an unmapped page: switch to buffered mode
        for the duration (the network must not stay blocked)."""
        self.stats.page_faults += 1
        state.job.stats.page_faults_simulated += 1
        if state.mode is DeliveryMode.FAST:
            self.enter_buffered_mode(state, TransitionReason.PAGE_FAULT)
        # Zero-fill service time: map the page and return to the user.
        # With the frame pool dry, the page is reclaimed from the job's
        # own working set instead (a soft fault) — a fault storm must
        # degrade, not crash, and the remaining frames stay contended
        # by virtual buffering under its own overflow control.
        if state.space.pool.free_frames > 0:
            state.space.map_fresh_page()
        yield Compute(self.costs.kernel.page_out // 10)

    # ------------------------------------------------------------------
    # Context switching (driven by the gang scheduler)
    # ------------------------------------------------------------------
    def context_switch_factory(self) -> Frame:
        return Frame(
            self._context_switch(), name=f"k:cswitch@{self.node.node_id}",
            kernel=True,
        )

    def _context_switch(self) -> Generator:
        self.stats.context_switches += 1
        yield Compute(self.costs.kernel.context_switch)
        old = self.scheduled
        if old is not None:
            self._save_job(old)
        new = self.machine.scheduler.pick_next(self.node.node_id)
        self.scheduled = new
        if new is None:
            self.ni.set_current_gid(KERNEL_GID)
            return
        self._install_job(new)

    def _save_job(self, state: JobNodeState) -> None:
        processor = self.processor
        state.frames = processor.capture_user_frames()
        uac = self.ni.uac
        state.uac_saved = uac.snapshot()
        uac.interrupt_disable = False
        uac.timer_force = False
        self.ni.set_kernel_uac(dispose_pending=False, atomicity_extend=False)
        state.installed = False
        state.job.stats.scheduled_cycles += self.engine.now - state.installed_at

    def _install_job(self, state: JobNodeState) -> None:
        ni = self.ni
        state.installed = True
        state.installed_at = self.engine.now
        ni.set_current_gid(state.gid)
        ni.uac.restore(state.uac_saved)
        if self._always_buffered and state.mode is DeliveryMode.FAST:
            self.enter_buffered_mode(state, TransitionReason.EXPLICIT)
        if state.mode is DeliveryMode.FAST and not state.buffer.empty:
            # Messages accumulated while descheduled: begin the quantum
            # in buffered mode (Section 4.3, "Mode Transition").
            self.enter_buffered_mode(state, TransitionReason.QUANTUM_START)
        else:
            ni.set_divert_mode(state.mode is DeliveryMode.BUFFERED)
        if state.frames:
            frames, state.frames = state.frames, []
            self.processor.install_user_frames(frames)
        self._maybe_start_drain(state)
        ni.reevaluate()
