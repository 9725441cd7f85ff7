"""The node processor: preemptible execution of generator frames.

Execution model
---------------

A :class:`Frame` wraps a generator coroutine. Frames yield:

* :class:`Compute` — consume N cycles of processor time. The delay is
  *interruptible*: a frame pushed on top (an interrupt or upcall handler)
  suspends the remaining cycles, which resume when the frame is again on
  top of the stack.
* :class:`~repro.sim.events.Event` — block until the event triggers. The
  frame stays subscribed across preemptions and context switches; the
  value is kept until the frame is next runnable on top.
* :class:`Poll` — spin on a same-node condition in fixed compute
  quanta. Charged exactly like the literal ``Compute`` loop, but a
  frame alone on top parks between checks instead of scheduling one
  engine event per quantum.

The stack invariant mirrors hardware privilege: **kernel frames always
form a contiguous segment at the top of the stack**. User frames (the
scheduled job's thread, user-level upcalls, the buffered-mode drain
thread) sit below. Kernel interrupts may preempt user frames at any
cycle; while a kernel frame runs, further kernel interrupts queue and
user-level notifications are deferred (the NI re-evaluates its interrupt
conditions when control returns to user level, via the
``on_return_to_user`` hook).

Context switching is expressed with :meth:`Processor.capture_user_frames`
/ :meth:`Processor.install_user_frames`: the gang scheduler's kernel
handler lifts the whole user portion of the stack out (suspending any
in-flight compute) and installs another job's saved frames.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event


class Compute:
    """Yielded by a frame to consume ``cycles`` of processor time."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError(f"negative compute: {cycles}")
        self.cycles = int(cycles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Compute({self.cycles})"


class Poll:
    """Yielded by a frame to spin until ``ready()`` is true, checking it
    every ``interval`` cycles of processor time.

    Cycle for cycle this is the literal loop
    ``while not ready(): yield Compute(interval)``: the same wakes that
    check ``ready()``, the same user/kernel charges, the same finish
    cycle. Only the engine events of the checks that cannot succeed
    are elided:

    * at entry, a true ``ready()`` continues with zero cycles;
      otherwise the first quantum is armed and charged as a
      :class:`Compute` would be;
    * at a real wake, a true ``ready()`` resumes the generator; a false
      one parks the frame in :attr:`FrameState.POLL` at that quantum
      boundary and schedules nothing;
    * a push over a parked frame (or ``capture_user_frames``) charges
      the cycles spun since the boundary and leaves the frame
      mid-quantum with ``interval - elapsed % interval`` cycles to go;
      resuming arms a real wake for them, which re-checks ``ready()``.

    This is exact under a contract the caller must keep:

    * ``ready()`` changes only while the polling frame is off the top
      of its own processor — i.e. it is written by a handler frame
      running on the same node. A check that would run while the frame
      is on top could then never succeed, so skipping it is invisible.
    * ``interval >= 2`` (enforced). At an elided boundary the literal
      loop's wake runs *before* any push landing on the same cycle:
      that wake was appended a whole interval earlier, while a push
      arrives either as a same-cycle schedule appended to the live
      bucket or through a timed retry scheduled at most one cycle
      ahead, hence appended after it. So a push exactly on a boundary finds that boundary's
      check already done, and the remainder is a full ``interval``.

    Conditions that change from other nodes or from NI arrivals while
    the poller is on top (a mailbox drain wait, ``wait_message``) do
    not meet the contract and must stay literal ``Compute`` loops.
    """

    __slots__ = ("ready", "interval")

    def __init__(self, ready: Callable[[], bool], interval: int) -> None:
        if interval < 2:
            raise ValueError(f"poll interval must be >= 2: {interval}")
        self.ready = ready
        self.interval = int(interval)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Poll({self.ready!r}, {self.interval})"


class FrameState(enum.Enum):
    READY = "ready"            # runnable, waiting to be on top
    RUNNING = "running"        # being advanced right now
    DELAY = "delay"            # in a Compute or Poll quantum, wake armed
    DELAY_SUSPENDED = "delay_suspended"  # preempted mid-Compute
    POLL = "poll"              # parked in a Poll between quanta, no wake
    WAITING = "waiting"        # blocked on an Event
    DONE = "done"


FrameGen = Generator[Any, Any, Any]


class Frame:
    """One schedulable coroutine on the processor stack."""

    __slots__ = (
        "gen", "name", "kernel", "state", "on_done",
        "_delay_end", "_remaining", "_wake", "_wait_event", "_poll",
        "_ready_value", "_has_ready_value", "result", "job_gid",
    )

    def __init__(self, gen: FrameGen, name: str, kernel: bool = False,
                 on_done: Optional[Callable[[Any], None]] = None,
                 job_gid: Optional[int] = None) -> None:
        self.gen = gen
        self.name = name
        self.kernel = kernel
        self.state = FrameState.READY
        self.on_done = on_done
        self.job_gid = job_gid
        self._delay_end = 0
        self._remaining = 0
        self._wake = None
        self._wait_event: Optional[Event] = None
        #: The Poll in progress; its wakes re-check ``ready()`` instead
        #: of resuming the generator.
        self._poll: Optional[Poll] = None
        self._ready_value: Any = None
        self._has_ready_value = False
        self.result: Any = None

    @property
    def finished(self) -> bool:
        return self.state is FrameState.DONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "K" if self.kernel else "U"
        return f"<Frame[{kind}] {self.name} {self.state.value}>"


class Processor:
    """A single in-order processor with an interrupt/preemption stack."""

    def __init__(self, engine: Engine, node_id: int) -> None:
        self.engine = engine
        self.node_id = node_id
        self._stack: List[Frame] = []
        self._pending_kernel: Deque[Callable[[], Frame]] = deque()
        #: Hooks called when control returns to user level or the CPU
        #: goes idle — the NI uses this to re-evaluate level-triggered
        #: interrupt conditions that arose while the kernel was running.
        self.on_return_to_user: List[Callable[[], None]] = []
        # Accounting.
        self.user_cycles = 0
        self.kernel_cycles = 0
        self._busy_since: Optional[int] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current(self) -> Optional[Frame]:
        return self._stack[-1] if self._stack else None

    @property
    def in_kernel(self) -> bool:
        top = self.current
        return top is not None and top.kernel

    @property
    def idle(self) -> bool:
        return not self._stack

    def user_depth(self) -> int:
        """Number of user frames at the bottom of the stack."""
        count = 0
        for frame in self._stack:
            if frame.kernel:
                break
            count += 1
        return count

    # ------------------------------------------------------------------
    # Frame entry points
    # ------------------------------------------------------------------
    def push_frame(self, frame: Frame) -> None:
        """Preempt the current top (if any) and run ``frame``.

        Kernel-frame stacking invariant: a user frame may never be pushed
        on top of a kernel frame.
        """
        top = self.current
        if top is not None:
            if top.kernel and not frame.kernel:
                raise SimulationError(
                    f"user frame {frame.name} pushed over kernel frame "
                    f"{top.name} on node {self.node_id}"
                )
            self._suspend(top)
        self._stack.append(frame)
        self._kick(frame)

    def raise_kernel(self, frame_factory: Callable[[], Optional[Frame]]) -> None:
        """Deliver a kernel interrupt.

        Delivery is deferred through the event loop so a raise issued
        synchronously from inside a running frame step never preempts
        mid-step. At delivery time the interrupt queues behind any
        kernel frame in service; the factory runs only when the frame
        is about to execute, and may return ``None`` to abort (the
        condition that raised the interrupt has evaporated).
        """
        self.engine.call_soon(self._deliver_kernel, frame_factory)

    def _deliver_kernel(self, factory: Callable[[], Optional[Frame]]) -> None:
        if self.in_kernel:
            self._pending_kernel.append(factory)
            return
        frame = factory()
        if frame is not None:
            self.push_frame(frame)

    def raise_user_upcall(self, frame_factory: Callable[[], Optional[Frame]]) -> None:
        """Deliver a user-level interrupt (message-available upcall).

        Deferred like :meth:`raise_kernel`. If the kernel is running at
        delivery time the upcall is dropped — the NI re-evaluates its
        interrupt conditions when control returns to user level, so no
        wakeup is lost. The factory may return ``None`` to abort.
        """
        self.engine.call_soon(self._deliver_upcall, frame_factory)

    def _deliver_upcall(self, factory: Callable[[], Optional[Frame]]) -> None:
        if self.in_kernel:
            return
        frame = factory()
        if frame is not None:
            self.push_frame(frame)

    # ------------------------------------------------------------------
    # Context switch support (used by the gang scheduler)
    # ------------------------------------------------------------------
    def capture_user_frames(self) -> List[Frame]:
        """Remove and return the user portion of the stack (bottom-up).

        Frames keep their suspended compute remainders and event
        subscriptions, so installing them later resumes execution
        exactly where it stopped. Must be called from kernel context so
        that no user frame is mid-``RUNNING``.
        """
        split = self.user_depth()
        captured, self._stack = self._stack[:split], self._stack[split:]
        for frame in captured:
            # Top user frame may hold a live wake if capture happens
            # outside any kernel frame; suspend defensively.
            self._suspend(frame)
        return captured

    def install_user_frames(self, frames: List[Frame]) -> None:
        """Insert saved user frames under any kernel frames.

        Installing an empty set is a no-op: a context switch that found
        nothing to capture (the job's frames all finished, or another
        switch already holds them) must not conflict with a concurrent
        reinstall.
        """
        if not frames:
            return
        if self.user_depth() != 0:
            raise SimulationError(
                f"node {self.node_id}: installing user frames over "
                "existing user frames"
            )
        self._stack[0:0] = frames
        if frames and self._stack[-1] is frames[-1]:
            # No kernel frames above: the installed top resumes now.
            self._resume_top()

    # ------------------------------------------------------------------
    # Core state machine
    # ------------------------------------------------------------------
    def _kick(self, frame: Frame) -> None:
        """Schedule the first advance of a freshly (re)topped frame."""
        self.engine.call_soon(self._kick_top, frame)

    def _kick_top(self, frame: Frame) -> None:
        self._advance_if_top(frame, None)

    def _advance_if_top(self, frame: Frame, value: Any) -> None:
        if frame is not self.current or frame.state is FrameState.DONE:
            return  # stale kick (frame was preempted or switched out)
        if frame.state not in (FrameState.READY, FrameState.RUNNING):
            return
        self._advance(frame, value)

    def _advance(self, frame: Frame, value: Any) -> None:
        engine = self.engine
        while True:
            frame.state = FrameState.RUNNING
            try:
                op = frame.gen.send(value)
            except StopIteration as stop:
                self._finish(frame, stop.value)
                return
            if isinstance(op, Compute):
                cycles = op.cycles
                if cycles == 0:
                    value = None
                    continue
            elif isinstance(op, Event):
                if op.triggered:
                    value = op.value
                    continue
                frame.state = FrameState.WAITING
                frame._wait_event = op
                op.subscribe(self._event_fired, frame)
                return
            elif isinstance(op, Poll):
                if op.ready():
                    value = None
                    continue
                frame._poll = op
                cycles = op.interval
            else:
                raise SimulationError(
                    f"frame {frame.name} yielded unsupported {op!r}"
                )
            frame.state = FrameState.DELAY
            frame._delay_end = engine.now + cycles
            frame._wake = engine.call_at(
                frame._delay_end, self._delay_done, frame
            )
            self._charge(frame, cycles)
            return

    def _delay_done(self, frame: Frame) -> None:
        # The wake is cancelled on suspend, so arriving here means the
        # frame is on top and its compute interval completed.
        frame._wake = None
        if frame is not self.current:
            raise SimulationError(
                f"delay completed for non-top frame {frame.name}"
            )
        poll = frame._poll
        if poll is not None:
            if not poll.ready():
                # Nothing can flip ready() while this frame stays on
                # top, so park at this boundary until a push lands.
                frame.state = FrameState.POLL
                return
            frame._poll = None
        self._advance(frame, None)

    def _event_fired(self, frame: Frame, value: Any) -> None:
        frame._wait_event = None
        if frame.state is FrameState.DONE:
            return
        if frame is self.current and frame.state is FrameState.WAITING:
            frame.state = FrameState.READY
            # Serialize through the engine to avoid re-entrant advance
            # from inside another frame's step.
            self.engine.call_soon(self._advance_ready_boxed, (frame, value))
        else:
            frame._ready_value = value
            frame._has_ready_value = True
            frame.state = FrameState.READY

    def _advance_ready_boxed(self, pair) -> None:
        """Single-argument adapter so ready advances can be scheduled
        closure-free (the engine passes one ``arg`` through)."""
        self._advance_if_ready(pair[0], pair[1])

    def _advance_if_ready(self, frame: Frame, value: Any) -> None:
        if frame is not self.current or frame.state is not FrameState.READY:
            # Preempted between trigger and advance; value saved below.
            if frame.state is FrameState.READY:
                frame._ready_value = value
                frame._has_ready_value = True
            return
        self._advance(frame, value)

    def _suspend(self, frame: Frame) -> None:
        if frame.state is FrameState.DELAY:
            frame._wake.cancel()
            frame._wake = None
            frame._remaining = frame._delay_end - self.engine.now
            # Uncharge the cycles that will be re-charged on resume.
            self._charge(frame, -frame._remaining)
            frame.state = FrameState.DELAY_SUSPENDED
        elif frame.state is FrameState.POLL:
            # Charge the quanta spun since the parking boundary
            # (``_delay_end``) and leave the frame mid-quantum, as the
            # literal loop would be. A push exactly on an elided
            # boundary comes after that boundary's check: a full
            # quantum remains.
            interval = frame._poll.interval
            elapsed = self.engine.now - frame._delay_end
            self._charge(frame, elapsed)
            frame._remaining = interval - elapsed % interval
            frame.state = FrameState.DELAY_SUSPENDED
        elif frame.state is FrameState.RUNNING:
            raise SimulationError(
                f"cannot suspend frame {frame.name} mid-step"
            )
        # READY / WAITING frames carry their state across suspension.

    def _resume_top(self) -> None:
        frame = self.current
        if frame is None:
            return
        if frame.state is FrameState.DELAY_SUSPENDED:
            frame.state = FrameState.DELAY
            frame._delay_end = self.engine.now + frame._remaining
            self._charge(frame, frame._remaining)
            frame._wake = self.engine.call_at(
                frame._delay_end, self._delay_done, frame
            )
        elif frame.state is FrameState.READY:
            if frame._has_ready_value:
                value, frame._ready_value = frame._ready_value, None
                frame._has_ready_value = False
                self.engine.call_soon(
                    self._advance_ready_boxed, (frame, value)
                )
            else:
                self._kick(frame)
        # WAITING frames stay blocked until their event fires.

    def _finish(self, frame: Frame, result: Any) -> None:
        if frame is not self.current:
            raise SimulationError(
                f"frame {frame.name} finished while not on top"
            )
        self._stack.pop()
        frame.state = FrameState.DONE
        frame.result = result
        was_kernel = frame.kernel
        if frame.on_done is not None:
            frame.on_done(result)
        # The on_done callback may have pushed new frames (e.g. a trap
        # handler chaining into another kernel service); only dispatch
        # queued interrupts if no kernel frame took over.
        if was_kernel:
            while self._pending_kernel and not self.in_kernel:
                factory = self._pending_kernel.popleft()
                pending = factory()
                if pending is not None:
                    self.push_frame(pending)
                    return
        self._resume_top()
        if not self.in_kernel:
            for hook in list(self.on_return_to_user):
                hook()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _charge(self, frame: Frame, cycles: int) -> None:
        if frame.kernel:
            self.kernel_cycles += cycles
        else:
            self.user_cycles += cycles

    @property
    def busy_cycles(self) -> int:
        return self.user_cycles + self.kernel_cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Processor node={self.node_id} depth={len(self._stack)} "
            f"top={self.current and self.current.name}>"
        )
