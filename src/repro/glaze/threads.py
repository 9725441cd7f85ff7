"""User-level threads for UDM applications.

The UDM model "assumes an execution model in which one or more threads
run on each processor ... UDM is compatible with extremely lightweight
thread systems in which message handlers are occasionally or routinely
converted to threads after executing only the minimal code required to
communicate with the network interface" (Section 3).

This module provides that thread system as a cooperative, user-level
library an application main thread hosts: threads are generator
coroutines scheduled by priority and round-robin within a priority,
with ``Compute``/Event yields passing straight through to the
processor. It is the application-visible counterpart of the
buffered-mode "message-handling thread" machinery (which the kernel
implements directly with processor frames); here it lets applications
convert handlers to threads, overlap waiting with work, and build the
handler-spawns-worker pattern the paper describes.

Usage (inside an application's ``main``)::

    threads = UserThreadLib()
    threads.spawn(worker_a(rt), name="a")
    threads.spawn(worker_b(rt), name="b", priority=1)
    yield from threads.run()          # until every thread finishes

Handlers may call ``threads.spawn`` (it is a plain function), which is
exactly "converting a handler to a thread": the handler does the
minimal NI work and hands the rest to the scheduler.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, List, Optional

from repro.machine.processor import Compute
from repro.sim.events import Event

_thread_ids = itertools.count(1)


class Thread:
    """One user-level thread: a generator plus scheduling state."""

    __slots__ = ("tid", "name", "gen", "priority", "state", "result",
                 "done", "_wait_event", "_wake_value")

    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    FINISHED = "finished"

    def __init__(self, gen: Generator, name: str = "",
                 priority: int = 0) -> None:
        self.tid = next(_thread_ids)
        self.name = name or f"thread-{self.tid}"
        self.gen = gen
        self.priority = priority
        self.state = Thread.RUNNABLE
        self.result: Any = None
        self.done = Event(f"{self.name}.done")
        self._wait_event: Optional[Event] = None
        self._wake_value: Any = None

    @property
    def finished(self) -> bool:
        return self.state == Thread.FINISHED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Thread {self.name} {self.state} prio={self.priority}>"


class Yield:
    """Yielded by a thread to give other runnable threads a turn."""

    __slots__ = ()


#: Singleton the library recognizes; threads do ``yield THREAD_YIELD``.
THREAD_YIELD = Yield()


class UserThreadLib:
    """A cooperative priority scheduler hosted in one processor frame.

    Threads yield the same operations as any frame (``Compute``,
    ``Event``) plus ``THREAD_YIELD``. Compute runs on the hosting
    frame — cooperative, like the paper's user-level thread systems —
    while Event waits release the processor to *other threads*: the
    scheduler keeps running runnable work and only blocks the hosting
    frame when every thread is waiting.
    """

    def __init__(self) -> None:
        self._threads: List[Thread] = []
        self._wakeup: Optional[Event] = None
        self.context_switches = 0

    # ------------------------------------------------------------------
    # Thread management (plain functions: callable from handlers)
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: str = "",
              priority: int = 0) -> Thread:
        """Create a runnable thread; scheduling starts at ``run``."""
        thread = Thread(gen, name=name, priority=priority)
        self._threads.append(thread)
        self._signal()
        return thread

    @property
    def alive(self) -> List[Thread]:
        return [t for t in self._threads if not t.finished]

    def _runnable(self) -> Optional[Thread]:
        best: Optional[Thread] = None
        for thread in self._threads:
            if thread.state != Thread.RUNNABLE:
                continue
            if best is None or thread.priority > best.priority:
                best = thread
        return best

    def _signal(self) -> None:
        """Wake the scheduler loop if it is blocked."""
        if self._wakeup is not None and not self._wakeup.triggered:
            wakeup, self._wakeup = self._wakeup, None
            wakeup.trigger()

    # ------------------------------------------------------------------
    # The scheduler loop (hosted by the application's main frame)
    # ------------------------------------------------------------------
    def run(self, until_idle: bool = True) -> Generator:
        """Run threads until all finish (``until_idle``) or forever.

        Round-robin within the highest priority: after each step the
        stepped thread moves behind its priority peers, implemented by
        list rotation.
        """
        while True:
            thread = self._runnable()
            if thread is None:
                if until_idle and not self.alive:
                    return
                # Everything is blocked: release the processor until a
                # wakeup (event completion or a new spawn).
                self._wakeup = Event("threadlib.wakeup")
                yield self._wakeup
                continue
            yield from self._step(thread)

    def _step(self, thread: Thread) -> Generator:
        """Advance one thread by one yield."""
        self.context_switches += 1
        # Rotate for round-robin fairness among equal priorities.
        self._threads.remove(thread)
        self._threads.append(thread)
        send_value, thread._wake_value = thread._wake_value, None
        while True:
            try:
                op = thread.gen.send(send_value)
            except StopIteration as stop:
                thread.state = Thread.FINISHED
                thread.result = stop.value
                thread.done.trigger(stop.value)
                return
            if isinstance(op, Compute):
                # Cooperative: compute runs on the hosting frame, and
                # completing it is a scheduling point — otherwise a
                # compute-looping thread would starve its peers.
                yield op
                return
            if isinstance(op, Yield):
                yield Compute(1)  # the reschedule itself costs a cycle
                return
            if isinstance(op, Event):
                if op.triggered:
                    send_value = op.value
                    continue
                thread.state = Thread.BLOCKED
                thread._wait_event = op
                op.subscribe(self._unblock, thread)
                return
            raise TypeError(
                f"thread {thread.name} yielded unsupported {op!r}"
            )

    def _unblock(self, thread: Thread, value: Any) -> None:
        thread._wait_event = None
        thread._wake_value = value
        thread.state = Thread.RUNNABLE
        self._signal()

    # ------------------------------------------------------------------
    # Joining
    # ------------------------------------------------------------------
    @staticmethod
    def join(thread: Thread) -> Generator:
        """Block (as a thread op) until ``thread`` finishes."""
        if not thread.finished:
            yield thread.done
        return thread.result
