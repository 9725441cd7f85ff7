"""The discrete-event engine: clock, one binary heap and one run loop.

The engine is deliberately small. All simulation behaviour above it is
expressed as scheduled callbacks, in one of three shapes:

* a bare callable, run as ``fn()``;
* an ``(fn, arg)`` pair, run as ``fn(arg)`` — what :meth:`Engine.schedule`
  stores when given an argument, so callers need no closure;
* a cancellable ``_ScheduledCall`` handle returned by
  :meth:`Engine.call_at`.

The machine's processor frames, NI arrivals and fabric hops are all
plain callbacks of these shapes; generator-driven work lives above the
engine (see :mod:`repro.machine.processor`).

Two-case scheduling
-------------------

The engine itself exploits the paper's two-case idea: the common case
(a callback that needs no cancellation handle) pays for none of the
machinery the uncommon case needs.

* :meth:`Engine.schedule` is the fast case — no ``_ScheduledCall``
  handle is allocated and there is no freelist or refcount bookkeeping
  to retire.
* :meth:`Engine.call_at` is the general case — it returns a cancellable
  handle, at the cost of one (recycled) ``_ScheduledCall`` per call.

Ordering
--------

Pending work is one ``heapq`` of ``(time, seq, fn, arg)`` tuples
(handle-free) or ``(time, seq, entry, _ENTRY)`` tuples (cancellable),
where ``seq`` counts every schedule. ``seq`` is unique, so tuple
comparison never reaches the callback, and execution order is exactly
global ``(time, seq)`` FIFO: a callback scheduled for the current
cycle runs after everything already pending at that cycle. A
cancelled entry stays in the heap (lazy deletion) and is skipped when
it reaches the top; when cancellations dominate the heap it is swept
in one pass. :meth:`Engine.peek_time` reads the top in O(1), popping
cancelled heads first.

One run loop
------------

:meth:`Engine.run` is the only dispatch loop. It pops the heap's top,
with attribute lookups hoisted and the handle told apart by its
marker. ``until`` and ``max_events`` bound it; :meth:`Engine.stop`
halts it after the current event in every run, so
``job.done.subscribe(engine.stop)`` exits right after the finishing
event.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised for fatal conditions inside the simulation kernel."""


class _Sentinel:
    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.label}>"


#: "No argument" marker: ``fn()`` is called instead of ``fn(arg)``.
_NO_ARG = _Sentinel("no-arg")
#: Heap-tuple marker in slot 3: slot 2 holds a cancellable entry.
_ENTRY = _Sentinel("entry")


class _ScheduledCall:
    """Public cancellable handle for one scheduled callback;
    ``cancelled`` makes removal O(1) (lazy deletion).

    This is *only* a handle: ordering lives in the heap's
    ``(time, seq, entry, _ENTRY)`` tuples. Entries keep a
    back-reference to their engine so cancellation can be counted: when
    cancelled entries dominate the pending set the engine compacts them
    away in one pass instead of dragging dead weight to its timestamp.
    """

    __slots__ = ("time", "fn", "arg", "cancelled", "engine")

    def __init__(self, time: int, fn: Callable[..., None],
                 arg: Any = _NO_ARG,
                 engine: Optional["Engine"] = None) -> None:
        self.time = time
        self.fn = fn
        self.arg = arg
        self.cancelled = False
        self.engine = engine

    def cancel(self) -> None:
        """Drop the callback if it has not run yet. Cancelling an entry
        that already fired (dispatch clears its ``fn``) is a no-op, so
        it is never counted as a pending cancellation."""
        if not self.cancelled and self.fn is not None:
            self.cancelled = True
            if self.engine is not None:
                self.engine._note_cancelled()


#: Compact when at least this many entries are cancelled *and*
#: cancellations make up at least half of everything pending. Small
#: enough to bound memory under cancellation storms, large enough that
#: compaction never triggers on ordinary workloads.
_COMPACT_MIN_CANCELLED = 512
#: Upper bound on the `_ScheduledCall` free list (allocation reuse).
_FREELIST_MAX = 1024

#: Sentinel bound for run(until=None, max_events=None): compares greater
#: than every int, so the run loop needs no per-event None checks.
_UNBOUNDED = float("inf")


class Engine:
    """The event heap and simulated clock (integer cycles)."""

    #: perfbench reads these calendar-queue counters by name; the heap
    #: engine has no ring, run queue, overflow tier or bucket batches.
    ring_events = 0
    runq_events = 0
    overflow_scheduled = 0
    cycle_batches = 0

    def __init__(self) -> None:
        self.now: int = 0
        #: ``(time, seq, fn, arg)`` (handle-free) or
        #: ``(time, seq, entry, _ENTRY)`` (cancellable) tuples.
        self._heap: List[tuple] = []
        #: Schedule counter: the FIFO tie-break among equal times.
        self._seq: int = 0
        self._events_executed: int = 0
        #: Cancelled entries still in the heap (lazy deletion).
        self._cancelled_pending: int = 0
        #: Times the heap was swept to drop cancelled entries.
        self._compactions: int = 0
        #: Retired entries available for reuse (allocation recycling).
        self._free: List[_ScheduledCall] = []
        #: Cooperative stop flag: set by :meth:`stop`, cleared by
        #: :meth:`run`, checked before every event.
        self._stop: bool = False

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        cancelled = self._cancelled_pending = self._cancelled_pending + 1
        # Compact on the cancellation that crosses the threshold, not on
        # every schedule: keeps the check off the scheduling hot path.
        if (cancelled >= _COMPACT_MIN_CANCELLED
                and cancelled * 2 >= len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap in one O(n) sweep."""
        heap = self._heap  # in place: run() holds a reference
        live = [item for item in heap
                if item[3] is not _ENTRY or not item[2].cancelled]
        self._cancelled_pending -= len(heap) - len(live)
        heap[:] = live
        heapify(heap)
        self._compactions += 1

    def call_at(self, time: int, fn: Callable[..., None],
                arg: Any = _NO_ARG) -> _ScheduledCall:
        """Schedule ``fn()`` (or ``fn(arg)``) at absolute ``time``
        (>= now), returning a cancellable handle."""
        if type(time) is not int:
            time = int(time)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        free = self._free
        if free:
            entry = free.pop()
            entry.time = time
            entry.fn = fn
            entry.arg = arg
            entry.cancelled = False
        else:
            entry = _ScheduledCall(time, fn, arg, self)
        seq = self._seq = self._seq + 1
        heappush(self._heap, (time, seq, entry, _ENTRY))
        return entry

    def call_after(self, delay: int, fn: Callable[..., None],
                   arg: Any = _NO_ARG) -> _ScheduledCall:
        """Schedule ``fn`` after ``delay`` cycles (cancellable)."""
        return self.call_at(self.now + delay, fn, arg)

    def schedule(self, time: int, fn: Callable[..., None],
                 arg: Any = _NO_ARG) -> None:
        """Schedule ``fn()`` (or ``fn(arg)``) at ``time``, without a
        cancellation handle — the common-case fast path."""
        if type(time) is not int:
            time = int(time)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        seq = self._seq = self._seq + 1
        heappush(self._heap, (time, seq, fn, arg))

    def call_soon(self, fn: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run ``fn`` this cycle, after already-pending same-cycle
        events (handle-free)."""
        self.schedule(self.now, fn, arg)

    # ------------------------------------------------------------------
    # Queue maintenance
    # ------------------------------------------------------------------
    def _retire(self, entry: _ScheduledCall) -> None:
        """Recycle a popped entry if provably unreferenced elsewhere.

        ``getrefcount`` sees exactly three references (the caller's
        heap tuple, this frame's binding and the getrefcount argument)
        when no external holder kept the entry returned from
        :meth:`call_at`; only then is reuse safe — a stale holder
        calling ``cancel()`` on a recycled entry would cancel an
        unrelated callback.
        """
        if len(self._free) < _FREELIST_MAX and getrefcount(entry) == 3:
            entry.fn = None  # drop the closure; keeps freelist lean
            entry.arg = None
            self._free.append(entry)

    def peek_time(self) -> Optional[int]:
        """Earliest pending event time, or None when nothing is pending.
        Pops cancelled entries off the top; does not advance the
        clock."""
        heap = self._heap
        while heap:
            item = heap[0]
            if item[3] is not _ENTRY or not item[2].cancelled:
                return item[0]
            heappop(heap)
            self._cancelled_pending -= 1
            self._retire(item[2])
        return None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def stop(self, _value: Any = None) -> None:
        """Ask :meth:`run` to return after the current event. The
        signature accepts one ignored value so
        ``event.subscribe(engine.stop)`` works directly."""
        self._stop = True

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run events until nothing is pending, ``until`` cycles,
        ``max_events`` events have executed, or :meth:`stop` is called.
        Returns the final time.

        The one dispatch loop: the budget and stop flag are checked
        before every event and the counters updated after it (timeline
        samplers read them mid-run). Past ``until``, or with nothing
        left pending, the clock is set to ``until``; a stopped or
        budget-bounded run leaves it at its last event.
        """
        self._stop = False
        now = self.now
        if until is not None and until < now:
            return now
        heap = self._heap
        free = self._free
        refcount = getrefcount
        no_arg = _NO_ARG
        entry_marker = _ENTRY
        cap = _FREELIST_MAX
        stop_bound = _UNBOUNDED if until is None else until
        budget = _UNBOUNDED if max_events is None else max_events
        executed = 0
        while heap:
            if self._stop:
                return now
            if executed >= budget:
                if (until is not None and now < until
                        and self.peek_time() is None):
                    self.now = until
                    return until
                return now
            time, seq, fn, arg = heappop(heap)
            if time > stop_bound:
                heappush(heap, (time, seq, fn, arg))
                self.now = until
                return until
            if arg is entry_marker:
                entry = fn
                if entry.cancelled:
                    self._cancelled_pending -= 1
                    if refcount(entry) == 3 and len(free) < cap:
                        entry.fn = None
                        entry.arg = None
                        free.append(entry)
                    continue
                fn = entry.fn
                arg = entry.arg
                entry.fn = None  # fired: a later cancel() is a no-op
                if refcount(entry) == 2 and len(free) < cap:
                    entry.arg = None
                    free.append(entry)
                del entry
            now = self.now = time
            executed += 1
            self._events_executed += 1
            if arg is no_arg:
                fn()
            else:
                fn(arg)
        if self._stop:
            return now
        if until is not None and now < until:
            self.now = until
            return until
        return now

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def compactions(self) -> int:
        """Times the heap was swept to shed cancelled entries."""
        return self._compactions

    @property
    def pending(self) -> int:
        """Live (non-cancelled) entries still scheduled."""
        return len(self._heap) - self._cancelled_pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self.now} pending={len(self._heap)}>"
