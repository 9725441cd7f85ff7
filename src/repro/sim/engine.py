"""The discrete-event engine: clock, calendar queue and one run loop.

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
(a callback that needs no cancellation handle, or one scheduled a small
constant number of cycles ahead) pays for none of the machinery the
uncommon case needs.

* :meth:`Engine.schedule` is the fast case — no ``_ScheduledCall``
  handle is allocated and there is no freelist or refcount bookkeeping
  to retire.
* :meth:`Engine.call_at` is the general case — it returns a cancellable
  handle, at the cost of one (recycled) ``_ScheduledCall`` per call.

Calendar queue
--------------

Timed storage is a classic calendar (bucket) queue keyed on the integer
cycle clock, not a binary heap. Almost every delay charged by the
simulator is a small constant from :mod:`repro.core.costs`, so the
engine keeps a power-of-two ring of per-cycle buckets covering the
sliding window ``[now, now + window)`` — window sized at import time to
cover the largest per-message cost constant — and schedules into bucket
``time & (window - 1)`` in O(1). The rare far-future entry (long
timeout, scheduler timeslice, page-out) goes to a heap-backed
**overflow tier** ordered by ``(time, seq)`` tuple comparison.

Ordering is exactly the heap engine's global ``(time, seq)`` FIFO:

* a bucket is only ever populated with entries for one absolute time
  (everything in the ring lies within one window of ``now``), so
  bucket append order is schedule order — including same-cycle
  schedules, which append to the live bucket while it drains;
* overflow entries at time ``T`` can only exist while ``T >= now +
  window``, and direct ring inserts at ``T`` only happen once ``now >
  T - window`` — strictly later. The overflow tier is pulled into the
  ring *eagerly at every clock advance* (before any callback at the
  new ``now`` runs), so pulled entries land in their bucket ahead of
  any later direct insert, in heap ``(time, seq)`` order. Append order
  therefore equals global schedule order in every bucket.

One run loop
------------

:meth:`Engine.run` is the only dispatch loop. It drains a cycle's
bucket — picking up same-cycle work appended while it runs — with
attribute lookups hoisted and the three callback shapes told apart by
exact class check. ``until`` and ``max_events`` bound it;
:meth:`Engine.stop` halts it after the current event in every run, so
``job.done.subscribe(engine.stop)`` exits right after the finishing
event.
"""

from __future__ import annotations

import heapq
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
#: Overflow-heap marker in slot 3: slot 2 holds a cancellable entry.
_ENTRY = _Sentinel("entry")


class _ScheduledCall:
    """Public cancellable handle for one scheduled callback;
    ``cancelled`` makes removal O(1) (lazy deletion).

    This is *only* a handle: ordering lives in the calendar ring's
    bucket positions and, for overflow entries, in the heap's
    ``(time, seq, entry, _ENTRY)`` tuples — ``seq`` is unique, so tuple
    comparison never reaches the entry object. Entries keep a
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


def _window_from_costs() -> int:
    """Calendar window: smallest power of two (>= 1024) strictly larger
    than every per-message cost constant in :mod:`repro.core.costs`.

    ``page_out`` and the scheduler timeslice are deliberately excluded:
    they occur per page-out / per quantum, not per message, and belong
    on the overflow tier.
    """
    from repro.core.costs import BufferedPathCosts, KernelCosts

    longest = max(
        BufferedPathCosts.insert_with_vmalloc,
        KernelCosts.context_switch,
        KernelCosts.mode_transition,
        KernelCosts.mismatch_entry,
        KernelCosts.trap_overhead,
        KernelCosts.hardware_demux,
        KernelCosts.pinned_retry_delay,
    )
    window = 1024
    while window <= longest:
        window *= 2
    return window


#: Ring size for every engine unless overridden (4096 with the stock
#: cost model: one bucket per cycle over [now, now + 4096)).
_DEFAULT_WINDOW = _window_from_costs()

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
    """The calendar queue, overflow heap and simulated clock (integer
    cycles)."""

    def __init__(self, window: Optional[int] = None) -> None:
        if window is None:
            window = _DEFAULT_WINDOW
        elif window < 2 or window & (window - 1):
            raise ValueError(f"window must be a power of two >= 2: {window}")
        self.now: int = 0
        #: Calendar ring: bucket ``time & _mask`` holds every pending
        #: entry at ``time`` for ``now <= time < now + window``. Items
        #: are bare callables, ``(fn, arg)`` pairs or ``_ScheduledCall``
        #: entries, in schedule order.
        self._window: int = window
        self._mask: int = window - 1
        self._ring: List[list] = [[] for _ in range(window)]
        #: Total items in the ring (live + lazily-cancelled).
        self._ring_count: int = 0
        #: Overflow tier for times >= now + window: heap of
        #: ``(time, seq, entry, _ENTRY)`` (cancellable) or
        #: ``(time, seq, fn, arg)`` (handle-free) tuples.
        self._heap: List[tuple] = []
        #: Tie-break for overflow-heap tuples only; the ring needs none.
        self._seq: int = 0
        self._events_executed: int = 0
        #: Events that ran out of a calendar bucket.
        self._ring_executed: int = 0
        #: Entries that took the overflow heap at schedule time.
        self._overflow_scheduled: int = 0
        #: Bucket drains that executed at least one event (batch count).
        self._cycle_batches: int = 0
        #: Cancelled entries still pending in ring or heap (lazy
        #: deletion).
        self._cancelled_pending: int = 0
        #: Times the pending set was swept to drop cancelled entries.
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
                and cancelled * 2 >= len(self._heap) + self._ring_count):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from heap and ring in one O(n) sweep,
        with exact removal accounting.

        The live bucket (``ring[now & mask]``) is skipped: the drain
        loop may be mid-iteration over it, and its cancelled items are
        skipped (and accounted) at drain anyway.
        """
        removed = 0
        # In place: run() holds references to these containers.
        heap = self._heap
        live = [item for item in heap
                if item[3] is not _ENTRY or not item[2].cancelled]
        removed += len(heap) - len(live)
        heap[:] = live
        heapq.heapify(heap)
        active = self._ring[self.now & self._mask]
        for bucket in self._ring:
            if not bucket or bucket is active:
                continue
            kept = [item for item in bucket
                    if item.__class__ is not _ScheduledCall
                    or not item.cancelled]
            dropped = len(bucket) - len(kept)
            if dropped:
                bucket[:] = kept
                self._ring_count -= dropped
                removed += dropped
        self._cancelled_pending -= removed
        self._compactions += 1

    def call_at(self, time: int, fn: Callable[..., None],
                arg: Any = _NO_ARG) -> _ScheduledCall:
        """Schedule ``fn()`` (or ``fn(arg)``) at absolute ``time``
        (>= now), returning a cancellable handle."""
        now = self.now
        if type(time) is not int:
            time = int(time)
        if time < now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {now}"
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
        if time - now < self._window:
            self._ring[time & self._mask].append(entry)
            self._ring_count += 1
        else:
            self._seq += 1
            heapq.heappush(self._heap, (time, self._seq, entry, _ENTRY))
            self._overflow_scheduled += 1
        return entry

    def call_after(self, delay: int, fn: Callable[..., None],
                   arg: Any = _NO_ARG) -> _ScheduledCall:
        """Schedule ``fn`` after ``delay`` cycles (cancellable)."""
        return self.call_at(self.now + delay, fn, arg)

    def schedule(self, time: int, fn: Callable[..., None],
                 arg: Any = _NO_ARG) -> None:
        """Schedule ``fn()`` (or ``fn(arg)``) at ``time``, without a
        cancellation handle — the common-case fast path."""
        now = self.now
        if type(time) is not int:
            time = int(time)
        if time < now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {now}"
            )
        if time - now < self._window:
            self._ring[time & self._mask].append(
                fn if arg is _NO_ARG else (fn, arg))
            self._ring_count += 1
        else:
            self._seq += 1
            heapq.heappush(self._heap, (time, self._seq, fn, arg))
            self._overflow_scheduled += 1

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
        local, this frame's binding and the getrefcount argument) when
        no external holder kept the entry returned from
        :meth:`call_at`; only then is reuse safe — a stale holder
        calling ``cancel()`` on a recycled entry would cancel an
        unrelated callback.
        """
        if len(self._free) < _FREELIST_MAX and getrefcount(entry) == 3:
            entry.fn = None  # drop the closure; keeps freelist lean
            entry.arg = None
            self._free.append(entry)

    def _pull_overflow(self, horizon: int) -> None:
        """Move overflow-heap entries with ``time < horizon`` into their
        ring buckets, in ``(time, seq)`` order.

        Called at every clock advance (and after an ``until`` clamp)
        with ``horizon = now + window``, *before* any callback at the
        new ``now`` runs — this eager pull is what makes bucket append
        order equal global schedule order (see the module docstring's
        ordering argument).
        """
        heap = self._heap
        heappop = heapq.heappop
        ring = self._ring
        mask = self._mask
        pulled = 0
        while heap and heap[0][0] < horizon:
            time, _seq, x, marker = heappop(heap)
            if marker is _ENTRY:
                if x.cancelled:
                    self._cancelled_pending -= 1
                    self._retire(x)
                    continue
                ring[time & mask].append(x)
            elif marker is _NO_ARG:
                ring[time & mask].append(x)
            else:
                ring[time & mask].append((x, marker))
            pulled += 1
        self._ring_count += pulled

    def _next_live_heap_time(self) -> Optional[int]:
        """Earliest live overflow entry time (pops cancelled heads)."""
        heap = self._heap
        while heap:
            item = heap[0]
            if item[3] is _ENTRY and item[2].cancelled:
                heapq.heappop(heap)
                self._cancelled_pending -= 1
                self._retire(item[2])
                continue
            return item[0]
        return None

    def peek_time(self) -> Optional[int]:
        """Earliest pending event time, or None when nothing is pending.
        Cleans cancelled entries off bucket fronts; does not advance the
        clock."""
        if self._ring_count:
            ring = self._ring
            mask = self._mask
            t = self.now
            limit = t + self._window
            while t < limit:
                bucket = ring[t & mask]
                while bucket:
                    item = bucket[0]
                    if (item.__class__ is not _ScheduledCall
                            or not item.cancelled):
                        return t
                    del bucket[0]
                    self._ring_count -= 1
                    self._cancelled_pending -= 1
                    self._retire(item)
                if not self._ring_count:
                    break
                t += 1
        return self._next_live_heap_time()

    def _clamp_to(self, until: int) -> None:
        """Advance the clock to ``until`` without running anything,
        restoring the overflow invariant (heap times >= now + window)."""
        self.now = until
        heap = self._heap
        if heap and heap[0][0] < until + self._window:
            self._pull_overflow(until + self._window)

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
        samplers read them mid-run); a bucket left early is consumed
        only up to the last event run.
        """
        self._stop = False
        now = self.now
        if until is not None and until < now:
            return now
        ring = self._ring
        mask = self._mask
        heap = self._heap
        free = self._free
        refcount = getrefcount
        window = self._window
        entry_cls = _ScheduledCall
        tuple_cls = tuple
        no_arg = _NO_ARG
        cap = _FREELIST_MAX
        stop_bound = _UNBOUNDED if until is None else until
        budget = _UNBOUNDED if max_events is None else max_events
        executed = 0
        while True:
            bucket = ring[now & mask]
            if bucket:
                i = 0
                batch = 0
                while i < len(bucket):
                    if executed >= budget or self._stop:
                        break
                    item = bucket[i]
                    i += 1
                    cls = item.__class__
                    if cls is tuple_cls:
                        fn, arg = item
                    elif cls is entry_cls:
                        if item.cancelled:
                            self._cancelled_pending -= 1
                            if refcount(item) == 3 and len(free) < cap:
                                item.fn = None
                                item.arg = None
                                free.append(item)
                            continue
                        fn = item.fn
                        arg = item.arg
                        item.fn = None  # fired: a later cancel() is a no-op
                        if refcount(item) == 3 and len(free) < cap:
                            item.arg = None
                            free.append(item)
                    else:
                        fn = item
                        arg = no_arg
                    executed += 1
                    batch += 1
                    self._events_executed += 1
                    self._ring_executed += 1
                    if arg is no_arg:
                        fn()
                    else:
                        fn(arg)
                del bucket[:i]
                self._ring_count -= i
                if batch:
                    self._cycle_batches += 1
            if self._stop:
                return now
            if executed >= budget:
                if (until is not None and now < until
                        and self.peek_time() is None):
                    self.now = until
                    return until
                return now
            # Advance: nearest nonempty bucket, else the overflow tier.
            if self._ring_count:
                t = now + 1
                end = now + window
                while not ring[t & mask]:
                    t += 1
                    if t == end:
                        raise SimulationError(
                            "calendar ring accounting corrupt: "
                            f"{self._ring_count} items not found in window"
                        )
                if t > stop_bound:
                    self._clamp_to(until)
                    return until
                now = t
                self.now = t
                if heap and heap[0][0] < t + window:
                    self._pull_overflow(t + window)
            else:
                t = self._next_live_heap_time()
                if t is None:
                    if until is not None and now < until:
                        self.now = until
                        return until
                    return now
                if t > stop_bound:
                    self._clamp_to(until)
                    return until
                now = t
                self.now = t
                self._pull_overflow(t + window)

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def ring_events(self) -> int:
        """Events that ran out of a calendar bucket (bucket hits)."""
        return self._ring_executed

    #: perfbench reads this name; nothing increments it (every event
    #: runs out of a calendar bucket).
    runq_events = 0

    @property
    def overflow_scheduled(self) -> int:
        """Entries that landed on the overflow heap at schedule time."""
        return self._overflow_scheduled

    @property
    def cycle_batches(self) -> int:
        """Bucket drains that executed at least one event."""
        return self._cycle_batches

    @property
    def compactions(self) -> int:
        """Times the pending set was swept to shed cancelled entries."""
        return self._compactions

    @property
    def pending(self) -> int:
        """Live (non-cancelled) entries still scheduled."""
        return len(self._heap) + self._ring_count - self._cancelled_pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Engine t={self.now} "
            f"pending={len(self._heap) + self._ring_count}>"
        )
