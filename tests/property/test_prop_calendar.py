"""Property tests: calendar-queue engine vs a reference heap engine.

The reference engine below *is* the ordering spec: one binary heap of
``(time, seq)`` tuples with ``seq`` incremented on every schedule, so
execution order is exactly global ``(time, seq)`` FIFO. The calendar
engine's two timed tiers (bucket ring + overflow heap), with same-cycle
schedules appended to the live bucket, must reproduce that order
bit-identically — including
far-future entries that cross the overflow boundary, entries that
migrate from the overflow heap into the ring as the window slides,
and lazy-deleted cancellations — with identical ``events_executed``
and (for pre-run cancellation storms) ``compactions`` accounting.

The random program is driven two ways: one unbounded ``run()``, and a
sequence of ``run(until=t)`` windows with ``stop()`` raised from inside
callbacks — the way shard workers and ``run_until_job_done`` drive the
engine in real simulations.
"""

import heapq
import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_mod
from repro.sim.engine import Engine

#: Small window so ordinary random delays regularly cross the
#: ring/overflow boundary.
WINDOW = 16


class _RefHandle:
    __slots__ = ("fn", "arg", "cancelled", "fired", "engine")

    def __init__(self, fn, arg, engine):
        self.fn = fn
        self.arg = arg
        self.cancelled = False
        self.fired = False
        self.engine = engine

    def cancel(self):
        # Cancelling a handle that already fired changes nothing.
        if not self.cancelled and not self.fired:
            self.cancelled = True
            self.engine._note_cancelled()


class ReferenceEngine:
    """A deliberately naive single-heap engine: the ordering spec.

    Mirrors the public scheduling API (``call_at``/``call_after``/
    ``schedule``/``call_soon``/``run``/``stop``/``peek_time``) and the
    cancellation + compaction accounting rules, with none of the
    calendar machinery.
    """

    def __init__(self, compact_min=None):
        self.now = 0
        self._heap = []
        self._seq = 0
        self._events = 0
        self._cancelled = 0
        self._stop = False
        self.compactions = 0
        self._compact_min = (engine_mod._COMPACT_MIN_CANCELLED
                             if compact_min is None else compact_min)

    def _note_cancelled(self):
        self._cancelled += 1
        if (self._cancelled >= self._compact_min
                and self._cancelled * 2 >= len(self._heap)):
            live = [item for item in self._heap if not item[2].cancelled]
            removed = len(self._heap) - len(live)
            self._heap[:] = live
            heapq.heapify(self._heap)
            self._cancelled -= removed
            self.compactions += 1

    def call_at(self, time, fn, arg=engine_mod._NO_ARG):
        if time < self.now:
            raise engine_mod.SimulationError("past")
        handle = _RefHandle(fn, arg, self)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle))
        return handle

    def call_after(self, delay, fn, arg=engine_mod._NO_ARG):
        return self.call_at(self.now + delay, fn, arg)

    def schedule(self, time, fn, arg=engine_mod._NO_ARG):
        self.call_at(time, fn, arg)

    def call_soon(self, fn, arg=engine_mod._NO_ARG):
        self.call_at(self.now, fn, arg)

    def stop(self, _value=None):
        self._stop = True

    def peek_time(self):
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def run(self, until=None):
        """Run until drained, past ``until`` (the clock then reads
        ``until``) or stopped (the clock stays at the stopping event)."""
        self._stop = False
        if until is not None and until < self.now:
            return self.now
        heap = self._heap
        no_arg = engine_mod._NO_ARG
        while heap and not self._stop:
            time, _seq, handle = heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(heap)
            if handle.cancelled:
                self._cancelled -= 1
                continue
            self.now = time
            self._events += 1
            handle.fired = True
            if handle.arg is no_arg:
                handle.fn()
            else:
                handle.fn(handle.arg)
        if not self._stop and until is not None and self.now < until:
            self.now = until
        return self.now

    @property
    def events_executed(self):
        return self._events

    @property
    def pending(self):
        return len(self._heap) - self._cancelled


def _random_program(engine, seed, size, windowed=False):
    """A seeded self-rescheduling workload mixing every primitive.

    Delays are drawn from three bands: same-cycle, inside the calendar
    window, and far past it (overflow tier); handles are cancelled at
    random, including handles for already-pulled overflow entries and
    handles that already fired (a no-op).

    ``windowed`` drives the engine as a sequence of ``run(until=t)``
    windows of random length (zero included) instead of one ``run()``,
    with callbacks calling ``stop()`` at random; after every window it
    records the bound, what ``run`` returned, the clock, ``pending``
    and ``events_executed``.
    """
    order = []
    rng = random.Random(seed)
    handles = deque()
    windows = []

    def work(tag):
        order.append((engine.now, tag))
        if len(order) >= size:
            return
        for k in range(rng.randrange(3)):
            band = rng.random()
            if band < 0.4:
                delay = rng.randrange(3)
            elif band < 0.8:
                delay = rng.randrange(WINDOW * 3)
            else:
                delay = rng.randrange(WINDOW * 20, WINDOW * 40)
            tag2 = f"{tag}.{k}"
            choice = rng.random()
            if choice < 0.35:
                engine.schedule(engine.now + delay, work, tag2)
            elif choice < 0.45:
                engine.call_soon(work, tag2)
            else:
                handles.append(engine.call_after(delay, work, tag2))
        if handles and rng.random() < 0.25:
            handles.rotate(rng.randrange(len(handles)))
            handles.popleft().cancel()
        if windowed and rng.random() < 0.05:
            engine.stop()

    for i in range(6):
        engine.schedule(rng.randrange(3), work, str(i))
    if not windowed:
        engine.run()
        return order, engine.events_executed, engine.pending
    bound = 0
    while engine.peek_time() is not None:
        bound += rng.randrange(WINDOW * 4)
        returned = engine.run(until=bound)
        assert engine.pending >= 0
        windows.append((bound, returned, engine.now, engine.pending,
                        engine.events_executed))
    return order, engine.events_executed, engine.pending, windows


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_calendar_matches_reference_heap_order(seed):
    calendar = _random_program(Engine(window=WINDOW), seed, 400)
    reference = _random_program(ReferenceEngine(), seed, 400)
    assert calendar == reference


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_windowed_runs_with_stop_match_reference(seed):
    """``run(until=t)`` windows and in-callback ``stop()`` keep the
    reference order, event count and ``pending`` after every window."""
    calendar = _random_program(Engine(window=WINDOW), seed, 400,
                               windowed=True)
    reference = _random_program(ReferenceEngine(), seed, 400,
                                windowed=True)
    assert calendar == reference


def test_windowed_driver_exercises_stops_and_clamps():
    """The windowed input really covers both early exits: windows cut
    short by ``stop()`` and windows that end with the clock clamped to
    their bound."""
    windows = []
    for seed in range(10):
        windows += _random_program(Engine(window=WINDOW), seed, 400,
                                   windowed=True)[3]
    assert any(returned < bound for bound, returned, *_ in windows)
    assert any(returned == bound for bound, returned, *_ in windows)


@given(
    delays=st.lists(st.integers(min_value=1, max_value=WINDOW * 40),
                    min_size=1, max_size=200),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_cancellation_storm_compaction_accounting(delays, cancel_mask):
    """Pre-run cancellation storms compact identically: the trigger
    rule counts every pending entry the same way in both engines."""
    fired = {"calendar": [], "reference": []}

    def load(engine, key):
        handles = [engine.call_after(d, fired[key].append, i)
                   for i, d in enumerate(delays)]
        for handle, cancel in zip(handles, cancel_mask):
            if cancel:
                handle.cancel()
        return engine

    saved = engine_mod._COMPACT_MIN_CANCELLED
    engine_mod._COMPACT_MIN_CANCELLED = 16
    try:
        calendar = load(Engine(window=WINDOW), "calendar")
    finally:
        engine_mod._COMPACT_MIN_CANCELLED = saved
    reference = load(ReferenceEngine(compact_min=16), "reference")
    assert calendar.compactions == reference.compactions
    assert calendar.pending == reference.pending
    calendar.run()
    reference.run()
    assert fired["calendar"] == fired["reference"]
    assert calendar.events_executed == reference.events_executed
    assert calendar.compactions == reference.compactions
