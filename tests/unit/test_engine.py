"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event, EventAlreadyTriggered


class TestScheduling:
    def test_call_after_runs_in_time_order(self, engine):
        order = []
        engine.call_after(20, lambda: order.append("b"))
        engine.call_after(10, lambda: order.append("a"))
        engine.call_after(30, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 30

    def test_same_time_callbacks_run_fifo(self, engine):
        order = []
        for tag in ("first", "second", "third"):
            engine.call_after(5, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["first", "second", "third"]

    def test_cancel_prevents_execution(self, engine):
        fired = []
        entry = engine.call_after(10, lambda: fired.append(1))
        entry.cancel()
        engine.run()
        assert fired == []

    def test_cannot_schedule_in_the_past(self, engine):
        engine.call_after(10, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(5, lambda: None)

    def test_run_until_stops_clock_at_bound(self, engine):
        engine.call_after(100, lambda: None)
        engine.run(until=40)
        assert engine.now == 40
        engine.run()
        assert engine.now == 100

    def test_run_max_events(self, engine):
        count = []
        for _ in range(5):
            engine.call_after(1, lambda: count.append(1))
        engine.run(max_events=3)
        assert len(count) == 3

    def test_single_event_run_on_empty_engine_is_noop(self, engine):
        assert engine.run(max_events=1) == 0
        assert engine.events_executed == 0

    def test_peek_time_skips_cancelled(self, engine):
        entry = engine.call_after(5, lambda: None)
        engine.call_after(9, lambda: None)
        entry.cancel()
        assert engine.peek_time() == 9


class TestOrdering:
    """Global ``(time, seq)`` FIFO, for near and far-future entries."""

    def test_far_future_entries_execute_in_order(self, engine):
        fired = []
        # Far-future entries, scheduled out of order.
        for t in (300, 100, 200, 100):
            engine.schedule(t, fired.append, t)
        engine.call_after(3, fired.append, 3)
        engine.run()
        assert fired == [3, 100, 100, 200, 300]
        assert engine.now == 300
        assert engine.events_executed == 5

    def test_earlier_schedule_runs_first_at_same_time(self, engine):
        """An entry scheduled long before time T runs before one
        scheduled for T later on."""
        order = []
        target = 40
        engine.schedule(target, order.append, "early")

        def late_inserter():
            engine.schedule(target, order.append, "late")

        engine.schedule(30, late_inserter)
        engine.run()
        assert order == ["early", "late"]

    def test_mixed_times_run_in_time_then_schedule_order(self, engine):
        fired = []
        for t in (9, 4, 4, 100, 1):
            engine.schedule(t, fired.append, t)
        engine.run()
        assert fired == [1, 4, 4, 9, 100]


class TestCancellation:
    def test_cancel_pending_entry(self, engine):
        ran = []
        entry = engine.call_after(5, ran.append, 1)
        entry.cancel()
        assert engine.pending == 0
        engine.run()
        assert ran == []
        assert engine.events_executed == 0

    def test_cancel_far_future_entry(self, engine):
        """A cancelled entry never moves the clock."""
        ran = []
        entry = engine.call_after(1000, ran.append, 1)
        engine.call_after(3, ran.append, 2)
        entry.cancel()
        assert engine.pending == 1
        engine.run()
        assert ran == [2]
        assert engine.now == 3

    def test_cancel_from_callback_before_due(self, engine):
        ran = []
        entry = engine.call_at(40, ran.append, "cancelled")
        engine.call_at(35, entry.cancel)
        engine.run()
        assert ran == []
        assert engine.events_executed == 1

    def test_peek_time_skips_cancelled_heads(self, engine):
        near = engine.call_after(3, lambda: None)
        far = engine.call_after(1000, lambda: None)
        assert engine.peek_time() == 3
        near.cancel()
        assert engine.peek_time() == 1000
        far.cancel()
        assert engine.peek_time() is None

    def test_compaction_exact_accounting(self, engine):
        import repro.sim.engine as engine_mod

        keep_near = engine.call_after(5, lambda: None)
        keep_far = engine.call_after(5000, lambda: None)
        cancelled = []
        for i in range(600):
            cancelled.append(engine.call_after(1000 + i, lambda: None))
        assert engine.pending == 602
        for entry in cancelled:
            entry.cancel()
        assert engine.compactions >= 1
        # The sweep fires on the cancellation crossing the threshold
        # and removes exactly the entries cancelled so far; the rest
        # stay lazily deleted (below threshold), with exact accounting.
        threshold = engine_mod._COMPACT_MIN_CANCELLED
        assert engine._cancelled_pending == 600 - threshold
        assert engine.pending == 2
        assert not keep_near.cancelled and not keep_far.cancelled
        engine.run()
        assert engine.events_executed == 2


class TestStopAndStepping:
    def test_stop_halts_unbounded_run(self, engine):
        ran = []
        engine.call_after(5, ran.append, 5)
        engine.call_after(5, engine.stop)
        engine.call_after(50, ran.append, 50)
        engine.run()
        assert ran == [5]
        assert engine.now == 5
        assert engine.pending == 1
        engine.run()  # stop flag is cleared by run()
        assert ran == [5, 50]

    def test_stop_accepts_event_value(self, engine):
        done = Event("done")
        done.subscribe(engine.stop)
        engine.call_after(5, done.trigger, "value")
        engine.call_after(50, lambda: None)
        engine.run()
        assert engine.now == 5

    def test_stop_halts_after_current_event(self, engine):
        """stop() ends the run after the event that raised it, even
        with more events due in the same cycle."""
        ran = []
        engine.call_after(5, engine.stop)
        engine.call_after(5, ran.append, "same-cycle")
        engine.run()
        assert ran == []
        assert engine.now == 5
        assert engine.pending == 1
        engine.run()
        assert ran == ["same-cycle"]

    def test_max_events_steps_one_event_at_a_time(self, engine):
        fired = []
        engine.call_soon(fired.append, "now")
        engine.call_after(3, fired.append, "near")
        engine.call_after(1000, fired.append, "far")
        while engine.peek_time() is not None:
            engine.run(max_events=1)
        assert fired == ["now", "near", "far"]
        assert engine.now == 1000
        assert engine.run(max_events=1) == 1000
        assert engine.events_executed == 3


class TestEvents:
    def test_double_trigger_raises(self):
        event = Event("x")
        event.trigger()
        with pytest.raises(EventAlreadyTriggered):
            event.trigger()

    def test_late_subscribe_fires_immediately(self):
        event = Event()
        event.trigger(5)
        seen = []
        event.subscribe(seen.append)
        assert seen == [5]

    def test_unsubscribe_removes_callback(self):
        event = Event()
        seen = []
        event.subscribe(seen.append)
        event.unsubscribe(seen.append)
        event.trigger(1)
        assert seen == []

    def test_pair_subscription_passes_arg_then_value(self):
        event = Event()
        seen = []

        def record(arg, value):
            seen.append((arg, value))

        event.subscribe(record, "a")
        event.subscribe(seen.append)
        event.trigger(7)
        event.subscribe(record, "late")
        assert seen == [("a", 7), 7, ("late", 7)]

    def test_multiple_subscribers_all_fire(self):
        event = Event()
        seen = []
        event.subscribe(lambda v: seen.append(("a", v)))
        event.subscribe(lambda v: seen.append(("b", v)))
        event.trigger(9)
        assert seen == [("a", 9), ("b", 9)]


class TestHeapCompaction:
    """Lazy-deleted entries are compacted away when they dominate."""

    def test_heavy_cancellation_triggers_compaction(self, engine):
        # Schedule far-future callbacks and cancel almost all of them:
        # without compaction the heap would hold every dead entry until
        # its timestamp is reached.
        live = []
        for i in range(5000):
            entry = engine.call_at(1_000_000 + i, lambda i=i: live.append(i))
            if i % 50 != 0:
                entry.cancel()
        assert engine.compactions > 0
        # The heap sheds the cancelled majority long before they expire.
        assert len(engine._heap) < 2500
        engine.run()
        assert live == [i for i in range(5000) if i % 50 == 0]

    def test_compaction_preserves_order_and_results(self, engine):
        order = []
        entries = []
        for i in range(4000):
            entries.append(engine.call_at(10 + i, lambda i=i: order.append(i)))
        # Cancel every odd entry to cross the compaction threshold.
        for i, entry in enumerate(entries):
            if i % 2:
                entry.cancel()
        # Push more work afterwards so compaction interleaves with
        # scheduling; then everything still fires in time order.
        for i in range(4000, 4100):
            engine.call_at(10 + i, lambda i=i: order.append(i))
        engine.run()
        expected = [i for i in range(4000) if i % 2 == 0]
        expected += list(range(4000, 4100))
        assert order == expected

    def test_pending_counts_only_live_entries(self, engine):
        keep = engine.call_after(5, lambda: None)
        dead = engine.call_after(6, lambda: None)
        dead.cancel()
        assert engine.pending == 1
        engine.run()
        assert engine.pending == 0
        assert keep.cancelled is False

    def test_double_cancel_counts_once(self, engine):
        entry = engine.call_after(5, lambda: None)
        entry.cancel()
        entry.cancel()
        assert engine._cancelled_pending == 1
        engine.run()
        assert engine._cancelled_pending == 0


    def test_cancel_after_fire_is_noop(self, engine):
        timed = engine.call_after(5, lambda: None)
        same_cycle = engine.call_at(0, lambda: None)
        engine.run()
        timed.cancel()
        same_cycle.cancel()
        assert engine._cancelled_pending == 0
        assert engine.pending == 0
        assert timed.cancelled is False

    def test_fired_cancels_never_trigger_compaction(self, engine):
        # Handles kept past their firing and cancelled afterwards (a
        # retry timer cancelled on a late ack) must not count towards
        # the compaction threshold or drive ``pending`` negative.
        held = [engine.call_after(1 + i % 7, lambda: None)
                for i in range(2000)]
        engine.run()
        for entry in held:
            entry.cancel()
        engine.call_after(3, lambda: None)
        assert engine.compactions == 0
        assert engine.pending == 1


class TestEntryReuse:
    """_ScheduledCall recycling must never alias a held entry."""

    def test_recycled_entries_produce_correct_schedule(self, engine):
        order = []
        def chain(i):
            if i < 500:
                engine.call_after(1, lambda: chain(i + 1))
                order.append(i)
        engine.call_after(1, lambda: chain(0))
        engine.run()
        assert order == list(range(500))
        assert len(engine._free) > 0  # reuse actually happened

    def test_held_entry_is_not_recycled(self, engine):
        fired = []
        held = engine.call_after(1, lambda: fired.append("held"))
        # Drive many further events; `held` fires but stays referenced,
        # so the freelist must not hand it out again.
        for i in range(2, 50):
            engine.call_after(i, lambda i=i: fired.append(i))
        engine.run()
        assert held not in engine._free
        assert fired[0] == "held"
