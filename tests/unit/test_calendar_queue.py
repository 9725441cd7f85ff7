"""Unit tests for the calendar (bucket) queue engine core.

Covers the two timed tiers — the per-cycle bucket ring over
``[now, now + window)`` and the far-future overflow heap — plus the
ordering contract at the window boundary, cancellation and compaction
accounting per tier, the new tier counters, cooperative ``stop()``
and custom window sizes.
"""

import pytest

from repro.sim.engine import _DEFAULT_WINDOW, Engine, SimulationError


class TestTiering:
    def test_default_window_covers_cost_constants(self):
        from repro.core.costs import BufferedPathCosts, KernelCosts

        assert _DEFAULT_WINDOW >= 1024
        assert _DEFAULT_WINDOW & (_DEFAULT_WINDOW - 1) == 0
        assert BufferedPathCosts.insert_with_vmalloc < _DEFAULT_WINDOW
        assert KernelCosts.context_switch < _DEFAULT_WINDOW

    def test_near_future_takes_ring(self):
        engine = Engine()
        engine.call_after(engine._window - 1, lambda: None)
        assert engine._ring_count == 1
        assert len(engine._heap) == 0

    def test_window_boundary_takes_overflow_heap(self):
        engine = Engine()
        engine.call_after(engine._window, lambda: None)
        assert engine._ring_count == 0
        assert len(engine._heap) == 1
        assert engine.overflow_scheduled == 1

    def test_schedule_tiers_like_call_at(self):
        engine = Engine()
        engine.schedule(engine._window - 1, lambda: None)
        engine.schedule(engine._window, lambda: None)
        assert engine._ring_count == 1
        assert len(engine._heap) == 1

    def test_overflow_entries_execute_in_order(self):
        engine = Engine(window=16)
        fired = []
        # Far-future entries, scheduled out of order.
        for t in (300, 100, 200, 100):
            engine.schedule(t, fired.append, t)
        engine.call_after(3, fired.append, 3)
        engine.run()
        assert fired == [3, 100, 100, 200, 300]
        assert engine.now == 300
        assert engine.overflow_scheduled == 4
        assert engine.ring_events == 5

    def test_overflow_pull_precedes_direct_inserts_at_same_time(self):
        """An overflow entry at time T runs before anything scheduled
        for T after the window slid over it — (time, seq) FIFO."""
        engine = Engine(window=16)
        order = []
        target = 40
        engine.schedule(target, order.append, "overflow")

        def late_inserter():
            # now == 30: target is now inside the window, so this is a
            # direct ring insert at the same absolute time.
            engine.schedule(target, order.append, "direct")

        engine.schedule(30, late_inserter)
        engine.run()
        assert order == ["overflow", "direct"]

    def test_delay_beyond_window_rides_overflow(self):
        engine = Engine(window=16)
        trace = []

        def hop(delay):
            trace.append(engine.now)
            if delay:
                engine.schedule(engine.now + delay, hop, 0)

        engine.schedule(2, hop, 1000)
        engine.run()
        assert trace == [2, 1002]
        assert engine.overflow_scheduled == 1


class TestCancellationPerTier:
    def test_cancel_ring_entry(self):
        engine = Engine()
        ran = []
        entry = engine.call_after(5, ran.append, 1)
        entry.cancel()
        assert engine.pending == 0
        engine.run()
        assert ran == []
        assert engine.events_executed == 0

    def test_cancel_overflow_entry(self):
        engine = Engine(window=16)
        ran = []
        entry = engine.call_after(1000, ran.append, 1)
        engine.call_after(3, ran.append, 2)
        entry.cancel()
        assert engine.pending == 1
        engine.run()
        assert ran == [2]
        assert engine.now == 3

    def test_cancel_pulled_overflow_entry(self):
        """Cancelling after the entry migrated from heap to ring."""
        engine = Engine(window=16)
        ran = []
        entry = engine.call_at(40, ran.append, "cancelled")
        holder = {"entry": entry}

        def canceller():
            holder["entry"].cancel()

        engine.call_at(35, canceller)  # after the pull at t>=25
        engine.run()
        assert ran == []
        assert engine.events_executed == 1

    def test_peek_time_skips_cancelled_per_tier(self):
        engine = Engine(window=16)
        ring_entry = engine.call_after(3, lambda: None)
        heap_entry = engine.call_after(1000, lambda: None)
        assert engine.peek_time() == 3
        ring_entry.cancel()
        assert engine.peek_time() == 1000
        heap_entry.cancel()
        assert engine.peek_time() is None

    def test_compaction_exact_accounting_across_tiers(self):
        import repro.sim.engine as engine_mod

        engine = Engine(window=16)
        keep_ring = engine.call_after(5, lambda: None)
        keep_heap = engine.call_after(5000, lambda: None)
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
        assert not keep_ring.cancelled and not keep_heap.cancelled
        engine.run()
        assert engine.events_executed == 2


class TestCountersAndStop:
    def test_tier_counters_partition_events(self):
        engine = Engine(window=16)
        engine.call_soon(lambda: None)           # live bucket
        engine.call_after(3, lambda: None)       # ring
        engine.call_after(1000, lambda: None)    # overflow -> ring
        engine.run()
        assert engine.events_executed == 3
        assert engine.overflow_scheduled == 1
        # Every event, same-cycle ones included, runs out of a bucket.
        assert engine.ring_events == engine.events_executed

    def test_cycle_batches_count_bucket_drains(self):
        engine = Engine()
        for t in (5, 5, 5, 9):
            engine.call_at(t, lambda: None)
        engine.run()
        assert engine.cycle_batches == 2
        assert engine.ring_events == 4

    def test_stop_halts_unbounded_run(self):
        engine = Engine()
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

    def test_stop_accepts_event_value(self):
        from repro.sim.events import Event

        engine = Engine()
        done = Event("done")
        done.subscribe(engine.stop)
        engine.call_after(5, done.trigger, "value")
        engine.call_after(50, lambda: None)
        engine.run()
        assert engine.now == 5

    def test_stop_halts_after_current_event(self):
        """stop() ends the run after the event that raised it, even
        with more events due in the same bucket."""
        engine = Engine()
        ran = []
        engine.call_after(5, engine.stop)
        engine.call_after(5, ran.append, "same-cycle")
        engine.run()
        assert ran == []
        assert engine.now == 5
        assert engine.pending == 1
        engine.run()
        assert ran == ["same-cycle"]

    def test_rescheduled_callback_counts_as_ring_event(self):
        engine = Engine()

        def start():
            engine.schedule(engine.now + 7, lambda: None)

        engine.call_soon(start)
        engine.run()
        # first step (live bucket) + one timed resume.
        assert engine.ring_events == 2


class TestCustomWindow:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Engine(window=48)
        with pytest.raises(ValueError):
            Engine(window=1)

    def test_tiny_window_still_correct(self):
        engine = Engine(window=2)
        fired = []
        for t in (9, 4, 4, 100, 1):
            engine.schedule(t, fired.append, t)
        engine.run()
        assert fired == [1, 4, 4, 9, 100]

    def test_step_walks_both_tiers(self):
        engine = Engine(window=16)
        fired = []
        engine.call_soon(fired.append, "now")
        engine.call_after(3, fired.append, "ring")
        engine.call_after(1000, fired.append, "overflow")
        while engine.peek_time() is not None:
            engine.run(max_events=1)
        assert fired == ["now", "ring", "overflow"]
        assert engine.now == 1000
        assert engine.run(max_events=1) == 1000
        assert engine.events_executed == 3
