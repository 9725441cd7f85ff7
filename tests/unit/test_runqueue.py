"""Unit tests for same-cycle scheduling and its ordering contract.

The invariant under test: while the clock reads ``T``, every new
same-cycle schedule (``call_soon``, or ``schedule``/``call_at`` at
``now``) appends to the live ``T`` bucket, behind every timed entry at
``T`` — which was necessarily scheduled while ``now < T``, or pulled
off the overflow heap at the clock advance. Draining the bucket in
append order therefore reproduces the exact global ``(time, seq)``
order of a plain heap engine. "Run queue" below names this same-cycle
work, not a separate structure.
"""

import pytest

from repro.sim.engine import Engine, SimulationError


class TestRunQueueBasics:
    def test_call_soon_runs_this_cycle(self):
        engine = Engine()
        ran = []
        engine.call_soon(lambda: ran.append(engine.now))
        engine.run()
        assert ran == [0]
        assert engine.events_executed == 1

    def test_call_soon_arg_passing(self):
        engine = Engine()
        ran = []
        engine.call_soon(ran.append, 42)
        engine.run()
        assert ran == [42]

    def test_call_at_now_joins_run_queue(self):
        engine = Engine()
        ran = []
        engine.call_at(0, lambda: ran.append(engine.now))
        assert engine.pending == 1
        engine.run()
        assert ran == [0]
        assert engine.pending == 0

    def test_run_queue_is_fifo(self):
        engine = Engine()
        order = []
        for i in range(5):
            engine.call_soon(order.append, i)
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_nested_call_soon_runs_same_cycle(self):
        engine = Engine()
        order = []

        def outer():
            order.append("outer")
            engine.call_soon(lambda: order.append("inner"))

        engine.call_soon(outer)
        engine.call_after(1, lambda: order.append("later"))
        engine.run()
        assert order == ["outer", "inner", "later"]

    def test_past_schedule_still_raises(self):
        engine = Engine()
        engine.call_after(5, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(engine.now - 1, lambda: None)
        with pytest.raises(SimulationError):
            engine.call_at(engine.now - 1, lambda: None)


class TestHeapVsRunQueueOrdering:
    def test_heap_entries_at_t_run_before_runq_entries_created_at_t(self):
        """A time-T heap entry (scheduled while now < T) precedes any
        same-cycle work scheduled once the clock reaches T."""
        engine = Engine()
        order = []

        def at_t_first():
            order.append("heap-1")
            # now == 5: these append to the live bucket...
            engine.call_soon(lambda: order.append("runq-1"))
            engine.call_at(5, lambda: order.append("runq-2"))

        # ...but both heap entries below were scheduled at t=0 and must
        # run before them.
        engine.call_at(5, at_t_first)
        engine.call_at(5, lambda: order.append("heap-2"))
        engine.run()
        assert order == ["heap-1", "heap-2", "runq-1", "runq-2"]

    def test_chain_first_steps_preserve_creation_order(self):
        """Callback chains started this cycle (the shape a processor
        frame takes: a first step deferred to the loop, then a
        self-reschedule) run their first steps in creation order."""
        engine = Engine()
        order = []

        def finish(i):
            order.append(("end", i, engine.now))

        def start(i):
            order.append(("start", i, engine.now))
            engine.schedule(engine.now + i + 1, finish, i)

        for i in range(4):
            engine.call_soon(start, i)
        engine.run()
        assert order == ([("start", i, 0) for i in range(4)]
                         + [("end", i, i + 1) for i in range(4)])


class TestRunQueueCancellation:
    def test_cancel_same_cycle_entry(self):
        engine = Engine()
        ran = []
        entry = engine.call_at(0, lambda: ran.append("cancelled"))
        engine.call_soon(lambda: ran.append("kept"))
        entry.cancel()
        assert engine.pending == 1
        engine.run()
        assert ran == ["kept"]

    def test_cancel_from_earlier_callback(self):
        engine = Engine()
        ran = []
        first = {}

        def canceller():
            first["entry"].cancel()
            ran.append("canceller")

        engine.call_soon(canceller)
        first["entry"] = engine.call_at(0, lambda: ran.append("victim"))
        engine.run()
        assert ran == ["canceller"]

    def test_compaction_accounting_survives_runq_cancellations(self):
        engine = Engine()
        # A burst of cancelled timed entries to trigger compaction while
        # cancelled same-cycle entries sit in the live bucket, which
        # compaction skips.
        for _ in range(4):
            entry = engine.call_at(0, lambda: None)
            entry.cancel()
        for i in range(2000):
            entry = engine.call_at(i + 10, lambda: None)
            entry.cancel()
        assert engine.compactions > 0
        assert engine.pending == 0
        engine.run()
        assert engine.events_executed == 0


class TestStepAndPeekWithRunQueue:
    def test_peek_time_sees_runq_at_now(self):
        engine = Engine()
        engine.call_after(10, lambda: None)
        engine.call_soon(lambda: None)
        assert engine.peek_time() == 0

    def test_peek_time_skips_cancelled_runq_entries(self):
        engine = Engine()
        entry = engine.call_at(0, lambda: None)
        entry.cancel()
        engine.call_after(10, lambda: None)
        assert engine.peek_time() == 10

    def test_step_drains_heap_then_runq(self):
        engine = Engine()
        order = []

        def seed():
            order.append("heap")
            engine.call_soon(lambda: order.append("runq"))

        engine.call_at(3, seed)
        engine.call_at(3, lambda: order.append("heap-2"))
        steps = 0
        while engine.peek_time() is not None:
            engine.run(max_events=1)
            steps += 1
        assert order == ["heap", "heap-2", "runq"]
        assert steps == engine.events_executed == 3

    def test_run_until_stops_with_pending_runq_empty(self):
        engine = Engine()
        ran = []
        engine.call_after(5, lambda: ran.append(5))
        engine.call_after(50, lambda: ran.append(50))
        assert engine.run(until=10) == 10
        assert ran == [5]
        assert engine.pending == 1
        engine.run()
        assert ran == [5, 50]

    def test_run_max_events_counts_runq_events(self):
        engine = Engine()
        for i in range(10):
            engine.call_soon(lambda: None)
        engine.run(max_events=4)
        assert engine.events_executed == 4
        assert engine.pending == 6

    def test_run_until_advances_clock_when_drained(self):
        engine = Engine()
        engine.call_soon(lambda: None)
        assert engine.run(until=99) == 99
        assert engine.now == 99
