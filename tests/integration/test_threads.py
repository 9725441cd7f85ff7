"""User-level thread library: scheduling, priorities, handler-to-thread."""

import pytest

from repro.glaze.threads import THREAD_YIELD, Thread, UserThreadLib
from repro.machine.processor import Compute
from repro.sim.events import Event

from tests.conftest import ScriptedApplication, run_app


class TestScheduling:
    def test_threads_interleave_on_yield(self):
        order = []

        def worker(tag):
            for i in range(3):
                order.append((tag, i))
                yield THREAD_YIELD

        def script(app, rt, idx):
            lib = UserThreadLib()
            lib.spawn(worker("a"), name="a")
            lib.spawn(worker("b"), name="b")
            yield from lib.run()

        run_app(ScriptedApplication(script), num_nodes=1,
                limit=10_000_000)
        assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1),
                         ("a", 2), ("b", 2)]

    def test_priority_preference(self):
        order = []

        def worker(tag, n):
            for i in range(n):
                order.append(tag)
                yield THREAD_YIELD

        def script(app, rt, idx):
            lib = UserThreadLib()
            lib.spawn(worker("low", 2), priority=0)
            lib.spawn(worker("high", 2), priority=5)
            yield from lib.run()

        run_app(ScriptedApplication(script), num_nodes=1,
                limit=10_000_000)
        assert order == ["high", "high", "low", "low"]

    def test_compute_charges_simulated_time(self):
        times = []

        def worker(rt):
            yield Compute(500)
            times.append(rt.engine.now)

        def script(app, rt, idx):
            lib = UserThreadLib()
            lib.spawn(worker(rt))
            start = rt.engine.now
            yield from lib.run()
            times.append(("total", rt.engine.now - start))

        run_app(ScriptedApplication(script), num_nodes=1,
                limit=10_000_000)
        assert times[1][1] >= 500

    def test_join_returns_thread_result(self):
        results = []

        def worker():
            yield Compute(10)
            return "worker-value"

        def script(app, rt, idx):
            lib = UserThreadLib()
            thread = lib.spawn(worker())

            def joiner():
                value = yield from lib.join(thread)
                results.append(value)

            lib.spawn(joiner())
            yield from lib.run()

        run_app(ScriptedApplication(script), num_nodes=1,
                limit=10_000_000)
        assert results == ["worker-value"]

    def test_blocked_threads_release_processor(self):
        """While all threads wait on events, the hosting frame blocks —
        and resumes when an event fires."""
        order = []

        def waiter(event):
            value = yield event
            order.append(value)

        def script(app, rt, idx):
            lib = UserThreadLib()
            event = Event("external")
            lib.spawn(waiter(event))
            rt.engine.call_after(5_000, event.trigger, "fired")
            yield from lib.run()
            order.append(rt.engine.now)

        run_app(ScriptedApplication(script), num_nodes=1,
                limit=10_000_000)
        assert order[0] == "fired"
        assert order[1] >= 5_000


class TestHandlerToThread:
    def test_handler_converts_work_to_thread(self):
        """The Section 3 pattern: a handler does the minimal NI work
        (dispose) and spawns the heavy part as a thread on the
        *receiving* node's scheduler."""
        done = []
        libs = {}  # node index -> that node's thread library

        def heavy(payload):
            yield Compute(2_000)
            done.append(payload)

        def handler(hrt, msg):
            payload = msg.payload[0]
            yield from hrt.dispose_current()
            libs[hrt.node_index].spawn(heavy(payload), priority=1)

        def script(app, rt, idx):
            libs[idx] = UserThreadLib()
            if idx == 0:
                for i in range(4):
                    yield Compute(100)
                    yield from rt.inject(1, handler, (i,))
                yield Compute(1)
            else:
                def watchdog():
                    while len(done) < 4:
                        yield Compute(500)

                libs[idx].spawn(watchdog())
                yield from libs[idx].run()

        run_app(ScriptedApplication(script), limit=10_000_000)
        assert sorted(done) == [0, 1, 2, 3]

    def test_bad_yield_rejected(self):
        def worker():
            yield "garbage"

        def script(app, rt, idx):
            lib = UserThreadLib()
            lib.spawn(worker())
            yield from lib.run()

        with pytest.raises(TypeError):
            run_app(ScriptedApplication(script), num_nodes=1,
                    limit=1_000_000)
