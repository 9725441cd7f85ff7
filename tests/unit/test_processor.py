"""Unit tests for the preemptible processor model."""

import pytest

from repro.machine.processor import (
    Compute, Frame, FrameState, Poll, Processor,
)
from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event
from tests.conftest import ScriptedApplication, make_machine


@pytest.fixture
def cpu():
    engine = Engine()
    return engine, Processor(engine, node_id=0)


def spin(trace, engine, label, chunks, size=10):
    for _ in range(chunks):
        yield Compute(size)
        trace.append((label, engine.now))


class TestBasicExecution:
    def test_single_frame_runs_to_completion(self, cpu):
        engine, proc = cpu
        trace = []
        proc.push_frame(Frame(spin(trace, engine, "a", 3), "a"))
        engine.run()
        assert trace == [("a", 10), ("a", 20), ("a", 30)]
        assert proc.idle

    def test_frame_result_and_on_done(self, cpu):
        engine, proc = cpu
        results = []

        def gen():
            yield Compute(5)
            return "finished"

        proc.push_frame(Frame(gen(), "g", on_done=results.append))
        engine.run()
        assert results == ["finished"]

    def test_event_wait_resumes_with_value(self, cpu):
        engine, proc = cpu
        event = Event()
        got = []

        def gen():
            value = yield event
            got.append((engine.now, value))

        proc.push_frame(Frame(gen(), "w"))
        engine.call_after(30, event.trigger, "data")
        engine.run()
        assert got == [(30, "data")]

    def test_zero_compute_continues_inline(self, cpu):
        engine, proc = cpu
        trace = []

        def gen():
            yield Compute(0)
            trace.append(engine.now)

        proc.push_frame(Frame(gen(), "z"))
        engine.run()
        assert trace == [0]


class TestPreemption:
    def test_kernel_frame_preempts_user_compute(self, cpu):
        engine, proc = cpu
        trace = []

        def user():
            yield Compute(100)
            trace.append(("user-done", engine.now))

        def kernel():
            yield Compute(20)
            trace.append(("kernel-done", engine.now))

        proc.push_frame(Frame(user(), "user"))
        engine.call_after(
            40, lambda: proc.raise_kernel(
                lambda: Frame(kernel(), "k", kernel=True))
        )
        engine.run()
        # Kernel runs 40..60; the user's remaining 60 cycles follow.
        assert trace == [("kernel-done", 60), ("user-done", 120)]

    def test_nested_kernel_interrupts_queue(self, cpu):
        engine, proc = cpu
        trace = []

        def user():
            yield Compute(1000)
            trace.append("user")

        def kernel(tag, length):
            yield Compute(length)
            trace.append(tag)

        proc.push_frame(Frame(user(), "user"))

        def raise_both():
            proc.raise_kernel(lambda: Frame(kernel("k1", 50), "k1",
                                            kernel=True))
            proc.raise_kernel(lambda: Frame(kernel("k2", 50), "k2",
                                            kernel=True))

        engine.call_after(10, raise_both)
        engine.run()
        assert trace == ["k1", "k2", "user"]

    def test_factory_returning_none_aborts_delivery(self, cpu):
        engine, proc = cpu
        trace = []

        def user():
            yield Compute(50)
            trace.append("user")

        proc.push_frame(Frame(user(), "user"))
        engine.call_after(10, lambda: proc.raise_kernel(lambda: None))
        engine.run()
        assert trace == ["user"]

    def test_user_upcall_preempts_user_frame(self, cpu):
        engine, proc = cpu
        trace = []

        def base():
            yield Compute(100)
            trace.append(("base", engine.now))

        def upcall():
            yield Compute(10)
            trace.append(("upcall", engine.now))

        proc.push_frame(Frame(base(), "base"))
        engine.call_after(
            30, lambda: proc.raise_user_upcall(
                lambda: Frame(upcall(), "up"))
        )
        engine.run()
        assert trace == [("upcall", 40), ("base", 110)]

    def test_upcall_dropped_while_kernel_running(self, cpu):
        engine, proc = cpu
        trace = []

        def kernel():
            yield Compute(100)
            trace.append("kernel")

        proc.push_frame(Frame(kernel(), "k", kernel=True))
        engine.call_after(
            10, lambda: proc.raise_user_upcall(
                lambda: Frame(iter(()), "up"))
        )
        engine.run()
        assert trace == ["kernel"]

    def test_event_fired_while_preempted_is_kept(self, cpu):
        engine, proc = cpu
        event = Event()
        trace = []

        def base():
            value = yield event
            trace.append((value, engine.now))

        def kernel():
            yield Compute(50)

        proc.push_frame(Frame(base(), "base"))
        engine.call_after(5, lambda: proc.raise_kernel(
            lambda: Frame(kernel(), "k", kernel=True)))
        engine.call_after(20, event.trigger, "late")  # fires mid-kernel
        engine.run()
        assert trace == [("late", 55)]


class TestContextSwitch:
    def test_capture_and_install_resume_compute_remainder(self, cpu):
        engine, proc = cpu
        trace = []

        def user():
            yield Compute(100)
            trace.append(("user", engine.now))

        def switcher():
            yield Compute(10)
            frames = proc.capture_user_frames()
            assert len(frames) == 1
            # Hold the frames out for 200 cycles, then reinstall.
            engine.call_after(
                200, lambda: proc.install_user_frames(frames)
            )

        proc.push_frame(Frame(user(), "user"))
        engine.call_after(30, lambda: proc.raise_kernel(
            lambda: Frame(switcher(), "cs", kernel=True)))
        engine.run()
        # 30 cycles ran, 70 remain; reinstalled at 240 -> done at 310.
        assert trace == [("user", 310)]

    def test_install_over_user_frames_rejected(self, cpu):
        engine, proc = cpu

        def user():
            yield Compute(1000)

        proc.push_frame(Frame(user(), "user"))
        engine.run(until=10)
        with pytest.raises(SimulationError):
            proc.install_user_frames([Frame(user(), "u2")])

    def test_user_depth_counts_only_bottom_segment(self, cpu):
        engine, proc = cpu

        def forever():
            yield Compute(10_000)

        proc.push_frame(Frame(forever(), "u1"))
        engine.run(until=5)
        proc.push_frame(Frame(forever(), "u2"))
        proc.push_frame(Frame(forever(), "k1", kernel=True))
        assert proc.user_depth() == 2
        assert proc.in_kernel

    def test_user_frame_over_kernel_rejected(self, cpu):
        engine, proc = cpu

        def forever():
            yield Compute(10_000)

        proc.push_frame(Frame(forever(), "k", kernel=True))
        with pytest.raises(SimulationError):
            proc.push_frame(Frame(forever(), "u"))


class TestAccounting:
    def test_user_and_kernel_cycles_separate(self, cpu):
        engine, proc = cpu

        def user():
            yield Compute(70)

        def kernel():
            yield Compute(30)

        proc.push_frame(Frame(user(), "u"))
        engine.call_after(10, lambda: proc.raise_kernel(
            lambda: Frame(kernel(), "k", kernel=True)))
        engine.run()
        assert proc.user_cycles == 70
        assert proc.kernel_cycles == 30


class TestPoll:
    def test_ready_at_entry_costs_nothing(self, cpu):
        engine, proc = cpu
        trace = []

        def gen():
            yield Poll(lambda: True, 10)
            trace.append(engine.now)

        proc.push_frame(Frame(gen(), "p"))
        engine.run()
        assert trace == [0]
        assert proc.user_cycles == 0

    def test_parked_poll_schedules_nothing_until_pushed(self, cpu):
        engine, proc = cpu
        flag = [False]
        trace = []

        def poller():
            yield Poll(lambda: flag[0], 10)
            trace.append(("released", engine.now))

        def handler():
            yield Compute(4)
            flag[0] = True

        frame = Frame(poller(), "p")
        proc.push_frame(frame)
        engine.run(until=15)
        # The wake at 10 found the flag clear and parked the frame.
        assert frame.state is FrameState.POLL
        assert engine.pending == 0
        engine.call_at(1003, proc.raise_user_upcall,
                       lambda: Frame(handler(), "h"))
        engine.run()
        # Pushed at 1003, 3 cycles into a quantum: 7 remain after the
        # handler's 4, so the re-check runs at 1014.
        assert trace == [("released", 1014)]
        assert proc.user_cycles == 1014
        # Entry kick, first wake, the raise, the upcall delivery, the
        # handler's kick and wake, the resumed wake: none of the ~100
        # per-quantum wakes the literal loop would schedule.
        assert engine.events_executed == 7

    def test_job_parked_in_poll_with_nothing_pending_is_a_deadlock(self):
        def script(app, rt, node_index):
            yield Poll(lambda: False, 40)

        machine = make_machine(num_nodes=2)
        job = machine.add_job(ScriptedApplication(script))
        machine.start()
        with pytest.raises(RuntimeError, match="drained but job"):
            machine.run_until_job_done(job, limit=10_000_000)
        assert all(node.processor.current.state is FrameState.POLL
                   for node in machine.nodes)
