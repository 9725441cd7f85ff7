"""Property: ``Poll`` is cycle-for-cycle the literal ``Compute`` loop.

Two simulations run side by side from the same random schedule. In one
the user frame waits with ``yield Poll(ready, interval)``; in the other
with the reference loop ``while not ready(): yield Compute(interval)``.
The schedule mixes user upcalls and kernel interrupts (some flipping
``ready`` from their handler frame), gang context switches
(``capture_user_frames`` / ``install_user_frames``) and pushes aimed
exactly at a poll-quantum boundary — delivered as same-cycle schedules
(``raise_user_upcall`` / ``raise_kernel``) or by a direct push retried
with ``call_after(1)`` while the kernel runs, the shape of the
buffered-mode drain thread's push. Both simulations must finish the
poller on the same cycle, charge the same user and kernel cycles and
interleave every handler identically.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.processor import (
    Compute, Frame, FrameState, Poll, Processor,
)
from repro.sim.engine import Engine


def _next_boundary(frame, interval, now, skip):
    """The poller's ``skip``-th quantum boundary strictly after ``now``,
    or None while it is not spinning on top of the processor.

    Reads the processor's own bookkeeping: a spinning frame is either
    mid-quantum (``DELAY``, wake at ``_delay_end``) or parked
    (``POLL``, parked at boundary ``_delay_end``).
    """
    if frame.state not in (FrameState.DELAY, FrameState.POLL):
        return None
    end = frame._delay_end
    if end <= now:
        end += interval * ((now - end) // interval + 1)
    return end + skip * interval


def simulate(use_poll, interval, work, actions):
    engine = Engine()
    cpu = Processor(engine, 0)
    trace = []
    flag = [0]
    held = [0]  # captured user segments not yet reinstalled
    poller = None

    def ready_for(epoch):
        return lambda: flag[0] > epoch

    def user_main():
        for epoch, cycles in enumerate(work):
            yield Compute(cycles)
            ready = ready_for(epoch)
            if use_poll:
                yield Poll(ready, interval)
            else:
                while not ready():
                    yield Compute(interval)
            trace.append(("epoch", epoch, engine.now))

    def handler(label, cycles, flips):
        trace.append((label, "start", engine.now))
        yield Compute(cycles)
        if flips:
            flag[0] += 1
        yield Compute(cycles // 2)
        trace.append((label, "end", engine.now))

    def switcher(label, hold):
        trace.append((label, "switch", engine.now))
        yield Compute(5)
        frames = cpu.capture_user_frames()
        if frames:
            held[0] += 1

            def install():
                held[0] -= 1
                trace.append((label, "install", engine.now))
                cpu.install_user_frames(frames)

            engine.call_after(hold, install)

    def upcall_factory(label, cycles, flips):
        def factory():
            if held[0]:
                return None  # job switched out: nothing to deliver to
            return Frame(handler(label, cycles, flips), label)
        return factory

    def kernel_factory(label, cycles, flips):
        return lambda: Frame(handler(label, cycles, flips), label,
                             kernel=True)

    def try_push(args):
        # The drain thread's shape: a direct push, retried one cycle
        # later while the kernel runs (or the job is switched out).
        label, cycles, flips = args
        if cpu.in_kernel or held[0]:
            engine.call_after(1, try_push, args)
            return
        cpu.push_frame(Frame(handler(label, cycles, flips), label))

    def deliver(args):
        kind, label, cycles, flips = args
        if kind == "upcall":
            cpu.raise_user_upcall(upcall_factory(label, cycles, flips))
        elif kind == "kernel":
            cpu.raise_kernel(kernel_factory(label, cycles, flips))
        else:
            engine.call_soon(try_push, (label, cycles, flips))

    def retry_next_cycle(args):
        engine.call_after(1, try_push, args)

    def aim(args):
        # At a random time, aim a push at an upcoming quantum boundary.
        kind, label, cycles, flips, skip = args
        boundary = _next_boundary(poller, interval, engine.now, skip)
        if boundary is None:
            return
        if kind == "retry":
            # Lands in the boundary's bucket through call_after(1),
            # appended one cycle early: after the would-be wake.
            engine.call_at(boundary - 1, retry_next_cycle,
                           (label, cycles, flips))
        else:
            engine.call_at(boundary, deliver, (kind, label, cycles, flips))

    def switch(args):
        label, hold = args
        cpu.raise_kernel(
            lambda: Frame(switcher(label, hold), label, kernel=True))

    for i, action in enumerate(actions):
        label = f"h{i}"
        tag, when = action[0], action[1]
        if tag == "switch":
            engine.call_at(when, switch, (label, action[2]))
        elif tag == "aim":
            engine.call_at(when, aim, (action[2], label, *action[3:]))
        else:
            engine.call_at(when, deliver, (action[2], label, *action[3:]))
    # One guaranteed flip per epoch, retried until it lands.
    last = max((action[1] for action in actions), default=0) + 1
    for k in range(len(work)):
        engine.call_at(last + 7 * k, deliver, ("push", f"f{k}", 3, True))

    poller = Frame(user_main(), "main")
    cpu.push_frame(poller)
    engine.run(max_events=2_000_000)
    assert poller.finished, "poller never finished"
    return {
        "finish": [entry for entry in trace if entry[0] == "epoch"][-1][2],
        "user_cycles": cpu.user_cycles,
        "kernel_cycles": cpu.kernel_cycles,
        "trace": trace,
        "now": engine.now,
    }


_cycles = st.integers(min_value=0, max_value=60)
_when = st.integers(min_value=0, max_value=500)
_actions = st.lists(
    st.one_of(
        st.tuples(st.just("at"), _when,
                  st.sampled_from(["upcall", "kernel", "push"]),
                  _cycles, st.booleans()),
        st.tuples(st.just("aim"), _when,
                  st.sampled_from(["upcall", "kernel", "push", "retry"]),
                  _cycles, st.booleans(),
                  st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("switch"), _when,
                  st.integers(min_value=1, max_value=200)),
    ),
    max_size=14,
)


@given(
    interval=st.integers(min_value=2, max_value=13),
    work=st.lists(st.integers(min_value=0, max_value=120),
                  min_size=1, max_size=4),
    actions=_actions,
)
@settings(max_examples=150, deadline=None)
def test_poll_matches_literal_compute_loop(interval, work, actions):
    elided = simulate(True, interval, work, actions)
    literal = simulate(False, interval, work, actions)
    assert elided == literal


def test_push_on_elided_boundary_leaves_full_quantum():
    """A retried push landing exactly on an elided boundary finds the
    poller parked and leaves it a full quantum, as in the literal loop,
    whose wake at that boundary runs before the push."""
    engine = Engine()
    cpu = Processor(engine, 0)
    flag = [False]
    states = []

    def main():
        yield Poll(lambda: flag[0], 10)

    def flipper():
        flag[0] = True
        yield Compute(3)

    frame = Frame(main(), "main")
    cpu.push_frame(frame)

    def push():
        states.append((engine.now, frame.state))
        cpu.push_frame(Frame(flipper(), "flip"))

    engine.call_at(49, lambda: engine.call_after(1, push))
    engine.run()
    # Parked at 10, the first wake; 50 is the fourth elided boundary,
    # whose check ran before the push. Charged: the entry quantum, 40
    # cycles spun, the flipper's 3 and a full quantum after it.
    assert states == [(50, FrameState.POLL)]
    assert frame.finished
    assert engine.now == 63
    assert cpu.user_cycles == 63


def test_poll_interval_below_two_rejected():
    with pytest.raises(ValueError):
        Poll(lambda: True, 1)
    with pytest.raises(ValueError):
        Poll(lambda: True, 0)
