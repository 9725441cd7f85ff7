"""Property tests for the event engine and processor scheduling."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.processor import Compute, Frame, Processor
from repro.sim.engine import Engine
from repro.sim.random import DeterministicRng


@given(delays=st.lists(st.integers(min_value=0, max_value=1000),
                       min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_callbacks_fire_in_nondecreasing_time_order(delays):
    engine = Engine()
    fired = []
    for delay in delays:
        engine.call_after(delay, lambda: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert engine.now == max(delays)


@given(
    user_chunks=st.lists(st.integers(min_value=1, max_value=100),
                         min_size=1, max_size=20),
    interrupts=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1000),
                  st.integers(min_value=1, max_value=50)),
        max_size=6,
    ),
)
@settings(max_examples=100, deadline=None)
def test_preempted_compute_conserves_total_cycles(user_chunks, interrupts):
    """No user cycles are lost or duplicated across preemptions: the
    final completion time is exactly user work + kernel work that
    preempted it (when everything overlaps serially on one CPU)."""
    engine = Engine()
    cpu = Processor(engine, 0)
    finished = []

    def user():
        for c in user_chunks:
            yield Compute(c)
        finished.append(engine.now)

    def kernel(length):
        yield Compute(length)

    cpu.push_frame(Frame(user(), "user"))
    total_kernel_before_end = 0
    user_total = sum(user_chunks)
    for at, length in interrupts:
        engine.call_at(
            at, lambda l=length: cpu.raise_kernel(
                lambda: Frame(kernel(l), "k", kernel=True))
        )
    engine.run()
    assert len(finished) == 1
    end = finished[0]
    # Kernel frames raised before the user finished add their length;
    # ones raised after do not. Either way the end time is at least the
    # user's own total and cycle accounting matches.
    assert end >= user_total
    assert cpu.user_cycles == user_total


@given(seed=st.integers(min_value=0, max_value=2**31),
       name=st.text(min_size=0, max_size=20))
@settings(max_examples=100, deadline=None)
def test_rng_streams_reproducible(seed, name):
    a = DeterministicRng(seed, name)
    b = DeterministicRng(seed, name)
    assert [a.uniform_int(0, 100) for _ in range(10)] == \
        [b.uniform_int(0, 100) for _ in range(10)]


@given(seed=st.integers(min_value=0, max_value=2**31),
       mean=st.integers(min_value=1, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_uniform_interval_bounds_and_mean(seed, mean):
    rng = DeterministicRng(seed, "interval")
    samples = [rng.uniform_interval(mean) for _ in range(300)]
    assert all(0 <= s <= 2 * mean for s in samples)
    average = sum(samples) / len(samples)
    assert 0.75 * mean <= average <= 1.25 * mean
