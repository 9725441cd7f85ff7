"""Unit tests for the delivery disciplines (repro.ni.delivery).

The discipline objects are exercised in isolation against stub NI and
kernel objects, pinning the two edges ISSUE 7 names:

* zero-copy: a protection fault mid-burst diverts to the buffered path
  and the pinned-page accounting returns to zero once the ring drains;
* DAMQ: eviction ordering under occupancy pressure (heaviest source
  first, lowest source id on ties).
"""

from collections import deque

import pytest

from repro.core.two_case import DeliveryMode, TransitionReason
from repro.network.message import Message
from repro.ni.delivery import (DamqDiscipline, DeliveryDiscipline,
                               TwoCaseDiscipline, ZeroCopyDiscipline,
                               make_discipline)
from repro.ni.interface import NiConfig


class _Registers:
    def __init__(self):
        self.divert_mode = False
        self.current_gid = 7


class _StubNi:
    def __init__(self):
        self.registers = _Registers()
        self._input = deque()


class _StubState:
    def __init__(self, mode=DeliveryMode.FAST):
        self.mode = mode


class _StubKernel:
    """Records enter_buffered_mode calls; one state per gid."""

    def __init__(self):
        self.states = {}
        self.transitions = []

    def state_for(self, gid, mode=DeliveryMode.FAST):
        return self.states.setdefault(gid, _StubState(mode))

    def _target_state(self, gid):
        return self.states.get(gid)

    def enter_buffered_mode(self, state, reason):
        state.mode = DeliveryMode.BUFFERED
        self.transitions.append(reason)


def _msg(src=1, gid=7, words=3):
    # length_words = 2 + len(payload)
    return Message(dst=0, handler=None, payload=(0,) * (words - 2),
                   src=src, gid=gid)


def _zerocopy(ring_words=8, page_size_words=4):
    config = NiConfig(input_queue_capacity=ring_words,
                      delivery="zerocopy",
                      zerocopy_ring_words=ring_words,
                      page_size_words=page_size_words)
    ni = _StubNi()
    disc = ZeroCopyDiscipline(config, ni)
    kernel = _StubKernel()
    disc.bind(kernel)
    return disc, ni, kernel


def _damq(capacity=4):
    config = NiConfig(input_queue_capacity=capacity, delivery="damq")
    ni = _StubNi()
    disc = DamqDiscipline(config, ni)
    kernel = _StubKernel()
    disc.bind(kernel)
    return disc, ni, kernel


def _accept(disc, ni, message):
    ni._input.append(message)
    disc.on_accept(message)


def _dispose(disc, ni):
    message = ni._input.popleft()
    disc.on_dispose(message)
    return message


# ----------------------------------------------------------------------
# Factory / base interface
# ----------------------------------------------------------------------
def test_make_discipline_dispatch():
    ni = _StubNi()
    assert isinstance(make_discipline(NiConfig(), ni), TwoCaseDiscipline)
    assert isinstance(
        make_discipline(NiConfig(delivery="zerocopy"), ni),
        ZeroCopyDiscipline)
    assert isinstance(
        make_discipline(NiConfig(delivery="damq"), ni), DamqDiscipline)
    with pytest.raises(ValueError):
        make_discipline(NiConfig(delivery="bogus"), ni)


def test_twocase_is_pure_noop():
    disc = make_discipline(NiConfig(), _StubNi())
    assert not disc.shapes_admission
    assert disc.kernel_drain_cost(None) == 0
    # The base hooks do nothing — the default path never consults them.
    disc.on_accept(_msg())
    disc.on_dispose(_msg())


def test_base_admit_unimplemented():
    disc = DeliveryDiscipline(NiConfig(), _StubNi())
    with pytest.raises(NotImplementedError):
        disc.admit(_StubNi(), _msg())


# ----------------------------------------------------------------------
# Zero-copy: pinning, fault fallback, drain-to-zero
# ----------------------------------------------------------------------
def test_zerocopy_pins_matching_messages_and_drains_to_zero():
    disc, ni, _kernel = _zerocopy(ring_words=8, page_size_words=4)
    for _ in range(2):  # 2 x 3 words = 6 <= 8: both pin
        m = _msg(words=3)
        assert disc.admit(ni, m)
        _accept(disc, ni, m)
    assert disc.pinned_words == 6
    assert disc.pinned_pages == 2           # ceil(6 / 4)
    assert disc.stats.pinned_pages_peak == 2
    assert disc.stats.zerocopy_accepts == 2
    while ni._input:
        _dispose(disc, ni)
    assert disc.pinned_words == 0
    assert disc.pinned_pages == 0
    # The peak is a high-water mark; it survives the drain.
    assert disc.stats.pinned_pages_peak == 2


def test_zerocopy_fault_mid_burst_diverts_then_accepts():
    disc, ni, kernel = _zerocopy(ring_words=8)
    state = kernel.state_for(7)
    for _ in range(2):
        m = _msg(words=3)
        assert disc.admit(ni, m)
        _accept(disc, ni, m)
    # Third message cannot fit (6 + 3 > 8): protection fault. The
    # message is still ACCEPTED — it rides the buffered path instead.
    overflow = _msg(words=3)
    assert disc.admit(ni, overflow) is True
    assert disc.stats.fallbacks == 1
    assert state.mode is DeliveryMode.BUFFERED
    assert kernel.transitions == [TransitionReason.ZEROCOPY_FAULT]
    # With the job diverted, the message no longer matches the user
    # ring and must not pin (the kernel drains it to the buffer).
    ni.registers.divert_mode = True
    _accept(disc, ni, overflow)
    assert disc.pinned_words == 6
    # A second overflow while already buffered: no duplicate transition.
    another = _msg(words=3)
    assert disc.admit(ni, another) is True
    assert kernel.transitions == [TransitionReason.ZEROCOPY_FAULT]
    # Drain everything: accounting returns exactly to zero.
    while ni._input:
        _dispose(disc, ni)
    assert disc.pinned_words == 0
    assert disc.pinned_pages == 0


def test_zerocopy_ignores_kernel_and_mismatched_traffic():
    disc, ni, _kernel = _zerocopy(ring_words=4)
    kernel_msg = _msg(gid=0, words=3)      # KERNEL_GID
    foreign = _msg(gid=9, words=3)         # not the running gid
    for m in (kernel_msg, foreign):
        assert disc.admit(ni, m)           # never constrained by the ring
        _accept(disc, ni, m)
    assert disc.pinned_words == 0
    assert disc.stats.zerocopy_accepts == 0
    assert disc.stats.fallbacks == 0


def test_zerocopy_drain_cost_counts_fault_traps():
    disc, _ni, _kernel = _zerocopy()

    class _Kc:
        zerocopy_fault_trap = 300

    class _Costs:
        kernel = _Kc()

    assert disc.kernel_drain_cost(_Costs()) == 300
    assert disc.stats.fault_traps == 1


# ----------------------------------------------------------------------
# DAMQ: dynamic partitioning and eviction ordering
# ----------------------------------------------------------------------
def test_damq_share_shrinks_with_active_sources():
    disc, ni, _kernel = _damq(capacity=4)
    assert disc.share_limit(1) == 4        # alone: the whole pool
    m = _msg(src=1)
    assert disc.admit(ni, m)
    _accept(disc, ni, m)
    assert disc.share_limit(1) == 4        # still the only source
    assert disc.share_limit(2) == 3        # a second source reserves one


def test_damq_share_refusal_is_counted_and_retried_not_dropped():
    disc, ni, _kernel = _damq(capacity=3)
    # Source 1 fills its share while source 2 is active.
    m2 = _msg(src=2)
    assert disc.admit(ni, m2)
    _accept(disc, ni, m2)
    limit = disc.share_limit(1)
    for _ in range(limit):
        m = _msg(src=1)
        assert disc.admit(ni, m)
        _accept(disc, ni, m)
    refused = _msg(src=1)
    assert disc.admit(ni, refused) is False
    assert disc.stats.damq_share_refusals == 1
    # A dispose frees a slot and the same message is admissible again.
    _dispose(disc, ni)                     # pops m2 (src 2)
    assert disc.admit(ni, refused) is True


def test_damq_eviction_ordering_under_occupancy_pressure():
    disc, ni, kernel = _damq(capacity=4)
    kernel.state_for(7)
    # Sources 1 and 2 each hold 2 slots: tie on occupancy, so the
    # victim must be the lowest source id (1).
    for src in (1, 2, 1, 2):
        m = _msg(src=src)
        assert disc.admit(ni, m)
        _accept(disc, ni, m)
    assert disc.choose_victim() == 1
    overflow = _msg(src=3)
    assert disc.admit(ni, overflow) is False   # pool full: refuse...
    assert disc.stats.damq_evictions == 1      # ...and evict the victim
    assert kernel.transitions == [TransitionReason.QUEUE_PRESSURE]
    # Heaviest source wins over id ordering.
    _dispose(disc, ni)                         # src 1 -> occupancy 1
    assert disc.choose_victim() == 2


def test_damq_eviction_is_idempotent_while_buffered():
    disc, ni, kernel = _damq(capacity=2)
    kernel.state_for(7)
    for src in (1, 1):
        m = _msg(src=src)
        assert disc.admit(ni, m)
        _accept(disc, ni, m)
    assert disc.admit(ni, _msg(src=2)) is False
    assert disc.stats.damq_evictions == 1
    # The target is already buffered: further pressure does not count
    # new evictions (the pending drain will free the slots).
    assert disc.admit(ni, _msg(src=2)) is False
    assert disc.stats.damq_evictions == 1
    assert kernel.transitions == [TransitionReason.QUEUE_PRESSURE]


def test_damq_dispose_unthreads_per_source_lists():
    disc, ni, _kernel = _damq(capacity=4)
    first, second = _msg(src=1), _msg(src=1)
    for m in (first, second):
        assert disc.admit(ni, m)
        _accept(disc, ni, m)
    assert list(disc._per_source[1]) == [first, second]
    assert _dispose(disc, ni) is first
    assert list(disc._per_source[1]) == [second]
    assert disc.occupancy == {1: 1}
    _dispose(disc, ni)
    assert disc.occupancy == {}
    assert disc._per_source == {}
