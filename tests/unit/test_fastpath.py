"""Unit tests for the contracts the fabric send and NI delivery keep.

The fabric and NI each have one send/delivery path; the class and test
names date from when each also had a quiescent shortcut, and every
behaviour they pinned on that shortcut is still pinned here:

* fabric — sends deliver; an attached tracer sees the message and an
  attached fault injector decides its fate, and detaching either is
  immediate; a short message never overtakes a longer one on the same
  (src, dst) pair; a send to an unknown port or without a network
  credit raises;
* NI — a matching message raises one user upcall; a GID mismatch, a
  kernel-GID message and divert mode raise the kernel's mismatch
  interrupt instead; interrupt-disable (until ``endatom``), a missing
  upcall hook or an upcall already in service hold the upcall back;
  timer-force arms the atomicity timer without holding it back.
"""

import pytest

from repro.analysis.trace import MessageTracer, TraceEvent
from repro.network.fabric import NetworkFabric
from repro.network.message import KERNEL_GID, Message
from repro.network.topology import MeshTopology
from repro.ni.interface import NetworkInterface, NiConfig
from repro.ni.uac import INTERRUPT_DISABLE, TIMER_FORCE
from repro.sim.engine import Engine


# ----------------------------------------------------------------------
# Fabric
# ----------------------------------------------------------------------
class RecordingPort:
    def __init__(self, capacity=100):
        self.capacity = capacity
        self.queue = []

    def network_deliver(self, message):
        if len(self.queue) >= self.capacity:
            return False
        self.queue.append(message)
        return True


def build_fabric(num_nodes=2):
    engine = Engine()
    fabric = NetworkFabric(engine, MeshTopology(num_nodes))
    ports = []
    for node in range(num_nodes):
        port = RecordingPort()
        fabric.attach(node, port)
        ports.append(port)
    return engine, fabric, ports


class TestFabricFastPath:
    def test_quiescent_send_takes_fast_path(self):
        engine, fabric, ports = build_fabric()
        message = Message(dst=1, handler="h", src=0, gid=1)
        fabric.send(message)
        engine.run()
        assert ports[1].queue == [message]
        assert fabric.stats.messages_sent == 1
        assert fabric.stats.messages_delivered == 1
        assert message.deliver_time > message.inject_time

    def test_tracer_is_a_disturbance(self):
        engine, fabric, ports = build_fabric()
        tracer = fabric.tracer = MessageTracer()
        traced = Message(dst=1, handler="h", src=0, gid=1)
        fabric.send(traced)
        engine.run()
        events = [r.event for r in tracer.trace_of(traced.msg_id).records]
        assert events == [TraceEvent.INJECT, TraceEvent.DELIVER]
        # Detaching takes effect for the next message.
        fabric.tracer = None
        untraced = Message(dst=1, handler="h", src=0, gid=1)
        fabric.send(untraced)
        engine.run()
        assert tracer.trace_of(untraced.msg_id) is None
        assert fabric.stats.messages_delivered == 2

    def test_injector_is_a_disturbance(self):
        engine, fabric, ports = build_fabric()
        consulted = []

        class NullInjector:
            def on_send(self, message):
                consulted.append(message.msg_id)

                class Decision:
                    drop = False
                    extra_latency = 0
                    duplicate = False
                    unordered = False
                    jitter = 0
                return Decision()

        fabric.injector = NullInjector()
        message = Message(dst=1, handler="h", src=0, gid=1)
        fabric.send(message)
        engine.run()
        assert consulted == [message.msg_id]
        assert ports[1].queue == [message]
        fabric.injector = None
        fabric.send(Message(dst=1, handler="h", src=0, gid=1))
        engine.run()
        assert len(consulted) == 1
        assert len(ports[1].queue) == 2

    def test_fast_path_keeps_send_contracts(self):
        engine, fabric, ports = build_fabric()
        with pytest.raises(ValueError):
            fabric.send(Message(dst=99, handler="h", src=0, gid=1))
        for i in range(fabric.credits_per_destination):
            fabric.send(Message(dst=1, handler=i, src=0, gid=1))
        with pytest.raises(RuntimeError):
            fabric.send(Message(dst=1, handler="over", src=0, gid=1))

    def test_fast_path_preserves_pair_fifo(self):
        engine, fabric, ports = build_fabric()
        fabric.send(Message(dst=1, handler="big", src=0, gid=1,
                            payload=tuple(range(12))))
        fabric.send(Message(dst=1, handler="small", src=0, gid=1))
        engine.run()
        assert [m.handler for m in ports[1].queue] == ["big", "small"]
        assert fabric.stats.messages_delivered == 2


# ----------------------------------------------------------------------
# Network interface
# ----------------------------------------------------------------------
def build_ni(**ni_kwargs):
    engine = Engine()
    fabric = NetworkFabric(engine, MeshTopology(2))
    nis = [
        NetworkInterface(engine, node, fabric, NiConfig(**ni_kwargs))
        for node in range(2)
    ]
    return engine, fabric, nis


def arm(ni, gid=1):
    """Wire both interrupt hooks and install ``gid`` (runs ``_update``)."""
    ni.deliver_message_available = lambda: None
    ni.deliver_mismatch_available = lambda: None
    ni.set_current_gid(gid)


def deliver(engine, fabric, ni, gid=1):
    fabric.send(Message(dst=ni.node_id, handler="h", src=0, gid=gid))
    engine.run()


def assert_kernel_interrupt(fabric, ni):
    assert fabric.stats.messages_delivered == 1
    assert ni.stats.mismatch_interrupts == 1
    assert ni.stats.message_available_upcalls == 0
    assert ni.mismatch_pending


class TestNiFastPath:
    def test_quiescent_matching_delivery_is_fast(self):
        engine, fabric, nis = build_ni()
        arm(nis[1])
        deliver(engine, fabric, nis[1])
        assert nis[1].stats.message_available_upcalls == 1
        assert nis[1].stats.mismatch_interrupts == 0
        assert nis[1].message_available
        assert nis[1].stats.max_input_queue == 1

    def test_gid_mismatch_routes_general(self):
        engine, fabric, nis = build_ni()
        arm(nis[1], gid=1)
        deliver(engine, fabric, nis[1], gid=2)
        assert_kernel_interrupt(fabric, nis[1])

    def test_kernel_gid_routes_general(self):
        engine, fabric, nis = build_ni()
        arm(nis[1], gid=KERNEL_GID)
        deliver(engine, fabric, nis[1], gid=KERNEL_GID)
        assert_kernel_interrupt(fabric, nis[1])

    def test_divert_mode_routes_general(self):
        engine, fabric, nis = build_ni()
        arm(nis[1])
        nis[1].set_divert_mode(True)
        deliver(engine, fabric, nis[1])
        # Divert mode steals even a matching message for the kernel.
        assert_kernel_interrupt(fabric, nis[1])

    def test_interrupt_disable_routes_general(self):
        engine, fabric, nis = build_ni()
        arm(nis[1])
        nis[1].beginatom(INTERRUPT_DISABLE)
        deliver(engine, fabric, nis[1])
        assert nis[1].stats.message_available_upcalls == 0
        assert nis[1].message_available  # still readable by polling
        # Interrupt-disable with a message pending runs the timer.
        assert nis[1].stats.atomicity_timeouts == 1

    def test_timer_force_routes_general(self):
        engine, fabric, nis = build_ni()
        arm(nis[1])
        nis[1].beginatom(TIMER_FORCE)
        deliver(engine, fabric, nis[1])
        assert nis[1].stats.message_available_upcalls == 1
        assert nis[1].stats.atomicity_timeouts == 1

    def test_endatom_restores_fast_path(self):
        engine, fabric, nis = build_ni()
        arm(nis[1])
        nis[1].beginatom(INTERRUPT_DISABLE)
        nis[1].endatom(INTERRUPT_DISABLE)
        deliver(engine, fabric, nis[1])
        assert nis[1].stats.message_available_upcalls == 1
        assert nis[1].stats.atomicity_timeouts == 0

    def test_queued_backlog_routes_general(self):
        engine, fabric, nis = build_ni()
        arm(nis[1])
        deliver(engine, fabric, nis[1])
        deliver(engine, fabric, nis[1])   # head not yet disposed
        # The upcall for the head is still in service: no second one.
        assert nis[1].stats.message_available_upcalls == 1
        assert nis[1].input_queue_length == 2
        assert fabric.stats.messages_delivered == 2

    def test_missing_upcall_hook_routes_general(self):
        engine, fabric, nis = build_ni()
        nis[1].set_current_gid(1)  # no deliver_message_available wired
        deliver(engine, fabric, nis[1])
        assert nis[1].stats.message_available_upcalls == 0
        assert nis[1].message_available
