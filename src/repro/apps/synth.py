"""The synth-N producer/consumer application (Section 5.2).

"Our synthetic application, synth-N, performs producer-consumer
communication between four processors with various amounts of
synchronization. At the consumer node, each incoming message from the
producer invokes a request handler that stalls for a short period, and
then sends a reply message. The time to process one of these request
messages (T_hand) is fixed in our experiment at 290 cycles, including
interrupt and kernel overhead. Each node iteratively generates groups
of N messages, directed randomly to the other nodes, and then waits for
all the acknowledgements from that group of requests, effectively
creating a synchronization point and limiting the maximum number of
outstanding requests to N. The interval between individual message
sends is a uniformly distributed random variable with an average of
T_betw cycles."

Figures 9 and 10 sweep ``t_betw`` and the buffered-path cost with
``N ∈ {10, 100, 1000}``.
"""

from __future__ import annotations

from typing import Generator, List

from repro.apps.base import Application
from repro.machine.processor import Compute, Poll
from repro.core.udm import UdmRuntime
from repro.sim.random import DeterministicRng


class SynthApplication(Application):
    """synth-N: grouped request/reply traffic with tunable send rate."""

    name = "synth"

    def __init__(self, group_size: int = 100, t_betw: int = 500,
                 t_hand: int = 290, total_messages_per_node: int = 2000,
                 num_nodes: int = 4, seed: int = 1,
                 locality_groups: int = 0) -> None:
        if group_size < 1:
            raise ValueError("group size must be at least 1")
        if num_nodes < 2:
            raise ValueError("producer/consumer needs at least two nodes")
        if locality_groups:
            if num_nodes % locality_groups:
                raise ValueError(
                    "locality groups must divide the node count"
                )
            if num_nodes // locality_groups < 2:
                raise ValueError(
                    "each locality group needs at least two nodes"
                )
        self.group_size = group_size
        self.t_betw = t_betw
        self.t_hand = t_hand
        self.total_messages_per_node = total_messages_per_node
        self.num_nodes = num_nodes
        self.seed = seed
        #: 0 keeps the paper's all-to-all peer choice; N > 0 confines
        #: each node's random destinations to its contiguous group of
        #: ``num_nodes // N`` nodes (the internet-scale "rack locality"
        #: variant, and what lets sharded execution free-run).
        self.locality_groups = locality_groups
        self.name = f"synth-{group_size}"
        # Per-node acknowledgement counters (node-local state).
        self._acks: List[int] = [0] * num_nodes
        self.replies_received: List[int] = [0] * num_nodes

    def _peers(self, node_index: int) -> List[int]:
        """The destinations this node may address."""
        if not self.locality_groups:
            return [n for n in range(self.num_nodes) if n != node_index]
        size = self.num_nodes // self.locality_groups
        start = (node_index // size) * size
        return [n for n in range(start, start + size) if n != node_index]

    def traffic_locality_groups(self):
        if not self.locality_groups:
            return None
        size = self.num_nodes // self.locality_groups
        return [tuple(range(start, start + size))
                for start in range(0, self.num_nodes, size)]

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _handler_body_cycles(self, rt: UdmRuntime) -> int:
        """Handler stall sized so the *total* per-request cost (body
        plus interrupt and kernel overhead) is T_hand, as in the paper."""
        overhead = rt.costs.fast.receive_interrupt_total
        return max(0, self.t_hand - overhead)

    def _h_request(self, rt: UdmRuntime, msg) -> Generator:
        producer = msg.payload[0]
        yield from rt.dispose_current()
        yield Compute(self._handler_body_cycles(rt))
        yield from rt.inject(producer, self._h_reply, (rt.node_index,))

    def _h_reply(self, rt: UdmRuntime, msg) -> Generator:
        yield from rt.dispose_current()
        yield Compute(5)
        self._acks[rt.node_index] += 1
        self.replies_received[rt.node_index] += 1

    # ------------------------------------------------------------------
    # Main
    # ------------------------------------------------------------------
    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        rng = DeterministicRng(self.seed, f"synth/{node_index}")
        others = self._peers(node_index)
        acks = self._acks
        sent = 0
        while sent < self.total_messages_per_node:
            group = min(self.group_size, self.total_messages_per_node - sent)
            group_start_acks = self._acks[node_index]
            for _ in range(group):
                interval = rng.uniform_interval(self.t_betw)
                if interval:
                    yield Compute(interval)
                dst = rng.choice(others)
                yield from rt.inject(dst, self._h_request, (node_index,))
                sent += 1
            # Synchronization point: wait for the whole group's replies.
            target = group_start_acks + group
            yield Poll(lambda: acks[node_index] >= target, 50)

    def describe(self) -> str:
        return (
            f"synth-{self.group_size}: {self.total_messages_per_node} "
            f"requests/node, T_betw={self.t_betw}, T_hand={self.t_hand}"
        )
