"""Application interface and shared helpers.

An application provides one ``main`` generator per node; the machine
wraps each in a user frame and the gang scheduler runs them. All
inter-node communication goes through the UDM runtime — application
object state shared between per-node coroutines is only used for
verification (checking results) and configuration, never as a covert
communication channel that would bypass the messaging model.

The module also provides :class:`CollectiveOps`, a small library of
message-based collectives (barrier, reduce) built purely on UDM —
the kind of protocol layer the paper says UDM is "an efficient ...
building block" for.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Generator

from repro.machine.processor import Compute, Poll
from repro.core.udm import UdmRuntime


class Application(abc.ABC):
    """Base class for all workloads."""

    #: Job name (also used for the GID label and reports).
    name: str = "app"

    #: False for workloads that never send or receive a message; the
    #: shard coordinator ignores them when deciding whether a partition
    #: admits any cross-shard traffic.
    communicates: bool = True

    @abc.abstractmethod
    def main(self, rt: UdmRuntime, node_index: int) -> Generator:
        """The per-node main thread; a generator coroutine."""

    def traffic_locality_groups(self):
        """Static traffic locality, if the workload can promise one.

        Either None (traffic may touch any node pair — the safe
        default) or an iterable of node-id groups such that every
        message this application ever sends stays within one group.
        The shard coordinator free-runs (no synchronization barriers)
        when all declared groups nest inside single shards.
        """
        return None

    def describe(self) -> str:
        """One-line workload description for reports."""
        return self.name


class CollectiveOps:
    """Barrier and reduction built from UDM messages.

    One instance is shared by all per-node coroutines of a job; the
    shared Python state holds only per-node mailboxes that a real
    implementation would keep in node-local memory. Coordination
    happens through messages: arrivals flow to node 0, which releases
    everyone.
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self._epoch: Dict[int, int] = {n: 0 for n in range(num_nodes)}
        self._arrived: Dict[int, int] = {}
        self._released: Dict[int, int] = {n: 0 for n in range(num_nodes)}
        self._reduce_acc: Dict[int, Any] = {}
        self._reduce_result: Dict[int, Dict[int, Any]] = {
            n: {} for n in range(num_nodes)
        }

    # -- message handlers (run via UDM upcalls or the buffered drain) --
    def _h_arrive(self, rt: UdmRuntime, msg) -> Generator:
        epoch, value = msg.payload
        yield from rt.dispose_current()
        yield Compute(40)
        self._arrived[epoch] = self._arrived.get(epoch, 0) + 1
        acc = self._reduce_acc.get(epoch, 0)
        self._reduce_acc[epoch] = acc + value
        if self._arrived[epoch] == self.num_nodes:
            total = self._reduce_acc.pop(epoch)
            self._arrived.pop(epoch)
            for node in range(self.num_nodes):
                yield from rt.inject(node, self._h_release, (epoch, total))

    def _h_release(self, rt: UdmRuntime, msg) -> Generator:
        epoch, total = msg.payload
        yield from rt.dispose_current()
        yield Compute(25)
        node = rt.node_index
        self._released[node] = max(self._released[node], epoch + 1)
        self._reduce_result[node][epoch] = total

    # -- blocking operations used from main threads ---------------------
    def barrier(self, rt: UdmRuntime, contribute: Any = 0) -> Generator:
        """Block until every node reaches this barrier.

        Returns the sum of every node's ``contribute`` value — a fused
        all-reduce, which is how real barrier libraries amortize their
        traffic.
        """
        node = rt.node_index
        epoch = self._epoch[node]
        self._epoch[node] = epoch + 1
        yield from rt.inject(0, self._h_arrive, (epoch, contribute))
        # Wait for the release; interrupts stay enabled so the release
        # handler can run. Poll the epoch watermark with short sleeps.
        released = self._released
        yield Poll(lambda: released[node] > epoch, 40)
        return self._reduce_result[node].pop(epoch)
