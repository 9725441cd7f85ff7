"""The host's speed, sampled while a run is measured.

On a shared host the same run can take 1.8 times as long for minutes
at a time, as other jobs load the machine: the host runs slower, it
does not take the CPU away, so process CPU time moves with wall time.
No statistic over one invocation's runs removes a slowdown that lasts
the whole invocation. So each measured run also times a fixed probe:
a small discrete-event loop written here (a heap of timed events,
generator processes, method calls on slotted objects, dictionary
stores), the simulator's kind of work but none of its code, so that a
change to the simulator does not change the probe. :class:`Sampler`
runs the probe for about a millisecond every ``INTERVAL_S`` of the run,
from a ``SIGALRM`` handler, so that the samples cover the same moments
as the run. A run's host seconds times ``NOMINAL_S`` over the probe's
mean time are its *reference seconds*: the run's length on a host that
runs the probe in ``NOMINAL_S``.

Under load the probe slows a little more than the simulator (1.86x
against 1.75x in the heaviest spell measured), so reference seconds
still move by a few percent where host seconds move by most of a
factor of two.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from typing import List, Optional

#: Events per probe; seconds one probe takes on an uncontended 2-CPU
#: x86 virtual machine with Python 3.11; seconds between probes.
EVENTS = 1500
NOMINAL_S = 0.0011
INTERVAL_S = 0.05
PORTS = 64


class _Port:
    __slots__ = ("queue", "count", "peer")

    def __init__(self) -> None:
        self.queue: List[int] = []
        self.count = 0
        self.peer: Optional["_Port"] = None

    def deliver(self, item: int) -> int:
        self.queue.append(item)
        self.count += 1
        return len(self.queue)


def _process(port: _Port, table: dict):
    while True:
        when = yield
        if port.queue:
            table[port.queue.pop() & 1023] = when
        port.peer.deliver(when & 4095)


def probe() -> float:
    """Seconds to run the probe once, with the garbage collector held
    off so that the simulator's heap does not lengthen it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        ports = [_Port() for _ in range(PORTS)]
        for i, port in enumerate(ports):
            port.peer = ports[(i * 17 + 5) % PORTS]
        table: dict = {}
        processes = [_process(port, table) for port in ports]
        for process in processes:
            next(process)
        heap = [(i * 37, i) for i in range(PORTS)]
        heapq.heapify(heap)
        start = time.perf_counter()
        for _ in range(EVENTS):
            when, who = heapq.heappop(heap)
            processes[who].send(when)
            heapq.heappush(heap, (when + 1 + (who * 7919 + when) % 97, who))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs :func:`probe` every ``INTERVAL_S`` inside a ``with`` block.

    Forked children do not inherit the timer. Python retries system
    calls that the signal interrupts.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def __enter__(self) -> "Sampler":
        probe()  # the first run of a fresh process is slower
        self._previous = signal.signal(
            signal.SIGALRM, lambda *_: self.samples.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        #: Seconds the probes took out of the block.
        self.spent_s = sum(self.samples)
        if not self.samples:  # a block shorter than one interval
            self.samples.append(probe())

    def probe_s(self) -> float:
        """Mean seconds per probe."""
        return sum(self.samples) / len(self.samples)
