"""Discrete-event simulation kernel.

A minimal, fast, deterministic event engine. Time is a global integer
cycle counter. Higher layers (machine, network, OS) are built from three
primitives:

* :class:`~repro.sim.engine.Engine` — the calendar queue, clock and the
  one run loop. It dispatches three callback shapes (a bare callable,
  an ``(fn, arg)`` pair, a cancellable handle from ``call_at``);
  ``run(until=..., max_events=...)`` bounds it and ``stop()`` halts it
  after the current event in every run.
* :class:`~repro.sim.events.Event` — one-shot triggerable events.
* :class:`~repro.sim.random.DeterministicRng` — seeded, named random
  streams.
"""

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event, EventAlreadyTriggered
from repro.sim.random import DeterministicRng

__all__ = [
    "Engine",
    "SimulationError",
    "Event",
    "EventAlreadyTriggered",
    "DeterministicRng",
]
