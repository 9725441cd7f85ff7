"""The benchmark's three workloads: inputs from a seed, one run, checks.

Each workload builds its inputs from the seed alone and runs them
through the simulator's real entry points:
``Machine.run_until_job_done`` for the serial workloads and
``repro.shard.run_sharded`` for ``shard_a2a``. ``README.md`` says why
each workload was chosen.

A run may hold several simulations (``Part``): ``mailbox_buffered``
runs the mailbox tier for several seeds derived from the workload seed,
because one mailbox run's length swings with its seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.metrics import RunMetrics, collect_metrics
from repro.apps.barrier import BarrierApplication
from repro.apps.mailbox import MailboxApplication
from repro.apps.null_app import NullApplication
from repro.apps.synth import SynthApplication
from repro.experiments.config import SimulationConfig
from repro.experiments.synth_sweeps import SYNTH_SKEW, T_HAND
from repro.machine.machine import Machine
import repro.shard.coordinator as coordinator

#: Cycle limit of every simulation; reaching it fails the run.
LIMIT = 50_000_000_000
NODES = 8

# barrier_direct: the bench-scale UDM barrier, gang-scheduled against
# null at 5% clock skew.
BARRIER_ITERATIONS = 1000
BARRIER_WORK = 100
BARRIER_SKEW = 0.05

# mailbox_buffered: 100k logical clients, 2 of 8 nodes run the service.
# A single tier's run length swings by +-25% with its seed (reliable-
# transport retry storms come and go), so one run simulates the tier
# for MAILBOX_TIERS seeds derived from the workload seed, at half the
# repo's default message count each.
MAILBOX_TIERS = 8
MAILBOX_CLIENTS = 100_000
MAILBOX_SERVICE_NODES = 2
MAILBOX_RECIPIENTS = 48
MAILBOX_MESSAGES = 200
MAILBOX_GAP = 600
MAILBOX_CAPACITY = 1_024
MAILBOX_FLOWS = 512

# shard_a2a: all-to-all synth traffic on a WAN-latency fabric, at the
# simulator's default timeslice. Latency, credits and group size are
# those of the perf smoke's all-to-all leg. Its 40k-cycle send interval
# makes about half the seeds fall back and half run windowed, so run
# time is bimodal across seeds; at 5k all but two of 43 seeds tried
# fall back on same-cycle arrival collisions, which is the limitation
# this workload is here to measure.
A2A_MESSAGES_PER_NODE = 600
A2A_GROUP = 1000
A2A_T_BETW = 5_000
A2A_LATENCY = 600_000
A2A_CREDITS = 256
A2A_SHARDS = 2


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class Part:
    """One simulation of a run."""

    metrics: RunMetrics
    #: The machine that ran the measured job in this process (None when
    #: the job ran only in shard workers).
    machine: Optional[Machine] = None
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one run produced, beyond its host timings."""

    parts: List[Part]
    #: Execution path: ``serial``, ``windowed``, ``free-run`` or
    #: ``serial-fallback``.
    path: str = "serial"
    flags: List[str] = field(default_factory=list)
    #: Shard-layer measurements (``shard_a2a`` only).
    shard: Dict[str, Any] = field(default_factory=dict)

    def total(self, name: str) -> int:
        """A ``RunMetrics`` count summed over the parts."""
        return sum(getattr(part.metrics, name) for part in self.parts)

    @property
    def buffered_fraction(self) -> float:
        fast = self.total("fast_messages")
        buffered = self.total("buffered_messages")
        return buffered / (fast + buffered) if fast + buffered else 0.0


def digest(parts: List[RunMetrics]) -> str:
    """Stable hash of every ``RunMetrics`` field of every part."""
    blob = json.dumps([asdict(m) for m in parts], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def check_part(part: Part) -> List[str]:
    """Output checks on one simulation."""
    m = part.metrics
    errors = []
    delivered = m.fast_messages + m.buffered_messages
    machine = part.machine
    if machine is not None and machine.transports:
        # A reliable transport adds acks and retransmissions below the
        # application: RunMetrics.messages_sent counts the application's
        # messages, the two cases count every fabric message the job
        # received. The measured job is the only sender on the machine.
        sent, what = machine.fabric.stats.messages_sent, "fabric sends"
    else:
        sent, what = m.messages_sent, "messages_sent"
    if sent != delivered:
        errors.append(f"{what} {sent} != fast {m.fast_messages} + "
                      f"buffered {m.buffered_messages}")
    if m.messages_sent <= 0 or m.elapsed_cycles <= 0:
        errors.append("run sent no messages or took no cycles")
    mailbox = part.extra.get("mailbox")
    if mailbox is not None:
        queued = part.extra["queued_at_exit"]
        accepted = (mailbox["enqueued"] + mailbox["overflow_drops"]
                    + mailbox["duplicates_suppressed"])
        if mailbox["absorbed"] != accepted:
            errors.append(
                f"mailbox absorbed {mailbox['absorbed']} != enqueued + "
                f"dropped + duplicates {accepted}")
        left = mailbox["retrieved"] + mailbox["crash_losses"] + queued
        if mailbox["enqueued"] != left:
            errors.append(
                f"mailbox enqueued {mailbox['enqueued']} != retrieved + "
                f"lost + queued at exit {left}")
        if (m.mailbox_enqueued, m.mailbox_retrieved) != (
                mailbox["enqueued"], mailbox["retrieved"]):
            errors.append("RunMetrics mailbox counters disagree with "
                          "the service's own")
    return errors


def check_outcome(outcome: Outcome) -> List[str]:
    """Output checks that do not need a second run."""
    return [error for part in outcome.parts for error in check_part(part)]


class Serial:
    """A workload run on machines in this process, one after another."""

    sharded = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.instances: List[tuple] = []

    def setup(self) -> None:
        """Build configs and apps, construct the machines, add the jobs
        and start them. Timed as ``setup_s``."""
        raise NotImplementedError

    def run(self) -> Outcome:
        """Run every machine to completion and collect ``RunMetrics``.
        Timed as ``run_s``."""
        parts = []
        for machine, job, app in self.instances:
            machine.run_until_job_done(job, limit=LIMIT)
            parts.append(Part(collect_metrics(machine, job), machine,
                              self.part_extra(app)))
        return Outcome(parts)

    def part_extra(self, app) -> Dict[str, Any]:
        return {}


class BarrierDirect(Serial):
    name = "barrier_direct"

    def setup(self) -> None:
        config = SimulationConfig(num_nodes=NODES, seed=self.seed,
                                  skew_fraction=BARRIER_SKEW)
        app = BarrierApplication(iterations=BARRIER_ITERATIONS,
                                 num_nodes=NODES,
                                 work_between=BARRIER_WORK)
        machine = Machine(config)
        job = machine.add_job(app)
        machine.add_job(NullApplication())
        machine.start()
        self.instances = [(machine, job, app)]


class MailboxBuffered(Serial):
    name = "mailbox_buffered"

    def setup(self) -> None:
        self.instances = []
        for tier in range(MAILBOX_TIERS):
            seed = self.seed * MAILBOX_TIERS + tier
            config = SimulationConfig(num_nodes=NODES, seed=seed,
                                      delivery="twocase")
            app = MailboxApplication(
                num_nodes=NODES, mailbox_nodes=MAILBOX_SERVICE_NODES,
                clients=MAILBOX_CLIENTS, recipients=MAILBOX_RECIPIENTS,
                messages_per_gateway=MAILBOX_MESSAGES,
                mean_gap=MAILBOX_GAP, mailbox_capacity=MAILBOX_CAPACITY,
                max_active_flows=MAILBOX_FLOWS, seed=seed)
            machine = Machine(config)
            job = machine.add_job(app)
            machine.start()
            self.instances.append((machine, job, app))

    def part_extra(self, app) -> Dict[str, Any]:
        return {"mailbox": app.stats.snapshot(),
                "queued_at_exit": app.service.queued_total()}


class ShardProbe:
    """Times the shard layer from the parent process.

    Wraps ``repro.shard.coordinator._run_workers`` (the sharded
    attempt: fork, run, harvest, join) for the duration of one
    ``run_sharded`` call, and catches the machine of a serial re-run in
    this process, whose counters the traced run reports.
    """

    def __init__(self) -> None:
        self.attempt_s = 0.0
        self.worker_cpu_s = 0.0
        self.partials: Optional[List[Dict[str, Any]]] = None
        self.serial_machine: Optional[Machine] = None

    def __enter__(self) -> "ShardProbe":
        run_workers = self._run_workers = coordinator._run_workers
        run_until = self._run_until = Machine.run_until_job_done
        probe = self

        def timed_workers(*args, **kwargs):
            cpu0 = _children_cpu()
            start = time.perf_counter()
            try:
                result = run_workers(*args, **kwargs)
            finally:
                probe.attempt_s += time.perf_counter() - start
                probe.worker_cpu_s += _children_cpu() - cpu0
            if not isinstance(result, str):  # a string means "fall back"
                probe.partials = result
            return result

        def serial_run(machine, job, limit=None):
            probe.serial_machine = machine
            return run_until(machine, job, limit)

        coordinator._run_workers = timed_workers
        Machine.run_until_job_done = serial_run
        return self

    def __exit__(self, *exc) -> None:
        coordinator._run_workers = self._run_workers
        Machine.run_until_job_done = self._run_until

    def measurements(self, extra: Dict[str, Any],
                     fell_back: bool) -> Dict[str, Any]:
        """The shard layer's per-layer metrics for this run."""
        partials = self.partials or []
        worker_wall = sum(p["wall_seconds"] for p in partials)
        return {
            "shard.attempt_s": self.attempt_s,
            "shard.worker_busy_s": self.worker_cpu_s,
            "shard.barrier_wait_s": max(0.0,
                                        worker_wall - self.worker_cpu_s),
            "shard.discarded_s": self.attempt_s if fell_back else 0.0,
            "shard.fallbacks": extra.get("serial_fallbacks", 0),
            "shard.kept_frac": (0.0 if fell_back or not self.attempt_s
                                else 1.0),
            "shard.epochs": extra.get("shard_epochs", 0),
            "shard.cross_shard_messages": extra.get("cross_shard_messages",
                                                    0),
            "shard.bytes_exchanged": extra.get("bytes_exchanged", 0),
            "shard.encode_s": sum(p["encode_seconds"] for p in partials),
            "shard.worker_events": sum(p["events_executed"]
                                       for p in partials),
        }


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class ShardA2A:
    """All-to-all synth traffic through ``run_sharded``."""

    name = "shard_a2a"
    sharded = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.shards = min(A2A_SHARDS, cpu_count())

    def _config(self, shards: int) -> SimulationConfig:
        return SimulationConfig(num_nodes=NODES, seed=self.seed,
                                skew_fraction=SYNTH_SKEW, shards=shards,
                                net_base_latency=A2A_LATENCY,
                                fabric_credits=A2A_CREDITS)

    def _apps(self) -> list:
        return [SynthApplication(group_size=A2A_GROUP, t_betw=A2A_T_BETW,
                                 t_hand=T_HAND,
                                 total_messages_per_node=A2A_MESSAGES_PER_NODE,
                                 num_nodes=NODES, seed=self.seed,
                                 locality_groups=0),
                NullApplication()]

    def setup(self) -> None:
        """Everything before the ``run_sharded`` call."""
        self.config = self._config(self.shards)
        self.apps = self._apps()

    def run(self) -> Outcome:
        with ShardProbe() as probe:
            metrics, extra = coordinator.run_sharded(
                self.config, self.apps, measured_index=0, limit=LIMIT)
        path = extra["shard_mode"]
        return Outcome([Part(metrics, probe.serial_machine)], path=path,
                       flags=list(extra.get("shard_flags", [])),
                       shard=probe.measurements(
                           extra, path == "serial-fallback"))

    def reference(self) -> List[RunMetrics]:
        """The same spec on one machine in this process (untimed)."""
        apps = self._apps()
        machine = Machine(self._config(1))
        jobs = [machine.add_job(app) for app in apps]
        machine.start()
        machine.run_until_job_done(jobs[0], limit=LIMIT)
        return [collect_metrics(machine, jobs[0])]


WORKLOADS: Dict[str, Callable[[int], Any]] = {
    BarrierDirect.name: BarrierDirect,
    MailboxBuffered.name: MailboxBuffered,
    ShardA2A.name: ShardA2A,
}
