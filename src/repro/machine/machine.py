"""The whole simulated FUGU machine.

Assembles the engine, interconnect, nodes (processor + NI + kernel),
gang scheduler and overflow control from a
:class:`~repro.experiments.config.SimulationConfig`; owns job creation
and the run loop.

Typical use::

    machine = Machine(SimulationConfig(num_nodes=8, skew_fraction=0.02))
    job = machine.add_job(MyApplication())
    null = machine.add_job(NullApplication())
    machine.start()
    machine.run_until_job_done(job)
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.sim.engine import Engine
from repro.sim.random import DeterministicRng
from repro.network.fabric import NetworkFabric
from repro.network.second_network import SecondNetwork
from repro.network.topology import MeshTopology
from repro.ni.gid import GidAuthority
from repro.machine.node import Node
from repro.machine.processor import Frame
from repro.glaze.buffering import VirtualBuffer
from repro.glaze.jobs import Job, JobNodeState
from repro.glaze.overflow import OverflowControl
from repro.glaze.scheduler import GangScheduler
from repro.glaze.vm import AddressSpace

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.config import SimulationConfig


class Machine:
    """A complete simulated multiprocessor running Glaze."""

    def __init__(self, config: Optional["SimulationConfig"] = None) -> None:
        if config is None:
            from repro.experiments.config import SimulationConfig

            config = SimulationConfig()
        self.config = config
        self.engine = Engine()
        self.costs = self.config.cost_model()
        self.rng = DeterministicRng(self.config.seed, "machine")
        self.topology = MeshTopology(
            self.config.num_nodes,
            base_latency=self.config.net_base_latency,
            per_hop_latency=self.config.net_per_hop_latency,
            per_word_latency=self.config.net_per_word_latency,
        )
        self.fabric = self._build_fabric()
        self.second_network = SecondNetwork(self.engine)
        self.gids = GidAuthority()
        self.overflow = OverflowControl(self.config.overflow)
        self.nodes: List[Node] = [
            Node(self, node_id) for node_id in range(self.config.num_nodes)
        ]
        #: Optional fault injector (see repro.faults); wired when the
        #: config carries a non-null FaultPlan.
        self.fault_injector = None
        plan = getattr(self.config, "faults", None)
        if plan is not None and not plan.is_null():
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(plan)
            self.fabric.injector = self.fault_injector
            for node in self.nodes:
                node.ni.fault_injector = self.fault_injector
        self.scheduler = GangScheduler(
            self, self.config.timeslice, self.config.skew_fraction
        )
        self.jobs: List[Job] = []
        self._jobs_by_gid: Dict[int, Job] = {}
        self.start_offset = 0
        self._started = False
        #: Optional message tracer (see repro.analysis.trace).
        self.tracer = None
        #: Optional observatory (see repro.obs); same None-check
        #: contract as the tracer.
        self.obs = None
        #: Reliable transports active on this machine, registered at
        #: first send so collect_metrics/obs can harvest their ledgers.
        self.transports: List = []
        #: Mailbox services (see repro.apps.mailbox), registered by the
        #: mailbox application so metric collection, observability and
        #: the fault injector's crash schedule can reach their state.
        self.mailboxes: List = []
        #: gid -> application object, so the shard channel can rebind a
        #: cross-shard message's handler by name on the owning shard.
        self.apps_by_gid: Dict[int, object] = {}
        #: Sharded-execution statistics (see repro.shard); populated by
        #: the shard coordinator, None on ordinary single-process runs
        #: (the Observatory harvests it as an authoritative zero).
        self.shard_stats = None

    def _build_fabric(self) -> NetworkFabric:
        """Fabric factory hook; ShardMachine overrides it to divert
        cross-shard traffic into the epoch outbox."""
        return NetworkFabric(
            self.engine, self.topology, self.config.fabric_credits
        )

    def scheduled_nodes(self) -> List[Node]:
        """The nodes the gang scheduler drives. The whole machine here;
        a ShardMachine narrows this to its own node group so inactive
        replica nodes stay inert."""
        return self.nodes

    def enable_tracing(self, limit: Optional[int] = 100_000):
        """Record per-message lifecycle events (Figure 2/5 timelines)."""
        from repro.analysis.trace import MessageTracer

        self.tracer = MessageTracer(limit=limit)
        self.fabric.tracer = self.tracer
        return self.tracer

    def enable_observability(self, sample_interval: Optional[int] = None):
        """Attach a :class:`~repro.obs.Observatory` to this machine.

        Wires the live histogram hooks into the fabric and every NI and
        (when ``sample_interval`` is given) starts periodic timeline
        snapshots. Call before :meth:`start`; after the run, call
        ``obs.finalize()`` to harvest the per-subsystem stats objects.
        """
        from repro.obs import Observatory

        obs = Observatory(self, sample_interval=sample_interval)
        self.obs = obs
        self.fabric.obs = obs
        for node in self.nodes:
            node.ni.obs = obs
        if self._started:
            obs.start()
        return obs

    def register_transport(self, transport) -> None:
        """Record a reliable transport so end-of-run metric collection
        can sum its ledgers (retransmissions, acks, give-ups)."""
        if transport not in self.transports:
            self.transports.append(transport)

    def register_mailbox(self, service) -> None:
        """Record a mailbox service (see :mod:`repro.apps.mailbox`) so
        metric collection, observability and the fault injector's
        crash schedule can reach its queues and counters."""
        if service not in self.mailboxes:
            self.mailboxes.append(service)

    def enable_invariant_checker(self):
        """Attach a :class:`~repro.faults.DeliveryInvariantChecker`.

        Enables unbounded tracing (the checker needs complete message
        histories) and returns the checker; call ``checker.check()``
        after the run. Always usable — with or without a fault plan.
        """
        from repro.faults.checker import DeliveryInvariantChecker

        if self.tracer is None or self.tracer.limit is not None:
            self.enable_tracing(limit=None)
        return DeliveryInvariantChecker(self)

    # ------------------------------------------------------------------
    # Job management
    # ------------------------------------------------------------------
    def add_job(self, app) -> Job:
        """Create a job running ``app`` on every node.

        ``app`` must provide ``name`` and a ``main(rt, node_index)``
        generator-function (see :mod:`repro.apps.base`).
        """
        if self._started:
            raise RuntimeError("cannot add jobs after the machine started")
        from repro.core.udm import UdmRuntime

        from repro.core.two_case import DeliveryArchitecture, DeliveryMode
        from repro.glaze.buffering import PinnedQueue

        memory_based = (
            self.config.architecture is DeliveryArchitecture.MEMORY_BASED
        )
        gid = self.gids.allocate(app.name)
        job = Job(app.name, gid, self.config.num_nodes)
        for node in self.nodes:
            space = AddressSpace(node.frame_pool,
                                 self.config.page_size_words)
            if memory_based:
                buffer = PinnedQueue(space,
                                     self.config.pinned_pages_per_job)
            else:
                buffer = VirtualBuffer(space)
            state = JobNodeState(job, node.node_id, space, buffer)
            if memory_based:
                # The baseline has no fast case: messages always land
                # in the pinned memory queue.
                state.mode = DeliveryMode.BUFFERED
            job.node_states[node.node_id] = state
        for node in self.nodes:
            state = job.node_states[node.node_id]
            runtime = UdmRuntime(self, job, node)
            state.runtime = runtime
            main = self._main_wrapper(runtime, app.main(runtime,
                                                        node.node_id))
            state.frames = [Frame(
                main, name=f"{app.name}@{node.node_id}", kernel=False,
                job_gid=gid,
            )]
        self.jobs.append(job)
        self._jobs_by_gid[gid] = job
        self.apps_by_gid[gid] = app
        self.scheduler.add_job(job)
        return job

    @staticmethod
    def _main_wrapper(runtime, main_gen) -> Generator:
        yield from main_gen
        runtime.finish_main()

    def job_by_gid(self, gid: int) -> Optional[Job]:
        return self._jobs_by_gid.get(gid)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Install the first quantum on every node."""
        if self._started:
            raise RuntimeError("machine already started")
        self._started = True
        self.start_offset = self.engine.now
        for job in self.jobs:
            job.start_time = self.engine.now
        if self.fault_injector is not None:
            self.fault_injector.schedule_forced_expiries(self)
            self.fault_injector.schedule_mailbox_crashes(self)
        if self.obs is not None:
            self.obs.start()
        self.scheduler.start()

    def run(self, until: Optional[int] = None) -> int:
        """Run the event loop; see :meth:`repro.sim.engine.Engine.run`."""
        if not self._started:
            self.start()
        return self.engine.run(until=until)

    def run_until_job_done(self, job: Job,
                           limit: Optional[int] = None) -> int:
        """Run until ``job`` finishes (or ``limit`` cycles elapse).

        Dispatches through the engine's :meth:`Engine.run` loop with
        ``job.done`` wired to :meth:`Engine.stop`, so completion halts
        the loop right after the finishing event.

        Raises RuntimeError if the event queues drain with the job
        unfinished — a deadlocked or wedged application is a bug worth
        failing loudly on.
        """
        if not self._started:
            self.start()
        engine = self.engine
        if job.finished:
            return engine.now
        if limit is not None and engine.now >= limit:
            raise RuntimeError(
                f"job {job.name} did not finish within {limit} cycles"
            )
        job.done.subscribe(engine.stop)
        try:
            engine.run(until=limit)
        finally:
            job.done.unsubscribe(engine.stop)
        if job.finished:
            return engine.now
        # Drained-but-unfinished is checked before the limit: a bounded
        # run clamps the clock to ``limit`` when it runs dry, so the
        # clock alone cannot distinguish a deadlock from a timeout.
        if engine.pending == 0:
            raise RuntimeError(
                f"event heap drained but job {job.name} is unfinished "
                "(application deadlock?)"
            )
        raise RuntimeError(
            f"job {job.name} did not finish within {limit} cycles"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Machine nodes={self.config.num_nodes} t={self.engine.now} "
            f"jobs={[j.name for j in self.jobs]}>"
        )
