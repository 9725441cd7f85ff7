"""Unified observability for the simulated machine (``repro.obs``).

One :class:`Observatory` per machine owns:

* a typed :class:`~repro.obs.registry.MetricRegistry` declaring the
  full metric taxonomy up front — counters/gauges/histograms for the
  engine, fabric, NIs, kernel, virtual buffering, overflow control,
  two-case delivery and the reliable transport;
* live histogram hooks in the hot paths (fabric send/deliver, NI
  accept, kernel buffer insert), each guarded by the tracer's
  ``if obs is not None`` contract so disabled runs pay one ``None``
  check;
* a :class:`~repro.obs.snapshots.TimelineSampler` for periodic
  on-timeline state snapshots;
* a bounded event log for rare, discrete occurrences (mode
  transitions, overflow actions);
* an end-of-run :meth:`Observatory.finalize` harvest that copies every
  authoritative ``stats`` object into the registry — the single place
  that touches every declared counter, which is what lets
  ``registry.unwired()`` prove nothing is silently left at zero.

The whole payload (:meth:`Observatory.payload`) is JSON scalars only,
so it rides ``RunResult.extra`` through the persistent result cache
bit-identically. See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.two_case import TransitionReason
from repro.obs.export import (render_obs_report, sparkline, write_jsonl,
                              write_validation_jsonl)
from repro.obs.registry import (Counter, DuplicateMetric, Gauge, Histogram,
                                MetricRegistry)
from repro.obs.snapshots import TimelineSampler, take_sample

#: Default timeline sampling period, in simulated cycles.
DEFAULT_SAMPLE_INTERVAL = 100_000


class Observatory:
    """All observability state for one :class:`~repro.machine.machine.Machine`."""

    def __init__(self, machine, sample_interval: Optional[int] = None,
                 snapshot_limit: int = 2048,
                 event_limit: int = 10_000) -> None:
        self.machine = machine
        self.registry = MetricRegistry()
        self.sample_interval = sample_interval
        self.sampler: Optional[TimelineSampler] = None
        if sample_interval is not None:
            self.sampler = TimelineSampler(machine, sample_interval,
                                           limit=snapshot_limit)
        self.event_limit = event_limit
        self.events: List[Dict[str, Any]] = []
        self.events_dropped = 0
        self._finalized = False
        self._declare()

    # ------------------------------------------------------------------
    # Metric taxonomy
    # ------------------------------------------------------------------
    def _declare(self) -> None:
        reg = self.registry
        # Live histograms (hot-path hooks; distributions that no stats
        # object retains).
        self.h_message_words = reg.histogram(
            "fabric.message_words", (4, 8, 16, 32, 64, 256, 1024),
            "wire length of launched messages")
        self.h_delivery_latency = reg.histogram(
            "fabric.delivery_latency", (16, 32, 64, 128, 256, 512, 1024,
                                        4096),
            "inject-to-NI latency, cycles")
        self.h_input_queue = reg.histogram(
            "ni.input_queue_depth", (1, 2, 3, 4, 8),
            "input-queue occupancy after each accepted delivery")
        self.h_insert_pages = reg.histogram(
            "kernel.insert_pages", (0, 1, 2, 4, 8),
            "fresh pages mapped per virtual-buffer insert")
        # Counters and gauges, harvested authoritatively in finalize().
        for name in (
            "engine.events", "engine.compactions",
            "fabric.messages_sent", "fabric.messages_delivered",
            "fabric.words_carried", "fabric.sender_blocks",
            "fabric.messages_dropped", "fabric.messages_duplicated",
            "fabric.latency_spikes",
            "ni.delivered_to_user", "ni.delivered_to_kernel",
            "ni.upcalls", "ni.mismatch_interrupts",
            "ni.atomicity_timeouts", "ni.input_stalls",
            "ni.forced_timeouts",
            "delivery.zerocopy_accepts", "delivery.fault_traps",
            "delivery.fallbacks", "delivery.damq_admits",
            "delivery.damq_evictions", "delivery.damq_share_refusals",
            "kernel.mismatch_services", "kernel.messages_inserted",
            "kernel.insert_cycles", "kernel.vmalloc_inserts",
            "kernel.dropped_unknown_gid", "kernel.revocations",
            "kernel.watchdog_fires", "kernel.page_faults",
            "kernel.page_outs", "kernel.context_switches",
            "kernel.kernel_messages",
            "buffering.inserted", "buffering.consumed",
            "buffering.pages_allocated", "buffering.pages_released",
            "overflow.advisories", "overflow.suspensions",
            "overflow.exhaustions",
            "two_case.fast_messages", "two_case.buffered_messages",
            "two_case.transitions_to_fast",
            "transport.sends", "transport.retransmissions",
            "transport.acks_sent", "transport.duplicates_suppressed",
            "transport.gave_up",
            "mailbox.submitted", "mailbox.absorbed", "mailbox.enqueued",
            "mailbox.retrieved", "mailbox.delivered",
            "mailbox.overflow_drops", "mailbox.duplicates_suppressed",
            "mailbox.client_duplicates", "mailbox.reconnects",
            "mailbox.replays", "mailbox.crashes",
            "mailbox.crash_losses", "mailbox.flows_created",
            "mailbox.flows_evicted", "mailbox.dedup_evictions",
            "shard.epochs", "shard.cross_shard_messages",
            "shard.barrier_stalls", "shard.serial_fallbacks",
            "shard.bytes_exchanged", "shard.empty_epochs_coalesced",
        ):
            reg.counter(name)
        from repro.apps.mailbox import RETRIEVAL_LATENCY_EDGES

        self.h_retrieval_latency = reg.histogram(
            "mailbox.retrieval_latency", RETRIEVAL_LATENCY_EDGES,
            "mailbox enqueue-to-gateway-delivery latency, cycles")
        for reason in TransitionReason:
            reg.counter(f"two_case.enter.{reason.value}")
        for name in (
            "engine.pending",
            "fabric.max_backlog", "fabric.mean_latency",
            "ni.max_input_queue",
            "delivery.pinned_pages_peak", "delivery.damq_peak_occupancy",
            "buffering.max_pages", "buffering.max_queued_messages",
            "two_case.buffered_fraction",
            "mailbox.occupancy_peak", "mailbox.active_flows_peak",
            "shard.encode_seconds",
        ):
            reg.gauge(name)

    # ------------------------------------------------------------------
    # Event log (rare, discrete occurrences)
    # ------------------------------------------------------------------
    def note_event(self, kind: str, **fields: Any) -> None:
        if len(self.events) >= self.event_limit:
            self.events_dropped += 1
            return
        self.events.append({"t": self.machine.engine.now, "kind": kind,
                            **fields})

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin timeline sampling (called from ``Machine.start``)."""
        if self.sampler is not None:
            self.sampler.start()

    def finalize(self) -> MetricRegistry:
        """Harvest every authoritative stats object into the registry.

        Idempotent (totals overwrite); touches every declared counter
        and gauge, so ``registry.unwired(("counter", "gauge"))`` after
        finalize is the no-silent-zero assertion.
        """
        machine = self.machine
        reg = self.registry

        def total(name: str, value) -> None:
            reg.get(name).set_total(value)

        def gauge(name: str, value) -> None:
            reg.get(name).set(value)

        engine = machine.engine
        total("engine.events", engine.events_executed)
        total("engine.compactions", engine.compactions)
        gauge("engine.pending", engine.pending)

        fab = machine.fabric.stats
        total("fabric.messages_sent", fab.messages_sent)
        total("fabric.messages_delivered", fab.messages_delivered)
        total("fabric.words_carried", fab.words_carried)
        total("fabric.sender_blocks", fab.sender_blocks)
        total("fabric.messages_dropped", fab.messages_dropped)
        total("fabric.messages_duplicated", fab.messages_duplicated)
        total("fabric.latency_spikes", fab.latency_spikes)
        gauge("fabric.max_backlog",
              max(fab.max_backlog.values()) if fab.max_backlog else 0)
        gauge("fabric.mean_latency", fab.mean_latency)

        nodes = machine.nodes
        total("ni.delivered_to_user",
              sum(n.ni.stats.delivered_to_user for n in nodes))
        total("ni.delivered_to_kernel",
              sum(n.ni.stats.delivered_to_kernel for n in nodes))
        total("ni.upcalls",
              sum(n.ni.stats.message_available_upcalls for n in nodes))
        total("ni.mismatch_interrupts",
              sum(n.ni.stats.mismatch_interrupts for n in nodes))
        total("ni.atomicity_timeouts",
              sum(n.ni.stats.atomicity_timeouts for n in nodes))
        total("ni.input_stalls",
              sum(n.ni.stats.input_stalls for n in nodes))
        total("ni.forced_timeouts",
              sum(n.ni.stats.forced_timeouts for n in nodes))
        gauge("ni.max_input_queue",
              max((n.ni.stats.max_input_queue for n in nodes), default=0))

        # Delivery-discipline accounting: all zero under the default
        # two-case discipline, authoritative under zerocopy/damq.
        deliveries = [n.ni.discipline.stats for n in nodes]
        total("delivery.zerocopy_accepts",
              sum(d.zerocopy_accepts for d in deliveries))
        total("delivery.fault_traps",
              sum(d.fault_traps for d in deliveries))
        total("delivery.fallbacks",
              sum(d.fallbacks for d in deliveries))
        total("delivery.damq_admits",
              sum(d.damq_admits for d in deliveries))
        total("delivery.damq_evictions",
              sum(d.damq_evictions for d in deliveries))
        total("delivery.damq_share_refusals",
              sum(d.damq_share_refusals for d in deliveries))
        gauge("delivery.pinned_pages_peak",
              max((d.pinned_pages_peak for d in deliveries), default=0))
        gauge("delivery.damq_peak_occupancy",
              max((d.damq_peak_occupancy for d in deliveries), default=0))

        kernel_fields = (
            "mismatch_services", "messages_inserted", "insert_cycles",
            "vmalloc_inserts", "dropped_unknown_gid", "revocations",
            "watchdog_fires", "page_faults", "page_outs",
            "context_switches", "kernel_messages",
        )
        for field in kernel_fields:
            total(f"kernel.{field}",
                  sum(getattr(n.kernel.stats, field) for n in nodes))

        buffers = [state.buffer for job in machine.jobs
                   for state in job.node_states.values()]
        for field in ("inserted", "consumed", "pages_allocated",
                      "pages_released"):
            total(f"buffering.{field}",
                  sum(getattr(b.stats, field) for b in buffers))
        gauge("buffering.max_pages",
              max((b.stats.max_pages for b in buffers), default=0))
        gauge("buffering.max_queued_messages",
              max((b.stats.max_queued_messages for b in buffers),
                  default=0))

        ov = machine.overflow.stats
        total("overflow.advisories", ov.advisories)
        total("overflow.suspensions", ov.suspensions)
        total("overflow.exhaustions", ov.exhaustion_events)

        fast = sum(job.two_case.fast_messages for job in machine.jobs)
        buffered = sum(job.two_case.buffered_messages
                       for job in machine.jobs)
        total("two_case.fast_messages", fast)
        total("two_case.buffered_messages", buffered)
        total("two_case.transitions_to_fast",
              sum(job.two_case.transitions_to_fast
                  for job in machine.jobs))
        for reason in TransitionReason:
            total(f"two_case.enter.{reason.value}",
                  sum(job.two_case.transitions_to_buffered.get(reason, 0)
                      for job in machine.jobs))
        gauge("two_case.buffered_fraction",
              buffered / (fast + buffered) if fast + buffered else 0.0)

        transports = getattr(machine, "transports", ())
        total("transport.sends", sum(t.sends for t in transports))
        total("transport.retransmissions",
              sum(t.retransmissions for t in transports))
        total("transport.acks_sent",
              sum(t.acks_sent for t in transports))
        total("transport.duplicates_suppressed",
              sum(t.duplicates_suppressed for t in transports))
        total("transport.gave_up",
              sum(len(t.gave_up) for t in transports))

        # Mailbox services: zeros on machines without one, so the
        # counters still read as wired (the workload not running is an
        # authoritative zero, unlike a harvest that forgot them).
        mailboxes = getattr(machine, "mailboxes", ())
        mb = [service.stats for service in mailboxes]
        for field in ("submitted", "absorbed", "enqueued", "retrieved",
                      "delivered", "overflow_drops",
                      "duplicates_suppressed", "client_duplicates",
                      "reconnects", "replays", "crashes", "crash_losses",
                      "flows_created", "flows_evicted",
                      "dedup_evictions"):
            total(f"mailbox.{field}", sum(getattr(s, field) for s in mb))
        gauge("mailbox.occupancy_peak",
              max((s.occupancy_peak for s in mb), default=0))
        gauge("mailbox.active_flows_peak",
              max((s.active_flows_peak for s in mb), default=0))
        if mb:
            counts = [0] * len(self.h_retrieval_latency.counts)
            for s in mb:
                for i, c in enumerate(s.latency_counts):
                    counts[i] += c
            self.h_retrieval_latency.load(
                counts, sum(s.latency_total for s in mb))

        # Shard-execution counters: populated by the shard coordinator
        # on a machine it built (the serial-fallback path), None on
        # ordinary single-process runs — the same authoritative-zero
        # contract as the mailbox block above. (A certified sharded run
        # has no single machine for an Observatory to attach to, so an
        # observed machine is by construction single-process.)
        shard = getattr(machine, "shard_stats", None)
        total("shard.epochs", shard.epochs if shard else 0)
        total("shard.cross_shard_messages",
              shard.cross_shard_messages if shard else 0)
        total("shard.barrier_stalls",
              shard.barrier_stalls if shard else 0)
        total("shard.serial_fallbacks",
              shard.serial_fallbacks if shard else 0)
        total("shard.bytes_exchanged",
              shard.bytes_exchanged if shard else 0)
        total("shard.empty_epochs_coalesced",
              shard.empty_epochs_coalesced if shard else 0)
        # Wall-clock, not simulated time: nondeterministic by nature,
        # which is why it lives here and never in cacheable extras.
        gauge("shard.encode_seconds",
              shard.encode_seconds if shard else 0.0)

        if self.sampler is not None and not self._finalized:
            self.sampler.final_sample()
        self._finalized = True
        return reg

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, Any]:
        """The cache-safe JSON view (metrics + snapshots + events)."""
        out: Dict[str, Any] = {
            "metrics": self.registry.snapshot(),
            "events": list(self.events),
            "events_dropped": self.events_dropped,
        }
        if self.sampler is not None:
            out["interval"] = self.sampler.interval
            out["snapshots"] = list(self.sampler.samples)
            out["snapshots_truncated"] = self.sampler.truncated
        return out


__all__ = [
    "Observatory", "MetricRegistry", "Counter", "Gauge", "Histogram",
    "DuplicateMetric", "TimelineSampler", "take_sample",
    "render_obs_report", "write_jsonl", "write_validation_jsonl",
    "sparkline",
    "DEFAULT_SAMPLE_INTERVAL",
]
