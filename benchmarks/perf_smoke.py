"""Perf smoke benchmark: seed and track the repo's perf trajectory.

Times six things and writes ``BENCH_runner.json`` plus
``BENCH_obs.json``:

* **engine microbenchmark** — raw discrete-event throughput
  (events/second, best of 3) of the engine's one run loop on the
  machine's own callback shapes (self-rescheduling bound methods with
  an argument through ``schedule``, a fixed share through cancellable
  ``call_at`` handles) — and on a cancellation-heavy loop (the
  lazy-deletion/compaction path). The throughput is also written as
  ``reference_events_per_second``: scaled by the host's speed, timed
  with ``perfbench/hostspeed.py``'s probe in the same process, to what
  a host running the probe in ``NOMINAL_S`` would do. It explains
  engine cost but gates nothing: its dense fixed-delay tickers are not
  the shape real runs schedule (``check_perf_regression.py`` gates on
  paired ``perfbench`` runs instead);
* **runner sweep, serial vs parallel vs auto** — a small fixed
  multiprogrammed sweep through :func:`repro.runner.run_specs` at
  ``jobs=1``, forced ``mode="parallel"`` at ``jobs=N``, and
  ``mode="auto"`` (recording which case auto picked and what dispatch
  cost), verifying the metrics are identical across all of them;
* **cache replay** — the same sweep again from the persistent cache,
  recording hit counts and replay time;
* **closure-free machine run** (the ``fastpath`` block) — quiescent
  whole-machine runs (best of 3), the first with a closure-counting
  shim over ``engine.call_at``/``engine.schedule`` (asserting *zero*
  per-message lambda/closure allocation), and a bit-identity check of
  the run metrics across the repeats;
* **sharded execution** — two synth workloads, each run
  single-process and through :func:`repro.shard.run_sharded` (one
  worker process per node group): a ``rack_local`` leg whose traffic
  locality lets the shards free-run, and an ``all_to_all`` leg on a
  WAN-latency fabric that exercises the windowed protocol (one
  pickled outbox batch per worker per barrier, adaptive lookahead).
  Both legs assert bit-identical :class:`RunMetrics`; the
  aggregate-events/second speedup gate applies only where meaningful,
  with ``speedup_skip_reason`` recording why it was skipped
  (single-core box, serial fallback) so CI can treat the skip as
  neutral;
* **observability overhead** — one multiprogrammed run with the
  :class:`~repro.obs.Observatory` disabled vs enabled (best of N),
  asserting the metrics stay bit-identical and gating the events/sec
  regression at 10% (``BENCH_obs.json``). Per-layer time attribution
  is ``perfbench/run.py --trace 1``'s job, not this script's.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/perf_smoke.py [--jobs N] [--out F]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict
from types import FunctionType

from repro.analysis.metrics import collect_metrics
from repro.apps.null_app import NullApplication
from repro.experiments.config import SimulationConfig
from repro.experiments.multiprog import multiprog_spec
from repro.experiments.workloads import make_workload
from repro.machine.machine import Machine
from repro.runner import ResultCache, default_jobs, run_specs
from repro.sim.engine import _NO_ARG, Engine

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
from perfbench.hostspeed import NOMINAL_S, probe  # noqa: E402

#: Maximum tolerated events/sec regression with observability enabled.
OBS_OVERHEAD_LIMIT = 0.10

#: The fixed smoke sweep: 2 workloads x 2 skews x 2 trials, fast scale.
SMOKE_SPECS = [
    multiprog_spec(name, skew, seed=seed, scale="fast",
                   timeslice=100_000)
    for name in ("barrier", "enum")
    for skew in (0.0, 0.1)
    for seed in (1, 2)
]


class _Ticker:
    """A self-rescheduling callback in the shapes the machine schedules:
    a bound method plus an argument through ``schedule`` (the ``(fn,
    arg)`` pair), with every ``handle_every``-th step taken through a
    cancellable ``call_at`` handle instead."""

    __slots__ = ("engine", "delay", "handle_every")

    def __init__(self, engine: Engine, delay: int,
                 handle_every: int) -> None:
        self.engine = engine
        self.delay = delay
        self.handle_every = handle_every

    def tick(self, left: int) -> None:
        if left:
            engine = self.engine
            when = engine.now + self.delay
            if left % self.handle_every:
                engine.schedule(when, self.tick, left - 1)
            else:
                engine.call_at(when, self.tick, left - 1)


def bench_engine_events(n_tickers: int = 50, steps: int = 2000,
                        handle_every: int = 4,
                        repeats: int = 3, probes: int = 20) -> dict:
    """Events/second of :meth:`Engine.run` on ``n_tickers``
    self-rescheduling callbacks, best of ``repeats``.

    One step in ``handle_every`` goes through a cancellable ``call_at``
    handle, the rest through handle-free ``schedule``.

    ``probe_s`` is the fastest of ``probes`` host-speed probes, and
    ``reference_events_per_second`` the throughput scaled by
    ``probe_s / NOMINAL_S``: a slower host takes longer per probe and
    runs fewer events per second, so the product stays put.
    """

    def one_run():
        engine = Engine()
        for i in range(n_tickers):
            ticker = _Ticker(engine, 3 + (i % 7), handle_every)
            engine.schedule(0, ticker.tick, steps)
        start = time.perf_counter()
        engine.run()
        wall = time.perf_counter() - start
        return engine, wall

    engine, wall = min((one_run() for _ in range(repeats)),
                       key=lambda pair: pair[1])
    probe_s = min(probe() for _ in range(probes))
    events_per_second = engine.events_executed / wall
    return {
        "repeats": repeats,
        "events": engine.events_executed,
        "wall_seconds": wall,
        "events_per_second": events_per_second,
        "probe_s": probe_s,
        "reference_events_per_second": (events_per_second * probe_s
                                        / NOMINAL_S),
    }


def bench_engine_cancellation(total: int = 200_000,
                              keep_every: int = 10) -> dict:
    """Wall-clock of a cancellation-dominated schedule."""
    engine = Engine()
    start = time.perf_counter()
    for i in range(total):
        entry = engine.call_at(i + 1000, lambda: None)
        if i % keep_every != 0:
            entry.cancel()
    engine.run()
    wall = time.perf_counter() - start
    return {
        "scheduled": total,
        "executed": engine.events_executed,
        "wall_seconds": wall,
        "compactions": engine.compactions,
    }


def bench_sweep(jobs: int) -> dict:
    """Serial vs forced-parallel vs auto vs cached smoke-sweep runs."""
    start = time.perf_counter()
    serial = run_specs(SMOKE_SPECS, jobs=1)
    serial_wall = time.perf_counter() - start

    # Forced parallel: measure the pool even where auto mode would
    # decline it (the speedup on a small box records fork overhead).
    parallel_info: dict = {}
    start = time.perf_counter()
    parallel = run_specs(SMOKE_SPECS, jobs=jobs, mode="parallel",
                         info=parallel_info)
    parallel_wall = time.perf_counter() - start

    # Auto: what run_specs actually does for users, and why.
    auto_info: dict = {}
    start = time.perf_counter()
    auto = run_specs(SMOKE_SPECS, jobs=jobs, info=auto_info)
    auto_wall = time.perf_counter() - start

    identical = all(
        asdict(a.require()) == asdict(b.require())
        for a, b in zip(serial, parallel)
    ) and all(
        asdict(a.require()) == asdict(b.require())
        for a, b in zip(serial, auto)
    )

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        run_specs(SMOKE_SPECS, jobs=jobs, cache=cache)
        start = time.perf_counter()
        replay = run_specs(SMOKE_SPECS, jobs=1, cache=cache)
        replay_wall = time.perf_counter() - start
        cache_hits = cache.hits
        replay_identical = identical and all(
            asdict(a.require()) == asdict(b.require())
            for a, b in zip(serial, replay)
        )

    return {
        "runs": len(SMOKE_SPECS),
        "jobs": jobs,
        "serial_wall_seconds": serial_wall,
        "parallel_wall_seconds": parallel_wall,
        "speedup": serial_wall / parallel_wall if parallel_wall else 0.0,
        "parallel_dispatch_seconds": parallel_info.get("dispatch_seconds"),
        "parallel_workers": parallel_info.get("workers"),
        "auto_mode": auto_info.get("mode"),
        "auto_mode_reason": auto_info.get("mode_reason"),
        "auto_wall_seconds": auto_wall,
        "auto_dispatch_seconds": auto_info.get("dispatch_seconds"),
        "cache_hits": cache_hits,
        "cache_replay_wall_seconds": replay_wall,
        "serial_parallel_identical": identical,
        "cache_replay_identical": replay_identical,
    }


def _attach_closure_counter(engine) -> dict:
    """Shadow call_at/schedule, counting lambda/closure callbacks.

    Bound methods pass; only plain functions carrying a closure cell
    (or named ``<lambda>``) count — exactly the per-message allocation
    the two-case refactor eliminates.
    """
    counts = {"closures": 0, "scheduled": 0}
    orig_call_at = engine.call_at
    orig_schedule = engine.schedule

    def check(fn) -> None:
        counts["scheduled"] += 1
        if isinstance(fn, FunctionType) and (
                fn.__closure__ is not None or fn.__name__ == "<lambda>"):
            counts["closures"] += 1

    def call_at(when, fn, arg=_NO_ARG):
        check(fn)
        return orig_call_at(when, fn, arg)

    def schedule(when, fn, arg=_NO_ARG):
        check(fn)
        return orig_schedule(when, fn, arg)

    engine.call_at = call_at
    engine.schedule = schedule
    return counts


def _machine_run(count_closures: bool = False):
    """One quiescent multiprogrammed barrier-vs-null run, timed.

    Returns ``(machine, metrics, closure_counts, wall_seconds)``.
    """
    config = SimulationConfig(num_nodes=8, seed=1, skew_fraction=0.1,
                              timeslice=100_000)
    machine = Machine(config)
    app = make_workload("barrier", seed=1, num_nodes=8, scale="fast")
    job = machine.add_job(app)
    machine.add_job(NullApplication())
    counts = None
    if count_closures:
        counts = _attach_closure_counter(machine.engine)
    machine.start()
    start = time.perf_counter()
    machine.run_until_job_done(job, limit=50_000_000_000)
    wall = time.perf_counter() - start
    return machine, collect_metrics(machine, job), counts, wall


def bench_fastpath(repeats: int = 3) -> dict:
    """Zero-closure and repeat-identity gates on a quiescent machine
    run, best of ``repeats``.

    Only the first run carries the closure-counting shim (the shim
    itself costs time); the reported events/second is the best of all
    of them. ``gate_ok`` requires no lambda/closure scheduled during
    the run and bit-identical metrics across every repeat.
    """
    runs = [_machine_run(count_closures=(i == 0)) for i in range(repeats)]
    machine, metrics, counts, _wall = runs[0]
    best_wall = min(wall for _m, _met, _c, wall in runs)
    engine = machine.engine
    base = asdict(metrics)
    identical = all(asdict(m) == base for _m, m, _c, _w in runs[1:])
    return {
        "repeats": repeats,
        "wall_seconds": best_wall,
        "events_per_second": engine.events_executed / best_wall,
        "closures_scheduled": counts["closures"],
        "callbacks_scheduled": counts["scheduled"],
        "metrics_identical": identical,
        "gate_ok": counts["closures"] == 0 and identical,
    }


def _shard_leg(leg: str, shards: int, num_nodes: int,
               messages_per_node: int, locality_groups: int,
               net_base_latency: int, expected_mode: str,
               group_size: int = 10, t_betw: int = 275,
               timeslice: int = 500_000,
               fabric_credits: int = 16, seed: int = 1) -> dict:
    """One serial-vs-sharded comparison on a synth workload.

    The gate requires bit-identical :class:`RunMetrics` always. The
    aggregate-throughput half (sum of per-shard engine events over the
    coordinator's wall clock beating the single-process baseline) is
    demanded only when it is meaningful; otherwise
    ``speedup_required`` is False and ``speedup_skip_reason`` records
    why (single-core box, serial fallback) so the CI ratchet can treat
    the skip as neutral instead of silently passing.
    """
    from repro.apps.synth import SynthApplication
    from repro.experiments.synth_sweeps import SYNTH_SKEW, T_HAND, \
        run_synth

    config = SimulationConfig(num_nodes=num_nodes, seed=seed,
                              skew_fraction=SYNTH_SKEW,
                              timeslice=timeslice,
                              net_base_latency=net_base_latency,
                              fabric_credits=fabric_credits)
    app = SynthApplication(group_size=group_size, t_betw=t_betw,
                           t_hand=T_HAND,
                           total_messages_per_node=messages_per_node,
                           num_nodes=num_nodes, seed=seed,
                           locality_groups=locality_groups)
    machine = Machine(config)
    job = machine.add_job(app)
    machine.add_job(NullApplication())
    machine.start()
    start = time.perf_counter()
    machine.run_until_job_done(job, limit=50_000_000_000)
    serial_wall = time.perf_counter() - start
    serial_metrics = collect_metrics(machine, job)
    serial_events = machine.engine.events_executed
    serial_eps = serial_events / serial_wall

    extra: dict = {}
    info: dict = {}
    sharded_metrics = run_synth(
        group_size, t_betw, seed=seed,
        messages_per_node=messages_per_node, timeslice=timeslice,
        shards=shards, locality_groups=locality_groups,
        num_nodes=num_nodes, net_base_latency=net_base_latency,
        fabric_credits=fabric_credits,
        extra_out=extra, info=info)

    mode = extra.get("shard_mode")
    shard_events = info.get("shard_events", [])
    sharded_wall = info.get("wall_seconds", 0.0)
    aggregate_eps = (sum(shard_events) / sharded_wall
                     if sharded_wall else 0.0)
    identical = asdict(serial_metrics) == asdict(sharded_metrics)
    if (os.cpu_count() or 1) < 2:
        speedup_required, skip_reason = False, "single-core box"
    elif mode != expected_mode:
        speedup_required, skip_reason = False, (
            f"shard mode {mode!r} (expected {expected_mode!r})")
    else:
        speedup_required, skip_reason = True, None
    return {
        "leg": leg,
        "shards": shards,
        "num_nodes": num_nodes,
        "messages_per_node": messages_per_node,
        "group_size": group_size,
        "t_betw": t_betw,
        "timeslice": timeslice,
        "net_base_latency": net_base_latency,
        "fabric_credits": fabric_credits,
        "seed": seed,
        "mode": mode,
        "lookahead": extra.get("lookahead"),
        "serial_wall_seconds": serial_wall,
        "serial_events": serial_events,
        "serial_events_per_second": serial_eps,
        "sharded_wall_seconds": sharded_wall,
        "shard_events": shard_events,
        "aggregate_events_per_second": aggregate_eps,
        "speedup": aggregate_eps / serial_eps if serial_eps else 0.0,
        "epochs": extra.get("shard_epochs"),
        "cross_shard_messages": extra.get("cross_shard_messages"),
        "bytes_exchanged": extra.get("bytes_exchanged"),
        "empty_epochs_coalesced": extra.get("empty_epochs_coalesced"),
        "encode_seconds": info.get("encode_seconds"),
        "serial_fallbacks": extra.get("serial_fallbacks"),
        "metrics_identical": identical,
        "speedup_required": speedup_required,
        "speedup_skip_reason": skip_reason,
        "gate_ok": identical and (
            not speedup_required or aggregate_eps > serial_eps),
    }


def bench_shard(shards: int = 2,
                messages_per_node: int = 2000) -> dict:
    """Sharded vs single-process on two traffic shapes.

    * ``rack_local`` — synth-10 traffic confined to ``shards``
      contiguous node groups, so the shard layer free-runs without
      barriers (the embarrassingly parallel best case);
    * ``all_to_all`` — open-loop synth traffic with *no* locality on a
      WAN-latency fabric (base latency 600k cycles, matching deep
      per-destination credits): every send may cross shards, so the
      run exercises the windowed protocol end to end — each worker's
      name-encoded outbox crosses its pipe as one pickled batch per
      barrier, then adaptive bounds and barrier accounting. The large
      lookahead is what makes winning possible: each window carries
      hundreds of events per shard, so barrier and exchange costs
      amortize away. The exact shape (sparse sends relative to
      latency, a timeslice longer than the run so quanta never align
      node activity, and this particular seed) is what keeps the run
      free of same-cycle arrival collisions across shards; the
      simulation is deterministic, so a parameter set verified clean
      once stays clean.
    """
    rack_local = _shard_leg(
        "rack_local", shards=shards, num_nodes=2 * shards,
        messages_per_node=messages_per_node, locality_groups=shards,
        net_base_latency=10, expected_mode="free-run")
    all_to_all = _shard_leg(
        "all_to_all", shards=shards, num_nodes=4 * shards,
        messages_per_node=1000, locality_groups=0,
        net_base_latency=600_000, expected_mode="windowed",
        group_size=1000, t_betw=40_000, timeslice=10 ** 9,
        fabric_credits=256)
    return {
        "rack_local": rack_local,
        "all_to_all": all_to_all,
        "gate_ok": rack_local["gate_ok"] and all_to_all["gate_ok"],
    }


def _obs_run(obs_interval=None):
    """One multiprogrammed barrier-vs-null run, timed.

    Returns ``(metrics, events_executed, wall_seconds)``.
    The workload matches the obs e2e tests: 8 nodes, 10% skew, fast
    scale — long enough to time, short enough for CI.
    """
    config = SimulationConfig(num_nodes=8, seed=1, skew_fraction=0.1,
                              timeslice=100_000)
    machine = Machine(config)
    app = make_workload("barrier", seed=1, num_nodes=8, scale="fast")
    job = machine.add_job(app)
    machine.add_job(NullApplication())
    observatory = None
    if obs_interval is not None:
        observatory = machine.enable_observability(obs_interval)
    machine.start()
    start = time.perf_counter()
    machine.run_until_job_done(job, limit=50_000_000_000)
    wall = time.perf_counter() - start
    metrics = collect_metrics(machine, job)
    if observatory is not None:
        observatory.finalize()
    return metrics, machine.engine.events_executed, wall


def bench_obs(repeats: int = 3) -> dict:
    """Observability overhead: disabled vs enabled, best of ``repeats``.

    The enabled run samples the timeline every 100k cycles and keeps
    every live histogram hook hot. The gate fails (``gate_ok`` False)
    if enabled throughput regresses more than ``OBS_OVERHEAD_LIMIT``
    against the disabled baseline from the *same* invocation, or if
    observation perturbs the run metrics at all.
    """
    disabled = [_obs_run() for _ in range(repeats)]
    enabled = [_obs_run(obs_interval=100_000) for _ in range(repeats)]

    base_metrics = asdict(disabled[0][0])
    metrics_identical = all(
        asdict(m) == base_metrics
        for m, _e, _w in disabled[1:] + enabled
    )

    def best_eps(runs):
        return max(events / wall for _m, events, wall in runs)

    disabled_eps = best_eps(disabled)
    enabled_eps = best_eps(enabled)
    overhead = 1.0 - enabled_eps / disabled_eps
    return {
        "repeats": repeats,
        "disabled_events_per_second": disabled_eps,
        "enabled_events_per_second": enabled_eps,
        "overhead_fraction": overhead,
        "overhead_limit": OBS_OVERHEAD_LIMIT,
        "metrics_identical": metrics_identical,
        "gate_ok": metrics_identical and overhead <= OBS_OVERHEAD_LIMIT,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker count (default: all CPUs, "
                             "minimum 4 so the fork path is exercised)")
    parser.add_argument("--out", default="BENCH_runner.json",
                        help="output JSON path")
    parser.add_argument("--obs-out", default="BENCH_obs.json",
                        help="observability benchmark output JSON path")
    args = parser.parse_args(argv)
    # Floor of 4: always measure the real fan-out path, even on small
    # boxes (the speedup there simply records the fork overhead).
    jobs = args.jobs or max(4, default_jobs())

    report = {
        "benchmark": "runner+engine perf smoke",
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "engine_events": bench_engine_events(),
        "engine_cancellation": bench_engine_cancellation(),
        "sweep": bench_sweep(jobs),
        "fastpath": bench_fastpath(),
        "shard": bench_shard(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    obs = bench_obs()
    obs_report = {
        "benchmark": "observability overhead smoke",
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "obs": obs,
    }
    with open(args.obs_out, "w", encoding="utf-8") as fh:
        json.dump(obs_report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    engine = report["engine_events"]
    sweep = report["sweep"]
    fastpath = report["fastpath"]
    shard = report["shard"]
    print(f"engine: {engine['events_per_second']:,.0f} events/s "
          f"({engine['reference_events_per_second']:,.0f} reference "
          f"events/s at probe {engine['probe_s'] * 1e3:.3f} ms)")
    print(f"sweep ({sweep['runs']} runs): serial "
          f"{sweep['serial_wall_seconds']:.2f}s, jobs={sweep['jobs']} "
          f"{sweep['parallel_wall_seconds']:.2f}s "
          f"(speedup {sweep['speedup']:.2f}x), auto={sweep['auto_mode']} "
          f"[{sweep['auto_mode_reason']}] "
          f"{sweep['auto_wall_seconds']:.2f}s, cache replay "
          f"{sweep['cache_replay_wall_seconds']:.3f}s "
          f"({sweep['cache_hits']} hits)")
    print(f"identical: serial/parallel/auto="
          f"{sweep['serial_parallel_identical']} "
          f"cache={sweep['cache_replay_identical']}")
    print(f"fastpath: {fastpath['closures_scheduled']} closures "
          f"scheduled, identical across {fastpath['repeats']} repeats: "
          f"{fastpath['metrics_identical']}")
    for leg in (shard["rack_local"], shard["all_to_all"]):
        required = ("required" if leg["speedup_required"] else
                    f"skipped: {leg['speedup_skip_reason']}")
        print(f"shard/{leg['leg']}: {leg['shards']} shards "
              f"({leg['mode']}), serial "
              f"{leg['serial_events_per_second']:,.0f} events/s, "
              f"aggregate {leg['aggregate_events_per_second']:,.0f} "
              f"events/s (speedup {leg['speedup']:.2f}x, {required}), "
              f"identical: {leg['metrics_identical']}")
    print(f"obs: disabled {obs['disabled_events_per_second']:,.0f} "
          f"events/s, enabled {obs['enabled_events_per_second']:,.0f} "
          f"events/s (overhead {obs['overhead_fraction']:+.1%}, "
          f"limit {obs['overhead_limit']:.0%}), metrics identical: "
          f"{obs['metrics_identical']}")
    print(f"wrote {args.out} and {args.obs_out}")
    return 0 if (sweep["serial_parallel_identical"]
                 and sweep["cache_replay_identical"]
                 and fastpath["gate_ok"]
                 and shard["gate_ok"]
                 and obs["gate_ok"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
