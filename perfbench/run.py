"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload barrier_direct --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` runs the workload untraced, each run in a fresh process,
for ``--seconds`` (at least three runs; a run starts only if the last
one's length still fits), and reports the end-to-end metrics as
medians over the runs, host times in reference seconds (see
``hostspeed.py``). ``--trace 1``
alternates untraced and traced runs the same way (at least one pair)
and reports the per-layer metrics. On the serial workloads it also
runs the workload once under cProfile and checks the tracer's layer
shares against it. Every run's outputs are checked (see
``workloads.check_outcome``); a run that raises, hits the cycle limit
or fails a check counts as failed.

Stdout carries one JSON record line per run (``"record": "run"``), a
summary table, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``README.md``
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from typing import Any, Dict, List, Optional

from hostspeed import NOMINAL_S, Sampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Each measured run sets its workload up this many times and reports
#: the median as ``setup_s``: a set-up takes 0.03 to 7 ms, and the
#: first one in a fresh process is up to twice as slow as the rest.
#: The last set-up is the one run.
SETUP_REPEATS = 15
#: Fewest measured runs per invocation, however long they take.
MIN_RUNS = 3
#: Seconds after its start by which an invocation has killed every run
#: still going, so that it always ends well within three minutes.
DEADLINE_S = 165
#: On the serial workloads a traced run fails if its spans cover less
#: than this share of its run time, and the profile run fails if the
#: tracer's layer shares differ from cProfile's by more than
#: ``SHARE_TOLERANCE_PP`` percentage points on a layer where either
#: share is above ``SHARE_FLOOR_PP``.
MIN_COVERAGE = 0.9
SHARE_TOLERANCE_PP = 5.0
SHARE_FLOOR_PP = 5.0

#: The end-to-end metrics of the final result line (``--trace 0``),
#: medians over the runs. Host times are in reference seconds (see
#: hostspeed.py).
END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "msgs_per_s": "1/s", "peak_rss_mb": "MB",
}
#: End-to-end metrics printed in the summary only. Simulated cycles per
#: host second divides by simulated time, which on ``mailbox_buffered``
#: swings with the seed (idle drain rounds) while the simulated work
#: does not, so it cannot carry a bound across seeds. The host times
#: as measured and the probe's time show what the reference seconds
#: were made from. ``failed_frac`` is the final line's
#: ``failed / attempted``.
SUMMARY_ONLY_UNITS = {"sim_cycles_per_s": "1/s", "host_setup_s": "s",
                      "host_run_s": "s", "probe_s": "s",
                      "failed_frac": "1"}


# ----------------------------------------------------------------------
# Child process: one run
# ----------------------------------------------------------------------
def _peak_rss_mb(sharded: bool) -> float:
    """Peak resident memory of this process and, for a sharded run, of
    its largest shard worker. The process's own peak is read as VmHWM,
    which starts afresh at exec; ``ru_maxrss`` also counts the pages of
    the parent that forked it."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as status:
            peak = next(int(line.split()[1]) for line in status
                        if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    if sharded:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # Linux reports KiB


def _counters(outcome) -> Dict[str, Any]:
    """Simulated per-layer counts of one finished run, summed over its
    simulations, plus the shard layer's measurements."""
    total = outcome.total
    out: Dict[str, Any] = {
        "core.buffered_frac": outcome.buffered_fraction,
        "core.transitions_to_buffered": total("transitions_to_buffered"),
        "core.revocations": total("revocations"),
        "glaze.max_buffer_pages": max(p.metrics.max_buffer_pages
                                      for p in outcome.parts),
        "glaze.page_outs": total("page_outs"),
        "protocols.retries": total("retries"),
    }
    out.update(outcome.shard)
    machines = [p.machine for p in outcome.parts if p.machine is not None]
    if not machines:  # the job ran only in shard workers
        out["sim.events"] = outcome.shard.get("shard.worker_events", 0)
        return out

    def machine_sum(read) -> int:
        return sum(read(m) for m in machines)

    def node_sum(read) -> int:
        return sum(read(n) for m in machines for n in m.nodes)

    events = machine_sum(lambda m: m.engine.events_executed)
    ring = machine_sum(lambda m: m.engine.ring_events)
    batches = machine_sum(lambda m: m.engine.cycle_batches)
    sends = machine_sum(lambda m: m.fabric.stats.messages_sent)
    delivered = machine_sum(lambda m: m.fabric.stats.messages_delivered)
    latency = machine_sum(lambda m: m.fabric.stats.total_latency)
    ni_fast = node_sum(lambda n: n.ni.stats.fast_deliveries)
    ni_general = node_sum(lambda n: n.ni.stats.general_deliveries)
    out.update({
        "sim.events": events,
        "sim.events_per_msg": events / sends if sends else 0.0,
        "sim.ring_events": ring,
        "sim.runq_events": machine_sum(lambda m: m.engine.runq_events),
        "sim.overflow_scheduled": machine_sum(
            lambda m: m.engine.overflow_scheduled),
        "sim.mean_batch_events": ring / batches if batches else 0.0,
        "network.sends": sends,
        "network.fast_path_sends": machine_sum(
            lambda m: m.fabric.stats.fast_path_sends),
        "network.general_path_sends": machine_sum(
            lambda m: m.fabric.stats.general_path_sends),
        "network.mean_latency_cycles": (latency / delivered
                                        if delivered else 0.0),
        "ni.fast_deliveries": ni_fast,
        "ni.general_deliveries": ni_general,
        "ni.fast_frac": (ni_fast / (ni_fast + ni_general)
                         if ni_fast + ni_general else 0.0),
        "glaze.buffer_inserts": node_sum(
            lambda n: n.kernel.stats.messages_inserted),
        "glaze.context_switches": node_sum(
            lambda n: n.kernel.stats.context_switches),
    })
    return out


def child_main(mode: str, workload_name: str, seed: int) -> Dict[str, Any]:
    """One run in this (fresh) process; returns its record."""
    from workloads import WORKLOADS, check_outcome, digest

    record: Dict[str, Any] = {"record": "run", "workload": workload_name,
                              "seed": seed, "mode": mode, "errors": []}
    factory = WORKLOADS[workload_name]
    if mode == "reference":
        record["digest"] = digest(factory(seed).reference())
        return record
    if mode == "profile":
        from profile_split import profile_layer_seconds

        workload = factory(seed)
        workload.setup()
        record["profile_s"] = profile_layer_seconds(workload.run)
        return record

    tracer = costs = None
    if mode == "traced":
        from tracer import Tracer, calibrate, net_self_seconds, \
            self_times_from_file

        costs = calibrate()
        tracer = Tracer(f"{workload_name}-{seed}-{uuid.uuid4().hex[:8]}")
        with open(os.path.join(HERE, "boundaries.json")) as src:
            tracer.install(json.load(src))

    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        workload = factory(seed)
        gc.collect()  # the previous set-up's garbage is not this one's
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    setup_s = statistics.median(setups)
    if tracer is not None:
        tracer.reset()  # keep only the measured run's spans

    sampler = Sampler() if mode == "plain" else contextlib.nullcontext()
    try:
        with sampler:
            start = time.perf_counter()
            outcome = workload.run()
            run_s = time.perf_counter() - start
    except Exception:  # a failed run is a result, not a crash
        record["errors"].append(traceback.format_exc(limit=3))
        return record
    if mode == "plain":
        # Host seconds without the probes' own time, then reference
        # seconds (see hostspeed.py).
        run_s -= sampler.spent_s
        record.update(host_run_s=run_s, host_setup_s=setup_s,
                      probe_s=sampler.probe_s())
        scale = NOMINAL_S / sampler.probe_s()
        run_s *= scale
        setup_s *= scale
    else:
        record["host_run_s"] = run_s
    record["run_s"] = run_s
    record["setup_s"] = setup_s
    record["peak_rss_mb"] = _peak_rss_mb(workload.sharded)
    record["errors"] += check_outcome(outcome)
    messages = outcome.total("messages_sent")
    cycles = outcome.total("elapsed_cycles")
    record.update({
        "digest": digest([part.metrics for part in outcome.parts]),
        "simulations": len(outcome.parts),
        "elapsed_cycles": cycles,
        "messages_sent": messages,
        "buffered_fraction": outcome.buffered_fraction,
        "path": outcome.path,
        "flags": outcome.flags,
        "msgs_per_s": messages / run_s,
        "sim_cycles_per_s": cycles / run_s,
        "counters": _counters(outcome),
    })

    if tracer is not None:
        tracer.uninstall()
        # Calibrated before and after the run: a slow moment of the
        # host during either shows as larger costs, so keep the smaller.
        after = calibrate()
        costs = {shape: min(cost, after[shape])
                 for shape, cost in costs.items()}
        raw = tracer.layer_self_seconds()
        net = net_self_seconds(raw, tracer.cost_terms(costs))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{workload_name}.spans")
        tracer.write(path)
        reread = self_times_from_file(path)
        if any(abs(reread[k] - raw[k]) > 1e-6 * max(1.0, run_s)
               for k in raw):
            record["errors"].append("span file disagrees with the "
                                    "tracer's own self times")
        # Time outside every span: the benchmark's own code, modules
        # outside the layers (``repro.analysis``) and any layer entry
        # that boundaries.json misses.
        coverage = sum(raw.values()) / run_s
        if not workload.sharded and coverage < MIN_COVERAGE:
            record["errors"].append(f"trace coverage {coverage:.3f} < "
                                    f"{MIN_COVERAGE}")
        record.update({
            "coverage": coverage,
            "spans": tracer.span_count(),
            "span_file": os.path.relpath(path, ROOT),
            "raw_self_s": raw,
            "self_s": net,
            "calls": tracer.layer_calls(),
            "calibration_us": {k: v * 1e6 for k, v in costs.items()},
        })
    return record


# ----------------------------------------------------------------------
# Parent process: repeat runs, check, aggregate
# ----------------------------------------------------------------------
def run_child(mode: str, workload: str, seed: int,
              deadline: float) -> Dict[str, Any]:
    """One run in a fresh process, killed (with any shard workers it
    forked) if it is still running at ``deadline``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", workload, "--seed", str(seed)]
    failed = {"record": "run", "workload": workload, "seed": seed,
              "mode": mode, "errors": []}
    with subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            failed["errors"].append("run did not finish in time")
            return failed
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        failed["errors"].append(f"run exited {proc.returncode}: "
                                f"{stderr.strip()[-2000:]}")
        return failed
    if proc.returncode != 0 and not record["errors"]:
        record["errors"].append(f"run exited {proc.returncode}")
    return record


def median(records: List[Dict[str, Any]], key: str) -> float:
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def layer_shares(self_s: Dict[str, float]) -> Dict[str, float]:
    total = sum(max(0.0, v) for v in self_s.values())
    return {k: (100.0 * max(0.0, v) / total if total else 0.0)
            for k, v in self_s.items()}


def mark_digest_failures(runs: List[Dict[str, Any]],
                         reference: Optional[str]) -> None:
    """Every run of one invocation must produce the same digest, and
    that of the single-process reference when there is one."""
    expected = reference
    if expected is None:
        digests = [r["digest"] for r in runs if "digest" in r]
        expected = digests[0] if digests else None
    for run in runs:
        if "digest" in run and run["digest"] != expected:
            what = "reference" if reference is not None else "first run"
            run["errors"].append(f"digest {run['digest']} != {what} "
                                 f"{expected}")


#: Per-layer counters reported besides self time and calls, with units.
#: Counts of simulated work repeat exactly for one seed; host times
#: (unit ``s``) are medians over the traced runs.
PER_LAYER_COUNTERS = {
    "sim.events": "count", "sim.events_per_msg": "1/msg",
    "sim.events_per_s": "1/s", "sim.ring_events": "count",
    "sim.runq_events": "count", "sim.overflow_scheduled": "count",
    "sim.mean_batch_events": "events",
    "network.sends": "count", "network.fast_path_sends": "count",
    "network.general_path_sends": "count",
    "network.mean_latency_cycles": "cycles",
    "ni.fast_deliveries": "count", "ni.general_deliveries": "count",
    "ni.fast_frac": "1",
    "core.buffered_frac": "1", "core.transitions_to_buffered": "count",
    "core.revocations": "count",
    "glaze.buffer_inserts": "count", "glaze.max_buffer_pages": "pages",
    "glaze.page_outs": "count", "glaze.context_switches": "count",
    "protocols.retries": "count",
    "shard.attempt_s": "s", "shard.worker_busy_s": "s",
    "shard.barrier_wait_s": "s", "shard.discarded_s": "s",
    "shard.fallbacks": "count", "shard.kept_frac": "1",
    "shard.epochs": "count", "shard.cross_shard_messages": "count",
    "shard.bytes_exchanged": "B", "shard.encode_s": "s",
}


def per_layer_metrics(plain: List[Dict[str, Any]],
                      traced: List[Dict[str, Any]],
                      cprofile_diffs: Dict[str, float]) -> Dict[str, Any]:
    """``name -> (value, unit)`` for every per-layer metric."""
    from tracer import LAYERS

    last = traced[-1]
    out: Dict[str, Any] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            statistics.median(r["self_s"][layer] for r in traced), "s")
        out[f"{layer}.calls"] = (last["calls"][layer], "count")
    plain_run_s = median(plain, "run_s")
    counters = dict(last["counters"])
    counters["sim.events_per_s"] = (counters.get("sim.events", 0)
                                    / plain_run_s)
    for name, unit in PER_LAYER_COUNTERS.items():
        if unit == "s":
            value = statistics.median(r["counters"].get(name, 0.0)
                                      for r in traced)
        else:
            value = counters.get(name, 0)
        out[name] = (value, unit)
    # Fallbacks and kept attempts count every run of the invocation.
    attempts = [r["counters"] for r in plain + traced
                if "shard.attempt_s" in r["counters"]]
    if attempts:
        kept = sum(c["shard.kept_frac"] for c in attempts)
        out["shard.fallbacks"] = (sum(c["shard.fallbacks"]
                                      for c in attempts), "count")
        out["shard.kept_frac"] = (kept / len(attempts), "1")
    out["trace.overhead"] = (median(traced, "host_run_s")
                             / median(plain, "host_run_s"),
                             "ratio")
    out["trace.coverage"] = (median(traced, "coverage"), "ratio")
    out["trace.cprofile_max_diff_pp"] = (
        max(cprofile_diffs.values(), default=0.0), "pp")
    return out


def share_differences(traced: Dict[str, float],
                      profiled: Dict[str, float]) -> Dict[str, float]:
    """|tracer share - cProfile share| in percentage points, for every
    layer where either share is above the floor."""
    ours = layer_shares(traced)
    theirs = layer_shares({k: v for k, v in profiled.items()
                           if k in traced})
    return {k: abs(ours[k] - theirs[k]) for k in ours
            if max(ours[k], theirs[k]) > SHARE_FLOOR_PP}


def check_against_profile(traced: List[Dict[str, Any]],
                          profile: Dict[str, Any]) -> Dict[str, float]:
    """Layer share differences between the traced runs (median self
    time per layer) and the cProfile run. A difference above
    ``SHARE_TOLERANCE_PP`` fails the profile run."""
    good = [r for r in traced if not r["errors"]]
    if not good or "profile_s" not in profile:
        return {}
    self_s = {layer: statistics.median(r["self_s"][layer] for r in good)
              for layer in good[0]["self_s"]}
    diffs = share_differences(self_s, profile["profile_s"])
    worst = max(diffs.values(), default=0.0)
    if worst > SHARE_TOLERANCE_PP:
        profile["errors"].append(
            f"tracer and cProfile layer shares differ by {worst:.1f} pp "
            f"> {SHARE_TOLERANCE_PP:g} pp")
    return diffs


def emit(record: Dict[str, Any]) -> None:
    """Print one run's record line (the schema shared with tooling)."""
    line = {k: record.get(k) for k in (
        "record", "workload", "seed", "mode", "path", "flags", "digest",
        "simulations", "elapsed_cycles", "messages_sent",
        "buffered_fraction", "setup_s", "run_s", "host_setup_s",
        "host_run_s", "probe_s", "peak_rss_mb", "errors")}
    counters = record.get("counters", {})
    line["events"] = counters.get("sim.events")
    line["events_per_msg"] = counters.get("sim.events_per_msg")
    line["fast"] = {"network": counters.get("network.fast_path_sends"),
                    "ni": counters.get("ni.fast_deliveries")}
    line["general"] = {"network": counters.get("network.general_path_sends"),
                       "ni": counters.get("ni.general_deliveries")}
    if "self_s" in record:
        line["layer_shares_pct"] = layer_shares(record["self_s"])
        line["spans"] = record["spans"]
        line["span_file"] = record["span_file"]
    if "profile_s" in record:
        line["cprofile_shares_pct"] = layer_shares(record["profile_s"])
    print(json.dumps(line, sort_keys=True), flush=True)


def parent_main(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources under {SRC}; run from "
              "the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    sharded = WORKLOADS[args.workload].sharded
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    step = 0.0  # how long the last round took
    while (len(plain) < (1 if args.trace else MIN_RUNS)
           or time.perf_counter() - started + step <= args.seconds):
        round_started = time.perf_counter()
        plain.append(run_child("plain", args.workload, args.seed,
                               deadline))
        emit(plain[-1])
        if args.trace:
            traced.append(run_child("traced", args.workload, args.seed,
                                    deadline))
            emit(traced[-1])
        step = time.perf_counter() - round_started
    reference = profile = None
    extra: List[Dict[str, Any]] = []
    if sharded:
        ref = run_child("reference", args.workload, args.seed, deadline)
        extra.append(ref)
        reference = ref.get("digest")
        if reference is None:
            ref["errors"].append("reference run produced no digest")
    elif args.trace:
        profile = run_child("profile", args.workload, args.seed, deadline)
        extra.append(profile)
        emit(profile)
    runs = plain + traced
    mark_digest_failures(runs, reference)
    diffs = (check_against_profile(traced, profile)
             if profile is not None else {})
    failed = sum(1 for r in runs if r["errors"])
    extra_failed = any(r["errors"] for r in extra)
    for record in runs + extra:
        for error in record["errors"]:
            print(f"perfbench: {record['mode']} run failed: {error}",
                  file=sys.stderr)
    ok = [r for r in plain if not r["errors"]]

    first = ok[0] if ok else (plain[0] if plain else {})
    print(f"# {args.workload} seed={args.seed}: {len(runs)} runs, "
          f"{failed} failed; path={first.get('path')} "
          f"flags={first.get('flags')} digest={first.get('digest')}")
    print(f"# simulated: elapsed_cycles={first.get('elapsed_cycles')} "
          f"buffered_fraction={first.get('buffered_fraction')} "
          f"messages_sent={first.get('messages_sent')}")
    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        good_traced = [r for r in traced if not r["errors"]]
        if diffs:
            print("# tracer vs cProfile share difference (pp): "
                  + " ".join(f"{k}={v:.1f}" for k, v in diffs.items()))
        if ok and good_traced:
            for name, (value, unit) in per_layer_metrics(
                    ok, good_traced, diffs).items():
                metrics[name] = {"value": value, "unit": unit}
    summary = dict(metrics)
    if not args.trace:
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": median(ok, name), "unit": unit}
        summary = dict(metrics)
        for name, unit in SUMMARY_ONLY_UNITS.items():
            if name != "failed_frac":
                summary[name] = {"value": median(ok, name), "unit": unit}
    summary["failed_frac"] = {
        "value": failed / len(runs) if runs else 1.0,
        "unit": SUMMARY_ONLY_UNITS["failed_frac"]}
    width = max(len(name) for name in summary)
    for name, entry in summary.items():
        print(f"# {name:<{width}}  {entry['value']:.6g} {entry['unit']}")
    result = {
        "correct": failed == 0 and not extra_failed and bool(ok),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=(
        "plain", "traced", "profile", "reference"),
        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        try:
            record = child_main(args.child, args.workload, args.seed)
        except Exception:
            record = {"record": "run", "workload": args.workload,
                      "seed": args.seed, "mode": args.child,
                      "errors": [traceback.format_exc(limit=5)]}
        print(json.dumps(record, sort_keys=True, default=str))
        return 0
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
