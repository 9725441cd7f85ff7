"""Gate CI on real-path wall time, paired against the parent commit.

Three checks, in this order:

* **Real-path gate** (fails the job). Runs the repository benchmark,
  ``perfbench/run.py --trace 0 --seed 1``, alternately on this
  checkout and on ``--base`` (a commit extracted with ``git archive``
  into a temporary directory): ``PAIRS`` pairs of invocations per
  workload, the order flipping every pair so drift on the host hits
  both sides alike. The workloads are ``barrier_direct``, plus
  ``shard_a2a`` when the host has at least two CPUs. Each invocation
  reports ``run_s`` as the median of its runs; the gate fails when the
  median over this checkout's invocations exceeds the base's median by
  more than the ``run_s`` bound in ``BENCHMARK.json`` (read from this
  checkout's file), or when a run on this checkout is not ``correct``.
  A base that cannot be extracted or does not run correctly makes the
  comparison neutral (skipped, not passed).
* **Shard all-to-all ratchet** (fails the job). Compares the sharded
  all-to-all leg's aggregate events/second in the freshly written
  ``BENCH_runner.json`` (``benchmarks/perf_smoke.py`` earlier in the
  same job) with the committed copy (``git show HEAD:...``). It is
  two-sided: a drop of more than ``--threshold`` is a regression, a
  rise of more than ``--threshold-up`` an improvement that was not
  re-stamped. It is neutral whenever either side's
  ``speedup_required`` is False (single-core runner, serial fallback)
  or either side lacks the leg.
* **Engine microbenchmark** (explains, never gates). Prints the fresh
  host-scaled ``reference_events_per_second`` next to the committed
  one. Its dense fixed-delay tickers are not the shape real runs
  schedule, so it can move against every real workload.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_smoke.py
    python benchmarks/check_perf_regression.py --base HEAD^
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

GATED_METRIC = "run_s"
#: Paired invocations per workload; each invocation is itself the
#: median of three runs.
PAIRS = 5


def committed_baseline(path: str) -> dict | None:
    """The committed copy of ``path``, or None outside a git checkout."""
    try:
        blob = subprocess.run(
            ["git", "show", f"HEAD:{path}"],
            capture_output=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return json.loads(blob)


def run_s_bound(path: str = "BENCHMARK.json") -> float:
    """The relative ``run_s`` bound the benchmark declares."""
    with open(path, encoding="utf-8") as fh:
        declared = json.load(fh)
    for metric in declared["end_to_end"]:
        if metric["name"] == GATED_METRIC:
            return float(metric["bound"])
    raise KeyError(f"{path} declares no {GATED_METRIC} bound")


def extract(rev: str, into: str) -> bool:
    """Write the tree of ``rev`` into ``into``; False if git cannot."""
    try:
        blob = subprocess.run(["git", "archive", "--format=tar", rev],
                              capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return False
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:  # pragma: no cover - Python without extraction filters
            tar.extractall(into)
    return True


def perfbench_run_s(root: str, workload: str) -> float | None:
    """One ``perfbench/run.py`` invocation in ``root``: its median
    ``run_s``, or None when it did not report itself correct."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    if result.get("correct") is not True:
        return None
    return result["metrics"][GATED_METRIC]["value"]


def real_path_gate(base: str, bound: float,
                   workloads: list[str]) -> tuple[bool, int]:
    """Paired ``run_s`` comparison; returns (failed, compared)."""
    failed = False
    compared = 0
    with tempfile.TemporaryDirectory(prefix="perf-base-") as base_root:
        if not extract(base, base_root):
            print(f"real-path gate: cannot extract {base!r}; skipping, "
                  "neutral")
            return False, 0
        for workload in workloads:
            head_s: list[float] = []
            base_s: list[float] = []
            head_ok = base_ok = True
            for i in range(PAIRS):
                order = (("head", "."), ("base", base_root))
                for side, root in (order if i % 2 == 0 else order[::-1]):
                    value = perfbench_run_s(root, workload)
                    if side == "head":
                        head_ok = head_ok and value is not None
                        head_s.append(value)
                    else:
                        base_ok = base_ok and value is not None
                        base_s.append(value)
            label = f"{workload} {GATED_METRIC}"
            if not head_ok:
                print(f"FAIL: {label}: a run on this checkout was not "
                      "correct")
                failed = True
                continue
            if not base_ok:
                print(f"{label}: a run on {base} was not correct; "
                      "skipping, neutral")
                continue
            head_med = statistics.median(head_s)
            base_med = statistics.median(base_s)
            ratio = head_med / base_med
            wins = sum(h < b for h, b in zip(head_s, base_s))
            print(f"{label}: this checkout {head_med:.3f} s vs {base} "
                  f"{base_med:.3f} s over {PAIRS} pairs (ratio "
                  f"{ratio:.3f}, bound {1 + bound:.2f}; faster in "
                  f"{wins}/{PAIRS} pairs)")
            print(f"  this checkout: {', '.join(f'{v:.3f}' for v in head_s)}")
            print(f"  {base}: {', '.join(f'{v:.3f}' for v in base_s)}")
            compared += 1
            if ratio > 1 + bound:
                print(f"FAIL: {label} regressed past the "
                      f"BENCHMARK.json bound (+{bound:.0%})")
                failed = True
    return failed, compared


def ratchet(label: str, fresh_eps: float, base_eps: float,
            threshold: float, threshold_up: float) -> bool:
    """Two-sided comparison; True when the gate fails."""
    floor = base_eps * (1.0 - threshold)
    ceiling = base_eps * (1.0 + threshold_up)
    change = fresh_eps / base_eps - 1.0
    print(f"{label}: fresh {fresh_eps:,.0f} vs committed "
          f"{base_eps:,.0f} ({change:+.1%}; floor {floor:,.0f} at "
          f"-{threshold:.0%}, ceiling {ceiling:,.0f} at "
          f"+{threshold_up:.0%})")
    if fresh_eps < floor:
        print(f"FAIL: {label} regressed past the threshold")
        return True
    if fresh_eps > ceiling:
        print(f"FAIL: {label} beat the committed baseline by "
              f"more than +{threshold_up:.0%} — re-stamp the "
              "baseline (run perf_smoke.py and commit the refreshed "
              "BENCH_runner.json) so the ratchet records the win")
        return True
    return False


def shard_ratchet(fresh: dict, baseline: dict, threshold: float,
                  threshold_up: float) -> tuple[bool, int]:
    """The sharded all-to-all leg's ratchet; returns (failed,
    compared)."""
    fresh_leg = fresh.get("shard", {}).get("all_to_all")
    base_leg = baseline.get("shard", {}).get("all_to_all")
    label = "shard all-to-all events/s"
    if fresh_leg is None or base_leg is None:
        side = ("both sides" if fresh_leg is None and base_leg is None
                else "the fresh side" if fresh_leg is None
                else "the committed side")
        print(f"{label}: no figure on {side}; skipping, neutral")
    elif not fresh_leg.get("speedup_required"):
        print(f"{label}: fresh gate skipped "
              f"({fresh_leg.get('speedup_skip_reason')}); neutral")
    elif not base_leg.get("speedup_required"):
        print(f"{label}: committed baseline was measured without a "
              f"real speedup gate ({base_leg.get('speedup_skip_reason')})"
              "; neutral")
    else:
        return ratchet(label, fresh_leg["aggregate_events_per_second"],
                       base_leg["aggregate_events_per_second"],
                       threshold, threshold_up), 1
    return False, 0


def explain_microbench(fresh: dict, baseline: dict) -> None:
    key = "reference_events_per_second"
    fresh_ref = fresh.get("engine_events", {}).get(key)
    base_ref = baseline.get("engine_events", {}).get(key)
    if fresh_ref is None or base_ref is None:
        return
    print(f"engine microbench (explanatory, not gated): {key} "
          f"{fresh_ref:,.0f} vs committed {base_ref:,.0f} "
          f"({fresh_ref / base_ref - 1:+.1%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", default="HEAD^",
                        help="commit the real-path gate pairs against")
    parser.add_argument("--fresh", default="BENCH_runner.json",
                        help="fresh smoke report (written by perf_smoke.py)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max tolerated shard events/s regression")
    parser.add_argument("--threshold-up", type=float, default=0.20,
                        help="max unstamped shard events/s improvement")
    args = parser.parse_args(argv)

    workloads = ["barrier_direct"]
    if (os.cpu_count() or 1) >= 2:
        workloads.append("shard_a2a")
    failed, compared = real_path_gate(args.base, run_s_bound(), workloads)

    baseline = committed_baseline(args.fresh)
    if baseline is None or not os.path.exists(args.fresh):
        print(f"no fresh and committed {args.fresh} pair; skipping the "
              "shard ratchet, neutral")
    else:
        with open(args.fresh, encoding="utf-8") as fh:
            fresh = json.load(fh)
        shard_failed, shard_compared = shard_ratchet(
            fresh, baseline, args.threshold, args.threshold_up)
        failed = failed or shard_failed
        compared += shard_compared
        explain_microbench(fresh, baseline)

    if failed:
        return 1
    print("OK" if compared else "no gate compared anything; neutral")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
