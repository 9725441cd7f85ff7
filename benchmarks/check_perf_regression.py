"""Gate CI on engine-throughput drift against the committed baseline.

Compares the freshly written ``BENCH_runner.json`` (produced by
``benchmarks/perf_smoke.py`` earlier in the same job, overwriting the
working-tree copy) against the committed baseline read via
``git show HEAD:BENCH_runner.json``.

The engine figure compared is ``reference_events_per_second``: the
microbench's events/second scaled by the host-speed probe timed in
the same process (``perfbench/hostspeed.py``), i.e. the throughput on
a host that runs the probe in its nominal time. A baseline stamped on
one machine therefore still holds on another. When the committed side
predates the field the gate is skipped (neutral), never passed. The
ratchet is two-sided:

* fail when the fresh figure drops more than ``--threshold`` (default
  20%) below the committed one — a real regression;
* fail when the fresh figure *beats* the committed one by more than
  ``--threshold-up`` (default 20%) — a real improvement that was not
  recorded. Re-run ``perf_smoke.py`` and commit the refreshed
  ``BENCH_runner.json`` so the baseline ratchets forward and the
  regression floor rises with it.

The same two-sided ratchet applies to the sharded all-to-all leg's
aggregate events/second — the number the window protocol and
adaptive-lookahead work exists to improve. That comparison is neutral
(skipped, not passed) whenever either side's ``speedup_required`` is
False (single-core runner, serial fallback) or the baseline predates
the leg: a skipped gate must never masquerade as a green one, and a
figure measured without real parallelism is not a baseline.

Throughput is noisy even after the host-speed scaling, so both sides
are deliberately loose (a >20% move is a real change, not jitter).

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_smoke.py
    python benchmarks/check_perf_regression.py [--threshold 0.2] \
        [--threshold-up 0.2]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", default="BENCH_runner.json",
                        help="fresh smoke report (written by perf_smoke.py)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max tolerated events/s regression fraction")
    parser.add_argument("--threshold-up", type=float, default=0.20,
                        help="max unstamped events/s improvement fraction")
    args = parser.parse_args(argv)

    with open(args.fresh, encoding="utf-8") as fh:
        fresh = json.load(fh)
    baseline = committed_baseline(args.fresh)
    if baseline is None:
        print(f"no committed {args.fresh} baseline (not a git checkout?); "
              "skipping regression gate")
        return 0

    failed = False
    compared = 0
    key = "reference_events_per_second"
    base_ref = baseline["engine_events"].get(key)
    if base_ref is None:
        print(f"engine reference events/s: the committed baseline has "
              f"no {key} (stamped before the host-speed probe); "
              "skipping, neutral")
    else:
        failed = ratchet("engine reference events/s",
                         fresh["engine_events"][key], base_ref,
                         args.threshold, args.threshold_up)
        compared += 1

    fresh_leg = fresh.get("shard", {}).get("all_to_all")
    base_leg = baseline.get("shard", {}).get("all_to_all")
    if fresh_leg is None or base_leg is None:
        print("shard all-to-all events/s: no figure on "
              + ("both sides" if fresh_leg is None and base_leg is None
                 else ("the fresh side" if fresh_leg is None
                       else "the committed side"))
              + " (schema predates the leg); skipping")
    elif not fresh_leg.get("speedup_required"):
        print("shard all-to-all events/s: fresh gate skipped "
              f"({fresh_leg.get('speedup_skip_reason')}); neutral")
    elif not base_leg.get("speedup_required"):
        print("shard all-to-all events/s: committed baseline was "
              f"measured without a real speedup gate "
              f"({base_leg.get('speedup_skip_reason')}); neutral")
    else:
        failed = ratchet(
            "shard all-to-all events/s",
            fresh_leg["aggregate_events_per_second"],
            base_leg["aggregate_events_per_second"],
            args.threshold, args.threshold_up,
        ) or failed
        compared += 1

    if failed:
        return 1
    print("OK" if compared else "no gate compared anything; neutral")
    return 0


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


if __name__ == "__main__":
    raise SystemExit(main())
