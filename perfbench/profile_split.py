"""cProfile self time grouped by the layer of the executing frame.

This is the reference the span tracer is checked against. Each
function's self time goes to the ``repro`` package that defines it.
Self time of functions outside ``repro`` (builtins such as
``generator.send``, ``heapq``, ``list.append``) goes to the layers of
their callers, split by the time cProfile saw each caller spend in
them. cProfile's own cost per call, which it books partly to the
callee's self time and partly to the caller's, is measured on an empty
function (:func:`calibrate`) and removed per call before the split.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Callable, Dict, Tuple

from tracer import LAYERS

_OTHER = "other"


def file_layer(filename: str) -> str:
    """The layer whose package holds ``filename``; ``"other"`` for the
    rest of ``repro``, ``""`` outside it."""
    marker = "/repro/"
    if marker not in filename:
        return ""
    head = filename.rsplit(marker, 1)[1].split("/", 1)[0]
    head = head[:-3] if head.endswith(".py") else head
    return head if head in LAYERS else _OTHER


def profile_layer_seconds(run: Callable[[], object]) -> Dict[str, float]:
    """Run ``run()`` under cProfile; return self seconds per layer.

    Time that cannot be traced to a layer (code outside ``repro``
    with no ``repro`` caller) is reported under ``"other"``.
    """
    callee_bias, caller_bias = calibrate()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    made: Dict[Tuple, int] = {}
    for _func, (_cc, _nc, _tt, _ct, callers) in stats.items():
        for caller, entry in callers.items():
            made[caller] = made.get(caller, 0) + entry[1]
    totals = dict.fromkeys(LAYERS + (_OTHER,), 0.0)
    memo: Dict[Tuple, Dict[str, float]] = {}

    def shares(func, depth: int = 0) -> Dict[str, float]:
        """Fraction of ``func``'s self time owed to each layer."""
        layer = file_layer(func[0])
        if layer:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {_OTHER: 1.0}  # cuts recursion cycles
        callers = stats[func][4] if func in stats else {}
        weights = {caller: entry[2] for caller, entry in callers.items()}
        total = sum(weights.values())
        if not callers or depth > 20:
            return memo[func]
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            share = weight / total if total else 1.0 / len(weights)
            for name, part in shares(caller, depth + 1).items():
                out[name] = out.get(name, 0.0) + share * part
        memo[func] = out
        return out

    for func, (_cc, ncalls, self_time, _ct, _callers) in stats.items():
        self_time -= (ncalls * callee_bias
                      + made.get(func, 0) * caller_bias)
        for name, part in shares(func).items():
            totals[name] += self_time * part
    return totals


def calibrate(calls: int = 200_000, trials: int = 5) -> Tuple[float, float]:
    """Seconds per call that cProfile adds to the callee's self time
    and to the caller's, from the fastest of ``trials`` profiled loops
    of ``calls`` calls to an empty function, against the fastest of as
    many unprofiled ones, taking turns."""
    def noop():
        return None

    def loop():
        for _ in range(calls):
            noop()

    plain = best = None
    for _ in range(trials):
        elapsed = _timed(loop)
        plain = elapsed if plain is None else min(plain, elapsed)
        profiler = cProfile.Profile()
        profiler.enable()
        loop()
        profiler.disable()
        stats = pstats.Stats(profiler).stats
        own = {func[2]: entry[2] for func, entry in stats.items()}
        seen = (own["noop"], own["loop"])
        best = seen if best is None or sum(seen) < sum(best) else best
    return best[0] / calls, max(0.0, best[1] - plain) / calls


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
