"""Regenerate ``boundaries.json``: the calls that cross a layer.

Runs each serial workload (and the single-machine reference of
``shard_a2a``) under cProfile for each of a fixed list of seeds, and
lists every ``repro`` function, method or property that cProfile saw
called from another layer, plus the benchmark's own calls into the
simulator.
Callers outside ``repro`` (``generator.send``, the engine's callback
dispatch through builtins) are looked through to their own callers.
The tracer wraps exactly these, so a span opens wherever control
enters a layer and nowhere else, which keeps tracing cheap.

Run it from the repository root after a change moves code between
layers::

    python3 perfbench/boundaries.py
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import json
import os
import pkgutil
import pstats
import sys
from typing import Dict, Set, Tuple

from profile_split import file_layer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "boundaries.json")
#: A call may cross a layer on some seeds only; the list is the union.
SEEDS = (1, 2, 3)
#: The calls ``workloads.py`` makes into the simulator to run a
#: workload. They enter a layer too, but from outside every layer, so
#: the caller graph cannot find them.
ENTRY_POINTS = {
    "repro.machine.machine": ["Machine.run_until_job_done"],
    "repro.shard.coordinator": ["run_sharded"],
}


def _code_index() -> Dict[Tuple[str, int], Tuple[str, str]]:
    """``(filename, first line) -> (module, qualname)`` for every
    function, method and property getter defined in ``repro``."""
    import repro

    index = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == info.name:
                code = value.__code__
                index[(code.co_filename, code.co_firstlineno)] = (
                    info.name, attr)
            if not (inspect.isclass(value)
                    and value.__module__ == info.name):
                continue
            for name, raw in vars(value).items():
                if isinstance(raw, property):
                    raw = raw.fget
                elif isinstance(raw, (staticmethod, classmethod)):
                    raw = raw.__func__
                if inspect.isfunction(raw):
                    code = raw.__code__
                    index[(code.co_filename, code.co_firstlineno)] = (
                        info.name, f"{value.__qualname__}.{name}")
    return index


def crossing_calls(run) -> Set[Tuple[str, int]]:
    """``(file, first line)`` of every ``repro`` function that ``run()``
    calls from another layer."""
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    stats = pstats.Stats(profiler).stats

    def caller_layers(func, depth=0) -> Set[str]:
        out: Set[str] = set()
        for caller in stats.get(func, (0, 0, 0, 0, {}))[4]:
            layer = file_layer(caller[0])
            if not layer and depth < 4:
                out |= caller_layers(caller, depth + 1)
            elif layer:
                out.add(layer)
        return out

    found = set()
    for func in stats:
        layer = file_layer(func[0])
        if layer and layer != "other" and any(
                other != layer for other in caller_layers(func)):
            found.add((func[0], func[1]))
    return found


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    found: Set[Tuple[str, int]] = set()
    for seed in SEEDS:
        for factory in WORKLOADS.values():
            workload = factory(seed)
            if workload.sharded:
                found |= crossing_calls(workload.reference)
            else:
                workload.setup()
                found |= crossing_calls(workload.run)
    index = _code_index()
    table: Dict[str, list] = {}
    for key in found:
        if key in index:
            module, qualname = index[key]
            table.setdefault(module, []).append(qualname)
    for module, names in ENTRY_POINTS.items():
        table.setdefault(module, []).extend(names)
    table = {module: sorted(set(names))
             for module, names in sorted(table.items())}
    with open(OUT, "w") as out:
        json.dump(table, out, indent=1)
        out.write("\n")
    print(f"{sum(map(len, table.values()))} boundaries -> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
