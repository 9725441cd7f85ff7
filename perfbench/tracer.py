"""Span tracer for the benchmark's traced run.

The tracer records one span per call into a layer of the simulator.
A layer is one ``repro`` package: ``sim``, ``machine``, ``network``,
``ni``, ``core``, ``glaze``, ``protocols``, ``apps`` and ``shard``.
Nothing in ``src/`` is edited. :meth:`Tracer.install` wraps, from
outside, the callables through which control enters a layer:

* the layer's entry points listed in ``boundaries.json``: every
  function, method or property another layer calls (``boundaries.py``
  finds them). A generator function's generators are wrapped in a
  proxy that opens one span per resumption, because the processor and
  ``yield from`` hop between layers at each resumption;
* every callback handed to ``Engine.call_at`` / ``Engine.schedule``
  that the list misses. The engine's dispatch loop then books the
  callback's run to the callback's own layer instead of to ``sim``.

A wrapped call made from inside its own layer opens no span: it
crosses no boundary, and its time stays with the open span.

A span is ``(name, layer, start, end, parent, run id)``. Its start and
end are read on entry to and exit from the wrapper, so a span covers
the tracer's own book-keeping for it. Spans are kept in flat in-memory
arrays and written to a file once, by :meth:`Tracer.write`, when the
traced run ends.

A layer's *raw* self time is the sum over its spans of span time minus
the time covered by child spans; :func:`self_times_from_file`
recomputes it from the file. Its *net* self time
(:func:`net_self_seconds`) further removes the tracer's cost: the
book-keeping each wrapper timed inside its own span, the cost of
entering and leaving wrappers, which no clock inside a wrapper can
see, from the callers' layers, and the wrapper's own work between its
clocks, from the span's layer; the last two as :func:`calibrate`
measures them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import struct
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

LAYERS = ("sim", "machine", "network", "ni", "core", "glaze",
          "protocols", "apps", "shard")

#: Modules left unwrapped. ``rpc`` tests ``inspect.isgeneratorfunction``
#: on registered procedures, which a wrapper would defeat.
_SKIP_MODULES = frozenset({"repro.protocols.rpc"})

_MAGIC = b"PBSPANS1"


def layer_of_module(module: str) -> str:
    """The layer a ``repro.<layer>...`` module belongs to, or ``""``."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return ""


class Tracer:
    """Records spans at layer boundaries; see the module docstring."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self.name_is_generator: List[bool] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.self_s = [0.0] * len(LAYERS)
        #: Book-keeping time each span measured inside itself.
        self.bookkeeping_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        #: Wrapped calls made from inside their own layer (no span).
        self.skipped = [0] * len(LAYERS)
        # Open spans, innermost last: index, layer and the time their
        # children covered so far. The bottom entry stands for "none".
        self._open_index: List[int] = [-1]
        self._open_layer: List[int] = [-1]
        self._open_child: List[float] = [0.0]
        self._callback_runners: Dict[Any, Any] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def name_id(self, name: str, layer: str,
                generator: bool = False) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
            self.name_is_generator.append(generator)
            self._name_ids[name] = nid
        return nid

    def _span_function(self, name_id: int, signature: str,
                       work: str, **names: Any) -> Callable:
        """A function ``(signature)`` that evaluates ``work`` inside a
        span named ``name_id`` (see :data:`_SPAN_TEMPLATE`)."""
        namespace = dict(
            names,
            clock=time.perf_counter,
            layer=self.name_layer[name_id],
            name_id=name_id,
            open_index=self._open_index,
            open_layer=self._open_layer,
            open_child=self._open_child,
            names_append=self.span_name.append,
            parent_append=self.span_parent.append,
            start_append=self.span_start.append,
            end_append=self.span_end.append,
            span_end=self.span_end,
            self_s=self.self_s,
            bookkeeping=self.bookkeeping_s,
            calls=self.calls,
            skipped=self.skipped,
        )
        exec(_SPAN_TEMPLATE.format(signature=signature, work=work),
             namespace)
        return namespace["span_function"]

    def wrap_call(self, fn: Callable, name: str, layer: str) -> Callable:
        traced = functools.wraps(fn)(self._span_function(
            self.name_id(name, layer), "*args, **kwargs",
            "fn(*args, **kwargs)", fn=fn))
        traced.__perfbench_traced__ = True
        return traced

    def wrap_generator_function(self, fn: Callable, name: str,
                                layer: str) -> Callable:
        nid = self.name_id(name, layer, generator=True)
        proxy = type("TracedGenerator", (_TracedGenerator,), {
            "__slots__": (),
            "__next__": self._span_function(nid, "self",
                                            "self.gen.send(None)"),
            "send": self._span_function(nid, "self, value",
                                        "self.gen.send(value)"),
            "throw": self._span_function(nid, "self, *args",
                                         "self.gen.throw(*args)"),
        })

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return proxy(fn(*args, **kwargs))

        traced.__perfbench_traced__ = True
        return traced

    def wrap_callback(self, fn: Callable, arg: Any, no_arg: Any
                      ) -> Tuple[Callable, Any]:
        """``(fn, arg)`` for the engine such that the callback's run is
        booked to the callback's own layer."""
        func = getattr(fn, "__func__", fn)
        try:
            runners = self._callback_runners[func]
        except KeyError:
            runners = self._callback_runners[func] = (
                self._callback_runner(func))
        except TypeError:  # unhashable callable: book it to the caller
            return fn, arg
        if runners is None:
            return fn, arg
        if arg is no_arg:
            return runners[0], fn
        return runners[1], (fn, arg)

    def _callback_runner(self, func: Callable):
        if getattr(func, "__perfbench_traced__", False):
            return None  # already a wrapped layer function
        layer = layer_of_module(getattr(func, "__module__", None) or "")
        if layer in ("", "sim"):
            return None  # the engine's own work stays in its span
        nid = self.name_id(
            f"{layer}:{getattr(func, '__qualname__', repr(func))}", layer)
        return (self._span_function(nid, "fn", "fn()"),
                self._span_function(nid, "packed", "packed[0](packed[1])"))

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, boundaries: Dict[str, List[str]]) -> None:
        """Wrap every layer boundary (see the module docstring).

        ``boundaries`` maps a module name to the functions in it that
        other layers call: ``"func"`` or ``"Class.attr"`` (see
        ``boundaries.py``). A name the module no longer has is skipped.
        """
        # First, so that a span around ``call_at``/``schedule`` covers
        # the callback wrapping too.
        self._install_engine_dispatch()
        for module_name, names in boundaries.items():
            layer = layer_of_module(module_name)
            if not layer or module_name in _SKIP_MODULES:
                continue
            module = importlib.import_module(module_name)
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = (getattr(module, owner_name, None) if owner_name
                         else module)
                raw = vars(owner).get(attr) if owner is not None else None
                wrapped = self._wrapped(raw, f"{layer}.{qualname}", layer)
                if wrapped is not None:
                    self._patch(owner, attr, wrapped)

    def _wrapped(self, raw: Any, name: str, layer: str) -> Any:
        if isinstance(raw, property):
            if raw.fget is None:
                return None
            return property(self.wrap_call(raw.fget, name, layer),
                            raw.fset, raw.fdel, raw.__doc__)
        if isinstance(raw, staticmethod):
            inner = self._wrapped(raw.__func__, name, layer)
            return None if inner is None else staticmethod(inner)
        if not inspect.isfunction(raw):
            return None
        if inspect.isgeneratorfunction(raw):
            return self.wrap_generator_function(raw, name, layer)
        return self.wrap_call(raw, name, layer)

    def _install_engine_dispatch(self) -> None:
        from repro.sim.engine import _NO_ARG, Engine

        wrap = self.wrap_callback
        call_at = Engine.call_at
        schedule = Engine.schedule
        clock = time.perf_counter
        open_layer = self._open_layer
        bookkeeping = self.bookkeeping_s

        def wrapped(fn, arg):
            # Timed as book-keeping of the span it runs in.
            started = clock()
            fn, arg = wrap(fn, arg, _NO_ARG)
            layer = open_layer[-1]
            if layer >= 0:
                bookkeeping[layer] += clock() - started
            return fn, arg

        def traced_call_at(engine, when, fn, arg=_NO_ARG):
            return call_at(engine, when, *wrapped(fn, arg))

        def traced_schedule(engine, when, fn, arg=_NO_ARG):
            return schedule(engine, when, *wrapped(fn, arg))

        self._patch(Engine, "call_at", functools.wraps(call_at)(
            traced_call_at))
        self._patch(Engine, "schedule", functools.wraps(schedule)(
            traced_schedule))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget every span recorded so far (call with none open)."""
        for column in (self.span_name, self.span_start, self.span_end,
                       self.span_parent):
            del column[:]
        for totals in (self.self_s, self.bookkeeping_s):
            totals[:] = [0.0] * len(LAYERS)
        for counts in (self.calls, self.skipped):
            counts[:] = [0] * len(LAYERS)

    def layer_self_seconds(self) -> Dict[str, float]:
        """Raw self seconds per layer (tracer cost included)."""
        return dict(zip(LAYERS, self.self_s))

    def cost_terms(self, costs: Dict[str, float]) -> Dict[str, List[float]]:
        """Per-layer terms of the tracer's own cost (see
        :func:`net_self_seconds`), from ``costs`` (see
        :func:`calibrate`).

        * ``bookkeeping``: what each span timed inside itself;
        * ``unseen``: the calibrated cost of entering and leaving a
          wrapper, which lands in the caller's layer: per span, booked
          to the parent span's layer, and per call that opened no span,
          booked to its own layer;
        * ``moved``: a span holds the call or resumption that starts
          its work, which untraced belongs to the caller; this much is
          owed back to each layer from its children's spans, net;
        * ``inside``: what the wrapper itself does between a span's
          clocks (passing arguments on, looking up ``send``), booked
          to the span's own layer.

        A generator span whose parent is a generator span was resumed
        by ``yield from``; any other generator span by ``send``.
        """
        unseen = [costs["skip"] * count for count in self.skipped]
        moved = [0.0] * len(LAYERS)
        inside = [0.0] * len(LAYERS)
        layer_of, is_gen = self.name_layer, self.name_is_generator
        names, parents = self.span_name, self.span_parent
        for i in range(len(names)):
            parent = parents[i]
            name = names[i]
            if not is_gen[name]:
                kind = "call"
            elif parent >= 0 and is_gen[names[parent]]:
                kind = "yield_from"
            else:
                kind = "send"
            inside[layer_of[name]] += costs[kind + ".inside"]
            if parent < 0:
                continue
            parent_name = names[parent]
            unseen[layer_of[parent_name]] += costs[kind]
            start = costs[kind + ".start"]
            moved[layer_of[name]] -= start
            moved[layer_of[parent_name]] += start
        return {"bookkeeping": list(self.bookkeeping_s), "unseen": unseen,
                "moved": moved, "inside": inside}

    def layer_calls(self) -> Dict[str, int]:
        return dict(zip(LAYERS, self.calls))

    def span_count(self) -> int:
        return len(self.span_end)

    def write(self, path: str) -> None:
        """Write every span to ``path``: a JSON header line naming the
        columns, then the four columns as raw native arrays."""
        header = {
            "run_id": self.run_id,
            "layers": list(LAYERS),
            "names": self.names,
            "name_layer": self.name_layer,
            "spans": self.span_count(),
            "columns": ["name:i32", "start:f64", "end:f64",
                        "parent:i32"],
        }
        with open(path, "wb") as out:
            out.write(_MAGIC)
            blob = json.dumps(header).encode()
            out.write(struct.pack("<Q", len(blob)))
            out.write(blob)
            for column in (self.span_name, self.span_start,
                           self.span_end, self.span_parent):
                column.tofile(out)


def net_self_seconds(raw: Dict[str, float],
                     terms: Dict[str, List[float]]) -> Dict[str, float]:
    """Per-layer self seconds net of the tracer's own cost.

    ``raw`` and ``terms`` come from one traced run
    (:meth:`Tracer.layer_self_seconds`, :meth:`Tracer.cost_terms`).
    The book-keeping is removed as timed, the unseen and inside wrapper
    costs as calibrated, and the ``moved`` terms are applied.
    """
    return {layer: raw[layer] - kept - hidden - wrapper + moved
            for layer, kept, hidden, wrapper, moved in zip(
                LAYERS, terms["bookkeeping"], terms["unseen"],
                terms["inside"], terms["moved"])}


#: The body of every span function: ``signature`` and ``work`` are
#: filled in per use. It is one template, not a helper called from
#: each wrapper, because a Python call per span would add to the cost
#: the spans measure. A call from inside the span's own layer opens no
#: span. Otherwise the span starts on entry and ends on exit; the
#: book-keeping between (``entered``, ``start``) and (``end``,
#: ``left``) is timed and set apart. The book-keeping allocates no
#: object the garbage collector tracks.
_SPAN_TEMPLATE = """
def span_function({signature}):
    entered = clock()
    if open_layer[-1] == layer:
        skipped[layer] += 1
        return {work}
    index = len(span_end)
    names_append(name_id)
    parent_append(open_index[-1])
    start_append(entered)
    end_append(0.0)
    open_index.append(index)
    open_layer.append(layer)
    open_child.append(0.0)
    start = clock()
    try:
        return {work}
    finally:
        end = clock()
        open_index.pop()
        open_layer.pop()
        child = open_child.pop()
        calls[layer] += 1
        left = clock()
        duration = left - entered
        open_child[-1] += duration
        self_s[layer] += duration - child
        bookkeeping[layer] += (start - entered) + (left - end)
        span_end[index] = left
"""


class _TracedGenerator:
    """Generator proxy: one span per resumption of the wrapped one.
    :meth:`Tracer.wrap_generator_function` subclasses it per generator
    function with span-recording ``__next__``, ``send`` and ``throw``."""

    __slots__ = ("gen",)

    def __init__(self, gen) -> None:
        self.gen = gen

    def __iter__(self):
        return self

    def close(self) -> None:
        self.gen.close()


def calibrate(calls: int = 50_000, trials: int = 7) -> Dict[str, float]:
    """Seconds per span that the wrappers' own clocks cannot see.

    Returns, for ``call`` (a wrapped function or engine callback),
    ``send`` (a generator resumed by ``send``) and ``yield_from`` (a
    generator resumed through ``yield from``), the time a span adds
    outside its own start and end: entering and leaving the wrapper.
    ``skip`` is the whole cost of a wrapped call made from its own
    layer, which opens no span. ``<shape>.start`` is the untraced cost
    of starting the work: the call or resumption itself.
    ``<shape>.inside`` is what a span around empty work holds beyond
    its book-keeping and that start: the wrapper's own work between
    its clocks. Each figure comes from the fastest of ``trials`` loops
    of ``calls``.
    """
    clock = time.perf_counter
    apps = LAYERS.index("apps")
    tracer = Tracer("calibration")

    def noop(receiver, value):
        return None

    def forever():
        while True:
            yield

    def delegate(inner):
        yield from inner

    def empty_loop():
        for _ in range(calls):
            pass

    def call_loop(fn):
        def loop():
            for _ in range(calls):
                fn(loop, calls)
        return loop

    def send_loop(gen):
        send = gen.send
        send(None)

        def loop():
            for _ in range(calls):
                send(None)
        return loop

    traced_noop = tracer.wrap_call(noop, "calibration.call", "apps")
    traced_forever = tracer.wrap_generator_function(
        forever, "calibration.generator", "apps")
    traced_call = call_loop(traced_noop)

    def skip_loop():
        tracer._open_layer.append(apps)  # as if called from "apps"
        try:
            traced_call()
        finally:
            tracer._open_layer.pop()

    loops = {
        "empty": empty_loop,
        "call": call_loop(noop),
        "send": send_loop(forever()),
        "yield_from": send_loop(delegate(forever())),
        "traced call": traced_call,
        "traced send": send_loop(traced_forever()),
        "traced yield_from": send_loop(delegate(traced_forever())),
        "skip": skip_loop,
    }
    # Per loop, the fastest trial's (seconds, seconds inside spans, of
    # which book-keeping) per call. Trials take turns across the loops
    # so that a change of host speed meets them all alike.
    best: Dict[str, Tuple[float, float, float]] = {}
    for _ in range(trials):
        for key, loop in loops.items():
            tracer.reset()
            start = clock()
            loop()
            elapsed = clock() - start
            seen = (elapsed / calls, tracer.self_s[apps] / calls,
                    tracer.bookkeeping_s[apps] / calls)
            best[key] = min(best.get(key, seen), seen)
    empty = best["empty"][0]
    plain_call = best["call"][0]
    plain_send = best["send"][0]
    plain_yield_from = best["yield_from"][0]
    out = {}
    # What starting the wrapped work costs untraced: a call, a resume,
    # a resume through ``yield from``.
    out["call.start"] = plain_call - empty
    out["send.start"] = plain_send - empty
    out["yield_from.start"] = plain_yield_from - plain_send
    # Each loop's untraced work (the call or resumption) runs inside
    # the span, so what the spans miss is the rest minus the loop.
    traced, inside, kept = best["traced call"]
    out["call"] = traced - inside - empty
    out["call.inside"] = inside - kept - out["call.start"]
    traced, inside, kept = best["traced send"]
    out["send"] = traced - inside - empty
    out["send.inside"] = inside - kept - out["send.start"]
    # The outer generator's resumption stays outside the span; the
    # inner one's, inside it, is a plain resume.
    traced, inside, kept = best["traced yield_from"]
    outer = plain_yield_from - (plain_send - empty)
    out["yield_from"] = traced - inside - outer
    out["yield_from.inside"] = inside - kept - out["send.start"]
    out["skip"] = best["skip"][0] - plain_call
    return {shape: max(0.0, cost) for shape, cost in out.items()}


def load_spans(path: str) -> Tuple[Dict[str, Any], Dict[str, array]]:
    """Read a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as src:
        if src.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: not a span file")
        (size,) = struct.unpack("<Q", src.read(8))
        header = json.loads(src.read(size))
        count = header["spans"]
        columns = {}
        for spec in header["columns"]:
            key, kind = spec.split(":")
            column = array("i" if kind == "i32" else "d")
            column.fromfile(src, count)
            columns[key] = column
    return header, columns


def self_times_from_file(path: str) -> Dict[str, float]:
    """Per-layer raw self seconds recomputed from a span file.

    Spans are stored in opening order, so every child follows its
    parent; one backward pass subtracts each span's duration from its
    parent's self time.
    """
    header, cols = load_spans(path)
    start, end, parent = cols["start"], cols["end"], cols["parent"]
    own = [end[i] - start[i] for i in range(len(end))]
    for i in range(len(own) - 1, -1, -1):
        p = parent[i]
        if p >= 0:
            own[p] -= end[i] - start[i]
    layers = header["layers"]
    name_layer = header["name_layer"]
    totals = dict.fromkeys(layers, 0.0)
    for i, name in enumerate(cols["name"]):
        totals[layers[name_layer[name]]] += own[i]
    return totals
