"""Wire codec for cross-shard messages.

A :class:`~repro.network.message.Message` carries a *bound handler* —
a callable closed over the destination application instance. That
instance exists (as a replica) in every shard process, so the codec
ships the handler **by name** and rebinds it against the owning shard's
replica of the same application. Anything that is not a plain bound
method of the registered application (kernel services, transport
endpoints, bare functions) is *not* encodable; the caller treats that
as a coupling flag and falls back to serial execution rather than
guessing.

Every cross-shard message takes the same route: at each window barrier
a worker encodes its epoch outbox with :func:`encode_message` and sends
the list of wire tuples, pickled, in its one report over the
``multiprocessing`` pipe; the coordinator routes each tuple to the
owning shard's batch, and the owner runs :func:`decode_message` then
injects it. A wire tuple is plain data (ints, the handler name, the
payload tuple as sent), so pickle carries every payload shape — bools,
floats, strings, big ints, bulk bodies — exactly.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.network.message import Message

#: (src, dst, gid, handler_name, payload, bulk, inject_time, arrival)
Encoded = Tuple[int, int, int, str, Tuple[Any, ...], bool, int, int]


def encode_message(message: Message, arrival: int,
                   apps_by_gid: Dict[int, Any]) -> Optional[Encoded]:
    """Flatten ``message`` for the pipe, or None if it can't be rebound.

    ``arrival`` is the exact arrival cycle the source fabric computed
    (latency model + per-pair FIFO floor); carrying it verbatim is what
    makes sharded delivery bit-identical to the monolithic engine.
    """
    app = apps_by_gid.get(message.gid)
    if app is None:
        return None
    handler = message.handler
    fn = getattr(handler, "__func__", None)
    if fn is None or getattr(handler, "__self__", None) is not app:
        return None
    name = fn.__name__
    if getattr(app.__class__, name, None) is not fn:
        return None  # e.g. per-instance shadowed attribute
    return (message.src, message.dst, message.gid, name,
            message.payload, message.bulk, message.inject_time, arrival)


def decode_message(encoded: Encoded, apps_by_gid: Dict[int, Any],
                   ) -> Optional[Tuple[Message, int]]:
    """Rebuild (message, arrival) against this shard's app replicas."""
    src, dst, gid, name, payload, bulk, inject_time, arrival = encoded
    app = apps_by_gid.get(gid)
    if app is None:
        return None
    handler = getattr(app, name, None)
    if handler is None or getattr(handler, "__self__", None) is not app:
        return None
    message = Message(dst=dst, handler=handler, payload=payload,
                      src=src, gid=gid, bulk=bulk)
    message.inject_time = inject_time
    return message, arrival


__all__ = ["Encoded", "decode_message", "encode_message"]
