"""Traced runs: spans around each layer's entry points, added from outside.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces
entry points of the layers (``api.session``, ``core.abacus``,
``core.parabacus``, ``core.counting``, ``sampling`` and ``store``) with
timing wrappers for the length of a traced run, and
:meth:`Tracer.uninstall` puts the originals back.  In the server process
the benchmark's launcher (``perfbench/serve_traced.py``) calls
:func:`install_server`, which adds the ``serve`` layer, before calling
the CLI's ``main``.

Two kinds of span keep the overhead bounded:

* *recorded* spans — one per call at coarse boundaries (an ingest
  request, a ``Session.ingest`` chunk, a WAL append, a mini-batch) —
  keep name, start, end, parent span and request id in memory until
  :meth:`Tracer.dump` writes them once, at the end;
* *leaf* spans — the per-element kernels (counting, sampler, mirror,
  versioned sample) — are summed per ``(phase, name, parent name)`` as
  they end, and their durations are charged to the enclosing span, so
  self times stay exact without one record per element.

The current span travels in a ``ContextVar``, so the server's
interleaved connection tasks and its writer thread each nest their own
spans.  Spans opened during durable recovery carry the ``setup`` phase.
"""

from __future__ import annotations

import contextvars
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence

from perfbench.stats import self_time

#: Layer -> the span names whose self time it owns.
LAYERS = {
    "session": ("session.ingest",),
    "abacus": ("abacus.process_batch",),
    "parabacus": ("parabacus.process_batch", "parabacus.minibatch"),
    "counting": (
        "counting.scalar",
        "counting.degree_sum",
        "counting.mirror",
        "counting.versioned",
    ),
    "sampling": (
        "sampler.process",
        "mirror.sync",
        "mirror.apply",
        "versioned.neighbors_at",
    ),
    "store": ("store.append", "store.fsync"),
    "serve": (
        "server.request",
        "protocol.decode",
        "server.admission_wait",
        "server.writer_wait",
        "server.write",
        "protocol.elements",
        "server.publish",
        "server.read",
    ),
}

#: The phase of everything outside durable recovery.
RUN = "run"
#: The phase of spans inside durable-session recovery (server set-up).
SETUP = "setup"

_COUNTING = ("counting.scalar", "counting.mirror", "counting.versioned")


class Tracer:
    """Span recorder plus the wrappers that feed it.

    A span is a list ``[name, start, end, parent, rid, leaf_time,
    phase]``; ``leaf_time`` accumulates the durations of unrecorded
    children.  ``rid`` is the request id: the chunk index in-process
    (set through :attr:`rid`), the wire ``id`` on the server.
    """

    def __init__(self) -> None:
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self.spans: List[list] = []
        #: (phase, name, parent name) -> [calls, total_s, self_s, count]
        self.leaves: Dict[tuple, list] = {}
        self.phase = RUN
        self.rid: Any = None
        self.session: Any = None
        self._undo: List[tuple] = []
        self._pending: Dict[int, list] = {}
        self._admitted: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Span primitives
    # ------------------------------------------------------------------
    def open(self, name: str, parent: Optional[list]) -> list:
        """A new span under ``parent``; the caller sets start and end."""
        rid = self.rid if parent is None else parent[4]
        return [name, 0.0, 0.0, parent, rid, 0.0, self.phase]

    def interval(
        self, name: str, start: float, end: float, parent: Optional[list]
    ) -> None:
        """Record a span that no single call covers (a wait)."""
        span = self.open(name, parent)
        span[1], span[2] = start, end
        self.spans.append(span)

    def recorded(self, name: str, fn: Callable) -> Callable:
        current, spans, clock = self.current, self.spans, time.perf_counter
        opener = self.open

        def wrapper(*args, **kwargs):
            span = opener(name, current.get())
            token = current.set(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                current.reset(token)
                spans.append(span)

        return wrapper

    def recorded_async(self, name: str, fn: Callable) -> Callable:
        current, spans, clock = self.current, self.spans, time.perf_counter
        opener = self.open

        async def wrapper(*args, **kwargs):
            span = opener(name, current.get())
            token = current.set(span)
            span[1] = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                span[2] = clock()
                current.reset(token)
                spans.append(span)

        return wrapper

    def leaf(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[[Any], int]] = None,
    ) -> Callable:
        """Wrap a per-element kernel; ``count(result)`` feeds the
        stat's fourth slot (butterfly hits, sample mutations)."""
        current, leaves, clock = self.current, self.leaves, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = current.get()
            frame = [name, 0.0, 0.0, parent, None, 0.0, None]
            token = current.set(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                current.reset(token)
                parent_name = parent[0] if parent is not None else None
                key = (tracer.phase, name, parent_name)
                stat = leaves.get(key)
                if stat is None:
                    stat = leaves[key] = [0, 0.0, 0.0, 0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[5]
                if parent is not None:
                    parent[5] += duration
            if count is not None:
                stat[3] += count(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self, **facts: Any) -> Dict[str, Any]:
        """Spans with parent indices, leaf sums, and caller facts."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [name, start, end, index.get(id(parent)), rid, leaf, phase]
            for name, start, end, parent, rid, leaf, phase in self.spans
        ]
        leaves = [[*key, *stat] for key, stat in self.leaves.items()]
        return {"spans": rows, "leaves": leaves, "facts": facts}

    def dump(self, path: str, **facts: Any) -> Dict[str, Any]:
        """Write :meth:`export` as JSON (once, at the end of a run)."""
        exported = self.export(**facts)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(exported, handle)
        return exported


def _hits(result: tuple) -> int:
    """1 when a counting kernel's ``(count, work)`` found a butterfly."""
    return 1 if result[0] else 0


def install(tracer: Tracer) -> None:
    """Wrap the in-process layers: session, estimators, kernels, store."""
    import repro.api.session as session_module
    import repro.core.abacus as abacus_module
    import repro.core.counting as counting_module
    import repro.core.parabacus as parabacus_module
    from repro.sampling.adjacency_sample import GraphSample
    from repro.sampling.ndadjacency import NdAdjacency
    from repro.sampling.random_pairing import RandomPairing
    from repro.sampling.versioned import VersionedGraphSample
    from repro.store.durable import DurableStore
    from repro.store.wal import WalWriter

    Abacus, Parabacus = abacus_module.Abacus, parabacus_module.Parabacus
    opened = tracer.recorded("recovery.open", session_module._open_durable)

    def recovering(*args, **kwargs):
        tracer.phase = SETUP
        try:
            return opened(*args, **kwargs)
        finally:
            tracer.phase = RUN

    tracer.patch(session_module, "_open_durable", recovering)
    for owner, attr, name in (
        (session_module.Session, "ingest", "session.ingest"),
        (Abacus, "process_batch", "abacus.process_batch"),
        (Parabacus, "process_batch", "parabacus.process_batch"),
        (Parabacus, "run_minibatch", "parabacus.minibatch"),
        (DurableStore, "append_batch", "store.append"),
        (DurableStore, "recover", "recovery.recover"),
    ):
        wrapper = tracer.recorded(name, owner.__dict__[attr])
        tracer.patch(owner, attr, wrapper)
    for owner, attr, name, count in (
        (abacus_module, "count_with_sample", "counting.scalar", _hits),
        (counting_module, "count_with_sample", "counting.scalar", _hits),
        (abacus_module, "count_with_mirror", "counting.mirror", _hits),
        (
            parabacus_module,
            "count_with_versioned_sample",
            "counting.versioned",
            _hits,
        ),
        (GraphSample, "degree_sum", "counting.degree_sum", None),
        (RandomPairing, "process", "sampler.process", len),
        (NdAdjacency, "sync", "mirror.sync", None),
        (NdAdjacency, "apply", "mirror.apply", None),
        (VersionedGraphSample, "neighbors_at", "versioned.neighbors_at", None),
        (WalWriter, "_barrier", "store.fsync", None),
    ):
        wrapper = tracer.leaf(name, owner.__dict__[attr], count)
        tracer.patch(owner, attr, wrapper)


class _TimedSlots:
    """The server's write-admission semaphore, timing each wait."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def locked(self) -> bool:
        return self._inner.locked()

    async def __aenter__(self) -> None:
        tracer = self._tracer
        start = time.perf_counter()
        await self._inner.acquire()
        end = time.perf_counter()
        root = tracer.current.get()
        tracer.interval("server.admission_wait", start, end, root)
        if root is not None:
            tracer._admitted[id(root)] = end

    async def __aexit__(self, *_exc: object) -> None:
        self._inner.release()


def install_server(tracer: Tracer) -> None:
    """:func:`install` plus the serving layer's request path.

    The ``server.request`` span covers one request line from dispatch to
    its response written; its children are the decode, the admission
    wait, the wait from admission to the writer thread starting, the
    write itself (on the writer thread) and reads.
    """
    import repro.serve.server as server_module

    install(tracer)
    Server = server_module.EstimatorServer
    current, spans, clock = tracer.current, tracer.spans, time.perf_counter
    init = Server.__dict__["__init__"]
    decode = server_module.decode_message
    write = Server.__dict__["_write"]

    def server_init(self, session=None, *args, **kwargs):
        init(self, session, *args, **kwargs)
        tracer.session = session
        self._write_slots = _TimedSlots(self._write_slots, tracer)

    def decode_message(line):
        span = tracer.open("protocol.decode", current.get())
        span[1] = clock()
        try:
            message = decode(line)
        finally:
            span[2] = clock()
            spans.append(span)
        root = span[3]
        if root is not None and isinstance(message, dict):
            root[4] = span[4] = message.get("id")
            if message.get("op") in server_module.WRITE_OPS:
                tracer._pending[id(message)] = root
        return message

    def server_write(self, op, request):
        start = clock()
        root = tracer._pending.pop(id(request), None)
        admitted = tracer._admitted.pop(id(root), None)
        if admitted is not None:
            tracer.interval("server.writer_wait", admitted, start, root)
        span = tracer.open("server.write", root)
        span[1] = start
        token = current.set(span)
        try:
            return write(self, op, request)
        finally:
            span[2] = clock()
            current.reset(token)
            spans.append(span)

    handle_line = Server.__dict__["_handle_line"]
    tracer.patch(Server, "__init__", server_init)
    tracer.patch(server_module, "decode_message", decode_message)
    tracer.patch(Server, "_write", server_write)
    tracer.patch(
        Server,
        "_handle_line",
        tracer.recorded_async("server.request", handle_line),
    )
    for owner, attr, name in (
        (server_module, "elements_from_request", "protocol.elements"),
        (Server, "_publish", "server.publish"),
        (Server, "_read", "server.read"),
    ):
        wrapper = tracer.recorded(name, owner.__dict__[attr])
        tracer.patch(owner, attr, wrapper)


def _entry() -> Dict[str, float]:
    return {
        "calls": 0,
        "self_s": 0.0,
        "total_s": 0.0,
        "count": 0,
        "top_calls": 0,
        "top_count": 0,
    }


def self_times(
    exports: Sequence[Dict[str, Any]], phase: str = RUN
) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``total_s`` in ``phase``.

    Recorded spans get their self time from :func:`self_time` over
    their recorded children (which may run on another thread) plus the
    leaf time charged to them; leaf spans carry theirs already.  Also
    sums the leaves' ``count`` and, for counting kernels, the top-level
    ``top_calls``/``top_count`` (a mirror call that falls back to the
    scalar kernel is one counting call, not two).
    """
    out: Dict[str, Dict[str, float]] = defaultdict(_entry)
    for exported in exports:
        rows, leaves = exported["spans"], exported["leaves"]
        children: Dict[int, list] = defaultdict(list)
        for _name, start, end, parent, _rid, _leaf, _phase in rows:
            if parent is not None:
                children[parent].append((start, end))
        for i, (name, start, end, _, _, leaf, span_phase) in enumerate(rows):
            if span_phase == phase:
                entry = out[name]
                entry["calls"] += 1
                entry["total_s"] += end - start
                entry["self_s"] += self_time(start, end, children[i], leaf)
        for span_phase, name, parent, calls, total, own, count in leaves:
            if span_phase != phase:
                continue
            entry = out[name]
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += own
            entry["count"] += count
            if parent not in _COUNTING:
                entry["top_calls"] += calls
                entry["top_count"] += count
    return out
