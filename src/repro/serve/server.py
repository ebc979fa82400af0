"""The asyncio query-serving layer: ``EstimatorServer``.

One server owns one :class:`~repro.api.session.Session` and serves
concurrent clients over the line-delimited JSON protocol of
:mod:`repro.serve.protocol`.  The concurrency model keeps queries off
the ingest hot path and makes torn reads impossible by construction:

* **One writer.**  Every mutating operation (``ingest``, ``flush``,
  ``snapshot``, ``checkpoint``, ``reshard``) is submitted to a
  single-thread executor, so session state only ever changes in one
  thread, in request order, while the asyncio loop stays free to
  answer reads.  A bounded semaphore in front of the executor
  backpressures writers that outrun it — waiting, never dropping —
  with the stalls surfaced as the ``backpressure`` stats counter.
* **Immutable views.**  After each mutation the writer thread builds a
  frozen :class:`ServingView` (estimate, element count, memory, a
  monotonically increasing ``seq``) and publishes it with one atomic
  reference assignment.  ``estimate`` and ``stats`` requests read the
  *current view* — never the live session — so a query observes one
  consistent (elements, estimate) pair from a single publish, no
  matter how much ingest is in flight.  A view can be *stale* by at
  most the running mutation; it can never be torn.  The
  concurrent-consistency assertion lives in
  ``benchmarks/bench_serve_queries.py`` and
  ``tests/serve/test_server.py``.
* **Snapshot consistency.**  ``snapshot``/``checkpoint`` run on the
  writer thread too, so they serialise against ingest and capture a
  state at an exact request boundary.

Start one with :func:`serve_in_background` (tests, benchmarks,
embedding) or ``repro serve`` on the CLI (``docs/serving.md``).

>>> from repro.api import open_session
>>> from repro.serve.client import ServeClient
>>> from repro.types import insertion
>>> with serve_in_background(open_session("exact")) as server:
...     with ServeClient(*server.address) as client:
...         _ = client.ingest([insertion(u, v)
...                            for u in ("u1", "u2")
...                            for v in ("v1", "v2")])
...         client.estimate()["estimate"]
1.0
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.api.session import Session
from repro.errors import (
    ReproError,
    ServeError,
    StaleReadError,
    TenancyError,
)
from repro.metrics.tenancy import fair_share
from repro.serve.protocol import (
    MAX_LINE,
    PROTOCOL_VERSION,
    SUPPORTED_CODECS,
    decode_message,
    elements_from_request,
    encode_message,
    error_response,
    result_response,
)
from repro.tenancy.catalog import DEFAULT_TENANT_QUOTA, TenantCatalog

__all__ = [
    "BackgroundServer",
    "EstimatorServer",
    "READ_MODES",
    "ServingView",
    "TENANT_ADMIN_OPS",
    "serve_in_background",
]

#: Operations answered straight from the published view (no executor).
READ_OPS = frozenset({"ping", "estimate", "stats"})

#: Operations serialised through the single writer thread.
WRITE_OPS = frozenset(
    {"ingest", "flush", "snapshot", "checkpoint", "reshard"}
)

#: Default bound on write requests queued for the writer thread.
#: Beyond it new writes *wait* (they are never dropped) and the
#: ``backpressure`` stats counter increments — the signal that ingest
#: is outrunning the writer (e.g. during a reshard pause).
DEFAULT_MAX_PENDING_WRITES = 64

#: How long :meth:`EstimatorServer.aclose` lets open connections finish
#: the requests they already sent before it aborts them.  Only a client
#: that stops reading its responses ever uses it up.
SHUTDOWN_GRACE_S = 5.0

#: Consistency modes a read request may carry (``docs/serving.md``).
#: ``eventual`` answers from whatever view is published;
#: ``read_your_writes`` additionally honours the request's
#: ``min_offset`` — the element offset of the client's last write —
#: and refuses (or, on a follower, waits) rather than serve a view
#: older than it.
READ_MODES = frozenset({"eventual", "read_your_writes"})

#: Catalog-administration operations, available when the server hosts
#: a :class:`~repro.tenancy.catalog.TenantCatalog`.  They mutate the
#: catalog on the writer thread (so they serialise against every
#: tenant write) and are primary-only under replication.
TENANT_ADMIN_OPS = frozenset(
    {
        "create_tenant",
        "drop_tenant",
        "list_tenants",
        "bind_stream",
        "drop_stream",
    }
)


class _OversizedLine(Exception):
    """A request line exceeded MAX_LINE; ``recovered`` says whether the
    rest of the offending line was drained so the connection can keep
    serving."""

    def __init__(self, recovered: bool) -> None:
        super().__init__("request line exceeds the protocol cap")
        self.recovered = recovered


async def _discard_through_newline(reader: asyncio.StreamReader) -> bool:
    """Consume the remainder of an oversized line, newline included.

    Returns True when the line's terminator was found (the connection
    is back on a message boundary), False on EOF.  Pipelined requests
    already buffered behind the newline are preserved.
    """
    while True:
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.IncompleteReadError:
            return False
        except asyncio.LimitOverrunError as exc:
            pending = exc.consumed
            while pending > 0:
                chunk = await reader.read(min(pending, 1 << 16))
                if not chunk:
                    return False
                pending -= len(chunk)


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """Read one ``\\n``-terminated protocol line.

    Returns ``b""`` at EOF (and a trailing unterminated fragment as-is,
    matching ``readline``).  Raises :class:`_OversizedLine` — after
    draining through the offending line's newline — when the line
    exceeds the stream's limit, so the caller can answer with a
    structured error and keep the connection alive.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError:
        raise _OversizedLine(await _discard_through_newline(reader))


@dataclass(frozen=True)
class ServingView:
    """One immutable, atomically published snapshot of serving state.

    Attributes:
        seq: publish sequence number (0 is the pre-ingest state;
            strictly increasing afterwards).
        elements: elements ingested when the view was published.
        estimate: the estimate at publish time.
        memory_edges: sample size at publish time.
        processing_seconds: cumulative estimator processing time.
    """

    seq: int
    elements: int
    estimate: float
    memory_edges: int
    processing_seconds: float
    #: The sharded topology at publish time (None for unsharded
    #: sessions).  Built on the writer thread like every other field,
    #: so a reader can never see a half-switched topology.
    topology: Optional[Dict[str, Any]] = None

    def as_result(self) -> Dict[str, Any]:
        """The view as an ``estimate`` response body."""
        return {
            "seq": self.seq,
            "elements": self.elements,
            "estimate": self.estimate,
        }


class _TenantLane:
    """One tenant's (or shared stream's) fair-share write lane.

    A bounded semaphore enforces the lane's ``max_pending_writes``
    quota — excess writers *wait* (never dropped) and the lane's
    backpressure counter records the stall — while a FIFO queue holds
    admitted writes until the round-robin drainer feeds them, one per
    lane per cycle, to the single writer thread.
    """

    __slots__ = (
        "key", "quota", "slots", "queue", "writes", "backpressure"
    )

    def __init__(self, key: Tuple[str, str], quota: int) -> None:
        self.key = key
        self.quota = quota
        self.slots = asyncio.Semaphore(quota)
        self.queue: Deque[
            Tuple[Callable[[], Dict[str, Any]], "asyncio.Future[Any]"]
        ] = deque()
        self.writes = 0
        self.backpressure = 0


class EstimatorServer:
    """Serve one session's estimates over line-delimited JSON.

    Args:
        session: the session to own (the single-tenant surface).  The
            server becomes the only writer: after :meth:`start`, touch
            the session through the protocol only.  May be None on a
            catalog-only server — then every ingest/estimate/stats
            request must name a tenant or stream.
        host: interface to bind (default loopback).
        port: TCP port; 0 picks a free one (see :attr:`address`).
        max_pending_writes: bound on queued writes before new writers
            wait (see :data:`DEFAULT_MAX_PENDING_WRITES`).
        autoscaler: optional :class:`~repro.shard.Autoscaler`; when
            given, the server periodically feeds it the session's
            sharded engine and applies any split/merge it recommends
            on the writer thread (``docs/resharding.md``).  Requires a
            sharded session.
        autoscale_interval: seconds between autoscaler observations.
        catalog: optional :class:`~repro.tenancy.catalog.TenantCatalog`
            to host.  Requests carrying a ``tenant`` (or ``stream``)
            field route to that tenant's durable session (or shared
            fan-out) through its fair-share lane, and the
            :data:`TENANT_ADMIN_OPS` become available.  Requests with
            no tenant field keep today's single-tenant protocol
            untouched (``docs/multitenancy.md``).
        tenant_quota: default per-tenant ``max_pending_writes`` for
            tenants that declared none at ``create`` time (and for
            shared-stream lanes).  Defaults to the catalog default.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending_writes: int = DEFAULT_MAX_PENDING_WRITES,
        autoscaler: Optional[Any] = None,
        autoscale_interval: float = 2.0,
        *,
        catalog: Optional[TenantCatalog] = None,
        tenant_quota: Optional[int] = None,
    ) -> None:
        if session is None and catalog is None:
            raise ServeError(
                "a server needs a session, a tenant catalog, or both"
            )
        if max_pending_writes < 1:
            raise ServeError(
                f"max_pending_writes must be >= 1, "
                f"got {max_pending_writes}"
            )
        if tenant_quota is not None and tenant_quota < 1:
            raise ServeError(
                f"tenant_quota must be >= 1, got {tenant_quota}"
            )
        if autoscale_interval <= 0:
            raise ServeError(
                f"autoscale_interval must be > 0, "
                f"got {autoscale_interval}"
            )
        if autoscaler is not None and (
            session is None or session.topology is None
        ):
            raise ServeError(
                "autoscaling needs a sharded session "
                "(open it with shards=K)"
            )
        self._session = session
        self._host = host
        self._port = port
        self._server: Optional[asyncio.Server] = None
        self._writer_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-writer"
        )
        self._stopping = asyncio.Event()
        self._closed = False
        self._counters: Dict[str, int] = {}
        #: Open client connections: handler task -> (reader, writer).
        self._clients: Dict["asyncio.Task[None]", tuple] = {}
        self._max_pending_writes = max_pending_writes
        self._write_slots = asyncio.Semaphore(max_pending_writes)
        self._backpressure = 0
        self._autoscaler = autoscaler
        self._autoscale_interval = autoscale_interval
        self._autoscale_task: Optional[asyncio.Task] = None
        self._autoscale_reshards = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._catalog = catalog
        self._tenant_quota = (
            tenant_quota
            if tenant_quota is not None
            else DEFAULT_TENANT_QUOTA
        )
        self._lanes: Dict[Tuple[str, str], _TenantLane] = {}
        self._lane_wake = asyncio.Event()
        self._drain_task: Optional[asyncio.Task] = None
        #: Order the drainer dispatched lane writes, for fairness
        #: tests/telemetry; entries are ``(kind, name)`` lane keys.
        self._fair_trace: List[Tuple[str, str]] = []
        self._tenant_views: Dict[str, ServingView] = {}
        self._stream_views: Dict[str, Dict[str, Any]] = {}
        self._catalog_view: Optional[Dict[str, Any]] = (
            self._build_catalog_view() if catalog is not None else None
        )
        self._view: Optional[ServingView] = (
            self._build_view(0) if session is not None else None
        )

    # ------------------------------------------------------------------
    # The published view
    # ------------------------------------------------------------------
    def _build_view(self, seq: int) -> ServingView:
        session = self._session
        assert session is not None
        return ServingView(
            seq=seq,
            elements=session.elements,
            estimate=session.estimate,
            memory_edges=session.memory_edges,
            processing_seconds=session._processing_seconds,
            topology=session.topology,
        )

    def _publish(self) -> ServingView:
        """Build and atomically publish a fresh view (writer thread)."""
        view = self._build_view(self._view.seq + 1)
        self._view = view
        return view

    @property
    def view(self) -> Optional[ServingView]:
        """The currently published view (None on a catalog-only
        server)."""
        return self._view

    @property
    def session(self) -> Optional[Session]:
        return self._session

    @property
    def catalog(self) -> Optional[TenantCatalog]:
        return self._catalog

    # ------------------------------------------------------------------
    # Tenancy: views, lanes, and the round-robin drainer
    # ------------------------------------------------------------------
    def _build_catalog_view(self) -> Dict[str, Any]:
        """An immutable catalog summary for reads (writer thread)."""
        catalog = self._catalog
        assert catalog is not None
        return {
            "root": str(catalog.root),
            "tenants": {
                name: {
                    "spec": catalog.spec(name),
                    "quota": catalog.quota(name),
                    "stream": catalog.bound_stream(name),
                }
                for name in catalog.names()
            },
            "streams": {
                stream: list(members)
                for stream, members in catalog.streams().items()
            },
        }

    def _publish_tenant(self, name: str, session: Session) -> ServingView:
        """Publish one tenant's fresh view (writer thread)."""
        old = self._tenant_views.get(name)
        view = ServingView(
            seq=old.seq + 1 if old is not None else 1,
            elements=session.elements,
            estimate=session.estimate,
            memory_edges=session.memory_edges,
            processing_seconds=session._processing_seconds,
            topology=session.topology,
        )
        self._tenant_views[name] = view
        return view

    def _publish_stream(self, name: str, fanout: Any) -> Dict[str, Any]:
        """Publish one shared stream's frozen stats (writer thread)."""
        old = self._stream_views.get(name)
        view = dict(fanout.stats())
        view["seq"] = old["seq"] + 1 if old is not None else 1
        self._stream_views[name] = view
        for member in fanout.members:
            self._publish_tenant(member, fanout.session(member))
        return view

    def _require_catalog(self, op: str) -> TenantCatalog:
        if self._catalog is None:
            raise ServeError(
                f"{op!r} needs a tenant catalog but this server hosts "
                "none (start it with repro serve --tenant-root)"
            )
        return self._catalog

    def _target(
        self, request: Dict[str, Any]
    ) -> Optional[Tuple[str, str]]:
        """The request's tenant/stream routing key, validated."""
        tenant = request.get("tenant")
        stream = request.get("stream")
        if tenant is None and stream is None:
            return None
        if tenant is not None and stream is not None:
            raise ServeError(
                "a request may name a tenant or a stream, not both"
            )
        kind, name = (
            ("tenant", tenant) if tenant is not None else ("stream", stream)
        )
        if not isinstance(name, str) or not name:
            raise ServeError(
                f"{kind} must be a non-empty string, got {name!r}"
            )
        self._require_catalog(f"{kind}-scoped request")
        return (kind, name)

    def _lane(self, key: Tuple[str, str]) -> _TenantLane:
        """The target's lane, created on first use with its quota."""
        lane = self._lanes.get(key)
        if lane is not None:
            return lane
        catalog = self._catalog
        assert catalog is not None
        kind, name = key
        if kind == "tenant":
            declared = catalog.declared_quota(name)  # raises if unknown
            quota = declared if declared is not None else self._tenant_quota
        else:
            if name not in catalog.streams():
                raise TenancyError(
                    f"unknown stream {name!r}; bound: "
                    f"{', '.join(sorted(catalog.streams())) or '(none)'}"
                )
            quota = self._tenant_quota
        lane = _TenantLane(key, quota)
        self._lanes[key] = lane
        return lane

    def _retire_lane(self, key: Tuple[str, str]) -> None:
        """Drop a lane, failing whatever it still queued (loop
        thread)."""
        lane = self._lanes.pop(key, None)
        if lane is None:
            return
        kind, name = key
        while lane.queue:
            _fn, future = lane.queue.popleft()
            if not future.done():
                future.set_exception(TenancyError(
                    f"{kind} {name!r} was dropped before this write ran"
                ))

    async def _lane_submit(
        self, key: Tuple[str, str], fn: Callable[[], Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Queue one write on the target's lane and await its result.

        The lane's semaphore is the tenant's ``max_pending_writes``
        quota: a tenant at quota waits here — counted as that lane's
        backpressure — without taking a slot from any other tenant.
        """
        lane = self._lane(key)
        if lane.slots.locked():
            lane.backpressure += 1
        async with lane.slots:
            loop = asyncio.get_running_loop()
            future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
            lane.queue.append((fn, future))
            self._lane_wake.set()
            return await future

    async def _drain_lanes(self) -> None:
        """Feed queued lane writes to the writer thread, round-robin.

        Each cycle serves at most one write from every non-empty lane
        (in sorted key order), so a tenant flooding its own lane cannot
        delay another tenant by more than one in-flight write.
        """
        loop = asyncio.get_running_loop()
        while True:
            await self._lane_wake.wait()
            self._lane_wake.clear()
            while True:
                busy = [
                    key
                    for key in sorted(self._lanes)
                    if self._lanes[key].queue
                ]
                if not busy:
                    break
                for key in busy:
                    lane = self._lanes.get(key)
                    if lane is None or not lane.queue:
                        continue
                    fn, future = lane.queue.popleft()
                    self._fair_trace.append(key)
                    if len(self._fair_trace) > 8192:
                        del self._fair_trace[:4096]
                    lane.writes += 1
                    try:
                        result = await loop.run_in_executor(
                            self._writer_pool, fn
                        )
                    except Exception as exc:  # noqa: BLE001
                        if not future.done():
                            future.set_exception(exc)
                    else:
                        if not future.done():
                            future.set_result(result)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise ServeError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=MAX_LINE,
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._loop = asyncio.get_running_loop()
        if self._catalog is not None:
            self._drain_task = asyncio.create_task(self._drain_lanes())
        if self._autoscaler is not None:
            self._autoscale_task = asyncio.create_task(
                self._autoscale_loop()
            )

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` — the bound port once started."""
        return (self._host, self._port)

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to wind the server down."""
        self._stopping.set()

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_shutdown`, then close."""
        if self._server is None:
            await self.start()
        try:
            await self._stopping.wait()
        finally:
            await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting, end the connections, drain the writer, close
        the session."""
        if self._closed:
            return
        self._closed = True
        if self._autoscale_task is not None:
            self._autoscale_task.cancel()
            try:
                await self._autoscale_task
            except asyncio.CancelledError:
                pass
            self._autoscale_task = None
        if self._server is not None:
            self._server.close()
        await self._end_connections()
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
            self._drain_task = None
        for key in list(self._lanes):
            self._retire_lane(key)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        # Run the (possibly busy) writer dry, then close the session
        # and catalog on it so buffered estimator work lands before we
        # return.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._writer_pool, self._close_owned)
        self._writer_pool.shutdown(wait=True)

    async def _end_connections(self) -> None:
        """Let every open connection finish and its handler return.

        Each connection stops reading from its socket and sees end of
        stream once the requests it already received are served, so an
        idle client is closed at once and a request in flight still
        gets its response.  Connections that have not ended after
        :data:`SHUTDOWN_GRACE_S` are aborted.  Ending the handlers here,
        rather than leaving ``asyncio.run`` to cancel them, keeps the
        loop's teardown free of cancelled-handler tracebacks.
        """
        if not self._clients:
            return
        for reader, writer in self._clients.values():
            writer.transport.pause_reading()
            reader.feed_eof()
        _, late = await asyncio.wait(
            list(self._clients), timeout=SHUTDOWN_GRACE_S
        )
        if late:
            for _, writer in self._clients.values():
                writer.transport.abort()
            await asyncio.wait(late)

    def _close_owned(self) -> None:
        """Close the owned session and catalog (writer thread)."""
        if self._session is not None:
            self._session.close()
        if self._catalog is not None:
            self._catalog.close()

    # ------------------------------------------------------------------
    # Autoscaling
    # ------------------------------------------------------------------
    async def _autoscale_loop(self) -> None:
        """Feed the autoscaler on a timer; reshard when it says so.

        Each observation (and any reshard it triggers) runs on the
        writer thread under a write slot, so it serialises against
        ingest exactly like a client-issued ``reshard`` — readers keep
        the old view until the new topology publishes atomically.
        Policy errors are swallowed: a failed observation must never
        take the serving loop down.
        """
        while not self._closed:
            await asyncio.sleep(self._autoscale_interval)
            try:
                async with self._write_slots:
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(
                        self._writer_pool, self._autoscale_step
                    )
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - keep serving
                continue

    def _autoscale_step(self) -> None:
        """One autoscaler observation (writer thread)."""
        if self._autoscaler is None:
            return
        engine = self._session._sharded_engine()
        if engine is None:
            return
        decision = self._autoscaler.observe(engine)
        if decision.should_reshard:
            self._session.reshard(decision.target_shards)
            self._autoscale_reshards += 1
            self._publish()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if self._closed:
            writer.close()
            return
        task = asyncio.current_task()
        self._clients[task] = (reader, writer)
        try:
            while True:
                try:
                    line = await _read_line(reader)
                except _OversizedLine as oversized:
                    writer.write(encode_message(error_response(
                        None,
                        "ServeError",
                        f"request line exceeds {MAX_LINE} bytes",
                    )))
                    await writer.drain()
                    if not oversized.recovered:
                        return
                    continue
                if not line:
                    return
                if line.strip() == b"":
                    continue
                if not await self._handle_line(line, reader, writer):
                    return
        except (ConnectionResetError, BrokenPipeError):
            return
        finally:
            del self._clients[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_line(
        self,
        line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Serve one request line; False ends the connection.

        The request/response cycle lives in this overridable hook so
        subclasses (the replication primary of
        :mod:`repro.cluster.primary`) can intercept handshakes that
        turn the connection into something other than request/response.
        """
        response = await self._respond(line)
        writer.write(encode_message(response))
        await writer.drain()
        result = response.get("result")
        return not (isinstance(result, dict) and result.get("goodbye"))

    async def _respond(self, line: bytes) -> Dict[str, Any]:
        request_id: Optional[Any] = None
        try:
            request = decode_message(line)
            request_id = request.get("id")
            result = await self._dispatch(request)
            return result_response(request_id, result)
        except ReproError as exc:
            return error_response(request_id, type(exc).__name__, str(exc))
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return error_response(request_id, type(exc).__name__, str(exc))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if not isinstance(op, str):
            raise ServeError("request needs a string 'op' field")
        self._counters[op] = self._counters.get(op, 0) + 1
        target = self._target(request)
        if op in TENANT_ADMIN_OPS:
            self._require_catalog(op)
            async with self._write_slots:
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(
                    self._writer_pool, self._tenant_admin, op, request
                )
        if op in READ_OPS:
            if target is not None and op != "ping":
                return await self._scoped_read(op, target, request)
            return await self._handle_read(op, request)
        if op == "close":
            return {"goodbye": True}
        if op == "shutdown":
            self.request_shutdown()
            return {"stopping": True}
        if op in WRITE_OPS:
            if target is not None:
                return await self._scoped_write(op, target, request)
            if self._session is None:
                raise ServeError(
                    f"this server hosts a tenant catalog only; name a "
                    f"tenant (or stream) on the {op!r} request"
                )
            # Bounded writer queue: when every slot is taken the new
            # write *waits* here (never dropped, never rejected) and
            # the backpressure counter records the stall.  Reads never
            # touch the semaphore, so they stay unblocked throughout.
            if self._write_slots.locked():
                self._backpressure += 1
            async with self._write_slots:
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(
                    self._writer_pool, self._write, op, request
                )
        raise ServeError(
            f"unknown operation {op!r}; supported: "
            f"{', '.join(sorted(READ_OPS | WRITE_OPS | TENANT_ADMIN_OPS))}"
            ", close, shutdown"
        )

    async def _handle_read(
        self, op: str, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Answer one read, honouring the request's consistency mode.

        On a single node ``read_your_writes`` can only fail when the
        watermark belongs to state this server never had (a client
        carrying an offset across a failover to a stale node) — then
        refusing with :class:`~repro.errors.StaleReadError` is the
        safe answer.  The follower of :mod:`repro.cluster.follower`
        overrides this to *wait* for replication to apply the offset
        instead.
        """
        self._check_freshness(op, request)
        return self._read(op, request)

    def _min_offset(self, request: Dict[str, Any]) -> Optional[int]:
        """The read-your-writes watermark of a request, validated."""
        mode = request.get("read_mode", "eventual")
        if mode not in READ_MODES:
            raise ServeError(
                f"unknown read_mode {mode!r}; supported: "
                f"{', '.join(sorted(READ_MODES))}"
            )
        if mode != "read_your_writes":
            return None
        min_offset = request.get("min_offset")
        if min_offset is None:
            return None
        if not isinstance(min_offset, int) or min_offset < 0:
            raise ServeError(
                f"min_offset must be a non-negative element offset, "
                f"got {min_offset!r}"
            )
        return min_offset

    def _check_freshness(self, op: str, request: Dict[str, Any]) -> None:
        if op == "ping":
            return
        min_offset = self._min_offset(request)
        elements = self._view.elements if self._view is not None else 0
        if min_offset is not None and elements < min_offset:
            raise StaleReadError(
                f"view covers {elements} elements but the "
                f"client's last write is at offset {min_offset}"
            )

    def _read(self, op: str, request: Dict[str, Any]) -> Dict[str, Any]:
        view = self._view  # one atomic reference read — never torn
        if op == "ping":
            return {
                "pong": True,
                "version": PROTOCOL_VERSION,
                "codecs": list(SUPPORTED_CODECS),
            }
        if op == "estimate":
            if view is None:
                raise ServeError(
                    "this server hosts a tenant catalog only; name a "
                    "tenant (or stream) on the 'estimate' request"
                )
            return view.as_result()
        session = self._session
        spec = session.spec if session is not None else None
        result = {
            "seq": view.seq if view is not None else 0,
            "elements": view.elements if view is not None else 0,
            "estimate": view.estimate if view is not None else None,
            "memory_edges": view.memory_edges if view is not None else 0,
            "processing_seconds": (
                view.processing_seconds if view is not None else 0.0
            ),
            "topology": view.topology if view is not None else None,
            "spec": spec.to_string() if spec else None,
            "durable": session.durable if session is not None else False,
            "durability": (
                session.durability if session is not None else None
            ),
            "connections": len(self._clients),
            "operations": dict(self._counters),
            "backpressure": self._backpressure,
            "max_pending_writes": self._max_pending_writes,
            "autoscaling": self._autoscaler is not None,
            "autoscale_reshards": self._autoscale_reshards,
        }
        if self._catalog is not None:
            result.update(self._catalog_stats())
        return result

    def _catalog_stats(self) -> Dict[str, Any]:
        """The multi-tenant additions to an untenanted ``stats`` read.

        Only present when a catalog is hosted, so tenant-less servers
        keep the exact pre-tenancy response shape.
        """
        catalog_view = self._catalog_view or {
            "root": None, "tenants": {}, "streams": {},
        }
        tenants: Dict[str, Any] = {}
        for name, entry in catalog_view["tenants"].items():
            lane = self._lanes.get(("tenant", name))
            tenants[name] = {
                "spec": entry["spec"],
                "stream": entry["stream"],
                "writes": lane.writes if lane is not None else 0,
                "backpressure": (
                    lane.backpressure if lane is not None else 0
                ),
                "max_pending_writes": (
                    lane.quota if lane is not None else entry["quota"]
                ),
            }
        streams: Dict[str, Any] = {}
        for name, members in catalog_view["streams"].items():
            lane = self._lanes.get(("stream", name))
            streams[name] = {
                "members": list(members),
                "writes": lane.writes if lane is not None else 0,
                "backpressure": (
                    lane.backpressure if lane is not None else 0
                ),
                "max_pending_writes": (
                    lane.quota
                    if lane is not None
                    else self._tenant_quota
                ),
            }
        shares = {
            name: entry["writes"] for name, entry in tenants.items()
        }
        shares.update({
            f"stream:{name}": entry["writes"]
            for name, entry in streams.items()
        })
        return {
            "catalog": catalog_view,
            "tenants": tenants,
            "streams": streams,
            "fairness": fair_share(shares).as_dict(),
        }

    # ------------------------------------------------------------------
    # Tenant-scoped requests
    # ------------------------------------------------------------------
    async def _scoped_read(
        self, op: str, target: Tuple[str, str], request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Answer a tenant/stream read from its published view.

        A target that was never written through this server has no
        view yet; the first read pays one lane round-trip to open it
        on the writer thread and publish its recovered state.
        """
        kind, name = target
        if (
            name not in self._tenant_views
            if kind == "tenant"
            else name not in self._stream_views
        ):
            await self._lane_submit(
                target, lambda: self._touch_target(target)
            )
        min_offset = self._min_offset(request)
        if kind == "stream":
            view = self._stream_views.get(name)
            if view is None:
                raise TenancyError(
                    f"stream {name!r} disappeared while reading it"
                )
            if min_offset is not None and view["elements"] < min_offset:
                raise StaleReadError(
                    f"stream {name!r} view covers {view['elements']} "
                    f"elements but the client's last write is at "
                    f"offset {min_offset}"
                )
            if op == "estimate":
                return {
                    "stream": name,
                    "seq": view["seq"],
                    "elements": view["elements"],
                    "estimates": {
                        member: entry["estimate"]
                        for member, entry in view["members"].items()
                    },
                }
            result = dict(view)
            result["stream"] = name
            lane = self._lanes.get(target)
            if lane is not None:
                result["writes"] = lane.writes
                result["backpressure"] = lane.backpressure
                result["max_pending_writes"] = lane.quota
            return result
        tenant_view = self._tenant_views.get(name)
        if tenant_view is None:
            raise TenancyError(
                f"tenant {name!r} disappeared while reading it"
            )
        if (
            min_offset is not None
            and tenant_view.elements < min_offset
        ):
            raise StaleReadError(
                f"tenant {name!r} view covers {tenant_view.elements} "
                f"elements but the client's last write is at offset "
                f"{min_offset}"
            )
        if op == "estimate":
            result = tenant_view.as_result()
            result["tenant"] = name
            return result
        catalog_view = self._catalog_view or {"tenants": {}}
        entry = catalog_view["tenants"].get(name, {})
        lane = self._lanes.get(target)
        return {
            "tenant": name,
            "seq": tenant_view.seq,
            "elements": tenant_view.elements,
            "estimate": tenant_view.estimate,
            "memory_edges": tenant_view.memory_edges,
            "processing_seconds": tenant_view.processing_seconds,
            "spec": entry.get("spec"),
            "stream": entry.get("stream"),
            "writes": lane.writes if lane is not None else 0,
            "backpressure": lane.backpressure if lane is not None else 0,
            "max_pending_writes": (
                lane.quota if lane is not None else entry.get("quota")
            ),
        }

    async def _scoped_write(
        self, op: str, target: Tuple[str, str], request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Route a tenant/stream write through its fair-share lane."""
        kind, name = target
        if op == "reshard":
            raise ServeError(
                "reshard is not supported per tenant; reshard the "
                "server's own session instead"
            )
        if kind == "tenant":
            return await self._lane_submit(
                target, lambda: self._tenant_write(op, name, request)
            )
        return await self._lane_submit(
            target, lambda: self._stream_write(op, name, request)
        )

    def _touch_target(self, target: Tuple[str, str]) -> Dict[str, Any]:
        """Open a never-yet-served target and publish its view
        (writer thread)."""
        catalog = self._catalog
        assert catalog is not None
        kind, name = target
        if kind == "stream":
            view = self._publish_stream(name, catalog.open_stream(name))
            return {"stream": name, "elements": view["elements"]}
        bound = catalog.bound_stream(name)
        if bound is not None:
            fanout = catalog.open_stream(bound)
            view = self._publish_tenant(name, fanout.session(name))
        else:
            view = self._publish_tenant(name, catalog.session(name))
        return {"tenant": name, "elements": view.elements}

    def _tenant_write(
        self, op: str, name: str, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Apply one tenant-scoped mutation (writer thread)."""
        catalog = self._catalog
        assert catalog is not None
        session = catalog.session(name)
        if op == "ingest":
            elements = elements_from_request(request)
            delta = session.ingest(elements)
            view = self._publish_tenant(name, session)
            return {
                "tenant": name,
                "accepted": len(elements),
                "delta": delta,
                "seq": view.seq,
                "elements": view.elements,
                "estimate": view.estimate,
            }
        if op == "flush":
            delta = session.flush()
            view = self._publish_tenant(name, session)
            return {"tenant": name, "delta": delta, "seq": view.seq}
        if op == "snapshot":
            return {"tenant": name, "snapshot": session.snapshot()}
        # checkpoint
        offset = session.checkpoint()
        self._publish_tenant(name, session)
        return {"tenant": name, "offset": offset}

    def _stream_write(
        self, op: str, name: str, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Apply one shared-stream mutation (writer thread)."""
        catalog = self._catalog
        assert catalog is not None
        fanout = catalog.open_stream(name)
        if op == "ingest":
            elements = elements_from_request(request)
            fanout.ingest(elements)
            view = self._publish_stream(name, fanout)
            return {
                "stream": name,
                "accepted": len(elements),
                "seq": view["seq"],
                "elements": view["elements"],
                "estimates": {
                    member: entry["estimate"]
                    for member, entry in view["members"].items()
                },
            }
        if op == "flush":
            fanout.flush()
            view = self._publish_stream(name, fanout)
            return {"stream": name, "seq": view["seq"]}
        if op == "snapshot":
            raise ServeError(
                "snapshot is not supported per stream; checkpoint the "
                "stream instead (one envelope covers every member)"
            )
        # checkpoint
        offset = fanout.checkpoint()
        self._publish_stream(name, fanout)
        return {"stream": name, "offset": offset}

    def _tenant_admin(
        self, op: str, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Apply one catalog-administration op (writer thread)."""
        catalog = self._catalog
        assert catalog is not None
        if op == "list_tenants":
            view = self._build_catalog_view()
            self._catalog_view = view
            return {
                "tenants": [
                    {"name": name, **entry}
                    for name, entry in view["tenants"].items()
                ],
                "streams": view["streams"],
            }
        if op == "create_tenant":
            name = self._required_str(request, "name")
            spec = self._required_str(request, "spec")
            quota = request.get("quota")
            catalog.create(name, spec, quota=quota)
            self._catalog_view = self._build_catalog_view()
            return {
                "tenant": name,
                "spec": catalog.spec(name),
                "quota": catalog.quota(name),
            }
        if op == "drop_tenant":
            name = self._required_str(request, "name")
            catalog.drop(name)
            self._tenant_views.pop(name, None)
            self._retire_lane_threadsafe(("tenant", name))
            self._catalog_view = self._build_catalog_view()
            return {"dropped": name, "tenants": list(catalog.names())}
        if op == "bind_stream":
            stream = self._required_str(request, "name")
            tenants = request.get("tenants")
            if not isinstance(tenants, list) or not all(
                isinstance(member, str) for member in tenants
            ):
                raise ServeError(
                    "bind_stream needs a 'tenants' list of tenant "
                    f"names, got {tenants!r}"
                )
            fanout = catalog.bind_stream(stream, tenants)
            self._publish_stream(stream, fanout)
            self._catalog_view = self._build_catalog_view()
            return {"stream": stream, "members": sorted(fanout.members)}
        # drop_stream
        stream = self._required_str(request, "name")
        catalog.drop_stream(stream)
        self._stream_views.pop(stream, None)
        self._retire_lane_threadsafe(("stream", stream))
        self._catalog_view = self._build_catalog_view()
        return {"dropped": stream, "streams": list(catalog.streams())}

    def _retire_lane_threadsafe(self, key: Tuple[str, str]) -> None:
        """Schedule a lane retirement onto the event loop.

        Admin ops run on the writer thread, but lanes (their queues
        and futures) belong to the loop thread — mutating them here
        would race the drainer.
        """
        loop = getattr(self, "_loop", None)
        if loop is None:
            self._retire_lane(key)
            return
        loop.call_soon_threadsafe(self._retire_lane, key)

    @staticmethod
    def _required_str(request: Dict[str, Any], field: str) -> str:
        value = request.get(field)
        if not isinstance(value, str) or not value:
            raise ServeError(
                f"this operation needs a non-empty string {field!r} "
                f"field, got {value!r}"
            )
        return value

    def _write(self, op: str, request: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one mutating operation (single writer thread)."""
        session = self._session
        if op == "ingest":
            elements = elements_from_request(request)
            return self._apply_ingest(elements)
        if op == "flush":
            delta = session.flush()
            view = self._publish()
            return {"delta": delta, "seq": view.seq}
        if op == "snapshot":
            return {"snapshot": session.snapshot()}
        if op == "reshard":
            return self._apply_reshard(request)
        # checkpoint
        offset = session.checkpoint()
        self._publish()
        return {"offset": offset}

    def _apply_reshard(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Reshard the session live (writer thread).

        Reads keep answering from the pre-reshard view for the whole
        transition; the post-reshard view (new topology included)
        publishes in one atomic assignment afterwards.
        """
        shards = request.get("shards")
        if not isinstance(shards, int) or isinstance(shards, bool):
            raise ServeError(
                f"reshard needs an integer 'shards' field, got {shards!r}"
            )
        salt = request.get("salt")
        if salt is not None and (
            not isinstance(salt, int) or isinstance(salt, bool)
        ):
            raise ServeError(f"salt must be an integer, got {salt!r}")
        report = self._session.reshard(
            shards,
            backend=request.get("backend"),
            partitioner=request.get("partitioner"),
            salt=salt,
        )
        view = self._publish()
        return {
            "old_shards": report.old_shards,
            "shards": report.new_shards,
            "epoch": report.epoch,
            "replayed_edges": report.replayed_edges,
            "moved_edges": report.moved_edges,
            "backend": report.backend,
            "seconds": report.seconds,
            "seq": view.seq,
            "topology": view.topology,
        }

    def _apply_ingest(self, elements: list) -> Dict[str, Any]:
        """Ingest one decoded batch and publish (writer thread).

        The replication primary overrides this to additionally fan the
        batch out to its followers after the session applied it.  The
        result's ``elements`` doubles as the client's read-your-writes
        watermark: the global element offset its write reached.
        """
        delta = self._session.ingest(elements)
        view = self._publish()
        return {
            "accepted": len(elements),
            "delta": delta,
            "seq": view.seq,
            "elements": view.elements,
            "estimate": view.estimate,
        }


class BackgroundServer:
    """An :class:`EstimatorServer` running on a private loop thread.

    Returned by :func:`serve_in_background`; use as a context manager
    or call :meth:`stop` explicitly.  ``address`` is the bound
    ``(host, port)``.
    """

    def __init__(
        self,
        server: EstimatorServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self._server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.address

    @property
    def server(self) -> EstimatorServer:
        return self._server

    def stop(self, timeout: float = 30.0) -> None:
        """Shut the server down and join its thread."""
        if not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._server.request_shutdown)
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise ServeError("serving thread failed to stop in time")

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()


def serve_in_background(
    session: Optional[Session],
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    server_factory: Any = None,
) -> BackgroundServer:
    """Start an :class:`EstimatorServer` on a daemon loop thread.

    Blocks until the server is bound (so ``.address`` is final), then
    returns a :class:`BackgroundServer` handle.  Stopping the handle
    closes the session.  ``server_factory`` swaps in a subclass — it
    is called as ``factory(session, host=host, port=port)``, which is
    how the cluster layer hosts its replication primary and followers
    on the same daemon-loop machinery, and how the CLI hosts a tenant
    catalog (``session`` may be None when the factory supplies a
    catalog instead).
    """
    started = threading.Event()
    holder: Dict[str, Any] = {}
    factory = server_factory if server_factory is not None else EstimatorServer

    async def _main() -> None:
        server = factory(session, host=host, port=port)
        await server.start()
        holder["server"] = server
        holder["loop"] = asyncio.get_running_loop()
        started.set()
        await server.serve_forever()

    def _run() -> None:
        try:
            asyncio.run(_main())
        except Exception as exc:  # pragma: no cover - startup failures
            holder["error"] = exc
            started.set()

    thread = threading.Thread(
        target=_run, name="repro-serve-loop", daemon=True
    )
    thread.start()
    started.wait()
    if "error" in holder:
        raise ServeError(
            f"serving loop failed to start: {holder['error']}"
        ) from holder["error"]
    return BackgroundServer(holder["server"], holder["loop"], thread)
