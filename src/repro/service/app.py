"""`repro.service` — async routing-as-a-service over the plan cache.

The paper's workloads are fixed permutations: plan once, replay many.
:class:`RoutingService` turns that economics into a serving architecture —
a long-lived asyncio HTTP service whose serving tier *is* the
content-addressed plan cache (:mod:`repro.sim.plancache`):

* **warm** requests are answered by the event loop itself from the shared
  in-process LRU tier (falling back to the on-disk tier, which also warms
  the LRU) — no process hop, no arbitration.  A seeded request's plan key
  comes from a bounded memo (:class:`~repro.service.jobs.PlanKeyMemo`)
  held next to that tier, so a warm hit neither rebuilds its demands nor
  hashes them: it is parse, validate, memo lookup, ``cache.get``, encode;
* **cold** requests dispatch the word-level engine run to a bounded
  kill-on-timeout worker pool (:mod:`repro.service.pool`); the worker
  records the plan blob to the shared on-disk tier and the response
  carries the digest every later request replays;
* concurrent **identical** requests are coalesced: one in-flight
  computation per :class:`~repro.sim.plancache.PlanKey` digest, every
  waiter piggybacks on its result (single-flight; the cache's
  ``coalesced`` / ``inflight`` counters account for it).

Endpoints are registered in :data:`ENDPOINTS` — the table in
``docs/API.md`` is generated from it and drift-checked by
``tools/check_docs.py``.  Request/cache/pool metrics flow through
:mod:`repro.obs` (``service.request`` events plus ``counter`` exports), so
``repro trace``-style tooling reads service traffic the same way it reads
engine traffic; ``GET /v1/stats`` also carries per-source latency
histograms (:class:`LatencyHistogram`).
"""

from __future__ import annotations

import asyncio
import time
from bisect import bisect_left
from typing import Mapping

from ..sim.plancache import PlanCache
from .http import ProtocolError, Request, json_response, read_request
from .jobs import (
    ROUTE_STATS,
    PlanKeyMemo,
    RouteRequest,
    ValidationError,
    execute_route,
)
from .pool import JobCrashed, JobFailed, JobTimeout, WorkerPool

__all__ = ["ENDPOINTS", "LATENCY_EDGES_MS", "LatencyHistogram", "RoutingService"]

#: The service's public surface: (method, path, name, description).
#: docs/API.md renders its endpoint table from exactly this tuple
#: (``tools/check_docs.py --write``).
ENDPOINTS = (
    (
        "POST",
        "/v1/route",
        "route",
        "Submit a routing job (topology + demands/workload + arbitration + "
        "optional fault config); returns the plan digest, routing stats, "
        "and whether it was served `warm`, `cold`, or `coalesced`.",
    ),
    (
        "GET",
        "/v1/plans/{digest}",
        "plan",
        "Fetch a recorded plan by content digest: its key, recorded stats, "
        "step count, and blob size.",
    ),
    (
        "GET",
        "/v1/stats",
        "stats",
        "Service, worker-pool, and plan-cache counters (per-process and "
        "cross-process disk-tier totals), disk-tier inventory, and "
        "per-source (warm, cold, coalesced) latency histograms.",
    ),
    (
        "GET",
        "/v1/healthz",
        "healthz",
        "Liveness: ok flag, uptime, draining flag, in-flight computations.",
    ),
)

#: Default per-request wall-clock budget for a cold plan computation.
DEFAULT_TIMEOUT = 60.0

#: Upper bucket edges (ms) of the ``/v1/stats`` latency histograms: four
#: per decade from 10 us to 100 s, plus an overflow bucket past the last.
LATENCY_EDGES_MS = tuple(round(10.0 ** (k / 4), 4) for k in range(-8, 21))


class LatencyHistogram:
    """Response latencies on the fixed :data:`LATENCY_EDGES_MS` buckets.

    ``buckets[i]`` counts latencies in ``(edges[i-1], edges[i]]``; the last
    bucket counts those past the final edge.  Recording is one ``bisect``.
    """

    def __init__(self):
        self.buckets = [0] * (len(LATENCY_EDGES_MS) + 1)
        self.count = 0
        self.total_ms = 0.0

    def record(self, seconds: float) -> None:
        ms = seconds * 1e3
        self.buckets[bisect_left(LATENCY_EDGES_MS, ms)] += 1
        self.count += 1
        self.total_ms += ms

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum_ms": round(self.total_ms, 3),
            "buckets": list(self.buckets),
        }


class RoutingService:
    """The asyncio HTTP routing service.

    Parameters
    ----------
    plan_root:
        Directory of the shared on-disk plan tier (the serving tier);
        workers record blobs here, the event loop replays them.
    max_workers:
        Bounded concurrency of cold plan computations.
    capacity:
        Entries held by the in-process warm LRU tier, and by the memo of
        seeded requests' plan keys kept next to it.
    default_timeout:
        Per-request budget (seconds) when the job names none; on expiry
        the worker is killed and the client gets HTTP 504.
    tracer:
        Optional :class:`repro.obs.Tracer`; when given, every completed
        request emits a ``service.request`` event.
    """

    def __init__(
        self,
        plan_root: str = "results/plans",
        *,
        max_workers: int = 2,
        capacity: int = 256,
        default_timeout: float = DEFAULT_TIMEOUT,
        tracer=None,
        start_method: str | None = None,
    ):
        self.cache = PlanCache(plan_root, capacity=capacity)
        self.keys = PlanKeyMemo(capacity)
        self.pool = WorkerPool(max_workers, start_method=start_method)
        self.default_timeout = float(default_timeout)
        self.tracer = tracer
        self._server: asyncio.AbstractServer | None = None
        self._inflight: dict[str, asyncio.Task] = {}
        self._handlers: set[asyncio.Task] = set()
        self._draining = False
        self._started = time.monotonic()
        self.host: str | None = None
        self.port: int | None = None
        # Response accounting (counters() documents the names).
        self.requests = 0
        self.routes = 0
        self.warm = 0
        self.cold = 0
        self.coalesced = 0
        self.computations = 0
        self.rejected = 0
        self.timeouts = 0
        self.unroutable = 0
        self.failed = 0
        # Latency of the 200 responses each serving path gave.
        self.latency = {
            source: LatencyHistogram() for source in ("warm", "cold", "coalesced")
        }

    # ----------------------------------------------------------- lifecycle
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving; ``port=0`` picks an ephemeral port."""
        self._server = await asyncio.start_server(self._on_connection, host, port)
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self._started = time.monotonic()

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("start() the service first")
        await self._server.serve_forever()

    async def shutdown(self, *, drain_timeout: float = 30.0) -> None:
        """Graceful stop: refuse new work, drain in-flight requests.

        The listening socket closes immediately; route submissions arriving
        on already-accepted connections are answered 503; every request
        already past admission runs to completion (bounded by
        ``drain_timeout``) before the pool is abandoned.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = {t for t in self._handlers if not t.done()}
        if pending:
            await asyncio.wait(pending, timeout=drain_timeout)

    @property
    def draining(self) -> bool:
        return self._draining

    # ---------------------------------------------------------- connection
    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._serve_one(reader, writer)
        finally:
            self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # client went away first
                pass

    async def _serve_one(self, reader, writer) -> None:
        t0 = time.perf_counter()
        endpoint, source = "-", "-"
        try:
            request = await read_request(reader)
        except ProtocolError as exc:
            status, payload = exc.status, {"error": exc.message}
        except (ConnectionError, OSError):
            return
        else:
            if request is None:
                return
            self.requests += 1
            endpoint = f"{request.method} {request.path}"
            status, payload, source = await self._dispatch(request)
        response = json_response(status, payload)
        # Timed before the write, so a client that has read this response
        # always finds it in the histograms.
        dur = time.perf_counter() - t0
        if status == 200 and source in self.latency:
            self.latency[source].record(dur)
        writer.write(response)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        if self.tracer is not None:
            self.tracer.emit(
                "service.request",
                endpoint=endpoint,
                status=int(status),
                dur=dur,
                source=source,
            )

    async def _dispatch(self, request: Request) -> tuple[int, Mapping, str]:
        path, method = request.path, request.method
        if path == "/v1/healthz":
            if method != "GET":
                return 405, {"error": f"{method} not allowed on {path}"}, "-"
            return 200, self._healthz(), "-"
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": f"{method} not allowed on {path}"}, "-"
            return 200, self._stats(), "-"
        if path == "/v1/route":
            if method != "POST":
                return 405, {"error": f"{method} not allowed on {path}"}, "-"
            try:
                status, payload, source = await self._route(request)
            except ProtocolError as exc:
                return exc.status, {"error": exc.message}, "-"
            return status, payload, source
        if path.startswith("/v1/plans/"):
            if method != "GET":
                return 405, {"error": f"{method} not allowed on /v1/plans/*"}, "-"
            return (*self._plan(path.removeprefix("/v1/plans/")), "-")
        return (
            404,
            {
                "error": f"no such endpoint: {method} {path}",
                "endpoints": [f"{m} {p}" for m, p, _, _ in ENDPOINTS],
            },
            "-",
        )

    # ------------------------------------------------------------ handlers
    def _healthz(self) -> dict:
        return {
            "ok": True,
            "draining": self._draining,
            "inflight": len(self._inflight),
            "uptime": round(time.monotonic() - self._started, 3),
        }

    def counters(self) -> dict[str, int]:
        """This process's response accounting, by outcome.

        Every admitted route lands in exactly one of ``warm`` / ``cold`` /
        ``coalesced`` (its 200 responses) or ``timeouts`` / ``unroutable``
        / ``failed``.
        """
        return {
            "requests": self.requests,
            "routes": self.routes,
            "warm": self.warm,
            "cold": self.cold,
            "coalesced": self.coalesced,
            "computations": self.computations,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "unroutable": self.unroutable,
            "failed": self.failed,
            "inflight": len(self._inflight),
            "draining": int(self._draining),
        }

    def _stats(self) -> dict:
        return {
            "service": self.counters(),
            "pool": self.pool.counters(),
            "plancache": self.cache.counters(),
            "plancache_disk": self.cache.persistent_counters(),
            "plans_on_disk": len(self.cache.disk_blobs()),
            "uptime": round(time.monotonic() - self._started, 3),
            "latency": {
                "edges_ms": list(LATENCY_EDGES_MS),
                **{source: h.to_dict() for source, h in self.latency.items()},
            },
        }

    def emit_counters(self, tracer) -> None:
        """Export service/pool/cache counters as ``counter`` events."""
        for name, value in self.counters().items():
            tracer.counter(f"service.{name}", value)
        for name, value in self.pool.counters().items():
            tracer.counter(f"service.pool.{name}", value)
        self.cache.emit_counters(tracer)

    def _plan(self, digest: str) -> tuple[int, Mapping]:
        import json as _json

        # Digests are 32 hex chars (sha256[:32]); anything else — including
        # path separators or the cache's own sidecar names — is a 400.
        if not digest or len(digest) > 64 or any(
            c not in "0123456789abcdef" for c in digest
        ):
            return 400, {"error": f"bad plan digest {digest!r}"}
        path = self.cache.root / f"{digest}.json"
        try:
            payload = _json.loads(path.read_text())
        except FileNotFoundError:
            return 404, {"error": f"no plan {digest!r} under {self.cache.root}"}
        except (OSError, _json.JSONDecodeError):
            payload = None
        if not isinstance(payload, dict):
            return 404, {
                "error": f"plan {digest!r} is unreadable (corrupt blob)"
            }
        return 200, {
            "digest": digest,
            "key": payload.get("key", {}),
            "schema": payload.get("schema"),
            "stats": payload.get("stats", {}),
            "steps": len(payload.get("steps", [])),
            "bytes": path.stat().st_size,
        }

    async def _route(self, request: Request) -> tuple[int, Mapping, str]:
        if self._draining:
            return 503, {"error": "service is draining; resubmit elsewhere"}, "-"
        try:
            job = RouteRequest.from_body(request.json())
        except ValidationError as exc:
            self.rejected += 1
            return 400, {"error": "invalid request", "fields": exc.fields}, "-"

        # Key the job exactly the way the engine would (the canonical
        # router is always registered, so every servable job is cacheable).
        try:
            key, packets = self.keys.keyed(job)
        except ValueError as exc:  # a workload that does not fit n
            self.rejected += 1
            return 400, {
                "error": "invalid request", "fields": {"workload": str(exc)},
            }, "-"
        self.routes += 1
        digest = key.digest

        plan = self.cache.get(key)
        if plan is not None:
            fields = plan.stats_fields
            self.warm += 1
            return 200, {
                "digest": digest,
                "key": key.to_dict(),
                "source": "warm",
                "packets": packets,
                # Fault counters arrived with plan schema 2 (see
                # CachedPlan.replay_stats): absent means zero.
                "stats": {name: int(fields.get(name, 0)) for name in ROUTE_STATS},
            }, "warm"

        # Single-flight: one computation per digest, however many clients
        # ask for it concurrently.
        task = self._inflight.get(digest)
        if task is not None:
            self.cache.coalesced += 1
            source = "coalesced"
        else:
            task = asyncio.create_task(self._compute(job))
            self._inflight[digest] = task
            self.cache.inflight = len(self._inflight)
            task.add_done_callback(lambda t, d=digest: self._computed(d, t))
            source = "cold"
        try:
            # shield(): one waiter's cancellation must not kill the shared
            # computation the other waiters (and the cache) depend on.
            result = await asyncio.shield(task)
        except JobTimeout as exc:
            self.timeouts += 1
            return 504, {
                "error": "plan computation exceeded its budget; worker killed",
                "timeout": exc.seconds,
            }, source
        except JobFailed as exc:
            if exc.kind == "UnroutableError":
                self.unroutable += 1
                return 409, {"error": "unroutable", "detail": exc.message}, source
            self.failed += 1
            return 500, {
                "error": "routing failed",
                "kind": exc.kind,
                "detail": exc.message,
            }, source
        except JobCrashed as exc:
            self.failed += 1
            return 500, {"error": str(exc)}, source
        if source == "cold":
            self.cold += 1
        else:
            self.coalesced += 1
        return 200, {
            **result, "digest": digest, "key": key.to_dict(), "source": source,
        }, source

    async def _compute(self, job: RouteRequest) -> dict:
        timeout = job.timeout if job.timeout is not None else self.default_timeout
        result = await self.pool.submit(
            execute_route, job.to_params(str(self.cache.root)), timeout=timeout
        )
        self.computations += 1
        return result

    def _computed(self, digest: str, task: asyncio.Task) -> None:
        self._inflight.pop(digest, None)
        self.cache.inflight = len(self._inflight)
        if not task.cancelled():
            task.exception()  # retrieved: no "exception never retrieved" noise
