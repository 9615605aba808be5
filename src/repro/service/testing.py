"""In-process service runner for tests.

:class:`ServiceRunner` runs a :class:`~repro.service.app.RoutingService`
on its own event loop in a daemon thread, so synchronous test code can
drive a *real* socket-level server —
actual HTTP over localhost, actual worker processes — without subprocess
management or port guessing (``port=0`` binds an ephemeral port).

Usage::

    with ServiceRunner(plan_root=tmp) as runner:
        response = runner.client().route({...})

The context exit performs the service's graceful shutdown (drain, then
stop the loop) and re-raises nothing: a test that wants to assert on
drain behavior calls :meth:`shutdown` explicitly first.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future

from .app import RoutingService
from .client import ServiceClient

__all__ = ["ServiceRunner"]


class ServiceRunner:
    """Run a service on a background event loop; synchronous controls."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, **service_kwargs):
        self._host = host
        self._port = port
        self._kwargs = service_kwargs
        self.service: RoutingService | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started: Future = Future()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ServiceRunner":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._started.result(timeout=30)  # re-raises bind/start failures
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        service = RoutingService(**self._kwargs)
        try:
            loop.run_until_complete(service.start(self._host, self._port))
        except BaseException as exc:  # bind failure: surface in start()
            self._started.set_exception(exc)
            loop.close()
            return
        self.service = service
        self._started.set_result(None)
        try:
            loop.run_forever()
        finally:
            loop.close()

    def submit(self, coro) -> Future:
        """Schedule a coroutine on the service loop; returns its Future."""
        if self._loop is None:
            raise RuntimeError("runner not started")
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def shutdown(self, *, drain_timeout: float = 30.0) -> None:
        """Gracefully shut the service down (idempotent)."""
        if self.service is not None and self._loop is not None:
            if not self._loop.is_closed():
                self.submit(
                    self.service.shutdown(drain_timeout=drain_timeout)
                ).result(timeout=drain_timeout + 30)

    def stop(self) -> None:
        """Shutdown, then stop and join the loop thread."""
        try:
            self.shutdown()
        finally:
            if self._loop is not None and not self._loop.is_closed():
                self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=30)

    # ----------------------------------------------------------- utilities
    @property
    def port(self) -> int:
        assert self.service is not None and self.service.port is not None
        return self.service.port

    @property
    def host(self) -> str:
        assert self.service is not None and self.service.host is not None
        return self.service.host

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(self.host, self.port, **kwargs)

    def __enter__(self) -> "ServiceRunner":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
