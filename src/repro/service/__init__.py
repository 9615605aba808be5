"""Routing-as-a-service: the plan cache behind an async HTTP front end.

The package turns the plan-once/replay-many economics of the paper's
fixed-permutation workloads into a serving architecture:

* :mod:`repro.service.app` — :class:`RoutingService`, the asyncio HTTP
  service (``POST /v1/route``, ``GET /v1/plans/{digest}``,
  ``GET /v1/stats``, ``GET /v1/healthz``) with a shared warm LRU tier,
  single-flight request coalescing, and graceful drain;
* :mod:`repro.service.pool` — the name the service's worker pool had;
  it re-exports :mod:`repro.workers`, the kill-on-timeout process pool
  cold plan computations (and campaign tasks) run in;
* :mod:`repro.service.jobs` — request validation (named-field 400s) and
  the picklable worker entry point;
* :mod:`repro.service.http` — the minimal asyncio HTTP/1.1 layer;
* :mod:`repro.service.client` — the synchronous client every test
  drives the wire with;
* :mod:`repro.service.testing` — :class:`ServiceRunner`, a real server
  on a background event loop for in-process tests.

Start one from the CLI with ``repro serve``; see docs/API.md for the
endpoint contract (generated from :data:`~repro.service.app.ENDPOINTS`).
"""

from ..workers import JobCrashed, JobFailed, JobTimeout, WorkerPool
from .app import ENDPOINTS, RoutingService
from .client import ServiceClient, ServiceError, ServiceResponse
from .jobs import RouteRequest, ValidationError, execute_route
from .testing import ServiceRunner

__all__ = [
    "ENDPOINTS",
    "RoutingService",
    "ServiceClient",
    "ServiceError",
    "ServiceResponse",
    "ServiceRunner",
    "RouteRequest",
    "ValidationError",
    "execute_route",
    "WorkerPool",
    "JobTimeout",
    "JobCrashed",
    "JobFailed",
]
