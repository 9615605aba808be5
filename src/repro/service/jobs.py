"""Routing jobs: request validation in the event loop, execution off it.

A ``POST /v1/route`` body is validated into a :class:`RouteRequest` with
*named-field* errors (:class:`ValidationError` carries a ``{field:
message}`` mapping, which the service renders as the HTTP 400 body — the
same convention as the CLI's ``error:``-on-stderr contract, but
machine-readable).  Validation is cheap and synchronous; the heavy
word-level arbitration run happens in :func:`execute_route`, a
module-level (hence picklable) function the worker pool executes in a
separate process with the plan cache's on-disk tier as the hand-off
medium: the worker records the blob, the event loop's shared warm LRU
tier replays it for every later identical request.

:class:`PlanKeyMemo` is what keeps a warm request cheap: a seeded job's
plan key is a pure function of its validated fields, so the event loop
derives it (building the seeded demands and hashing them) once per
distinct request and looks it up afterwards.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "ROUTE_STATS",
    "ValidationError",
    "RouteRequest",
    "PlanKeyMemo",
    "execute_route",
]

#: The routing counters a ``POST /v1/route`` response carries under
#: ``stats``, in the engine's :class:`~repro.sim.stats.RoutingStats` names.
ROUTE_STATS = (
    "steps",
    "total_hops",
    "max_queue_depth",
    "blocked_moves",
    "delivered",
    "dropped",
    "retried",
)


class ValidationError(Exception):
    """Invalid request body; ``fields`` maps field name to what's wrong."""

    def __init__(self, fields: Mapping[str, str]):
        super().__init__("; ".join(f"{k}: {v}" for k, v in sorted(fields.items())))
        self.fields = dict(fields)


def _int_field(body: Mapping, name: str, errors: dict, *, default=None,
               minimum: int | None = None):
    value = body.get(name, default)
    if value is default and default is None and name not in body:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        errors[name] = f"expected an integer, got {value!r}"
        return default
    if minimum is not None and value < minimum:
        errors[name] = f"must be >= {minimum}, got {value}"
        return default
    return value


@dataclass(frozen=True)
class RouteRequest:
    """One validated routing job.

    Demands come either from a named seeded workload (``workload`` +
    ``seed``, the benchmark convention) or as an explicit ``demands`` list
    of ``[source, dest]`` pairs; exactly one of the two spellings.
    """

    topology: str
    n: int
    workload: str | None = None
    seed: int = 99
    demands: tuple[tuple[int, int], ...] | None = None
    router: str = "auto"
    arbitration: str = "overtaking"
    backend: str = "indexed"
    fault: dict | None = None
    timeout: float | None = None

    _KNOWN_FIELDS = frozenset(
        {
            "topology",
            "n",
            "workload",
            "seed",
            "demands",
            "router",
            "arbitration",
            "backend",
            "fault",
            "timeout",
        }
    )

    @classmethod
    def from_body(cls, body: Mapping) -> "RouteRequest":
        """Validate a JSON body; :class:`ValidationError` names every
        offending field at once (clients fix one round trip, not N)."""
        from ..sim.backends import ENGINE_BACKENDS
        from ..sim.engine import ARBITRATION_POLICIES
        from ..sim.task import TOPOLOGY_BUILDERS, WORKLOAD_BUILDERS

        errors: dict[str, str] = {}
        for name in body:
            if name not in cls._KNOWN_FIELDS:
                errors[name] = "unknown field"

        topology = body.get("topology")
        if not isinstance(topology, str):
            errors["topology"] = f"required, one of {sorted(TOPOLOGY_BUILDERS)}"
            topology = ""
        elif topology not in TOPOLOGY_BUILDERS:
            errors["topology"] = (
                f"unknown topology {topology!r}; known: {sorted(TOPOLOGY_BUILDERS)}"
            )

        n = _int_field(body, "n", errors, minimum=1)
        if n is None and "n" not in errors:
            errors["n"] = "required, a positive node count"
        if topology in TOPOLOGY_BUILDERS and isinstance(n, int) and n >= 1:
            try:  # family-specific shape rules (square, power of two, ...)
                TOPOLOGY_BUILDERS[topology](n)
            except ValueError as exc:
                errors["n"] = str(exc)

        workload = body.get("workload")
        demands = body.get("demands")
        if workload is None and demands is None:
            errors["workload"] = (
                f"one of 'workload' or 'demands' is required; workloads: "
                f"{sorted(WORKLOAD_BUILDERS)}"
            )
        if workload is not None and demands is not None:
            errors["demands"] = "give either 'workload' or 'demands', not both"
        if workload is not None and workload not in WORKLOAD_BUILDERS:
            errors["workload"] = (
                f"unknown workload {workload!r}; known: {sorted(WORKLOAD_BUILDERS)}"
            )

        parsed_demands = None
        if demands is not None and "demands" not in errors:
            parsed_demands = _parse_demands(demands, n, errors)

        seed = _int_field(body, "seed", errors, default=99)

        router = body.get("router", "auto")
        if router != "auto":
            errors["router"] = (
                f"only 'auto' (the topology's canonical router) is servable; "
                f"got {router!r}"
            )

        arbitration = body.get("arbitration", "overtaking")
        if arbitration not in ARBITRATION_POLICIES:
            errors["arbitration"] = (
                f"unknown policy {arbitration!r}; known: {ARBITRATION_POLICIES}"
            )

        backend = body.get("backend", "indexed")
        if backend not in ENGINE_BACKENDS:
            errors["backend"] = (
                f"unknown backend {backend!r}; known: {tuple(ENGINE_BACKENDS)}"
            )

        fault = body.get("fault")
        if fault is not None:
            if not isinstance(fault, dict):
                errors["fault"] = "expected a FaultModel.to_params() mapping"
            else:
                from ..faults import FaultModel

                try:
                    FaultModel.from_params(fault)
                except (ValueError, TypeError, KeyError) as exc:
                    errors["fault"] = str(exc)

        timeout = body.get("timeout")
        if timeout is not None:
            if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
                errors["timeout"] = f"expected seconds as a number, got {timeout!r}"
            elif timeout <= 0:
                errors["timeout"] = f"must be > 0 seconds, got {timeout}"

        if errors:
            raise ValidationError(errors)
        return cls(
            topology=topology,
            n=int(n),
            workload=workload,
            seed=int(seed),
            demands=parsed_demands,
            router="auto",
            arbitration=arbitration,
            backend=backend,
            fault=dict(fault) if fault else None,
            timeout=float(timeout) if timeout is not None else None,
        )

    # ------------------------------------------------------------ plumbing
    def endpoints(self) -> tuple[list[int], list[int]]:
        """The job's ``(sources, dests)`` lists (builds seeded workloads)."""
        from ..sim.task import build_workload

        if self.demands is not None:
            return [s for s, _ in self.demands], [d for _, d in self.demands]
        return build_workload(self.workload, self.n, self.seed)

    def plan_key(self):
        """The job's :class:`~repro.sim.plancache.PlanKey` (never ``None``:
        only canonical routers are servable, and all are registered)."""
        return self.keyed()[0]

    def keyed(self):
        """``(plan_key, packets)`` from one build of the job's demands."""
        from ..sim.plancache import plan_key
        from ..sim.routers import router_for
        from ..sim.task import build_topology

        topology = build_topology(self.topology, self.n)
        sources, dests = self.endpoints()
        fault_model = self._fault_model()
        key = plan_key(
            topology, sources, dests, router_for(topology),
            self.arbitration, fault_model,
        )
        return key, len(sources)

    def memo_key(self) -> tuple | None:
        """The seeded job's canonical form, or ``None`` for explicit
        ``demands`` (those are keyed by hashing them).

        It holds every field the plan key depends on — the fault params
        as canonical JSON, a hashable form that never merges two bodies
        the fault model could tell apart — plus
        :data:`~repro.sim.plancache.PLAN_SCHEMA_VERSION` read at call
        time, so a schema bump re-keys.  ``backend`` and ``timeout`` are
        absent: neither reaches the plan key.
        """
        if self.demands is not None:
            return None
        from ..sim import plancache

        fault = (
            json.dumps(self.fault, sort_keys=True, separators=(",", ":"))
            if self.fault
            else None
        )
        return (
            self.topology, self.n, self.workload, self.seed,
            self.arbitration, fault, plancache.PLAN_SCHEMA_VERSION,
        )

    def _fault_model(self):
        if not self.fault:
            return None
        from ..faults import FaultModel

        return FaultModel.from_params(self.fault)

    def to_params(self, plan_root: str | None) -> dict:
        """The picklable :func:`execute_route` parameter dict."""
        return {
            "topology": self.topology,
            "n": self.n,
            "workload": self.workload,
            "seed": self.seed,
            "demands": [list(pair) for pair in self.demands]
            if self.demands is not None
            else None,
            "arbitration": self.arbitration,
            "backend": self.backend,
            "fault": self.fault,
            "plan_root": plan_root,
        }


class PlanKeyMemo:
    """Bounded LRU from a seeded job's :meth:`RouteRequest.memo_key` to its
    ``(PlanKey, packets)``.

    A hit skips building the seeded demands and hashing them; explicit
    ``demands`` bodies are keyed afresh every time and never stored.  At
    most ``capacity`` entries are held, least recently used evicted first.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("plan key memo capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()

    def keyed(self, job: RouteRequest):
        """``(plan_key, packets)`` of ``job``, derived at most once per
        canonical form while it stays in the memo."""
        memo_key = job.memo_key()
        if memo_key is None:
            return job.keyed()
        entry = self._entries.get(memo_key)
        if entry is not None:
            self._entries.move_to_end(memo_key)
            return entry
        entry = job.keyed()
        self._entries[memo_key] = entry
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return entry

    def __len__(self) -> int:
        return len(self._entries)


def _parse_demands(demands, n, errors: dict):
    if not isinstance(demands, list) or not demands:
        errors["demands"] = "expected a non-empty list of [source, dest] pairs"
        return None
    pairs = []
    limit = n if isinstance(n, int) else None
    for i, pair in enumerate(demands):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or any(isinstance(x, bool) or not isinstance(x, int) for x in pair)
        ):
            errors["demands"] = f"entry {i} is not an [int, int] pair: {pair!r}"
            return None
        src, dst = pair
        if limit is not None and not (0 <= src < limit and 0 <= dst < limit):
            errors["demands"] = (
                f"entry {i} endpoints out of range for n={limit}: {pair!r}"
            )
            return None
        pairs.append((src, dst))
    return tuple(pairs)


def execute_route(params: dict) -> dict:
    """Route one job in a worker process; the plan blob lands on disk.

    Returns a flat JSON-serializable result: the packet count, the routing
    counters, and honest host timing.  The plan's digest and key are not
    in it: the event loop derived them before dispatching the job and adds
    them to the response itself.  ``cached`` reports whether *this worker*
    replayed an existing blob (the event loop normally answers warm
    requests itself, so a worker-side hit means two cold requests raced
    past the coalescing window — rare but correct).
    """
    from ..sim.engine import route_demands
    from ..sim.plancache import PlanCache
    from ..sim.task import build_topology, build_workload

    topology = build_topology(params["topology"], int(params["n"]))
    if params.get("demands") is not None:
        pairs = [(int(s), int(d)) for s, d in params["demands"]]
    else:
        pairs = list(zip(*build_workload(
            params["workload"], int(params["n"]), int(params.get("seed", 99))
        )))

    fault_model = None
    if params.get("fault"):
        from ..faults import FaultModel

        fault_model = FaultModel.from_params(params["fault"])

    plan_root = params.get("plan_root")
    cache = PlanCache(plan_root) if plan_root else None

    t0 = time.perf_counter()
    routed = route_demands(
        topology,
        pairs,
        arbitration=params.get("arbitration", "overtaking"),
        backend=params.get("backend", "indexed"),
        cache=cache if cache is not None else False,
        fault_model=fault_model,
    )
    route_seconds = time.perf_counter() - t0

    stats = routed.stats
    return {
        "packets": len(pairs),
        "stats": {name: getattr(stats, name) for name in ROUTE_STATS},
        "cached": bool(cache is not None and cache.hits),
        "route_seconds": round(route_seconds, 6),
    }
