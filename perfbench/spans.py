"""Layer spans recorded from outside the program under test.

The benchmark never edits ``src/``: it wraps the public functions named in
:data:`LAYERS` at run time, rebinding every reference the ``repro``
modules hold (module attributes, module-level dict values, class
attributes), so calls that went through ``from x import f`` bindings are
seen too.  Each call becomes a :class:`Span` with its name, start, end,
parent span and request id.  Spans stay in memory until the run writes
them out at the end.

Spans opened inside forked worker processes (the campaign executor and
the service's worker pool fork) are recorded in the child's copy of the
recorder and lost with it; the traced runs therefore replay worker-side
work in-process when they need its layers.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

#: (module, attribute path, layer) for every wrapped call.  The layer is
#: the span name; ``route_demands`` is renamed per call (see
#: :func:`_engine_layer`).
LAYERS = (
    ("repro.sim.task", "build_topology", "networks.build_topology"),
    ("repro.networks.degraded", "SurvivingGraph.__init__",
     "networks.surviving_graph"),
    ("repro.sim.task", "build_workload", "sim.task.build_workload"),
    ("repro.sim.plancache", "plan_key", "plancache.plan_key"),
    ("repro.sim.plancache", "PlanCache.get", "plancache.get"),
    # The disk half of PlanCache.get: its own span, so get's self time is
    # the memory tier alone.
    ("repro.sim.plancache", "PlanCache._load_blob", "plancache.get.disk"),
    ("repro.sim.plancache", "PlanCache.put", "plancache.put"),
    ("repro.sim.engine", "route_demands", "engine.route"),
    ("repro.faults.model", "FaultModel.from_params", "faults.from_params"),
    ("repro.faults.model", "resolve_faults", "faults.resolve_faults"),
    ("repro.bounds.core", "certify", "bounds.certify"),
    ("repro.bounds.core", "certify_stages", "bounds.certify_stages"),
    ("repro.bounds.core", "certify_program", "bounds.certify_program"),
    ("repro.algos.hypersystolic", "systolic_convolution", "algos.systolic"),
    ("repro.algos.hypersystolic", "hyper_systolic_convolution",
     "algos.hyper_systolic"),
    ("repro.fft.ape", "parallel_fft_ape", "fft.ape"),
    ("repro.campaign.executor", "run_campaign", "campaign.run_campaign"),
    ("repro.campaign.store", "ResultStore.load_record", "campaign.store.get"),
    ("repro.campaign.store", "ResultStore.put_record", "campaign.store.put"),
    ("repro.paper.runner", "run_paper", "paper.run_paper"),
    ("repro.paper.sections", "SectionSpec.render", "paper.render"),
    ("repro.paper.runner", "write_artifacts", "paper.write_artifacts"),
    ("repro.paper.golden", "check_goldens", "paper.check_goldens"),
    ("repro.service.app", "RoutingService._serve_one", "service.http"),
    ("repro.service.jobs", "RouteRequest.from_body", "service.jobs.from_body"),
    ("repro.service.app", "RoutingService._route", "service.route"),
    ("repro.service.pool", "WorkerPool.submit", "service.pool"),
    ("repro.service.jobs", "execute_route", "service.jobs.execute_route"),
)

#: Every span name a layer can produce, in report order.
LAYER_NAMES = tuple(
    name
    for _, _, layer in LAYERS
    for name in ((layer, "engine.route_degraded")
                 if layer == "engine.route" else (layer,))
)

#: The span that opens a new request id when it has no parent (the
#: server's per-connection handler).
ROOT_LAYERS = frozenset({"service.http"})


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    rid: str | None
    start_ns: int
    end_ns: int


@dataclass
class Recorder:
    """In-memory span and counter sink shared by every wrapper."""

    enabled: bool = False
    spans: list[Span] = field(default_factory=list)
    counts: defaultdict = field(default_factory=lambda: defaultdict(float))

    def __post_init__(self) -> None:
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        # (span id, request id) of the innermost open span in this context;
        # asyncio tasks and to_thread calls each carry their own copy.
        self._current = contextvars.ContextVar(
            "perfbench_span", default=(None, None)
        )

    # -------------------------------------------------------------- spans
    def _open(self, name: str, rid: str | None):
        parent, parent_rid = self._current.get()
        if rid is None:
            rid = parent_rid
        if rid is None and name in ROOT_LAYERS:
            rid = f"req-{next(self._rids)}"
        sid = next(self._ids)
        token = self._current.set((sid, rid))
        return sid, parent, rid, token

    def _close(self, name, sid, parent, rid, token, start_ns) -> None:
        end_ns = time.perf_counter_ns()
        self._current.reset(token)
        self.spans.append(Span(sid, parent, name, rid, start_ns, end_ns))

    @contextmanager
    def span(self, name: str, rid: str | None = None):
        """Open a span by hand (the benchmark's own operation roots)."""
        if not self.enabled:
            yield
            return
        sid, parent, rid, token = self._open(name, rid)
        start_ns = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, sid, parent, rid, token, start_ns)

    def wrap(self, fn, layer: str, *, namer=None, after=None):
        """A wrapper recording one span per call of ``fn``.

        ``namer(args, kwargs)`` picks the span name per call; ``after(
        result, args, kwargs, name)`` records counters once the span has
        closed, so its cost is not charged to the layer.
        """
        rec = self

        def begin(args, kwargs):
            name = namer(args, kwargs) if namer is not None else layer
            return (name, *rec._open(name, None), time.perf_counter_ns())

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not rec.enabled:
                    return await fn(*args, **kwargs)
                name, sid, parent, rid, token, start = begin(args, kwargs)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    rec._close(name, sid, parent, rid, token, start)
                if after is not None:
                    after(result, args, kwargs, name)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            name, sid, parent, rid, token, start = begin(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(name, sid, parent, rid, token, start)
            if after is not None:
                after(result, args, kwargs, name)
            return result

        return wrapper


def to_json(spans: list[Span], counts: dict) -> dict:
    """The serializable form of a span list and its counters."""
    return {"spans": [asdict(s) for s in spans], "counts": dict(counts)}


def from_json(data: dict) -> tuple[list[Span], dict]:
    return [Span(**s) for s in data["spans"]], dict(data["counts"])


# --------------------------------------------------------------- hooks
def _engine_layer(args, kwargs) -> str:
    model = kwargs.get("fault_model")
    if model is not None and model.enabled:
        return "engine.route_degraded"
    return "engine.route"


def _hooks(rec: Recorder) -> dict[str, dict]:
    counts = rec.counts

    def engine_after(result, args, kwargs, name):
        counts[f"{name}.hops"] += result.stats.total_hops

    def get_after(result, args, kwargs, name):
        if result is not None:
            counts["plancache.get.hits"] += 1

    def disk_after(result, args, kwargs, name):
        if result is not None:
            counts["plancache.get.disk.hits"] += 1

    def put_after(result, args, kwargs, name):
        cache, key = args[0], args[1]
        path = cache.blob_path(key)
        if path is not None and path.exists():
            counts["plancache.put.bytes"] += path.stat().st_size

    def store_after(result, args, kwargs, name):
        if result is not None and result.ok:
            counts["campaign.store.hits"] += 1

    return {
        "engine.route": {"namer": _engine_layer, "after": engine_after},
        "plancache.get": {"after": get_after},
        "plancache.get.disk": {"after": disk_after},
        "plancache.put": {"after": put_after},
        "campaign.store.get": {"after": store_after},
    }


def _rebind(original, replacement) -> None:
    """Point every reference the ``repro`` modules hold at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def install(rec: Recorder) -> None:
    """Wrap every :data:`LAYERS` entry; spans record while ``rec.enabled``."""
    for module_name, _, _ in LAYERS:
        importlib.import_module(module_name)
    hooks = _hooks(rec)
    for module_name, path, layer in LAYERS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = rec.wrap(fn, layer, **hooks.get(layer, {}))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrapped))
        elif outer:
            setattr(owner, attr, wrapped)
        else:
            _rebind(fn, wrapped)


# ------------------------------------------------------------- analysis
def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time per span id: its duration minus what its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: dict[int, int] = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start_ns):
            lo = max(child.start_ns, cursor)
            hi = min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end_ns - span.start_ns) - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, int]]:
    """``{layer: (calls, self_ns)}`` over every layer span."""
    own = self_times(spans)
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for span in spans:
        entry = totals[span.name]
        entry[0] += 1
        entry[1] += own[span.id]
    return {name: (calls, ns) for name, (calls, ns) in totals.items()}


#: Per-layer metrics a workload supplies itself (0 where its layer idles).
WORKLOAD_EXTRAS = (
    "campaign.overhead_ms",
    "service.pool.overhead_ms",
    "service.stats.warm",
    "service.stats.cold",
    "service.stats.computations",
    "trace.overhead_pct",
)


def layer_metrics(
    spans: list[Span],
    counts: dict,
    *,
    op_wall_ns: int,
    ops: int,
    unattributed_ns: int,
    extras: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    ``ops`` operations took ``op_wall_ns`` in all, of which no layer span
    explains ``unattributed_ns``.
    """
    totals = layer_totals(spans)

    def calls(layer):
        return totals.get(layer, (0, 0))[0]

    def self_ns(layer):
        return totals.get(layer, (0, 0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_ms"] = self_ns(layer) / 1e6
        out[f"{layer}.self_us_per_call"] = ratio(self_ns(layer) / 1e3,
                                                 calls(layer))
    hits = counts.get("plancache.get.hits", 0)
    disk_hits = counts.get("plancache.get.disk.hits", 0)
    out["plancache.get.memory_hit_ratio"] = ratio(hits - disk_hits,
                                                  calls("plancache.get"))
    out["plancache.get.disk_hit_ratio"] = ratio(disk_hits,
                                                calls("plancache.get.disk"))
    out["plancache.put.bytes"] = ratio(counts.get("plancache.put.bytes", 0),
                                       calls("plancache.put"))
    for engine in ("engine.route", "engine.route_degraded"):
        hops = counts.get(f"{engine}.hops", 0)
        out[f"{engine}.hops"] = hops
        out[f"{engine}.host_ns_per_hop"] = ratio(self_ns(engine), hops)
    out["campaign.store.hit_ratio"] = ratio(
        counts.get("campaign.store.hits", 0), calls("campaign.store.get"))
    for name in WORKLOAD_EXTRAS:
        out[name] = float(extras.get(name, 0.0))
    out["trace.spans"] = len(spans)
    out["trace.unattributed_ms_per_op"] = ratio(unattributed_ns / 1e6, ops)
    out["trace.unattributed_share"] = ratio(unattributed_ns, op_wall_ns)
    return out


def op_unattributed(spans: list[Span]) -> tuple[int, int, int]:
    """``(ops, wall_ns, unattributed_ns)`` over the benchmark's ``op``
    spans, the roots it opens around each traced operation."""
    own = self_times(spans)
    roots = [s for s in spans if s.name == "op"]
    wall = sum(s.end_ns - s.start_ns for s in roots)
    return len(roots), wall, sum(own[s.id] for s in roots)
