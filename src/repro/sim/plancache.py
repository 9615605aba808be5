"""Plan-once/replay-many: a content-addressed cache of routing schedules.

The paper's headline numbers come from routing the *same* fixed
communication patterns — ``log2 N`` butterfly-stage permutations plus one
bit reversal — yet an adaptive :func:`~repro.sim.engine.route_permutation`
run re-pays the full word-level arbitration cost every time, even though
the schedule it produces is a pure function of

``(topology, demands, router, arbitration policy, engine schema)``.

This module separates *plan* cost from *execution* cost, the way wafer-scale
FFT engines compile the butterfly's communication offline and replay it:

* :func:`plan_key` derives a deterministic :class:`PlanKey` from exactly the
  inputs the engine's output depends on — a structural topology fingerprint,
  a SHA-256 digest of the packed ``(sources, dests)`` arrays, a registered
  router identity, the arbitration policy, and :data:`PLAN_SCHEMA_VERSION`;
* :class:`PlanCache` maps keys to recorded :class:`CachedPlan`s through an
  in-memory LRU tier and an optional content-addressed on-disk tier
  (``results/plans/<digest>.json``, atomic tmp+rename writes — the same
  blob discipline as :mod:`repro.campaign.store`);
* the engine's ``cache=`` keyword (see :func:`~repro.sim.engine.
  route_permutation`) consults the cache before arbitrating and records the
  result after a miss, so repeated transforms, experiment reruns, and
  campaign sweeps replay schedules instead of re-simulating them.

A plan's recorded form is a :class:`MoveLog`: per-step move counts plus
two flat int arrays of packet ids and nodes, the engine's own output and
the blob's own layout, so a plan goes from the engine to disk and back
without a per-move Python object.  Step dicts are a view of the log, built
only when a caller reads them.

Equivalence is contractual: a cache hit reconstructs the **bit-identical**
step dicts and :class:`~repro.sim.stats.RoutingStats` counters that a live
``_route_core`` run would produce (``tests/sim/test_engine_equivalence.py``
and ``tests/sim/test_plancache.py`` enforce this).  Corrupted, truncated,
or schema-stale disk blobs are treated as misses — the engine silently
falls back to live routing, never to a wrong plan.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..networks.base import Topology
from .stats import RoutingStats

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "DEFAULT_PLAN_ROOT",
    "PlanKey",
    "MoveLog",
    "CachedPlan",
    "PlanBlobError",
    "PlanCache",
    "topology_fingerprint",
    "demands_digest",
    "router_id",
    "plan_key",
    "resolve_cache",
    "memory_cache",
    "disk_cache",
]

#: Engine schema version baked into every plan key and blob.  Bump whenever
#: the engine's observable output for identical inputs could change (a new
#: arbitration rule, a different step encoding, ...): old blobs then stop
#: matching any key and are re-planned instead of replayed wrongly.
#: Version 2: keys gained the ``fault`` component and recorded stats gained
#: the ``dropped`` / ``retried`` counters (fault-injection PR).
#: Version 3: intermittent drops are drawn by a SplitMix64 hash instead of
#: SHA-256 (a faulted run with ``drop_prob`` drops different moves), and
#: blobs store steps as per-step lengths plus base64 int32 ``pids`` /
#: ``nodes`` arrays instead of nested JSON lists.
PLAN_SCHEMA_VERSION = 3

#: Item type of a blob's ``pids`` and ``nodes`` arrays.
_BLOB_ITEM = np.dtype("<i4")


class PlanBlobError(ValueError):
    """A plan blob whose step arrays do not decode (bad base64, a byte
    count that is not a whole number of items, torn ``pids`` / ``nodes``
    arrays, step lengths that do not partition them, or a packet that
    moves twice in one step), or a log whose ids do not fit the blob's
    int32.  The disk tier counts a blob that does not decode as
    ``corrupt`` and routes live."""


#: Default root of the on-disk tier (``disk_cache()`` / ``cache="disk"``).
DEFAULT_PLAN_ROOT = Path("results/plans")

#: Process-local tmp-file counter: together with the pid it gives every
#: in-flight blob write a unique staging name, so two processes (or two
#: threads) recording the same digest can never interleave bytes in one
#: shared tmp file — each writes its own and the last ``os.replace`` wins
#: with a complete blob either way.
_TMP_COUNTER = itertools.count()


#: Router classes whose ``next_hop`` is a pure function of the topology in
#: the key — the only routers whose plans are safe to share.  Maps class
#: qualname to the identity string used in keys.
_REGISTERED_ROUTERS = {
    "MeshDimensionOrderRouter": "mesh-dimension-order",
    "TorusDimensionOrderRouter": "torus-dimension-order",
    "HypercubeEcubeRouter": "hypercube-ecube",
    "HypermeshDigitRouter": "hypermesh-digit",
}


def topology_fingerprint(topology: Topology) -> str:
    """Structural identity of a topology, stable across instances.

    Two topology objects with the same fingerprint route identically: the
    fingerprint covers the concrete class, the channel model, the node
    count, and the per-dimension extents (``radices``) when the family has
    them.  It deliberately ignores instance identity — the whole point is
    that a fresh ``Mesh2D(64)`` replays plans recorded by another.
    """
    parts = [
        type(topology).__name__,
        topology.channel_model.value,
        f"n={topology.num_nodes}",
    ]
    radices = getattr(topology, "radices", None)
    if radices is not None:
        parts.append("radices=" + ",".join(str(r) for r in radices))
    return ":".join(parts)


def demands_digest(sources: Sequence[int], dests: Sequence[int]) -> str:
    """SHA-256 digest of the packed ``(sources, dests)`` arrays.

    Order matters (packet ``k`` is ``(sources[k], dests[k])``), so the
    digest is taken over the raw little-endian int64 buffers, not a set.
    """
    src = np.ascontiguousarray(np.asarray(sources, dtype=np.int64))
    dst = np.ascontiguousarray(np.asarray(dests, dtype=np.int64))
    h = hashlib.sha256()
    h.update(len(src).to_bytes(8, "little"))
    h.update(src.tobytes())
    h.update(dst.tobytes())
    return h.hexdigest()


def router_id(router) -> str | None:
    """Cache identity of a routing discipline, or ``None`` if unknown.

    Only routers registered as pure functions of ``(current, dest)`` get an
    identity; a :class:`~repro.sim.routers.TabulatedRouter` inherits its
    wrapped router's identity (memoization does not change answers).
    ``None`` means "do not cache": the engine routes live rather than risk
    replaying a plan recorded under a different discipline.
    """
    inner = getattr(router, "router", None)
    if inner is not None and type(router).__name__ == "TabulatedRouter":
        return router_id(inner)
    return _REGISTERED_ROUTERS.get(type(router).__name__)


@dataclass(frozen=True)
class PlanKey:
    """Content address of one routing plan.

    Everything the engine's output depends on, nothing it does not: the
    packet payloads, host timing, and instrumentation hooks are all absent
    by construction.  The engine has one core, bit-identical by contract
    to the step-loop oracles in :mod:`repro.sim._reference` (the
    equivalence and fuzz suites enforce it), so nothing about how the
    plan was computed belongs in the key.
    """

    topology: str
    demands: str
    router: str
    arbitration: str
    fault: str = "none"
    schema: int = PLAN_SCHEMA_VERSION

    @cached_property
    def digest(self) -> str:
        """Hex digest naming this plan's blob on disk (computed once per key:
        the fields are frozen)."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:32]

    def to_dict(self) -> dict:
        return {
            "topology": self.topology,
            "demands": self.demands,
            "router": self.router,
            "arbitration": self.arbitration,
            "fault": self.fault,
            "schema": self.schema,
        }


def fault_fingerprint(fault_model) -> str:
    """Plan-key component of a fault configuration.

    ``None`` and disabled models both map to ``"none"`` — they are
    contractually identical runs.  Enabled models contribute their seeded
    content fingerprint, so a faulted run can never collide with the
    fault-free plan for the same demands (or with a differently-faulted
    one).
    """
    if fault_model is None or not fault_model.enabled:
        return "none"
    return fault_model.fingerprint()


def plan_key(
    topology: Topology,
    sources: Sequence[int],
    dests: Sequence[int],
    router,
    arbitration: str,
    fault_model=None,
) -> PlanKey | None:
    """Build the :class:`PlanKey` for one routing problem.

    Returns ``None`` when the router has no registered identity — such runs
    are uncacheable and must route live.  ``fault_model`` (a
    :class:`~repro.faults.model.FaultModel` or ``None``) contributes the
    key's ``fault`` component via :func:`fault_fingerprint`.
    """
    rid = router_id(router)
    if rid is None:
        return None
    return PlanKey(
        topology=topology_fingerprint(topology),
        demands=demands_digest(sources, dests),
        router=rid,
        arbitration=arbitration,
        fault=fault_fingerprint(fault_model),
        # Read the module global at call time (not the dataclass default,
        # which froze at class definition) so a schema bump re-keys plans.
        schema=PLAN_SCHEMA_VERSION,
    )


@dataclass(frozen=True, eq=False)
class MoveLog:
    """The recorded form of a routed run: every move as flat int arrays.

    ``lengths[s]`` is the number of moves in step ``s``; ``pids`` and
    ``nodes`` hold every move's packet id and the node it moved to, in
    step order and, within a step, in grant order — exactly the layout of
    a plan blob.  The engine records a run this way, the plan cache stores
    and replays it this way, and step dicts are a view built only when a
    caller reads them (:meth:`dicts`).  The arrays are made read-only: one
    log is shared by a run's result and its cached plan.
    """

    lengths: np.ndarray
    pids: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        for values in (self.lengths, self.pids, self.nodes):
            values.flags.writeable = False

    @classmethod
    def from_steps(cls, steps: Sequence[Mapping[int, int]]) -> "MoveLog":
        """The log of step dicts (``steps[s]`` maps packet id to node), in
        each dict's insertion order — the inverse of :meth:`dicts`."""
        total = sum(map(len, steps))
        return cls(
            np.array([len(step) for step in steps], dtype=np.int64),
            np.fromiter(itertools.chain.from_iterable(steps), np.int64, total),
            np.fromiter(
                itertools.chain.from_iterable(s.values() for s in steps),
                np.int64, total,
            ),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MoveLog):
            return NotImplemented
        return (
            np.array_equal(self.lengths, other.lengths)
            and np.array_equal(self.pids, other.pids)
            and np.array_equal(self.nodes, other.nodes)
        )

    def dicts(self) -> list[dict[int, int]]:
        """Fresh ``{packet: node}`` dicts, one per step, in recorded order.

        ``tolist()`` makes two fresh int objects per move, which a schedule
        built from the dicts would keep alive for its whole life.  So when
        the ids are dense enough for it to pay, keys and values come from
        one shared list of ints (``ints[i] == i``), as in the engine.
        """
        pids, nodes = self.pids.tolist(), self.nodes.tolist()
        if pids:
            low = min(self.pids.min(), self.nodes.min())
            top = int(max(self.pids.max(), self.nodes.max()))
            if low >= 0 and top < 2 * len(pids):
                get = list(range(top + 1)).__getitem__
                pids, nodes = map(get, pids), map(get, nodes)
        moves = zip(pids, nodes)
        return [
            dict(itertools.islice(moves, k)) for k in self.lengths.tolist()
        ]


@dataclass(frozen=True)
class CachedPlan:
    """A recorded engine run: its :class:`MoveLog` plus the routing counters.

    ``moves`` replays as step dicts in the engine's original insertion
    order, so a replayed schedule is bit-identical to the live one (dict
    equality *and* iteration order).  A warm hit that reads only
    ``stats_fields`` never builds a dict.  ``per_step_seconds`` is host
    instrumentation and deliberately not stored — a replay did not spend
    that time.
    """

    moves: MoveLog
    stats_fields: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def from_run(cls, moves: MoveLog, stats: RoutingStats) -> "CachedPlan":
        """Record one run; the log is stored as is, not copied."""
        return cls(
            moves=moves,
            stats_fields={
                "steps": stats.steps,
                "total_hops": stats.total_hops,
                "max_queue_depth": stats.max_queue_depth,
                "blocked_moves": stats.blocked_moves,
                "delivered": stats.delivered,
                "dropped": stats.dropped,
                "retried": stats.retried,
                "per_step_moves": list(stats.per_step_moves),
            },
        )

    def replay_steps(self) -> list[dict[int, int]]:
        """Fresh step dicts built from the log (callers may mutate them)."""
        return self.moves.dicts()

    def replay_stats(self) -> RoutingStats:
        """A fresh :class:`RoutingStats` carrying the recorded counters."""
        f = self.stats_fields
        return RoutingStats(
            steps=int(f["steps"]),
            total_hops=int(f["total_hops"]),
            max_queue_depth=int(f["max_queue_depth"]),
            blocked_moves=int(f["blocked_moves"]),
            delivered=int(f["delivered"]),
            # Fault counters arrived with PLAN_SCHEMA_VERSION 2; tolerate
            # their absence so hand-built stats_fields stay valid.
            dropped=int(f.get("dropped", 0)),
            retried=int(f.get("retried", 0)),
            per_step_moves=[int(m) for m in f["per_step_moves"]],
        )

    # ------------------------------------------------------------- blob I/O
    def to_payload(self) -> dict:
        """JSON-serializable blob body.

        ``steps`` holds each step's move count; ``pids`` and ``nodes`` are
        the log's arrays — every move in step order and, within a step, in
        grant order — each stored as base64 of a little-endian int32 array.
        """
        log = self.moves
        return {
            "steps": log.lengths.tolist(),
            "pids": _encode_array(log.pids),
            "nodes": _encode_array(log.nodes),
            "stats": dict(self.stats_fields),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "CachedPlan":
        """Inverse of :meth:`to_payload`; raises :class:`PlanBlobError`
        (or the ``KeyError`` / ``TypeError`` / ``ValueError`` of a
        malformed field) when the arrays do not decode into steps.  The
        decoded int32 arrays become the plan's log as they are."""
        lengths = payload["steps"]
        pids = _decode_array(payload["pids"], "pids")
        nodes = _decode_array(payload["nodes"], "nodes")
        if pids.size != nodes.size:
            raise PlanBlobError(
                f"torn step arrays: {pids.size} packet ids, {nodes.size} nodes"
            )
        # Checked on the Python ints, before any of them meets an int64.
        if (
            not isinstance(lengths, list)
            or not all(type(k) is int and k >= 0 for k in lengths)
            or sum(lengths) != pids.size
        ):
            raise PlanBlobError(
                f"step lengths do not partition the {pids.size} recorded moves"
            )
        lengths = np.array(lengths, dtype=np.int64)
        if pids.size:
            # A packet moves at most once per step: sort the moves by one
            # (step, pid) code and look for an adjacent equal pair.
            low = np.int64(pids.min())
            span = np.int64(pids.max()) - low + 1
            codes = np.repeat(np.arange(lengths.size) * span, lengths)
            codes += pids - low
            codes.sort()
            if (codes[1:] == codes[:-1]).any():
                raise PlanBlobError("a packet moves twice in one recorded step")
        plan = cls(
            moves=MoveLog(lengths, pids, nodes),
            stats_fields=dict(payload["stats"]),
        )
        plan.replay_stats()  # validates required counters are present/typed
        return plan


#: Range of the blob's item type, checked before an array is narrowed.
_BLOB_RANGE = np.iinfo(_BLOB_ITEM)


def _encode_array(values: np.ndarray) -> str:
    """Base64 of one log array as little-endian int32 (:class:`PlanBlobError`
    naming int32 if a value does not fit)."""
    if values.size and (
        values.min() < _BLOB_RANGE.min or values.max() > _BLOB_RANGE.max
    ):
        raise PlanBlobError(
            "a packet id or node does not fit the blob's int32: "
            f"range [{values.min()}, {values.max()}]"
        )
    raw = values.astype(_BLOB_ITEM, copy=False).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _decode_array(text: str, name: str) -> np.ndarray:
    """One base64 int32 array of a blob (:class:`PlanBlobError` if it is
    not valid base64 of a whole number of items)."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:  # binascii.Error is a ValueError
        raise PlanBlobError(f"{name} is not base64: {exc}") from None
    if len(raw) % _BLOB_ITEM.itemsize:
        raise PlanBlobError(
            f"{name} holds {len(raw)} bytes, not a whole number of "
            f"{_BLOB_ITEM.itemsize}-byte items"
        )
    return np.frombuffer(raw, dtype=_BLOB_ITEM)


class PlanCache:
    """Two-tier plan store: in-memory LRU over an optional disk tier.

    Parameters
    ----------
    root:
        Directory of the on-disk tier (created lazily).  ``None`` keeps the
        cache memory-only.
    capacity:
        Maximum plans held in memory; least-recently-used plans are evicted
        (they remain on disk when a root is configured).

    Counters (``hits`` / ``misses`` / ``stores`` / ``evictions`` /
    ``corrupt`` / ``uncacheable`` / ``bypassed`` / ``fault_bypassed`` /
    ``coalesced`` / ``inflight``) describe this process's traffic;
    :meth:`emit_counters` exports them as ``counter`` events on a
    :class:`repro.obs.Tracer`.  ``fault_bypassed`` counts runs forced live
    because an active fault model carried an ``on_fault`` instrumentation
    hook (a replay fires no fault events).  ``coalesced`` counts lookups
    that piggybacked on an identical in-flight computation instead of
    planning again, and ``inflight`` is the point-in-time gauge of such
    single-flight computations — both are maintained by single-flight
    front ends like :class:`repro.service.app.RoutingService`; a plain
    synchronous caller leaves them at zero.

    The on-disk tier is safe for concurrent writers across processes:
    blobs stage through per-process unique tmp names before their atomic
    rename, so a reader sees either no blob or a complete one.
    """

    def __init__(self, root: str | Path | None = None, *, capacity: int = 128):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.root = Path(root) if root is not None else None
        self.capacity = int(capacity)
        self._memory: OrderedDict[str, CachedPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0
        self.uncacheable = 0
        self.bypassed = 0
        self.fault_bypassed = 0
        self.coalesced = 0
        self.inflight = 0

    # ---------------------------------------------------------------- tiers
    def blob_path(self, key: PlanKey) -> Path | None:
        """On-disk location of ``key``'s plan (``None`` when memory-only)."""
        if self.root is None:
            return None
        return self.root / f"{key.digest}.json"

    def get(self, key: PlanKey) -> CachedPlan | None:
        """Look a plan up, memory first, then disk; count a hit or miss."""
        digest = key.digest
        plan = self._memory.get(digest)
        if plan is not None:
            self._memory.move_to_end(digest)
            self.hits += 1
            return plan
        plan = self._load_blob(key)
        if plan is not None:
            self._remember(digest, plan)
            self.hits += 1
            return plan
        self.misses += 1
        return None

    def put(self, key: PlanKey, plan: CachedPlan) -> None:
        """Record a freshly planned schedule in both tiers."""
        self._remember(key.digest, plan)
        self.stores += 1
        path = self.blob_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = plan.to_payload()
        pids, nodes = payload.pop("pids"), payload.pop("nodes")
        head = json.dumps({"schema": key.schema, "key": key.to_dict(), **payload})
        # The two base64 arrays are most of the blob and need no JSON
        # escaping, so they are spliced in verbatim rather than scanned by
        # json.dumps character by character.
        blob = f'{head[:-1]}, "pids": "{pids}", "nodes": "{nodes}"}}'
        # Per-process unique staging name: a shared `<digest>.tmp` would let
        # two processes recording the same key interleave writes and rename
        # a torn file into place.  With unique names each rename installs a
        # complete blob (identical keys produce identical bytes anyway).
        tmp = path.parent / f".{key.digest}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        try:
            tmp.write_text(blob + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def _remember(self, digest: str, plan: CachedPlan) -> None:
        self._memory[digest] = plan
        self._memory.move_to_end(digest)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.evictions += 1

    def _load_blob(self, key: PlanKey) -> CachedPlan | None:
        path = self.blob_path(key)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                raise PlanBlobError("plan blob is not a JSON object")
            if payload.get("schema") != key.schema:
                return None  # stale engine schema: re-plan, don't replay
            if payload.get("key") != key.to_dict():
                return None  # digest collision or tampered blob
            return CachedPlan.from_payload(payload)
        except (json.JSONDecodeError, KeyError, ValueError, TypeError, OSError):
            # Torn write, truncation, or hand-edited garbage: treat as a
            # miss so the engine falls back to live routing.
            self.corrupt += 1
            return None

    # ------------------------------------------------------------ inventory
    def __len__(self) -> int:
        return len(self._memory)

    def disk_blobs(self) -> list[Path]:
        """Plan blobs currently on disk (empty for memory-only caches).

        Names starting with ``.`` or ``_`` (staged writes, and the stats
        sidecar older versions kept in the root) are not blobs and are
        excluded.
        """
        if self.root is None or not self.root.exists():
            return []
        return sorted(
            p for p in self.root.glob("*.json") if not p.name.startswith(("_", "."))
        )

    def disk_bytes(self) -> int:
        """Total size of the on-disk tier in bytes."""
        return sum(p.stat().st_size for p in self.disk_blobs())

    def clear(self, *, disk: bool = True) -> int:
        """Drop every cached plan; returns the number of disk blobs removed."""
        self._memory.clear()
        removed = 0
        if disk:
            for path in self.disk_blobs():
                path.unlink()
                removed += 1
            if self.root is not None and self.root.exists():
                # Staged writes abandoned by killed workers are litter, not
                # plans; sweep them (never counted in ``removed``).
                for stray in self.root.glob(".*.tmp"):
                    stray.unlink(missing_ok=True)
        return removed

    def counters(self) -> dict[str, int]:
        """Snapshot of this process's cache traffic."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "uncacheable": self.uncacheable,
            "bypassed": self.bypassed,
            "fault_bypassed": self.fault_bypassed,
            "coalesced": self.coalesced,
            "inflight": self.inflight,
        }

    def emit_counters(self, tracer) -> None:
        """Export the traffic counters as ``counter`` events
        (``plancache.hits``, ``plancache.misses``, ...) on a
        :class:`repro.obs.Tracer`."""
        for name, value in self.counters().items():
            tracer.counter(f"plancache.{name}", value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tier = f"root={self.root}" if self.root is not None else "memory-only"
        return (
            f"PlanCache({tier}, entries={len(self._memory)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


# ---------------------------------------------------------------------------
# Cache resolution: the engine's ``cache=`` keyword accepts several spellings
# so call sites stay one-liners.
# ---------------------------------------------------------------------------

_MEMORY_SINGLETON: PlanCache | None = None
_DISK_SINGLETON: PlanCache | None = None


def memory_cache() -> PlanCache:
    """The process-wide memory-only cache (``cache="memory"``)."""
    global _MEMORY_SINGLETON
    if _MEMORY_SINGLETON is None:
        _MEMORY_SINGLETON = PlanCache()
    return _MEMORY_SINGLETON


def disk_cache(root: str | Path = DEFAULT_PLAN_ROOT) -> PlanCache:
    """The process-wide disk-backed cache (``cache="disk"``).

    The singleton is keyed to :data:`DEFAULT_PLAN_ROOT`; asking for another
    root returns a fresh cache over that directory.
    """
    global _DISK_SINGLETON
    root = Path(root)
    if root == DEFAULT_PLAN_ROOT:
        if _DISK_SINGLETON is None:
            _DISK_SINGLETON = PlanCache(root)
        return _DISK_SINGLETON
    return PlanCache(root)


def resolve_cache(cache) -> PlanCache | None:
    """Normalize the engine's ``cache=`` argument to a :class:`PlanCache`.

    Accepted spellings: ``None``/``False`` (no cache), a :class:`PlanCache`
    instance, ``True`` or ``"memory"`` (process-wide in-memory cache),
    ``"disk"`` (process-wide cache under ``results/plans/``), or any other
    string / :class:`~pathlib.Path` naming a disk-tier directory.
    """
    if cache is None or cache is False:
        return None
    if isinstance(cache, PlanCache):
        return cache
    if cache is True or cache == "memory":
        return memory_cache()
    if cache == "disk":
        return disk_cache()
    if isinstance(cache, (str, Path)):
        return disk_cache(Path(cache))
    raise TypeError(
        f"cache must be None, bool, 'memory', 'disk', a path, or a "
        f"PlanCache; got {type(cache).__name__}"
    )

