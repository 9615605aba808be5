"""The synchronous word-level network simulator.

One *data-transfer step* advances the whole machine at once, exactly as the
paper's SIMD word-level model prescribes:

* every directed link of a point-to-point network forwards at most one
  packet;
* every hypermesh net realizes at most one partial permutation (each member
  node injects at most one packet into the net and accepts at most one from
  it);
* packets that lose arbitration wait in unbounded FIFO buffers at their
  current node.

:func:`route_permutation` drives one packet per node adaptively with a
per-topology :class:`~repro.sim.routers.Router` and **records** every move,
returning a :class:`~repro.sim.schedule.CommSchedule` plus congestion
statistics.  :func:`route_demands` generalizes to arbitrary multisets of
``(source, destination)`` packets — h-relations — under the very same
channel constraints, which is how the blocked FFT's m-relation bit reversal
can be *executed* rather than only planned.

Arbitration policies
--------------------

Buffers are FIFO, but *channel arbitration* admits two disciplines, chosen
with the ``arbitration`` keyword:

``"overtaking"`` (default)
    Every queued packet proposes its next hop each step, in node order then
    FIFO position.  A packet behind a blocked head-of-line packet may
    therefore leave first if its channel is free.  This is the seed engine's
    behaviour and the baseline all published step counts use;
    ``blocked_moves`` counts every denied proposal, including overtakers'.

``"fifo"``
    Head-of-line-respecting: the first denied packet in a queue blocks the
    rest of that queue for the step, so departures respect arrival order
    exactly.  ``blocked_moves`` counts only the head denial (the packets
    behind it never reach a channel), and ``max_queue_depth`` measures
    buffering under strict FIFO service.

Engine internals and the equivalence guarantee
----------------------------------------------

The arbitration loop is indexed rather than scanned: an active-node
worklist visits only nodes with queued packets, queues are intrusive
doubly-linked lists giving O(1) grant/dequeue, next hops and hypermesh net
ids are cached per packet position (routers are pure functions of
``(current, dest)``, so each is computed once per hop instead of once per
step), and ``max_queue_depth`` is maintained incrementally.  None of this
changes behaviour: under the default policy the engine produces
**bit-identical** schedules and statistics to the seed loop preserved in
:mod:`repro.sim._reference`, which the equivalence suite asserts on every
topology family.

Instrumentation: pass ``on_step`` to observe each committed step, and pass
``timing=True`` to record host-side per-step wall-clock into
``RoutingStats.per_step_seconds`` (:mod:`repro.sim.tracing` renders both).
Timing is opt-in because the two clock reads per step are measurable
overhead at small N; untimed runs leave ``per_step_seconds`` empty, which
the renderers and equality comparisons already tolerate.

Plan caching
------------

Routing is a pure function of ``(topology, demands, router, arbitration)``,
so both entry points accept a ``cache=`` argument (see
:mod:`repro.sim.plancache`): ``"memory"``/``"disk"``/a path/a
:class:`~repro.sim.plancache.PlanCache` consult the cache before
arbitrating and record the schedule after a miss; a hit replays the stored
steps and counters **bit-identically** (the equivalence suite enforces
this).  ``cache=False`` forces live routing even when a process-wide
default is installed via
:func:`~repro.sim.plancache.set_process_default`; runs with ``on_step`` or
``timing`` instrumentation always route live (counted as ``bypassed``).

Fault injection
---------------

Both entry points accept ``fault_model=`` (a
:class:`~repro.faults.model.FaultModel`).  A model with nothing enabled is
contractually a **no-op**: the engine takes the fault-free path above and
output is bit-identical to passing no model (the fuzz suite enforces
this).  An enabled model is handed to the picked core (``"indexed"``
runs :func:`~repro.sim.degraded.route_core_degraded`, ``"numpy"`` the
same structure-of-arrays core as fault-free jobs; bit-identical by
contract) — minimal detours around dead links/nodes/nets, serialized
sub-transfers on degraded hypermesh nets, and retry/drop semantics with
``dropped`` / ``retried`` accounting on :class:`RoutingStats` (observable
per event via ``on_fault``).  The fault configuration is folded into the
plan-cache key, so a faulted run can never replay a fault-free plan or
vice versa; runs
carrying an ``on_fault`` hook route live (counted as ``fault_bypassed``).
See docs/FAULTS.md for the full semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Mapping, Sequence

import numpy as np

from ..faults.model import FaultModel
from ..networks.base import ChannelModel, HypergraphTopology, Topology
from ..routing.permutation import Permutation
from . import plancache as _plancache
from .backends import (
    ARBITRATION_POLICIES,
    _check_arbitration,
    choose_backend,
    resolve_backend,
)
from .degraded import FaultCallback, route_core_degraded
from .routers import Router, router_for
from .schedule import CommSchedule, ScheduleError
from .stats import RoutingStats

__all__ = [
    "ARBITRATION_POLICIES",
    "StepCallback",
    "RoutedPermutation",
    "RoutedDemands",
    "route_permutation",
    "route_demands",
    "replay_schedule",
]

#: Smallest batch worth handing to ``Router.next_hop_array``: below this,
#: NumPy's fixed per-call overhead loses to scalar next-hop computation.
_VECTOR_REFILL_MIN = 64

#: Queue depth at which the engine abandons compact list queues: past this,
#: ``list.remove`` degrades toward the seed loop's O(depth) scans and the
#: intrusive linked lists win.
_COMPACT_MAX_DEPTH = 8

#: Signature of the ``on_step`` instrumentation hook: called after each
#: committed step with ``(step_index, moves, stats)``.  ``moves`` is the
#: engine's live step record — treat it as read-only.
StepCallback = Callable[[int, Mapping[int, int], RoutingStats], None]


def _degraded_max_steps(
    base: int, fault_model: FaultModel, packets: int
) -> int:
    """Inflate the fault-free ``max_steps`` default for a degraded run.

    The bound is derived from what a degraded run can legitimately spend:

    * ``4 * base`` covers minimal detours on the surviving graph (longer
      than the intact diameter) plus the congestion they induce;
    * with a **finite retry budget**, lossy transmission consumes at most
      ``retry_limit + 1`` attempts per packet before the packet drops, and
      every step in which *all* granted transmissions fail still burns at
      least one attempt from some packet's budget — so
      ``packets * (retry_limit + 1)`` extra steps suffice for any drop
      probability, however close to 1;
    * with an **unbounded** retry budget, expected transmissions stretch by
      ``1/(1 - p)``; the divisor is clamped so ``drop_prob=1`` still
      terminates in a :class:`ScheduleError` rather than spinning forever.

    The old fixed ``scale = 4.0 / max(1-p, 0.02)`` under-inflated exactly
    in the finite-budget case: a packet with ``p`` close to 1 and a large
    ``retry_limit`` is *legal but slow* (expected ``1/(1-p)`` steps per
    hop, far beyond the clamped 50x) and used to hit the ceiling mid-run.
    """
    bound = 4 * base  # headroom for minimal detours, rerouted congestion
    if fault_model.drop_prob > 0.0:
        if fault_model.retry_limit is not None:
            bound += packets * (int(fault_model.retry_limit) + 1)
        else:
            bound = int(bound / max(1.0 - fault_model.drop_prob, 0.02))
    return bound + 16


@dataclass(frozen=True)
class RoutedPermutation:
    """Result of adaptively routing a permutation."""

    schedule: CommSchedule
    stats: RoutingStats


@dataclass(frozen=True)
class RoutedDemands:
    """Result of adaptively routing an arbitrary packet multiset.

    ``steps[s][packet_index] = node moved to during step s`` — the same
    time-expanded encoding as :class:`CommSchedule`, but packets are
    identified by their index into ``demands`` and may start anywhere.
    """

    demands: tuple[tuple[int, int], ...]
    steps: tuple[dict[int, int], ...]
    stats: RoutingStats


def _route_core(
    topology: Topology,
    sources: Sequence[int],
    dests: Sequence[int],
    router: Router,
    max_steps: int,
    *,
    arbitration: str = "overtaking",
    on_step: StepCallback | None = None,
    timing: bool = False,
    fault_model: FaultModel | None = None,
    on_fault: FaultCallback | None = None,
) -> tuple[list[dict[int, int]], RoutingStats]:
    """Shared indexed arbitration loop for permutation and h-relation routing.

    A fault model hands the job to the indexed degraded loop,
    :func:`~repro.sim.degraded.route_core_degraded`.
    """
    if fault_model is not None:
        return route_core_degraded(
            topology, sources, dests, router, max_steps, fault_model,
            arbitration=arbitration, on_step=on_step, on_fault=on_fault,
            timing=timing,
        )
    _check_arbitration(arbitration)
    fifo = arbitration == "fifo"
    n = topology.num_nodes
    hypergraph = topology.channel_model is ChannelModel.HYPERGRAPH_NET
    if hypergraph and not isinstance(topology, HypergraphTopology):
        raise TypeError(
            f"hypergraph channel model requires a HypergraphTopology, "
            f"got {type(topology).__name__}"
        )
    shared_net = topology.shared_net if hypergraph else None
    next_hop = router.next_hop
    # Routers that answer elementwise (next_hop_array) let the engine refill
    # the per-packet hop cache in one NumPy call per step instead of one
    # Python call per hop.  Hypergraph routing stays scalar: it needs the
    # net id alongside the hop.
    next_hop_array = (
        getattr(router, "next_hop_array", None) if not hypergraph else None
    )

    npk = len(sources)
    position = list(sources)
    dests = list(dests)

    # Two FIFO queue representations, used in sequence.  While the network
    # is crowded and queues are shallow ("compact" phase), one Python list
    # per node — the seed loop's exact layout — wins: C-speed append and
    # remove beat Python-level pointer surgery, and scanning range(n) costs
    # nothing when most nodes hold a packet.  Once traffic thins, or a queue
    # deepens past _COMPACT_MAX_DEPTH (where list.remove degrades to the
    # seed's O(depth) scans), the engine switches to intrusive doubly
    # linked lists with an active-node worklist: O(1) unlink, no empty-node
    # scanning.  in_flight never grows and the depth high-water mark never
    # falls, so the switch happens at most once per run.
    in_flight = sum(
        1 for pid in range(npk) if position[pid] != dests[pid]
    )

    queues: list[list[int]] | None = None
    q_head: list[int] = []
    q_tail: list[int] = []
    q_len: list[int] = []
    q_prev: list[int] = []
    q_next: list[int] = []
    # Worklist of nodes holding packets, kept in ascending order so the
    # proposal sweep visits them exactly as the seed's range(n) scan did.
    active: list[int] = []
    in_active = bytearray(n)

    if 4 * in_flight >= n:
        # Crowded start: compact queues (allocating n lists only pays off
        # when most of them will hold something).
        queues = [[] for _ in range(n)]
        for pid in range(npk):
            node = position[pid]
            if node != dests[pid]:
                queues[node].append(pid)
        initial_depth = max(map(len, queues), default=0)
    else:
        # Sparse start: build the indexed structures directly.
        q_head = [-1] * n
        q_tail = [-1] * n
        q_len = [0] * n
        q_prev = [-1] * npk
        q_next = [-1] * npk
        for pid in range(npk):
            node = position[pid]
            if node != dests[pid]:
                tail = q_tail[node]
                if tail == -1:
                    q_head[node] = pid
                else:
                    q_next[tail] = pid
                    q_prev[pid] = tail
                q_tail[node] = pid
                q_len[node] += 1
        active = [node for node in range(n) if q_len[node]]
        for node in active:
            in_active[node] = 1
        initial_depth = max(q_len, default=0)

    # Per-packet caches: a deterministic router's next hop (and, on
    # hypergraph networks, the net it rides) is a function of the packet's
    # position, so compute it once per hop rather than once per step.
    NO_HOP = -2  # router said "already home" — mirror seed's skip-forever
    cached_next = [-1] * npk
    cached_net = [-1] * npk
    # On the vectorized path, packets whose cached hop must be (re)computed
    # before the next propose sweep: every in-flight packet now, then each
    # packet that moves without being delivered.
    stale: list[int] = (
        [pid for pid in range(npk) if position[pid] != dests[pid]]
        if next_hop_array is not None
        else []
    )

    stats = RoutingStats()
    delivered = stats.delivered = npk - in_flight
    stats.max_queue_depth = initial_depth
    steps: list[dict[int, int]] = []
    blocked = 0  # stats.blocked_moves, kept in a local off the hot path
    # Host timing is opt-in: the two clock reads and the append cost real
    # time per step (visible at small N), so untimed runs skip them.
    per_step_seconds = stats.per_step_seconds if timing else None

    while in_flight:
        t0 = perf_counter() if per_step_seconds is not None else 0.0
        if stats.steps >= max_steps:
            raise ScheduleError(
                f"{in_flight} packets undelivered after {max_steps} steps"
            )
        if stale:
            if len(stale) >= _VECTOR_REFILL_MIN:
                hops = next_hop_array(
                    [position[pid] for pid in stale],
                    [dests[pid] for pid in stale],
                ).tolist()
                for pid, hop in zip(stale, hops):
                    cached_next[pid] = hop
            else:
                # Below the crossover, NumPy's fixed per-call cost loses to
                # scalar routing (the tail of a run is many sparse steps).
                for pid in stale:
                    hop = next_hop(position[pid], dests[pid])
                    cached_next[pid] = NO_HOP if hop is None else hop
            stale = []
        if queues is not None and (
            4 * in_flight < n or stats.max_queue_depth > _COMPACT_MAX_DEPTH
        ):
            # One-way switch: rebuild the compact queues as linked lists
            # (FIFO order preserved) and record which nodes hold packets.
            q_head = [-1] * n
            q_tail = [-1] * n
            q_len = [0] * n
            q_prev = [-1] * npk
            q_next = [-1] * npk
            for node in range(n):
                q = queues[node]
                if not q:
                    continue
                active.append(node)
                in_active[node] = 1
                prev = -1
                for pid in q:
                    if prev == -1:
                        q_head[node] = pid
                    else:
                        q_next[prev] = pid
                        q_prev[pid] = prev
                    prev = pid
                q_tail[node] = prev
                q_len[node] = len(q)
            queues = None
        moves: dict[int, int] = {}
        # The commit below applies `granted`, an explicit list in grant
        # (= priority) order, never `moves.items()`: the step record's dict
        # iteration order must be a *consequence* of arbitration order, not
        # an input to the committed state — a backend that built the dict
        # differently would otherwise silently change queue contents.
        granted: list[tuple[int, int]] = []
        # Channels claimed this step, encoded as ints for cheap set probes:
        # directed link (node, nxt) -> node * n + nxt; net port pairs
        # (net, node) -> net * n + node (separate inject/deliver sets).
        used_links: set[int] = set()
        used_inject: set[int] = set()
        used_deliver: set[int] = set()

        # Propose in deterministic order: node index, then FIFO position.
        # Two sweeps with identical arbitration bodies — the compact phase
        # iterates each node's list, the indexed phase walks linked queues.
        if queues is not None:
            for node in range(n):
                for pid in queues[node]:
                    nxt = cached_next[pid]
                    if nxt == -1:
                        hop = next_hop(node, dests[pid])
                        if hop is None:
                            nxt = cached_next[pid] = NO_HOP
                        else:
                            nxt = cached_next[pid] = hop
                            if hypergraph:
                                net = shared_net(node, hop)
                                if net is None:
                                    raise ScheduleError(
                                        f"router proposed non-net hop "
                                        f"{node} -> {hop}"
                                    )
                                cached_net[pid] = net
                    if nxt == NO_HOP:
                        continue
                    if hypergraph:
                        inject = cached_net[pid] * n + node
                        deliver = cached_net[pid] * n + nxt
                        if inject in used_inject or deliver in used_deliver:
                            blocked += 1
                            if fifo:
                                break  # head of line holds the queue
                            continue
                        used_inject.add(inject)
                        used_deliver.add(deliver)
                    else:
                        link = node * n + nxt
                        if link in used_links:
                            blocked += 1
                            if fifo:
                                break
                            continue
                        used_links.add(link)
                    moves[pid] = nxt
                    granted.append((pid, nxt))
        else:
            for node in active:
                pid = q_head[node]
                while pid != -1:
                    nxt = cached_next[pid]
                    if nxt == -1:
                        hop = next_hop(node, dests[pid])
                        if hop is None:
                            nxt = cached_next[pid] = NO_HOP
                        else:
                            nxt = cached_next[pid] = hop
                            if hypergraph:
                                net = shared_net(node, hop)
                                if net is None:
                                    raise ScheduleError(
                                        f"router proposed non-net hop "
                                        f"{node} -> {hop}"
                                    )
                                cached_net[pid] = net
                    if nxt == NO_HOP:
                        pid = q_next[pid]
                        continue
                    if hypergraph:
                        inject = cached_net[pid] * n + node
                        deliver = cached_net[pid] * n + nxt
                        if inject in used_inject or deliver in used_deliver:
                            blocked += 1
                            if fifo:
                                break  # head of line holds the queue
                            pid = q_next[pid]
                            continue
                        used_inject.add(inject)
                        used_deliver.add(deliver)
                    else:
                        link = node * n + nxt
                        if link in used_links:
                            blocked += 1
                            if fifo:
                                break
                            pid = q_next[pid]
                            continue
                        used_links.add(link)
                    moves[pid] = nxt
                    granted.append((pid, nxt))
                    pid = q_next[pid]

        if not moves:
            raise ScheduleError(
                f"deadlock: {in_flight} packets queued but none can move"
            )

        # Apply the granted moves.
        grew: list[int] = []
        max_depth = stats.max_queue_depth
        if queues is not None:
            for pid, nxt in granted:
                queues[position[pid]].remove(pid)
                position[pid] = nxt
                if nxt == dests[pid]:
                    # Delivered: its stale cache entry is never read again.
                    delivered += 1
                    in_flight -= 1
                else:
                    if next_hop_array is not None:
                        stale.append(pid)  # batch refill overwrites it
                    else:
                        cached_next[pid] = -1
                    queues[nxt].append(pid)
                    grew.append(nxt)
            # Only queues that received a packet can set a depth record.
            for node in grew:
                if len(queues[node]) > max_depth:
                    max_depth = len(queues[node])
        else:
            newly_active: list[int] = []
            for pid, nxt in granted:
                node = position[pid]
                prv, fol = q_prev[pid], q_next[pid]
                if prv == -1 and fol == -1:
                    # Singleton queue (the common case under light load):
                    # the packet's own links are already -1.
                    q_head[node] = -1
                    q_tail[node] = -1
                else:
                    if prv == -1:
                        q_head[node] = fol
                    else:
                        q_next[prv] = fol
                    if fol == -1:
                        q_tail[node] = prv
                    else:
                        q_prev[fol] = prv
                    q_prev[pid] = q_next[pid] = -1
                q_len[node] -= 1

                position[pid] = nxt
                if nxt == dests[pid]:
                    # Delivered: its stale cache entry is never read again.
                    delivered += 1
                    in_flight -= 1
                else:
                    if next_hop_array is not None:
                        stale.append(pid)  # batch refill overwrites it
                    else:
                        cached_next[pid] = -1
                    tail = q_tail[nxt]
                    if tail == -1:
                        q_head[nxt] = pid
                    else:
                        q_next[tail] = pid
                        q_prev[pid] = tail
                    q_tail[nxt] = pid
                    q_len[nxt] += 1
                    grew.append(nxt)
                    if not in_active[nxt]:
                        in_active[nxt] = 1
                        newly_active.append(nxt)

            # Refresh the worklist: drop drained nodes, merge new arrivals.
            still_active = []
            for node in active:
                if q_len[node]:
                    still_active.append(node)
                else:
                    in_active[node] = 0
            if newly_active:
                newly_active.sort()
                still_active += newly_active
                still_active.sort()  # two sorted runs: Timsort merge, O(len)
            active = still_active
            for node in grew:
                if q_len[node] > max_depth:
                    max_depth = q_len[node]

        steps.append(moves)
        stats.steps += 1
        stats.total_hops += len(moves)
        stats.per_step_moves.append(len(moves))
        stats.blocked_moves = blocked
        stats.delivered = delivered
        stats.max_queue_depth = max_depth
        if per_step_seconds is not None:
            per_step_seconds.append(perf_counter() - t0)
        if on_step is not None:
            on_step(stats.steps - 1, moves, stats)

    return steps, stats


def _resolve_plan_cache(
    cache,
    on_step: StepCallback | None,
    timing: bool,
    fault_hook: bool = False,
) -> "_plancache.PlanCache | None":
    """Normalize a ``cache=`` argument, honouring the process default.

    ``cache=None`` (the keyword's default) consults the process-wide
    default installed by :func:`repro.sim.plancache.set_process_default`;
    ``cache=False`` always routes live.  Instrumented runs (``on_step`` or
    ``timing``) bypass the cache — a replay has no live stats to stream and
    spent no per-step host time — and are counted as ``bypassed``.
    ``fault_hook`` marks a run with an active fault model carrying an
    ``on_fault`` hook: it bypasses for the same reason (a replay fires no
    fault events) but is counted separately as ``fault_bypassed`` so
    ``repro plans stats`` shows how much traffic fault instrumentation
    keeps out of the cache.
    """
    if cache is None:
        resolved = _plancache.process_default()
    else:
        resolved = _plancache.resolve_cache(cache)
    if resolved is None:
        return None
    if fault_hook:
        resolved.fault_bypassed += 1
        return None
    if on_step is not None or timing:
        resolved.bypassed += 1
        return None
    return resolved


def _route_or_replay(
    topology: Topology,
    sources: list[int],
    dests: list[int],
    router: Router,
    max_steps: int,
    *,
    arbitration: str,
    on_step: StepCallback | None,
    timing: bool,
    cache,
    fault_model: FaultModel | None = None,
    on_fault: FaultCallback | None = None,
    backend: str | None = None,
) -> tuple[list[dict[int, int]], RoutingStats]:
    """Cache-aware front of the routing cores: replay a recorded plan on a
    hit, route live (and record) on a miss.

    ``backend=None`` runs the core :func:`~repro.sim.backends.
    choose_backend` picks for the job's packet count; a name forces that
    core.  It is resolved *before* the cache is consulted so unknown names
    fail fast instead of being masked by a hit.  It is deliberately
    **not** part of the plan key — the cores are bit-identical by
    contract, so a plan recorded by one replays for all.

    An *enabled* fault model rides along to the same core, picked by the
    same rule, and folds its fingerprint into the plan key: the faulted
    and fault-free variants of one problem are distinct cache entries by
    construction.  A disabled model is treated exactly as no model at all.
    """
    if fault_model is not None and not fault_model.enabled:
        fault_model = None  # attached-but-empty: contractual no-op
    _check_arbitration(arbitration)
    if backend is None:
        backend = choose_backend(len(sources))
    route_core = resolve_backend(backend)
    cache_obj = _resolve_plan_cache(
        cache, on_step, timing,
        fault_hook=fault_model is not None and on_fault is not None,
    )
    key = None
    if cache_obj is not None:
        key = _plancache.plan_key(
            topology, sources, dests, router, arbitration, fault_model
        )
        if key is None:
            cache_obj.uncacheable += 1  # unregistered router: route live
        else:
            plan = cache_obj.get(key)
            if plan is not None:
                return plan.replay_steps(), plan.replay_stats()
    steps, stats = route_core(
        topology,
        sources,
        dests,
        router,
        max_steps,
        arbitration=arbitration,
        on_step=on_step,
        timing=timing,
        fault_model=fault_model,
        on_fault=on_fault,
    )
    if key is not None:
        cache_obj.put(key, _plancache.CachedPlan.from_run(steps, stats))
    return steps, stats


def route_permutation(
    topology: Topology,
    perm: Permutation,
    router: Router | None = None,
    *,
    max_steps: int | None = None,
    arbitration: str = "overtaking",
    backend: str | None = None,
    on_step: StepCallback | None = None,
    timing: bool = False,
    cache=None,
    fault_model: FaultModel | None = None,
    on_fault: FaultCallback | None = None,
) -> RoutedPermutation:
    """Route one packet per node to ``perm[node]`` and record the schedule.

    Parameters
    ----------
    topology:
        Network to route on.
    perm:
        Destination of the packet starting at each node.
    router:
        Routing discipline; defaults to the topology's canonical router.
        Must be deterministic — a pure function of ``(current, dest)`` —
        because the engine caches each packet's next hop per position.
    max_steps:
        Safety bound; defaults to ``10 * diameter + 10 * N`` which no
        deterministic minimal-path discipline on these topologies exceeds.
    arbitration:
        Channel-arbitration policy, ``"overtaking"`` (seed-identical
        default) or ``"fifo"`` — see the module docstring.
    backend:
        Arbitration core.  ``None`` (default) lets the engine pick by
        packet count (:func:`~repro.sim.backends.choose_backend`);
        ``"indexed"`` or ``"numpy"`` forces one, as the equivalence
        suites do.  The cores are bit-identical by contract (schedule,
        stats, and plan-cache digests alike), so this only changes how
        fast the answer is computed, fault-injected runs included.  See
        :mod:`repro.sim.backends`.
    on_step:
        Optional :data:`StepCallback` invoked after every committed step.
    timing:
        Record host wall-clock per step into ``stats.per_step_seconds``
        (opt-in; untimed runs leave it empty and skip the clock reads).
    cache:
        Plan cache mode — ``False`` (route live even past a process
        default), ``"memory"``, ``"disk"``, a directory path, or a
        :class:`~repro.sim.plancache.PlanCache`.  ``None`` (default) uses
        the process default if one is installed.  A hit replays the
        recorded schedule and stats bit-identically; ``on_step``/``timing``
        runs bypass the cache.
    fault_model:
        Optional :class:`~repro.faults.model.FaultModel`.  Disabled models
        are bit-identical no-ops; enabled models reroute around dead
        links/nodes/nets, serialize degraded hypermesh nets, and apply
        retry/drop semantics (see the module docstring and docs/FAULTS.md).
        Note that a faulted permutation whose packets get *dropped* no
        longer realizes ``perm`` — ``schedule.validate()`` will then raise,
        by design.
    on_fault:
        Optional :data:`~repro.sim.degraded.FaultCallback` observing every
        retry and drop (only ever fired by an enabled fault model).

    Raises
    ------
    ScheduleError
        If packets are undeliverable within ``max_steps`` (e.g. a router
        proposing non-neighbours, which validation would also catch).
    UnroutableError
        If an enabled fault model leaves a packet's destination dead or
        partitioned away from its source.
    """
    n = topology.num_nodes
    if perm.n != n:
        raise ValueError(f"permutation on {perm.n} points, topology has {n} nodes")
    router = router or router_for(topology)
    if max_steps is None:
        max_steps = 10 * topology.diameter + 10 * n
        if fault_model is not None and fault_model.enabled:
            max_steps = _degraded_max_steps(max_steps, fault_model, n)

    steps, stats = _route_or_replay(
        topology,
        list(range(n)),
        perm.destinations.tolist(),
        router,
        max_steps,
        arbitration=arbitration,
        on_step=on_step,
        timing=timing,
        cache=cache,
        fault_model=fault_model,
        on_fault=on_fault,
        backend=backend,
    )
    schedule = CommSchedule(
        topology=topology, logical=perm, steps=tuple(steps)
    )
    return RoutedPermutation(schedule=schedule, stats=stats)


def route_demands(
    topology: Topology,
    demands: Sequence[tuple[int, int]],
    router: Router | None = None,
    *,
    max_steps: int | None = None,
    arbitration: str = "overtaking",
    backend: str | None = None,
    on_step: StepCallback | None = None,
    timing: bool = False,
    cache=None,
    fault_model: FaultModel | None = None,
    on_fault: FaultCallback | None = None,
) -> RoutedDemands:
    """Route an arbitrary packet multiset (an h-relation) adaptively.

    Each ``demands[k] = (source, destination)`` packet starts at its source;
    several packets may share a source or a destination — the channel
    constraints (one packet per directed link per step; one injection and
    one delivery per net port per step) still apply, so congestion shows up
    as steps, exactly as the word model prescribes.

    The ``max_steps`` default scales with the relation's degree ``h``.
    ``arbitration``, ``backend``, ``on_step``, ``timing``, ``cache``,
    ``fault_model`` and ``on_fault`` behave as in
    :func:`route_permutation`.
    """
    n = topology.num_nodes
    demands = list(demands)
    topology.validate_demands(demands)
    router = router or router_for(topology)
    if max_steps is None:
        out = [0] * n
        inc = [0] * n
        for src, dst in demands:
            if src != dst:
                out[src] += 1
                inc[dst] += 1
        h = max(max(out, default=0), max(inc, default=0), 1)
        max_steps = h * (10 * topology.diameter + 10 * n)
        if fault_model is not None and fault_model.enabled:
            max_steps = _degraded_max_steps(
                max_steps, fault_model, len(demands)
            )

    sources = [src for src, _ in demands]
    dests = [dst for _, dst in demands]
    steps, stats = _route_or_replay(
        topology,
        sources,
        dests,
        router,
        max_steps,
        arbitration=arbitration,
        on_step=on_step,
        timing=timing,
        cache=cache,
        fault_model=fault_model,
        on_fault=on_fault,
        backend=backend,
    )
    return RoutedDemands(
        demands=tuple((int(s), int(d)) for s, d in demands),
        steps=tuple(steps),
        stats=stats,
    )


def replay_schedule(schedule: CommSchedule) -> int:
    """Validate a schedule against the hardware model and return its step
    count.  Thin convenience wrapper so benchmark code reads naturally."""
    schedule.validate()
    return schedule.num_steps


def _shared_net_id(topology: Topology, a: int, b: int) -> int | None:
    """Net shared by two nodes (kept for callers of the seed-era helper).

    The engine now uses the topology's own cached/closed-form
    :meth:`~repro.networks.base.HypergraphTopology.shared_net`; this wrapper
    survives so external code keyed to the old name keeps working, and it
    raises :class:`TypeError` (not a strippable ``assert``) on non-hypergraph
    topologies.
    """
    if not isinstance(topology, HypergraphTopology):
        raise TypeError(
            f"net lookup needs a HypergraphTopology, got {type(topology).__name__}"
        )
    return topology.shared_net(a, b)
