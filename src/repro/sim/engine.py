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

The core and the equivalence guarantee
--------------------------------------

Every job, fault-free or faulted, runs on one arbitration loop,
:func:`_route_core`: a structure-of-arrays core that holds packet
positions, destinations, next hops and the queue priority order in flat
``int64`` arrays and advances whole steps at a time.  None of this changes
behaviour: the core produces **bit-identical** schedules (step dicts in
insertion order) and statistics to the two step-loop oracles kept in
:mod:`repro.sim._reference` — the frozen seed loop (overtaking,
fault-free) and the degraded loop (both policies; with an empty
:class:`~repro.faults.model.FaultModel` it is also the fault-free FIFO
oracle).  The equivalence suites and the differential fuzz harness
assert this on every topology family; no runtime path imports the
oracles.

Why the arbitration vectorizes: the reference sweep proposes in priority
order (node index, then FIFO position) and claims a channel **only when a
move is granted**.  Under ``"overtaking"`` every queued packet proposes
exactly once per step, so on point-to-point networks the grant set is
simply "the first proposal in priority order for each directed link" —
computable with one stable argsort over link codes.  On hypergraph
networks a proposal must be first on *two* codes at once (net inject port
and net deliver port), which a single pass cannot decide: a packet that
loses one code to an earlier-denied packet may still win.  Iterating
rounds — grant every remaining proposal that is first on both codes among
the remaining, deny (and count) the ones that conflict with a grant,
repeat — reproduces the sequential sweep exactly and terminates because
the earliest remaining proposal always wins both its codes.  ``"fifo"``
arbitration is genuinely sequential (a denial silences the rest of that
node's queue, which can un-deny later channels), so it stays a Python loop
over the priority-ordered proposals.

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
this).  ``cache=None`` (the default) and ``cache=False`` route live; runs
with ``on_step`` or ``timing`` instrumentation always route live (counted
as ``bypassed``).

Fault injection
---------------

Both entry points accept ``fault_model=`` (a
:class:`~repro.faults.model.FaultModel`).  A model with nothing enabled is
contractually a **no-op**: the engine takes the fault-free path above and
output is bit-identical to passing no model (the fuzz suite enforces
this).  An enabled model rides along to the same core — minimal detours
around dead links/nodes/nets, serialized sub-transfers on degraded
hypermesh nets, and retry/drop semantics with ``dropped`` / ``retried``
accounting on :class:`RoutingStats` (observable per event via
``on_fault``).  The fault configuration is folded into the plan-cache key,
so a faulted run can never replay a fault-free plan or vice versa; runs
carrying an ``on_fault`` hook route live (counted as ``fault_bypassed``).
See docs/FAULTS.md for the full semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Mapping, Sequence

import numpy as np

from ..faults.model import FaultModel
from ..faults.routing import FaultAwareRouter
from ..networks.base import ChannelModel, HypergraphTopology, Topology
from ..routing.permutation import Permutation
from . import plancache as _plancache
from .routers import Router, router_for
from .schedule import CommSchedule, ScheduleError
from .stats import RoutingStats

__all__ = [
    "ARBITRATION_POLICIES",
    "StepCallback",
    "FaultCallback",
    "RoutedPermutation",
    "RoutedDemands",
    "route_permutation",
    "route_demands",
]

#: Channel-arbitration disciplines accepted by the engine.
ARBITRATION_POLICIES = ("overtaking", "fifo")

#: Signature of the ``on_step`` instrumentation hook: called after each
#: committed step with ``(step_index, moves, stats)``.  ``moves`` is the
#: engine's live step record — treat it as read-only.
StepCallback = Callable[[int, Mapping[int, int], RoutingStats], None]

#: Signature of the ``on_fault`` hook: ``(kind, step, packet, node,
#: attempts)`` where ``kind`` is ``"retry"`` or ``"drop"``, ``node`` is the
#: packet's position when the transmission failed, and ``attempts`` is its
#: cumulative failed-transmission count.
FaultCallback = Callable[[str, int, int, int, int], None]

#: ``next_hop`` returned ``None`` for a queued packet (the router considers
#: it home): mirror the reference sweep's skip-forever.
_NO_HOP = -2


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


def _check_arbitration(arbitration: str) -> None:
    """Raise the engine's named :class:`ValueError` for an unknown policy."""
    if arbitration not in ARBITRATION_POLICIES:
        raise ValueError(
            f"unknown arbitration policy {arbitration!r}; "
            f"expected one of {ARBITRATION_POLICIES}"
        )


def _first_claim_wins(codes: np.ndarray) -> np.ndarray:
    """Grant mask over priority-ordered channel codes: first claim wins.

    ``codes[i]`` is the channel the ``i``-th proposal (in priority order)
    wants; the mask is ``True`` exactly where a proposal is the first for
    its channel.  The stable mergesort keeps equal codes in priority order,
    so "first in the sorted run" is "first proposed".
    """
    m = codes.shape[0]
    perm = np.argsort(codes, kind="mergesort")
    ranked = codes[perm]
    first = np.ones(m, dtype=np.bool_)
    first[1:] = ranked[1:] != ranked[:-1]
    mask = np.zeros(m, dtype=np.bool_)
    mask[perm] = first
    return mask


def _claimed(codes: np.ndarray, granted: np.ndarray) -> np.ndarray:
    """Elementwise: is ``codes[i]`` one of the (non-empty) ``granted``
    codes?  ``np.isin``'s mask by binary search over the sorted grants:
    ``np.isin`` itself sorts through ``np.unique`` (which on NumPy 2.x
    imports ``numpy.ma``, a cost every new service worker pays again),
    and its ``kind="table"`` allocates one byte per code in the grants'
    range — up to ``nets × n``, 8 MB on an 8^4 hypermesh."""
    ranked = np.sort(granted)
    at = np.minimum(np.searchsorted(ranked, codes), ranked.size - 1)
    return ranked[at] == codes


def _step_moves(
    ints: list[int], pids: np.ndarray, hops: np.ndarray
) -> dict[int, int]:
    """One step's ``{packet: hop}`` dict, keyed and valued by the run's
    shared ``ints`` (``ints[i] == i``).  ``tolist()`` makes two fresh int
    objects per move, which a recorded schedule would keep alive for its
    whole life; the shared ints are allocated once per run."""
    get = ints.__getitem__
    return dict(zip(map(get, pids.tolist()), map(get, hops.tolist())))


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
    """The engine's arbitration loop, for permutations and h-relations,
    fault-free or faulted.

    Bit-identical output to the oracles in :mod:`repro.sim._reference` —
    step dicts in insertion order, :class:`RoutingStats` including
    ``dropped`` and ``retried``, the same seeded drop draws and the same
    error messages — is the contract.  Queue state is one array:
    ``order`` holds the in-flight packet ids sorted by (node, FIFO
    position), maintained per step by a stable argsort of
    ``concat(stayers in old order, movers in grant order)`` on position —
    stayers keep their relative order ahead of the packets that just
    arrived, exactly the reference's ``deque`` semantics.

    A fault model adds, on the same loop:

    * hops from a :class:`~repro.faults.routing.FaultAwareRouter` (batched
      BFS distance tables, warmed in one bit-parallel BFS up front) and
      ``UnroutableError`` before the first step for a partitioned demand;
    * on a machine with degraded hypermesh nets, a third arbitration code:
      all proposals on one degraded net share a *serial* code, so
      first-claim-wins grants at most one per step, while intact nets get
      unique codes that never constrain them;
    * a transmission phase settling every grant with one batched drop draw
      (:meth:`~repro.faults.model.FaultModel.transmit_ok_batch`, the
      degraded oracle's per-packet hashes), applying retries and drops in
      grant order so ``on_fault`` sees the oracle's event sequence.
    """
    _check_arbitration(arbitration)
    fifo = arbitration == "fifo"
    n = topology.num_nodes
    hypergraph = topology.channel_model is ChannelModel.HYPERGRAPH_NET
    if hypergraph and not isinstance(topology, HypergraphTopology):
        raise TypeError(
            f"hypergraph channel model requires a HypergraphTopology, "
            f"got {type(topology).__name__}"
        )
    # Hypermesh net lookups: the topology's own, or with faults the
    # router's (which skips hard-down nets).
    net_map = topology
    degraded_net = None  # per-net serial flag, on degraded machines only
    if fault_model is not None:
        if not isinstance(router, FaultAwareRouter):
            router = FaultAwareRouter(topology, router, fault_model)
        router.check_routable(sources, dests)
        net_map = router
        degraded_nets = router.faults.degraded_nets
        if hypergraph and degraded_nets:
            num_nets = topology.num_nets()
            degraded_net = np.zeros(num_nets, dtype=bool)
            degraded_net[sorted(degraded_nets)] = True
    next_hop = router.next_hop
    next_hop_array = getattr(router, "next_hop_array", None)
    shared_net = net_map.shared_net if hypergraph else None
    shared_net_array = (
        getattr(net_map, "shared_net_array", None) if hypergraph else None
    )

    npk = len(sources)
    position = np.array(sources, dtype=np.int64)
    dest = np.array(dests, dtype=np.int64)
    ints = list(range(max(npk, n)))

    # Priority order: node index ascending, FIFO position within the node.
    # Initial FIFO position is packet-id order (the reference fills queues
    # by ascending pid), so a stable sort of the ascending in-flight pids
    # by position *is* the initial priority order.
    queued = np.flatnonzero(position != dest)
    order = queued[np.argsort(position[queued], kind="mergesort")]
    in_flight = int(order.size)
    if fault_model is not None:
        attempts = np.zeros(npk, dtype=np.int64)
        retry_limit = fault_model.retry_limit

    stats = RoutingStats()
    delivered = npk - in_flight
    stats.delivered = delivered
    if in_flight:
        stats.max_queue_depth = int(np.bincount(position[order]).max())
    steps: list[dict[int, int]] = []
    blocked = 0
    per_step_seconds = stats.per_step_seconds if timing else None

    while in_flight:
        t0 = perf_counter() if per_step_seconds is not None else 0.0
        if stats.steps >= max_steps:
            raise ScheduleError(
                f"{in_flight} packets undelivered after {max_steps} steps"
            )
        pos = position[order]
        dst = dest[order]
        if next_hop_array is not None:
            # In-flight packets never sit at their destination, so the
            # equal-pair passthrough never fires and every row is a real
            # proposal.
            hops = np.asarray(next_hop_array(pos, dst), dtype=np.int64)
        else:
            hops = np.empty(in_flight, dtype=np.int64)
            pos_list = pos.tolist()
            dst_list = dst.tolist()
            for i in range(in_flight):
                hop = next_hop(pos_list[i], dst_list[i])
                hops[i] = _NO_HOP if hop is None else hop
        proposing = hops != _NO_HOP

        if hypergraph:
            if shared_net_array is not None:
                nets = np.asarray(
                    shared_net_array(pos, np.where(proposing, hops, pos)),
                    dtype=np.int64,
                )
            else:
                nets = np.full(in_flight, -1, dtype=np.int64)
                for i in np.flatnonzero(proposing).tolist():
                    net = shared_net(int(pos[i]), int(hops[i]))
                    nets[i] = -1 if net is None else net
            bad = proposing & (nets < 0)
            if bad.any():
                i = int(np.argmax(bad))
                raise ScheduleError(
                    f"router proposed non-net hop {int(pos[i])} -> "
                    f"{int(hops[i])}"
                )

        # --- arbitration: indices into `order`, ascending == grant order
        if fifo:
            granted_idx, denied = _fifo_arbitrate(
                n, pos, hops, nets if hypergraph else None, degraded_net
            )
            blocked += denied
        elif hypergraph:
            codes = [nets * np.int64(n) + pos, nets * np.int64(n) + hops]
            if degraded_net is not None:
                # Serial codes: every proposal on one degraded net shares
                # that net's id, so first-claim-wins admits one per step;
                # intact-net proposals get unique codes that always win.
                # Only proposers (whose nets are real) are ever consulted.
                codes.append(np.where(
                    degraded_net[nets],
                    nets,
                    num_nets + np.arange(in_flight, dtype=np.int64),
                ))
            granted_parts = []
            cand = np.flatnonzero(proposing)
            while cand.size:
                win = _first_claim_wins(codes[0][cand])
                for code in codes[1:]:
                    win &= _first_claim_wins(code[cand])
                grant = cand[win]
                granted_parts.append(grant)
                rest = cand[~win]
                if rest.size == 0:
                    break
                conflict = _claimed(codes[0][rest], codes[0][grant])
                for code in codes[1:]:
                    conflict |= _claimed(code[rest], code[grant])
                blocked += int(np.count_nonzero(conflict))
                cand = rest[~conflict]
            granted_idx = (
                np.sort(np.concatenate(granted_parts))
                if granted_parts
                else np.empty(0, dtype=np.int64)
            )
        else:
            prop_idx = np.flatnonzero(proposing)
            codes = pos[prop_idx] * np.int64(n) + hops[prop_idx]
            win = _first_claim_wins(codes)
            granted_idx = prop_idx[win]
            blocked += int(prop_idx.size - granted_idx.size)

        if granted_idx.size == 0:
            raise ScheduleError(
                f"deadlock: {in_flight} packets queued but none can move"
            )

        gone = np.zeros(in_flight, dtype=bool)
        if fault_model is not None:
            # --- transmission: one batched drop draw over the grants
            ok = fault_model.transmit_ok_batch(stats.steps, order[granted_idx])
            fail = granted_idx[~ok]
            if fail.size:
                fail_pids = order[fail]
                attempts[fail_pids] += 1
                stats.retried += int(fail.size)
                over = (
                    attempts[fail_pids] > retry_limit
                    if retry_limit is not None
                    else np.zeros(fail.size, dtype=bool)
                )
                if on_fault is not None:
                    # Event order is contractual: each failed grant's
                    # retry (and any immediate drop), in grant order.
                    for pid, node, att, drop in zip(
                        fail_pids.tolist(), pos[fail].tolist(),
                        attempts[fail_pids].tolist(), over.tolist(),
                    ):
                        on_fault("retry", stats.steps, pid, node, att)
                        if drop:
                            on_fault("drop", stats.steps, pid, node, att)
                stats.dropped += int(np.count_nonzero(over))
                gone[fail[over]] = True
                granted_idx = granted_idx[ok]

        # --- commit, in grant order (== priority order among grants)
        grant_pids = order[granted_idx]
        grant_hops = hops[granted_idx]
        position[grant_pids] = grant_hops
        arrived = grant_hops == dest[grant_pids]
        gone[granted_idx] = True
        survivors = np.concatenate((order[~gone], grant_pids[~arrived]))
        order = survivors[np.argsort(position[survivors], kind="mergesort")]
        in_flight = int(order.size)
        delivered += int(np.count_nonzero(arrived))

        moves = _step_moves(ints, grant_pids, grant_hops)
        steps.append(moves)
        stats.steps += 1
        stats.total_hops += len(moves)
        stats.per_step_moves.append(len(moves))
        stats.blocked_moves = blocked
        stats.delivered = delivered
        if in_flight:
            depth = int(np.bincount(position[order]).max())
            if depth > stats.max_queue_depth:
                stats.max_queue_depth = depth
        if per_step_seconds is not None:
            per_step_seconds.append(perf_counter() - t0)
        if on_step is not None:
            on_step(stats.steps - 1, moves, stats)

    return steps, stats


def _fifo_arbitrate(
    n: int,
    pos: np.ndarray,
    hops: np.ndarray,
    nets: np.ndarray | None,
    degraded: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Sequential FIFO arbitration over priority-ordered proposals.

    FIFO queueing is non-monotone — a denial silences the rest of that
    node's queue for the step, which can free channels for *later* nodes —
    so it cannot be a one-shot argsort; this mirrors the oracle sweep's
    ``break`` with a per-node skip flag instead.  Exactly one blocked move
    is counted per stopped node (the packet that hit the busy channel);
    the silenced tail never reaches a channel and counts nothing.
    ``None``-hop packets are transparent: skipped without stopping the
    queue, as in the oracle.  ``degraded`` is the per-net serial
    flag of a faulted hypermesh: a degraded net, once granted, denies
    every later proposal on it this step.  Returns (granted indices
    ascending, blocked count).
    """
    skip = bytearray(n)
    used_links: set[int] = set()
    used_inject: set[int] = set()
    used_deliver: set[int] = set()
    used_serial: set[int] = set()
    granted: list[int] = []
    blocked = 0
    pos_list = pos.tolist()
    hop_list = hops.tolist()
    net_list = nets.tolist() if nets is not None else None
    serial = degraded.tolist() if degraded is not None else None
    for i in range(len(pos_list)):
        nxt = hop_list[i]
        if nxt == _NO_HOP:
            continue
        node = pos_list[i]
        if skip[node]:
            continue
        if net_list is not None:
            net = net_list[i]
            inject = net * n + node
            deliver = net * n + nxt
            if (
                inject in used_inject
                or deliver in used_deliver
                or net in used_serial
            ):
                skip[node] = 1
                blocked += 1
                continue
            used_inject.add(inject)
            used_deliver.add(deliver)
            if serial is not None and serial[net]:
                used_serial.add(net)
        else:
            link = node * n + nxt
            if link in used_links:
                skip[node] = 1
                blocked += 1
                continue
            used_links.add(link)
        granted.append(i)
    return np.asarray(granted, dtype=np.int64), blocked


def _resolve_plan_cache(
    cache,
    on_step: StepCallback | None,
    timing: bool,
    fault_hook: bool = False,
) -> "_plancache.PlanCache | None":
    """Normalize a ``cache=`` argument.

    ``cache=None`` (the keyword's default) and ``cache=False`` route live.
    Instrumented runs (``on_step`` or
    ``timing``) bypass the cache — a replay has no live stats to stream and
    spent no per-step host time — and are counted as ``bypassed``.
    ``fault_hook`` marks a run with an active fault model carrying an
    ``on_fault`` hook: it bypasses for the same reason (a replay fires no
    fault events) but is counted separately as ``fault_bypassed`` so
    ``repro plans stats`` shows how much traffic fault instrumentation
    keeps out of the cache.
    """
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
) -> tuple[list[dict[int, int]], RoutingStats]:
    """Cache-aware front of the routing core: replay a recorded plan on a
    hit, route live (and record) on a miss.

    An *enabled* fault model rides along to the core and folds its
    fingerprint into the plan key: the faulted
    and fault-free variants of one problem are distinct cache entries by
    construction.  A disabled model is treated exactly as no model at all.
    """
    if fault_model is not None and not fault_model.enabled:
        fault_model = None  # attached-but-empty: contractual no-op
    _check_arbitration(arbitration)
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
    steps, stats = _route_core(
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
        because a recorded plan is replayed for the same router.
    max_steps:
        Safety bound; defaults to ``10 * diameter + 10 * N`` which no
        deterministic minimal-path discipline on these topologies exceeds.
    arbitration:
        Channel-arbitration policy, ``"overtaking"`` (seed-identical
        default) or ``"fifo"`` — see the module docstring.
    on_step:
        Optional :data:`StepCallback` invoked after every committed step.
    timing:
        Record host wall-clock per step into ``stats.per_step_seconds``
        (opt-in; untimed runs leave it empty and skip the clock reads).
    cache:
        Plan cache mode — ``None`` (default) or ``False`` (route live),
        ``"memory"``, ``"disk"``, a directory path, or a
        :class:`~repro.sim.plancache.PlanCache`.  A hit replays the
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
        Optional :data:`FaultCallback` observing every
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
    ``arbitration``, ``on_step``, ``timing``, ``cache``,
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
    )
    return RoutedDemands(
        demands=tuple((int(s), int(d)) for s, d in demands),
        steps=tuple(steps),
        stats=stats,
    )
