"""The engine's step-loop oracles, frozen for equivalence testing.

Two loops live here, both Python sweeps over per-node ``deque`` queues in
node order then FIFO position, simple enough to audit.  Only tests import
this module; no runtime path does:

:func:`reference_route_core`
    The original O(N)-scan-per-step ``_route_core`` exactly as it shipped
    in the seed tree: overtaking arbitration, no faults.

:func:`route_core_degraded`
    The degraded loop: the reference sweep with the fault semantics of
    docs/FAULTS.md added, under both arbitration policies — hops from a
    :class:`~repro.faults.routing.FaultAwareRouter` (minimal detours on
    the surviving graph; ``UnroutableError`` up front when a destination is
    partitioned away), hard-down hypermesh nets never traversed, degraded
    nets serialized to one packet per step, and each granted move failing
    with the model's per-step drop probability (a retry; past
    ``retry_limit`` failures, a drop).  With an empty
    :class:`~repro.faults.model.FaultModel` nothing fails or detours, so it
    is also the fault-free oracle for ``"fifo"`` arbitration.

The production core, :func:`repro.sim.engine._route_core`, must produce
**bit-identical** schedules (step dicts in insertion order) and statistics
to these loops on every topology and demand set.  The equivalence tests
(``tests/sim/test_engine_equivalence.py``, ``tests/sim/test_backends.py``)
and the differential fuzz harness import this module.

Do not "fix" or optimize this file: its value is that it does not change.
(The one deliberate deviation from the seed text: the bare ``assert
isinstance`` guard in ``_shared_net_id`` is an explicit ``TypeError`` here,
so the reference keeps working under ``python -O``.  Routing behaviour is
untouched.)
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Sequence

from ..faults.model import FaultModel
from ..faults.routing import FaultAwareRouter
from ..networks.base import ChannelModel, HypergraphTopology, Topology
from .engine import FaultCallback, _check_arbitration
from .routers import Router
from .schedule import ScheduleError
from .stats import RoutingStats

__all__ = ["reference_route_core", "route_core_degraded"]


def reference_route_core(
    topology: Topology,
    sources: Sequence[int],
    dests: Sequence[int],
    router: Router,
    max_steps: int,
) -> tuple[list[dict[int, int]], RoutingStats]:
    """The seed engine's shared arbitration loop, verbatim."""
    n = topology.num_nodes
    hypergraph = topology.channel_model is ChannelModel.HYPERGRAPH_NET

    position = list(sources)
    queues: list[deque[int]] = [deque() for _ in range(n)]
    in_flight = 0
    for pid, (src, dst) in enumerate(zip(sources, dests)):
        if src != dst:
            queues[src].append(pid)
            in_flight += 1

    stats = RoutingStats()
    stats.delivered = len(sources) - in_flight
    stats.max_queue_depth = max((len(q) for q in queues), default=0)
    steps: list[dict[int, int]] = []

    while in_flight:
        if stats.steps >= max_steps:
            raise ScheduleError(
                f"{in_flight} packets undelivered after {max_steps} steps"
            )
        moves: dict[int, int] = {}
        used_links: set[tuple[int, int]] = set()
        used_inject: set[tuple[int, int]] = set()
        used_deliver: set[tuple[int, int]] = set()

        # Propose in deterministic order: node index, then FIFO position.
        for node in range(n):
            for pid in queues[node]:
                nxt = router.next_hop(node, dests[pid])
                if nxt is None:
                    continue  # already home (shouldn't be queued, but safe)
                if hypergraph:
                    net = _shared_net_id(topology, node, nxt)
                    if net is None:
                        raise ScheduleError(
                            f"router proposed non-net hop {node} -> {nxt}"
                        )
                    if (net, node) in used_inject or (net, nxt) in used_deliver:
                        stats.blocked_moves += 1
                        continue
                    used_inject.add((net, node))
                    used_deliver.add((net, nxt))
                else:
                    link = (node, nxt)
                    if link in used_links:
                        stats.blocked_moves += 1
                        continue
                    used_links.add(link)
                moves[pid] = nxt

        if not moves:
            raise ScheduleError(
                f"deadlock: {in_flight} packets queued but none can move"
            )

        # Apply the granted moves.
        for pid, nxt in moves.items():
            queues[position[pid]].remove(pid)
            position[pid] = nxt
            if nxt == dests[pid]:
                stats.delivered += 1
                in_flight -= 1
            else:
                queues[nxt].append(pid)
        steps.append(moves)
        stats.steps += 1
        stats.total_hops += len(moves)
        stats.per_step_moves.append(len(moves))
        depth = max((len(q) for q in queues), default=0)
        stats.max_queue_depth = max(stats.max_queue_depth, depth)

    return steps, stats


def _shared_net_id(topology: Topology, a: int, b: int) -> int | None:
    if not isinstance(topology, HypergraphTopology):
        raise TypeError(
            f"net lookup needs a HypergraphTopology, got {type(topology).__name__}"
        )
    nets_a = set(topology.nets_of(a))
    for net in topology.nets_of(b):
        if net in nets_a:
            return net
    return None


def route_core_degraded(
    topology: Topology,
    sources: Sequence[int],
    dests: Sequence[int],
    router,
    max_steps: int,
    fault_model: FaultModel,
    *,
    arbitration: str = "overtaking",
    on_step=None,
    on_fault: FaultCallback | None = None,
    timing: bool = False,
) -> tuple[list[dict[int, int]], RoutingStats]:
    """Route a demand set through a faulted machine.

    ``router`` is the fault-free base discipline (it is wrapped in a
    :class:`FaultAwareRouter` here) or an already-wrapped instance.
    Raises :class:`~repro.faults.model.UnroutableError` before the first
    step if any packet's endpoints are dead or partitioned apart, and
    :class:`ScheduleError` if undropped packets remain past ``max_steps``
    (the engine's timeout) or arbitration deadlocks.
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
    if isinstance(router, FaultAwareRouter):
        far = router
    else:
        far = FaultAwareRouter(topology, router, fault_model)
    faults = far.faults
    far.check_routable(sources, dests)

    npk = len(sources)
    position = list(sources)
    dests = list(dests)
    queues: list[deque[int]] = [deque() for _ in range(n)]
    in_flight = 0
    for pid in range(npk):
        if position[pid] != dests[pid]:
            queues[position[pid]].append(pid)
            in_flight += 1

    attempts = [0] * npk
    retry_limit = fault_model.retry_limit
    transmit_ok = fault_model.transmit_ok

    stats = RoutingStats()
    stats.delivered = npk - in_flight
    stats.max_queue_depth = max((len(q) for q in queues), default=0)
    steps: list[dict[int, int]] = []
    per_step_seconds = stats.per_step_seconds if timing else None

    while in_flight:
        t0 = perf_counter() if per_step_seconds is not None else 0.0
        if stats.steps >= max_steps:
            raise ScheduleError(
                f"{in_flight} packets undelivered after {max_steps} steps"
            )
        # Explicit list in grant (= priority) order: the transmission phase
        # must apply grants in arbitration order, not whatever iteration
        # order a mapping happens to have.
        granted: list[tuple[int, int]] = []
        used_links: set[tuple[int, int]] = set()
        used_inject: set[tuple[int, int]] = set()
        used_deliver: set[tuple[int, int]] = set()
        used_serial: set[int] = set()

        # Propose in deterministic order: node index, then FIFO position —
        # the reference engine's arbitration, with fault constraints added.
        for node in range(n):
            for pid in queues[node]:
                nxt = far.next_hop(node, dests[pid])
                if nxt is None:
                    continue
                if hypergraph:
                    net = far.shared_net(node, nxt)
                    if net is None:
                        raise ScheduleError(
                            f"router proposed non-net hop {node} -> {nxt}"
                        )
                    degraded = faults.net_degraded(net)
                    if (
                        (degraded and net in used_serial)
                        or (net, node) in used_inject
                        or (net, nxt) in used_deliver
                    ):
                        stats.blocked_moves += 1
                        if fifo:
                            break  # head of line holds the queue
                        continue
                    used_inject.add((net, node))
                    used_deliver.add((net, nxt))
                    if degraded:
                        used_serial.add(net)
                else:
                    link = (node, nxt)
                    if link in used_links:
                        stats.blocked_moves += 1
                        if fifo:
                            break
                        continue
                    used_links.add(link)
                granted.append((pid, nxt))

        if not granted:
            raise ScheduleError(
                f"deadlock: {in_flight} packets queued but none can move"
            )

        # Transmission phase: each granted move independently survives or
        # fails the intermittent-fault draw.  Failures leave the packet
        # queued (a retry); a packet past its retry budget is dropped.
        moves: dict[int, int] = {}
        for pid, nxt in granted:
            if not transmit_ok(stats.steps, pid):
                attempts[pid] += 1
                stats.retried += 1
                node = position[pid]
                if on_fault is not None:
                    on_fault("retry", stats.steps, pid, node, attempts[pid])
                if retry_limit is not None and attempts[pid] > retry_limit:
                    queues[node].remove(pid)
                    in_flight -= 1
                    stats.dropped += 1
                    if on_fault is not None:
                        on_fault("drop", stats.steps, pid, node, attempts[pid])
                continue
            moves[pid] = nxt
            queues[position[pid]].remove(pid)
            position[pid] = nxt
            if nxt == dests[pid]:
                stats.delivered += 1
                in_flight -= 1
            else:
                queues[nxt].append(pid)

        # A step where every granted move failed its transmission still
        # advances machine time: commit it (possibly empty) so the step
        # count honestly reflects the wall the faults cost.
        steps.append(moves)
        stats.steps += 1
        stats.total_hops += len(moves)
        stats.per_step_moves.append(len(moves))
        depth = max((len(q) for q in queues), default=0)
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        if per_step_seconds is not None:
            per_step_seconds.append(perf_counter() - t0)
        if on_step is not None:
            on_step(stats.steps - 1, moves, stats)

    return steps, stats
