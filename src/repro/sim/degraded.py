"""Degraded-mode arbitration: the indexed core's fault-injection loop.

When an **enabled** :class:`~repro.faults.model.FaultModel` reaches
:func:`~repro.sim.engine.route_permutation` / ``route_demands``, it rides
along to the core the engine picked (see
:func:`repro.sim.backends.choose_backend`).  The ``"numpy"`` core routes
it in its own structure-of-arrays loop
(:func:`repro.sim.backends.numpy_route_core`); the ``"indexed"`` core
hands it to :func:`route_core_degraded` below, bit-identical by contract.
The split keeps the indexed fault-free hot path untouched (a disabled or
absent model never comes here — that is the bit-identical no-op contract)
and keeps this loop simple enough to audit, which makes it the faulted
oracle of the equivalence suites: it mirrors the reference engine's
node-order-then-FIFO arbitration exactly, adding only the fault
semantics:

* hops come from a :class:`~repro.faults.routing.FaultAwareRouter`
  (minimal detours on the surviving graph; ``UnroutableError`` up front
  when a destination is partitioned away);
* hard-down hypermesh nets are never traversed, and **degraded** nets are
  serialized — at most one packet crosses per step instead of a full
  partial permutation (the word model's one-step permutation capability is
  exactly what a broken crossbar loses);
* each *granted* move independently fails with the model's per-step drop
  probability; the packet stays queued and ``retried`` is incremented.
  After ``retry_limit`` failed transmissions the packet is permanently
  **dropped**: removed from the network and counted in ``dropped``.

Accounting invariant (enforced by the property suite): at every committed
step, ``packets == delivered + dropped + in-flight``.  The optional
``on_fault(kind, step, packet, node, attempts)`` hook observes every retry
and drop; :class:`repro.obs.FaultEventProbe` adapts it onto the documented
``fault.retry`` / ``fault.drop`` trace events.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Callable, Sequence

from ..faults.model import FaultModel
from ..faults.routing import FaultAwareRouter
from ..networks.base import ChannelModel, HypergraphTopology, Topology
from .backends import _check_arbitration
from .schedule import ScheduleError
from .stats import RoutingStats

__all__ = ["FaultCallback", "route_core_degraded"]

#: Signature of the ``on_fault`` hook: ``(kind, step, packet, node,
#: attempts)`` where ``kind`` is ``"retry"`` or ``"drop"``, ``node`` is the
#: packet's position when the transmission failed, and ``attempts`` is its
#: cumulative failed-transmission count.
FaultCallback = Callable[[str, int, int, int, int], None]


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
