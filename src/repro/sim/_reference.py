"""The seed arbitration loop, frozen for equivalence testing.

This module preserves the original O(N)-scan-per-step ``_route_core`` exactly
as it shipped in the seed tree.  The production engine in
:mod:`repro.sim.engine` was rebuilt around indexed data structures
(active-node worklist, linked-list queues, cached next hops and net lookups);
its contract is that it produces **bit-identical** schedules and statistics
to this reference on every topology and demand set.  The equivalence tests
(``tests/sim/test_engine_equivalence.py``, ``tests/sim/test_backends.py``)
import this module — nothing in the library's runtime paths does.

Do not "fix" or optimize this file: its value is that it does not change.
(The one deliberate deviation from the seed text: the bare ``assert
isinstance`` guard in ``_shared_net_id`` is an explicit ``TypeError`` here,
so the reference keeps working under ``python -O``.  Routing behaviour is
untouched.)
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from ..networks.base import ChannelModel, HypergraphTopology, Topology
from .routers import Router
from .schedule import ScheduleError
from .stats import RoutingStats

__all__ = ["reference_route_core"]


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
