"""Degraded-mode arbitration: the engine's fault-injection execution path.

When an **enabled** :class:`~repro.faults.model.FaultModel` reaches
:func:`~repro.sim.engine.route_permutation` / ``route_demands``, routing is
handed to the degraded twin of the core the engine picked (see
:func:`repro.sim.backends.choose_backend`): :func:`route_core_degraded`
(the ``"indexed"`` loop below) or its structure-of-arrays twin
:func:`numpy_degraded_core` (``"numpy"``), bit-identical by contract.  The
split keeps the fault-free hot path
untouched (a disabled or absent model never comes here — that is the
bit-identical no-op contract) and keeps the indexed loop simple enough to
audit: it mirrors the reference engine's node-order-then-FIFO arbitration
exactly, adding only the fault semantics:

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

import numpy as np

from ..faults.model import FaultModel
from ..faults.routing import FaultAwareRouter
from ..networks.base import ChannelModel, HypergraphTopology, Topology
from .schedule import ScheduleError
from .stats import RoutingStats

__all__ = ["FaultCallback", "route_core_degraded", "numpy_degraded_core"]

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


def _fifo_arbitrate_degraded(
    n: int,
    pos: np.ndarray,
    hops: np.ndarray,
    nets: np.ndarray | None,
    degraded: np.ndarray | None,
) -> tuple[np.ndarray, int]:
    """Sequential FIFO arbitration with the degraded-net serial constraint.

    The fault-free twin lives in :mod:`repro.sim.backends`
    (``_fifo_arbitrate``); this adds ``used_serial`` — a degraded net, once
    granted, denies every later proposal on that net this step.  FIFO
    denial semantics are unchanged: the denied head silences the rest of
    its node's queue (the skip flag), counting exactly one blocked move.
    """
    from .backends import _NO_HOP

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
    deg_list = degraded.tolist() if degraded is not None else None
    for i in range(len(pos_list)):
        nxt = hop_list[i]
        if nxt == _NO_HOP:
            continue
        node = pos_list[i]
        if skip[node]:
            continue
        if net_list is not None:
            net = net_list[i]
            is_degraded = deg_list[i]
            if (
                (is_degraded and net in used_serial)
                or net * n + node in used_inject
                or net * n + nxt in used_deliver
            ):
                skip[node] = 1
                blocked += 1
                continue
            used_inject.add(net * n + node)
            used_deliver.add(net * n + nxt)
            if is_degraded:
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


def numpy_degraded_core(
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
    """Structure-of-arrays degraded loop (the ``"numpy"`` fault core).

    Same signature, semantics, and error messages as
    :func:`route_core_degraded`; bit-identical output — schedules, step
    dicts in insertion order, :class:`RoutingStats` including ``dropped``
    and ``retried``, and the exact same seeded drop-draw sequence — is the
    contract, enforced by ``tests/sim/test_backends.py`` and the fuzz
    harness.

    Structure mirrors :func:`repro.sim.backends.numpy_route_core`: flat
    int64 position / destination / retry-count arrays, the queue priority
    order maintained by one stable argsort per step.  The fault semantics
    vectorize on top:

    * hops come from the fault-aware router's ``next_hop_array`` (batched
      BFS distance tables, warmed in one bit-parallel BFS up front);
    * degraded hypermesh nets add a third arbitration code — all proposals
      on one degraded net share a *serial* code, so first-claim-wins
      grants at most one per step, while intact nets get unique serial
      codes that never constrain them;
    * the transmission phase settles every granted move with one batched
      drop draw (:meth:`~repro.faults.model.FaultModel.transmit_ok_batch`
      — the identical per-packet hashes the indexed core draws), then
      applies retries and drops in grant order so ``on_fault`` observers
      see the exact event sequence the indexed core emits.
    """
    from .backends import _NO_HOP, _claimed, _first_claim_wins, _step_moves
    from .engine import ARBITRATION_POLICIES

    if arbitration not in ARBITRATION_POLICIES:
        raise ValueError(
            f"unknown arbitration policy {arbitration!r}; "
            f"expected one of {ARBITRATION_POLICIES}"
        )
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

    next_hop = far.next_hop
    next_hop_array = getattr(far, "next_hop_array", None)
    if hypergraph:
        num_nets = topology.num_nets()
        degraded_arr = np.fromiter(
            sorted(faults.degraded_nets),
            dtype=np.int64,
            count=len(faults.degraded_nets),
        )

    npk = len(sources)
    position = np.array(sources, dtype=np.int64)
    dest = np.array(dests, dtype=np.int64)
    attempts = np.zeros(npk, dtype=np.int64)
    retry_limit = fault_model.retry_limit
    ints = list(range(max(npk, n)))

    queued = np.flatnonzero(position != dest)
    order = queued[np.argsort(position[queued], kind="mergesort")]
    in_flight = int(order.size)
    if next_hop_array is not None:
        far.prepare_dests(dest[order])

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
            nets = far.shared_net_array(pos, np.where(proposing, hops, pos))
            bad = proposing & (nets < 0)
            if bad.any():
                i = int(np.argmax(bad))
                raise ScheduleError(
                    f"router proposed non-net hop {int(pos[i])} -> "
                    f"{int(hops[i])}"
                )
            # kind="table" skips np.unique (which imports numpy.ma on
            # NumPy 2.x); the table spans only the degraded net ids.
            degraded_mask = (
                np.isin(nets, degraded_arr, kind="table")
                if degraded_arr.size
                else np.zeros(in_flight, dtype=bool)
            )

        # --- arbitration: indices into `order`, ascending == grant order
        if fifo:
            granted_idx, denied = _fifo_arbitrate_degraded(
                n,
                pos,
                hops,
                nets if hypergraph else None,
                degraded_mask if hypergraph else None,
            )
            blocked += denied
        elif hypergraph:
            prop_idx = np.flatnonzero(proposing)
            inject = nets * np.int64(n) + pos
            deliver = nets * np.int64(n) + hops
            # Serial codes: every proposal on one degraded net shares that
            # net's id, so first-claim-wins admits exactly one per step;
            # intact-net proposals get unique codes that always win.
            serial = np.where(
                degraded_mask,
                nets,
                num_nets + np.arange(in_flight, dtype=np.int64),
            )
            granted_parts = []
            cand = prop_idx
            while cand.size:
                win = (
                    _first_claim_wins(inject[cand])
                    & _first_claim_wins(deliver[cand])
                    & _first_claim_wins(serial[cand])
                )
                grant = cand[win]
                granted_parts.append(grant)
                rest = cand[~win]
                if rest.size == 0:
                    break
                conflict = (
                    _claimed(inject[rest], inject[grant])
                    | _claimed(deliver[rest], deliver[grant])
                    | _claimed(serial[rest], serial[grant])
                )
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

        # --- transmission: one batched drop draw over the granted moves
        grant_pids = order[granted_idx]
        grant_hops = hops[granted_idx]
        ok = fault_model.transmit_ok_batch(stats.steps, grant_pids)
        fail = np.flatnonzero(~ok)
        gone = np.zeros(in_flight, dtype=bool)
        if fail.size:
            fail_pids = grant_pids[fail]
            attempts[fail_pids] += 1
            stats.retried += int(fail.size)
            if on_fault is not None:
                # Event order is contractual: retries (and any immediate
                # drop) per failed grant, in grant order.
                drop_sel = []
                att_list = attempts[fail_pids].tolist()
                node_list = pos[granted_idx[fail]].tolist()
                for j, pid in enumerate(fail_pids.tolist()):
                    on_fault("retry", stats.steps, pid, node_list[j],
                             att_list[j])
                    if retry_limit is not None and att_list[j] > retry_limit:
                        stats.dropped += 1
                        on_fault("drop", stats.steps, pid, node_list[j],
                                 att_list[j])
                        drop_sel.append(fail[j])
                if drop_sel:
                    gone[granted_idx[np.asarray(drop_sel)]] = True
            elif retry_limit is not None:
                over = attempts[fail_pids] > retry_limit
                ndrop = int(np.count_nonzero(over))
                if ndrop:
                    stats.dropped += ndrop
                    gone[granted_idx[fail[over]]] = True

        # --- commit successes, in grant order
        succ = granted_idx[ok]
        succ_pids = order[succ]
        succ_hops = grant_hops[ok]
        position[succ_pids] = succ_hops
        arrived = succ_hops == dest[succ_pids]
        gone[succ] = True
        survivors = np.concatenate((order[~gone], succ_pids[~arrived]))
        order = survivors[np.argsort(position[survivors], kind="mergesort")]
        in_flight = int(order.size)
        delivered += int(np.count_nonzero(arrived))

        moves = _step_moves(ints, succ_pids, succ_hops)
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
