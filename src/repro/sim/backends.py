"""The engine's two cores: one arbitration contract, two step loops.

The engine's observable behaviour is contractual — bit-identical
``CommSchedule`` step dicts, bit-identical :class:`~repro.sim.stats.
RoutingStats`, and therefore bit-identical plan-cache blobs — no matter
which core computed them.  This module holds the seam between them:

``"indexed"``
    The loop in :func:`repro.sim.engine._route_core`: active-node
    worklist, intrusive linked-list queues, per-packet hop caches.  Python
    control flow, O(in-flight) per step; cheapest on small jobs.  A
    faulted job runs on :func:`repro.sim.degraded.route_core_degraded`,
    the indexed loop with the fault semantics added.

``"numpy"``
    The structure-of-arrays core in this module, for fault-free and
    faulted jobs alike: packet positions, destinations, next hops, and the
    queue priority order held in flat ``int64`` arrays and advanced
    whole-steps at a time.  Channel arbitration becomes a stable argsort
    (first proposal per channel code wins), hypergraph inject/deliver
    arbitration an iterated round of the same kernel, and the FIFO queue
    discipline one stable argsort of the survivor ordering per step.  Its
    per-step NumPy calls cost a fixed overhead that pays off once a job
    carries enough packets.

Both take the same arguments, ``fault_model=`` and ``on_fault=``
included, so :func:`resolve_backend` is the only resolver.  The engine
picks the core itself with :func:`choose_backend`: a job of
:data:`NUMPY_MIN_PACKETS` packets or more runs on the NumPy core, a
smaller one on the indexed loop, fault-free or faulted, under either
arbitration policy.  Callers may still name a core (``backend="indexed"``
or ``"numpy"``); the equivalence suites do.

Every core must reproduce the seed loop in :mod:`repro.sim._reference`
exactly — same grant order (so cached plans record identical insertion
order), same ``blocked_moves`` accounting, same error messages.  The
equivalence suite (``tests/sim/test_backends.py``) and the differential
fuzz harness (``tests/properties/test_engine_fuzz.py``) enforce this, up
to the sizes where the engine picks the NumPy core.

Why the arbitration vectorizes
------------------------------

The reference sweep proposes in priority order (node index, then FIFO
position) and claims a channel **only when a move is granted**.  Under the
default ``"overtaking"`` policy every queued packet proposes exactly once
per step, so on point-to-point networks the grant set is simply "the first
proposal in priority order for each directed link" — computable with one
stable argsort over link codes.  On hypergraph networks a proposal must be
first on *two* codes at once (net inject port and net deliver port), which
a single pass cannot decide: a packet that loses one code to an
earlier-denied packet may still win.  Iterating rounds — grant every
remaining proposal that is first on both codes among the remaining, deny
(and count) the ones that conflict with a grant, repeat — reproduces the
sequential sweep exactly and terminates because the earliest remaining
proposal always wins both its codes.  ``"fifo"`` arbitration is genuinely
sequential (a denial silences the rest of that node's queue, which can
un-deny later channels), so it stays a Python loop over the
priority-ordered proposals; FIFO runs trade the vector win for exactness.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..faults.model import FaultModel
from ..faults.routing import FaultAwareRouter
from ..networks.base import ChannelModel, HypergraphTopology, Topology
from .routers import Router
from .schedule import ScheduleError
from .stats import RoutingStats

if TYPE_CHECKING:
    from .degraded import FaultCallback

__all__ = [
    "ARBITRATION_POLICIES",
    "ENGINE_BACKENDS",
    "NUMPY_MIN_PACKETS",
    "choose_backend",
    "resolve_backend",
    "numpy_route_core",
]

#: Channel-arbitration disciplines accepted by the engine.
ARBITRATION_POLICIES = ("overtaking", "fifo")


#: The engine cores: name -> description.  The ``docs/API.md`` core table
#: is generated from this mapping by ``tools/check_docs.py`` (drift-checked
#: in CI), so edit entries here and run ``python tools/check_docs.py
#: --write``.
ENGINE_BACKENDS: dict[str, str] = {
    "indexed": (
        "the indexed Python arbitration loop in `repro.sim.engine` "
        "(active-node worklist, linked-list queues, per-packet hop "
        "caches); runs jobs of fewer than `NUMPY_MIN_PACKETS` packets"
    ),
    "numpy": (
        "structure-of-arrays core: positions, hops, and queue order in "
        "flat `int64` arrays, arbitration by stable argsort, whole steps "
        "advanced per NumPy call; runs jobs of `NUMPY_MIN_PACKETS` "
        "packets or more"
    ),
}

#: Packet count from which the engine runs a job on the NumPy core.
#: Measured engine-only (the table is in docs/API.md): from 1,024 packets
#: up the NumPy core wins on every topology family, workload, policy and
#: fault mix; below, the indexed loop wins every N=64 job and most small
#: sparse ones, while NumPy already wins some jobs of 64 to 256 packets.
#: One conservative constant, not a table keyed on topology or workload.
NUMPY_MIN_PACKETS = 1024

#: ``next_hop`` returned ``None`` for a queued packet (the router considers
#: it home): mirror the reference sweep's skip-forever.  Same sentinel as
#: the indexed engine's hop cache.
_NO_HOP = -2


def choose_backend(packets: int) -> str:
    """The core the engine runs a job of ``packets`` packets on.

    One rule for fault-free and faulted runs and both arbitration
    policies: ``"numpy"`` from :data:`NUMPY_MIN_PACKETS` packets up,
    ``"indexed"`` below.  Both cores are bit-identical, so the choice
    changes host time only.
    """
    return "numpy" if packets >= NUMPY_MIN_PACKETS else "indexed"


def resolve_backend(backend: str) -> Callable:
    """Resolve a core name to its ``_route_core``-compatible callable.

    Both cores take ``fault_model=`` and ``on_fault=``.  Raises
    :class:`ValueError` naming the known cores for any other name.
    """
    if backend == "indexed":
        from .engine import _route_core

        return _route_core
    if backend == "numpy":
        return numpy_route_core
    raise ValueError(
        f"unknown engine backend {backend!r}; "
        f"expected one of {tuple(ENGINE_BACKENDS)}"
    )


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
    imports ``numpy.ma``, a cost a forked service worker repays per job),
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
    whole life; the indexed loop reuses its ints, and so does this."""
    get = ints.__getitem__
    return dict(zip(map(get, pids.tolist()), map(get, hops.tolist())))


def numpy_route_core(
    topology: Topology,
    sources: Sequence[int],
    dests: Sequence[int],
    router: Router,
    max_steps: int,
    *,
    arbitration: str = "overtaking",
    on_step=None,
    timing: bool = False,
    fault_model: FaultModel | None = None,
    on_fault: FaultCallback | None = None,
) -> tuple[list[dict[int, int]], RoutingStats]:
    """Structure-of-arrays arbitration loop (the ``"numpy"`` core).

    Same signature, semantics, and error messages as
    :func:`repro.sim.engine._route_core` (``fault_model=None``) and
    :func:`repro.sim.degraded.route_core_degraded` (an enabled model);
    bit-identical output — step dicts in insertion order,
    :class:`RoutingStats` including ``dropped`` and ``retried``, and the
    same seeded drop draws — is the contract.  Queue state is one array:
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
      indexed core's per-packet hashes), applying retries and drops in
      grant order so ``on_fault`` sees the indexed core's event sequence.
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
        if next_hop_array is not None:
            router.prepare_dests(dest[order])

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
    so it cannot be a one-shot argsort; this mirrors the indexed sweep's
    ``break`` with a per-node skip flag instead.  Exactly one blocked move
    is counted per stopped node (the packet that hit the busy channel);
    the silenced tail never reaches a channel and counts nothing.
    ``None``-hop packets are transparent: skipped without stopping the
    queue, as in the indexed engine.  ``degraded`` is the per-net serial
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
