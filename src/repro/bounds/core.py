"""Analytic lower bounds on data-transfer steps, and their certification.

Every benchmark row and paper table in this repo reports the number of
steps a schedule *achieved*.  This module supplies the other side of the
claim: a per-(topology, demand set) floor no schedule admissible under the
word-level hardware model (:meth:`repro.sim.schedule.CommSchedule.validate`)
can beat, so ``achieved >= bound`` is checkable — and checked — everywhere
a step count is produced.

Four bound families are computed; the certified bound is their maximum.
Each is sound against the channel-capacity semantics the validator
enforces (one packet per directed link per step on point-to-point
networks; one injection and one delivery per (node, net) pair per step on
hypergraph networks):

``bisection``
    The index-halving cut (nodes ``< N/2`` vs ``>= N/2``, the paper's
    Section V bisector) can pass at most ``C`` packets per step in each
    direction, where ``C`` is :func:`~repro.networks.properties.\
halving_cut_links` crossing links (point-to-point) or
    :func:`~repro.networks.properties.net_crossing_ports` crossing ports
    (hypergraph).  ``ceil(crossing_demand / C)`` steps are forced.

``distance``
    A packet moves one channel per step, so no schedule beats the largest
    source→destination hop distance (BSP latency floor: the diameter
    specializes this when demands stretch across the machine).

``ports``
    A node with ``h`` packets to send (or receive) and ``c`` incident
    channels needs ``ceil(h / c)`` steps — the per-superstep ``h``-relation
    bound of the BSP lower-bound literature (arXiv:1707.02229), with ``c``
    the degree on point-to-point networks and the incident-net count on
    hypergraphs.

``work``
    Summed over packets, at least ``total_distance`` channel traversals
    must happen, and the whole machine performs at most ``cap`` traversals
    per step (``2 * links`` directed link slots, or the summed net sizes —
    a rotation realizes ``|net|`` moves per net-step).

Fault awareness: given a :class:`~repro.faults.FaultModel`, distances are
recomputed on the surviving graph and every capacity shrinks to its
surviving value (down links/nets excluded, degraded nets serialized to one
packet per step), so bounds under faults only ever tighten.  Runs that
drop ``k`` packets are certified against an adversarially weakened demand
set — the ``k`` most expensive packets are discounted (order statistics on
distances, crossing counts, and per-node loads) — so a lossy run can never
be failed by work it provably did not do.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "BOUND_KINDS",
    "BoundKind",
    "BoundViolation",
    "Certificate",
    "certify",
    "certify_program",
    "certify_schedule",
    "certify_stages",
    "program_stage_demands",
    "step_lower_bound",
]


@dataclass(frozen=True)
class BoundKind:
    """One analytic bound family (a row of docs/BOUNDS.md's table)."""

    name: str
    summary: str


#: Registry of the bound families :func:`step_lower_bound` combines.  The
#: docs drift-checker renders docs/BOUNDS.md's kinds table from this, so
#: adding a family without documenting it fails ``tools/check_docs.py``.
BOUND_KINDS: tuple[BoundKind, ...] = (
    BoundKind(
        "bisection",
        "crossing demand over the index-halving cut / per-step cut capacity "
        "(halving_cut_links or net_crossing_ports)",
    ),
    BoundKind(
        "distance",
        "largest surviving-graph hop distance any packet must cover "
        "(one channel per step)",
    ),
    BoundKind(
        "ports",
        "max over nodes of ceil(packets to send or receive / incident "
        "channels) — the BSP h-relation floor",
    ),
    BoundKind(
        "work",
        "total hop distance over all packets / machine-wide channel "
        "slots per step",
    ),
)


class BoundViolation(Exception):
    """A measured step count undercut its analytic floor.

    This is a *hard error*: either the schedule broke the hardware model
    (validator bug) or a bound is unsound (certifier bug) — never a data
    point.  The offending :class:`Certificate` rides along as
    ``.certificate``.
    """

    def __init__(self, certificate: "Certificate"):
        self.certificate = certificate
        label = f" [{certificate.label}]" if certificate.label else ""
        super().__init__(
            f"achieved {certificate.achieved} steps undercuts the "
            f"{certificate.binding} lower bound {certificate.bound}{label}: "
            f"witness {dict(certificate.witness)}"
        )


@dataclass(frozen=True)
class Certificate:
    """A two-sided step-count claim: achieved ``X``, provably ``>= Y``.

    ``witness`` records every per-family bound plus the quantities they
    were computed from, so a violation (or a suspiciously loose ratio) can
    be audited without re-deriving anything.
    """

    achieved: int
    bound: int
    witness: Mapping[str, Any] = field(default_factory=dict)
    label: str | None = None

    @property
    def binding(self) -> str:
        """Which bound family produced the certified floor."""
        return str(self.witness.get("binding", "trivial"))

    @property
    def ratio(self) -> float | None:
        """``achieved / bound`` — how loose the schedule is (None if the
        floor is 0, i.e. nothing had to move)."""
        if self.bound == 0:
            return None
        return self.achieved / self.bound

    @property
    def holds(self) -> bool:
        return self.achieved >= self.bound

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable image (what benchmark rows embed)."""
        return {
            "achieved": self.achieved,
            "bound": self.bound,
            "ratio": self.ratio,
            "binding": self.binding,
            "certified": self.holds,
            "witness": dict(self.witness),
        }


def _resolved(topology, fault_model):
    if fault_model is None:
        return None
    from ..faults.model import ResolvedFaults, resolve_faults

    if isinstance(fault_model, ResolvedFaults):
        return fault_model
    return resolve_faults(fault_model, topology)


def _distances(topology, src, dst, resolved) -> np.ndarray:
    """Per-packet int64 hop distances (under structural faults, gathered
    from the surviving graph's narrow batched BFS table and widened, so
    every floor is computed on int64).  Raises
    :class:`~repro.faults.UnroutableError` when a demand's endpoints are
    disconnected (its bound would be infinite)."""
    from ..faults.model import UnroutableError

    if resolved is None or not resolved.structural:
        return topology.distance_array(src, dst)
    table, dest_row = resolved.surviving_graph(topology).dest_table(dst)
    hops = table[dest_row[dst], src]
    cut = np.flatnonzero(hops < 0)
    if cut.size:
        # Name the first cut packet of the first destination (in order of
        # first appearance) that has one.
        uniq, first = np.unique(dst, return_index=True)
        seen = first[np.searchsorted(uniq, dst[cut])]
        pid = cut[np.argmin(seen)]
        raise UnroutableError(
            f"no surviving path from {int(src[pid])} to {int(dst[pid])}: "
            "the step lower bound is infinite"
        )
    return hops.astype(np.int64)


def _is_hypergraph(topology) -> bool:
    from ..networks.base import ChannelModel

    return topology.channel_model is ChannelModel.HYPERGRAPH_NET


def _alive_net_members(topology, resolved):
    """(net_id, alive member tuple) per net that still carries packets."""
    for net_id, members in enumerate(topology.nets()):
        if resolved is not None and resolved.net_down(net_id):
            continue
        if resolved is not None and resolved.down_nodes:
            members = tuple(
                m for m in members if m not in resolved.down_nodes
            )
        yield net_id, members


@dataclass(frozen=True)
class _Capacities:
    """The topology-only inputs of the floors for one (topology, faults)
    pair."""

    #: Packets the index-halving cut passes per step, per direction.
    cut: int
    #: Per-node incident channel count (send = receive capacity per step).
    channels: np.ndarray
    #: Machine-wide channel traversals possible in one step.
    total: int


#: :class:`_Capacities` memo, keyed weakly by the object they derive from:
#: the topology when no structural fault applies, else the
#: :class:`~repro.networks.degraded.SurvivingGraph` the resolved fault set
#: caches for that topology — so every stage of a program, and every
#: certification against one fault resolution, pays for them once.
_CAPACITIES: "weakref.WeakKeyDictionary[Any, _Capacities]" = (
    weakref.WeakKeyDictionary()
)


def _capacities(topology, resolved) -> _Capacities:
    """The memoized :class:`_Capacities` of ``topology`` under ``resolved``
    (no structural fault: the fault-free machine's)."""
    if resolved is None or not resolved.structural:
        resolved, owner = None, topology
    else:
        owner = resolved.surviving_graph(topology)
    caps = _CAPACITIES.get(owner)
    if caps is None:
        caps = _CAPACITIES[owner] = _compute_capacities(topology, resolved)
    return caps


def _compute_capacities(topology, resolved) -> _Capacities:
    """One walk over the (surviving) nets or neighbour lists."""
    n = topology.num_nodes
    half = n // 2
    if _is_hypergraph(topology):
        cut = total = 0
        channels = np.zeros(n, dtype=np.int64)
        for net_id, members in _alive_net_members(topology, resolved):
            degraded = resolved is not None and net_id in resolved.degraded_nets
            left = sum(1 for m in members if m < half)
            ports = min(left, len(members) - left)
            # A degraded net is serialized: one packet per step on the net.
            cut += 1 if ports and degraded else ports
            if len(members) > 1:
                channels[list(members)] += 1
                total += 1 if degraded else len(members)  # a rotation moves |net|
        return _Capacities(cut=cut, channels=channels, total=total)
    if resolved is None:
        neighbours = [topology.neighbors(v) for v in range(n)]
        channels = np.fromiter(map(len, neighbours), dtype=np.int64, count=n)
        # Each crossing link counted once, from its endpoint below the cut.
        cut = sum(1 for u in range(half) for v in neighbours[u] if v >= half)
    else:
        graph = resolved.surviving_graph(topology)
        channels = np.diff(graph.indptr)
        # Rows are ascending, so the rows below the cut are one CSR prefix.
        cut = int((graph.indices[: graph.indptr[half]] >= half).sum())
    return _Capacities(cut=cut, channels=channels, total=int(channels.sum()))


def step_lower_bound(
    topology,
    demands: Iterable[tuple[int, int]],
    *,
    fault_model=None,
    dropped: int = 0,
) -> tuple[int, dict[str, Any]]:
    """The certified floor on data-transfer steps for one demand set.

    Returns ``(bound, witness)`` where ``bound`` is the max over the
    :data:`BOUND_KINDS` families and ``witness`` records each family's
    value and inputs.  ``dropped`` adversarially discounts that many
    packets (see module docstring); a demand whose endpoints are
    disconnected under ``fault_model`` raises
    :class:`~repro.faults.UnroutableError`, and an endpoint that is not a
    node of ``topology`` raises ``ValueError``
    (:meth:`~repro.networks.base.Topology.validate_demands`).
    """
    from ..faults.model import UnroutableError

    resolved = _resolved(topology, fault_model)
    pairs = topology.validate_demands(list(demands))
    moving = pairs[pairs[:, 0] != pairs[:, 1]]
    src, dst = moving[:, 0], moving[:, 1]
    m = len(moving)
    k = max(0, int(dropped))
    witness: dict[str, Any] = {
        "packets": m,
        "dropped": k,
        "faulted": resolved is not None and resolved.structural,
    }
    if not m or k >= m:
        witness |= {"kinds": {b.name: 0 for b in BOUND_KINDS}, "binding": "trivial"}
        return 0, witness

    dists = _distances(topology, src, dst, resolved)
    # Discount the k largest distances (adversarially dropped packets).
    surviving = np.sort(dists)[: m - k] if k else dists

    # distance: the (k+1)-th largest distance must still be covered.
    distance_bound = int(surviving.max())

    # bisection: directional crossing demand over the cut capacity.
    half = topology.num_nodes // 2
    crossing_lr = int(np.count_nonzero((src < half) & (dst >= half)))
    crossing_rl = int(np.count_nonzero((dst < half) & (src >= half)))
    crossing = max(0, max(crossing_lr, crossing_rl) - k)
    caps = _capacities(topology, resolved)
    if crossing and not caps.cut:
        raise UnroutableError(
            "demands cross the halving cut but no surviving channel does"
        )
    bisection_bound = math.ceil(crossing / caps.cut) if crossing else 0

    # ports: the BSP h-relation floor at the most loaded endpoint.
    ports_bound = 0
    max_h = 0
    for ends in (src, dst):
        load = np.bincount(ends, minlength=topology.num_nodes) - k
        busy = np.flatnonzero(load > 0)
        if not busy.size:
            continue
        h = load[busy]
        max_h = max(max_h, int(h.max()))
        # channels > 0 at every busy node: a channel-less endpoint would
        # have been caught as disconnected by the distance pass above.
        ports_bound = max(
            ports_bound, int((-(-h // caps.channels[busy])).max())
        )

    # work: total traversals over machine-wide per-step slot capacity.
    total_distance = int(surviving.sum())
    work_bound = math.ceil(total_distance / caps.total) if total_distance else 0

    kinds = {
        "bisection": bisection_bound,
        "distance": distance_bound,
        "ports": ports_bound,
        "work": work_bound,
    }
    binding = max(kinds, key=lambda name: (kinds[name], name))
    witness |= {
        "kinds": kinds,
        "binding": binding,
        "cut_demand": max(crossing_lr, crossing_rl),
        "cut_capacity": caps.cut,
        "max_distance": distance_bound,
        "total_distance": total_distance,
        "total_capacity": caps.total,
        "max_h": max_h,
    }
    return kinds[binding], witness


def certify(
    topology,
    demands: Iterable[tuple[int, int]],
    achieved: int,
    *,
    fault_model=None,
    dropped: int = 0,
    label: str | None = None,
) -> Certificate:
    """Certify a measured step count against its analytic floor.

    Returns the :class:`Certificate`; raises :class:`BoundViolation` —
    a hard error, never a data point — when ``achieved < bound``.
    """
    bound, witness = step_lower_bound(
        topology, demands, fault_model=fault_model, dropped=dropped
    )
    cert = Certificate(
        achieved=int(achieved), bound=bound, witness=witness, label=label
    )
    if not cert.holds:
        raise BoundViolation(cert)
    return cert


def certify_schedule(schedule, *, label: str | None = None) -> Certificate:
    """Certify a :class:`~repro.sim.schedule.CommSchedule` against the
    floor of its own logical permutation."""
    demands = list(enumerate(schedule.logical.destinations.tolist()))
    return certify(
        schedule.topology, demands, schedule.num_steps, label=label
    )


def certify_stages(
    topology,
    stages: Sequence[Iterable[tuple[int, int]]],
    achieved: int,
    *,
    label: str | None = None,
) -> Certificate:
    """Certify a staged (barrier-synchronized) program.

    ``stages`` is one demand set per communication superstep; since the
    machine executes them sequentially, the floors *add* — the BSP
    per-superstep argument of arXiv:1707.02229.  The witness carries each
    stage's binding family and floor.
    """
    total = 0
    per_stage: list[dict[str, Any]] = []
    for demands in stages:
        bound, witness = step_lower_bound(topology, demands)
        total += bound
        per_stage.append(
            {"bound": bound, "binding": witness["binding"]}
        )
    cert = Certificate(
        achieved=int(achieved),
        bound=total,
        witness={"binding": "superstep-sum", "stages": per_stage},
        label=label,
    )
    if not cert.holds:
        raise BoundViolation(cert)
    return cert


def program_stage_demands(program) -> list[tuple[tuple[int, int], ...]]:
    """One demand set per communication op of a SIMD machine program.

    Exchange and Permute both realize their schedule's logical permutation
    on the wire; Compute ops move nothing and contribute no stage.
    """
    from ..sim.machine import Exchange, Permute

    stages: list[tuple[tuple[int, int], ...]] = []
    for op in program:
        if isinstance(op, (Exchange, Permute)):
            dests = op.schedule.logical.destinations.tolist()
            stages.append(
                tuple((i, d) for i, d in enumerate(dests) if i != d)
            )
    return stages


def certify_program(
    topology, program, achieved: int, *, label: str | None = None
) -> Certificate:
    """Certify a SIMD machine program's measured data-transfer steps
    against the superstep-sum of its communication ops' floors."""
    return certify_stages(
        topology, program_stage_demands(program), achieved, label=label
    )
