"""Time-expanded communication schedules.

A :class:`CommSchedule` says exactly which packet crosses which channel at
which data-transfer step — the unit of account of the whole paper.  Both ways
of producing communication are lowered to this one representation:

* *algorithmic* schedules (hypercube butterfly exchanges, the hypermesh
  3-step Clos route, mesh shift exchanges) are constructed directly by
  :mod:`repro.core`, and
* *adaptive* routing (greedy XY on the mesh) records the moves it made
  (:mod:`repro.sim.engine`, whose one core is bit-identical by contract
  to the step-loop oracles in :mod:`repro.sim._reference`, down to the
  insertion order of each step's move dict).

Validation then enforces the word-level hardware constraints uniformly:

* every move is one hop (link traversal / net traversal);
* on point-to-point networks each **directed link** carries at most one
  packet per step;
* on hypergraph networks each node **injects at most one packet into a given
  net** and **receives at most one packet from a given net** per step (the
  crossbar port constraint);
* after the last step every packet sits at its destination.

Packet ``i`` always starts at node ``i`` (one packet per PE — the SIMD
word-level model); its destination is ``logical[i]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..networks.base import (
    ChannelModel,
    HypergraphTopology,
    PointToPointTopology,
    Topology,
)
from ..routing.permutation import Permutation

__all__ = ["CommSchedule", "ScheduleError", "schedule_from_phases"]


class ScheduleError(ValueError):
    """A communication schedule violates the word-level hardware model."""


@dataclass(frozen=True)
class CommSchedule:
    """Moves of ``n`` packets over a number of data-transfer steps.

    Attributes
    ----------
    topology:
        Network the schedule runs on.
    logical:
        The permutation being realized; packet ``i`` starts at node ``i`` and
        must end at ``logical[i]``.
    steps:
        One mapping per data-transfer step: ``{packet_id: node_moved_to}``.
        Packets not mentioned stay where they are for that step.
    """

    topology: Topology
    logical: Permutation
    steps: tuple[Mapping[int, int], ...] = field(default_factory=tuple)

    @property
    def num_steps(self) -> int:
        """Data-transfer steps consumed."""
        return len(self.steps)

    def final_positions(self) -> list[int]:
        """Where each packet ends up after replaying all steps."""
        pos = list(range(self.logical.n))
        for step in self.steps:
            for pid, node in step.items():
                pos[pid] = node
        return pos

    def total_hops(self) -> int:
        """Total channel traversals across all packets and steps."""
        return sum(len(step) for step in self.steps)

    def validate(self) -> None:
        """Raise :class:`ScheduleError` on any hardware-model violation.

        The checks run as NumPy structure-of-arrays passes (packet ids,
        target nodes, and link/net codes as ``int64`` arrays, conflicts
        detected with :func:`np.unique` counts) — an order of magnitude
        faster than the per-move dict walk on multi-thousand-node
        schedules.  Whenever the fast path detects *any* violation, or the
        steps do not pack into integer arrays, it defers to
        :meth:`validate_dictwalk`, so the raised :class:`ScheduleError`
        type and message are exactly the reference implementation's.
        """
        verdict = self._validate_vectorized()
        if verdict is True:
            return
        self.validate_dictwalk()

    def _validate_vectorized(self) -> bool:
        """One vectorized pass over all steps.

        Returns ``True`` when the schedule is provably valid and ``False``
        when it found a violation or could not represent the steps as int
        arrays — in both of the latter cases :meth:`validate_dictwalk` is
        authoritative (and raises the precise error).
        """
        topo = self.topology
        n = self.logical.n
        if n != topo.num_nodes:
            return False
        m = topo.num_nodes
        point_to_point = topo.channel_model is ChannelModel.POINT_TO_POINT
        shared_net_array = getattr(topo, "shared_net_array", None)
        if not point_to_point and shared_net_array is None:
            return False  # no batch net lookup: generic hypergraph topology
        try:
            packed = [
                (
                    np.fromiter(step.keys(), dtype=np.int64, count=len(step)),
                    np.fromiter(step.values(), dtype=np.int64, count=len(step)),
                )
                for step in self.steps
            ]
        except (TypeError, ValueError):
            return False  # exotic packet ids / nodes: dict walk decides

        if point_to_point:
            # Every legal directed hop as a ``u * m + v`` code, sorted for
            # searchsorted membership probes.
            codes = []
            for u, v in topo.links():
                codes.append(u * m + v)
                codes.append(v * m + u)
            link_codes = np.sort(np.asarray(codes, dtype=np.int64))

        pos = np.arange(n, dtype=np.int64)
        for pids, nodes in packed:
            if len(pids) == 0:
                continue
            # Bounds before any fancy indexing (mirrors the dict walk).
            if (pids < 0).any() or (pids >= n).any():
                return False
            if (nodes < 0).any() or (nodes >= m).any():
                return False
            cur = pos[pids]
            if (cur == nodes).any():
                return False  # packet "moves" to its own node
            if point_to_point:
                if link_codes.size == 0:
                    return False  # moves on a linkless topology
                hops = cur * m + nodes
                idx = np.searchsorted(link_codes, hops)
                idx[idx == len(link_codes)] = 0
                if (link_codes[idx] != hops).any():
                    return False  # non-adjacent jump
                if np.unique(hops).size != hops.size:
                    return False  # a directed link carries two packets
            else:
                nets = np.asarray(shared_net_array(cur, nodes), dtype=np.int64)
                if (nets < 0).any():
                    return False  # no shared net
                inject = nets * m + cur
                deliver = nets * m + nodes
                if np.unique(inject).size != inject.size:
                    return False  # a node injects two packets into one net
                if np.unique(deliver).size != deliver.size:
                    return False  # a node receives two from one net
            pos[pids] = nodes
        return bool((pos == self.logical.destinations).all())

    def validate_dictwalk(self) -> None:
        """The reference per-move dict-walk validator.

        Exactly the pre-vectorization implementation: every move checked
        one dict entry at a time.  :meth:`validate` falls back to it for
        precise errors, and the equivalence tests hold it against the fast
        path.
        """
        topo = self.topology
        n = self.logical.n
        if n != topo.num_nodes:
            raise ScheduleError(
                f"{n} packets do not match {topo.num_nodes} nodes"
            )
        pos = list(range(n))
        point_to_point = topo.channel_model is ChannelModel.POINT_TO_POINT
        for step_index, step in enumerate(self.steps):
            # Bounds first, so malformed ids raise ScheduleError instead of
            # IndexError (or silently aliasing via negative indexing).
            for pid, node in step.items():
                if not 0 <= pid < n:
                    raise ScheduleError(
                        f"step {step_index}: packet id {pid} outside [0, {n})"
                    )
                if not 0 <= node < topo.num_nodes:
                    raise ScheduleError(
                        f"step {step_index}: node {node} outside "
                        f"[0, {topo.num_nodes})"
                    )
            if point_to_point:
                self._validate_point_to_point_step(topo, pos, step, step_index)
            else:
                self._validate_net_step(topo, pos, step, step_index)
            for pid, node in step.items():
                pos[pid] = node
        for pid in range(n):
            want = self.logical[pid]
            if pos[pid] != want:
                raise ScheduleError(
                    f"packet {pid} ends at node {pos[pid]}, expected {want}"
                )

    @staticmethod
    def _validate_point_to_point_step(
        topo: PointToPointTopology,
        pos: Sequence[int],
        step: Mapping[int, int],
        step_index: int,
    ) -> None:
        used_links: set[tuple[int, int]] = set()
        for pid, node in step.items():
            cur = pos[pid]
            if node == cur:
                raise ScheduleError(
                    f"step {step_index}: packet {pid} 'moves' to its own node"
                )
            if node not in topo.neighbors(cur):
                raise ScheduleError(
                    f"step {step_index}: packet {pid} jumps {cur} -> {node} "
                    f"(not adjacent)"
                )
            link = (cur, node)
            if link in used_links:
                raise ScheduleError(
                    f"step {step_index}: directed link {link} carries two packets"
                )
            used_links.add(link)

    @staticmethod
    def _validate_net_step(
        topo: HypergraphTopology,
        pos: Sequence[int],
        step: Mapping[int, int],
        step_index: int,
    ) -> None:
        inject: set[tuple[int, int]] = set()  # (net, sender node)
        deliver: set[tuple[int, int]] = set()  # (net, receiver node)
        for pid, node in step.items():
            cur = pos[pid]
            if node == cur:
                raise ScheduleError(
                    f"step {step_index}: packet {pid} 'moves' to its own node"
                )
            net = _shared_net(topo, cur, node)
            if net is None:
                raise ScheduleError(
                    f"step {step_index}: packet {pid} jumps {cur} -> {node} "
                    f"(no shared net)"
                )
            if (net, cur) in inject:
                raise ScheduleError(
                    f"step {step_index}: node {cur} injects two packets into "
                    f"net {net}"
                )
            if (net, node) in deliver:
                raise ScheduleError(
                    f"step {step_index}: node {node} receives two packets from "
                    f"net {net}"
                )
            inject.add((net, cur))
            deliver.add((net, node))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommSchedule(topology={self.topology!r}, "
            f"steps={self.num_steps}, packets={self.logical.n})"
        )


def _shared_net(topo: HypergraphTopology, a: int, b: int) -> int | None:
    """Identifier of a net containing both nodes, or None.

    For hypermeshes the nets of a node intersect pairwise only at the node,
    so at most one net is shared by two distinct nodes.  Delegates to the
    topology's cached/closed-form lookup instead of intersecting net sets
    per call, which dominated validation time on large hypermeshes.
    """
    if not isinstance(topo, HypergraphTopology):
        raise TypeError(
            f"net lookup needs a HypergraphTopology, got {type(topo).__name__}"
        )
    return topo.shared_net(a, b)


def schedule_from_phases(
    topology: Topology,
    phases: Sequence[Permutation],
) -> CommSchedule:
    """Lower a sequence of one-step phase permutations to a schedule.

    Each phase must move every non-fixed packet exactly one hop; the phases
    compose left-to-right into the logical permutation.  This is the lowering
    used by hypercube butterfly stages and hypermesh Clos routes, where the
    algorithm guarantees single-hop phases.
    """
    if not phases:
        raise ScheduleError("need at least one phase")
    n = phases[0].n
    steps: list[dict[int, int]] = []
    # Track where each packet currently is so phases (which permute
    # *positions*) can be converted into per-packet moves.
    position = list(range(n))
    packet_at = list(range(n))  # node -> packet id
    logical = Permutation.identity(n)
    for phase in phases:
        if phase.n != n:
            raise ScheduleError("phase sizes disagree")
        logical = logical.compose(phase)
        moves: dict[int, int] = {}
        new_position = position[:]
        new_packet_at = packet_at[:]
        for node in range(n):
            dest = phase[node]
            if dest != node:
                pid = packet_at[node]
                moves[pid] = dest
                new_position[pid] = dest
                new_packet_at[dest] = pid
        position = new_position
        packet_at = new_packet_at
        steps.append(moves)
    return CommSchedule(topology=topology, logical=logical, steps=tuple(steps))
