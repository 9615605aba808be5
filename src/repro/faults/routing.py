"""Fault-aware routing: minimal detours on the surviving network.

:class:`FaultAwareRouter` wraps any deterministic base router.  While a
packet's canonical next hop is still alive *and* still lies on a shortest
surviving path, the wrapper defers to the base discipline — fault-free
regions route exactly as the paper prescribes.  The moment the canonical
hop is dead (or no longer minimal in the broken machine) the wrapper falls
back to a BFS next-hop table computed on the surviving graph, giving a
**minimal detour**: every hop strictly decreases the surviving-graph
distance to the destination, so routes cannot cycle and their length is
exactly the surviving distance.

When no surviving path exists — the faults partitioned the destination
away, or an endpoint is itself a dead node — the router raises
:class:`~repro.faults.model.UnroutableError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..networks.base import ChannelModel, HypergraphTopology, Topology
from .model import FaultModel, ResolvedFaults, UnroutableError, resolve_faults

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.routers import Router

__all__ = ["FaultAwareRouter", "fault_aware_router"]


class FaultAwareRouter:
    """Route around a resolved fault set with minimal detours.

    Parameters
    ----------
    topology:
        The (intact) network the faults apply to.
    base:
        Deterministic fault-free discipline to defer to where possible.
    faults:
        A :class:`FaultModel` (resolved here) or an already-resolved
        :class:`ResolvedFaults`.

    The router is itself a pure function of ``(current, dest)`` — BFS
    next-hop tables are built once per destination and memoized — so it
    satisfies the engine's determinism contract and composes with
    :class:`~repro.sim.routers.TabulatedRouter`.
    """

    def __init__(
        self,
        topology: Topology,
        base: "Router",
        faults: FaultModel | ResolvedFaults,
    ):
        if isinstance(faults, FaultModel):
            faults = resolve_faults(faults, topology)
        self._topology = topology
        self._base = base
        self._faults = faults
        self._structural = faults.structural and bool(
            faults.down_links or faults.down_nodes or faults.down_nets
        )
        # The surviving graph (adjacency + CSR + BFS tables) is cached on
        # the resolved fault set, so every router built against the same
        # (faults, topology) pair shares one copy of the structure.
        self._graph = (
            faults.surviving_graph(topology) if self._structural else None
        )
        self._hypergraph = (
            topology.channel_model is ChannelModel.HYPERGRAPH_NET
        )
        # Vector routing needs the base discipline to answer elementwise
        # too; bind the wrapper method only then, so the engines'
        # ``getattr(router, "next_hop_array", None)`` probe stays honest.
        base_array = getattr(base, "next_hop_array", None)
        if base_array is not None:
            if self._structural:
                self.next_hop_array = self._next_hop_array_detoured
            else:
                # Intact graph: the base discipline's routes are the routes.
                self.next_hop_array = base_array
        # Down nodes as a sorted array for vectorized endpoint screening.
        self._down_nodes_arr = (
            np.fromiter(sorted(faults.down_nodes), dtype=np.int64,
                        count=len(faults.down_nodes))
            if faults.down_nodes else None
        )

    # ------------------------------------------------------------ accessors
    @property
    def base(self) -> "Router":
        """The wrapped fault-free discipline."""
        return self._base

    @property
    def faults(self) -> ResolvedFaults:
        """The resolved fault set this router routes around."""
        return self._faults

    def _distances(self, dest: int) -> list[int]:
        return self._graph.distances_list(dest)

    # -------------------------------------------------------------- routing
    def next_hop(self, current: int, dest: int) -> int | None:
        """Next neighbour toward ``dest`` on the surviving network.

        Raises :class:`UnroutableError` when ``dest`` is unreachable from
        ``current`` (or either endpoint is a dead node).
        """
        if current == dest:
            return None
        faults = self._faults
        if not self._structural:
            # Drop-only / degraded-net-only models leave the graph intact:
            # the base discipline's routes are still minimal and alive.
            return self._base.next_hop(current, dest)
        if faults.node_down(dest):
            raise UnroutableError(
                f"destination {dest} is a failed node"
            )
        if faults.node_down(current):
            raise UnroutableError(
                f"packet at failed node {current} cannot move"
            )
        dist = self._distances(dest)
        here = dist[current]
        if here == -1:
            raise UnroutableError(
                f"destination {dest} unreachable from {current}: "
                f"faults partition the network"
            )
        # Prefer the canonical hop when it is alive and still minimal, so
        # fault-free regions behave exactly like the base discipline.
        base_hop = self._base.next_hop(current, dest)
        if (
            base_hop is not None
            and dist[base_hop] == here - 1
            and self._alive_edge(current, base_hop)
        ):
            return base_hop
        for nb in self._graph.adjacency[current]:
            if dist[nb] == here - 1:
                return nb
        raise UnroutableError(  # pragma: no cover - dist>0 implies a hop
            f"no surviving hop from {current} toward {dest}"
        )

    def _alive_edge(self, u: int, v: int) -> bool:
        """Whether ``u -> v`` is one surviving step (adjacency probe)."""
        return v in self._graph.adjacency[u]

    def _next_hop_array_detoured(
        self, current, dest, clean=None
    ) -> np.ndarray:
        """Vector :meth:`next_hop`: minimal detours, elementwise.

        Bit-identical hop choices to the scalar method: the canonical base
        hop wins where it is alive and still minimal; otherwise the first
        (ascending) surviving neighbour that decreases the BFS distance —
        the exact neighbour the scalar adjacency scan returns, because CSR
        rows preserve that ascending order.  Equal ``(current, dest)``
        pairs pass through unchanged, matching the base routers'
        ``next_hop_array`` contract.  A doomed pair raises the scalar
        method's error for the first such pair.

        ``clean`` (optional, per row) carries :meth:`check_routable`'s
        flags for packets still on their base paths: a clean row's
        surviving distance is its fault-free one, so its base hop is
        alive and minimal and it skips the distance table.  Other rows
        read the table :meth:`check_routable` built for the dirty
        packets' destinations; a destination it never saw costs a BFS
        here.
        """
        cur = np.asarray(current, dtype=np.int64)
        dst = np.asarray(dest, dtype=np.int64)
        base_hops = np.asarray(
            self._base.next_hop_array(cur, dst), dtype=np.int64
        )
        if clean is None:
            return self._detour(cur, dst, base_hops)
        dirty = np.flatnonzero(~np.asarray(clean, dtype=bool))
        if dirty.size:
            base_hops[dirty] = self._detour(
                cur[dirty], dst[dirty], base_hops[dirty]
            )
        return base_hops

    def _detour(self, cur, dst, base_hops) -> np.ndarray:
        """The base hops with every dead or non-minimal one replaced by
        the first (ascending) surviving neighbour one BFS hop closer."""
        graph = self._graph
        di = graph.dest_row[dst]
        if (di < 0).any():
            graph.dest_table(dst)
            di = graph.dest_row[dst]
        table = graph.table
        here = table[di, cur]
        if (here < 0).any():
            # A down endpoint is cut off from every other node, so -1
            # covers the scalar method's three checks; keep their order.
            i = int(np.argmax(here < 0))
            self.next_hop(int(cur[i]), int(dst[i]))  # raises the message
        # Equal pairs sit at distance 0 and keep the base's passthrough.
        tgt = here - 1
        base_ok = (here == 0) | (
            (table[di, base_hops] == tgt) & graph.edges_alive(cur, base_hops)
        )
        if base_ok.all():
            return base_hops
        hops = base_hops.copy()
        rest = np.flatnonzero(~base_ok)
        # First (ascending) neighbour one hop closer: the scalar scan's
        # pick.  Padding slots hold the node itself and never qualify.
        cand = graph.neighbour_slots[:, cur[rest]]
        good = table[di[rest], cand] == tgt[rest]
        cols = np.arange(rest.size)
        pick = good.argmax(axis=0)
        hops[rest] = cand[pick, cols]
        if not good[pick, cols].all():  # pragma: no cover - dist>0 => a hop
            i = int(rest[np.argmin(good[pick, cols])])
            raise UnroutableError(
                f"no surviving hop from {int(cur[i])} toward {int(dst[i])}"
            )
        return hops

    # ----------------------------------------------------------- hypergraph
    def shared_net(self, node_a: int, node_b: int) -> int | None:
        """First **alive** net both nodes belong to, or ``None``.

        The engine's degraded path uses this instead of
        ``topology.shared_net``: a generic hypergraph topology may report a
        hard-down net for a pair that also shares an alive one.
        """
        assert isinstance(self._topology, HypergraphTopology)
        topo = self._topology
        faults = self._faults
        if not faults.down_nets:
            return topo.shared_net(node_a, node_b)
        nets = topo.nets()
        nets_a = set(topo.nets_of(node_a))
        for net in topo.nets_of(node_b):
            if net in nets_a and not faults.net_down(net):
                if node_a != node_b and node_a in nets[net]:
                    return net
        return None

    def shared_net_array(self, nodes_a, nodes_b) -> np.ndarray:
        """Vector :meth:`shared_net`: first alive shared net per pair, -1
        for none.

        Delegates to the topology's closed-form ``shared_net_array`` when
        no net is hard-down (degraded nets still carry packets, so the
        intact answer stands); with down nets it falls back to the scalar
        probe per pair — exactness over speed on the rare path.
        """
        assert isinstance(self._topology, HypergraphTopology)
        faults = self._faults
        topo = self._topology
        if not faults.down_nets:
            fast = getattr(topo, "shared_net_array", None)
            if fast is not None:
                return np.asarray(fast(nodes_a, nodes_b), dtype=np.int64)
        a = np.asarray(nodes_a, dtype=np.int64)
        b = np.asarray(nodes_b, dtype=np.int64)
        out = np.empty(a.shape[0], dtype=np.int64)
        shared = self.shared_net if faults.down_nets else topo.shared_net
        for i, (u, v) in enumerate(zip(a.tolist(), b.tolist())):
            net = shared(u, v)
            out[i] = -1 if net is None else net
        return out

    # --------------------------------------------------------- prevalidation
    def check_routable(self, sources, dests) -> np.ndarray | None:
        """Raise :class:`UnroutableError` for the first doomed packet;
        return the per-packet *clean* mask.

        Called by the engine before arbitration starts so a partitioned
        demand set fails fast with the offending packet named, instead of
        surfacing as a mid-run deadlock.

        A packet is clean when its whole fault-free base path is alive
        (:meth:`_clean_paths`): that path is then a shortest surviving one,
        so the packet is routable and needs no distance row.  Only the
        destinations of the other (dirty) packets are BFS'd, in one
        bit-parallel batch whose table also feeds the detour.  Endpoint
        screening and the reachability probe run as whole-array
        operations, with the scalar per-packet check order — source down,
        destination down, partitioned — preserved for the first offending
        packet so the raised message is unchanged.  On a structurally
        intact machine (drops or degraded nets only) every base path is
        alive and the mask is ``None``.
        """
        faults = self._faults
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(dests, dtype=np.int64)
        bad = None
        if self._down_nodes_arr is not None:
            src_down = np.isin(src, self._down_nodes_arr, kind="table")
            dst_down = np.isin(dst, self._down_nodes_arr, kind="table")
            bad = src_down | dst_down
        clean = None
        if self._structural:
            clean = self._clean_paths(src, dst)
            dirty = np.flatnonzero(~clean)
            if dirty.size:
                table, dest_row = self._graph.dest_table(dst[dirty])
                cut = np.zeros(src.shape, dtype=bool)
                cut[dirty] = table[dest_row[dst[dirty]], src[dirty]] == -1
                bad = cut if bad is None else bad | cut
        if bad is None or not bad.any():
            return clean
        pid = int(np.argmax(bad))
        s, d = int(src[pid]), int(dst[pid])
        if faults.node_down(s):
            raise UnroutableError(
                f"packet {pid} originates at failed node {s}"
            )
        if faults.node_down(d):
            raise UnroutableError(
                f"packet {pid} targets failed node {d}"
            )
        raise UnroutableError(
            f"packet {pid} ({s} -> {d}) is unroutable: "
            f"faults partition the network"
        )

    def _clean_paths(self, sources, dests) -> np.ndarray:
        """Per packet: is its whole fault-free base path alive?

        Only for a base discipline known to route shortest paths on this
        topology — then an all-alive path is a shortest *surviving* path
        too, and every base hop on it is one the detour keeps.  Mesh and
        torus dimension order use a closed form
        (:func:`_clean_dimension_order`); e-cube and hypermesh digit correction walk their at most
        ``log2 N`` / ``d`` hops (:func:`_clean_walk`).  Any other base
        discipline marks every moving packet dirty.  A packet already at
        its destination is clean, and so is every packet on an intact
        graph.
        """
        from ..networks.hypercube import Hypercube
        from ..networks.hypermesh import Hypermesh
        from ..networks.mesh import Mesh
        from ..networks.torus import Torus
        from ..sim.routers import (
            HypercubeEcubeRouter,
            HypermeshDigitRouter,
            MeshDimensionOrderRouter,
            TorusDimensionOrderRouter,
        )

        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(dests, dtype=np.int64)
        topo, base, graph = self._topology, self._base, self._graph
        if graph is None:
            return np.ones(src.shape, dtype=bool)
        kind = type(base)
        radices = getattr(topo, "radices", None)
        if kind is MeshDimensionOrderRouter and isinstance(topo, Mesh) \
                and base._radices == radices:
            return _clean_dimension_order(graph, radices, src, dst, False)
        if kind is TorusDimensionOrderRouter and isinstance(topo, Torus) \
                and base._radices == radices:
            return _clean_dimension_order(graph, radices, src, dst, True)
        if kind is HypercubeEcubeRouter and isinstance(topo, Hypercube):
            hops = topo.dimension
        elif kind is HypermeshDigitRouter and isinstance(topo, Hypermesh) \
                and base._radices == radices:
            hops = len(radices)
        else:
            return src == dst
        return _clean_walk(base.next_hop_array, graph, src, dst, hops)


def _clean_walk(next_hop_array, graph, src, dst, hops: int) -> np.ndarray:
    """Clean mask by walking every packet's base path hop by hop.

    Each of at most ``hops`` rounds advances the packets still short of
    their destinations by one base hop and drops those whose hop is not
    a surviving edge; a packet still short after ``hops`` rounds took a
    longer path than promised and counts as dirty.
    """
    clean = np.ones(src.shape, dtype=bool)
    live = np.flatnonzero(src != dst)
    cur = src[live]
    for _ in range(hops):
        if not live.size:
            break
        to = dst[live]
        nxt = np.asarray(next_hop_array(cur, to), dtype=np.int64)
        ok = graph.edges_alive(cur, nxt)
        clean[live[~ok]] = False
        going = ok & (nxt != to)
        live, cur = live[going], nxt[going]
    clean[live] = False
    return clean


def _clean_dimension_order(
    graph, radices, src, dst, wrap: bool
) -> np.ndarray:
    """Clean mask for dimension-order routing on a mesh (``wrap=False``)
    or a torus (``wrap=True``), in closed form.

    Dimension ``k``'s segment of a path runs along one line of that
    dimension, from the node holding the destination's digits before
    ``k`` and the source's from ``k`` on.  Per line, an exclusive prefix
    sum over the dead links ``i -> i+1`` counts the dead links between two
    coordinates at once.
    A torus segment goes the shorter way round, ties toward increasing
    coordinates, as :class:`~repro.sim.routers.TorusDimensionOrderRouter`
    does; a segment that crosses the wrap uses every link of its ring
    except the ones between its ends.
    """
    n = graph.num_nodes
    nodes = np.arange(n, dtype=np.int64)
    clean = np.ones(src.shape, dtype=bool)
    cur = src
    stride = n
    for radix in radices:
        stride //= radix
        last = nodes // stride % radix == radix - 1
        # Link i -> i+1 of each line, and r-1 -> 0 (a link on a torus only;
        # only the ring total reads it).
        up = nodes + np.where(last, (1 - radix) * stride, stride)
        dead = ~graph.edges_alive(nodes, up)
        lines = dead.reshape(n // (radix * stride), radix, stride)
        inclusive = np.cumsum(lines, axis=1, dtype=np.int64)
        before = (inclusive - lines).reshape(n)
        c = cur // stride % radix
        d = dst // stride % radix
        nxt = cur + (d - c) * stride
        span = np.abs(before[nxt] - before[cur])
        if wrap:
            ring = np.broadcast_to(
                inclusive[:, -1:, :], lines.shape
            ).reshape(n)
            forward = (d - c) % radix <= (c - d) % radix
            span = np.where(forward == (d >= c), span, ring[cur] - span)
        clean &= span == 0
        cur = nxt
    return clean


def fault_aware_router(
    topology: Topology,
    faults: FaultModel | ResolvedFaults,
    base: "Router | None" = None,
) -> FaultAwareRouter:
    """Build a :class:`FaultAwareRouter` over the topology's canonical
    discipline (or an explicit ``base``)."""
    from ..sim.routers import router_for

    return FaultAwareRouter(topology, base or router_for(topology), faults)
