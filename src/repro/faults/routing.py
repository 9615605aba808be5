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
        self._adjacency = (
            self._graph.adjacency if self._graph is not None else None
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
        for nb in self._adjacency[current]:
            if dist[nb] == here - 1:
                return nb
        raise UnroutableError(  # pragma: no cover - dist>0 implies a hop
            f"no surviving hop from {current} toward {dest}"
        )

    def _alive_edge(self, u: int, v: int) -> bool:
        """Whether ``u -> v`` is one surviving step (adjacency probe)."""
        return v in self._adjacency[u]

    def prepare_dests(self, dests) -> None:
        """Warm the BFS tables for every destination in one batched sweep.

        The structure-of-arrays core calls this once before a faulted loop
        so no per-step ``next_hop_array`` call ever triggers an
        incremental (single-destination) BFS; the scalar path benefits
        too, since :meth:`_distances` reads the same shared cache.
        """
        if self._structural:
            self._graph.dest_table(np.asarray(dests, dtype=np.int64))

    def _next_hop_array_detoured(self, current, dest) -> np.ndarray:
        """Vector :meth:`next_hop`: minimal detours, elementwise.

        Bit-identical hop choices to the scalar method: the canonical base
        hop wins where it is alive and still minimal; otherwise the first
        (ascending) surviving neighbour that decreases the BFS distance —
        the exact neighbour the scalar adjacency scan returns, because CSR
        rows preserve that ascending order.  Equal ``(current, dest)``
        pairs pass through unchanged, matching the base routers'
        ``next_hop_array`` contract.
        """
        cur = np.asarray(current, dtype=np.int64)
        dst = np.asarray(dest, dtype=np.int64)
        faults = self._faults
        if self._down_nodes_arr is not None:
            # kind="table" skips np.unique (which imports numpy.ma on
            # NumPy 2.x); the table spans at most the node ids.
            dst_down = np.isin(dst, self._down_nodes_arr, kind="table")
            cur_down = np.isin(cur, self._down_nodes_arr, kind="table")
            bad = dst_down | cur_down
            if bad.any():
                i = int(np.argmax(bad))  # scalar check order per packet
                if dst_down[i]:
                    raise UnroutableError(
                        f"destination {int(dst[i])} is a failed node"
                    )
                raise UnroutableError(
                    f"packet at failed node {int(cur[i])} cannot move"
                )
        graph = self._graph
        table, dest_row = graph.dest_table(dst)
        di = dest_row[dst]
        here = table[di, cur]
        out = cur.copy()
        active = np.flatnonzero(cur != dst)
        if active.size == 0:
            return out
        cur_a = cur[active]
        di_a = di[active]
        here_a = here[active]
        if (here_a < 0).any():
            i = int(np.argmax(here_a < 0))
            raise UnroutableError(
                f"destination {int(dst[active[i]])} unreachable from "
                f"{int(cur_a[i])}: faults partition the network"
            )
        tgt = here_a - 1
        base_hops = np.asarray(
            self._base.next_hop_array(cur_a, dst[active]), dtype=np.int64
        )
        base_ok = (table[di_a, base_hops] == tgt) & graph.edges_alive(
            cur_a, base_hops
        )
        hops = np.where(base_ok, base_hops, np.int64(-1))
        rest = np.flatnonzero(~base_ok)
        if rest.size:
            from ..networks.degraded import _csr_gather

            rows, nbrs = _csr_gather(graph.indptr, graph.indices, cur_a[rest])
            good = table[di_a[rest][rows], nbrs] == tgt[rest][rows]
            sel_rows = rows[good]
            sel_nbrs = nbrs[good]
            # First qualifying neighbour per row: ``rows`` is
            # non-decreasing, so the first entry of each run is the first
            # (ascending) neighbour — the scalar scan's pick.
            first = np.ones(sel_rows.shape[0], dtype=bool)
            first[1:] = sel_rows[1:] != sel_rows[:-1]
            hops[rest[sel_rows[first]]] = sel_nbrs[first]
            if (hops[rest] < 0).any():  # pragma: no cover - dist>0 => a hop
                i = int(np.argmax(hops[rest] < 0))
                raise UnroutableError(
                    f"no surviving hop from {int(cur_a[rest[i]])} toward "
                    f"{int(dst[active[rest[i]]])}"
                )
        out[active] = hops
        return out

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
    def check_routable(self, sources, dests) -> None:
        """Raise :class:`UnroutableError` for the first doomed packet.

        Called by the engine before arbitration starts so a partitioned
        demand set fails fast with the offending packet named, instead of
        surfacing as a mid-run deadlock.

        Vectorized: endpoint screening and the reachability probe run as
        whole-array operations (one batched BFS covers every distinct
        destination), with the scalar per-packet check order — source
        down, destination down, partitioned — preserved for the first
        offending packet so the raised message is unchanged.
        """
        faults = self._faults
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(dests, dtype=np.int64)
        bad = None
        if self._down_nodes_arr is not None:
            src_down = np.isin(src, self._down_nodes_arr, kind="table")
            dst_down = np.isin(dst, self._down_nodes_arr, kind="table")
            bad = src_down | dst_down
        if self._structural and src.size:
            table, dest_row = self._graph.dest_table(dst)
            cut = (src != dst) & (table[dest_row[dst], src] == -1)
            bad = cut if bad is None else bad | cut
        else:
            cut = None
        if bad is None or not bad.any():
            return
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


def fault_aware_router(
    topology: Topology,
    faults: FaultModel | ResolvedFaults,
    base: "Router | None" = None,
) -> FaultAwareRouter:
    """Build a :class:`FaultAwareRouter` over the topology's canonical
    discipline (or an explicit ``base``)."""
    from ..sim.routers import router_for

    return FaultAwareRouter(topology, base or router_for(topology), faults)
