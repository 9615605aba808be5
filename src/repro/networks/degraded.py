"""Surviving-network structure under a resolved fault set.

The fault-aware router and the property-test harness both need the same
view of a broken machine: *which single-step moves are still possible?*
For point-to-point topologies that is the adjacency minus down links and
down nodes; for hypergraph topologies it is the clique expansion of the
**alive** nets (a degraded net still connects its members — it just
serializes, which is an engine-capacity concern, not a reachability one).

Everything here is deterministic: neighbour lists are sorted ascending, so
the BFS next-hop tables built on top of them are reproducible and the
engine's arbitration order is stable across runs.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import chain, count
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .base import ChannelModel, Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.model import ResolvedFaults

__all__ = [
    "surviving_adjacency",
    "reachable_from",
    "components_under",
    "surviving_distances",
    "surviving_csr",
    "batched_surviving_distances",
    "SurvivingGraph",
]


def surviving_adjacency(
    topology: Topology, faults: "ResolvedFaults"
) -> list[tuple[int, ...]]:
    """Per-node neighbour tuples after removing down links/nodes/nets.

    A down node keeps an empty neighbour list and appears in no other
    node's list.  Hypergraph edges exist where the two nodes share at least
    one net that is not hard-down (degraded nets count: they still carry
    packets, one per step).  Each tuple is ascending: row ``u`` of the
    CSR image :class:`SurvivingGraph` builds.
    """
    indptr, indices = _csr_of_codes(_surviving_edge_codes(topology, faults),
                                    topology.num_nodes)
    return _csr_rows(indptr, indices)


def _surviving_edge_codes(
    topology: Topology, faults: "ResolvedFaults"
) -> np.ndarray:
    """Sorted, distinct directed surviving edges as ``u * n + v`` codes.

    Built from whole arrays: the point-to-point families' sorted
    :meth:`~repro.networks.base.PointToPointTopology.link_array` minus the
    down links and every link touching a down node, both directions; or,
    on a hypergraph, every ordered pair of distinct alive members of each
    alive net.  Sorting the codes orders the edges by source and then by
    neighbour, which is the CSR layout.
    """
    n = topology.num_nodes
    down = np.zeros(n, dtype=bool)
    if faults.down_nodes:
        down[np.fromiter(faults.down_nodes, dtype=np.int64,
                         count=len(faults.down_nodes))] = True
    if topology.channel_model is ChannelModel.HYPERGRAPH_NET:
        nets = topology.nets()
        sizes = np.fromiter(map(len, nets), dtype=np.int64, count=len(nets))
        members = np.fromiter(chain.from_iterable(nets), dtype=np.int64,
                              count=int(sizes.sum()))
        net_of = np.repeat(np.arange(len(nets), dtype=np.int64), sizes)
        alive = ~down[members]
        if faults.down_nets:
            net_down = np.zeros(len(nets), dtype=bool)
            net_down[np.fromiter(faults.down_nets, dtype=np.int64,
                                 count=len(faults.down_nets))] = True
            alive &= ~net_down[net_of]
        members, net_of = members[alive], net_of[alive]
        net_ptr = np.zeros(len(nets) + 1, dtype=np.int64)
        np.cumsum(np.bincount(net_of, minlength=len(nets)), out=net_ptr[1:])
        # Each alive membership pairs with every alive member of its net.
        rows, others = _csr_gather(net_ptr, members, net_of)
        u = members[rows]
        keep = u != others
        # Two nets may share a pair: sort, then keep each code's first copy
        # (np.unique would do it too, but imports numpy.ma on NumPy 2.x).
        codes = np.sort(u[keep] * n + others[keep])
        first = np.ones(codes.shape[0], dtype=bool)
        first[1:] = codes[1:] != codes[:-1]
        return codes[first]
    links = topology.link_array()
    u, v = links[:, 0], links[:, 1]
    keep = ~(down[u] | down[v])
    if faults.down_links:
        codes = u * n + v  # ascending: the links are sorted
        cut = np.fromiter(
            (a * n + b for a, b in faults.down_links
             if 0 <= a and b < n),
            dtype=np.int64,
        )
        at = np.minimum(np.searchsorted(codes, cut), codes.shape[0] - 1)
        keep[at[codes[at] == cut]] = False
    u, v = u[keep], v[keep]
    return np.sort(np.concatenate((u * n + v, v * n + u)))


def _csr_of_codes(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of sorted directed edge codes ``u * n + v``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes // n, minlength=n), out=indptr[1:])
    return indptr, codes % n


def _csr_rows(
    indptr: np.ndarray, indices: np.ndarray
) -> list[tuple[int, ...]]:
    """The CSR rows as per-node tuples of Python ints."""
    flat = indices.tolist()
    bounds = indptr.tolist()
    return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def reachable_from(adjacency: Sequence[Sequence[int]], start: int) -> set[int]:
    """Nodes reachable from ``start`` in the surviving graph (incl. start)."""
    seen = {start}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for nb in adjacency[node]:
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen


def components_under(adjacency: Sequence[Sequence[int]]) -> list[set[int]]:
    """Connected components of the surviving graph, in first-node order.

    Down nodes (empty adjacency rows that no other row references) come out
    as singleton components — callers who care filter them out.
    """
    seen: set[int] = set()
    components: list[set[int]] = []
    for node in range(len(adjacency)):
        if node in seen:
            continue
        comp = reachable_from(adjacency, node)
        seen |= comp
        components.append(comp)
    return components


def surviving_distances(
    adjacency: Sequence[Sequence[int]], dest: int
) -> list[int]:
    """BFS hop counts from every node **to** ``dest`` (-1 = unreachable).

    The surviving graphs here are undirected (a down link kills both
    directions), so distance-to equals distance-from and one BFS rooted at
    the destination serves every source.
    """
    dist = [-1] * len(adjacency)
    dist[dest] = 0
    frontier = deque([dest])
    while frontier:
        node = frontier.popleft()
        d = dist[node] + 1
        for nb in adjacency[node]:
            if dist[nb] == -1:
                dist[nb] = d
                frontier.append(nb)
    return dist


def surviving_csr(
    adjacency: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """The surviving adjacency in CSR form: ``(indptr, indices)`` int64.

    ``indices[indptr[u]:indptr[u+1]]`` is node ``u``'s neighbour tuple in
    the same ascending order :func:`surviving_adjacency` produces, so any
    "first neighbour satisfying P" scan over a CSR row picks exactly the
    node the list-based scan picks.
    """
    n = len(adjacency)
    counts = np.fromiter(
        (len(row) for row in adjacency), dtype=np.int64, count=n
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.fromiter(
        (nb for row in adjacency for nb in row),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    return indptr, indices


def _csr_gather(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR rows for ``nodes``: ``(row_of_entry, neighbours)``.

    ``row_of_entry[j]`` is the index *into ``nodes``* whose adjacency row
    produced ``neighbours[j]``; within one row the neighbours keep their
    ascending CSR order.  This is the repeat/cumsum slice-gather trick —
    no Python loop over rows.
    """
    starts = indptr[nodes]
    deg = indptr[nodes + 1] - starts
    total = int(deg.sum())
    cum = np.cumsum(deg)
    offsets = np.arange(total, dtype=np.int64) + np.repeat(
        starts - (cum - deg), deg
    )
    rows = np.repeat(np.arange(nodes.shape[0], dtype=np.int64), deg)
    return rows, indices[offsets]


def batched_surviving_distances(
    indptr: np.ndarray, indices: np.ndarray, dests: Sequence[int]
) -> np.ndarray:
    """BFS hop counts to every destination at once: a C-contiguous
    ``(D, n)`` matrix in the narrowest signed type holding its values.

    Row ``k`` equals ``surviving_distances(adjacency, dests[k])`` exactly
    (-1 where unreachable); the adjacency must be undirected, as every
    surviving graph is.  This is a bit-parallel multi-source BFS: search
    ``k`` owns bit ``k % 64`` of word ``k // 64`` in per-node ``uint64``
    bitsets, so one level of all D searches is a gather-and-OR of the
    frontier per slot of the padded ``(maxdeg, n)`` neighbour matrix
    (:func:`_neighbour_slots`).  Each newly reached bit is OR-ed into the
    bit planes of its level number, and the planes are unpacked and summed
    once at the end.
    """
    n = indptr.shape[0] - 1
    dest_arr = np.asarray(dests, dtype=np.int64)
    d = dest_arr.shape[0]
    words = (d + 63) // 64
    k = np.arange(d, dtype=np.int64)
    frontier = np.zeros((n, words), dtype=np.uint64)
    bits = np.uint64(1) << (k & 63).astype(np.uint64)
    np.bitwise_or.at(frontier, (dest_arr, k >> 6), bits)
    unvisited = ~frontier
    # Down nodes have empty rows and no row lists them: never reached.
    # A padding slot gathers the node's own frontier bits, which are
    # visited already and masked off.
    nbrs = _neighbour_slots(indptr, indices)
    spare = np.empty_like(frontier)  # swapped with the frontier each level
    gathered = np.empty_like(frontier)
    planes: list[np.ndarray] = []
    for level in count(1):
        # mode="clip" (a no-op on these indices) keeps take's out unbuffered.
        new = np.take(frontier, nbrs[0], axis=0, out=spare, mode="clip")
        for slot in nbrs[1:]:
            new |= np.take(frontier, slot, axis=0, out=gathered, mode="clip")
        new &= unvisited
        if not new.any():
            break
        unvisited ^= new
        frontier, spare = spare, frontier
        if level == 1 << len(planes):
            planes.append(np.zeros_like(new))
        for bit, plane in enumerate(planes):
            if level >> bit & 1:
                plane |= new
    # -1 where unreached, else the sum of the plane weights, per node block.
    narrow = np.min_scalar_type(-(1 << len(planes)))
    hops = np.empty((d, n), dtype=narrow)
    for lo in range(0, n, 256):
        rows = slice(lo, lo + 256)
        block = _unpack(~unvisited[rows], d).astype(narrow) - 1
        for bit, plane in enumerate(planes):
            block += _unpack(plane[rows], d) * narrow.type(1 << bit)
        hops[:, rows] = block.T
    return hops


def _neighbour_slots(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``(maxdeg, n)`` matrix: column ``u`` lists ``u``'s CSR neighbours
    in their (ascending) order, padded with ``u`` itself."""
    n = indptr.shape[0] - 1
    deg = np.diff(indptr)
    slots = np.tile(np.arange(n, dtype=np.int64),
                    (max(int(deg.max(initial=0)), 1), 1))
    slots[np.arange(indices.shape[0]) - np.repeat(indptr[:-1], deg),
          np.repeat(np.arange(n), deg)] = indices
    return slots


def _unpack(bitset: np.ndarray, width: int) -> np.ndarray:
    """``(rows, width)`` int8 0/1 matrix of a ``(rows, words)`` bitset:
    column ``k`` is bit ``k % 64`` of word ``k // 64``."""
    as_bytes = bitset.astype("<u8", copy=False).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, count=width, bitorder="little")
    return bits.view(np.int8)


class SurvivingGraph:
    """Cached surviving-network structure for one resolved fault set.

    Built (and memoized) by :meth:`repro.faults.model.ResolvedFaults.
    surviving_graph` so every :class:`~repro.faults.routing.
    FaultAwareRouter` constructed against the same ``(faults, topology)``
    pair shares one adjacency, one CSR image, and one pool of BFS
    distance tables instead of rebuilding them per ``route_demands`` call.

    Two distance representations coexist, both derived from the same BFS
    and therefore always equal: per-destination Python lists for the
    scalar router path (``dist[current]`` stays a native int) and
    ``table[dest_row[d], u]``, a narrow destination-indexed matrix, for
    the vectorized path (``dest_row[d]`` is -1 until ``d`` is BFS'd).
    """

    def __init__(self, topology: Topology, faults: "ResolvedFaults"):
        n = topology.num_nodes
        self.num_nodes = n
        #: Sorted directed-edge codes ``u * n + v`` for O(log E) alive-edge
        #: membership probes; the CSR image is derived from them.
        self.edge_codes = _surviving_edge_codes(topology, faults)
        self.indptr, self.indices = _csr_of_codes(self.edge_codes, n)
        # The codes plus a sentinel above every code: probes stay in bounds.
        self._probe = np.append(self.edge_codes, np.int64(n) * n)
        self._dist_lists: dict[int, list[int]] = {}
        self.table: np.ndarray | None = None
        self.dest_row = np.full(n, -1, dtype=np.int64)

    @cached_property
    def adjacency(self) -> list[tuple[int, ...]]:
        """Per-node ascending neighbour tuples (the CSR rows), built on
        first use: only the scalar router path and the certifier read
        them."""
        return _csr_rows(self.indptr, self.indices)

    @cached_property
    def neighbour_slots(self) -> np.ndarray:
        """:func:`_neighbour_slots` of the CSR image.  A node is never one
        hop closer to a destination than itself, so the padding never
        passes the detour's "first neighbour one hop closer" test."""
        return _neighbour_slots(self.indptr, self.indices)

    # ----------------------------------------------------------- distances
    def distances_list(self, dest: int) -> list[int]:
        """``surviving_distances`` to ``dest`` as a list, memoized."""
        dist = self._dist_lists.get(dest)
        if dist is None:
            if self.dest_row[dest] >= 0:
                dist = self.table[self.dest_row[dest]].tolist()
            else:
                dist = surviving_distances(self.adjacency, dest)
            self._dist_lists[dest] = dist
        return dist

    def dest_table(
        self, dests: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(table, dest_row)`` covering every destination in ``dests``.

        Missing destinations are BFS'd in one bit-parallel batch and
        appended.  Both arrays are shared (cached) across calls.
        """
        # Sorted distinct missing destinations by boolean scatter: np.unique
        # sorts in O(k log k), and on NumPy 2.x it also imports numpy.ma.
        seen = np.zeros(self.num_nodes, dtype=bool)
        seen[np.asarray(dests, dtype=np.int64)] = True
        missing = np.flatnonzero(seen & (self.dest_row < 0))
        if missing.size:
            block = batched_surviving_distances(
                self.indptr, self.indices, missing
            )
            rows = 0 if self.table is None else self.table.shape[0]
            self.dest_row[missing] = np.arange(rows, rows + missing.size)
            self.table = block if not rows else np.vstack((self.table, block))
        return self.table, self.dest_row

    # ---------------------------------------------------------- membership
    def edges_alive(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Elementwise: is ``u[i] -> v[i]`` one surviving step?"""
        codes = u * np.int64(self.num_nodes) + v
        return self._probe[np.searchsorted(self._probe, codes)] == codes
