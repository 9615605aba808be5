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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .base import ChannelModel, HypergraphTopology, Topology

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
    packets, one per step).
    """
    n = topology.num_nodes
    down_nodes = faults.down_nodes
    adjacency: list[tuple[int, ...]] = [()] * n
    if topology.channel_model is ChannelModel.HYPERGRAPH_NET:
        assert isinstance(topology, HypergraphTopology)
        nets = topology.nets()
        neighbour_sets: list[set[int]] = [set() for _ in range(n)]
        for net_id, members in enumerate(nets):
            if faults.net_down(net_id):
                continue
            alive = [m for m in members if m not in down_nodes]
            for m in alive:
                neighbour_sets[m].update(alive)
        for node in range(n):
            neighbour_sets[node].discard(node)
            if node not in down_nodes:
                adjacency[node] = tuple(sorted(neighbour_sets[node]))
        return adjacency
    for node in range(n):
        if node in down_nodes:
            continue
        adjacency[node] = tuple(
            sorted(
                nb
                for nb in topology.neighbors(node)
                if nb not in down_nodes and not faults.link_down(node, nb)
            )
        )
    return adjacency


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
    """BFS hop counts to every destination at once: a ``(D, n)`` matrix.

    Row ``k`` equals ``surviving_distances(adjacency, dests[k])`` exactly
    (-1 where unreachable); the adjacency must be undirected, as every
    surviving graph is.  This is a bit-parallel multi-source BFS: search
    ``k`` owns bit ``k % 64`` of word ``k // 64`` in per-node ``uint64``
    bitsets, so one level of all D searches is one gather of the frontier
    over the CSR entries and one ``bitwise_or.reduceat`` per row.  Levels
    are not scattered as they are found: each newly reached bit is OR-ed
    into the bit planes of its level number, and the planes are unpacked
    and summed once at the end.
    """
    n = indptr.shape[0] - 1
    dest_arr = np.asarray(dests, dtype=np.int64)
    d = dest_arr.shape[0]
    words = (d + 63) // 64
    k = np.arange(d, dtype=np.int64)
    frontier = np.zeros((n, words), dtype=np.uint64)
    bits = np.uint64(1) << (k & 63).astype(np.uint64)
    np.bitwise_or.at(frontier, (dest_arr, k >> 6), bits)
    visited = frontier.copy()
    # ``reduceat`` yields the first element, not the identity, for an empty
    # segment, so the sweep runs over the non-empty rows only.  Down nodes
    # have empty rows and no row lists them, so they never join a frontier.
    live = np.flatnonzero(np.diff(indptr))
    rows = slice(None) if live.size == n else live
    starts = indptr[live]
    planes: list[np.ndarray] = []
    level = 0
    while live.size:
        level += 1
        new = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
        new &= ~visited[rows]
        if not new.any():
            break
        visited[rows] |= new
        frontier[rows] = new
        if level == 1 << len(planes):
            planes.append(np.zeros_like(visited))
        for bit, plane in enumerate(planes):
            if level >> bit & 1:
                plane[rows] |= new
    # The narrowest signed type that holds -1 and every level seen; start
    # from 0 where reached and -1 where not, then OR in the level bits.
    narrow = np.min_scalar_type(-(1 << len(planes)))
    hops = _unpack(visited, d).astype(narrow)
    hops -= 1
    for bit, plane in enumerate(planes):
        hops |= np.left_shift(_unpack(plane, d), bit, dtype=narrow)
    return hops.T.astype(np.int64, order="C")


def _unpack(bitset: np.ndarray, count: int) -> np.ndarray:
    """``(rows, count)`` uint8 0/1 matrix of a ``(rows, words)`` bitset:
    column ``k`` is bit ``k % 64`` of word ``k // 64``."""
    as_bytes = bitset.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=count, bitorder="little")


class SurvivingGraph:
    """Cached surviving-network structure for one resolved fault set.

    Built (and memoized) by :meth:`repro.faults.model.ResolvedFaults.
    surviving_graph` so every :class:`~repro.faults.routing.
    FaultAwareRouter` constructed against the same ``(faults, topology)``
    pair shares one adjacency, one CSR image, and one pool of BFS
    distance tables instead of rebuilding them per ``route_demands`` call.

    Two distance representations coexist, both derived from the same BFS
    and therefore always equal: per-destination Python lists for the
    scalar router path (``dist[current]`` stays a native int) and a
    destination-indexed int64 matrix for the vectorized path.
    """

    def __init__(self, adjacency: Sequence[tuple[int, ...]]):
        self.adjacency = adjacency
        self.indptr, self.indices = surviving_csr(adjacency)
        n = len(adjacency)
        self.num_nodes = n
        #: Sorted directed-edge codes ``u * n + v`` for O(log E) alive-edge
        #: membership probes (rows are ascending within ascending nodes, so
        #: the concatenation is globally sorted already).
        self.edge_codes = (
            np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self.indptr)
            ) * n + self.indices
        )
        self._dist_lists: dict[int, list[int]] = {}
        self._table: np.ndarray | None = None
        self._dest_row = np.full(n, -1, dtype=np.int64)

    # ----------------------------------------------------------- distances
    def distances_list(self, dest: int) -> list[int]:
        """``surviving_distances`` to ``dest`` as a list, memoized."""
        dist = self._dist_lists.get(dest)
        if dist is None:
            if self._dest_row[dest] >= 0:
                dist = self._table[self._dest_row[dest]].tolist()
            else:
                dist = surviving_distances(self.adjacency, dest)
            self._dist_lists[dest] = dist
        return dist

    def dest_table(
        self, dests: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(table, dest_row)`` covering every destination in ``dests``.

        ``table[dest_row[d], u]`` is the surviving distance from ``u`` to
        ``d``; missing destinations are BFS'd in one bit-parallel batch
        and appended.  Both arrays are shared (cached) across calls.
        """
        # Sorted distinct destinations by boolean scatter: np.unique's
        # sort is O(k log k), and on NumPy 2.x it also imports numpy.ma.
        seen = np.zeros(self.num_nodes, dtype=bool)
        seen[np.asarray(dests, dtype=np.int64)] = True
        dests = np.flatnonzero(seen)
        missing = dests[self._dest_row[dests] < 0]
        if missing.size:
            block = batched_surviving_distances(
                self.indptr, self.indices, missing
            )
            base = 0 if self._table is None else self._table.shape[0]
            self._dest_row[missing] = np.arange(
                base, base + missing.size, dtype=np.int64
            )
            self._table = (
                block if self._table is None
                else np.vstack((self._table, block))
            )
        return self._table, self._dest_row

    # ---------------------------------------------------------- membership
    def edges_alive(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Elementwise: is ``u[i] -> v[i]`` one surviving step?"""
        if self.edge_codes.shape[0] == 0:
            return np.zeros(u.shape[0], dtype=bool)
        codes = u * np.int64(self.num_nodes) + v
        pos = np.searchsorted(self.edge_codes, codes)
        pos_clipped = np.minimum(pos, self.edge_codes.shape[0] - 1)
        return (pos < self.edge_codes.shape[0]) & (
            self.edge_codes[pos_clipped] == codes
        )
