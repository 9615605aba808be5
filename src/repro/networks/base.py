"""Topology abstraction shared by every interconnection network.

The paper compares three architecturally different networks:

* **point-to-point** graphs (2D mesh, torus, binary hypercube, k-ary
  n-cube), where a *link* joins exactly two routing nodes and can carry one
  packet per direction per data-transfer step; and
* **hypergraph** networks (the hypermesh), where a *net* joins all nodes
  aligned along one dimension and can realize one arbitrary permutation
  among its members per data-transfer step.

:class:`Topology` exposes the common structural interface (nodes, adjacency,
distance, diameter, crossbar inventory), and declares which channel model the
word-level simulator must enforce.  Concrete topologies provide closed-form
answers; :mod:`repro.networks.properties` re-derives the same quantities by
brute force so the formulas used in the paper's Table 1A are never taken on
faith.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Iterator, Sequence

import numpy as np

__all__ = ["ChannelModel", "Topology", "PointToPointTopology", "HypergraphTopology"]


class ChannelModel(enum.Enum):
    """How a network's channels are shared during one data-transfer step."""

    #: Each (directed) link carries at most one packet per step.
    POINT_TO_POINT = "point-to-point"
    #: Each hypergraph net realizes at most one partial permutation per step:
    #: every member injects at most one packet and receives at most one.
    HYPERGRAPH_NET = "hypergraph-net"


class Topology(ABC):
    """An interconnection network on ``num_nodes`` processing elements.

    Nodes are integers ``0 .. num_nodes-1``; how an integer maps onto
    coordinates is topology-specific (see :mod:`repro.networks.addressing`).
    """

    #: Short machine-readable identifier ("mesh2d", "hypercube", ...).
    name: str = "topology"

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise ValueError("a topology needs at least one node")
        self._num_nodes = int(num_nodes)

    # ------------------------------------------------------------------ core
    @property
    def num_nodes(self) -> int:
        """Number of processing elements ``N``."""
        return self._num_nodes

    @property
    @abstractmethod
    def channel_model(self) -> ChannelModel:
        """Channel sharing discipline the simulator must enforce."""

    @abstractmethod
    def neighbors(self, node: int) -> tuple[int, ...]:
        """All nodes reachable from ``node`` in one data-transfer step."""

    @abstractmethod
    def distance(self, node_a: int, node_b: int) -> int:
        """Graph distance in data-transfer steps (closed form)."""

    def distance_array(self, sources, dests) -> np.ndarray:
        """Vectorized :meth:`distance` over parallel node arrays (int64).

        The generic form calls :meth:`distance` per pair; the concrete
        families override it with coordinate arithmetic.  Callers must have
        bounds-checked the nodes (see :meth:`validate_demands`): the batch
        API does no per-element validation.
        """
        return np.fromiter(
            (self.distance(int(s), int(d)) for s, d in zip(sources, dests)),
            dtype=np.int64,
            count=len(sources),
        )

    @property
    @abstractmethod
    def diameter(self) -> int:
        """Maximum :meth:`distance` over all node pairs (closed form)."""

    # ----------------------------------------------------------- hardware
    @property
    @abstractmethod
    def node_degree(self) -> int:
        """Ports per routing node, *including* the port to the local PE.

        This is the paper's "degree": a 2D mesh node has degree 5 (four
        neighbours plus the PE), a hypercube node ``log N + 1``.
        """

    @property
    @abstractmethod
    def num_crossbars(self) -> int:
        """Crossbar switch ICs required to build the network.

        Point-to-point networks place one crossbar per PE; the hypermesh
        spends its IC budget on the nets instead (Section III-D).
        """

    # ----------------------------------------------------------- utilities
    def nodes(self) -> range:
        """Iterate over all node identifiers."""
        return range(self._num_nodes)

    def validate_node(self, node: int) -> int:
        """Raise ``ValueError`` unless ``node`` is a valid identifier."""
        if not 0 <= node < self._num_nodes:
            raise ValueError(f"node {node} out of range [0, {self._num_nodes})")
        return node

    def validate_demands(self, demands: Sequence[tuple[int, int]]) -> np.ndarray:
        """Bounds-check every demand endpoint; return the ``(m, 2)`` int64
        array of ``(source, destination)`` rows.

        One vectorized comparison covers the whole demand set; on failure
        the first offending endpoint *in original order* (source before
        destination, pair by pair) is handed to :meth:`validate_node`, so
        the error type and message are the scalar check's.  Inputs that do
        not pack into an integer array are checked pair by pair, and an
        endpoint that is not an integer (``0.5``) is rejected by name:
        the range check alone would accept it.
        """
        try:
            arr = np.asarray(demands)
        except (TypeError, ValueError):
            arr = None
        if arr is None or arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
            for src, dst in demands:
                for node in (src, dst):
                    if not isinstance(node, (int, np.integer)):
                        raise ValueError(
                            f"demand endpoint {node!r} is not an integer node id"
                        )
                self.validate_node(src)
                self.validate_node(dst)
            return np.array(demands, dtype=np.int64).reshape(-1, 2)
        flat = arr.reshape(-1)  # row-major: src0, dst0, src1, dst1, ...
        bad = (flat < 0) | (flat >= self._num_nodes)
        if bad.any():
            self.validate_node(int(flat[int(np.argmax(bad))]))
        return arr.astype(np.int64, copy=False)

    def __len__(self) -> int:
        return self._num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_nodes={self._num_nodes})"


class PointToPointTopology(Topology):
    """A topology whose channels are two-ended links."""

    @property
    def channel_model(self) -> ChannelModel:
        return ChannelModel.POINT_TO_POINT

    @abstractmethod
    def links(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected link exactly once as ``(u, v)`` with u < v."""

    @abstractmethod
    def _link_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Parallel int64 arrays ``(u, v)``, ``u < v``, one entry per
        undirected link, in any order (see :meth:`link_array`)."""

    def link_array(self) -> np.ndarray:
        """Every undirected link as an ``(L, 2)`` int64 array of ``(u, v)``
        rows with ``u < v``, sorted ascending by ``u`` then ``v``.

        The same rows as ``sorted(self.links())``, built from coordinate
        arithmetic instead of one :meth:`neighbors` call per node: fault
        sampling draws from this order, so it is part of the fault model's
        determinism contract.
        """
        u, v = self._link_endpoints()
        n = self.num_nodes
        codes = np.sort(u * n + v)
        return np.stack((codes // n, codes % n), axis=1)

    def num_links(self) -> int:
        """Number of undirected links."""
        return len(self._link_endpoints()[0])

    def to_networkx(self):
        """Build a ``networkx.Graph`` view (requires the optional extra)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes())
        graph.add_edges_from(self.links())
        return graph


class HypergraphTopology(Topology):
    """A topology whose channels are multi-ended hypergraph nets."""

    @property
    def channel_model(self) -> ChannelModel:
        return ChannelModel.HYPERGRAPH_NET

    @abstractmethod
    def nets(self) -> Sequence[tuple[int, ...]]:
        """All hypergraph nets, each as the tuple of member nodes."""

    @abstractmethod
    def nets_of(self, node: int) -> tuple[int, ...]:
        """Indices (into :meth:`nets`) of the nets ``node`` belongs to."""

    def num_nets(self) -> int:
        """Number of hypergraph nets."""
        return len(self.nets())

    def shared_net(self, node_a: int, node_b: int) -> int | None:
        """Identifier of a net containing both nodes, or ``None``.

        ``None`` when the nodes share no net, and also when
        ``node_a == node_b`` (a packet never traverses a net to stay put).
        If several nets contain both nodes, the first net in
        ``nets_of(node_b)`` order wins; on hypermeshes the shared net is
        unique, so the tiebreak never fires there.

        The generic implementation memoizes a ``neighbour -> net`` mapping
        per node on first use, so the word-level simulator's hot loop pays
        one dict probe instead of a set intersection per proposal.
        Subclasses with closed-form structure (:class:`~repro.networks.
        hypermesh.Hypermesh`) override it without any cache at all.
        """
        lookup: dict[int, dict[int, int]] | None
        lookup = getattr(self, "_shared_net_cache", None)
        if lookup is None:
            lookup = {}
            self._shared_net_cache = lookup
        per_node = lookup.get(node_b)
        if per_node is None:
            self.validate_node(node_a)
            per_node = {}
            nets = self.nets()
            for net in self.nets_of(node_b):
                for member in nets[net]:
                    if member != node_b:
                        per_node.setdefault(member, net)
            lookup[node_b] = per_node
        return per_node.get(node_a)

    def to_networkx(self):
        """Clique-expansion ``networkx.Graph`` (each net becomes a clique).

        Distances in the clique expansion equal hypermesh distances, which is
        what the brute-force validators need.
        """
        import networkx as nx
        from itertools import combinations

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes())
        for net in self.nets():
            graph.add_edges_from(combinations(net, 2))
        return graph
