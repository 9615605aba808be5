"""The binary hypercube.

``N = 2**n`` nodes, each identified with an ``n``-bit address; nodes are
adjacent when their addresses differ in exactly one bit.  The hypercube is
the paper's "high-dimensional" comparison point: it embeds the butterfly
flow graph with one data-transfer step per stage (``log N`` steps) but pays
for its ``log N + 1`` node degree when crossbar pins are normalized for
equal aggregate bandwidth (Section III-D), and its bit-reversal permutation
needs a further ``log N`` steps (Section III-A).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .addressing import flip_bit, hamming_distance, ilog2
from .base import PointToPointTopology

__all__ = ["Hypercube"]


class Hypercube(PointToPointTopology):
    """A binary hypercube of dimension ``dimension`` (``2**dimension`` PEs).

    Parameters
    ----------
    dimension:
        Number of address bits ``n = log2(N)``; must be >= 1.
    """

    name = "hypercube"

    def __init__(self, dimension: int):
        dimension = int(dimension)
        if dimension < 1:
            raise ValueError("hypercube dimension must be >= 1")
        super().__init__(1 << dimension)
        self._dimension = dimension

    @classmethod
    def with_nodes(cls, num_nodes: int) -> "Hypercube":
        """Build the hypercube with exactly ``num_nodes`` PEs (a power of 2)."""
        return cls(ilog2(num_nodes))

    # ----------------------------------------------------------- structure
    @property
    def dimension(self) -> int:
        """Number of address bits / hypercube dimensions ``log2 N``."""
        return self._dimension

    def neighbor_along(self, node: int, dim: int) -> int:
        """The neighbour of ``node`` across dimension ``dim`` (bit ``dim``)."""
        self.validate_node(node)
        if not 0 <= dim < self._dimension:
            raise ValueError(f"dimension {dim} out of range [0, {self._dimension})")
        return flip_bit(node, dim)

    def neighbors(self, node: int) -> tuple[int, ...]:
        self.validate_node(node)
        return tuple(flip_bit(node, d) for d in range(self._dimension))

    def links(self) -> Iterator[tuple[int, int]]:
        for node in self.nodes():
            for d in range(self._dimension):
                nb = flip_bit(node, d)
                if node < nb:
                    yield (node, nb)

    def _link_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Per dimension ``d``: each node with bit ``d`` clear links to its
        partner with bit ``d`` set."""
        nodes = np.arange(self.num_nodes, dtype=np.int64)
        us = [nodes[(nodes >> d) & 1 == 0] for d in range(self._dimension)]
        return np.concatenate(us), np.concatenate(
            [u | (1 << d) for d, u in enumerate(us)]
        )

    def distance(self, node_a: int, node_b: int) -> int:
        """Hamming distance between the two addresses."""
        self.validate_node(node_a)
        self.validate_node(node_b)
        return hamming_distance(node_a, node_b)

    def distance_array(self, sources, dests) -> np.ndarray:
        """Vectorized Hamming distance over parallel node arrays."""
        diff = np.asarray(sources, dtype=np.int64) ^ np.asarray(
            dests, dtype=np.int64
        )
        total = np.zeros_like(diff)
        for d in range(self._dimension):
            total += (diff >> d) & 1
        return total

    @property
    def diameter(self) -> int:
        """``log2 N`` — antipodal nodes differ in every bit."""
        return self._dimension

    # ------------------------------------------------------------ hardware
    @property
    def node_degree(self) -> int:
        """``log2 N + 1``: one port per dimension plus the PE port."""
        return self._dimension + 1

    @property
    def num_crossbars(self) -> int:
        """One routing crossbar per PE (Section III-D)."""
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hypercube(dimension={self._dimension})"
