"""k-ary n-cubes: meshes with wrap-around links (tori).

The paper mentions wrap-around links twice: the mesh bit-reversal lower bound
drops from ``2(sqrt(N)-1)`` to ``sqrt(N)/2`` when they exist, and equation (2)
charges the optimistic wrap-around figure.  The torus family is also the
"k-ary n-cube" of Dally's analysis discussed in the introduction, so it earns
a first-class implementation: :class:`Torus` for the general case and
:class:`Torus2D` for the square 2D instance the FFT benchmarks use.

A binary hypercube is the degenerate ``2``-ary ``n``-cube; the dedicated
:class:`~repro.networks.hypercube.Hypercube` class exists because bit-level
addressing makes the FFT schedules clearer, but the two agree structurally
(tested in ``tests/networks``).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .addressing import from_mixed_radix, to_mixed_radix, to_mixed_radix_array
from .base import PointToPointTopology
from .mesh import _grid_link_endpoints

__all__ = ["Torus", "Torus2D"]


class Torus(PointToPointTopology):
    """An n-dimensional torus (k-ary n-cube) with extents ``radices``.

    Adjacency is the mesh adjacency plus wrap-around links joining coordinate
    ``0`` to coordinate ``extent - 1`` in every dimension.  For extent 2 the
    wrap-around link would duplicate the mesh link, so it is omitted — this
    keeps the 2-ary n-cube isomorphic to the binary hypercube instead of a
    multigraph.
    """

    name = "torus"

    def __init__(self, radices: Sequence[int]):
        radices = tuple(int(r) for r in radices)
        if not radices:
            raise ValueError("a torus needs at least one dimension")
        if any(r < 2 for r in radices):
            raise ValueError("every torus dimension needs extent >= 2")
        num_nodes = 1
        for r in radices:
            num_nodes *= r
        super().__init__(num_nodes)
        self._radices = radices

    # ----------------------------------------------------------- structure
    @property
    def radices(self) -> tuple[int, ...]:
        """Per-dimension extents (MSD first)."""
        return self._radices

    @property
    def dimensions(self) -> int:
        """Number of torus dimensions."""
        return len(self._radices)

    def coordinates(self, node: int) -> tuple[int, ...]:
        """Coordinates of ``node`` (row-major, digit 0 slowest)."""
        self.validate_node(node)
        return to_mixed_radix(node, self._radices)

    def node_at(self, coords: Sequence[int]) -> int:
        """Node identifier at ``coords``."""
        return from_mixed_radix(coords, self._radices)

    def neighbors(self, node: int) -> tuple[int, ...]:
        coords = list(self.coordinates(node))
        result = []
        for dim, extent in enumerate(self._radices):
            deltas = (-1, +1) if extent > 2 else (+1,)
            for delta in deltas:
                c = (coords[dim] + delta) % extent
                coords[dim], saved = c, coords[dim]
                result.append(from_mixed_radix(coords, self._radices))
                coords[dim] = saved
        return tuple(result)

    def links(self) -> Iterator[tuple[int, int]]:
        for node in self.nodes():
            for nb in self.neighbors(node):
                if node < nb:
                    yield (node, nb)

    def _link_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """The mesh links plus one wrap-around link per ring of extent > 2."""
        return _grid_link_endpoints(self._radices, wrap=True)

    def distance(self, node_a: int, node_b: int) -> int:
        """Sum over dimensions of the shorter way around the ring."""
        ca = self.coordinates(node_a)
        cb = self.coordinates(node_b)
        total = 0
        for x, y, extent in zip(ca, cb, self._radices):
            d = abs(x - y)
            total += min(d, extent - d)
        return total

    def distance_array(self, sources, dests) -> np.ndarray:
        """Vectorized ring-aware distance over parallel node arrays."""
        da = to_mixed_radix_array(sources, self._radices)
        db = to_mixed_radix_array(dests, self._radices)
        d = np.abs(da - db)
        extent = np.asarray(self._radices, dtype=np.int64).reshape(-1, 1)
        return np.minimum(d, extent - d).sum(axis=0)

    @property
    def diameter(self) -> int:
        """``sum(extent // 2)`` — half-way around every ring."""
        return sum(r // 2 for r in self._radices)

    # ------------------------------------------------------------ hardware
    @property
    def node_degree(self) -> int:
        """Ports per routing node including the PE port.

        Every node is interior on a torus: two ports per dimension with
        extent >= 3, one for extent-2 dimensions, plus the PE port.
        """
        network_ports = sum(2 if r >= 3 else 1 for r in self._radices)
        return network_ports + 1

    @property
    def num_crossbars(self) -> int:
        """One routing crossbar per PE."""
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Torus(radices={self._radices})"


class Torus2D(Torus):
    """Square 2D torus of ``side * side`` PEs (2D mesh with wrap-around)."""

    name = "torus2d"

    def __init__(self, side: int):
        super().__init__((side, side))
        self._side = int(side)

    @property
    def side(self) -> int:
        """Torus side length ``sqrt(N)``."""
        return self._side

    def row_col(self, node: int) -> tuple[int, int]:
        """(row, column) of ``node``."""
        return self.coordinates(node)  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Torus2D(side={self._side})"
