"""k-ary n-dimensional meshes without wrap-around links.

The paper's baseline network is the 2D mesh: ``sqrt(N) x sqrt(N)`` routing
nodes, one per PE, each connected to its (up to) four nearest neighbours plus
the local PE — "degree 5" in the paper's accounting.  The general
:class:`Mesh` supports any number of dimensions and per-dimension extents so
the same code also provides the 1D linear array and 3D meshes used in tests
and ablations; :class:`Mesh2D` is the square specialization the paper
analyses.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .addressing import from_mixed_radix, to_mixed_radix, to_mixed_radix_array
from .base import PointToPointTopology

__all__ = ["Mesh", "Mesh2D"]


def _grid_link_endpoints(
    radices: Sequence[int], *, wrap: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``(u, v)`` link arrays of a mesh (``wrap=False``) or torus.

    Per dimension of stride ``s`` and extent ``r``: node ``u`` at
    coordinate ``c < r - 1`` links to ``u + s``; with ``wrap`` and
    ``r > 2`` the node at coordinate 0 also links to the one at ``r - 1``
    (``u + (r - 1) * s``).  An extent-2 ring's wrap-around would repeat
    its mesh link, so it is omitted, as :class:`~repro.networks.torus.
    Torus` does.
    """
    n = 1
    for r in radices:
        n *= r
    nodes = np.arange(n, dtype=np.int64)
    coords = to_mixed_radix_array(nodes, radices)
    us, vs = [], []
    stride = n
    for dim, extent in enumerate(radices):
        stride //= extent
        u = nodes[coords[dim] < extent - 1]
        us.append(u)
        vs.append(u + stride)
        if wrap and extent > 2:
            u = nodes[coords[dim] == 0]
            us.append(u)
            vs.append(u + (extent - 1) * stride)
    return np.concatenate(us), np.concatenate(vs)


class Mesh(PointToPointTopology):
    """An n-dimensional mesh with extents ``radices`` and no wrap-around.

    Node ``i`` sits at coordinates ``to_mixed_radix(i, radices)`` (row-major:
    digit 0 varies slowest).  Two nodes are adjacent when their coordinates
    differ by exactly one in exactly one dimension.

    Parameters
    ----------
    radices:
        Per-dimension extents, most-significant dimension first.  A 2D mesh
        of side ``s`` is ``Mesh((s, s))``.
    """

    name = "mesh"

    def __init__(self, radices: Sequence[int]):
        radices = tuple(int(r) for r in radices)
        if not radices:
            raise ValueError("a mesh needs at least one dimension")
        if any(r < 2 for r in radices):
            raise ValueError("every mesh dimension needs extent >= 2")
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
        """Number of mesh dimensions."""
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
            for delta in (-1, +1):
                c = coords[dim] + delta
                if 0 <= c < extent:
                    coords[dim] = c
                    result.append(from_mixed_radix(coords, self._radices))
                    coords[dim] -= delta
        return tuple(result)

    def links(self) -> Iterator[tuple[int, int]]:
        for node in self.nodes():
            for nb in self.neighbors(node):
                if node < nb:
                    yield (node, nb)

    def _link_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """One link per node and dimension whose coordinate can step +1."""
        return _grid_link_endpoints(self._radices, wrap=False)

    def distance(self, node_a: int, node_b: int) -> int:
        """Manhattan distance."""
        ca = self.coordinates(node_a)
        cb = self.coordinates(node_b)
        return sum(abs(x - y) for x, y in zip(ca, cb))

    def distance_array(self, sources, dests) -> np.ndarray:
        """Vectorized Manhattan distance over parallel node arrays."""
        da = to_mixed_radix_array(sources, self._radices)
        db = to_mixed_radix_array(dests, self._radices)
        return np.abs(da - db).sum(axis=0)

    @property
    def diameter(self) -> int:
        """Corner-to-corner Manhattan distance, ``sum(extent - 1)``."""
        return sum(r - 1 for r in self._radices)

    # ------------------------------------------------------------ hardware
    @property
    def node_degree(self) -> int:
        """Maximum ports per routing node including the PE port.

        An interior node of a dimension with extent >= 3 has two neighbours
        in that dimension; extent-2 dimensions contribute one.  The 2D mesh
        therefore reports 5, matching Section III-D.
        """
        network_ports = sum(2 if r >= 3 else 1 for r in self._radices)
        return network_ports + 1

    @property
    def num_crossbars(self) -> int:
        """One routing crossbar per PE (Section III-D)."""
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mesh(radices={self._radices})"


class Mesh2D(Mesh):
    """The paper's square 2D mesh of ``side * side`` PEs.

    ``side`` is the paper's ``sqrt(N)``.  Node ``i`` occupies row
    ``i // side``, column ``i % side`` — the row-major embedding the FFT
    mapping in Section III-B assumes.
    """

    name = "mesh2d"

    def __init__(self, side: int):
        super().__init__((side, side))
        self._side = int(side)

    @property
    def side(self) -> int:
        """Mesh side length ``sqrt(N)``."""
        return self._side

    def row_col(self, node: int) -> tuple[int, int]:
        """(row, column) of ``node``."""
        return self.coordinates(node)  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mesh2D(side={self._side})"
