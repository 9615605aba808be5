"""The hypermesh of Szymanski [12][13] — the paper's proposed network.

A base-``b`` ``n``-dimensional hypermesh arranges ``N = b**n`` PEs in
``n``-dimensional space.  All nodes whose addresses agree in every digit
except digit ``d`` form a **hypergraph net**: a ``b``-way channel that can
realize *any permutation* of packets among its ``b`` members in a single
data-transfer step (it is physically a ``b x b`` crossbar, or several ganged
in parallel — see :mod:`repro.hardware.cost`).

This one-step-permutation capability is what distinguishes the hypermesh
from the spanning-bus hypercubes of Bhuyan/Aggrawal and the spanning-bus
hypermeshes of Scherson, where a dimension is a shared bus that can carry
only one packet at a time; the paper is explicit about this distinction.

Key structural facts used throughout the reproduction:

* distance between two nodes = number of differing digits, so the diameter
  is ``n`` (2 for the 2D hypermesh);
* every node belongs to exactly ``n`` nets (one per dimension);
* there are ``n * N / b`` nets in total (``2 * sqrt(N)`` for the 2D case);
* the 2D hypermesh is **rearrangeable**: any permutation of all ``N``
  packets can be realized in at most 3 data-transfer steps
  (row -> column -> row; property [6] of [12], implemented in
  :mod:`repro.routing.clos`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .addressing import to_mixed_radix, to_mixed_radix_array, with_digit
from .base import HypergraphTopology

__all__ = ["Hypermesh", "Hypermesh2D", "degree_log_hypermesh_shape"]


class Hypermesh(HypergraphTopology):
    """A base-``b`` ``n``-dimensional hypermesh (``b**n`` PEs).

    Parameters
    ----------
    base:
        Digits per dimension ``b`` (net size); must be >= 2.
    dims:
        Number of dimensions ``n``; must be >= 1.
    """

    name = "hypermesh"

    def __init__(self, base: int, dims: int):
        base = int(base)
        dims = int(dims)
        if base < 2:
            raise ValueError("hypermesh base must be >= 2")
        if dims < 1:
            raise ValueError("hypermesh needs at least one dimension")
        super().__init__(base**dims)
        self._base = base
        self._dims = dims
        self._radices = (base,) * dims
        # Row-major digit strides (MSD first), for arithmetic digit access
        # on hot paths that must not build coordinate tuples.
        self._digit_strides = tuple(base ** (dims - 1 - d) for d in range(dims))
        self._nets: list[tuple[int, ...]] | None = None

    # ----------------------------------------------------------- structure
    @property
    def base(self) -> int:
        """Net size ``b`` — nodes per hypergraph net."""
        return self._base

    @property
    def dims(self) -> int:
        """Number of dimensions ``n``."""
        return self._dims

    @property
    def radices(self) -> tuple[int, ...]:
        """Per-dimension extents — ``(b,) * n``."""
        return self._radices

    def coordinates(self, node: int) -> tuple[int, ...]:
        """Base-``b`` digits of ``node`` (MSD first)."""
        self.validate_node(node)
        return to_mixed_radix(node, self._radices)

    def node_at(self, coords: Sequence[int]) -> int:
        """Node identifier at base-``b`` coordinates ``coords``."""
        from .addressing import from_mixed_radix

        return from_mixed_radix(coords, self._radices)

    def neighbors(self, node: int) -> tuple[int, ...]:
        """All nodes sharing at least one net with ``node``.

        Each of the ``n`` nets contributes its other ``b - 1`` members, and
        the nets of one node intersect only at the node itself, so the count
        is ``n * (b - 1)``.
        """
        self.validate_node(node)
        result = []
        for dim in range(self._dims):
            own = to_mixed_radix(node, self._radices)[dim]
            for d in range(self._base):
                if d != own:
                    result.append(with_digit(node, dim, d, self._radices))
        return tuple(result)

    def distance(self, node_a: int, node_b: int) -> int:
        """Number of differing digits — one net traversal fixes one digit."""
        ca = self.coordinates(node_a)
        cb = self.coordinates(node_b)
        return sum(1 for x, y in zip(ca, cb) if x != y)

    def distance_array(self, sources, dests) -> np.ndarray:
        """Vectorized differing-digit count over parallel node arrays."""
        da = to_mixed_radix_array(sources, self._radices)
        db = to_mixed_radix_array(dests, self._radices)
        return (da != db).sum(axis=0)

    @property
    def diameter(self) -> int:
        """``n`` — all digits may differ."""
        return self._dims

    # ---------------------------------------------------------------- nets
    def net_id(self, dim: int, node: int) -> int:
        """Identifier of the dimension-``dim`` net containing ``node``.

        Nets are numbered ``dim * (N / b) + residual`` where ``residual``
        ranks the fixed digits of the net in row-major order.
        """
        self.validate_node(node)
        if not 0 <= dim < self._dims:
            raise ValueError(f"dimension {dim} out of range [0, {self._dims})")
        digits = list(to_mixed_radix(node, self._radices))
        del digits[dim]
        residual = 0
        for d in digits:
            residual = residual * self._base + d
        return dim * (self.num_nodes // self._base) + residual

    def net_members(self, dim: int, node: int) -> tuple[int, ...]:
        """Members of the dimension-``dim`` net containing ``node``,
        ordered by their digit in dimension ``dim``."""
        self.validate_node(node)
        return tuple(
            with_digit(node, dim, d, self._radices) for d in range(self._base)
        )

    def nets(self) -> list[tuple[int, ...]]:
        """All nets, indexed consistently with :meth:`net_id` (cached)."""
        if self._nets is None:
            nets: list[tuple[int, ...]] = []
            per_dim = self.num_nodes // self._base
            for dim in range(self._dims):
                seen: dict[int, tuple[int, ...]] = {}
                for node in self.nodes():
                    nid = self.net_id(dim, node) - dim * per_dim
                    if nid not in seen:
                        seen[nid] = self.net_members(dim, node)
                nets.extend(seen[i] for i in range(per_dim))
            self._nets = nets
        return self._nets

    def nets_of(self, node: int) -> tuple[int, ...]:
        """The ``n`` net identifiers ``node`` belongs to (one per dimension)."""
        return tuple(self.net_id(dim, node) for dim in range(self._dims))

    def shared_net(self, node_a: int, node_b: int) -> int | None:
        """Closed-form net lookup: two distinct nodes share a net exactly
        when their addresses differ in a single digit, and that digit's
        dimension names the net.  No cache needed, unlike the generic
        :meth:`~repro.networks.base.HypergraphTopology.shared_net`; pure
        digit arithmetic because the simulator calls this once per packet
        hop."""
        self.validate_node(node_a)
        self.validate_node(node_b)
        base = self._base
        shared_dim = -1
        a, b = node_a, node_b
        for dim in range(self._dims - 1, -1, -1):  # LSD-first digit scan
            a, da = divmod(a, base)
            b, db = divmod(b, base)
            if da != db:
                if shared_dim != -1:
                    return None  # differ in two digits: no common net
                shared_dim = dim
        if shared_dim == -1:
            return None  # same node
        # Rank of the fixed digits in row-major order == net_id's residual.
        residual = 0
        for dim, stride in enumerate(self._digit_strides):
            if dim != shared_dim:
                residual = residual * base + (node_a // stride) % base
        return shared_dim * (self._num_nodes // base) + residual

    def shared_net_array(self, nodes_a, nodes_b):
        """Vectorized :meth:`shared_net` over parallel node arrays.

        Returns an ``int64`` array with the shared-net id per pair, or
        ``-1`` where the pair shares no net (differing in zero or two-plus
        digits).  Same digit arithmetic as the scalar closed form, batched
        with NumPy for the replay/validation engine; callers must have
        bounds-checked the nodes (the batch API does no per-element
        validation).
        """
        a = np.asarray(nodes_a, dtype=np.int64)
        b = np.asarray(nodes_b, dtype=np.int64)
        base = self._base
        strides = np.asarray(self._digit_strides, dtype=np.int64).reshape(-1, 1)
        da = (a // strides) % base  # shape (dims, len): MSD-first digits
        db = (b // strides) % base
        diff = da != db
        # Exactly one differing digit names the net's dimension; argmax
        # finds it (the row order is irrelevant when only one row is True).
        shared_dim = np.argmax(diff, axis=0)
        residual = np.zeros_like(a)
        for dim in range(self._dims):
            keep = shared_dim != dim
            residual = np.where(keep, residual * base + da[dim], residual)
        net = shared_dim * (self._num_nodes // base) + residual
        return np.where(diff.sum(axis=0) == 1, net, -1)

    def num_nets(self) -> int:
        """``n * N / b`` hypergraph nets."""
        return self._dims * (self.num_nodes // self._base)

    # ------------------------------------------------------------ hardware
    @property
    def node_degree(self) -> int:
        """Ports per PE-node: one per dimension plus the PE itself.

        Note this counts *net ports*, not reachable neighbours; the original
        hypermesh description added an ``n x n`` crossbar at each PE-node to
        switch between dimensions, but Section II notes it can be eliminated
        for SIMD operation, which is the construction costed here.
        """
        return self._dims + 1

    @property
    def num_crossbars(self) -> int:
        """Minimum crossbar ICs: one ``b x b`` crossbar per net.

        The equal-aggregate-bandwidth comparison instead *allocates* the same
        IC count as the competing networks across these nets — see
        :func:`repro.hardware.cost.normalize_networks`.
        """
        return self.num_nets()

    @property
    def crossbar_ports(self) -> int:
        """Port count of the (minimal) per-net crossbar — the base ``b``."""
        return self._base

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hypermesh(base={self._base}, dims={self._dims})"


class Hypermesh2D(Hypermesh):
    """The paper's square 2D hypermesh: ``side`` rows x ``side`` columns.

    Node ``i`` occupies row ``i // side``, column ``i % side``.  Each row and
    each column is one hypergraph net (``2 * side`` nets), each able to
    permute its ``side`` members in one step; any global permutation takes at
    most 3 steps (:mod:`repro.routing.clos`).
    """

    name = "hypermesh2d"

    def __init__(self, side: int):
        super().__init__(base=side, dims=2)
        self._side = int(side)

    @property
    def side(self) -> int:
        """Hypermesh side length ``sqrt(N)``."""
        return self._side

    def row_col(self, node: int) -> tuple[int, int]:
        """(row, column) of ``node``."""
        return self.coordinates(node)  # type: ignore[return-value]

    def row_net(self, row: int) -> int:
        """Net id of row ``row`` (dimension 0 fixes the row digit ... the
        *row net* varies the column, i.e. dimension 1)."""
        return self.net_id(1, row * self._side)

    def col_net(self, col: int) -> int:
        """Net id of column ``col`` (varies the row, i.e. dimension 0)."""
        return self.net_id(0, col)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hypermesh2D(side={self._side})"


def degree_log_hypermesh_shape(num_nodes: int) -> tuple[int, int]:
    """Shape ``(base, dims)`` of the degree-log hypermesh of [13].

    [13] studies hypermeshes whose net size grows like ``log N``; the paper's
    Table 1A quotes its crossbar count ``N / loglog N`` and diameter
    ``log N / loglog N``.  This helper picks the smallest base ``b >= 2``
    that is a power of two, with ``b >= log2(N)`` and ``b**dims == N`` for an
    integral ``dims`` — the standard concrete family realizing those
    asymptotics for power-of-two ``N``.

    Raises
    ------
    ValueError
        If no such factorization exists (e.g. ``N`` whose exponent has no
        suitable divisor).
    """
    from .addressing import ilog2

    n_bits = ilog2(num_nodes)
    target = max(2, n_bits)
    # Try divisors d of n_bits as log2(base), preferring base >= log2(N).
    candidates = sorted(
        (1 << d) for d in range(1, n_bits + 1) if n_bits % d == 0
    )
    for base in candidates:
        if base >= target:
            return base, n_bits // ilog2(base)
    # Fall back to the largest available base (dims = 1, a single crossbar).
    base = candidates[-1]
    return base, n_bits // ilog2(base)
