"""Three-step permutation routing on the 2D hypermesh (Slepian–Duguid).

Property [6] of [12], used by the paper to bound the FFT's closing
bit-reversal at **3 data-transfer steps**: the 2D hypermesh is rearrangeable —
any permutation of all ``N = s**2`` packets can be realized as

1. a permutation *within every row* (one step: all row nets fire),
2. a permutation *within every column* (one step: all column nets fire),
3. a permutation *within every row* (one step).

The construction is the classical Clos-network argument.  Build the demand
multigraph with one left vertex per source row, one right vertex per
destination row, and one edge per packet joining its source row to its
destination row.  Every vertex has degree exactly ``s``, so König's theorem
colors the edges with ``s`` colors (:mod:`repro.routing.edge_coloring`).
Interpreting *color = intermediate column* yields the three conflict-free
phases:

* phase 1 is row-internal because a proper coloring gives the packets of one
  source row pairwise-distinct colors (columns);
* phase 2 is column-internal and conflict-free because each color class is a
  partial matching between source rows and destination rows;
* phase 3 is row-internal because a permutation delivers pairwise-distinct
  destinations within each row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..networks.hypermesh import Hypermesh2D
from .edge_coloring import bipartite_edge_coloring
from .permutation import Permutation

__all__ = ["ClosRoute", "route_permutation_3step", "is_row_internal", "is_col_internal"]


def is_row_internal(perm: Permutation, side: int) -> bool:
    """True when every packet stays inside its row of a ``side x side`` layout."""
    if perm.n != side * side:
        raise ValueError("permutation size does not match the layout")
    src = np.arange(perm.n)
    return bool(np.array_equal(src // side, perm.destinations // side))


def is_col_internal(perm: Permutation, side: int) -> bool:
    """True when every packet stays inside its column."""
    if perm.n != side * side:
        raise ValueError("permutation size does not match the layout")
    src = np.arange(perm.n)
    return bool(np.array_equal(src % side, perm.destinations % side))


@dataclass(frozen=True)
class ClosRoute:
    """A decomposition of a permutation into hypermesh net phases.

    Attributes
    ----------
    phases:
        Row/column-internal permutations whose left-to-right composition
        equals the routed permutation.  Length <= 3; each phase costs one
        data-transfer step on the 2D hypermesh.
    """

    phases: tuple[Permutation, ...]

    @property
    def num_steps(self) -> int:
        """Data-transfer steps consumed (= number of phases)."""
        return len(self.phases)

    def composed(self) -> Permutation:
        """Compose the phases back into a single permutation."""
        if not self.phases:
            raise ValueError("empty route")
        result = self.phases[0]
        for phase in self.phases[1:]:
            result = result.compose(phase)
        return result


def route_permutation_3step(
    perm: Permutation,
    hypermesh: Hypermesh2D | None = None,
    *,
    minimize: bool = True,
) -> ClosRoute:
    """Decompose ``perm`` into <= 3 net-internal phases on a 2D hypermesh.

    Parameters
    ----------
    perm:
        Full permutation of the ``side**2`` node positions (``perm[i]`` is
        the destination node of the packet starting at node ``i``).
    hypermesh:
        Target network; inferred as ``Hypermesh2D(sqrt(n))`` when omitted.
    minimize:
        Drop identity phases, so row-internal permutations cost 1 step and
        "row then column"-shaped permutations cost 2.

    Returns
    -------
    ClosRoute
        Phases that compose to ``perm``, each row- or column-internal, by
        the construction in the module docstring.  Nothing re-checks them
        at run time; the properties in
        ``tests/properties/test_clos_props.py`` pin the composition, the
        net-internal shape of every phase and a replay through the
        hardware validator.
    """
    n = perm.n
    if hypermesh is None:
        side = int(round(n**0.5))
        if side * side != n:
            raise ValueError(f"{n} positions do not form a square hypermesh")
        hypermesh = Hypermesh2D(side)
    side = hypermesh.side
    if n != hypermesh.num_nodes:
        raise ValueError("permutation size does not match the hypermesh")

    src = np.arange(n, dtype=np.int64)
    dest = perm.destinations
    src_row = src // side
    dst_row = dest // side
    dst_col = dest % side

    # Demand multigraph: one edge per packet, source row -> destination row.
    edges = list(zip(src_row.tolist(), dst_row.tolist()))
    colors, _ = bipartite_edge_coloring(side, side, edges)
    mid_col = colors  # color c == intermediate column c

    # Phase 1: within each source row, move packet i to column mid_col[i].
    phase1 = Permutation(src_row * side + mid_col)
    # Phase 2: within column mid_col[i], move to the destination row.
    after1 = phase1.destinations
    phase2_dest = np.empty(n, dtype=np.int64)
    phase2_dest[after1] = dst_row * side + mid_col
    phase2 = Permutation(phase2_dest)
    # Phase 3: within the destination row, move to the destination column.
    after2 = dst_row * side + mid_col
    phase3_dest = np.empty(n, dtype=np.int64)
    phase3_dest[after2] = dst_row * side + dst_col
    phase3 = Permutation(phase3_dest)

    phases = [phase1, phase2, phase3]
    if minimize:
        phases = [p for p in phases if not p.is_identity()]
        if not phases:
            phases = [Permutation.identity(n)]
    route = ClosRoute(phases=tuple(phases))
    return route
