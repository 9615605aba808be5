"""Property tests for the bit-parallel surviving-graph BFS kernel.

:func:`~repro.networks.degraded.batched_surviving_distances` builds every
distance table the fault-aware router, the degraded engine cores and the
faulted bounds read, so each of its rows must equal the scalar deque BFS
:func:`~repro.networks.degraded.surviving_distances` — the oracle — on:

* all four families under random link and node failures, with down and
  degraded nets on the hypermesh;
* empty CSR rows (down nodes) at node 0 and at node n-1;
* ``D`` in {0, 1, 63, 64, 65, 130} (one word, a full word, a word boundary
  and three words) with duplicate destinations;
* a disconnected graph;
* a path long enough (> 255 levels) to need nine bit planes.

The table is ``(D, n)``, C-contiguous, and in the narrowest signed type
that holds -1 and its deepest level.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults import FaultModel, resolve_faults
from repro.networks import Hypercube, Hypermesh, Mesh, Torus
from repro.networks.base import HypergraphTopology
from repro.networks.degraded import (
    batched_surviving_distances,
    components_under,
    surviving_adjacency,
    surviving_csr,
    surviving_distances,
)

DEST_COUNTS = (0, 1, 63, 64, 65, 130)
HYPERMESH_SHAPES = [(2, 3), (3, 2), (4, 2), (5, 2), (3, 3)]


def _assert_matches_oracle(adjacency, dests) -> None:
    indptr, indices = surviving_csr(adjacency)
    table = batched_surviving_distances(
        indptr, indices, np.asarray(dests, dtype=np.int64)
    )
    assert table.dtype == np.min_scalar_type(-(int(table.max(initial=0)) + 1))
    assert table.shape == (len(dests), len(adjacency))
    assert table.flags.c_contiguous
    for row, dest in zip(table, dests):
        assert row.tolist() == surviving_distances(adjacency, int(dest))


@st.composite
def topologies(draw):
    family = draw(st.sampled_from(["mesh", "torus", "hypercube", "hypermesh"]))
    if family in ("mesh", "torus"):
        radices = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
        return (Mesh if family == "mesh" else Torus)(radices)
    if family == "hypercube":
        return Hypercube(draw(st.integers(1, 7)))
    return Hypermesh(*draw(st.sampled_from(HYPERMESH_SHAPES)))


@st.composite
def fault_models(draw, topo):
    """Random node failures plus link failures, or (on the hypermesh) a
    disjoint mix of down and degraded nets."""
    n = topo.num_nodes
    nodes = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    if isinstance(topo, HypergraphTopology):
        nets = draw(st.lists(st.integers(0, topo.num_nets() - 1),
                             max_size=4, unique=True))
        cut = draw(st.integers(0, len(nets)))
        return FaultModel(seed=1, node_failures=nodes,
                          net_failures=nets[:cut], degraded_nets=nets[cut:])
    links = sorted(topo.links())
    failed = draw(st.lists(st.sampled_from(links), max_size=len(links) // 3))
    return FaultModel(seed=1, node_failures=nodes, link_failures=failed)


@given(st.data(), topologies(), st.sampled_from(DEST_COUNTS))
def test_rows_equal_the_scalar_bfs(data, topo, d):
    adjacency = surviving_adjacency(
        topo, resolve_faults(data.draw(fault_models(topo)), topo)
    )
    # Drawn with replacement: duplicates are the norm once D > n.
    dests = data.draw(st.lists(st.integers(0, topo.num_nodes - 1),
                               min_size=d, max_size=d))
    _assert_matches_oracle(adjacency, dests)


@pytest.mark.parametrize(
    "topo",
    [Mesh((4, 4)), Torus((3, 5)), Hypercube(5), Hypermesh(4, 2)],
    ids=repr,
)
@pytest.mark.parametrize("d", DEST_COUNTS)
def test_empty_rows_at_both_ends(topo, d):
    n = topo.num_nodes
    model = FaultModel(seed=1, node_failures=(0, n - 1))
    adjacency = surviving_adjacency(topo, resolve_faults(model, topo))
    indptr, _ = surviving_csr(adjacency)
    assert indptr[1] == 0 and indptr[n - 1] == indptr[n]
    # The down nodes themselves are destinations too (first and last).
    dests = [0, n - 1] + [(7 * k) % n for k in range(max(d - 2, 0))]
    _assert_matches_oracle(adjacency, dests[:d])


@pytest.mark.parametrize("d", DEST_COUNTS)
def test_disconnected_graph(d):
    topo = Mesh((4, 6))
    # Cut every link between columns 2 and 3: two 4x3 halves.
    cut = [(u, v) for u, v in topo.links() if {u % 6, v % 6} == {2, 3}]
    adjacency = surviving_adjacency(
        topo, resolve_faults(FaultModel(seed=1, link_failures=cut), topo)
    )
    assert len(components_under(adjacency)) == 2
    dests = [(5 * k) % topo.num_nodes for k in range(d)]
    _assert_matches_oracle(adjacency, dests)


def test_long_path_uses_nine_bit_planes():
    n = 300  # levels up to 299 > 255: bit plane 8 is set
    adjacency = [tuple(v for v in (u - 1, u + 1) if 0 <= v < n)
                 for u in range(n)]
    dests = [0, n - 1, 150, 0, 1, n - 1]
    _assert_matches_oracle(adjacency, dests)
    indptr, indices = surviving_csr(adjacency)
    table = batched_surviving_distances(indptr, indices, [0])
    assert table[0].tolist() == list(range(n))
