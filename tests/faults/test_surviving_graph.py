"""The surviving-graph structure cache and its vectorized building blocks.

Three contracts live here:

* :func:`~repro.networks.degraded.batched_surviving_distances` (a
  bit-parallel multi-source BFS over CSR adjacency) equals the scalar
  per-destination BFS in :func:`~repro.networks.degraded.surviving_distances`
  for every destination, and its transient memory stays a small multiple
  of the table it returns;
* :class:`~repro.faults.ResolvedFaults` caches one
  :class:`~repro.networks.degraded.SurvivingGraph` per topology, and
  :func:`~repro.faults.resolve_faults` memoizes per ``(topology, model)`` —
  so repeated ``route_demands`` calls against one fault configuration share
  a single adjacency/CSR/BFS structure instead of rebuilding it per call;
* :meth:`FaultModel.transmit_ok_batch` reproduces the scalar
  :meth:`FaultModel.transmit_ok` draw sequence exactly.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.faults import FaultModel, resolve_faults
from repro.networks import Hypercube, Mesh2D, Torus2D
from repro.networks.degraded import (
    SurvivingGraph,
    batched_surviving_distances,
    surviving_adjacency,
    surviving_csr,
    surviving_distances,
)
from repro.sim import route_demands


def _adjacency(topo, model):
    return surviving_adjacency(topo, resolve_faults(model, topo))


class TestBatchedBfs:
    @pytest.mark.parametrize("topo", [Mesh2D(4), Torus2D(4), Hypercube(4)],
                             ids=["mesh", "torus", "cube"])
    def test_matches_scalar_bfs_everywhere(self, topo):
        model = FaultModel(link_fail_fraction=0.2, seed=5)
        adj = _adjacency(topo, model)
        indptr, indices = surviving_csr(adj)
        n = topo.num_nodes
        dests = np.arange(n, dtype=np.int64)
        table = batched_surviving_distances(indptr, indices, dests)
        for d in range(n):
            assert table[d].tolist() == surviving_distances(adj, d)

    def test_csr_rows_are_the_adjacency_lists(self):
        adj = _adjacency(Mesh2D(3), FaultModel(link_fail_fraction=0.1, seed=2))
        indptr, indices = surviving_csr(adj)
        for u, nbrs in enumerate(adj):
            assert indices[indptr[u]:indptr[u + 1]].tolist() == list(nbrs)

    def test_partitioned_nodes_stay_minus_one(self):
        # Two isolated components: 0-1 and 2-3.
        adj = [[1], [0], [3], [2]]
        indptr, indices = surviving_csr(adj)
        table = batched_surviving_distances(
            indptr, indices, np.array([0, 2], dtype=np.int64)
        )
        assert table[0].tolist() == [0, 1, -1, -1]
        assert table[1].tolist() == [-1, -1, 0, 1]

    def test_peak_memory_is_a_small_multiple_of_the_table(self):
        topo = Hypercube(10)
        adj = _adjacency(topo, FaultModel(link_fail_fraction=0.05, seed=3))
        indptr, indices = surviving_csr(adj)
        dests = np.arange(topo.num_nodes, dtype=np.int64)
        tracemalloc.start()
        try:
            table = batched_surviving_distances(indptr, indices, dests)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The bitsets are n*D/8 bytes each; only the int64 output is big.
        assert table.nbytes == 8 * 1024 * 1024
        assert peak < 3 * table.nbytes


class TestStructureCaching:
    def test_resolve_faults_is_memoized_per_topology_and_model(self):
        topo = Mesh2D(4)
        model = FaultModel(link_fail_fraction=0.2, seed=1)
        assert resolve_faults(model, topo) is resolve_faults(model, topo)
        # A distinct topology object resolves fresh (faults are sampled
        # against that object's link set).
        other = Mesh2D(4)
        assert resolve_faults(model, topo) is not resolve_faults(model, other)

    def test_surviving_graph_cached_on_resolved_faults(self):
        topo = Mesh2D(4)
        resolved = resolve_faults(
            FaultModel(link_fail_fraction=0.2, seed=1), topo
        )
        graph = resolved.surviving_graph(topo)
        assert isinstance(graph, SurvivingGraph)
        assert resolved.surviving_graph(topo) is graph

    def test_repeated_route_demands_share_one_structure(self):
        """Satellite contract: two engine runs against one fault config
        must hit the same ResolvedFaults *and* the same SurvivingGraph
        object — no per-call adjacency/CSR/BFS rebuild."""
        topo = Mesh2D(4)
        model = FaultModel(link_fail_fraction=0.2, seed=5)
        demands = [(i, (i + 5) % 16) for i in range(16)]
        for backend in ("indexed", "numpy"):
            route_demands(
                topo, demands, fault_model=model, backend=backend,
                cache=False,
            )
            resolved = resolve_faults(model, topo)
            graph = resolved.surviving_graph(topo)
            route_demands(
                topo, demands, fault_model=model, backend=backend,
                cache=False,
            )
            assert resolve_faults(model, topo) is resolved
            assert resolved.surviving_graph(topo) is graph

    def test_bfs_tables_grow_and_persist_across_calls(self):
        topo = Mesh2D(4)
        model = FaultModel(link_fail_fraction=0.2, seed=5)
        graph = resolve_faults(model, topo).surviving_graph(topo)
        dests = np.array([3, 7], dtype=np.int64)
        table, dest_row = graph.dest_table(dests)
        assert (dest_row[dests] >= 0).all()
        again, _ = graph.dest_table(dests)
        assert again is table  # no re-BFS for warm destinations

    def test_cache_does_not_leak_into_pickles(self):
        import pickle

        topo = Mesh2D(4)
        resolved = resolve_faults(
            FaultModel(link_fail_fraction=0.2, seed=1), topo
        )
        resolved.surviving_graph(topo)  # warm the (unpicklable) cache
        clone = pickle.loads(pickle.dumps(resolved))
        assert clone.down_links == resolved.down_links
        assert clone._cache == {}


class TestBatchedDrops:
    def test_batch_matches_scalar_draws(self):
        model = FaultModel(drop_prob=0.37, seed=99)
        pids = np.arange(64, dtype=np.int64)
        for step in (0, 1, 17):
            batch = model.transmit_ok_batch(step, pids)
            assert batch.tolist() == [
                model.transmit_ok(step, int(p)) for p in pids
            ]

    def test_degenerate_probabilities_short_circuit(self):
        pids = np.arange(8, dtype=np.int64)
        assert FaultModel(drop_prob=0.0).transmit_ok_batch(3, pids).all()
        assert not FaultModel(drop_prob=1.0).transmit_ok_batch(3, pids).any()
