"""The surviving-graph structure cache and its vectorized building blocks.

Three contracts live here:

* :func:`~repro.networks.degraded.batched_surviving_distances` (a
  bit-parallel multi-source BFS over CSR adjacency) equals the scalar
  per-destination BFS in :func:`~repro.networks.degraded.surviving_distances`
  for every destination, in the narrowest signed type, and its transient
  memory stays a small multiple of the table it returns;
* :class:`~repro.faults.ResolvedFaults` caches one
  :class:`~repro.networks.degraded.SurvivingGraph` per topology, and
  :func:`~repro.faults.resolve_faults` memoizes per ``(topology, model)`` —
  so repeated ``route_demands`` calls against one fault configuration share
  a single adjacency/CSR/BFS structure instead of rebuilding it per call;
* :meth:`FaultModel.transmit_ok_batch` reproduces the scalar
  :meth:`FaultModel.transmit_ok` draw sequence exactly;
* the array-built fault structures — ``link_array``, the sampled
  ``down_links``, :func:`~repro.networks.degraded.surviving_adjacency` and
  the :class:`~repro.networks.degraded.SurvivingGraph` CSR and edge codes —
  equal the per-node and per-link loops they replaced, kept below as
  oracles, on every family at several sizes.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.faults import FaultModel, resolve_faults
from repro.networks import (
    Hypercube,
    Hypermesh,
    Hypermesh2D,
    Mesh,
    Mesh2D,
    Torus,
    Torus2D,
)
from repro.networks.base import HypergraphTopology
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
        # Levels stop at 10 here: 4 bit planes, so the narrowest signed
        # type is int8 and the table is n*D bytes.
        assert table.dtype == np.int8
        assert table.dtype == np.min_scalar_type(-(int(table.max()) + 1))
        # The bitsets are n*D/8 bytes each; an int64 table alone would be
        # 8 MiB.
        assert peak < 4 * 1024 * 1024


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
        pids = np.array([0, 5, 7, 2**40], dtype=np.int64)
        for seed in (0, -3, 2**64 + 1):
            never = FaultModel(seed=seed, drop_prob=0.0)
            always = FaultModel(seed=seed, drop_prob=1.0)
            for step in (0, 3):
                assert never.transmit_ok_batch(step, pids).all()
                assert not always.transmit_ok_batch(step, pids).any()
                assert all(never.transmit_ok(step, int(p)) for p in pids)
                assert not any(always.transmit_ok(step, int(p)) for p in pids)


# --------------------------------------------------------------- oracles
def _oracle_links(topo):
    """Every undirected link, sorted: the enumeration fault sampling used
    before ``link_array``."""
    return sorted((u, v) if u < v else (v, u) for u, v in topo.links())


def _oracle_down_links(model, topo):
    """``ResolvedFaults.down_links`` as the per-link resolver built it."""
    down = set(model.link_failures)
    if model.link_fail_fraction > 0.0:
        all_links = _oracle_links(topo)
        k = int(model.link_fail_fraction * len(all_links))
        if k:
            rng = np.random.default_rng(model.seed)
            picks = rng.choice(len(all_links), size=k, replace=False)
            down.update(all_links[int(i)] for i in picks)
    return frozenset(down)


def _oracle_adjacency(topo, faults):
    """The per-node surviving-adjacency loop (neighbour sets per net on a
    hypergraph)."""
    n = topo.num_nodes
    down_nodes = faults.down_nodes
    adjacency = [()] * n
    if isinstance(topo, HypergraphTopology):
        neighbour_sets = [set() for _ in range(n)]
        for net_id, members in enumerate(topo.nets()):
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
        adjacency[node] = tuple(sorted(
            nb for nb in topo.neighbors(node)
            if nb not in down_nodes and not faults.link_down(node, nb)
        ))
    return adjacency


POINT_TO_POINT = [
    Mesh((2,)), Mesh((7,)), Mesh((2, 5)), Mesh((5, 2)), Mesh2D(4), Mesh2D(8),
    Mesh((3, 4, 2)), Torus((2,)), Torus((3,)), Torus((2, 2, 2)),
    Torus((2, 5)), Torus((6, 2, 3)), Torus2D(4), Torus2D(5), Hypercube(1),
    Hypercube(2), Hypercube(5), Hypercube(7),
]


def _fault_models(topo):
    """Link failures, node failures and fraction sampling, alone and mixed."""
    links = _oracle_links(topo)
    n = topo.num_nodes
    return [
        FaultModel(seed=3, link_failures=links[::3]),
        FaultModel(seed=3, node_failures={0, n - 1}),
        FaultModel(seed=4, link_fail_fraction=0.3),
        FaultModel(seed=9, link_fail_fraction=1.0),
        FaultModel(seed=5, link_failures=links[-1:], node_failures={n // 2},
                   link_fail_fraction=0.2, drop_prob=0.1),
    ]


class TestArrayBuiltStructures:
    @pytest.mark.parametrize("topo", POINT_TO_POINT, ids=repr)
    def test_link_array_is_the_sorted_links(self, topo):
        links = topo.link_array()
        assert links.dtype == np.int64 and links.shape == (
            len(_oracle_links(topo)), 2)
        assert list(map(tuple, links.tolist())) == _oracle_links(topo)
        assert topo.num_links() == len(links)

    @pytest.mark.parametrize("topo", POINT_TO_POINT, ids=repr)
    def test_structures_equal_the_loops(self, topo):
        for model in _fault_models(topo):
            faults = resolve_faults(model, topo)
            assert faults.down_links == _oracle_down_links(model, topo)
            want = _oracle_adjacency(topo, faults)
            self._assert_graph(topo, faults, want)

    @pytest.mark.parametrize(
        "topo", [Hypermesh(2, 1), Hypermesh(3, 2), Hypermesh2D(4),
                 Hypermesh(2, 4)], ids=repr)
    def test_hypergraph_structures_equal_the_loop(self, topo):
        n, nets = topo.num_nodes, topo.num_nets()
        for model in (
            FaultModel(seed=1, node_failures={0, n - 1}),
            FaultModel(seed=1, net_failures={0, nets - 1}),
            FaultModel(seed=1, net_failures={nets - 1},
                       degraded_nets={0} if nets > 1 else (),
                       node_failures={1}),
        ):
            faults = resolve_faults(model, topo)
            self._assert_graph(topo, faults, _oracle_adjacency(topo, faults))

    @staticmethod
    def _assert_graph(topo, faults, want):
        got = surviving_adjacency(topo, faults)
        assert got == want
        assert all(type(row) is tuple for row in got)
        assert all(type(v) is int for row in got for v in row)
        graph = SurvivingGraph(topo, faults)
        indptr, indices = surviving_csr(want)
        n = topo.num_nodes
        codes = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n
        for name, arr, ref in (
            ("indptr", graph.indptr, indptr),
            ("indices", graph.indices, indices),
            ("edge_codes", graph.edge_codes, codes + indices),
        ):
            assert arr.dtype == np.int64, name
            assert arr.tolist() == ref.tolist(), name
        assert graph.adjacency == want

    def test_unknown_explicit_link_still_rejected(self):
        topo = Torus((2, 5))
        for link in [(0, 2), (0, 10), (-1, 0), (3, 99)]:
            with pytest.raises(ValueError, match="topology does not have"):
                resolve_faults(FaultModel(link_failures={link}), topo)
