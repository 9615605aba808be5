"""Unit tests for FaultAwareRouter: detours, partitions, degraded nets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import (
    FaultModel,
    UnroutableError,
    fault_aware_router,
    resolve_faults,
)
from repro.networks import Hypercube, Hypermesh2D, Mesh2D, Torus2D
from repro.networks.degraded import (
    components_under,
    surviving_adjacency,
    surviving_distances,
)
from repro.sim.routers import route_path, router_for


class TestDetours:
    def test_fault_free_region_defers_to_base(self):
        topo = Mesh2D(4)
        base = router_for(topo)
        # Fault far away from the 0 -> 3 route along the top row.
        far = fault_aware_router(topo, FaultModel(link_failures={(12, 13)}))
        assert route_path(far, 0, 3) == route_path(base, 0, 3)

    def test_detour_length_is_surviving_distance(self):
        topo = Mesh2D(4)
        model = FaultModel(link_failures={(0, 1), (4, 5)})
        far = fault_aware_router(topo, model)
        faults = resolve_faults(model, topo)
        adjacency = surviving_adjacency(topo, faults)
        for dest in range(16):
            dist = surviving_distances(adjacency, dest)
            for src in range(16):
                if src == dest:
                    continue
                path = route_path(far, src, dest)
                assert len(path) - 1 == dist[src]

    def test_dead_destination_raises(self):
        far = fault_aware_router(Mesh2D(4), FaultModel(node_failures={5}))
        with pytest.raises(UnroutableError, match="destination 5 is a failed node"):
            far.next_hop(0, 5)

    def test_dead_current_raises(self):
        far = fault_aware_router(Mesh2D(4), FaultModel(node_failures={5}))
        with pytest.raises(UnroutableError, match="packet at failed node 5"):
            far.next_hop(5, 0)

    def test_partition_raises(self):
        # Cut node 0 off completely: links (0,1) and (0,4) both down.
        far = fault_aware_router(
            Mesh2D(4), FaultModel(link_failures={(0, 1), (0, 4)})
        )
        with pytest.raises(UnroutableError, match="partition the network"):
            far.next_hop(0, 15)

    def test_drop_only_model_routes_like_base(self):
        topo = Mesh2D(4)
        base = router_for(topo)
        far = fault_aware_router(topo, FaultModel(drop_prob=0.5))
        for src, dst in [(0, 15), (3, 12), (7, 8)]:
            assert route_path(far, src, dst) == route_path(base, src, dst)


#: (topology factory, fault model) of the vector-vs-scalar hop test:
#: random link faults on each point-to-point family (on the torus they
#: cut a node off), down nodes, and down hypermesh nets (which cut a node
#: off too).
VECTOR_CASES = {
    "mesh2d-links": (lambda: Mesh2D(8),
                     FaultModel(link_fail_fraction=0.15, seed=4)),
    "torus2d-links": (lambda: Torus2D(8),
                      FaultModel(link_fail_fraction=0.15, seed=4)),
    "hypercube-links": (lambda: Hypercube(6),
                        FaultModel(link_fail_fraction=0.15, seed=4)),
    "mesh2d-nodes": (lambda: Mesh2D(8),
                     FaultModel(node_failures={9, 36},
                                link_fail_fraction=0.05, seed=2)),
    "hypermesh2d-nets": (lambda: Hypermesh2D(8),
                         FaultModel(net_failures={1, 10})),
}


class TestVectorHops:
    @pytest.mark.parametrize("case", sorted(VECTOR_CASES))
    def test_next_hop_array_equals_scalar_next_hop(self, case):
        """Every ``(cur, dst)`` pair, equal pairs included: the vector
        hop equals the scalar one (``None`` reads as ``cur``), and a
        doomed pair raises the scalar message, alone or first in a batch.
        """
        make, model = VECTOR_CASES[case]
        # Two topology objects resolve to two fault sets and two surviving
        # graphs, so the scalar oracle's BFS never warms the vector table.
        scalar = fault_aware_router(make(), model)
        topo = make()
        vector = fault_aware_router(topo, model)
        assert vector.faults.down_links == scalar.faults.down_links
        n = topo.num_nodes
        cur, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)
        expected, errors = [], {}
        for i, (c, d) in enumerate(zip(cur.tolist(), dst.tolist())):
            try:
                hop = scalar.next_hop(c, d)
            except UnroutableError as exc:
                errors[i] = str(exc)
                hop = -1
            expected.append(c if hop is None else hop)
        ok = np.ones(n * n, dtype=bool)
        ok[list(errors)] = False
        graph = vector.faults.surviving_graph(topo)
        assert graph.table is None  # no destination warmed yet
        got = vector.next_hop_array(cur[ok], dst[ok])
        assert got.tolist() == np.asarray(expected)[ok].tolist()
        # Warm now: a second pass reads the table without a new BFS.
        table = graph.table
        again = vector.next_hop_array(cur[ok][::-1], dst[ok][::-1])
        assert again.tolist() == got.tolist()[::-1]
        assert graph.table is table
        for i, message in errors.items():
            with pytest.raises(UnroutableError) as raised:
                vector.next_hop_array(cur[i:i + 1], dst[i:i + 1])
            assert str(raised.value) == message
        if errors:
            with pytest.raises(UnroutableError) as raised:
                vector.next_hop_array(cur, dst)
            assert str(raised.value) == errors[min(errors)]
        if case == "mesh2d-nodes":
            assert {"destination 9 is a failed node",
                    "packet at failed node 9 cannot move"} <= set(
                        errors.values())


class TestCheckRoutable:
    def test_names_the_doomed_packet(self):
        far = fault_aware_router(Mesh2D(4), FaultModel(node_failures={2}))
        with pytest.raises(
            UnroutableError, match="packet 1 originates at failed node 2"
        ):
            far.check_routable([0, 2], [5, 6])
        with pytest.raises(
            UnroutableError, match="packet 0 targets failed node 2"
        ):
            far.check_routable([0], [2])

    def test_partitioned_pair_named(self):
        far = fault_aware_router(
            Mesh2D(4), FaultModel(link_failures={(0, 1), (0, 4)})
        )
        with pytest.raises(
            UnroutableError, match=r"packet 0 \(0 -> 15\) is unroutable"
        ):
            far.check_routable([0], [15])

    def test_clean_demand_set_passes(self):
        far = fault_aware_router(Mesh2D(4), FaultModel(link_failures={(0, 1)}))
        far.check_routable(list(range(16)), list(reversed(range(16))))


class TestHypermeshNets:
    def test_shared_net_skips_down_nets(self):
        hm = Hypermesh2D(4)
        # Nodes 0 and 1 share only row net 4; with it down there is no
        # single-net hop between them.
        far = fault_aware_router(hm, FaultModel(net_failures={4}))
        assert far.shared_net(0, 1) is None
        # 0 and 4 share column net 0, untouched.
        assert far.shared_net(0, 4) == 0

    def test_degraded_net_still_reachable(self):
        hm = Hypermesh2D(4)
        far = fault_aware_router(hm, FaultModel(degraded_nets={4}))
        # Degradation is a capacity fault, not a reachability fault.
        assert far.next_hop(0, 1) == 1


class TestSurvivingGraph:
    def test_down_node_is_isolated(self):
        faults = resolve_faults(FaultModel(node_failures={5}), Mesh2D(4))
        adjacency = surviving_adjacency(Mesh2D(4), faults)
        assert adjacency[5] == ()
        assert all(5 not in nbrs for nbrs in adjacency)

    def test_components_split_on_cut(self):
        faults = resolve_faults(
            FaultModel(link_failures={(0, 1), (0, 4)}), Mesh2D(4)
        )
        adjacency = surviving_adjacency(Mesh2D(4), faults)
        comps = components_under(adjacency)
        assert sorted(map(len, comps)) == [1, 15]
