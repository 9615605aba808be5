"""The clean-path test behind ``FaultAwareRouter.check_routable``.

A packet is *clean* when every hop of its fault-free base path is a
surviving edge.  Its route is then its base path, so it needs no
distance row; only the destinations of the other (dirty) packets are
BFS'd.  The mask comes from a closed form on meshes and tori (per-line
prefix sums of dead links, with the torus's wrap and its tie toward
increasing coordinates) and from a vectorized walk on hypercubes and
hypermeshes.  Each is checked here against the base path walked hop by
hop in Python, under random down links and down nodes (and down nets on
the hypermesh).  The last class pins the laziness itself: after a
faulted dense permutation, the surviving graph's table holds exactly
the dirty destinations' rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults import FaultModel, fault_aware_router, resolve_faults
from repro.faults.routing import _clean_dimension_order, _clean_walk
from repro.networks import Hypercube, Hypermesh, Mesh, Mesh2D, Torus, Torus2D
from repro.sim import route_demands
from repro.sim.routers import MeshDimensionOrderRouter, route_path, router_for
from repro.sim.task import build_topology, build_workload


def walked_clean(far, sources, dests) -> np.ndarray:
    """Oracle: walk each base path in Python; clean iff every hop joins
    two live nodes over a live link (on a hypermesh, an alive net)."""
    topology, faults = far._topology, far.faults
    base = router_for(topology)
    hypergraph = isinstance(topology, Hypermesh)

    def alive(u: int, v: int) -> bool:
        if faults.node_down(u) or faults.node_down(v):
            return False
        if hypergraph:
            return far.shared_net(u, v) is not None
        return not faults.link_down(u, v)

    out = []
    for s, d in zip(sources, dests):
        path = route_path(base, int(s), int(d))
        out.append(all(alive(u, v) for u, v in zip(path, path[1:])))
    return np.array(out, dtype=bool)


def all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    src, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)
    return src, dst


@st.composite
def faulted_grids(draw):
    """A 2D (sometimes 3D) mesh or torus, even and odd extents, with a
    random set of down links and a few down nodes."""
    family = draw(st.sampled_from([Mesh, Torus]))
    radices = draw(st.lists(st.integers(2, 7), min_size=2, max_size=2))
    if draw(st.booleans()) and radices[0] * radices[1] <= 16:
        radices.append(draw(st.integers(2, 3)))
    topology = family(radices)
    links = sorted(topology.links())
    down = draw(st.lists(st.sampled_from(links), max_size=len(links) // 4,
                         unique=True))
    nodes = draw(st.lists(st.integers(0, topology.num_nodes - 1), max_size=2,
                          unique=True))
    return topology, FaultModel(link_failures=set(down),
                                node_failures=set(nodes))


class TestDimensionOrderClosedForm:
    @given(faulted_grids())
    def test_closed_form_equals_the_walk(self, case):
        topology, model = case
        far = fault_aware_router(topology, model)
        src, dst = all_pairs(topology.num_nodes)
        graph = far.faults.surviving_graph(topology)
        got = _clean_dimension_order(graph, topology.radices, src, dst,
                                     isinstance(topology, Torus))
        want = walked_clean(far, src, dst)
        assert got.tolist() == want.tolist()
        # The vectorized walk agrees too, bounded by the diameter.
        walked = _clean_walk(router_for(topology).next_hop_array, graph,
                             src, dst, topology.diameter)
        assert walked.tolist() == want.tolist()

    @pytest.mark.parametrize("extent", [4, 6, 8])
    def test_torus_ties_go_toward_increasing_coordinates(self, extent):
        """Row 0 of a torus with the link 1-2 down.  Coordinates 2 and
        ``2 - extent/2`` are half a ring apart, a tie both ways, which the
        router breaks forward: from 2 it goes up over the wrap and stays
        clean, while the way back goes up through 1 -> 2 and is dirty."""
        topology = Torus2D(extent)
        far = fault_aware_router(topology, FaultModel(link_failures={(1, 2)}))
        other = (2 - extent // 2) % extent
        src = np.array([2, other], dtype=np.int64)
        dst = np.array([other, 2], dtype=np.int64)
        got = far._clean_paths(src, dst)
        assert got.tolist() == walked_clean(far, src, dst).tolist()
        assert got.tolist() == [True, False]

    def test_clean_packets_route_on_their_base_paths(self):
        """The claim the mask rests on: a clean packet's faulted route is
        its fault-free one."""
        for topology in (Mesh2D(6), Torus2D(6), Torus((5, 4))):
            model = FaultModel(link_fail_fraction=0.1, node_failures={7},
                               seed=3)
            far = fault_aware_router(topology, model)
            base = router_for(topology)
            src, dst = all_pairs(topology.num_nodes)
            clean = far._clean_paths(src, dst)
            assert clean.any() and not clean.all()
            for s, d in zip(src[clean].tolist(), dst[clean].tolist()):
                assert route_path(far, s, d) == route_path(base, s, d)

    def test_a_foreign_base_marks_every_mover_dirty(self):
        """Mesh dimension order on a torus is not a shortest-path
        discipline there, so no packet can be trusted to its base path."""
        topology = Torus2D(4)
        far = fault_aware_router(topology, FaultModel(link_failures={(0, 1)}),
                                 base=MeshDimensionOrderRouter(Mesh2D(4)))
        src, dst = all_pairs(16)
        assert far._clean_paths(src, dst).tolist() == (src == dst).tolist()


@st.composite
def faulted_cubes(draw):
    topology = Hypercube(draw(st.integers(1, 6)))
    links = sorted(topology.links())
    down = draw(st.lists(st.sampled_from(links), max_size=len(links) // 4,
                         unique=True))
    nodes = draw(st.lists(st.integers(0, topology.num_nodes - 1), max_size=2,
                          unique=True))
    return topology, FaultModel(link_failures=set(down),
                                node_failures=set(nodes))


@st.composite
def faulted_hypermeshes(draw):
    base, dims = draw(st.sampled_from([(3, 2), (4, 2), (5, 2), (2, 3), (3, 3)]))
    topology = Hypermesh(base, dims)
    nets = draw(st.lists(st.integers(0, topology.num_nets() - 1),
                         max_size=2, unique=True))
    nodes = draw(st.lists(st.integers(0, topology.num_nodes - 1), max_size=2,
                          unique=True))
    return topology, FaultModel(net_failures=tuple(nets),
                                node_failures=set(nodes))


class TestWalks:
    @given(faulted_cubes())
    def test_ecube_walk_equals_the_python_walk(self, case):
        topology, model = case
        far = fault_aware_router(topology, model)
        src, dst = all_pairs(topology.num_nodes)
        assert (far._clean_paths(src, dst).tolist()
                == walked_clean(far, src, dst).tolist())

    @given(faulted_hypermeshes())
    def test_digit_walk_equals_the_python_walk(self, case):
        topology, model = case
        far = fault_aware_router(topology, model)
        src, dst = all_pairs(topology.num_nodes)
        assert (far._clean_paths(src, dst).tolist()
                == walked_clean(far, src, dst).tolist())


class TestOnlyDirtyDestinationsAreBFSd:
    @pytest.mark.parametrize("name", ["mesh2d", "torus2d", "hypercube"])
    def test_table_rows_are_the_dirty_destinations(self, name):
        topology = build_topology(name, 1024)
        src, dst = build_workload("dense-permutation", 1024, 7)
        model = FaultModel(link_fail_fraction=0.05, drop_prob=0.2, seed=5)
        routed = route_demands(topology, list(zip(src, dst)),
                               fault_model=model, cache=False)
        assert routed.stats.delivered + routed.stats.dropped == 1024
        far = fault_aware_router(topology, model)
        dirty = ~walked_clean(far, src, dst)
        graph = resolve_faults(model, topology).surviving_graph(topology)
        rows = set(np.flatnonzero(graph.dest_row >= 0).tolist())
        assert rows == set(np.asarray(dst)[dirty].tolist())
        assert graph.table.shape[0] == len(rows) < 1024
