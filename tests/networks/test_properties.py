"""Closed-form topology properties versus brute-force recomputation.

These tests are the paper's Table 1A ground truth: every formula the models
rely on is re-derived by BFS / exhaustive search on instances.
"""

import pytest

from repro.networks import Hypercube, Hypermesh, Hypermesh2D, Mesh, Mesh2D, Torus, Torus2D
from repro.networks.properties import (
    bfs_distances,
    computed_average_distance,
    computed_diameter,
    degree_histogram,
    eccentricity,
    exhaustive_bisection_width,
    halving_cut_links,
    halving_cut_nets,
    max_network_degree,
    net_crossing_ports,
)


class TestBfs:
    def test_distances_match_closed_form(self, any_topology):
        topo = any_topology
        for source in topo.nodes():
            dist = bfs_distances(topo, source)
            for target in topo.nodes():
                assert dist[target] == topo.distance(source, target)

    def test_eccentricity_of_corner(self):
        assert eccentricity(Mesh2D(4), 0) == 6

    def test_source_validated(self):
        with pytest.raises(ValueError):
            bfs_distances(Mesh2D(3), 9)


class TestDiameter:
    def test_closed_form_matches_bfs(self, any_topology):
        assert any_topology.diameter == computed_diameter(any_topology)

    @pytest.mark.parametrize("side", [2, 3, 4, 5, 8])
    def test_mesh_scaling(self, side):
        assert computed_diameter(Mesh2D(side)) == 2 * (side - 1)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_hypercube_scaling(self, dim):
        assert computed_diameter(Hypercube(dim)) == dim

    @pytest.mark.parametrize(
        "base,dims", [(2, 2), (3, 2), (4, 2), (8, 2), (2, 3), (3, 3)]
    )
    def test_hypermesh_scaling(self, base, dims):
        assert computed_diameter(Hypermesh(base, dims)) == dims


class TestDegrees:
    def test_mesh_degree_histogram(self):
        hist = degree_histogram(Mesh2D(4))
        assert hist == {2: 4, 3: 8, 4: 4}

    def test_torus_uniform(self):
        assert degree_histogram(Torus2D(4)) == {4: 16}

    def test_hypercube_uniform(self):
        assert degree_histogram(Hypercube(4)) == {4: 16}

    def test_hypermesh_uniform(self):
        # n (b-1) = 2 * 3 = 6 neighbours everywhere.
        assert degree_histogram(Hypermesh2D(4)) == {6: 16}

    def test_max_network_degree_vs_node_degree(self, any_topology):
        topo = any_topology
        if isinstance(topo, (Mesh, Torus, Hypercube)):
            # node_degree counts ports (incl. PE): max neighbours + 1.
            assert max_network_degree(topo) == topo.node_degree - 1


class TestAverageDistance:
    def test_single_pair(self):
        assert computed_average_distance(Hypercube(1)) == 1.0

    def test_hypercube_formula(self):
        # Average Hamming distance over distinct pairs: n/2 * N/(N-1).
        for dim in (2, 3, 4):
            n = 1 << dim
            expected = dim / 2 * n / (n - 1)
            assert computed_average_distance(Hypercube(dim)) == pytest.approx(expected)

    def test_hypermesh_shorter_than_mesh(self):
        assert computed_average_distance(Hypermesh2D(4)) < computed_average_distance(
            Mesh2D(4)
        )


class TestHalvingCut:
    @pytest.mark.parametrize("side", [2, 4, 6])
    def test_mesh_cut_is_side(self, side):
        # The index-halving cut slices between row side/2-1 and side/2.
        assert halving_cut_links(Mesh2D(side)) == side

    @pytest.mark.parametrize("side", [4, 6])
    def test_torus_cut_is_two_sides(self, side):
        assert halving_cut_links(Torus2D(side)) == 2 * side

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_hypercube_cut_is_half_nodes(self, dim):
        assert halving_cut_links(Hypercube(dim)) == 2 ** (dim - 1)

    @pytest.mark.parametrize("side", [2, 4, 6])
    def test_hypermesh_cut_nets_is_side(self, side):
        # All column nets are cut; row nets are not.
        assert halving_cut_nets(Hypermesh2D(side)) == side

    @pytest.mark.parametrize("side", [2, 4, 6])
    def test_hypermesh_crossing_ports(self, side):
        # side cut nets x side/2 ports each.
        assert net_crossing_ports(Hypermesh2D(side)) == side * side // 2

    def test_odd_node_count_rejected(self):
        with pytest.raises(ValueError):
            halving_cut_links(Mesh((3, 3)))


class TestExhaustiveBisection:
    def test_mesh_2x2(self):
        assert exhaustive_bisection_width(Mesh2D(2)) == 2

    def test_hypercube_3d(self):
        assert exhaustive_bisection_width(Hypercube(3)) == 4

    def test_torus_2x2(self):
        assert exhaustive_bisection_width(Torus((2, 2))) == 2

    def test_hypermesh_2x2(self):
        # Any balanced split cuts at least 2 of the 4 nets.
        assert exhaustive_bisection_width(Hypermesh2D(2)) == 2

    def test_hypermesh_nets_resist_bisection(self):
        # 3x3 hypermesh has 9 nodes (odd) — use base 2, dims 3: every
        # balanced cut severs at least 4 of the 12 nets.
        width = exhaustive_bisection_width(Hypermesh(2, 3))
        assert width == 4

    def test_halving_cut_upper_bounds_exhaustive(self):
        for topo in (Mesh2D(2), Hypercube(3), Torus((2, 2))):
            assert exhaustive_bisection_width(topo) <= halving_cut_links(topo)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            exhaustive_bisection_width(Hypercube(5))
