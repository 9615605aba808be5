"""Unit tests for the hypermesh topology."""

import pytest

from repro.networks import Hypermesh, Hypermesh2D, degree_log_hypermesh_shape
from repro.networks.base import ChannelModel


class TestConstruction:
    def test_node_count(self):
        assert Hypermesh(4, 3).num_nodes == 64
        assert Hypermesh2D(8).num_nodes == 64

    def test_rejects_base_one(self):
        with pytest.raises(ValueError):
            Hypermesh(1, 2)

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            Hypermesh(4, 0)

    def test_channel_model(self):
        assert Hypermesh2D(4).channel_model is ChannelModel.HYPERGRAPH_NET


class TestNets:
    def test_net_count_formula(self):
        # n * N / b nets.
        assert Hypermesh2D(8).num_nets() == 16
        assert Hypermesh(4, 3).num_nets() == 48
        assert Hypermesh(3, 2).num_nets() == 6

    def test_each_node_in_dims_nets(self):
        hm = Hypermesh(3, 3)
        for node in hm.nodes():
            assert len(hm.nets_of(node)) == 3

    def test_net_members_share_all_but_one_digit(self):
        hm = Hypermesh(4, 2)
        for node in hm.nodes():
            for dim in range(2):
                members = hm.net_members(dim, node)
                assert node in members
                assert len(members) == 4
                for m in members:
                    assert hm.distance(node, m) <= 1

    def test_nets_consistent_with_net_id(self):
        hm = Hypermesh(3, 2)
        nets = hm.nets()
        for node in hm.nodes():
            for dim in range(2):
                nid = hm.net_id(dim, node)
                assert node in nets[nid]

    def test_nets_partition_each_dimension(self):
        hm = Hypermesh(4, 2)
        per_dim = hm.num_nodes // hm.base
        nets = hm.nets()
        for dim in range(hm.dims):
            covered = sorted(
                m for net in nets[dim * per_dim : (dim + 1) * per_dim] for m in net
            )
            assert covered == list(hm.nodes())

    def test_one_hop_reaches_row_and_column(self):
        """Fig. 1's point on a 16 x 16 machine: each node sits in exactly
        its row net and its column net, which together hold its row and
        its column."""
        side = 16
        hm = Hypermesh2D(side)
        assert hm.num_nets() == 2 * side
        nets = hm.nets()
        for node in hm.nodes():
            row, col = hm.row_col(node)
            owned = hm.nets_of(node)
            assert len(owned) == 2
            members = set(nets[owned[0]]) | set(nets[owned[1]])
            assert members == {row * side + c for c in range(side)} | {
                r * side + col for r in range(side)
            }

    def test_two_nets_of_one_node_intersect_only_there(self):
        hm = Hypermesh(4, 3)
        node = 21
        nets = hm.nets()
        ids = hm.nets_of(node)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                assert set(nets[a]) & set(nets[b]) == {node}

    def test_row_and_col_nets_2d(self):
        hm = Hypermesh2D(4)
        assert hm.num_nets() == 8
        nets = hm.nets()
        assert sorted(nets[hm.row_net(0)]) == [0, 1, 2, 3]
        assert sorted(nets[hm.col_net(0)]) == [0, 4, 8, 12]
        row1 = nets[hm.row_net(1)]
        assert sorted(row1) == [4, 5, 6, 7]
        col2 = nets[hm.col_net(2)]
        assert sorted(col2) == [2, 6, 10, 14]


class TestSharedNet:
    def test_closed_form_matches_brute_force(self):
        # The arithmetic override must agree with a net-membership scan on
        # every node pair (including no-net and same-node pairs).
        for hm in (Hypermesh2D(3), Hypermesh(3, 3), Hypermesh(2, 4)):
            nets = hm.nets()
            for a in hm.nodes():
                for b in hm.nodes():
                    got = hm.shared_net(a, b)
                    expected = None
                    if a != b:
                        for nid in hm.nets_of(b):
                            if a in nets[nid]:
                                expected = nid
                                break
                    assert got == expected, (hm, a, b)

    def test_closed_form_matches_generic_cache(self):
        # Hypermesh overrides HypergraphTopology.shared_net; both paths must
        # answer identically (the generic path is what any new hypergraph
        # topology inherits).
        from repro.networks.base import HypergraphTopology

        hm = Hypermesh(3, 2)
        for a in hm.nodes():
            for b in hm.nodes():
                assert hm.shared_net(a, b) == HypergraphTopology.shared_net(
                    hm, a, b
                )

    def test_same_node_shares_no_net(self):
        hm = Hypermesh2D(4)
        assert hm.shared_net(5, 5) is None

    def test_invalid_node_rejected(self):
        hm = Hypermesh2D(4)
        with pytest.raises(ValueError):
            hm.shared_net(0, 99)


class TestAdjacency:
    def test_neighbor_count(self):
        # n (b - 1) neighbours.
        hm = Hypermesh(4, 2)
        assert all(len(hm.neighbors(n)) == 6 for n in hm.nodes())

    def test_neighbors_at_digit_distance_one(self):
        hm = Hypermesh(3, 3)
        for nb in hm.neighbors(13):
            assert hm.distance(13, nb) == 1

    def test_adjacency_symmetric(self):
        hm = Hypermesh(3, 2)
        for node in hm.nodes():
            for nb in hm.neighbors(node):
                assert node in hm.neighbors(nb)


class TestDistance:
    def test_digit_distance(self):
        hm = Hypermesh2D(4)
        assert hm.distance(0, 15) == 2  # (0,0) -> (3,3)
        assert hm.distance(0, 3) == 1  # same row
        assert hm.distance(0, 12) == 1  # same column

    def test_diameter_is_dims(self):
        assert Hypermesh2D(64).diameter == 2
        assert Hypermesh(4, 3).diameter == 3

    def test_coordinates_roundtrip(self):
        hm = Hypermesh(3, 3)
        for node in hm.nodes():
            assert hm.node_at(hm.coordinates(node)) == node


class TestHardware:
    def test_minimal_crossbars_is_net_count(self):
        assert Hypermesh2D(64).num_crossbars == 128

    def test_crossbar_ports_is_base(self):
        assert Hypermesh2D(64).crossbar_ports == 64

    def test_node_degree_dims_plus_pe(self):
        # Fig. 2: one port per dimension plus the PE, no n x n crossbar.
        assert Hypermesh2D(8).node_degree == 3
        assert Hypermesh2D(64).node_degree == 3
        assert Hypermesh(4, 4).node_degree == 5
        assert Hypermesh2D(8).num_crossbars == Hypermesh2D(8).num_nets()


class TestDegreeLogShape:
    def test_4096(self):
        base, dims = degree_log_hypermesh_shape(4096)
        assert base**dims == 4096
        assert base >= 12  # >= log2(4096)

    def test_65536(self):
        base, dims = degree_log_hypermesh_shape(65536)
        assert base**dims == 65536
        assert base >= 16

    def test_small_sizes_fall_back(self):
        base, dims = degree_log_hypermesh_shape(16)
        assert base**dims == 16

    def test_rejects_non_power(self):
        with pytest.raises(ValueError):
            degree_log_hypermesh_shape(100)
