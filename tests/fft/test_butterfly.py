"""Unit tests for the Fig. 3 flow-graph generator."""

import pytest

from repro.fft import butterfly_flow_graph
from repro.networks.addressing import bit_reverse


class TestStructure:
    def test_stage_count(self):
        g = butterfly_flow_graph(16)
        assert g.num_stages == 4
        assert g.num_points == 16

    def test_edge_count(self):
        # log N butterfly ranks x 2 edges per vertex + N bitrev wires.
        g = butterfly_flow_graph(8)
        assert len(g.edges) == 3 * 8 * 2 + 8

    def test_vertices(self):
        g = butterfly_flow_graph(8)
        assert g.num_vertices == 8 * 5  # log N + 2 ranks

    def test_cross_edges_flip_stage_bit(self):
        g = butterfly_flow_graph(16)
        for s in range(4):
            bit = g.cross_bit(s)
            crosses = [e for e in g.stage_edges(s) if e.kind == "cross"]
            assert len(crosses) == 16
            for e in crosses:
                assert e.target == e.source ^ (1 << bit)

    def test_straight_edges_keep_index(self):
        g = butterfly_flow_graph(8)
        for e in g.edges:
            if e.kind == "straight":
                assert e.source == e.target

    def test_bitrev_edges(self):
        g = butterfly_flow_graph(16)
        wires = g.stage_edges(4)
        assert len(wires) == 16
        for e in wires:
            assert e.kind == "bitrev"
            assert e.target == bit_reverse(e.source, 4)

    def test_dif_order(self):
        g = butterfly_flow_graph(16)
        assert [g.cross_bit(s) for s in range(4)] == [3, 2, 1, 0]

    def test_cross_bit_validates(self):
        with pytest.raises(ValueError):
            butterfly_flow_graph(8).cross_bit(3)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            butterfly_flow_graph(12)


    def test_64_point_graph(self):
        """The flow graph the 4K-point step counts rest on, at N = 64:
        log N ranks of N straight + N cross edges, then the bit reversal."""
        g = butterfly_flow_graph(64)
        assert g.num_stages == 6
        for s in range(6):
            edges = g.stage_edges(s)
            assert len(edges) == 2 * 64
            assert g.cross_bit(s) == 5 - s
            crosses = [e for e in edges if e.kind == "cross"]
            assert all(e.target == e.source ^ (1 << (5 - s)) for e in crosses)
        assert all(e.kind == "bitrev" for e in g.stage_edges(6))

    def test_graph_drives_the_mapping(self):
        """The mapped FFT exchanges exactly the graph's cross bits, in
        order: Fig. 3 is the specification the schedules implement."""
        from repro.core import map_fft
        from repro.networks import Hypercube

        g = butterfly_flow_graph(64)
        mapping = map_fft(Hypercube(6))
        stage_bits = [
            int(s.logical[0]).bit_length() - 1 for s in mapping.stage_schedules
        ]
        assert stage_bits == [g.cross_bit(s) for s in range(g.num_stages)]


class TestNetworkxExport:
    def test_dag_properties(self):
        nx = pytest.importorskip("networkx")
        g = butterfly_flow_graph(8).to_networkx()
        assert nx.is_directed_acyclic_graph(g)
        # Every interior vertex has in-degree 2 (straight + cross).
        for (rank, idx), deg in g.in_degree():
            if 1 <= rank <= 3:
                assert deg == 2

    def test_single_path_between_input_and_prebitrev_output(self):
        # The banyan property: exactly one path input -> rank log N vertex.
        nx = pytest.importorskip("networkx")
        g = butterfly_flow_graph(8).to_networkx()
        paths = list(nx.all_simple_paths(g, (0, 0), (3, 5)))
        assert len(paths) == 1
