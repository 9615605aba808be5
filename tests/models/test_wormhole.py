"""Unit tests for the wormhole-vs-store-and-forward model."""

import pytest

from repro.hardware import GAAS_1992, link_bandwidth
from repro.models import dense_exchange_time, lone_packet_time, mesh_fft_butterfly_time
from repro.networks import Mesh2D


MESH_BW = link_bandwidth(Mesh2D(64), GAAS_1992)  # 2.56 Gbit/s


class TestLonePacket:
    def test_wormhole_wins_at_distance(self):
        cmp_ = lone_packet_time(32, MESH_BW, GAAS_1992)
        assert cmp_.wormhole < cmp_.store_and_forward
        assert cmp_.wormhole_speedup > 5

    def test_distance_one_nearly_equal(self):
        cmp_ = lone_packet_time(1, MESH_BW, GAAS_1992)
        assert cmp_.wormhole == pytest.approx(cmp_.store_and_forward, rel=0.1)

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            lone_packet_time(0, MESH_BW, GAAS_1992)


class TestDenseExchange:
    @pytest.mark.parametrize("distance", [1, 2, 8, 32])
    def test_wormhole_never_helps(self, distance):
        """The paper's Section III-E claim, quantified."""
        cmp_ = dense_exchange_time(distance, MESH_BW, GAAS_1992)
        assert cmp_.wormhole >= cmp_.store_and_forward
        assert cmp_.wormhole_speedup <= 1.0
        assert cmp_.store_and_forward == pytest.approx(distance * 50e-9)

    def test_serialization_floor(self):
        cmp_ = dense_exchange_time(16, MESH_BW, GAAS_1992)
        serialization = GAAS_1992.packet_bits / MESH_BW
        assert cmp_.store_and_forward == pytest.approx(16 * serialization)

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            dense_exchange_time(0, MESH_BW, GAAS_1992)


class TestMeshButterflyTotal:
    def test_store_and_forward_matches_paper_steps(self):
        # 2 (sqrt N - 1) steps x 50 ns at 4K PEs.
        t = mesh_fft_butterfly_time(4096, MESH_BW, GAAS_1992)
        assert t == pytest.approx(2 * 63 * 50e-9)

    def test_wormhole_is_no_faster(self):
        sf = mesh_fft_butterfly_time(4096, MESH_BW, GAAS_1992)
        wh = mesh_fft_butterfly_time(4096, MESH_BW, GAAS_1992, wormhole=True)
        assert wh >= sf

    def test_odd_log_n_rejected(self):
        with pytest.raises(ValueError):
            mesh_fft_butterfly_time(32, MESH_BW, GAAS_1992)
