"""Unit tests for the speedup comparisons — the paper's headline numbers."""

import pytest

from repro.core.complexity import NetworkKind
from repro.hardware import GAAS_1992, Technology
from repro.models import (
    bitonic_comparison,
    bitonic_steps,
    section4_comparison,
    speedup_sweep,
)


class TestSection4A:
    def test_published_totals(self):
        cmp_ = section4_comparison()
        assert cmp_.total(NetworkKind.MESH_2D) == pytest.approx(8e-6)
        assert cmp_.total(NetworkKind.HYPERCUBE) == pytest.approx(3.12e-6, rel=1e-2)
        assert cmp_.total(NetworkKind.HYPERMESH_2D) == pytest.approx(0.3e-6)

    def test_published_speedups(self):
        cmp_ = section4_comparison()
        assert cmp_.speedup_vs_mesh == pytest.approx(26.6, rel=5e-3)
        assert cmp_.speedup_vs_hypercube == pytest.approx(10.4, rel=1e-2)

    def test_without_bitrev(self):
        cmp_ = section4_comparison(include_bitrev=False)
        assert cmp_.speedup_vs_mesh == pytest.approx(26.6, rel=5e-3)
        assert cmp_.speedup_vs_hypercube == pytest.approx(6.5, rel=1e-2)


class TestSection4B:
    def test_propagation_delay_speedups(self):
        cmp_ = section4_comparison(propagation_delay=20e-9)
        assert cmp_.speedup_vs_mesh == pytest.approx(13.3, rel=5e-3)
        assert cmp_.speedup_vs_hypercube == pytest.approx(6.0, rel=1e-2)

    def test_mesh_not_charged_for_long_lines(self):
        without = section4_comparison()
        with_prop = section4_comparison(propagation_delay=20e-9)
        assert with_prop.total(NetworkKind.MESH_2D) == without.total(
            NetworkKind.MESH_2D
        )
        assert with_prop.total(NetworkKind.HYPERCUBE) > without.total(
            NetworkKind.HYPERCUBE
        )


    def test_propagation_delay_sweep(self):
        """0-100 ns line delays: the hypermesh keeps winning, and its lead
        over the mesh shrinks monotonically."""
        cmps = [section4_comparison(propagation_delay=d * 1e-9)
                for d in (0, 10, 20, 50, 100)]
        assert all(c.speedup_vs_mesh > 1 and c.speedup_vs_hypercube > 1
                   for c in cmps)
        speeds = [c.speedup_vs_mesh for c in cmps]
        assert speeds == sorted(speeds, reverse=True)


class TestSweep:
    def test_monotone_growth_vs_mesh(self):
        rows = speedup_sweep([4**k for k in range(2, 8)])
        mesh_speedups = [m for _, m, _ in rows]
        assert mesh_speedups == sorted(mesh_speedups)

    def test_monotone_growth_vs_hypercube(self):
        rows = speedup_sweep([4**k for k in range(2, 8)])
        hc_speedups = [h for _, _, h in rows]
        assert hc_speedups == sorted(hc_speedups)

    def test_asymptotic_shapes(self):
        # speedup_vs_mesh ~ c sqrt(N)/log N: ratio to that form converges.
        import math

        rows = speedup_sweep([4**k for k in range(3, 10)])
        shaped = [m / (math.sqrt(n) / math.log2(n)) for n, m, _ in rows]
        assert max(shaped) / min(shaped) < 1.6
        shaped_hc = [h / math.log2(n) for n, _, h in rows]
        assert max(shaped_hc) / min(shaped_hc) < 1.6

    def test_growth_shapes_up_to_a_million_pes(self):
        """The sweep of `repro sweep` (4^2..4^10): from N = 256 on, the
        speedups normalized by sqrt(N)/log N and log N stay in a 1.35x band."""
        import math

        rows = speedup_sweep([4**k for k in range(2, 11)])[2:]
        shaped_mesh = [m / (math.sqrt(n) / math.log2(n)) for n, m, _ in rows]
        shaped_cube = [h / math.log2(n) for n, _, h in rows]
        assert max(shaped_mesh) / min(shaped_mesh) < 1.35
        assert max(shaped_cube) / min(shaped_cube) < 1.35

    def test_contains_the_4k_point(self):
        rows = dict(
            (n, (m, h)) for n, m, h in speedup_sweep([4096])
        )
        m, h = rows[4096]
        assert m == pytest.approx(26.6, rel=5e-3)
        assert h == pytest.approx(10.4, rel=1e-2)


class TestBitonic:
    def test_hypercube_ratio_matches_13(self):
        cmp_ = bitonic_comparison()
        # [13] quotes 6.47; our normalization gives 6.5.
        assert cmp_.speedup_vs_hypercube == pytest.approx(6.5, rel=1e-2)

    def test_mesh_ratio_order_of_magnitude(self):
        cmp_ = bitonic_comparison()
        # [13] quotes 12.3 with its own mapping; ours lands ~20 (documented).
        assert 10 < cmp_.speedup_vs_mesh < 30

    def test_steps_4096(self):
        assert bitonic_steps(NetworkKind.HYPERMESH_2D, 4096) == 78
        assert bitonic_steps(NetworkKind.MESH_2D, 4096) == 618

    def test_steps_square_guard(self):
        with pytest.raises(ValueError):
            bitonic_steps(NetworkKind.MESH_2D, 32)

    def test_hypercube_works_on_any_power(self):
        assert bitonic_steps(NetworkKind.HYPERCUBE, 32) == 15


class TestTechnologyAblations:
    def test_bigger_packets_do_not_change_ratios(self):
        base = section4_comparison()
        big = section4_comparison(technology=GAAS_1992.with_packet_bits(512))
        assert big.speedup_vs_mesh == pytest.approx(base.speedup_vs_mesh)
        assert big.speedup_vs_hypercube == pytest.approx(base.speedup_vs_hypercube)

    def test_rounding_pins_down_helps_hypermesh(self):
        tech = Technology(round_pins_down=True)
        cmp_ = section4_comparison(technology=tech)
        base = section4_comparison()
        # Rounding hurts mesh (12.8 -> 12) and hypercube (4.92 -> 4) but not
        # the hypermesh (32 stays 32): speedups grow.
        assert cmp_.speedup_vs_mesh > base.speedup_vs_mesh
        assert cmp_.speedup_vs_hypercube > base.speedup_vs_hypercube

    def test_pe_port_convention(self):
        """D2: dropping the PE port (the KL/4 Table 1B prints) widens mesh
        links by 25%; the speedup shrinks by 4/5 but stays above 20x."""
        with_pe = section4_comparison(include_pe_port=True)
        without = section4_comparison(include_pe_port=False)
        assert without.speedup_vs_mesh == pytest.approx(
            with_pe.speedup_vs_mesh * 4 / 5
        )
        assert without.speedup_vs_mesh > 20

    def test_packet_size_sweep(self):
        """Speedups are packet-size invariant without line delay, and grow
        with packet size once a fixed 20 ns delay is charged."""
        plain, delayed = [], []
        for bits in (32, 128, 512, 2048):
            tech = GAAS_1992.with_packet_bits(bits)
            plain.append(section4_comparison(technology=tech).speedup_vs_mesh)
            delayed.append(section4_comparison(
                technology=tech, propagation_delay=20e-9
            ).speedup_vs_mesh)
        assert plain == pytest.approx([plain[0]] * 4)
        assert delayed == sorted(delayed)

    def test_crossbar_degree_invariance(self):
        """K only has to reach sqrt(N): the ratios do not depend on it."""
        base = section4_comparison(technology=Technology(crossbar_ports=64))
        for k in (128, 256):
            cmp_ = section4_comparison(technology=Technology(crossbar_ports=k))
            assert cmp_.speedup_vs_mesh == pytest.approx(base.speedup_vs_mesh)
            assert cmp_.speedup_vs_hypercube == pytest.approx(
                base.speedup_vs_hypercube
            )

    def test_step_convention(self):
        """D1/D5: the constructive (no wrap-around) mesh costs more than the
        paper charges it, so the hypermesh lead only grows."""
        from repro.models import StepConvention, fft_comm_time

        def total(kind, convention):
            return fft_comm_time(kind, 4096, GAAS_1992,
                                 convention=convention).total

        constructive = StepConvention.CONSTRUCTIVE
        assert total(NetworkKind.MESH_2D, constructive) > total(
            NetworkKind.MESH_2D, StepConvention.PAPER
        )
        assert total(NetworkKind.MESH_2D, constructive) / total(
            NetworkKind.HYPERMESH_2D, constructive
        ) > 26.6
