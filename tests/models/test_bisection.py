"""Unit tests for the Section V bisection-bandwidth model."""

import pytest

from repro.core.complexity import NetworkKind
from repro.hardware import GAAS_1992
from repro.models import (
    bisection_bandwidth_formula,
    bisection_ratios,
    computed_bisection_bandwidth,
)
from repro.networks import Hypercube, Hypermesh2D, Mesh2D


KL = GAAS_1992.aggregate_crossbar_bandwidth


class TestFormulas:
    def test_mesh_paper(self):
        bb = bisection_bandwidth_formula(
            NetworkKind.MESH_2D, 4096, GAAS_1992, paper_convention=True
        )
        assert bb.total == pytest.approx(64 * KL / 5)

    def test_hypercube_paper(self):
        bb = bisection_bandwidth_formula(
            NetworkKind.HYPERCUBE, 4096, GAAS_1992, paper_convention=True
        )
        assert bb.total == pytest.approx(2048 * KL / 12)

    def test_hypermesh_paper(self):
        bb = bisection_bandwidth_formula(
            NetworkKind.HYPERMESH_2D, 4096, GAAS_1992, paper_convention=True
        )
        assert bb.total == pytest.approx(4096 * KL / 2)

    def test_hypermesh_port_convention_half_of_paper(self):
        paper = bisection_bandwidth_formula(
            NetworkKind.HYPERMESH_2D, 4096, GAAS_1992, paper_convention=True
        )
        ports = bisection_bandwidth_formula(
            NetworkKind.HYPERMESH_2D, 4096, GAAS_1992
        )
        assert ports.total == pytest.approx(paper.total / 2)

    def test_hypercube_port_convention_uses_pe_port_divisor(self):
        bb = bisection_bandwidth_formula(NetworkKind.HYPERCUBE, 4096, GAAS_1992)
        assert bb.total == pytest.approx(2048 * KL / 13)

    def test_square_guard(self):
        with pytest.raises(ValueError):
            bisection_bandwidth_formula(NetworkKind.MESH_2D, 32, GAAS_1992)


class TestRatios:
    def test_paper_ratios_4096(self):
        r_mesh, r_hc = bisection_ratios(4096, GAAS_1992)
        assert r_mesh == pytest.approx(2.5 * 64)  # 2.5 sqrt(N)
        assert r_hc == pytest.approx(12)  # log N

    @pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096, 16384, 65536])
    def test_asymptotic_shapes(self, n):
        import math

        r_mesh, r_hc = bisection_ratios(n, GAAS_1992)
        assert r_mesh == pytest.approx(2.5 * math.sqrt(n))
        assert r_hc == pytest.approx(math.log2(n))


class TestComputedAgainstFormula:
    @pytest.mark.parametrize("side", [4, 8])
    def test_mesh(self, side):
        n = side * side
        computed = computed_bisection_bandwidth(Mesh2D(side), GAAS_1992)
        formula = bisection_bandwidth_formula(NetworkKind.MESH_2D, n, GAAS_1992)
        assert computed == pytest.approx(formula.total)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_hypercube(self, dim):
        computed = computed_bisection_bandwidth(Hypercube(dim), GAAS_1992)
        formula = bisection_bandwidth_formula(
            NetworkKind.HYPERCUBE, 1 << dim, GAAS_1992
        )
        assert computed == pytest.approx(formula.total)

    @pytest.mark.parametrize("side", [4, 8])
    def test_hypermesh_port_convention(self, side):
        n = side * side
        computed = computed_bisection_bandwidth(Hypermesh2D(side), GAAS_1992)
        formula = bisection_bandwidth_formula(NetworkKind.HYPERMESH_2D, n, GAAS_1992)
        assert computed == pytest.approx(formula.total)

    def test_hypermesh_dominates_at_equal_cost(self):
        # The Section V point, on instances: same aggregate bandwidth, very
        # different bisection.
        mesh = computed_bisection_bandwidth(Mesh2D(8), GAAS_1992)
        cube = computed_bisection_bandwidth(Hypercube(6), GAAS_1992)
        hm = computed_bisection_bandwidth(Hypermesh2D(8), GAAS_1992)
        assert hm > cube > mesh
