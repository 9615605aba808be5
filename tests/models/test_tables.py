"""Unit tests for the table regeneration."""

import pytest

from repro.hardware import GAAS_1992
from repro.models import table_1a, table_1b, table_2a, table_2b


class TestTable1A:
    def test_row_networks(self):
        rows = table_1a(4096)
        assert [r["network"] for r in rows][:3] == [
            "2D mesh",
            "2D hypermesh",
            "hypercube",
        ]

    def test_crossbar_counts(self):
        rows = {r["network"]: r for r in table_1a(4096)}
        assert rows["2D mesh"]["crossbars"] == 4096
        assert rows["2D hypermesh"]["crossbars"] == 128
        assert rows["hypercube"]["crossbars"] == 4096

    def test_diameters(self):
        rows = {r["network"]: r for r in table_1a(4096)}
        assert rows["2D mesh"]["diameter"] == 126
        assert rows["2D hypermesh"]["diameter"] == 2
        assert rows["hypercube"]["diameter"] == 12

    def test_degree_log_row_present(self):
        rows = table_1a(4096)
        assert len(rows) == 4
        dl = rows[3]
        assert dl["degree"] >= 12  # net size >= log N

    def test_square_guard(self):
        with pytest.raises(ValueError):
            table_1a(32)


class TestTable1B:
    def test_link_bandwidths(self):
        rows = {r["network"]: r for r in table_1b(4096)}
        assert rows["2D mesh"]["link_bw"] == pytest.approx(2.56e9)
        assert rows["2D hypermesh"]["link_bw"] == pytest.approx(6.4e9)
        assert rows["hypercube"]["link_bw"] == pytest.approx(0.985e9, rel=1e-3)

    def test_paper_printed_variants(self):
        kl = GAAS_1992.aggregate_crossbar_bandwidth
        rows = {r["network"]: r for r in table_1b(4096)}
        assert rows["2D mesh"]["link_bw_paper"] == pytest.approx(kl / 4)
        assert rows["hypercube"]["link_bw_paper"] == pytest.approx(kl / 12)

    def test_d_over_bw_strings(self):
        rows = {r["network"]: r for r in table_1b(4096)}
        assert "sqrt" in rows["2D mesh"]["d_over_bw"]
        assert "log^2" in rows["hypercube"]["d_over_bw"]


class TestTable2A:
    def test_totals(self):
        rows = {r["network"]: r for r in table_2a(4096)}
        assert rows["2D mesh"]["total_steps"] == pytest.approx(158)
        assert rows["hypercube"]["total_steps"] == 24
        assert rows["2D hypermesh"]["total_steps"] == 15

    def test_bitrev_bounds(self):
        rows = {r["network"]: r for r in table_2a(4096)}
        assert rows["hypercube"]["bitrev_bound"] == ">="
        assert rows["2D hypermesh"]["bitrev_bound"] == "<="


class TestTable2B:
    def test_comm_times(self):
        rows = {r["network"]: r for r in table_2b(4096)}
        assert rows["2D mesh"]["comm_time"] == pytest.approx(8e-6)
        assert rows["hypercube"]["comm_time"] == pytest.approx(3.12e-6, rel=1e-2)
        assert rows["2D hypermesh"]["comm_time"] == pytest.approx(0.3e-6)

    def test_asymptotic_strings(self):
        rows = {r["network"]: r for r in table_2b(4096)}
        assert rows["2D hypermesh"]["time_formula"] == "O(log N/KL)"

    def test_comm_time_growth_shapes(self):
        """T_comm grows as O(sqrt N), O(log^2 N) and O(log N) over KL:
        normalized by its form, each series stays in a 2x band."""
        import math

        data = [
            (4**k, {r["network"]: r["comm_time"] for r in table_2b(4**k)})
            for k in range(2, 7)
        ]
        mesh = [r["2D mesh"] / math.sqrt(n) for n, r in data]
        hypermesh = [r["2D hypermesh"] / math.log2(n) for n, r in data]
        cube = [r["hypercube"] / math.log2(n) ** 2 for n, r in data]
        for series in (mesh, hypermesh, cube):
            assert max(series) / min(series) < 2.0
