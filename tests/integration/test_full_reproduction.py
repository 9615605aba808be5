"""The whole paper in one test module: every headline quantity, regenerated
in a single pass and cross-checked between the analytical models and the
executed schedules.  If this file passes, EXPERIMENTS.md's summary table is
true."""

import numpy as np
import pytest

from repro.core import map_fft
from repro.core.complexity import NetworkKind
from repro.fft import parallel_fft
from repro.hardware import GAAS_1992, step_time
from repro.models import (
    bisection_ratios,
    bitonic_comparison,
    section4_comparison,
    speedup_sweep,
)
from repro.networks import Hypercube, Hypermesh2D, Mesh2D


@pytest.fixture(scope="module")
def executed_4k():
    """Execute the 4K-point FFT once on hypermesh and hypercube (numerics
    verified) and reuse the mappings across assertions."""
    rng = np.random.default_rng(1992)
    x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    expected = np.fft.fft(x)
    results = {}
    for topo in (Hypermesh2D(64), Hypercube(12)):
        result = parallel_fft(topo, x)
        assert np.allclose(result.spectrum, expected)
        results[type(topo).__name__] = result
    return results


class TestAbstract:
    """'the hypermesh is roughly a factor of 27 times faster than a 2D mesh
    and a factor of 10 time faster than a binary hypercube'"""

    def test_factor_27_and_10(self):
        cmp_ = section4_comparison()
        assert round(cmp_.speedup_vs_mesh) == 27
        assert round(cmp_.speedup_vs_hypercube) == 10

    def test_reduced_to_13_and_6_with_delays(self):
        cmp_ = section4_comparison(propagation_delay=20e-9)
        assert round(cmp_.speedup_vs_mesh) == 13
        assert round(cmp_.speedup_vs_hypercube) == 6


class TestExecutedStepCounts(object):
    """The analytical step counts, achieved by validated executions."""

    def test_hypermesh_15_steps(self, executed_4k):
        assert executed_4k["Hypermesh2D"].data_transfer_steps == 15

    def test_hypercube_24_steps(self, executed_4k):
        assert executed_4k["Hypercube"].data_transfer_steps == 24

    def test_computation_steps_log_n_everywhere(self, executed_4k):
        for result in executed_4k.values():
            assert result.computation_steps == 12

    def test_executed_times_match_equations(self, executed_4k):
        hm = executed_4k["Hypermesh2D"]
        t_hm = hm.data_transfer_steps * step_time(Hypermesh2D(64), GAAS_1992)
        assert t_hm == pytest.approx(0.3e-6)
        hc = executed_4k["Hypercube"]
        t_hc = hc.data_transfer_steps * step_time(Hypercube(12), GAAS_1992)
        assert t_hc == pytest.approx(3.12e-6, rel=1e-2)

    def test_mesh_executed_steps_exceed_paper_charge(self):
        # The paper charges the mesh optimistically (wrap-around bitrev);
        # our executed no-wrap mesh is *slower*: 252 steps vs charged 160.
        mapping = map_fft(Mesh2D(64))
        assert mapping.total_steps == 252
        assert mapping.total_steps > 160
        # Butterfly 2(sqrt N - 1); no-wrap bit reversal at least as long.
        assert mapping.butterfly_steps == 126
        assert mapping.bitrev_steps >= 126


class TestConclusionsSection:
    def test_log_n_minus_3_step_gap(self, executed_4k):
        gap = (
            executed_4k["Hypercube"].data_transfer_steps
            - executed_4k["Hypermesh2D"].data_transfer_steps
        )
        assert gap == 12 - 3  # "log N - 3 fewer data transfer steps"

    def test_asymptotic_factors(self):
        rows = speedup_sweep([4**k for k in range(2, 9)])
        mesh_s = [m for _, m, _ in rows]
        cube_s = [h for _, _, h in rows]
        assert mesh_s == sorted(mesh_s) and cube_s == sorted(cube_s)

    def test_bisection_explanation(self):
        r_mesh, r_hc = bisection_ratios(4096, GAAS_1992)
        assert r_mesh == pytest.approx(160.0)
        assert r_hc == pytest.approx(12.0)

    def test_bitonic_crosscheck(self):
        cmp_ = bitonic_comparison()
        assert cmp_.speedup_vs_hypercube == pytest.approx(6.5, abs=0.05)


class TestEveryScheduleValidates:
    """The reproduction's own invariant: nothing counted was unexecutable."""

    @pytest.mark.parametrize("side", [4, 8])
    def test_full_mappings_validate(self, side):
        n = side * side
        for topo in (Mesh2D(side), Hypercube(n.bit_length() - 1), Hypermesh2D(side)):
            map_fft(topo).validate()
