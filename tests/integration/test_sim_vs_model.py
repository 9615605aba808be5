"""Cross-validation: executable schedules versus closed-form step counts.

The paper's Table 2A is analytical; this repository also *executes* every
count.  These tests assert the two agree (or bound each other in the
direction the paper claims) across machine sizes.
"""

import numpy as np
import pytest

from repro.core import NetworkKind, fft_step_counts, map_fft
from repro.fft import parallel_fft
from repro.models import StepConvention, fft_steps
from repro.networks import Hypercube, Hypermesh2D, Mesh2D, Torus2D


SIZES = [4, 16, 64, 256]


class TestHypercube:
    @pytest.mark.parametrize("n", SIZES)
    def test_butterfly_exact(self, n):
        mapping = map_fft(Hypercube(n.bit_length() - 1))
        counts = fft_step_counts(NetworkKind.HYPERCUBE, n)
        assert mapping.butterfly_steps == counts.butterfly_steps

    @pytest.mark.parametrize("n", SIZES)
    def test_total_matches_constructive_model(self, n):
        mapping = map_fft(Hypercube(n.bit_length() - 1))
        assert mapping.total_steps == fft_steps(
            NetworkKind.HYPERCUBE, n, convention=StepConvention.CONSTRUCTIVE
        )


class TestHypermesh:
    @pytest.mark.parametrize("n", SIZES)
    def test_total_within_paper_bound(self, n):
        side = int(round(n**0.5))
        mapping = map_fft(Hypermesh2D(side))
        counts = fft_step_counts(NetworkKind.HYPERMESH_2D, n)
        assert mapping.total_steps <= counts.total_steps
        assert mapping.butterfly_steps == counts.butterfly_steps

    @pytest.mark.parametrize("n", SIZES)
    def test_bitrev_at_most_three(self, n):
        side = int(round(n**0.5))
        mapping = map_fft(Hypermesh2D(side))
        assert mapping.bitrev_steps <= 3


class TestMesh:
    @pytest.mark.parametrize("n", SIZES)
    def test_butterfly_exact(self, n):
        side = int(round(n**0.5))
        mapping = map_fft(Mesh2D(side), include_bit_reversal=False)
        counts = fft_step_counts(NetworkKind.MESH_2D, n)
        assert mapping.butterfly_steps == counts.butterfly_steps

    @pytest.mark.parametrize("n", SIZES)
    def test_measured_bitrev_meets_lower_bound(self, n):
        side = int(round(n**0.5))
        mapping = map_fft(Mesh2D(side))
        assert mapping.bitrev_steps >= 2 * (side - 1)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_measured_bitrev_meets_torus_bound(self, n):
        side = int(round(n**0.5))
        mapping = map_fft(Torus2D(side))
        assert mapping.bitrev_steps >= side / 2


class TestOrdering:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_measured_ordering_matches_paper(self, n):
        """Who wins, in executed steps: hypermesh < hypercube < mesh."""
        side = int(round(n**0.5))
        hm = map_fft(Hypermesh2D(side)).total_steps
        hc = map_fft(Hypercube(n.bit_length() - 1)).total_steps
        mesh = map_fft(Mesh2D(side)).total_steps
        assert hm < hc < mesh

    def test_4096_measured_totals(self):
        """The 4K data point, fully executed and validated."""
        hm = map_fft(Hypermesh2D(64))
        hc = map_fft(Hypercube(12))
        assert hm.total_steps == 15
        assert hc.total_steps == 24


class TestExecutedNumerics:
    """The numerical FFT (data moved, twiddles applied, checked against
    numpy) takes exactly the step counts the model predicts."""

    @staticmethod
    def _steps(topo, rng):
        x = rng.normal(size=topo.num_nodes) + 1j * rng.normal(size=topo.num_nodes)
        result = parallel_fft(topo, x)
        assert np.allclose(result.spectrum, np.fft.fft(x))
        return result.data_transfer_steps

    def test_hypercube_equals_constructive_model(self, rng):
        for d in (2, 4, 6, 8, 10):
            assert self._steps(Hypercube(d), rng) == fft_steps(
                NetworkKind.HYPERCUBE, 1 << d,
                convention=StepConvention.CONSTRUCTIVE,
            )

    def test_hypermesh_within_bound_and_tight_at_1024(self, rng):
        measured = {s * s: self._steps(Hypermesh2D(s), rng)
                    for s in (2, 4, 8, 16, 32)}
        for n, steps in measured.items():
            assert steps <= fft_steps(NetworkKind.HYPERMESH_2D, n)
        assert measured[1024] == 13
