"""Unit tests for the wafer-scale caveat model."""

import pytest

from repro.models.wafer import crossover_size, wafer_fft_comparison


class TestWaferRegime:
    def test_mesh_wins_under_dally_assumptions(self):
        """Equal bisection wiring + wire-length propagation: the mesh beats
        the hypermesh — the excluded scenario, confirmed."""
        for k in range(2, 9):
            t = wafer_fft_comparison(4**k)
            assert t.hypermesh_speedup < 1.0

    def test_gap_widens_with_size(self):
        speedups = [wafer_fft_comparison(4**k).hypermesh_speedup for k in range(2, 8)]
        assert speedups == sorted(speedups, reverse=True)

    def test_crossover_is_immediate(self):
        assert crossover_size() == 16


class TestDiscreteRegime:
    def test_hypermesh_wins_without_wafer_constraints(self):
        """Full-width wires and negligible propagation: the paper's
        discrete-component conclusion falls out of the same model."""
        t = wafer_fft_comparison(
            4096, propagation_per_unit=0.0, equal_bisection_wiring=False
        )
        assert t.hypermesh_speedup > 10
        # Exactly the step-count ratio: 160 / 15.
        assert t.hypermesh_speedup == pytest.approx(160 / 15)

    def test_mild_propagation_shrinks_but_does_not_flip(self):
        # ~1% of a packet time per unit length (realistic off-wafer lines):
        # the hypermesh keeps a healthy margin, like Section IV-B's 13.3x.
        t = wafer_fft_comparison(
            4096, propagation_per_unit=0.01, equal_bisection_wiring=False
        )
        assert 1.0 < t.hypermesh_speedup < 160 / 15

    def test_heavy_propagation_alone_can_flip_at_scale(self):
        # At 20% of a packet time per unit, the sqrt(N)-long nets lose at
        # 4K even with full-width wires — long wires are the real enemy.
        t = wafer_fft_comparison(
            4096, propagation_per_unit=0.2, equal_bisection_wiring=False
        )
        assert t.hypermesh_speedup < 1.0

    def test_no_crossover_without_wiring_penalty(self):
        assert (
            crossover_size(propagation_per_unit=0.0) == 16
        )  # default wiring penalty still flips it immediately
        # but with the penalty off, the hypermesh wins everywhere:
        from repro.models.wafer import wafer_fft_comparison as cmp_

        for k in range(2, 10):
            t = cmp_(4**k, propagation_per_unit=0.0, equal_bisection_wiring=False)
            assert t.hypermesh_speedup > 1.0


class TestValidation:
    def test_odd_log_n_rejected(self):
        with pytest.raises(ValueError):
            wafer_fft_comparison(32)
