"""Unit tests for the blocked parallel FFT (N samples on P < N PEs)."""

import numpy as np
import pytest

from repro.fft import blocked_fft, blocked_fft_step_model
from repro.networks import Hypercube, Hypermesh2D, Mesh2D


TOPOLOGIES_16 = [Mesh2D(4), Hypercube(4), Hypermesh2D(4)]


class TestCorrectness:
    @pytest.mark.parametrize("topo", TOPOLOGIES_16, ids=lambda t: type(t).__name__)
    @pytest.mark.parametrize("m", [1, 2, 4, 16])
    def test_matches_numpy(self, topo, m, rng):
        n = 16 * m
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        result = blocked_fft(topo, x, validate=True)
        assert np.allclose(result.spectrum, np.fft.fft(x))

    def test_without_bitrev_gives_bit_reversed(self, rng):
        from repro.networks.addressing import bit_reversal_permutation

        x = rng.normal(size=64)
        result = blocked_fft(Hypercube(4), x, include_bit_reversal=False)
        perm = bit_reversal_permutation(64)
        assert np.allclose(result.spectrum[perm], np.fft.fft(x))

    def test_large_block(self, rng):
        x = rng.normal(size=1024) + 1j * rng.normal(size=1024)
        result = blocked_fft(Hypermesh2D(4), x)
        assert np.allclose(result.spectrum, np.fft.fft(x))
        assert result.block_size == 64


class TestStructure:
    def test_stage_split(self, rng):
        result = blocked_fft(Hypercube(4), np.zeros(256))
        assert result.remote_stages == 4
        assert result.local_stages == 4
        assert result.num_pes == 16
        assert result.block_size == 16

    def test_reduces_to_unblocked_at_n_equals_p(self):
        result = blocked_fft(Hypermesh2D(4), np.zeros(16))
        assert result.block_size == 1
        assert result.local_stages == 0
        assert result.butterfly_steps == 4  # log N, m - 1 = 0
        assert result.bitrev_steps <= 3

    def test_sample_count_must_block(self):
        with pytest.raises(ValueError):
            blocked_fft(Hypercube(4), np.zeros(24))

    def test_2d_samples_rejected(self):
        with pytest.raises(ValueError):
            blocked_fft(Hypercube(2), np.zeros((2, 4)))


class TestStepAccounting:
    def test_butterfly_steps_hypercube(self):
        # remote stages x (1 + m - 1) = p_bits * m.
        result = blocked_fft(Hypercube(4), np.zeros(256))
        assert result.butterfly_steps == 4 * 16

    def test_butterfly_steps_match_model(self):
        for topo in TOPOLOGIES_16:
            measured = blocked_fft(topo, np.zeros(256))
            model = blocked_fft_step_model(topo, 256)
            assert measured.butterfly_steps == model["butterfly_steps"]

    def test_hypermesh_bitrev_within_3m_bound(self):
        result = blocked_fft(Hypermesh2D(4), np.zeros(256))
        model = blocked_fft_step_model(Hypermesh2D(4), 256)
        assert result.bitrev_steps <= model["bitrev_steps_hypermesh_bound"]

    def test_bitrev_rounds_at_most_m(self):
        result = blocked_fft(Hypercube(4), np.zeros(256))
        assert result.bitrev_rounds <= result.block_size

    def test_total_is_sum(self):
        result = blocked_fft(Mesh2D(4), np.zeros(64))
        assert result.total_steps == result.butterfly_steps + result.bitrev_steps

    def test_hypermesh_wins_blocked_too(self):
        """The paper's ordering survives blocking."""
        totals = {
            type(t).__name__: blocked_fft(t, np.zeros(256)).total_steps
            for t in TOPOLOGIES_16
        }
        assert totals["Hypermesh2D"] < totals["Hypercube"] < totals["Mesh2D"]


    def test_4096_samples_on_256_pes(self, rng):
        """Block size 16: the numerics hold and the paper's ordering
        (hypermesh < hypercube < mesh, in steps) survives blocking."""
        x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        expected = np.fft.fft(x)
        totals = {}
        for topo in (Mesh2D(16), Hypercube(8), Hypermesh2D(16)):
            result = blocked_fft(topo, x)
            assert np.allclose(result.spectrum, expected)
            totals[type(topo).__name__] = result.total_steps
        assert totals["Hypermesh2D"] < totals["Hypercube"] < totals["Mesh2D"]

    @pytest.mark.parametrize("m", [1, 4, 16, 64])
    def test_hypermesh_64_pes_bitrev_within_3m(self, m, rng):
        x = rng.normal(size=64 * m)
        result = blocked_fft(Hypermesh2D(8), x)
        assert np.allclose(result.spectrum, np.fft.fft(x))
        assert result.bitrev_steps <= 3 * m

    def test_direct_h_relation_undercuts_round_plan(self):
        """Routing the blocked bit-reversal m-relation (m = 16 on 64 PEs)
        in one engine run pipelines across rounds: it takes no more steps
        than the round-by-round Clos plan."""
        from repro.networks.addressing import bit_reversal_permutation
        from repro.sim import route_demands

        side, m = 8, 16
        n = side * side * m
        idx = np.arange(n)
        demands = [
            (int(s), int(d))
            for s, d in zip(idx // m, bit_reversal_permutation(n) // m)
            if s != d
        ]
        hm = Hypermesh2D(side)
        direct = route_demands(hm, demands).stats.steps
        assert direct <= blocked_fft(hm, np.zeros(n)).bitrev_steps


class TestModel:
    def test_model_validates_blocking(self):
        with pytest.raises(ValueError):
            blocked_fft_step_model(Hypercube(4), 24)

    def test_model_fields(self):
        model = blocked_fft_step_model(Mesh2D(4), 64)
        assert model["block_size"] == 4
        assert model["remote_stages"] == 4
        assert model["local_stages"] == 2
