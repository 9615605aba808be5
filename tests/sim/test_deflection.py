"""Unit tests for deflection (hot-potato) routing."""

import numpy as np
import pytest

from repro.networks import Hypercube, Hypermesh2D, Mesh2D, Torus2D
from repro.routing import Permutation, bit_reversal, vector_reversal
from repro.sim.deflection import route_deflection


class TestDelivery:
    @pytest.mark.parametrize(
        "topo", [Torus2D(4), Hypercube(4), Mesh2D(4)], ids=lambda t: type(t).__name__
    )
    def test_random_permutations_delivered_and_valid(self, topo, rng):
        perm = Permutation.random(16, rng)
        result = route_deflection(topo, perm)
        result.schedule.validate()
        assert result.schedule.logical == perm

    def test_identity_costs_nothing(self):
        result = route_deflection(Torus2D(4), Permutation.identity(16))
        assert result.steps == 0
        assert result.total_hops == 0
        assert result.efficiency == 1.0

    def test_bit_reversal_on_torus(self):
        result = route_deflection(Torus2D(8), bit_reversal(64))
        result.schedule.validate()
        assert result.steps >= 4  # at least the wrap-around distance bound

    def test_vector_reversal_on_hypercube(self):
        result = route_deflection(Hypercube(6), vector_reversal(64))
        result.schedule.validate()
        assert result.steps >= 6  # antipodal distance


class TestDeflectionBehaviour:
    def test_conflicts_cause_deflections(self):
        # Two packets converging on the same node from symmetric positions
        # must share links: some deflection is expected on the small torus.
        result = route_deflection(Torus2D(4), bit_reversal(16))
        assert result.deflections >= 1
        assert result.efficiency < 1.0

    def test_efficiency_one_when_no_deflection(self):
        perm = Permutation.from_mapping({0: 1, 1: 0}, 16)
        result = route_deflection(Torus2D(4), perm)
        assert result.deflections == 0
        assert result.efficiency == 1.0

    def test_hops_at_least_minimal(self, rng):
        topo = Hypercube(5)
        perm = Permutation.random(32, rng)
        result = route_deflection(topo, perm)
        minimal = sum(topo.distance(i, perm[i]) for i in range(32))
        assert result.total_hops >= minimal

    def test_bufferless_invariant(self, rng):
        # Every resident packet moves every step: moves per step never
        # exceeds N and equals the number of in-flight packets.
        perm = Permutation.random(16, rng)
        result = route_deflection(Torus2D(4), perm)
        assert all(m >= 1 for m in result.per_step_moves)


class TestAgainstStoreAndForward:
    """Reference [3]'s comparison on the FFT's closing bit reversal."""

    @pytest.mark.parametrize(
        "topo", [Torus2D(8), Hypercube(6)], ids=lambda t: type(t).__name__
    )
    def test_bit_reversal_never_fewer_hops(self, topo):
        from repro.sim import route_permutation

        buffered = route_permutation(topo, bit_reversal(64))
        deflected = route_deflection(topo, bit_reversal(64))
        buffered.schedule.validate()
        deflected.schedule.validate()
        assert deflected.total_hops >= buffered.stats.total_hops
        assert deflected.steps >= 1 and buffered.stats.steps >= 1

    def test_random_permutations_stay_efficient(self):
        rng = np.random.default_rng(0)
        efficiencies = [
            route_deflection(Torus2D(8), Permutation.random(64, rng)).efficiency
            for _ in range(5)
        ]
        assert min(efficiencies) > 0.5


class TestGuards:
    def test_hypergraph_rejected(self):
        with pytest.raises(TypeError):
            route_deflection(Hypermesh2D(4), Permutation.identity(16))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            route_deflection(Torus2D(4), Permutation.identity(9))

    def test_max_steps_guard(self):
        from repro.sim.schedule import ScheduleError

        with pytest.raises(ScheduleError):
            route_deflection(Torus2D(4), bit_reversal(16), max_steps=1)
