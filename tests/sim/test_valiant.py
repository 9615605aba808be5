"""Unit tests for two-phase randomized (Valiant-style) routing."""

import numpy as np
import pytest

from repro.networks import Hypercube, Hypermesh, Hypermesh2D, Mesh2D
from repro.routing import Permutation, bit_reversal, vector_reversal
from repro.sim import ScheduleError, route_two_phase


class TestCorrectness:
    def test_phases_compose_to_target(self, rng):
        perm = Permutation.random(16, rng)
        route = route_two_phase(Hypercube(4), perm, rng)
        assert route.phase1.schedule.logical == route.intermediate
        composed = route.intermediate.compose(route.phase2.schedule.logical)
        assert composed == perm

    def test_both_phases_validate(self, rng):
        route = route_two_phase(Mesh2D(4), bit_reversal(16), rng)
        route.phase1.schedule.validate()
        route.phase2.schedule.validate()

    def test_deterministic_with_seeded_rng(self):
        perm = bit_reversal(16)
        a = route_two_phase(Hypercube(4), perm, np.random.default_rng(3))
        b = route_two_phase(Hypercube(4), perm, np.random.default_rng(3))
        assert a.intermediate == b.intermediate
        assert a.total_steps == b.total_steps


class TestCost:
    def test_total_accounts_both_phases(self, rng):
        route = route_two_phase(Hypercube(4), vector_reversal(16), rng)
        assert route.total_steps == (
            route.phase1.stats.steps + route.phase2.stats.steps
        )
        assert route.total_hops == (
            route.phase1.stats.total_hops + route.phase2.stats.total_hops
        )

    def test_two_phase_bounded_on_hypercube(self, rng):
        # Each phase is a random(ized) permutation: expected steps near the
        # dimension; 4x is a generous determinism-safe bound.
        route = route_two_phase(Hypercube(6), bit_reversal(64), rng)
        assert route.total_steps <= 4 * 6

    def test_hypermesh_two_phase_stays_near_diameter(self, rng):
        route = route_two_phase(Hypermesh2D(8), bit_reversal(64), rng)
        # Each greedy phase costs ~diameter + small queueing.
        assert route.total_steps <= 30

    def test_degree_log_hypermesh_beats_hypercube_on_average(self):
        # The Section I motivation, measured: random permutations route in
        # fewer steps on the shallow degree-log hypermesh.
        rng = np.random.default_rng(0)
        n = 256
        cube_total = 0
        hm_total = 0
        hm = Hypermesh(16, 2)
        cube = Hypercube(8)
        for _ in range(5):
            perm = Permutation.random(n, rng)
            cube_total += route_two_phase(cube, perm, rng).total_steps
            hm_total += route_two_phase(hm, perm, rng).total_steps
        assert hm_total < cube_total


class TestGuards:
    def test_broken_composition_raises_schedule_error(self, monkeypatch):
        """A phase two that does not complete ``perm`` is refused with
        :class:`ScheduleError` — a raised check, which ``python -O``
        keeps."""
        monkeypatch.setattr(Permutation, "inverse", lambda self: self)
        with pytest.raises(ScheduleError, match="composition"):
            route_two_phase(
                Hypercube(4), bit_reversal(16), np.random.default_rng(3)
            )
