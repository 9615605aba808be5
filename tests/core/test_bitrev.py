"""Unit tests for the per-topology bit-reversal schedules."""

import pytest

from repro.core import (
    bit_reversal_schedule,
    hypercube_bit_reversal_schedule,
    hypermesh_bit_reversal_schedule,
    mesh_bit_reversal_schedule,
)
from repro.networks import Hypercube, Hypermesh, Hypermesh2D, Mesh2D, Torus2D
from repro.routing import bit_reversal


class TestHypercube:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_valid_and_logical(self, dim):
        cube = Hypercube(dim)
        sched = hypercube_bit_reversal_schedule(cube)
        sched.validate()
        assert sched.logical == bit_reversal(cube.num_nodes)

    @pytest.mark.parametrize("dim,expected", [(1, 0), (2, 2), (3, 2), (4, 4), (6, 6), (12, 12)])
    def test_step_count_is_two_floor_half(self, dim, expected):
        sched = hypercube_bit_reversal_schedule(Hypercube(dim))
        assert sched.num_steps == expected

    def test_even_dims_match_paper_log_n(self):
        # For the paper's 4K machine (n=12) the count equals log N exactly.
        assert hypercube_bit_reversal_schedule(Hypercube(12)).num_steps == 12

    def test_never_exceeds_log_n(self):
        for dim in range(1, 10):
            assert hypercube_bit_reversal_schedule(Hypercube(dim)).num_steps <= dim


class TestHypermesh:
    @pytest.mark.parametrize("side", [2, 4, 8, 64])
    def test_at_most_three_steps(self, side):
        hm = Hypermesh2D(side)
        sched = hypermesh_bit_reversal_schedule(hm)
        sched.validate()
        assert sched.num_steps <= 3
        assert sched.logical == bit_reversal(hm.num_nodes)

    def test_side_two_special_case(self):
        # 2x2: bit reversal swaps (0,1) with (1,0) — a transpose, <= 3 steps.
        sched = hypermesh_bit_reversal_schedule(Hypermesh2D(2))
        sched.validate()

    def test_non_power_of_two_side_rejected(self):
        with pytest.raises(ValueError):
            hypermesh_bit_reversal_schedule(Hypermesh2D(3))


class TestMesh:
    @pytest.mark.parametrize("side", [2, 4, 8])
    def test_valid_and_logical(self, side):
        mesh = Mesh2D(side)
        sched = mesh_bit_reversal_schedule(mesh)
        sched.validate()
        assert sched.logical == bit_reversal(mesh.num_nodes)

    @pytest.mark.parametrize("side", [4, 8])
    def test_steps_at_least_corner_interchange(self, side):
        sched = mesh_bit_reversal_schedule(Mesh2D(side))
        assert sched.num_steps >= 2 * (side - 1)

    def test_torus_beats_or_ties_mesh(self):
        mesh_steps = mesh_bit_reversal_schedule(Mesh2D(8)).num_steps
        torus_steps = mesh_bit_reversal_schedule(Torus2D(8)).num_steps
        assert torus_steps <= mesh_steps

    def test_torus_at_least_half_side(self):
        # Paper: with wrap-around, not less than sqrt(N)/2.
        sched = mesh_bit_reversal_schedule(Torus2D(8))
        assert sched.num_steps >= 4


class TestDispatch:
    def test_all_topologies(self):
        for topo in (Mesh2D(4), Torus2D(4), Hypercube(4), Hypermesh2D(4)):
            sched = bit_reversal_schedule(topo)
            sched.validate()
            assert sched.logical == bit_reversal(16)

    def test_general_hypermesh_adaptive(self):
        hm = Hypermesh(4, 3)  # 64 nodes, 3 dims
        sched = bit_reversal_schedule(hm)
        sched.validate()
        assert sched.logical == bit_reversal(64)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            bit_reversal_schedule(object())
