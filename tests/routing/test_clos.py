"""Unit tests for the hypermesh 3-step Clos routing."""

import numpy as np
import pytest

from repro.networks import Hypermesh2D
from repro.routing import (
    Permutation,
    bit_reversal,
    is_col_internal,
    is_row_internal,
    route_permutation_3step,
    vector_reversal,
)


def _check_route(perm: Permutation, side: int):
    route = route_permutation_3step(perm, Hypermesh2D(side))
    assert route.num_steps <= 3
    assert route.composed() == perm
    # Every phase must be net-internal: row- or column-internal.
    for phase in route.phases:
        assert is_row_internal(phase, side) or is_col_internal(phase, side)
    return route


class TestStructure:
    def test_identity_routes_in_one_trivial_phase(self):
        route = route_permutation_3step(Permutation.identity(16))
        assert route.num_steps == 1
        assert route.phases[0].is_identity()

    def test_row_internal_permutation_is_one_step(self):
        side = 4
        # Rotate every row left by one.
        dest = [(i // side) * side + (i % side + 1) % side for i in range(16)]
        route = _check_route(Permutation(dest), side)
        assert route.num_steps == 1

    def test_column_internal_permutation_two_steps_max(self):
        side = 4
        dest = [((i // side + 1) % side) * side + (i % side) for i in range(16)]
        route = _check_route(Permutation(dest), side)
        assert route.num_steps <= 2

    def test_bit_reversal_within_three(self):
        for side in (2, 4, 8):
            _check_route(bit_reversal(side * side), side)

    def test_vector_reversal_within_three(self):
        _check_route(vector_reversal(16), 4)

    def test_transpose_within_three(self):
        from repro.routing import matrix_transpose

        _check_route(matrix_transpose(4, 4), 4)

    def test_without_minimize_always_three(self):
        route = route_permutation_3step(Permutation.identity(16), minimize=False)
        assert route.num_steps == 3


class TestRandom:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_permutations(self, seed):
        side = 5
        rng = np.random.default_rng(seed)
        perm = Permutation.random(side * side, rng)
        _check_route(perm, side)

    def test_larger_instance(self):
        side = 16
        perm = Permutation.random(side * side, np.random.default_rng(0))
        _check_route(perm, side)

    def test_4096_point_machine(self):
        side = 64
        perm = Permutation.random(side * side, np.random.default_rng(99))
        _check_route(perm, side)


class TestValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            route_permutation_3step(Permutation.identity(8))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            route_permutation_3step(Permutation.identity(16), Hypermesh2D(3))

    def test_infers_hypermesh_from_size(self):
        route = route_permutation_3step(bit_reversal(16))
        assert route.composed() == bit_reversal(16)

    def test_is_row_internal_validates_size(self):
        with pytest.raises(ValueError):
            is_row_internal(Permutation.identity(8), 4)

    def test_empty_route_composed_raises(self):
        from repro.routing.clos import ClosRoute

        with pytest.raises(ValueError):
            ClosRoute(phases=()).composed()
