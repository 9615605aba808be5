"""Unit tests for the Permutation class."""

import numpy as np
import pytest

from repro.routing import Permutation, is_permutation_array


class TestValidation:
    def test_accepts_permutation(self):
        Permutation([2, 0, 1])

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 2])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Permutation([0, 1, 3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Permutation([])

    def test_rejects_float_input(self):
        # Casting first would truncate these to the identity [0, 1].
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation([0.7, 1.2])
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(np.array([1.0, 0.0]))

    def test_rejects_bool_input(self):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation([True, False])
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(np.array([False]))

    def test_narrow_integer_input_is_widened_and_copied(self):
        src = np.array([2, 0, 1], dtype=np.uint8)
        p = Permutation(src)
        assert p.destinations.dtype == np.int64
        src[0] = 0
        assert p.destinations.tolist() == [2, 0, 1]

    def test_int64_input_is_copied(self):
        src = np.array([1, 0], dtype=np.int64)
        p = Permutation(src)
        src[:] = 0
        assert p.destinations.tolist() == [1, 0]

    def test_is_permutation_array(self):
        assert is_permutation_array([1, 0, 2])
        assert not is_permutation_array([1, 1, 2])
        assert not is_permutation_array([0.5, 1.5])  # non-integer dtype
        assert not is_permutation_array(np.zeros((2, 2), dtype=int))

    def test_destinations_read_only(self):
        p = Permutation([1, 0])
        with pytest.raises(ValueError):
            p.destinations[0] = 0


class TestConstructors:
    def test_identity(self):
        assert Permutation.identity(4).is_identity()

    def test_from_mapping_partial(self):
        p = Permutation.from_mapping({0: 1, 1: 0}, 4)
        assert p[0] == 1 and p[1] == 0 and p[2] == 2 and p[3] == 3

    def test_from_mapping_validates(self):
        with pytest.raises(ValueError):
            Permutation.from_mapping({0: 1}, 4)  # 1 is duplicated
        with pytest.raises(ValueError):
            Permutation.from_mapping({5: 0}, 4)

    def test_random_is_valid(self, rng):
        p = Permutation.random(32, rng)
        assert is_permutation_array(p.destinations)

    def test_random_deterministic_with_seed(self):
        a = Permutation.random(16, np.random.default_rng(7))
        b = Permutation.random(16, np.random.default_rng(7))
        assert a == b

    def test_from_cycles(self):
        p = Permutation.from_cycles([[0, 1, 2]], 4)
        assert p[0] == 1 and p[1] == 2 and p[2] == 0 and p[3] == 3

    def test_from_cycles_rejects_overlap(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles([[0, 1], [1, 2]], 4)


class TestAlgebra:
    def test_inverse_roundtrip(self, rng):
        p = Permutation.random(20, rng)
        assert p.compose(p.inverse()).is_identity()
        assert p.inverse().compose(p).is_identity()

    def test_compose_order(self):
        # First rotate left, then swap 0<->1.
        rot = Permutation([1, 2, 0])
        swap = Permutation([1, 0, 2])
        composed = rot.compose(swap)
        # Packet at 0: rot -> 1, swap -> 0.
        assert composed[0] == 0
        assert composed[1] == 2
        assert composed[2] == 1

    def test_mul_operator(self):
        a = Permutation([1, 0, 2])
        b = Permutation([0, 2, 1])
        assert (a * b) == a.compose(b)

    def test_compose_size_mismatch(self):
        with pytest.raises(ValueError):
            Permutation([1, 0]).compose(Permutation([0, 1, 2]))

    def test_equality_and_hash(self):
        a = Permutation([1, 0])
        b = Permutation([1, 0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Permutation([0, 1])

    def test_len_and_getitem(self):
        p = Permutation([2, 0, 1])
        assert len(p) == 3
        assert p[0] == 2


class TestPredicates:
    def test_involution(self):
        assert Permutation([1, 0, 3, 2]).is_involution()
        assert not Permutation([1, 2, 0]).is_involution()

    def test_fixed_points(self):
        p = Permutation([0, 2, 1, 3])
        assert p.fixed_points().tolist() == [0, 3]

    def test_cycles(self):
        p = Permutation([1, 0, 3, 4, 2])
        cycles = p.cycles()
        assert sorted(map(len, cycles)) == [2, 3]

    def test_cycles_of_identity_empty(self):
        assert Permutation.identity(5).cycles() == []


class TestBpc:
    def test_bit_reversal_is_bpc(self):
        from repro.routing import bit_reversal

        p = bit_reversal(16)
        spec = p.bpc_spec()
        assert spec is not None
        sources, mask = spec
        assert mask == 0
        assert list(sources) == [3, 2, 1, 0]

    def test_vector_reversal_is_bpc_with_full_mask(self):
        from repro.routing import vector_reversal

        spec = vector_reversal(8).bpc_spec()
        assert spec is not None
        assert spec[1] == 7

    def test_butterfly_is_bpc(self):
        from repro.routing import butterfly_exchange

        spec = butterfly_exchange(16, 2).bpc_spec()
        assert spec is not None
        assert spec[0] == (0, 1, 2, 3)
        assert spec[1] == 4

    def test_random_generally_not_bpc(self):
        # A 3-cycle on 8 points is not affine over GF(2).
        p = Permutation.from_cycles([[0, 1, 2]], 8)
        assert not p.is_bpc()

    def test_non_power_of_two_not_bpc(self):
        assert Permutation([1, 2, 0]).bpc_spec() is None

    def test_identity_is_bpc(self):
        spec = Permutation.identity(8).bpc_spec()
        assert spec == ((0, 1, 2), 0)


class TestApply:
    def test_apply_moves_data(self):
        p = Permutation([2, 0, 1])
        out = p.apply(np.array([10.0, 20.0, 30.0]))
        # datum at 0 goes to position 2, etc.
        assert out.tolist() == [20.0, 30.0, 10.0]

    def test_apply_axis(self):
        p = Permutation([1, 0])
        data = np.arange(6).reshape(2, 3)
        out = p.apply(data, axis=0)
        assert out.tolist() == [[3, 4, 5], [0, 1, 2]]

    def test_apply_then_inverse_is_noop(self, rng):
        p = Permutation.random(16, rng)
        data = rng.normal(size=16)
        assert np.allclose(p.inverse().apply(p.apply(data)), data)

    def test_apply_validates_length(self):
        with pytest.raises(ValueError):
            Permutation([1, 0]).apply(np.zeros(3))
