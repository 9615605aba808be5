"""Property-based tests (hypothesis) for the permutation algebra."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.routing import Permutation, is_permutation_array


def permutations(max_n: int = 64):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(n)))
    ).map(Permutation)


@given(permutations())
def test_inverse_composes_to_identity(p):
    assert p.compose(p.inverse()).is_identity()
    assert p.inverse().compose(p).is_identity()


@given(permutations())
def test_double_inverse_is_self(p):
    assert p.inverse().inverse() == p


@given(st.integers(1, 48).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(n))),
        st.permutations(list(range(n))),
        st.permutations(list(range(n))),
    )
))
def test_composition_associative(triple):
    a, b, c = (Permutation(x) for x in triple)
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@given(permutations())
def test_identity_is_neutral(p):
    e = Permutation.identity(p.n)
    assert p.compose(e) == p
    assert e.compose(p) == p


@given(st.integers(1, 48).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(n))), st.permutations(list(range(n)))
    )
))
def test_inverse_of_composition(pair):
    a, b = (Permutation(x) for x in pair)
    assert a.compose(b).inverse() == b.inverse().compose(a.inverse())


@given(permutations())
def test_cycles_partition_non_fixed_points(p):
    cycle_members = [x for cycle in p.cycles() for x in cycle]
    assert len(cycle_members) == len(set(cycle_members))
    assert sorted(cycle_members + p.fixed_points().tolist()) == list(range(p.n))


@given(permutations())
def test_apply_preserves_multiset(p):
    data = np.arange(p.n) * 10
    out = p.apply(data)
    assert sorted(out.tolist()) == sorted(data.tolist())


@given(permutations())
def test_apply_matches_index_semantics(p):
    data = np.arange(p.n)
    out = p.apply(data)
    for i in range(p.n):
        assert out[p[i]] == data[i]


@given(permutations())
def test_involution_iff_square_is_identity(p):
    assert p.is_involution() == p.compose(p).is_identity()


@given(st.integers(0, 6))
def test_bpc_family_closed_under_composition(width):
    from repro.routing import bit_permutation

    n = 1 << width
    rng = np.random.default_rng(width)
    src1 = rng.permutation(width).tolist()
    src2 = rng.permutation(width).tolist()
    p = bit_permutation(n, src1, int(rng.integers(n)))
    q = bit_permutation(n, src2, int(rng.integers(n)))
    assert p.compose(q).is_bpc()


@given(st.integers(1, 6), st.data())
def test_bpc_spec_roundtrip(width, data):
    from repro.routing import bit_permutation

    n = 1 << width
    sources = data.draw(st.permutations(list(range(width))))
    mask = data.draw(st.integers(0, n - 1))
    p = bit_permutation(n, sources, mask)
    spec = p.bpc_spec()
    assert spec is not None
    recovered_sources, recovered_mask = spec
    assert list(recovered_sources) == list(sources)
    assert recovered_mask == mask


# ---------------------------------------------------------------- validation
def reference_is_permutation_array(values):
    """Oracle: the sort/hash-based check, ``np.unique(arr).size == n``."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        return False
    if not np.issubdtype(arr.dtype, np.integer):
        return False
    n = arr.size
    if arr.min() < 0 or arr.max() >= n:
        return False
    return np.unique(arr).size == n


INTEGER_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]


@st.composite
def candidate_arrays(draw):
    """Permutations of ``0..n-1`` in every integer dtype, some with entries
    overwritten (duplicates, negatives, values >= n), plus bool and float
    arrays of the same values."""
    n = draw(st.integers(0, 40))
    values = draw(st.permutations(list(range(n))))
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        values[draw(st.integers(0, n - 1))] = draw(st.integers(-3, n + 3))
    dtype = draw(st.sampled_from(INTEGER_DTYPES + [np.bool_, np.float64, np.float32]))
    if np.issubdtype(dtype, np.unsignedinteger):
        values = [abs(v) for v in values]
    return np.array(values).astype(dtype)


@given(candidate_arrays())
def test_is_permutation_array_matches_unique_reference(arr):
    got = is_permutation_array(arr)
    assert type(got) is bool
    assert got == reference_is_permutation_array(arr)
    assert is_permutation_array(arr.tolist()) == reference_is_permutation_array(arr.tolist())


@given(candidate_arrays())
def test_permutation_accepts_exactly_the_valid_arrays(arr):
    if reference_is_permutation_array(arr):
        p = Permutation(arr)
        assert p.destinations.dtype == np.int64
        assert p.destinations.tolist() == arr.tolist()
    else:
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(arr)


@pytest.mark.parametrize(
    "values",
    [
        [0, 0, 2],  # duplicate; min and max still valid
        [2, 2, 0],
        [1, 1],
        [0, -1],
        [0, 2],  # value >= n
        [],
        np.zeros(0, dtype=np.int64),
        np.int64(0),  # 0-d
        np.array(0),
        np.array([[0, 1], [1, 0]]),  # 2-D
        np.array([[0]]),
        [True, False],
        np.array([False]),
        [0.0, 1.0],  # integral values, float dtype
        np.array([1.0, 0.0], dtype=np.float32),
        [0.7, 1.2],
    ],
)
def test_is_permutation_array_rejects(values):
    assert reference_is_permutation_array(values) is False
    assert is_permutation_array(values) is False


@pytest.mark.parametrize("dtype", INTEGER_DTYPES)
def test_is_permutation_array_accepts_every_integer_dtype(dtype):
    values = np.array([3, 0, 2, 1], dtype=dtype)
    assert reference_is_permutation_array(values)
    assert is_permutation_array(values) is True
    assert Permutation(values).destinations.tolist() == [3, 0, 2, 1]
