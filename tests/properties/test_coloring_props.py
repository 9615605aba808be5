"""Property-based tests for bipartite edge coloring (König optimality)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import (
    Permutation,
    bipartite_edge_coloring,
    bit_reversal,
    matrix_transpose,
    validate_edge_coloring,
)


def reference_edge_coloring(num_left, num_right, edges):
    """Oracle: the Kempe-chain loop on NumPy 2-D color tables.

    The same algorithm as :func:`repro.routing.bipartite_edge_coloring`
    (insertion order, lowest free color, path walk, two-phase flip), written
    with NumPy tables and one ``np.flatnonzero`` per lookup.  Its output pins
    the library's colorings exactly.
    """
    if num_left < 0 or num_right < 0:
        raise ValueError("vertex-class sizes cannot be negative")

    degree_left = np.zeros(num_left, dtype=np.int64)
    degree_right = np.zeros(num_right, dtype=np.int64)
    for u, v in edges:
        if not 0 <= u < num_left:
            raise ValueError(f"left vertex {u} out of range [0, {num_left})")
        if not 0 <= v < num_right:
            raise ValueError(f"right vertex {v} out of range [0, {num_right})")
        degree_left[u] += 1
        degree_right[v] += 1

    if not edges:
        return np.zeros(0, dtype=np.int64), 0

    delta = int(max(degree_left.max(initial=0), degree_right.max(initial=0)))

    no_edge = -1
    left_at = np.full((num_left, delta), no_edge, dtype=np.int64)
    right_at = np.full((num_right, delta), no_edge, dtype=np.int64)
    colors = np.full(len(edges), no_edge, dtype=np.int64)

    def first_free(table_row):
        return int(np.flatnonzero(table_row == no_edge)[0])

    for eid, (u, v) in enumerate(edges):
        a = first_free(left_at[u])
        b = first_free(right_at[v])
        if a != b:
            path = []
            side_right = True
            vertex = v
            want = a
            while True:
                table = right_at if side_right else left_at
                edge = int(table[vertex, want])
                if edge == no_edge:
                    break
                path.append(edge)
                eu, ev = edges[edge]
                vertex = eu if side_right else ev
                side_right = not side_right
                want = a if want == b else b
            for edge in path:
                eu, ev = edges[edge]
                left_at[eu, colors[edge]] = no_edge
                right_at[ev, colors[edge]] = no_edge
            for edge in path:
                colors[edge] = a if colors[edge] == b else b
                eu, ev = edges[edge]
                left_at[eu, colors[edge]] = edge
                right_at[ev, colors[edge]] = edge
        colors[eid] = a
        left_at[u, a] = eid
        right_at[v, a] = eid

    return colors, delta


@st.composite
def bipartite_multigraphs(draw):
    num_left = draw(st.integers(1, 10))
    num_right = draw(st.integers(1, 10))
    num_edges = draw(st.integers(0, 60))
    edges = [
        (
            draw(st.integers(0, num_left - 1)),
            draw(st.integers(0, num_right - 1)),
        )
        for _ in range(num_edges)
    ]
    return num_left, num_right, edges


def _delta(num_left, num_right, edges):
    dl = np.zeros(num_left, int)
    dr = np.zeros(num_right, int)
    for u, v in edges:
        dl[u] += 1
        dr[v] += 1
    return int(max(dl.max(initial=0), dr.max(initial=0)))


@given(bipartite_multigraphs())
def test_coloring_is_proper(graph):
    num_left, num_right, edges = graph
    colors, _ = bipartite_edge_coloring(num_left, num_right, edges)
    validate_edge_coloring(num_left, num_right, edges, colors)


@given(bipartite_multigraphs())
def test_uses_exactly_delta_colors(graph):
    num_left, num_right, edges = graph
    colors, k = bipartite_edge_coloring(num_left, num_right, edges)
    assert k == _delta(num_left, num_right, edges)
    if len(edges):
        assert colors.max() < k


@given(st.integers(1, 12), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_regular_demand_from_permutations(n, d, seed):
    # d superimposed random perfect matchings: Delta = d exactly.
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(d):
        perm = rng.permutation(n)
        edges.extend((u, int(perm[u])) for u in range(n))
    colors, k = bipartite_edge_coloring(n, n, edges)
    assert k == d
    validate_edge_coloring(n, n, edges, colors)
    # Each color class must itself be a perfect matching.
    for c in range(k):
        class_edges = [e for e, col in zip(edges, colors) if col == c]
        assert len({u for u, _ in class_edges}) == len(class_edges)
        assert len({v for _, v in class_edges}) == len(class_edges)


def _assert_matches_reference(num_left, num_right, edges):
    colors, delta = bipartite_edge_coloring(num_left, num_right, edges)
    want_colors, want_delta = reference_edge_coloring(num_left, num_right, edges)
    assert colors.dtype == np.int64
    assert colors.shape == (len(edges),)
    assert colors.tolist() == want_colors.tolist()
    assert delta == want_delta
    assert type(delta) is int


@given(bipartite_multigraphs())
def test_matches_reference_on_multigraphs(graph):
    _assert_matches_reference(*graph)


@st.composite
def graphs_with_bad_vertex(draw):
    """A multigraph plus one edge with an out-of-range endpoint, inserted at
    a random position among in-range edges (more bad edges may follow it)."""
    num_left, num_right, edges = draw(bipartite_multigraphs())
    bad_left = draw(st.one_of(st.integers(-5, -1), st.integers(num_left, num_left + 5)))
    bad_right = draw(st.one_of(st.integers(-5, -1), st.integers(num_right, num_right + 5)))
    bad = draw(
        st.sampled_from(
            [(bad_left, 0), (0, bad_right), (bad_left, bad_right)]
        )
    )
    at = draw(st.integers(0, len(edges)))
    tail = draw(st.lists(st.tuples(st.integers(-3, 12), st.integers(-3, 12)), max_size=3))
    return num_left, num_right, edges[:at] + [bad] + edges[at:] + tail


@given(graphs_with_bad_vertex())
def test_same_error_as_reference_on_bad_vertices(graph):
    num_left, num_right, edges = graph
    with pytest.raises(ValueError) as want:
        reference_edge_coloring(num_left, num_right, edges)
    with pytest.raises(ValueError) as got:
        bipartite_edge_coloring(num_left, num_right, edges)
    assert str(got.value) == str(want.value)


def _clos_demand_edges(perm: Permutation, side: int):
    """The demand multigraph of :func:`repro.routing.route_permutation_3step`:
    one edge per packet, source row -> destination row."""
    src_row = np.arange(perm.n) // side
    dst_row = perm.destinations // side
    return list(zip(src_row.tolist(), dst_row.tolist()))


CLOS_SIDES = [2, 4, 8, 16, 32, 64]


@pytest.mark.parametrize("side", CLOS_SIDES)
@pytest.mark.parametrize("family", ["bit_reversal", "transpose"])
def test_matches_reference_on_clos_demand_graphs(side, family):
    n = side * side
    perm = bit_reversal(n) if family == "bit_reversal" else matrix_transpose(side, side)
    _assert_matches_reference(side, side, _clos_demand_edges(perm, side))


@settings(max_examples=24)
@given(st.sampled_from(CLOS_SIDES), st.integers(0, 2**32 - 1))
def test_matches_reference_on_random_clos_demand_graphs(side, seed):
    perm = Permutation.random(side * side, np.random.default_rng(seed))
    _assert_matches_reference(side, side, _clos_demand_edges(perm, side))
