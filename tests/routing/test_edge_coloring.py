"""Unit tests for bipartite multigraph edge coloring."""

import numpy as np
import pytest

from repro.routing import bipartite_edge_coloring, validate_edge_coloring


class TestBasics:
    def test_empty(self):
        colors, k = bipartite_edge_coloring(3, 3, [])
        assert colors.size == 0 and k == 0

    def test_single_edge(self):
        colors, k = bipartite_edge_coloring(1, 1, [(0, 0)])
        assert k == 1 and colors.tolist() == [0]

    def test_perfect_matching_one_color(self):
        edges = [(i, i) for i in range(5)]
        colors, k = bipartite_edge_coloring(5, 5, edges)
        assert k == 1
        validate_edge_coloring(5, 5, edges, colors)

    def test_complete_bipartite_k33(self):
        edges = [(u, v) for u in range(3) for v in range(3)]
        colors, k = bipartite_edge_coloring(3, 3, edges)
        assert k == 3  # Delta = 3, König tight
        validate_edge_coloring(3, 3, edges, colors)

    def test_parallel_edges(self):
        edges = [(0, 0), (0, 0), (0, 0)]
        colors, k = bipartite_edge_coloring(1, 1, edges)
        assert k == 3
        assert sorted(colors.tolist()) == [0, 1, 2]

    def test_star_uses_degree_colors(self):
        edges = [(0, v) for v in range(6)]
        colors, k = bipartite_edge_coloring(1, 6, edges)
        assert k == 6
        assert sorted(colors.tolist()) == list(range(6))

    def test_path_two_colors(self):
        # Path 0L-0R-1L-1R: max degree 2.
        edges = [(0, 0), (1, 0), (1, 1)]
        colors, k = bipartite_edge_coloring(2, 2, edges)
        assert k == 2
        validate_edge_coloring(2, 2, edges, colors)


class TestValidation:
    def test_out_of_range_left(self):
        with pytest.raises(ValueError):
            bipartite_edge_coloring(2, 2, [(2, 0)])

    def test_out_of_range_right(self):
        with pytest.raises(ValueError):
            bipartite_edge_coloring(2, 2, [(0, -1)])

    def test_negative_sizes(self):
        with pytest.raises(ValueError):
            bipartite_edge_coloring(-1, 2, [])

    def test_validator_catches_conflicts(self):
        edges = [(0, 0), (0, 1)]
        with pytest.raises(ValueError):
            validate_edge_coloring(1, 2, edges, np.array([0, 0]))

    def test_validator_catches_uncolored(self):
        with pytest.raises(ValueError):
            validate_edge_coloring(1, 1, [(0, 0)], np.array([-1]))

    def test_validator_length_mismatch(self):
        with pytest.raises(ValueError):
            validate_edge_coloring(1, 1, [(0, 0)], np.array([0, 1]))


class TestKoenigOptimality:
    """The algorithm must always use exactly Delta colors (König)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_regular_demand(self, seed):
        # d-regular bipartite multigraph from d random permutations.
        rng = np.random.default_rng(seed)
        n, d = 8, 4
        edges = []
        for _ in range(d):
            perm = rng.permutation(n)
            edges.extend((u, int(perm[u])) for u in range(n))
        colors, k = bipartite_edge_coloring(n, n, edges)
        assert k == d
        validate_edge_coloring(n, n, edges, colors)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_irregular(self, seed):
        rng = np.random.default_rng(100 + seed)
        edges = [
            (int(rng.integers(6)), int(rng.integers(7))) for _ in range(30)
        ]
        degree_l = np.zeros(6, int)
        degree_r = np.zeros(7, int)
        for u, v in edges:
            degree_l[u] += 1
            degree_r[v] += 1
        delta = max(degree_l.max(), degree_r.max())
        colors, k = bipartite_edge_coloring(6, 7, edges)
        assert k == delta
        assert colors.max() < delta  # never exceeds Delta - 1
        validate_edge_coloring(6, 7, edges, colors)

    def test_4096_random_edges_on_64_by_64(self):
        """The row-demand graph of a random 4096-packet h-relation on a
        64 x 64 hypermesh: average degree 64, so Delta >= 64."""
        rng = np.random.default_rng(99)
        edges = [(int(u), int(v)) for u, v in rng.integers(64, size=(4096, 2))]
        degrees = np.bincount([u for u, _ in edges], minlength=64).tolist()
        degrees += np.bincount([v for _, v in edges], minlength=64).tolist()
        colors, k = bipartite_edge_coloring(64, 64, edges)
        assert len(colors) == 4096
        assert k == max(degrees) >= 64
        validate_edge_coloring(64, 64, edges, colors)
