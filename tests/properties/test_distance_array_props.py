"""Property tests for :meth:`~repro.networks.base.Topology.distance_array`.

The vectorized distance feeds every ``distance``/``work`` floor of
:mod:`repro.bounds`, so it must agree with the scalar closed form
:meth:`~repro.networks.base.Topology.distance` — the oracle — on every
family: non-square meshes and tori, extent-2 torus rings (where the
wrap-around link is omitted), hypercubes of dimension 1–12, several
hypermesh base/dims pairs, and empty inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.networks import Hypercube, Hypermesh, Mesh, Torus
from repro.networks.base import Topology

HYPERMESH_SHAPES = [(2, 1), (2, 5), (3, 3), (4, 2), (5, 2), (7, 1), (16, 2)]


def _assert_matches_scalar(topo: Topology, sources, dests) -> None:
    got = topo.distance_array(np.asarray(sources, dtype=np.int64),
                              np.asarray(dests, dtype=np.int64))
    want = [topo.distance(int(s), int(d)) for s, d in zip(sources, dests)]
    assert got.dtype == np.int64
    assert got.shape == (len(want),)
    assert got.tolist() == want


@st.composite
def topologies(draw):
    family = draw(st.sampled_from(["mesh", "torus", "hypercube", "hypermesh"]))
    if family in ("mesh", "torus"):
        radices = draw(st.lists(st.integers(2, 7), min_size=1, max_size=3))
        return (Mesh if family == "mesh" else Torus)(radices)
    if family == "hypercube":
        return Hypercube(draw(st.integers(1, 12)))
    return Hypermesh(*draw(st.sampled_from(HYPERMESH_SHAPES)))


@st.composite
def topology_and_pairs(draw):
    topo = draw(topologies())
    node = st.integers(0, topo.num_nodes - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=40))
    return topo, [s for s, _ in pairs], [d for _, d in pairs]


@given(topology_and_pairs())
def test_distance_array_equals_scalar_distance(case):
    _assert_matches_scalar(*case)


@pytest.mark.parametrize(
    "topo",
    [Mesh((2, 3, 4)), Mesh((5, 3)), Mesh((7,)), Torus((2, 5)), Torus((3, 4)),
     Torus((2, 2, 2)), Torus((2,)), Torus((6, 2, 3))],
    ids=repr,
)
def test_all_pairs_on_non_square_meshes_and_tori(topo):
    n = topo.num_nodes
    sources, dests = np.divmod(np.arange(n * n), n)
    _assert_matches_scalar(topo, sources, dests)


@pytest.mark.parametrize("dimension", range(1, 13))
def test_hypercube_dimensions_1_to_12(dimension):
    topo = Hypercube(dimension)
    rng = np.random.default_rng(dimension)
    pairs = rng.integers(0, topo.num_nodes, size=(300, 2))
    # The antipode of every sampled source pins the all-bits-differ case.
    antipodes = pairs[:, 0] ^ (topo.num_nodes - 1)
    _assert_matches_scalar(topo, pairs[:, 0], pairs[:, 1])
    _assert_matches_scalar(topo, pairs[:, 0], antipodes)


@pytest.mark.parametrize("base,dims", HYPERMESH_SHAPES)
def test_hypermesh_shapes(base, dims):
    topo = Hypermesh(base, dims)
    rng = np.random.default_rng(base * 31 + dims)
    pairs = rng.integers(0, topo.num_nodes, size=(300, 2))
    _assert_matches_scalar(topo, pairs[:, 0], pairs[:, 1])


@pytest.mark.parametrize(
    "topo",
    [Mesh((3, 4)), Torus((2, 3)), Hypercube(1), Hypermesh(3, 2)],
    ids=repr,
)
def test_empty_inputs(topo):
    _assert_matches_scalar(topo, [], [])
