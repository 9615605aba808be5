"""Shared fixtures (small instances of every topology, a seeded RNG) and
the hypothesis profiles.

Profiles are registered here — once, centrally — so the active profile is
selected by the ``HYPOTHESIS_PROFILE`` environment variable instead of
being overridden by whichever test module imported last:

* ``repro`` (default) — hypothesis defaults minus the deadline, which
  misfires on shared CI runners;
* ``ci`` — the pinned profile the CI fuzz job runs under: derandomized
  (fixed seed, no flaky example drift between runs), bounded example
  counts, no deadline, and verbose failure blobs for reproduction.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import Phase, settings

from repro.networks import Hypercube, Hypermesh, Hypermesh2D, Mesh, Mesh2D, Torus, Torus2D

settings.register_profile("repro", deadline=None)
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=50,
    print_blob=True,
    # No shrink phase in CI: a pinned-seed failure is already reproducible,
    # and shrinking is where the wall-clock variance lives.
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def mesh4() -> Mesh2D:
    return Mesh2D(4)


@pytest.fixture
def torus4() -> Torus2D:
    return Torus2D(4)


@pytest.fixture
def cube4() -> Hypercube:
    return Hypercube(4)


@pytest.fixture
def hm4() -> Hypermesh2D:
    return Hypermesh2D(4)


@pytest.fixture(
    params=[
        Mesh2D(4),
        Torus2D(4),
        Hypercube(4),
        Hypermesh2D(4),
        Mesh((2, 3)),
        Torus((3, 3)),
        Hypermesh(3, 2),
        Hypermesh(2, 3),
    ],
    ids=lambda t: f"{type(t).__name__}-{t.num_nodes}",
)
def any_topology(request):
    """A representative zoo of small topologies."""
    return request.param


#: The shapes of one route-cold cycle of the repository's benchmark
#: (perfbench/route.py): (topology, n, workload, faulted).  Fault-free
#: cells straddle the engine's packet-count rule from above (N=1024 and
#: N=4096, dense and sparse); faulted cells are N=1024.
ROUTE_COLD_SHAPES = tuple(
    [
        (t, n, w, False)
        for t in ("mesh2d", "torus2d", "hypercube", "hypermesh2d")
        for n in (1024, 4096)
        for w in ("dense-permutation", "sparse-hrelation")
    ]
    + [
        (t, 1024, w, True)
        for t in ("mesh2d", "torus2d", "hypercube", "hypermesh2d")
        for w in ("dense-permutation", "sparse-hrelation")
    ]
)


def route_cold_body(topology, n, workload, faulted, seed) -> dict:
    """A ``POST /v1/route`` body for one route-cold shape.

    Faulted bodies carry the benchmark's fault mix: two degraded nets on
    the hypermesh; elsewhere 5 % of links down plus a 0.2 drop
    probability (for seeds 1-11 every such N=1024 machine stays
    connected).
    """
    body = {"topology": topology, "n": n, "workload": workload, "seed": seed}
    if faulted:
        if topology == "hypermesh2d":
            side = int(n**0.5)
            nets = np.random.default_rng(seed).choice(
                2 * side, size=2, replace=False
            )
            body["fault"] = {
                "seed": seed, "degraded_nets": sorted(int(x) for x in nets)
            }
        else:
            body["fault"] = {
                "seed": seed, "link_fail_fraction": 0.05, "drop_prob": 0.2
            }
    return body


@pytest.fixture
def route_cold_bodies():
    """``bodies(seed)``: one route-cold body per shape, in cycle order."""

    def bodies(seed: int) -> list[dict]:
        return [route_cold_body(*shape, seed) for shape in ROUTE_COLD_SHAPES]

    return bodies
