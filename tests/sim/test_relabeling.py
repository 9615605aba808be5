"""Packet-id relabeling invariance (the satellite of the granted-list fix).

The engine must depend on packet *identity* only through the two things
identity legitimately encodes — which demand a packet is, and its FIFO
position among same-source packets — never through the numeric value of
the id itself (e.g. via dict iteration order when applying a step's
moves).  These tests pin that down:

* a **permutation** workload has one packet per node, so any relabeling of
  packet ids must produce the exact sigma-mapped schedule and identical
  stats;
* an **h-relation** relabeled by any permutation that preserves each
  source's packet order (same queues, same FIFO ranks) must likewise be a
  pure renaming of the original run.

Run on the engine's structure-of-arrays core (``numpy``) and on the
node-indexed degraded oracle with an empty fault model (``indexed``): this
is exactly the class of latent nondeterminism a flat-array rewrite could
silently bake in.
"""

import numpy as np
import pytest

from repro.faults import FaultModel
from repro.networks import Hypermesh2D, Mesh2D, Torus2D
from repro.sim import MoveLog, RoutedDemands, route_demands
from repro.sim._reference import route_core_degraded
from repro.sim.routers import router_for

TOPOLOGIES = [Mesh2D(4), Torus2D(4), Hypermesh2D(4)]
IDS = [type(t).__name__ for t in TOPOLOGIES]
BACKENDS = ["indexed", "numpy"]


def route(topology, demands, backend):
    """``route_demands`` (``numpy``), or the oracle in its result shape."""
    if backend == "numpy":
        return route_demands(topology, demands, cache=False)
    sources, dests = [s for s, _ in demands], [d for _, d in demands]
    steps, stats = route_core_degraded(
        topology, sources, dests, router_for(topology),
        100 * (10 * topology.diameter + 10 * topology.num_nodes),
        FaultModel(),
    )
    return RoutedDemands(sources, dests, MoveLog.from_steps(steps), stats)


def relabeled_equal(routed_a, routed_b, sigma):
    """``routed_b`` must be ``routed_a`` with packet ``sigma[k]`` renamed
    ``k`` — same moves step by step, identical stats."""
    assert len(routed_a.steps) == len(routed_b.steps)
    for step_a, step_b in zip(routed_a.steps, routed_b.steps):
        assert {sigma[k]: node for k, node in step_b.items()} == dict(step_a)
    assert routed_a.stats == routed_b.stats


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
def test_permutation_invariant_under_any_relabeling(topology, backend, rng):
    n = topology.num_nodes
    dests = rng.permutation(n).tolist()
    demands = list(zip(range(n), dests))
    sigma = rng.permutation(n).tolist()
    shuffled = [demands[sigma[k]] for k in range(n)]
    a = route(topology, demands, backend)
    b = route(topology, shuffled, backend)
    relabeled_equal(a, b, sigma)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
def test_h_relation_invariant_under_order_preserving_relabeling(
    topology, backend, rng
):
    n = topology.num_nodes
    demands = list(
        zip(rng.integers(0, n, 3 * n).tolist(), rng.integers(0, n, 3 * n).tolist())
    )
    # Group packets by source, preserving each source's FIFO order — a
    # nontrivial relabeling that keeps every queue's contents and ranks.
    sigma = np.argsort([s for s, _ in demands], kind="stable").tolist()
    shuffled = [demands[sigma[k]] for k in range(len(demands))]
    a = route(topology, demands, backend)
    b = route(topology, shuffled, backend)
    relabeled_equal(a, b, sigma)
