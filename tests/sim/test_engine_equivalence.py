"""The engine-equivalence guarantee, enforced.

The engine's arbitration core in ``repro.sim.engine`` must produce
**bit-identical** schedules and statistics to the seed loop preserved in
``repro.sim._reference`` — same step dicts, same counters — on every
topology family, for permutations and h-relations alike.  These tests are
the contract the core was built under; if one fails, the core changed
observable routing behaviour and must be fixed, not the test.
"""

import numpy as np
import pytest

from repro.networks import (
    Hypercube,
    Hypermesh,
    Hypermesh2D,
    Mesh,
    Mesh2D,
    Torus,
    Torus2D,
)
from repro.routing import Permutation, bit_reversal
from repro.sim._reference import reference_route_core
from repro.sim.engine import _route_core
from repro.sim.routers import router_for

TOPOLOGIES = [
    Mesh2D(4),
    Torus2D(4),
    Hypercube(4),
    Hypermesh2D(4),
    Mesh((3, 5)),
    Torus((5, 3)),
    Hypermesh(3, 3),
]
IDS = [f"{type(t).__name__}-{t.num_nodes}" for t in TOPOLOGIES]


def both_engines(topology, sources, dests, max_steps=None):
    router = router_for(topology)
    if max_steps is None:
        max_steps = 100 * (10 * topology.diameter + 10 * topology.num_nodes)
    moves, stats = _route_core(topology, sources, dests, router, max_steps)
    ref = reference_route_core(topology, sources, dests, router, max_steps)
    return (moves.dicts(), stats), ref


def assert_identical(new, ref):
    new_steps, new_stats = new
    ref_steps, ref_stats = ref
    assert new_steps == ref_steps
    # The plan cache serializes each step in insertion order, so the
    # order is part of the contract.
    for got, want in zip(new_steps, ref_steps):
        assert list(got.items()) == list(want.items())
    # RoutingStats equality covers steps, total_hops, max_queue_depth,
    # blocked_moves, delivered and per_step_moves (timing is excluded by
    # design: the reference engine is untimed).
    assert new_stats == ref_stats


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
def test_random_permutations_identical(topology, rng):
    n = topology.num_nodes
    for _ in range(3):
        perm = Permutation.random(n, rng)
        new, ref = both_engines(
            topology, list(range(n)), perm.destinations.tolist()
        )
        assert_identical(new, ref)


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
def test_bit_reversal_identical(topology):
    n = topology.num_nodes
    if n & (n - 1):
        pytest.skip("bit reversal needs a power-of-two node count")
    perm = bit_reversal(n)
    new, ref = both_engines(topology, list(range(n)), perm.destinations.tolist())
    assert_identical(new, ref)


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
def test_random_h_relations_identical(topology, rng):
    n = topology.num_nodes
    for scale in (1, 3):
        sources = rng.integers(0, n, size=scale * n).tolist()
        dests = rng.integers(0, n, size=scale * n).tolist()
        new, ref = both_engines(topology, sources, dests)
        assert_identical(new, ref)


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
def test_hotspot_gather_identical(topology, rng):
    """All packets funnel to one node: maximal queueing and arbitration."""
    n = topology.num_nodes
    sources = list(range(n))
    dests = [0] * n
    new, ref = both_engines(topology, sources, dests)
    assert_identical(new, ref)


def test_sparse_demands_identical(rng):
    """Few packets on a big network — mostly empty queues — still match."""
    topology = Mesh2D(16)
    n = topology.num_nodes
    sources = rng.integers(0, n, size=12).tolist()
    dests = rng.integers(0, n, size=12).tolist()
    new, ref = both_engines(topology, sources, dests)
    assert_identical(new, ref)


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
def test_cached_replay_identical_to_live(topology, rng):
    """A plan-cache replay must be indistinguishable from live routing:
    same step dicts, same RoutingStats — through both tiers."""
    from repro.sim import PlanCache, route_permutation

    n = topology.num_nodes
    perm = Permutation.random(n, rng)
    cache = PlanCache()
    live = route_permutation(topology, perm, cache=False)
    cold = route_permutation(topology, perm, cache=cache)
    warm = route_permutation(topology, perm, cache=cache)
    if cache.uncacheable:
        pytest.skip("no registered router id for this topology's router")
    assert cache.misses == 1 and cache.hits == 1
    for result in (cold, warm):
        assert result.schedule.steps == live.schedule.steps
        assert result.stats == live.stats


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
def test_disk_replay_identical_to_live(topology, rng, tmp_path):
    from repro.sim import PlanCache, route_permutation

    n = topology.num_nodes
    perm = Permutation.random(n, rng)
    live = route_permutation(topology, perm, cache=False)
    route_permutation(topology, perm, cache=PlanCache(tmp_path))
    reader = PlanCache(tmp_path)  # cold in-memory tier, warm disk tier
    warm = route_permutation(topology, perm, cache=reader)
    if not reader.hits:
        pytest.skip("uncacheable router: nothing reached the disk tier")
    assert warm.schedule.steps == live.schedule.steps
    assert warm.stats == live.stats


@pytest.mark.parametrize("name", ["mesh2d", "torus2d", "hypercube",
                                  "hypermesh2d"])
def test_replay_identical_to_live_at_1024(name, tmp_path):
    """At 1,024 packets the core's recorded plans replay from both tiers
    exactly as a live run routes."""
    from repro.sim import PlanCache, route_permutation
    from repro.sim.task import build_topology

    topology = build_topology(name, 1024)
    for perm in (bit_reversal(1024),
                 Permutation.random(1024, np.random.default_rng(99))):
        live = route_permutation(topology, perm, cache=False)
        cache = PlanCache(tmp_path)
        cold = route_permutation(topology, perm, cache=cache)
        warm = route_permutation(topology, perm, cache=cache)
        disk = PlanCache(tmp_path)  # cold in-memory tier, warm disk tier
        replayed = route_permutation(topology, perm, cache=disk)
        assert (cache.misses, cache.hits, disk.hits) == (1, 1, 1)
        for result in (cold, warm, replayed):
            assert result.schedule.steps == live.schedule.steps
            assert result.stats == live.stats


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
def test_next_hop_array_matches_scalar(topology, rng):
    """The core's batched next hops rely on next_hop_array answering
    exactly like next_hop, elementwise, for every (current, dest) pair."""
    router = router_for(topology)
    n = topology.num_nodes
    pairs = [(c, d) for c in range(n) for d in range(n) if c != d]
    cur = [c for c, _ in pairs]
    dst = [d for _, d in pairs]
    batched = router.next_hop_array(cur, dst).tolist()
    for (c, d), hop in zip(pairs, batched):
        assert hop == router.next_hop(c, d), (c, d)
    # Equal pairs pass through unchanged (the array analogue of None).
    same = router.next_hop_array([0, n - 1], [0, n - 1]).tolist()
    assert same == [0, n - 1]


def test_max_steps_guard_identical():
    """The core and the seed loop refuse an exhausted step budget with
    ScheduleError."""
    from repro.sim.schedule import ScheduleError

    topology = Mesh2D(4)
    perm = bit_reversal(16)
    router = router_for(topology)
    args = (topology, list(range(16)), perm.destinations.tolist(), router, 2)
    with pytest.raises(ScheduleError, match="undelivered"):
        _route_core(*args)
    with pytest.raises(ScheduleError, match="undelivered"):
        reference_route_core(*args)
