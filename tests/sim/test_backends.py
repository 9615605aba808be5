"""The one core against its oracles: bit-identical, fault-free and faulted.

The engine runs every job on one arbitration loop,
:func:`repro.sim.engine._route_core` (the structure-of-arrays NumPy loop).
Its contract is byte-for-byte the observable output of the step-loop
oracles in :mod:`repro.sim._reference` — same step dicts *in the same
insertion order*, same :class:`~repro.sim.stats.RoutingStats`, same
plan-blob payloads:

* ``reference_route_core``, the frozen seed loop (overtaking, fault-free);
* ``route_core_degraded``, the degraded loop, under both policies — with
  an empty :class:`~repro.faults.FaultModel` it is the fault-free FIFO
  oracle too.

The differential fuzz harness in ``tests/properties/test_engine_fuzz.py``
extends these with random draws.
"""

import json

import numpy as np
import pytest

from repro.bounds import certify
from repro.faults import FaultModel
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
from repro.sim import route_demands, route_permutation
from repro.sim._reference import reference_route_core, route_core_degraded
from repro.sim.engine import _route_core
from repro.sim.plancache import CachedPlan
from repro.sim.routers import router_for
from repro.sim.schedule import ScheduleError
from repro.sim.task import build_topology, build_workload

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

#: The id names the one core, the NumPy structure-of-arrays loop.
CORES = ["numpy"]


def run_core(core, topology, sources, dests, **kwargs):
    router = router_for(topology)
    max_steps = 100 * (10 * topology.diameter + 10 * topology.num_nodes)
    return core(topology, sources, dests, router, max_steps, **kwargs)


def run_oracle(topology, sources, dests, *, arbitration="overtaking",
               fault_model=None, **kwargs):
    """The degraded oracle; no model means an empty one (fault-free)."""
    router = router_for(topology)
    max_steps = 100 * (10 * topology.diameter + 10 * topology.num_nodes)
    return route_core_degraded(
        topology, sources, dests, router, max_steps,
        fault_model if fault_model is not None else FaultModel(),
        arbitration=arbitration, **kwargs,
    )


def assert_bit_identical(got, want):
    got_steps, got_stats = got
    want_steps, want_stats = want
    assert got_steps == want_steps
    # Dict equality ignores insertion order, but the plan cache serializes
    # each step's keys in insertion order — so the order is contractual.
    for g, w in zip(got_steps, want_steps):
        assert list(g.items()) == list(w.items())
    assert got_stats == want_stats


class TestRegistry:
    def test_bad_arbitration_message_identical(self):
        topo = Mesh2D(2)
        router = router_for(topo)
        with pytest.raises(ValueError, match="unknown arbitration") as a:
            _route_core(topo, [0], [3], router, 10, arbitration="magic")
        with pytest.raises(ValueError, match="unknown arbitration") as b:
            route_core_degraded(
                topo, [0], [3], router, 10, FaultModel(), arbitration="magic"
            )
        assert str(a.value) == str(b.value)

    def test_bad_arbitration_raises_on_every_faulted_core(self):
        """The core and the degraded oracle reject an unknown policy with
        the engine's named error instead of routing it as overtaking."""
        topo = Mesh2D(4)
        model = FaultModel(drop_prob=0.2, retry_limit=4, seed=3)
        src, dst = list(range(16)), bit_reversal(16).destinations.tolist()
        messages = set()
        for run in (
            lambda: run_core(_route_core, topo, src, dst, fault_model=model,
                             arbitration="bogus"),
            lambda: run_oracle(topo, src, dst, fault_model=model,
                               arbitration="bogus"),
        ):
            with pytest.raises(ValueError, match="unknown arbitration") as e:
                run()
            messages.add(str(e.value))
        assert messages == {
            "unknown arbitration policy 'bogus'; "
            "expected one of ('overtaking', 'fifo')"
        }


@pytest.mark.parametrize("backend", CORES)
@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
class TestCoreEquivalence:
    def test_permutations_both_arbitrations(self, topology, backend, rng):
        n = topology.num_nodes
        for _ in range(2):
            perm = Permutation.random(n, rng)
            src, dst = list(range(n)), perm.destinations.tolist()
            for arbitration in ("overtaking", "fifo"):
                got = run_core(
                    _route_core, topology, src, dst, arbitration=arbitration
                )
                want = run_oracle(topology, src, dst, arbitration=arbitration)
                assert_bit_identical(got, want)

    def test_h_relations_and_hotspot(self, topology, backend, rng):
        n = topology.num_nodes
        cases = [
            (rng.integers(0, n, 3 * n).tolist(), rng.integers(0, n, 3 * n).tolist()),
            (list(range(n)), [0] * n),  # hotspot: maximal arbitration
            ([0, 0, 1], [0, 1, 1]),  # already-home packets and overlap
        ]
        for src, dst in cases:
            for arbitration in ("overtaking", "fifo"):
                got = run_core(
                    _route_core, topology, src, dst, arbitration=arbitration
                )
                want = run_oracle(topology, src, dst, arbitration=arbitration)
                assert_bit_identical(got, want)

    def test_matches_seed_reference(self, topology, backend, rng):
        n = topology.num_nodes
        perm = Permutation.random(n, rng)
        src, dst = list(range(n)), perm.destinations.tolist()
        assert_bit_identical(
            run_core(_route_core, topology, src, dst),
            run_core(reference_route_core, topology, src, dst),
        )


def _plan_payload(steps, stats):
    return json.dumps(CachedPlan.from_run(steps, stats).to_payload(),
                      sort_keys=True)


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("name", ["mesh2d", "hypercube", "hypermesh2d"])
def test_cores_match_the_seed_loop_at_scale(name, n):
    """The core, called directly and through ``route_demands``, against
    the seed loop at N = 256 and 1,024 on the campaign's seeded dense
    permutation and 2*sqrt(N)-packet sparse h-relation: identical steps,
    stats and plan-blob payloads, and a step count that clears its
    certified floor."""
    topology = build_topology(name, n)
    router = router_for(topology)
    max_steps = 16 * (10 * topology.diameter + 10 * n)
    for workload in ("dense-permutation", "sparse-hrelation"):
        srcs, dsts = build_workload(workload, n, seed=99)
        want = reference_route_core(topology, srcs, dsts, router, max_steps)
        got = _route_core(topology, srcs, dsts, router, max_steps)
        assert_bit_identical(got, want)
        assert _plan_payload(*got) == _plan_payload(*want)
        routed = route_demands(topology, list(zip(srcs, dsts)), cache=False)
        assert_bit_identical((list(routed.steps), routed.stats), want)
        cert = certify(topology, list(zip(srcs, dsts)), want[1].steps)
        assert 0 <= cert.bound <= want[1].steps


@pytest.mark.parametrize("backend", CORES)
class TestBackendSemantics:
    def test_max_steps_guard_identical(self, backend):
        topo = Mesh2D(4)
        perm = bit_reversal(16)
        args = (topo, list(range(16)), perm.destinations.tolist(),
                router_for(topo), 2)
        with pytest.raises(ScheduleError, match="undelivered") as got:
            _route_core(*args)
        with pytest.raises(ScheduleError, match="undelivered") as want:
            reference_route_core(*args)
        assert str(got.value) == str(want.value)

    def test_on_step_and_timing(self, backend):
        topo = Mesh2D(4)
        perm = bit_reversal(16)
        seen = []

        def probe(step, moves, stats):
            seen.append((step, dict(moves), stats.steps))

        routed = route_permutation(
            topo, perm, on_step=probe, timing=True, cache=False,
        )
        assert len(seen) == routed.stats.steps
        assert [s for s, _, _ in seen] == list(range(routed.stats.steps))
        assert [m for _, m, _ in seen] == [dict(s) for s in routed.schedule.steps]
        assert len(routed.stats.per_step_seconds) == routed.stats.steps

    def test_fault_run_with_unsupported_backend_raises(self, backend):
        """There is one core, so the entry points take no ``backend=``: a
        caller naming a core fails loudly instead of being ignored."""
        topo = Mesh2D(4)
        perm = bit_reversal(16)
        model = FaultModel(seed=3, drop_prob=0.2, retry_limit=4)
        with pytest.raises(TypeError, match="backend"):
            route_permutation(
                topo, perm, backend=backend, fault_model=model, cache=False
            )
        with pytest.raises(TypeError, match="backend"):
            route_demands(
                topo, [(0, 15)], backend=backend, fault_model=model,
                cache=False,
            )


# Fault configurations exercising every degraded-core code path: structural
# link kills (detours), drops + retries (seeded draws), degraded hypermesh
# nets (serial arbitration), hard-down nets, and their combinations.
P2P_FAULTS = [
    FaultModel(link_fail_fraction=0.15, seed=3),
    FaultModel(drop_prob=0.3, retry_limit=2, seed=5),
    FaultModel(link_fail_fraction=0.1, drop_prob=0.2, retry_limit=4, seed=11),
]
HYPER_FAULTS = [
    FaultModel(degraded_nets=(0, 2), seed=3),
    FaultModel(degraded_nets=(1,), drop_prob=0.25, retry_limit=3, seed=9),
    FaultModel(net_failures=(0,), seed=4),
    FaultModel(
        net_failures=(0,), degraded_nets=(1, 2),
        drop_prob=0.15, retry_limit=5, seed=13,
    ),
]


def run_degraded(core, topology, model, *, arbitration, seed=7, **kwargs):
    n = topology.num_nodes
    rng = np.random.default_rng(seed)
    dests = [int(x) for x in rng.permutation(n)]
    if core is route_core_degraded:
        return run_oracle(
            topology, list(range(n)), dests, fault_model=model,
            arbitration=arbitration, **kwargs,
        )
    return run_core(
        core, topology, list(range(n)), dests,
        fault_model=model, arbitration=arbitration, **kwargs,
    )


@pytest.mark.parametrize("arbitration", ["overtaking", "fifo"])
@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
class TestDegradedEquivalence:
    """The core with a fault model is bit-identical to the degraded oracle
    on every topology family, both arbitration policies, and every fault
    mechanism — including the seeded drop-draw sequence, whose retry/drop
    accounting must land in :class:`RoutingStats` identically."""

    def faults_for(self, topology):
        if isinstance(topology, (Hypermesh2D, Hypermesh)):
            return P2P_FAULTS[1:2] + HYPER_FAULTS  # no link kills on nets
        return P2P_FAULTS

    def test_bit_identical_to_indexed_degraded(self, topology, arbitration):
        for model in self.faults_for(topology):
            want = run_degraded(
                route_core_degraded, topology, model, arbitration=arbitration
            )
            got = run_degraded(
                _route_core, topology, model, arbitration=arbitration
            )
            assert_bit_identical(got, want)

    def test_retry_and_drop_accounting(self, topology, arbitration):
        model = FaultModel(drop_prob=0.4, retry_limit=1, seed=17)
        _, want = run_degraded(
            route_core_degraded, topology, model, arbitration=arbitration
        )
        _, got = run_degraded(
            _route_core, topology, model, arbitration=arbitration
        )
        assert got.retried == want.retried
        assert got.dropped == want.dropped
        assert got.delivered == want.delivered
        assert got.delivered + got.dropped == topology.num_nodes
        assert got.retried > 0 and got.dropped > 0  # the draw actually bites

    def test_on_fault_event_streams_identical(self, topology, arbitration):
        model = FaultModel(
            drop_prob=0.35, retry_limit=2, seed=21,
        )
        want_events, got_events = [], []
        run_degraded(
            route_core_degraded, topology, model, arbitration=arbitration,
            on_fault=lambda *a: want_events.append(a),
        )
        run_degraded(
            _route_core, topology, model, arbitration=arbitration,
            on_fault=lambda *a: got_events.append(a),
        )
        assert got_events == want_events


class TestDegradedEngineDispatch:
    def test_numpy_backend_via_engine_matches_indexed(self, rng):
        """Faulted runs through the entry point match the degraded
        oracle, both policies."""
        for topo in (Mesh2D(4), Hypermesh2D(4)):
            perm = Permutation.random(topo.num_nodes, rng)
            model = (
                FaultModel(link_fail_fraction=0.2, seed=5)
                if isinstance(topo, Mesh2D)
                else FaultModel(degraded_nets=(0,), drop_prob=0.2,
                                retry_limit=3, seed=7)
            )
            src, dst = list(range(topo.num_nodes)), perm.destinations.tolist()
            for arbitration in ("overtaking", "fifo"):
                routed = route_permutation(
                    topo, perm, fault_model=model, arbitration=arbitration,
                    cache=False,
                )
                want = run_oracle(
                    topo, src, dst, fault_model=model, arbitration=arbitration
                )
                assert_bit_identical(
                    (list(routed.schedule.steps), routed.stats), want
                )
