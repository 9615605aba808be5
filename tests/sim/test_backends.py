"""The core seam, enforced: both engine cores are bit-identical.

``repro.sim.backends`` promises that the ``"numpy"`` core produces
byte-for-byte the same observable output as the indexed engine and the
frozen seed loop — same step dicts *in the same insertion order*, same
:class:`~repro.sim.stats.RoutingStats`, same plan-cache digests and blob
payloads — so the engine may pick either by packet count.  These tests are
that contract and the rule; the differential fuzz harness in
``tests/properties/test_engine_fuzz.py`` extends them with random draws.
"""

import inspect
import json

import pytest

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
from repro.bounds import certify
from repro.sim import (
    ENGINE_BACKENDS,
    PlanCache,
    numpy_route_core,
    resolve_backend,
    route_demands,
    route_permutation,
)
from repro.sim._reference import reference_route_core
from repro.sim.degraded import route_core_degraded
from repro.sim.engine import _route_core
from repro.sim.plancache import CachedPlan
from repro.sim.routers import router_for
from repro.sim.task import build_topology, build_workload
from repro.sim.schedule import ScheduleError

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

BACKENDS = ["numpy"]


def run_core(core, topology, sources, dests, **kwargs):
    router = router_for(topology)
    max_steps = 100 * (10 * topology.diameter + 10 * topology.num_nodes)
    return core(topology, sources, dests, router, max_steps, **kwargs)


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
    def test_indexed_resolves_to_engine_core(self):
        assert resolve_backend("indexed") is _route_core

    def test_numpy_resolves(self):
        assert resolve_backend("numpy") is numpy_route_core

    def test_unknown_backend_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            resolve_backend("fortran")

    def test_registry_and_availability(self):
        """Two cores, both always available, both taking a fault model."""
        assert list(ENGINE_BACKENDS) == ["indexed", "numpy"]
        for name in ENGINE_BACKENDS:
            params = inspect.signature(resolve_backend(name)).parameters
            assert params["fault_model"].default is None
            assert params["on_fault"].default is None

    def test_degraded_resolution(self):
        """One resolver for faulted runs too: the indexed core hands an
        enabled model to the indexed degraded loop, the NumPy core routes
        it itself, and both give that loop's output."""
        model = FaultModel(drop_prob=0.3, retry_limit=2, seed=5)
        for topology in (Mesh2D(4), Hypermesh2D(4)):
            want = run_degraded(
                route_core_degraded, topology, model, arbitration="fifo"
            )
            for name in ENGINE_BACKENDS:
                got = run_degraded(
                    resolve_backend(name), topology, model, arbitration="fifo"
                )
                assert_bit_identical(got, want)
        with pytest.raises(ValueError, match="unknown engine backend"):
            resolve_backend("fortran")

    def test_missing_numba_is_a_clear_error(self):
        """The numba backend is gone: its name is an unknown core."""
        with pytest.raises(ValueError, match="unknown engine backend 'numba'"):
            resolve_backend("numba")
        with pytest.raises(ValueError, match="unknown engine backend 'numba'"):
            route_permutation(Mesh2D(2), bit_reversal(4), backend="numba")

    def test_bad_arbitration_message_identical(self):
        topo = Mesh2D(2)
        router = router_for(topo)
        with pytest.raises(ValueError, match="unknown arbitration") as a:
            _route_core(topo, [0], [3], router, 10, arbitration="magic")
        with pytest.raises(ValueError, match="unknown arbitration") as b:
            numpy_route_core(topo, [0], [3], router, 10, arbitration="magic")
        assert str(a.value) == str(b.value)

    def test_bad_arbitration_raises_on_every_faulted_core(self):
        """Every core, the indexed degraded loop included, rejects an
        unknown policy with the engine's named error instead of routing
        it as overtaking."""
        topo = Mesh2D(4)
        model = FaultModel(drop_prob=0.2, retry_limit=4, seed=3)
        messages = set()
        for core in (route_core_degraded, _route_core, numpy_route_core):
            with pytest.raises(ValueError, match="unknown arbitration") as e:
                run_core(
                    core, topo, list(range(16)),
                    bit_reversal(16).destinations.tolist(),
                    fault_model=model, arbitration="bogus",
                )
            messages.add(str(e.value))
        assert messages == {
            "unknown arbitration policy 'bogus'; "
            "expected one of ('overtaking', 'fifo')"
        }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
class TestCoreEquivalence:
    def test_permutations_both_arbitrations(self, topology, backend, rng):
        core = resolve_backend(backend)
        n = topology.num_nodes
        for _ in range(2):
            perm = Permutation.random(n, rng)
            src, dst = list(range(n)), perm.destinations.tolist()
            for arbitration in ("overtaking", "fifo"):
                got = run_core(
                    core, topology, src, dst, arbitration=arbitration
                )
                want = run_core(
                    _route_core, topology, src, dst, arbitration=arbitration
                )
                assert_bit_identical(got, want)

    def test_h_relations_and_hotspot(self, topology, backend, rng):
        core = resolve_backend(backend)
        n = topology.num_nodes
        cases = [
            (rng.integers(0, n, 3 * n).tolist(), rng.integers(0, n, 3 * n).tolist()),
            (list(range(n)), [0] * n),  # hotspot: maximal arbitration
            ([0, 0, 1], [0, 1, 1]),  # already-home packets and overlap
        ]
        for src, dst in cases:
            for arbitration in ("overtaking", "fifo"):
                got = run_core(
                    core, topology, src, dst, arbitration=arbitration
                )
                want = run_core(
                    _route_core, topology, src, dst, arbitration=arbitration
                )
                assert_bit_identical(got, want)

    def test_matches_seed_reference(self, topology, backend, rng):
        core = resolve_backend(backend)
        n = topology.num_nodes
        perm = Permutation.random(n, rng)
        src, dst = list(range(n)), perm.destinations.tolist()
        assert_bit_identical(
            run_core(core, topology, src, dst),
            run_core(reference_route_core, topology, src, dst),
        )


def _plan_payload(steps, stats):
    return json.dumps(CachedPlan.from_run(steps, stats).to_payload(),
                      sort_keys=True)


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("name", ["mesh2d", "hypercube", "hypermesh2d"])
def test_cores_match_the_seed_loop_at_scale(name, n):
    """Every core, and the default dispatch, against the seed loop at
    N = 256 and 1,024 on the campaign's seeded dense permutation and
    2*sqrt(N)-packet sparse h-relation: identical steps, stats and
    plan-blob payloads, and a step count that clears its certified floor.
    A dense permutation at N = 1,024 is where the dispatch first picks the
    NumPy core (``NUMPY_MIN_PACKETS``)."""
    topology = build_topology(name, n)
    router = router_for(topology)
    max_steps = 16 * (10 * topology.diameter + 10 * n)
    for workload in ("dense-permutation", "sparse-hrelation"):
        srcs, dsts = build_workload(workload, n, seed=99)
        want = reference_route_core(topology, srcs, dsts, router, max_steps)
        payload = _plan_payload(*want)
        for backend in ENGINE_BACKENDS:
            got = resolve_backend(backend)(topology, srcs, dsts, router,
                                           max_steps)
            assert_bit_identical(got, want)
            assert _plan_payload(*got) == payload
        routed = route_demands(topology, list(zip(srcs, dsts)), cache=False)
        assert_bit_identical((list(routed.steps), routed.stats), want)
        cert = certify(topology, list(zip(srcs, dsts)), want[1].steps)
        assert 0 <= cert.bound <= want[1].steps


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendSemantics:
    def test_max_steps_guard_identical(self, backend):
        core = resolve_backend(backend)
        topo = Mesh2D(4)
        perm = bit_reversal(16)
        args = (topo, list(range(16)), perm.destinations.tolist(),
                router_for(topo), 2)
        with pytest.raises(ScheduleError, match="undelivered") as got:
            core(*args)
        with pytest.raises(ScheduleError, match="undelivered") as want:
            _route_core(*args)
        assert str(got.value) == str(want.value)

    def test_on_step_and_timing(self, backend):
        topo = Mesh2D(4)
        perm = bit_reversal(16)
        seen = []

        def probe(step, moves, stats):
            seen.append((step, dict(moves), stats.steps))

        routed = route_permutation(
            topo, perm, backend=backend, on_step=probe, timing=True,
            cache=False,
        )
        assert len(seen) == routed.stats.steps
        assert [s for s, _, _ in seen] == list(range(routed.stats.steps))
        assert [m for _, m, _ in seen] == [dict(s) for s in routed.schedule.steps]
        assert len(routed.stats.per_step_seconds) == routed.stats.steps

    def test_entry_points_accept_backend(self, backend):
        topo = Hypermesh2D(4)
        perm = bit_reversal(16)
        via_perm = route_permutation(topo, perm, backend=backend, cache=False)
        via_idx = route_permutation(
            topo, perm, backend="indexed", cache=False
        )
        assert via_perm.schedule.steps == via_idx.schedule.steps
        assert via_perm.stats == via_idx.stats
        demands = [(i, int(perm.destinations[i])) for i in range(16)]
        via_dem = route_demands(topo, demands, backend=backend, cache=False)
        assert list(via_dem.steps) == list(via_idx.schedule.steps)

    def test_fault_runs_honor_backend(self, backend, monkeypatch):
        """Regression: ``backend=`` used to be ignored for fault runs (they
        were pinned to the indexed degraded loop).  Now an enabled fault
        model rides along to the selected core — and that core is
        *actually executed* with it, not silently substituted."""
        import repro.sim.engine as engine_mod

        topo = Mesh2D(4)
        perm = bit_reversal(16)
        model = FaultModel(seed=3, drop_prob=0.2, retry_limit=4)
        with_backend = route_permutation(
            topo, perm, backend=backend, fault_model=model, cache=False
        )
        baseline = route_permutation(
            topo, perm, backend="indexed", fault_model=model, cache=False
        )
        assert with_backend.schedule.steps == baseline.schedule.steps
        assert with_backend.stats == baseline.stats

        calls = []
        real = numpy_route_core

        def spy(*a, **k):
            calls.append(k["fault_model"])
            return real(*a, **k)

        def resolve_spy(name):
            core = resolve_backend(name)
            return spy if core is real else core

        monkeypatch.setattr(engine_mod, "resolve_backend", resolve_spy)
        again = route_permutation(
            topo, perm, backend="numpy", fault_model=model, cache=False
        )
        assert calls == [model], (
            "backend='numpy' + fault_model must run the SoA core faulted"
        )
        assert again.stats == baseline.stats

    def test_fault_run_with_unsupported_backend_raises(self, backend):
        topo = Mesh2D(4)
        perm = bit_reversal(16)
        model = FaultModel(seed=3, drop_prob=0.2, retry_limit=4)
        with pytest.raises(ValueError, match="unknown engine backend"):
            route_permutation(
                topo, perm, backend="cupy", fault_model=model, cache=False
            )
        with pytest.raises(ValueError, match="unknown engine backend"):
            route_permutation(
                topo, perm, backend="hx9", fault_model=model, cache=False
            )


class TestCrossBackendCache:
    def test_numpy_plan_replays_on_indexed_and_vice_versa(self, rng):
        """The backend is not part of the plan key: a plan recorded by one
        backend is a cache hit for every other."""
        for topo in (Mesh2D(4), Hypermesh2D(4)):
            perm = Permutation.random(topo.num_nodes, rng)
            cache = PlanCache()
            first = route_permutation(topo, perm, backend="numpy", cache=cache)
            assert cache.misses == 1
            replay = route_permutation(
                topo, perm, backend="indexed", cache=cache
            )
            assert cache.hits == 1
            assert replay.schedule.steps == first.schedule.steps
            assert replay.stats == first.stats

    def test_identical_blob_payloads_per_backend(self, rng, tmp_path):
        """Route the same problem under each backend into its own disk
        cache: the recorded blobs must be byte-identical files."""
        topo = Hypermesh2D(4)
        perm = Permutation.random(topo.num_nodes, rng)
        blobs = {}
        for backend in ["indexed"] + BACKENDS:
            root = tmp_path / backend
            route_permutation(
                topo, perm, backend=backend, cache=PlanCache(root)
            )
            paths = list(root.rglob("*.json"))
            assert len(paths) == 1
            blobs[backend] = (paths[0].name, paths[0].read_bytes())
        names = {name for name, _ in blobs.values()}
        payloads = {payload for _, payload in blobs.values()}
        assert len(names) == 1, "digest (file name) must not depend on backend"
        assert len(payloads) == 1, "blob bytes must not depend on backend"

    def test_unknown_backend_fails_before_cache_lookup(self, rng):
        cache = PlanCache()
        perm = Permutation.random(16, rng)
        route_permutation(Mesh2D(4), perm, cache=cache)  # warm the cache
        with pytest.raises(ValueError, match="unknown engine backend"):
            route_permutation(Mesh2D(4), perm, backend="hx", cache=cache)
        # The bad-backend call counted no hit: it failed before lookup.
        assert cache.hits == 0


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
    import numpy as np

    n = topology.num_nodes
    rng = np.random.default_rng(seed)
    dests = [int(x) for x in rng.permutation(n)]
    router = router_for(topology)
    max_steps = 100 * (10 * topology.diameter + 10 * n)
    return core(
        topology, list(range(n)), dests, router, max_steps,
        fault_model=model, arbitration=arbitration, **kwargs
    )


@pytest.mark.parametrize("arbitration", ["overtaking", "fifo"])
@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
class TestDegradedEquivalence:
    """The SoA core with a fault model is bit-identical to the indexed degraded loop
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
                numpy_route_core, topology, model, arbitration=arbitration
            )
            assert_bit_identical(got, want)

    def test_retry_and_drop_accounting(self, topology, arbitration):
        model = FaultModel(drop_prob=0.4, retry_limit=1, seed=17)
        _, want = run_degraded(
            route_core_degraded, topology, model, arbitration=arbitration
        )
        _, got = run_degraded(
            numpy_route_core, topology, model, arbitration=arbitration
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
            numpy_route_core, topology, model, arbitration=arbitration,
            on_fault=lambda *a: got_events.append(a),
        )
        assert got_events == want_events


class TestDegradedEngineDispatch:
    def test_numpy_backend_via_engine_matches_indexed(self, rng):
        for topo in (Mesh2D(4), Hypermesh2D(4)):
            perm = Permutation.random(topo.num_nodes, rng)
            model = (
                FaultModel(link_fail_fraction=0.2, seed=5)
                if isinstance(topo, Mesh2D)
                else FaultModel(degraded_nets=(0,), drop_prob=0.2,
                                retry_limit=3, seed=7)
            )
            a = route_permutation(
                topo, perm, backend="indexed", fault_model=model, cache=False
            )
            b = route_permutation(
                topo, perm, backend="numpy", fault_model=model, cache=False
            )
            for x, y in zip(a.schedule.steps, b.schedule.steps):
                assert list(x.items()) == list(y.items())
            assert a.stats == b.stats

    def test_degraded_plans_cache_across_backends(self, rng):
        """Fault fingerprint is in the plan key, backend is not: a degraded
        plan recorded under one backend replays under the other."""
        topo = Mesh2D(4)
        perm = Permutation.random(16, rng)
        model = FaultModel(link_fail_fraction=0.15, seed=5)
        cache = PlanCache()
        first = route_permutation(
            topo, perm, backend="numpy", fault_model=model, cache=cache
        )
        assert cache.misses == 1
        replay = route_permutation(
            topo, perm, backend="indexed", fault_model=model, cache=cache
        )
        assert cache.hits == 1
        assert replay.schedule.steps == first.schedule.steps
        assert replay.stats == first.stats


class TestCupyUnavailable:
    """The cupy backend is gone: its name is an unknown core."""

    def test_missing_cupy_is_a_clear_error(self):
        with pytest.raises(ValueError, match="unknown engine backend 'cupy'"):
            resolve_backend("cupy")
        with pytest.raises(ValueError, match="unknown engine backend 'cupy'"):
            route_permutation(
                Mesh2D(2), bit_reversal(4), backend="cupy", cache=False
            )

    def test_cupy_absent_from_available_backends(self):
        assert "cupy" not in ENGINE_BACKENDS
