"""Unit tests for the content-addressed routing plan cache.

Covers the cache-key contract (what invalidates a plan), the in-memory LRU
and on-disk tiers, corruption fallback (a bad blob must mean *live routing*,
never a wrong plan), and the engine's ``cache=`` integration including the
instrumentation bypass.
"""

import base64
import json

import numpy as np
import pytest

from repro.faults import FaultModel
from repro.networks import Hypercube, Hypermesh2D, Mesh2D, Torus2D
from repro.routing import Permutation, bit_reversal
from repro.sim import route_demands, route_permutation
from repro.sim import plancache
from repro.sim.plancache import (
    PLAN_SCHEMA_VERSION,
    CachedPlan,
    MoveLog,
    PlanBlobError,
    PlanCache,
    demands_digest,
    plan_key,
    resolve_cache,
    router_id,
    topology_fingerprint,
)
from repro.sim.routers import (
    HypercubeEcubeRouter,
    MeshDimensionOrderRouter,
    TabulatedRouter,
    router_for,
)


def _key(topology, n=None, *, arbitration="overtaking", router=None):
    n = topology.num_nodes if n is None else n
    perm = bit_reversal(n)
    return plan_key(
        topology,
        list(range(n)),
        perm.destinations.tolist(),
        router or router_for(topology),
        arbitration,
    )


class TestPlanKey:
    def test_same_inputs_same_digest(self):
        a = _key(Mesh2D(4))
        b = _key(Mesh2D(4))  # distinct topology instance, same content
        assert a is not b and a.digest == b.digest

    def test_router_changes_digest(self):
        mesh = Mesh2D(4)
        a = _key(mesh)
        b = _key(mesh, router=TabulatedRouter(MeshDimensionOrderRouter(mesh)))
        # TabulatedRouter unwraps to the inner discipline: same key.
        assert a.digest == b.digest
        c = _key(Hypercube(4))
        assert a.digest != c.digest

    def test_arbitration_changes_digest(self):
        a = _key(Mesh2D(4))
        b = _key(Mesh2D(4), arbitration="fifo")
        assert a.digest != b.digest

    def test_topology_shape_changes_digest(self):
        assert _key(Mesh2D(4)).digest != _key(Torus2D(4)).digest
        assert (
            topology_fingerprint(Hypermesh2D(4))
            != topology_fingerprint(Hypercube(4))
        )

    def test_demands_change_digest(self):
        assert demands_digest([0, 1], [1, 0]) != demands_digest([0, 1], [0, 1])
        # Order matters: packet ids are positional.
        assert demands_digest([0, 1], [1, 0]) != demands_digest([1, 0], [0, 1])

    def test_unregistered_router_is_uncacheable(self):
        class OddRouter:
            def next_hop(self, current, dest):
                return None

        assert router_id(OddRouter()) is None
        perm = bit_reversal(16)
        key = plan_key(
            Mesh2D(4),
            list(range(16)),
            perm.destinations.tolist(),
            OddRouter(),
            "overtaking",
        )
        assert key is None

    def test_schema_version_is_part_of_key(self):
        a = _key(Mesh2D(4))
        assert a.schema == PLAN_SCHEMA_VERSION
        assert str(PLAN_SCHEMA_VERSION) in json.dumps(a.to_dict())


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = PlanCache()
        mesh, perm = Mesh2D(4), bit_reversal(16)
        cold = route_permutation(mesh, perm, cache=cache)
        warm = route_permutation(mesh, perm, cache=cache)
        assert cache.misses == 1 and cache.hits == 1
        assert warm.schedule.steps == cold.schedule.steps
        assert warm.stats == cold.stats

    def test_replay_bit_identical_to_live(self):
        cache = PlanCache()
        for topo in (Mesh2D(4), Torus2D(4), Hypercube(4), Hypermesh2D(4)):
            perm = bit_reversal(topo.num_nodes)
            route_permutation(topo, perm, cache=cache)  # record
            warm = route_permutation(topo, perm, cache=cache)
            live = route_permutation(topo, perm)  # no cache: live routing
            assert warm.schedule.steps == live.schedule.steps
            assert warm.stats == live.stats

    def test_replay_steps_are_fresh_dicts(self):
        cache = PlanCache()
        mesh, perm = Mesh2D(4), bit_reversal(16)
        first = route_permutation(mesh, perm, cache=cache)
        # Mutating one replay must not poison the cached plan.
        second = route_permutation(mesh, perm, cache=cache)
        second.schedule.steps[0].clear()
        third = route_permutation(mesh, perm, cache=cache)
        assert third.schedule.steps == first.schedule.steps

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        meshes = [Mesh2D(2), Mesh2D(3), Mesh2D(4)]
        for mesh in meshes:
            n = mesh.num_nodes
            route_demands(mesh, [(0, n - 1)], cache=cache)
        assert len(cache) == 2 and cache.evictions == 1
        # The oldest entry (Mesh2D(2)) was evicted: re-routing it misses.
        route_demands(Mesh2D(2), [(0, 3)], cache=cache)
        assert cache.misses == 4 and cache.hits == 0


def _raw(text: str) -> bytes:
    return base64.b64decode(text)


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _negative_length(payload: dict) -> None:
    """A -1 length with the total kept, so only the sign check catches it."""
    lengths = payload["steps"]
    lengths[0] += lengths[1] + 1
    lengths[1] = -1


def _duplicate_pid(payload: dict) -> None:
    pids = np.frombuffer(_raw(payload["pids"]), dtype="<i4").copy()
    pids[1] = pids[0]  # step 0 moves more than one packet
    payload["pids"] = _b64(pids.tobytes())


def _list_of_lists(payload: dict) -> None:
    """The schema-2 layout: one ``[pids, nodes]`` pair of lists per step."""
    plan_steps, at = [], 0
    pids = np.frombuffer(_raw(payload.pop("pids")), dtype="<i4").tolist()
    nodes = np.frombuffer(_raw(payload.pop("nodes")), dtype="<i4").tolist()
    for k in payload["steps"]:
        plan_steps.append([pids[at:at + k], nodes[at:at + k]])
        at += k
    payload["steps"] = plan_steps


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path):
        mesh, perm = Mesh2D(4), bit_reversal(16)
        writer = PlanCache(tmp_path)
        cold = route_permutation(mesh, perm, cache=writer)
        assert len(writer.disk_blobs()) == 1
        assert writer.disk_bytes() > 0

        reader = PlanCache(tmp_path)  # fresh process, warm disk
        warm = route_permutation(mesh, perm, cache=reader)
        assert reader.hits == 1 and reader.misses == 0
        assert warm.schedule.steps == cold.schedule.steps
        assert warm.stats == cold.stats

    def test_corrupted_blob_falls_back_to_live_routing(self, tmp_path):
        mesh, perm = Mesh2D(4), bit_reversal(16)
        writer = PlanCache(tmp_path)
        cold = route_permutation(mesh, perm, cache=writer)
        [blob] = writer.disk_blobs()
        blob.write_text("{ not json")

        reader = PlanCache(tmp_path)
        result = route_permutation(mesh, perm, cache=reader)
        assert reader.corrupt == 1 and reader.hits == 0
        assert result.schedule.steps == cold.schedule.steps  # routed live

    def test_truncated_blob_falls_back(self, tmp_path):
        mesh, perm = Mesh2D(4), bit_reversal(16)
        writer = PlanCache(tmp_path)
        route_permutation(mesh, perm, cache=writer)
        [blob] = writer.disk_blobs()
        blob.write_bytes(blob.read_bytes()[: len(blob.read_bytes()) // 2])

        reader = PlanCache(tmp_path)
        result = route_permutation(mesh, perm, cache=reader)
        assert reader.corrupt == 1
        assert result.stats.delivered == 16

    def test_schema_bump_invalidates_old_blobs(self, tmp_path, monkeypatch):
        mesh, perm = Mesh2D(4), bit_reversal(16)
        writer = PlanCache(tmp_path)
        route_permutation(mesh, perm, cache=writer)

        monkeypatch.setattr(plancache, "PLAN_SCHEMA_VERSION", 999)
        reader = PlanCache(tmp_path)
        result = route_permutation(mesh, perm, cache=reader)
        # New schema => new digest => the old blob is simply never found.
        assert reader.hits == 0 and reader.misses == 1
        assert result.stats.delivered == 16

    def test_stale_schema_inside_blob_rejected(self, tmp_path):
        # Same digest but a blob whose recorded schema disagrees (e.g. a
        # hand-edited or half-migrated file) is treated as a miss.
        mesh, perm = Mesh2D(4), bit_reversal(16)
        writer = PlanCache(tmp_path)
        route_permutation(mesh, perm, cache=writer)
        [blob] = writer.disk_blobs()
        payload = json.loads(blob.read_text())
        payload["schema"] = PLAN_SCHEMA_VERSION + 1
        blob.write_text(json.dumps(payload))

        reader = PlanCache(tmp_path)
        route_permutation(mesh, perm, cache=reader)
        assert reader.hits == 0 and reader.misses == 1

    def test_replay_keeps_dict_order(self, tmp_path):
        # A random permutation under a fault model with drops: steps whose
        # insertion order is not ascending packet id.
        mesh = Mesh2D(4)
        perm = Permutation.random(16, np.random.default_rng(5))
        demands = list(enumerate(perm.destinations.tolist()))
        model = FaultModel(seed=3, drop_prob=0.3)
        cold = route_demands(mesh, demands, fault_model=model,
                             cache=PlanCache(tmp_path))
        reader = PlanCache(tmp_path)
        warm = route_demands(mesh, demands, fault_model=model, cache=reader)
        assert reader.hits == 1
        assert [list(s.items()) for s in warm.steps] == [
            list(s.items()) for s in cold.steps
        ]
        assert warm.stats == cold.stats
        assert any(list(s) != sorted(s) for s in cold.steps)

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda p: p.update(pids="@@ not base64 @@"),
                     id="bad-base64"),
        pytest.param(lambda p: p.update(nodes=_b64(_raw(p["nodes"])[:-4])),
                     id="pids-nodes-length-mismatch"),
        pytest.param(lambda p: p["steps"].__setitem__(0, p["steps"][0] + 1),
                     id="lengths-overrun-the-arrays"),
        pytest.param(lambda p: p["steps"].__setitem__(-1, p["steps"][-1] - 1),
                     id="lengths-fall-short"),
        pytest.param(_negative_length, id="negative-length"),
        pytest.param(lambda p: p["steps"].__setitem__(0, 2**70),
                     id="length-past-int64"),
        pytest.param(lambda p: p.update(pids=_b64(_raw(p["pids"]) + b"\0"),
                                        nodes=_b64(_raw(p["nodes"]) + b"\0")),
                     id="partial-item"),
        pytest.param(_duplicate_pid, id="packet-twice-in-a-step"),
        pytest.param(_list_of_lists, id="list-blob-labelled-current"),
        pytest.param(lambda p: p.update(steps=7), id="lengths-not-a-list"),
    ])
    def test_malformed_arrays_count_corrupt(self, tmp_path, mutate):
        mesh, perm = Mesh2D(4), bit_reversal(16)
        writer = PlanCache(tmp_path)
        cold = route_permutation(mesh, perm, cache=writer)
        [blob] = writer.disk_blobs()
        payload = json.loads(blob.read_text())
        mutate(payload)
        blob.write_text(json.dumps(payload))
        with pytest.raises((PlanBlobError, KeyError, TypeError, ValueError)):
            CachedPlan.from_payload(payload)

        reader = PlanCache(tmp_path)
        result = route_permutation(mesh, perm, cache=reader)
        assert reader.corrupt == 1 and reader.hits == 0 and reader.misses == 1
        assert result.schedule.steps == cold.schedule.steps  # routed live

    def test_schema_2_list_blob_is_a_plain_miss(self, tmp_path):
        mesh, perm = Mesh2D(4), bit_reversal(16)
        writer = PlanCache(tmp_path)
        cold = route_permutation(mesh, perm, cache=writer)
        [blob] = writer.disk_blobs()
        payload = json.loads(blob.read_text())
        _list_of_lists(payload)
        payload["schema"] = payload["key"]["schema"] = 2
        blob.write_text(json.dumps(payload))

        reader = PlanCache(tmp_path)
        result = route_permutation(mesh, perm, cache=reader)
        assert reader.hits == 0 and reader.misses == 1 and reader.corrupt == 0
        assert result.schedule.steps == cold.schedule.steps

    def test_non_object_blob_is_corrupt(self, tmp_path):
        mesh, perm = Mesh2D(4), bit_reversal(16)
        writer = PlanCache(tmp_path)
        route_permutation(mesh, perm, cache=writer)
        [blob] = writer.disk_blobs()
        blob.write_text("[1, 2, 3]")
        reader = PlanCache(tmp_path)
        assert route_permutation(mesh, perm, cache=reader).stats.delivered == 16
        assert reader.corrupt == 1 and reader.misses == 1

    def test_ids_past_int32_raise_a_named_error(self):
        plan = CachedPlan(moves=MoveLog.from_steps([{2**31: 1}]),
                          stats_fields={})
        with pytest.raises(PlanBlobError, match="int32"):
            plan.to_payload()

    def test_clear_removes_blobs_and_entries(self, tmp_path):
        cache = PlanCache(tmp_path)
        route_permutation(Mesh2D(4), bit_reversal(16), cache=cache)
        removed = cache.clear()
        assert removed == 1
        assert len(cache) == 0 and cache.disk_blobs() == []


class TestResolveAndDefaults:
    def test_resolve_modes(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        mem = resolve_cache("memory")
        assert mem is resolve_cache(True)  # True is the memory singleton
        cache = PlanCache()
        assert resolve_cache(cache) is cache
        disk = resolve_cache(tmp_path)
        assert disk.root == tmp_path
        with pytest.raises(TypeError):
            resolve_cache(3.14)

    def test_default_cache_none_routes_live(self):
        """``cache=None`` (the default) consults no cache at all."""
        shared = plancache.memory_cache()
        before = shared.counters()
        route_permutation(Mesh2D(4), bit_reversal(16))
        route_permutation(Mesh2D(4), bit_reversal(16))
        assert shared.counters() == before

    def test_instrumented_runs_bypass_the_cache(self):
        cache = PlanCache()
        mesh, perm = Mesh2D(4), bit_reversal(16)
        route_permutation(mesh, perm, cache=cache)
        seen = []
        route_permutation(
            mesh, perm, cache=cache, on_step=lambda i, m, s: seen.append(i)
        )
        route_permutation(mesh, perm, cache=cache, timing=True)
        assert cache.bypassed == 2 and cache.hits == 0
        assert seen  # the traced run really routed live

    def test_unregistered_router_counted_uncacheable(self):
        class OddRouter:
            def __init__(self, mesh):
                self._inner = MeshDimensionOrderRouter(mesh)

            def next_hop(self, current, dest):
                return self._inner.next_hop(current, dest)

        cache = PlanCache()
        mesh = Mesh2D(4)
        route_permutation(mesh, bit_reversal(16), OddRouter(mesh), cache=cache)
        assert cache.uncacheable == 1 and cache.misses == 0

    def test_counters_snapshot(self):
        cache = PlanCache()
        route_permutation(Mesh2D(4), bit_reversal(16), cache=cache)
        counters = cache.counters()
        assert counters["misses"] == 1
        assert set(counters) >= {
            "hits", "misses", "bypassed", "uncacheable", "corrupt", "evictions"
        }


class TestRouteDemandsIntegration:
    def test_h_relation_replay_identical(self, rng):
        cache = PlanCache()
        topo = Hypercube(4)
        demands = [
            (int(s), int(d))
            for s, d in zip(
                rng.integers(0, 16, size=8), rng.integers(0, 16, size=8)
            )
        ]
        cold = route_demands(topo, demands, cache=cache)
        warm = route_demands(topo, demands, cache=cache)
        assert cache.misses == 1 and cache.hits == 1
        assert warm.steps == cold.steps
        assert warm.stats == cold.stats

    def test_distinct_demand_order_routes_separately(self):
        cache = PlanCache()
        mesh = Mesh2D(3)
        route_demands(mesh, [(0, 8), (8, 0)], cache=cache)
        route_demands(mesh, [(8, 0), (0, 8)], cache=cache)
        assert cache.misses == 2 and cache.hits == 0
