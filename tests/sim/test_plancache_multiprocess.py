"""Multi-process hardening of the plan cache's on-disk tier.

Two worker processes hammer one plan root concurrently — distinct keys,
plus one shared key both sides keep re-recording — and the tier must come
out sane: every blob parses and replays, and no staged tmp files survive.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.sim.plancache import CachedPlan, PlanCache, PlanKey

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required for in-test worker functions",
)

PUTS_PER_WORKER = 20  # per worker: PUTS distinct keys + PUTS shared-key puts


def _plan(marker: int) -> CachedPlan:
    return CachedPlan(
        steps=({0: marker},),
        stats_fields={
            "steps": 1,
            "total_hops": 1,
            "max_queue_depth": 1,
            "blocked_moves": 0,
            "delivered": 1,
            "dropped": 0,
            "retried": 0,
            "per_step_moves": [1],
        },
    )


def _key(topology: str, demands: str) -> PlanKey:
    return PlanKey(
        topology=topology,
        demands=demands,
        router="mesh-dimension-order",
        arbitration="overtaking",
    )


def _hammer(root: str, worker: int, barrier) -> None:
    cache = PlanCache(root)
    barrier.wait()  # maximize overlap: both workers start writing together
    for i in range(PUTS_PER_WORKER):
        cache.put(_key(f"worker{worker}", f"demand{i}"), _plan(i))
        # The contended path: both workers re-record the same digest.
        cache.put(_key("shared", "same-demands"), _plan(worker))


class TestTwoProcessHammer:
    def test_concurrent_writers_leave_a_sane_tier(self, tmp_path):
        root = tmp_path / "plans"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_hammer, args=(str(root), w, barrier))
            for w in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0

        cache = PlanCache(root)
        blobs = cache.disk_blobs()
        # 2 * PUTS distinct keys + 1 shared key.
        assert len(blobs) == 2 * PUTS_PER_WORKER + 1
        for path in blobs:
            payload = json.loads(path.read_text())  # parses: no torn blob
            CachedPlan.from_payload(payload)  # and replays: counters typed
        # The contended digest holds one complete plan from either worker.
        shared = cache.get(_key("shared", "same-demands"))
        assert shared is not None
        assert shared.steps[0][0] in (0, 1)

        # No staged tmp litter.
        assert list(root.glob("*.tmp")) == []
        assert list(root.glob(".*.tmp")) == []
        assert all(not p.name.startswith(("_", ".")) for p in blobs)


class TestPersistentCounters:
    """Counters and litter of a disk-backed (persistent) tier."""

    def test_store_and_corrupt_per_process(self, tmp_path):
        root = tmp_path / "plans"
        cache = PlanCache(root)
        key = _key("t", "d")
        cache.put(key, _plan(0))
        assert cache.stores == 1

        # A second process (modelled by a fresh cache) counts its own.
        other = PlanCache(root)
        other.put(_key("t", "d2"), _plan(1))
        assert (cache.stores, other.stores) == (1, 1)

        # A corrupt blob is a counted miss, not a crash.
        cache.blob_path(key).write_text("{ not json")
        fresh = PlanCache(root)
        assert fresh.get(key) is None
        assert fresh.corrupt == 1

    def test_clear_sweeps_tmp_litter(self, tmp_path):
        root = tmp_path / "plans"
        cache = PlanCache(root)
        cache.put(_key("t", "d"), _plan(0))
        stray = root / ".deadbeef.12345.0.tmp"  # a killed worker's leavings
        stray.write_text("torn")
        removed = cache.clear()
        assert removed == 1
        assert not stray.exists()

    def test_counters_include_coalesced_and_inflight(self):
        cache = PlanCache()
        counters = cache.counters()
        assert counters["coalesced"] == 0
        assert counters["inflight"] == 0
        cache.coalesced += 3
        cache.inflight = 2
        assert cache.counters()["coalesced"] == 3
        assert cache.counters()["inflight"] == 2
