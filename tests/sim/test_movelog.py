"""The move log is the recorded form of a run; step dicts are a view.

The engine records every run as a :class:`~repro.sim.plancache.MoveLog`
(per-step move counts plus flat packet-id and node arrays), the plan cache
stores and replays that log, and step dicts are built only when a caller
reads them.  These tests pin down that a route job on the service path
builds no step dict at all, that a plan read from disk keeps only its
int32 arrays, and that the dicts, when built, are the engine's in
insertion order.
"""

import tracemalloc

import pytest

import repro.sim.engine as engine_mod
from repro.routing import bit_reversal
from repro.service.jobs import execute_route
from repro.sim import PlanCache, route_demands, route_permutation
from repro.sim.plancache import MoveLog, plan_key
from repro.sim.routers import router_for
from repro.sim.task import build_topology, build_workload

#: Route-cold's largest fault-free shape: 4,096 packets, 173,936 moves.
BODY = {"topology": "mesh2d", "n": 4096, "workload": "dense-permutation",
        "seed": 7}


def _ordered(steps):
    return [list(step.items()) for step in steps]


@pytest.fixture
def dict_builds(monkeypatch):
    """Every call of ``MoveLog.dicts`` and the engine's ``_step_moves``."""
    calls = []
    dicts, step_moves = MoveLog.dicts, engine_mod._step_moves

    def spy_dicts(self):
        calls.append("MoveLog.dicts")
        return dicts(self)

    def spy_step_moves(*args):
        calls.append("_step_moves")
        return step_moves(*args)

    monkeypatch.setattr(MoveLog, "dicts", spy_dicts)
    monkeypatch.setattr(engine_mod, "_step_moves", spy_step_moves)
    return calls


def test_execute_route_builds_no_step_dict(dict_builds, tmp_path):
    """A cold job and its replay from disk read only the counters."""
    params = {**BODY, "plan_root": str(tmp_path)}
    cold = execute_route(params)
    warm = execute_route(params)
    assert not cold["cached"] and warm["cached"]
    assert cold["stats"] == warm["stats"] and cold["stats"]["steps"] > 0
    assert dict_builds == []


def test_routed_demands_build_steps_on_first_read(dict_builds):
    topology = build_topology("torus2d", 64)
    sources, dests = build_workload("dense-permutation", 64, 3)
    routed = route_demands(topology, list(zip(sources, dests)))
    assert dict_builds == []
    assert routed.steps is routed.steps  # built once, then kept
    assert dict_builds == ["MoveLog.dicts"]
    assert routed.demands == tuple(zip(sources, dests))


def test_on_step_is_the_only_per_step_dict(dict_builds):
    seen = []
    topology = build_topology("hypercube", 64)
    sources, dests = build_workload("dense-permutation", 64, 3)
    routed = route_demands(
        topology, list(zip(sources, dests)),
        on_step=lambda step, moves, stats: seen.append(list(moves.items())),
    )
    assert dict_builds == ["_step_moves"] * routed.stats.steps
    assert seen == _ordered(routed.steps)


def test_disk_get_retains_only_the_int32_arrays(tmp_path):
    """A disk-tier ``get`` of route-cold's mesh2d N=4,096 dense plan keeps
    at most 3x its int32 array bytes alive (dict plans kept about 12x),
    and replays the live run's step dicts in insertion order."""
    topology = build_topology(BODY["topology"], BODY["n"])
    sources, dests = build_workload(BODY["workload"], BODY["n"], BODY["seed"])
    live = route_demands(
        topology, list(zip(sources, dests)), cache=PlanCache(tmp_path)
    )
    key = plan_key(topology, sources, dests, router_for(topology), "overtaking")
    key.digest  # noqa: B018 - computed outside the measured window
    reader = PlanCache(tmp_path)
    tracemalloc.start()
    try:
        plan = reader.get(key)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan is not None and reader.hits == 1 and reader.corrupt == 0
    moves = plan.moves.pids.size
    assert moves == live.stats.total_hops == 173_936
    assert plan.moves.pids.dtype.itemsize == plan.moves.nodes.dtype.itemsize == 4
    array_bytes = 2 * 4 * moves
    assert retained <= 3 * array_bytes, (retained, array_bytes)
    assert _ordered(plan.replay_steps()) == _ordered(live.steps)
    assert plan.replay_stats() == live.stats


def test_log_round_trips_through_step_dicts():
    routed = route_permutation(build_topology("hypermesh2d", 64), bit_reversal(64))
    steps = routed.schedule.steps
    log = MoveLog.from_steps(steps)
    assert _ordered(log.dicts()) == _ordered(steps)
    assert MoveLog.from_steps(log.dicts()) == log
    assert log.lengths.size == routed.stats.steps
    assert log.lengths.tolist() == routed.stats.per_step_moves


def test_dicts_are_fresh_and_share_their_ints():
    topology = build_topology("mesh2d", 1024)
    sources, dests = build_workload("dense-permutation", 1024, 5)
    log = route_demands(topology, list(zip(sources, dests))).moves
    first, second = log.dicts(), log.dicts()
    assert first == second and first is not second
    assert all(a is not b for a, b in zip(first, second))
    # One int object per id, however many moves name it.
    objects = {id(x) for step in first for item in step.items() for x in item}
    assert len(objects) <= 1024


def test_the_log_is_read_only():
    topology = build_topology("mesh2d", 16)
    log = route_demands(topology, [(0, 15), (15, 0)]).moves
    for values in (log.lengths, log.pids, log.nodes):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1
