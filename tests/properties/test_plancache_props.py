"""Digest-sensitivity properties of the routing-plan cache key.

The plan cache's safety rests on one claim: **any** change to a routing
problem that could change the engine's output changes the
:class:`~repro.sim.plancache.PlanKey` digest.  Hypothesis mutates each key
component — topology, demand set, router, arbitration, and fault model —
one at a time and asserts the digest moves (and never collides across a
generated population).  The fault component gets extra scrutiny: every
field of an enabled :class:`~repro.faults.FaultModel` must perturb the
fingerprint, a disabled model must key identically to no model at all, and
a faulted run must never be served a fault-free blob (the regression the
schema-2 key exists to prevent).

The service's :class:`~repro.service.jobs.PlanKeyMemo` skips that
derivation for requests it has seen, so it gets the same scrutiny: a
memoized key must equal a freshly derived one whatever request field
moves, and a schema bump must re-key rather than serve a stale key.

The blob format round-trips any recorded plan, dict iteration order
included, and a cut ``pids`` or ``nodes`` array never decodes.
"""

from __future__ import annotations

import base64
import hashlib
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults import FaultModel
from repro.networks import Hypercube, Mesh2D, Torus2D
from repro.service.jobs import PlanKeyMemo, RouteRequest
from repro.sim import PlanCache, plan_key, plancache, route_demands
from repro.sim.plancache import (
    CachedPlan,
    MoveLog,
    PlanBlobError,
    PlanKey,
    fault_fingerprint,
)
from repro.sim.routers import router_for
from repro.sim.task import build_topology, build_workload


def _key(topo, demands, arbitration="overtaking", fault_model=None):
    sources = [s for s, _ in demands]
    dests = [d for _, d in demands]
    key = plan_key(
        topo, sources, dests, router_for(topo), arbitration, fault_model
    )
    assert key is not None
    return key


@st.composite
def demand_set(draw, n):
    k = draw(st.integers(1, n))
    return draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=k,
            max_size=k,
        )
    )


@given(demand_set(n=16), st.data())
def test_any_single_demand_mutation_changes_digest(demands, data):
    topo = Mesh2D(4)
    base = _key(topo, demands)
    idx = data.draw(st.integers(0, len(demands) - 1))
    src, dst = demands[idx]
    new_src = data.draw(st.integers(0, 15).filter(lambda v: v != src))
    mutated = list(demands)
    mutated[idx] = (new_src, dst)
    assert _key(topo, mutated).digest != base.digest
    mutated[idx] = (src, data.draw(st.integers(0, 15).filter(lambda v: v != dst)))
    assert _key(topo, mutated).digest != base.digest
    # Demand ORDER is part of the problem (packet ids feed arbitration).
    if len(demands) > 1 and demands[0] != demands[-1]:
        swapped = list(demands)
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        assert _key(topo, swapped).digest != base.digest


@given(demand_set(n=16))
def test_topology_router_and_arbitration_move_the_digest(demands):
    digests = {
        _key(topo, demands, arbitration).digest
        for topo in (Mesh2D(4), Torus2D(4), Hypercube(4))
        for arbitration in ("overtaking", "fifo")
    }
    assert len(digests) == 6  # all distinct: no component is ignored


@st.composite
def enabled_fault_model(draw):
    links = [(i, i + 1) for i in range(0, 14)]
    model = FaultModel(
        seed=draw(st.integers(0, 1000)),
        link_failures=frozenset(
            draw(st.sets(st.sampled_from(links), min_size=1, max_size=4))
        ),
        node_failures=frozenset(draw(st.sets(st.integers(0, 15), max_size=3))),
        drop_prob=draw(st.sampled_from([0.1, 0.25, 0.5])),
        retry_limit=draw(st.sampled_from([None, 0, 2])),
    )
    assert model.enabled
    return model


@given(enabled_fault_model(), st.data())
def test_every_fault_field_perturbs_the_fingerprint(model, data):
    base = model.fingerprint()
    mutations = {
        "seed": model.with_(seed=model.seed + 1),
        "link_failures": model.with_(
            link_failures=model.link_failures | {(14, 15)}
        ),
        "node_failures": model.with_(
            node_failures=model.node_failures
            ^ {data.draw(st.integers(0, 15))}
        ),
        "link_fail_fraction": model.with_(link_fail_fraction=0.5),
        "drop_prob": model.with_(drop_prob=model.drop_prob / 2),
        "retry_limit": model.with_(
            retry_limit=5 if model.retry_limit is None else None
        ),
    }
    for field, mutated in mutations.items():
        assert mutated.fingerprint() != base, f"{field} ignored by fingerprint"
    # And the fingerprint difference propagates into the PlanKey digest.
    demands = [(0, 15), (3, 7)]
    topo = Mesh2D(4)
    assert (
        _key(topo, demands, fault_model=model).digest
        != _key(topo, demands, fault_model=mutations["seed"]).digest
    )


@given(st.lists(enabled_fault_model(), min_size=2, max_size=8))
def test_no_fingerprint_collisions_across_population(models):
    fingerprints = {}
    for model in models:
        fp = model.fingerprint()
        if fp in fingerprints:
            assert fingerprints[fp] == model, "fingerprint collision"
        fingerprints[fp] = model


def test_disabled_model_keys_like_no_model():
    assert fault_fingerprint(None) == "none"
    assert fault_fingerprint(FaultModel(seed=42)) == "none"
    topo = Mesh2D(4)
    demands = [(0, 15)]
    assert (
        _key(topo, demands, fault_model=FaultModel(seed=9)).digest
        == _key(topo, demands, fault_model=None).digest
    )


def test_faulted_run_never_serves_a_fault_free_blob():
    """Regression for the headline cache hazard: an active fault model
    replaying a fault-free plan would silently un-break the machine."""
    topo = Mesh2D(4)
    demands = [(i, 15 - i) for i in range(16)]
    cache = PlanCache()
    fault_free = route_demands(topo, demands, cache=cache)
    assert cache.counters()["stores"] == 1

    model = FaultModel(seed=1, link_failures={(5, 6), (9, 10)})
    faulted = route_demands(topo, demands, fault_model=model, cache=cache)
    counters = cache.counters()
    assert counters["hits"] == 0, "faulted run replayed a fault-free plan"
    assert counters["misses"] == 2 and counters["stores"] == 2

    # Each variant replays only its own blob, bit-identically.
    again_faulted = route_demands(topo, demands, fault_model=model, cache=cache)
    again_free = route_demands(topo, demands, cache=cache)
    assert cache.counters()["hits"] == 2
    assert list(again_faulted.steps) == list(faulted.steps)
    assert again_faulted.stats == faulted.stats
    assert list(again_free.steps) == list(fault_free.steps)
    assert again_free.stats == fault_free.stats
    assert list(faulted.steps) != list(fault_free.steps)


@given(
    st.builds(
        PlanKey,
        topology=st.text(max_size=12),
        demands=st.text(alphabet="0123456789abcdef", max_size=64),
        router=st.text(max_size=12),
        arbitration=st.sampled_from(["overtaking", "fifo"]),
        fault=st.text(max_size=12),
        schema=st.integers(0, 9),
    )
)
def test_cached_digest_equals_a_fresh_hash(key):
    fresh = hashlib.sha256(
        json.dumps(key.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:32]
    assert key.digest == fresh
    assert key.__dict__["digest"] == fresh  # stored on the instance
    assert key.digest is key.digest


# ------------------------------------------------------------- key memo
#: Every fault param a route body can carry, each with a value to move to.
FAULT_PERTURBATIONS = {
    "seed": 11,
    "link_failures": [[0, 1], [2, 3]],
    "node_failures": [5],
    "net_failures": [1],
    "degraded_nets": [2],
    "link_fail_fraction": 0.3,
    "drop_prob": 0.4,
    "retry_limit": 3,
}


def _fresh_key(body: dict):
    """The plan key derived from scratch, not through any request type."""
    topology = build_topology(body["topology"], body["n"])
    sources, dests = build_workload(body["workload"], body["n"], body["seed"])
    fault = body.get("fault")
    return plan_key(
        topology, sources, dests, router_for(topology),
        body.get("arbitration", "overtaking"),
        FaultModel.from_params(fault) if fault else None,
    )


@st.composite
def seeded_body(draw):
    body = {
        "topology": draw(
            st.sampled_from(["mesh2d", "torus2d", "hypercube", "hypermesh2d"])
        ),
        "n": draw(st.sampled_from([16, 64])),
        "workload": draw(
            st.sampled_from(["dense-permutation", "bit-reversal", "sparse-hrelation"])
        ),
        "seed": draw(st.integers(0, 1000)),
        "arbitration": draw(st.sampled_from(["overtaking", "fifo"])),
    }
    if draw(st.booleans()):
        body["fault"] = {"seed": draw(st.integers(0, 9)), "drop_prob": 0.1}
    return body


def _perturbations(body: dict):
    """One body per request field (and per fault param) with it moved."""
    other = {
        "topology": "torus2d" if body["topology"] != "torus2d" else "mesh2d",
        "n": 64 if body["n"] == 16 else 16,
        "workload": (
            "bit-reversal"
            if body["workload"] != "bit-reversal"
            else "dense-permutation"
        ),
        "seed": body["seed"] + 1,
        "arbitration": "fifo" if body["arbitration"] == "overtaking" else "overtaking",
    }
    for name, value in other.items():
        yield name, {**body, name: value}
    fault = body.get("fault", {"seed": 0})
    for name, value in FAULT_PERTURBATIONS.items():
        assert fault.get(name) != value  # the base never holds these values
        yield f"fault.{name}", {**body, "fault": {**fault, name: value}}


@given(seeded_body())
def test_memoized_key_equals_a_fresh_key_under_every_perturbation(body):
    memo = PlanKeyMemo(capacity=64)
    key, packets = memo.keyed(RouteRequest.from_body(body))
    assert key == _fresh_key(body)
    sources, _ = build_workload(body["workload"], body["n"], body["seed"])
    assert packets == len(sources)
    for name, moved in _perturbations(body):
        got, _ = memo.keyed(RouteRequest.from_body(moved))
        assert got == _fresh_key(moved), f"stale memo entry after moving {name}"
    # The base request still finds its own key, not a neighbour's.
    assert memo.keyed(RouteRequest.from_body(body))[0] == key


def test_schema_bump_rekeys_memoized_requests(monkeypatch):
    body = {"topology": "mesh2d", "n": 16, "workload": "dense-permutation", "seed": 3}
    memo = PlanKeyMemo(capacity=4)
    job = RouteRequest.from_body(body)
    before, _ = memo.keyed(job)
    assert before.schema == plancache.PLAN_SCHEMA_VERSION

    monkeypatch.setattr(plancache, "PLAN_SCHEMA_VERSION", before.schema + 1)
    after, _ = memo.keyed(job)
    assert after.schema == before.schema + 1
    assert after.digest != before.digest
    assert after == _fresh_key(body)
    assert len(memo) == 2  # the stale entry is unreachable, not reused


# ------------------------------------------------------------ blob format
#: Counters every recorded plan carries (values are irrelevant here).
_STATS = {"steps": 0, "total_hops": 0, "max_queue_depth": 0,
          "blocked_moves": 0, "delivered": 0, "dropped": 0, "retried": 0,
          "per_step_moves": []}


@st.composite
def recorded_plans(draw):
    """Plans with empty steps, int32-extreme ids and arbitrary (not
    ascending) insertion order within each step."""
    ids = st.integers(0, 2**31 - 1)
    steps = []
    for _ in range(draw(st.integers(0, 5))):
        pids = draw(st.lists(ids, unique=True, max_size=12))
        nodes = draw(st.lists(ids, min_size=len(pids), max_size=len(pids)))
        steps.append(dict(zip(pids, nodes)))
    return CachedPlan(moves=MoveLog.from_steps(steps),
                      stats_fields=dict(_STATS))


def _ordered(steps):
    return [list(step.items()) for step in steps]


@given(recorded_plans())
def test_blob_round_trip_keeps_every_step_in_order(plan):
    payload = json.loads(json.dumps(plan.to_payload()))
    assert _ordered(CachedPlan.from_payload(payload).replay_steps()) == \
        _ordered(plan.replay_steps())
    # And through the disk tier's own blob text, read by a fresh cache.
    key = PlanKey(topology="t", demands="d", router="r",
                  arbitration="overtaking")
    with tempfile.TemporaryDirectory() as root:
        PlanCache(root).put(key, plan)
        reader = PlanCache(root)
        replayed = reader.get(key)
        assert reader.corrupt == 0 and replayed is not None
        assert _ordered(replayed.replay_steps()) == _ordered(
            plan.replay_steps())


@given(recorded_plans().filter(lambda p: p.moves.pids.size > 0),
       st.integers(1, 7),
       st.sampled_from(["pids", "nodes"]))
def test_cut_arrays_never_decode(plan, cut, field):
    payload = plan.to_payload()
    raw = base64.b64decode(payload[field])
    payload[field] = base64.b64encode(raw[:-cut]).decode("ascii")
    with pytest.raises(PlanBlobError):
        CachedPlan.from_payload(payload)


@given(recorded_plans().filter(lambda p: p.moves.pids.size > 0), st.data())
def test_a_packet_twice_in_one_step_never_decodes(plan, data):
    """Repeating a move's packet id anywhere inside its step is corrupt;
    the same repeat as a step of its own is a legal plan."""
    payload = plan.to_payload()
    lengths = payload["steps"]
    pids = np.frombuffer(base64.b64decode(payload["pids"]), "<i4")
    nodes = np.frombuffer(base64.b64decode(payload["nodes"]), "<i4")
    step = data.draw(st.sampled_from([s for s, k in enumerate(lengths) if k]))
    start = sum(lengths[:step])
    end = start + lengths[step]
    at = data.draw(st.integers(start, end - 1))

    def with_repeat(where, steps):
        return dict(
            payload, steps=steps,
            pids=_b64(np.insert(pids, where, pids[at])),
            nodes=_b64(np.insert(nodes, where, nodes[at])),
        )

    where = data.draw(st.integers(start, end))
    twice = with_repeat(
        where, lengths[:step] + [lengths[step] + 1] + lengths[step + 1:]
    )
    with pytest.raises(PlanBlobError, match="twice"):
        CachedPlan.from_payload(twice)
    apart = with_repeat(end, lengths[:step + 1] + [1] + lengths[step + 1:])
    replayed = CachedPlan.from_payload(apart).replay_steps()
    assert replayed[step + 1] == {int(pids[at]): int(nodes[at])}


def _b64(values):
    return base64.b64encode(values.astype("<i4").tobytes()).decode("ascii")
