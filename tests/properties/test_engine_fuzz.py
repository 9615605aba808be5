"""Differential fuzz harness for the routing engine (``fuzz`` marker).

Hypothesis generates random small machines (mesh / torus / hypercube /
hypermesh), random demand sets, and arbitration policies, then checks the
load-bearing equivalences end to end:

* the engine's one core is **bit-identical** to the frozen seed loop in
  :mod:`repro.sim._reference` (overtaking arbitration — the only policy
  the seed loop implements);
* it is bit-identical to the degraded oracle with an empty fault model —
  step dicts in the same insertion order, same stats — under both
  arbitration policies;
* a cached replay equals live routing, schedule and stats alike;
* attaching a fault-free :class:`~repro.faults.FaultModel` is a no-op —
  the engine must take its fault-free path and produce the identical
  output, under either arbitration policy;
* the **degraded axis**: for random *enabled* fault configs (link kills,
  seeded drops + retries, degraded hypermesh nets) the core is
  bit-identical to the degraded oracle — and when faults partition the
  machine, both raise the same :class:`~repro.faults.UnroutableError`;
* ``"fifo"`` arbitration is also self-consistent: rerunning is
  deterministic and every packet ends at its destination;
* the **certification axis**: every fuzz-generated run, faulted and
  fault-free, must pass :mod:`repro.bounds` certification.
  A bound violation means either the engine beat physics or the bound is
  unsound; both are fuzz failures, reported with a pickled repro case.

These are deselected from the default run by the ``-m 'not fuzz'`` in
``addopts`` (tier-1 stays fast); the CI fuzz job re-selects them with
``-m fuzz`` under the pinned ``ci`` hypothesis profile.
"""

from __future__ import annotations

import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bounds import BoundViolation, certify
from repro.faults import FaultModel, UnroutableError
from repro.networks import Hypercube, Hypermesh, Hypermesh2D, Mesh2D, Torus2D
from repro.networks.base import ChannelModel
from repro.sim import PlanCache, route_demands
from repro.sim._reference import reference_route_core, route_core_degraded
from repro.sim.routers import router_for

pytestmark = pytest.mark.fuzz

TOPOLOGIES = {
    "mesh2": lambda: Mesh2D(2),
    "mesh3": lambda: Mesh2D(3),
    "mesh4": lambda: Mesh2D(4),
    "torus3": lambda: Torus2D(3),
    "torus4": lambda: Torus2D(4),
    "cube3": lambda: Hypercube(3),
    "cube4": lambda: Hypercube(4),
    "hm2x4": lambda: Hypermesh2D(4),
    "hm3d2": lambda: Hypermesh(3, 2),
}


@st.composite
def topology_and_demands(draw):
    """A random small machine plus a random multiset of packets."""
    topo = TOPOLOGIES[draw(st.sampled_from(sorted(TOPOLOGIES)))]()
    n = topo.num_nodes
    kind = draw(st.sampled_from(["permutation", "h-relation", "hotspot"]))
    if kind == "permutation":
        dests = draw(st.permutations(list(range(n))))
        demands = list(zip(range(n), dests))
    elif kind == "h-relation":
        k = draw(st.integers(min_value=1, max_value=2 * n))
        demands = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ),
                min_size=k,
                max_size=k,
            )
        )
    else:  # everyone targets one node: worst-case contention
        hot = draw(st.integers(0, n - 1))
        srcs = draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n)
        )
        demands = [(s, hot) for s in srcs]
    return topo, demands


def _as_comparable(routed):
    """Schedule + the stats fields that define bit-identity (host timing
    excluded by RoutingStats.__eq__ already)."""
    return tuple(sorted(d.items()) for d in routed.steps), routed.stats


def _oracle(topo, demands, arbitration, model):
    """The degraded oracle's ``(steps, stats)``; raises what it raises."""
    return route_core_degraded(
        topo, [s for s, _ in demands], [d for _, d in demands],
        router_for(topo), 10_000, model, arbitration=arbitration,
    )


def _assert_matches(routed, want):
    """Bit-identity: step dicts in insertion order, and stats."""
    steps, stats = want
    assert [list(s.items()) for s in routed.steps] == [
        list(s.items()) for s in steps
    ]
    assert routed.stats == stats


def _certified(topo, demands, routed, model=None):
    """Certify a fuzz-generated run against its analytic floor.

    An ``achieved < bound`` outcome is a fuzz failure: the offending
    (topology, demands, fault model, achieved) tuple is pickled next to the
    system tempdir so the case can be replayed outside hypothesis, and the
    test fails with the certificate and the pickle path in the message.
    """
    kwargs = {}
    if model is not None:
        kwargs = {"fault_model": model, "dropped": routed.stats.dropped}
    try:
        certify(topo, demands, routed.stats.steps, **kwargs)
    except BoundViolation as exc:
        case = {
            "topology": repr(topo),
            "demands": list(demands),
            "fault_model": model,
            "achieved": routed.stats.steps,
            "certificate": exc.certificate.to_dict(),
        }
        path = Path(tempfile.mkdtemp(prefix="repro-fuzz-")) / "violation.pickle"
        path.write_bytes(pickle.dumps(case))
        pytest.fail(f"bound violation: {exc} (repro case pickled to {path})")


@given(topology_and_demands())
def test_engine_matches_reference(case):
    topo, demands = case
    routed = route_demands(topo, demands)
    sources = [s for s, _ in demands]
    dests = [d for _, d in demands]
    _assert_matches(
        routed,
        reference_route_core(
            topo, sources, dests, router_for(topo), max_steps=10_000
        ),
    )
    _certified(topo, demands, routed)


@given(topology_and_demands(), st.sampled_from(["overtaking", "fifo"]))
def test_engine_matches_the_degraded_oracle(case, arbitration):
    """Any (machine, demands, arbitration) draw must reproduce the
    degraded oracle with an empty fault model exactly — including each
    step dict's insertion order, which the plan cache serializes."""
    topo, demands = case
    routed = route_demands(topo, demands, arbitration=arbitration)
    _assert_matches(routed, _oracle(topo, demands, arbitration, FaultModel()))
    _certified(topo, demands, routed)


@given(topology_and_demands(), st.sampled_from(["overtaking", "fifo"]))
def test_cached_replay_equals_live_routing(case, arbitration):
    topo, demands = case
    # A private instance, not memory_cache(): that one is a process-wide
    # singleton whose counters accumulate across hypothesis examples.
    cache = PlanCache()
    live = route_demands(topo, demands, arbitration=arbitration, cache=cache)
    assert cache.counters()["misses"] == 1
    replay = route_demands(topo, demands, arbitration=arbitration, cache=cache)
    assert cache.counters()["hits"] == 1
    assert _as_comparable(replay) == _as_comparable(live)


@given(topology_and_demands(), st.sampled_from(["overtaking", "fifo"]))
def test_disabled_fault_model_is_a_noop(case, arbitration):
    topo, demands = case
    plain = route_demands(topo, demands, arbitration=arbitration)
    with_model = route_demands(
        topo, demands, arbitration=arbitration, fault_model=FaultModel(seed=7)
    )
    assert _as_comparable(with_model) == _as_comparable(plain)


@st.composite
def topology_demands_and_faults(draw):
    """A random machine + demands + an *enabled* fault configuration.

    Hypergraph machines draw degraded/hard-down nets (their links are
    nets); point-to-point machines draw a link-kill fraction.  Both mix in
    seeded drop draws so the retry/drop accounting is fuzzed too.
    """
    topo, demands = draw(topology_and_demands())
    hyper = topo.channel_model is ChannelModel.HYPERGRAPH_NET
    drop = draw(st.sampled_from([0.0, 0.2, 0.5]))
    kwargs = {
        "drop_prob": drop,
        "retry_limit": draw(st.integers(0, 4)),
        "seed": draw(st.integers(0, 2**16)),
    }
    if hyper:
        num_nets = topo.num_nets()
        kwargs["degraded_nets"] = tuple(
            draw(
                st.lists(
                    st.integers(0, num_nets - 1), unique=True, max_size=2
                )
            )
        )
        if drop == 0.0 and not kwargs["degraded_nets"]:
            kwargs["degraded_nets"] = (0,)
    else:
        frac = draw(st.sampled_from([0.0, 0.08, 0.15]))
        if drop == 0.0 and frac == 0.0:
            frac = 0.08
        kwargs["link_fail_fraction"] = frac
    return topo, demands, FaultModel(**kwargs)


@given(topology_demands_and_faults(), st.sampled_from(["overtaking", "fifo"]))
def test_degraded_engine_matches_the_degraded_oracle(case, arbitration):
    """The degraded differential axis: any (machine, demands, faults,
    arbitration) draw must reproduce the degraded oracle exactly — step
    dicts in insertion order, stats including retried and dropped, and the
    same seeded drop-draw sequence.  Partitioning faults must raise the
    same :class:`UnroutableError` from both."""
    topo, demands, model = case
    try:
        want = _oracle(topo, demands, arbitration, model)
    except UnroutableError as exc:
        with pytest.raises(UnroutableError) as got:
            route_demands(
                topo, demands, arbitration=arbitration, fault_model=model,
                cache=False,
            )
        assert str(got.value) == str(exc)
        return
    routed = route_demands(
        topo, demands, arbitration=arbitration, fault_model=model,
        cache=False,
    )
    _assert_matches(routed, want)
    _certified(topo, demands, routed, model)


@given(topology_and_demands())
def test_fifo_arbitration_is_deterministic(case):
    topo, demands = case
    a = route_demands(topo, demands, arbitration="fifo")
    b = route_demands(topo, demands, arbitration="fifo")
    assert _as_comparable(a) == _as_comparable(b)
    _certified(topo, demands, a)
    # Every packet ends at its destination, one hop per step per packet.
    position = {pid: src for pid, (src, _) in enumerate(demands)}
    for step in a.steps:
        for pid, node in step.items():
            assert node != position[pid]
            position[pid] = node
    for pid, (_, dst) in enumerate(demands):
        assert position[pid] == dst
