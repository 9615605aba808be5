"""Property tests for the lower-bound certifier (:mod:`repro.bounds`).

The soundness obligations, stated as hypothesis properties:

* **never above achieved** — no validated schedule (constructive routes
  and adaptively routed random demand sets alike) may beat its floor;
* **relabeling invariance** — the floor depends on the demand *multiset*,
  not the order packets are listed in;
* **monotone in N** — for the structured workload families (bit reversal,
  matrix transpose) the floor never shrinks as the machine grows;
* **tightening under faults** — removing links (or degrading nets) can
  only raise the floor, and removing *more* links never lowers it again;
  a fault set that disconnects a demand escalates to
  :class:`~repro.faults.UnroutableError` (an infinite floor), never to a
  smaller number;
* **drop discounting is monotone** — certifying against more adversarial
  drops only ever weakens the floor, so a lossy run cannot be failed for
  work it provably did not do;
* **equal to the per-packet loop** — the vectorized certifier returns
  exactly the floors of a scalar reference (one ``distance`` call per
  packet, capacities walked from ``links``/``nets``), faults and drops
  included.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bounds import BoundViolation, certify, certify_schedule, step_lower_bound
from repro.faults import FaultModel, UnroutableError
from repro.faults.model import resolve_faults
from repro.networks.base import HypergraphTopology
from repro.networks import Hypercube, Hypermesh2D, Mesh2D, Torus2D
from repro.routing import Permutation, bit_reversal
from repro.routing.families import matrix_transpose
from repro.sim import route_demands
from repro.sim.engine import route_permutation
from repro.sim.task import build_topology

TOPOLOGIES = {
    "mesh3": lambda: Mesh2D(3),
    "mesh4": lambda: Mesh2D(4),
    "torus4": lambda: Torus2D(4),
    "cube3": lambda: Hypercube(3),
    "cube4": lambda: Hypercube(4),
    "hm4": lambda: Hypermesh2D(4),
}


@st.composite
def topology_and_demands(draw):
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
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=k,
                max_size=k,
            )
        )
    else:
        hot = draw(st.integers(0, n - 1))
        srcs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        demands = [(s, hot) for s in srcs]
    return topo, demands


@given(topology_and_demands(), st.sampled_from(["overtaking", "fifo"]))
def test_bound_never_exceeds_routed_steps(case, arbitration):
    """Soundness against the engine: certification must always succeed."""
    topo, demands = case
    routed = route_demands(topo, demands, arbitration=arbitration)
    cert = certify(topo, demands, routed.stats.steps)
    assert cert.holds and cert.bound <= routed.stats.steps


@given(st.sampled_from(sorted(TOPOLOGIES)), st.randoms(use_true_random=False))
def test_bound_never_exceeds_validated_schedule(name, rng):
    """Soundness against the constructive routes: a validated
    CommSchedule's step count is never undercut by its own floor."""
    topo = TOPOLOGIES[name]()
    n = topo.num_nodes
    dests = list(range(n))
    rng.shuffle(dests)
    schedule = route_permutation(topo, Permutation(dests)).schedule
    schedule.validate()
    cert = certify_schedule(schedule)
    assert cert.bound <= schedule.num_steps


@given(topology_and_demands(), st.randoms(use_true_random=False))
def test_bound_invariant_under_demand_relabeling(case, rng):
    """The floor is a function of the demand multiset: shuffling the
    packet list (relabeling packet ids) changes nothing."""
    topo, demands = case
    bound, witness = step_lower_bound(topo, demands)
    shuffled = list(demands)
    rng.shuffle(shuffled)
    bound2, witness2 = step_lower_bound(topo, shuffled)
    assert bound == bound2
    assert witness["kinds"] == witness2["kinds"]


@pytest.mark.parametrize(
    "topology", ["mesh2d", "torus2d", "hypercube", "hypermesh2d"]
)
@pytest.mark.parametrize("family", ["bit-reversal", "transpose"])
def test_bound_monotone_in_machine_size(topology, family):
    """Growing the machine never shrinks the floor of the structured
    workload families every topology supports."""
    bounds = []
    for n in (4, 16, 64, 256):
        topo = build_topology(topology, n)
        side = math.isqrt(n)
        perm = (
            bit_reversal(n)
            if family == "bit-reversal"
            else matrix_transpose(side, side)
        )
        bound, _ = step_lower_bound(
            topo, list(enumerate(perm.destinations.tolist()))
        )
        bounds.append(bound)
    assert bounds == sorted(bounds), bounds


@st.composite
def p2p_topology_and_link_sets(draw):
    """A point-to-point machine, a demand set, and nested link-kill sets
    ``smaller ⊆ larger`` for the tightening property."""
    name = draw(st.sampled_from(["mesh3", "mesh4", "torus4", "cube3", "cube4"]))
    topo, demands = None, None
    topo = TOPOLOGIES[name]()
    n = topo.num_nodes
    dests = draw(st.permutations(list(range(n))))
    demands = list(zip(range(n), dests))
    links = sorted(topo.links())
    subset = draw(
        st.lists(st.sampled_from(links), unique=True, max_size=4)
    )
    extra = draw(st.lists(st.sampled_from(links), unique=True, max_size=3))
    larger = sorted(set(subset) | set(extra))
    return topo, demands, tuple(subset), tuple(larger)


@given(p2p_topology_and_link_sets())
def test_bounds_tighten_as_links_are_removed(case):
    """clean <= faulted(smaller kill set) <= faulted(larger kill set),
    with disconnection (an infinite floor) as the only escape — and once
    a kill set disconnects a demand, every superset must too."""
    topo, demands, smaller, larger = case
    clean, _ = step_lower_bound(topo, demands)

    def bounded(kill):
        model = FaultModel(seed=1, link_failures=kill)
        try:
            return step_lower_bound(topo, demands, fault_model=model)[0]
        except UnroutableError:
            return None  # infinite floor

    small_bound = bounded(smaller)
    large_bound = bounded(larger)
    if small_bound is None:
        assert large_bound is None
        return
    assert small_bound >= clean
    if large_bound is not None:
        assert large_bound >= small_bound


@given(
    st.lists(st.integers(0, 15), unique=True, min_size=1, max_size=4),
)
def test_bounds_tighten_as_nets_degrade(degraded):
    """Hypergraph tightening axis: serializing nets never loosens the
    floor (and hard-down nets tighten at least as much as degraded)."""
    topo = Hypermesh2D(4)
    n = topo.num_nodes
    perm = bit_reversal(n)
    demands = list(enumerate(perm.destinations.tolist()))
    clean, _ = step_lower_bound(topo, demands)
    model = FaultModel(seed=1, degraded_nets=tuple(d % topo.num_nets() for d in degraded))
    faulted, _ = step_lower_bound(topo, demands, fault_model=model)
    assert faulted >= clean


@given(topology_and_demands(), st.integers(0, 6))
def test_drop_discounting_is_monotone(case, k):
    """More adversarial drops can only weaken the floor — and certifying
    a lossy run with its true drop count must therefore always hold."""
    topo, demands = case
    with_k, _ = step_lower_bound(topo, demands, dropped=k)
    with_more, _ = step_lower_bound(topo, demands, dropped=k + 1)
    assert with_more <= with_k


@given(topology_and_demands())
def test_violation_is_raised_below_the_floor(case):
    """The hard-error contract: any achieved value below the floor raises
    BoundViolation carrying the offending certificate."""
    topo, demands = case
    bound, _ = step_lower_bound(topo, demands)
    if bound == 0:
        return
    with pytest.raises(BoundViolation) as exc:
        certify(topo, demands, bound - 1)
    assert exc.value.certificate.bound == bound
    assert not exc.value.certificate.holds


def _reference_floor(topo, demands, model, k):
    """The per-packet loop form of :func:`step_lower_bound`: ``(kinds,
    capacities)``, or ``None`` where the floor is infinite."""
    resolved = resolve_faults(model, topo) if model is not None else None
    faulted = resolved is not None and resolved.structural
    moving = [(s, d) for s, d in demands if s != d]
    if not moving or k >= len(moving):
        return {"bisection": 0, "distance": 0, "ports": 0, "work": 0}, {}
    n, half = topo.num_nodes, topo.num_nodes // 2
    if faulted:
        graph = resolved.surviving_graph(topo)
        dists = [graph.distances_list(d)[s] for s, d in moving]
        if min(dists) < 0:
            return None
    else:
        dists = [topo.distance(s, d) for s, d in moving]
    if isinstance(topo, HypergraphTopology):
        down = resolved.down_nodes if faulted else frozenset()
        serial = resolved.degraded_nets if faulted else frozenset()
        alive = [
            (i, [m for m in net if m not in down])
            for i, net in enumerate(topo.nets())
            if not (faulted and resolved.net_down(i))
        ]
        cut = 0
        for i, members in alive:
            left = sum(1 for m in members if m < half)
            ports = min(left, len(members) - left)
            cut += 1 if ports and i in serial else ports
        live = [(i, m) for i, m in alive if len(m) > 1]
        channels = [sum(1 for _, m in live if v in m) for v in range(n)]
        total = sum(1 if i in serial else len(m) for i, m in live)
    else:
        adjacency = (graph.adjacency if faulted
                     else [topo.neighbors(v) for v in range(n)])
        cut = sum(1 for u, v in topo.links()
                  if (u < half) != (v < half) and v in adjacency[u])
        channels = [len(adjacency[v]) for v in range(n)]
        total = sum(channels)
    crossing = max(sum(1 for s, d in moving if s < half <= d),
                   sum(1 for s, d in moving if d < half <= s)) - k
    if crossing > 0 and not cut:
        return None
    surviving = sorted(dists)[: len(dists) - k]
    loads = [h - k for ends in zip(*moving)
             for h in [ends.count(v) for v in range(n)]]
    nodes = list(range(n)) * 2
    kinds = {
        "bisection": math.ceil(crossing / cut) if crossing > 0 else 0,
        "distance": max(surviving),
        "ports": max((math.ceil(h / channels[v])
                      for h, v in zip(loads, nodes) if h > 0), default=0),
        "work": math.ceil(sum(surviving) / total),
    }
    return kinds, {"cut_capacity": cut, "total_capacity": total,
                   "max_h": max(max(loads), 0),
                   "total_distance": sum(surviving)}


@st.composite
def fault_models(draw, topo):
    """``None`` or a structural/transient fault model for ``topo``."""
    kind = draw(st.sampled_from(["none", "drops", "structural"]))
    if kind == "none":
        return None
    if kind == "drops":
        return FaultModel(seed=1, drop_prob=0.2)
    nodes = draw(st.lists(st.integers(0, topo.num_nodes - 1), max_size=1))
    if isinstance(topo, HypergraphTopology):
        # A net is either down or degraded, never both.
        nets = draw(st.lists(st.integers(0, topo.num_nets() - 1),
                             max_size=4, unique=True))
        cut = draw(st.integers(0, len(nets)))
        return FaultModel(seed=1, node_failures=nodes,
                          net_failures=nets[:cut], degraded_nets=nets[cut:])
    links = st.lists(st.sampled_from(sorted(topo.links())), max_size=4)
    return FaultModel(seed=1, node_failures=nodes, link_failures=draw(links))


@given(st.data(), topology_and_demands(), st.integers(0, 3))
def test_floor_equals_the_per_packet_reference(data, case, k):
    topo, demands = case
    model = data.draw(fault_models(topo))
    want = _reference_floor(topo, demands, model, k)
    if want is None:
        with pytest.raises(UnroutableError):
            step_lower_bound(topo, demands, fault_model=model, dropped=k)
        return
    bound, witness = step_lower_bound(
        topo, demands, fault_model=model, dropped=k
    )
    kinds, capacities = want
    assert witness["kinds"] == kinds and bound == max(kinds.values())
    assert {key: witness[key] for key in capacities} == capacities
