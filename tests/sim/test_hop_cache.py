"""The engine's per-packet proposal cache.

``_route_core`` keeps each in-flight packet's proposed hop (and on a
hypermesh its net) and asks the router again only for the packets that
moved, because a router is a pure function of ``(current, dest)``.  A
blocked or retried packet therefore keeps its proposal across steps.
These cases make that reuse the common case — most grants retry, or a
degraded net serializes its traffic — and check that the move log,
:class:`~repro.sim.stats.RoutingStats` and the ``on_fault`` event
sequence still equal the degraded oracle's, under both arbitration
policies.  A counting router pins the cache itself: the router sees one
row per (packet, position), not one per packet per step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultModel
from repro.networks import Hypermesh2D, Mesh2D, Torus2D
from repro.sim._reference import route_core_degraded
from repro.sim.engine import _route_core
from repro.sim.routers import router_for

#: Structural faults plus drops heavy enough that about 40 % of grants fail
#: their transmission and retry, with a few packets dropped.
RETRY_HEAVY = FaultModel(link_fail_fraction=0.1, drop_prob=0.45,
                         retry_limit=6, seed=1)
#: A hypermesh with a hard-down net (detours), two degraded nets (serial
#: arbitration) and drops.
DEGRADED_NETS = FaultModel(net_failures=(0,), degraded_nets=(3, 9),
                           drop_prob=0.3, retry_limit=4, seed=0)


def both(topology, model, arbitration, router=None):
    """(core, oracle) results: step dicts, stats and on_fault events."""
    n = topology.num_nodes
    sources = list(range(n))
    dests = np.random.default_rng(7).permutation(n).tolist()
    router = router or router_for(topology)
    max_steps = 100 * (10 * topology.diameter + 10 * n)
    got_events, want_events = [], []
    moves, got_stats = _route_core(
        topology, sources, dests, router, max_steps,
        arbitration=arbitration, fault_model=model,
        on_fault=lambda *a: got_events.append(a),
    )
    want_steps, want_stats = route_core_degraded(
        topology, sources, dests, router, max_steps, model,
        arbitration=arbitration, on_fault=lambda *a: want_events.append(a),
    )
    return (
        (moves.dicts(), got_stats, got_events),
        (want_steps, want_stats, want_events),
    )


def assert_same(got, want):
    got_steps, got_stats, got_events = got
    want_steps, want_stats, want_events = want
    assert [list(s.items()) for s in got_steps] == [
        list(s.items()) for s in want_steps
    ]
    assert got_stats == want_stats
    assert got_events == want_events


@pytest.mark.parametrize("arbitration", ["overtaking", "fifo"])
class TestAgainstTheDegradedOracle:
    @pytest.mark.parametrize("topology", [Mesh2D(8), Torus2D(8)],
                             ids=["mesh", "torus"])
    def test_retry_heavy_run(self, topology, arbitration):
        got, want = both(topology, RETRY_HEAVY, arbitration)
        assert_same(got, want)
        stats = got[1]
        assert stats.retried > 0.3 * (stats.retried + stats.total_hops)
        assert stats.dropped > 0

    def test_degraded_net_hypermesh(self, arbitration):
        got, want = both(Hypermesh2D(8), DEGRADED_NETS, arbitration)
        assert_same(got, want)
        stats = got[1]
        assert stats.retried > 0 and stats.blocked_moves > 0


class CountingRouter:
    """A fault-free discipline that counts the rows it is asked for."""

    def __init__(self, base):
        self._base = base
        self.rows = 0

    def next_hop(self, current, dest):
        return self._base.next_hop(current, dest)

    def next_hop_array(self, current, dest):
        self.rows += len(current)
        return self._base.next_hop_array(current, dest)


class TestOneProposalPerPosition:
    @pytest.mark.parametrize("arbitration", ["overtaking", "fifo"])
    def test_fault_free(self, arbitration):
        """Each packet is asked once where it starts and once after each
        hop that does not deliver it: ``total_hops`` rows in all."""
        topology = Mesh2D(8)
        router = CountingRouter(router_for(topology))
        dests = np.random.default_rng(3).permutation(64).tolist()
        _, stats = _route_core(topology, list(range(64)), dests, router,
                               10_000, arbitration=arbitration)
        assert stats.blocked_moves > 0  # waiting packets were not re-asked
        assert router.rows == stats.total_hops

    def test_faulted(self):
        """With drops, a dropped packet was asked where it started but
        never delivered: ``total_hops + dropped`` rows, however many
        grants retried."""
        topology = Mesh2D(8)
        router = CountingRouter(router_for(topology))
        got, want = both(topology, RETRY_HEAVY, "overtaking", router=router)
        stats = got[1]
        assert router.rows == stats.total_hops + stats.dropped
        assert stats.retried > stats.dropped
        assert_same(got, want)
