"""Unit tests for the degraded engine path: accounting, serialization,
no-op equivalence, and the engine-level fault plumbing."""

from __future__ import annotations

import pytest

from repro.bounds import certify
from repro.faults import FaultModel, UnroutableError
from repro.networks import Hypermesh2D, Mesh2D
from repro.routing import Permutation
from repro.sim import (
    PlanCache,
    ScheduleError,
    route_demands,
    route_permutation,
)
from repro.sim._reference import route_core_degraded
from repro.sim.routers import router_for
from repro.sim.task import build_topology


def _reversal(n: int) -> list[tuple[int, int]]:
    return [(i, n - 1 - i) for i in range(n)]


class TestNoOpContract:
    def test_absent_and_disabled_models_are_identical(self):
        topo = Mesh2D(4)
        perm = Permutation(list(reversed(range(16))))
        plain = route_permutation(topo, perm)
        attached = route_permutation(topo, perm, fault_model=FaultModel(seed=3))
        assert attached.schedule.steps == plain.schedule.steps
        assert attached.stats == plain.stats

    def test_disabled_model_keeps_fault_free_stats_shape(self):
        routed = route_demands(
            Mesh2D(4), _reversal(16), fault_model=FaultModel()
        )
        assert routed.stats.dropped == 0
        assert routed.stats.retried == 0


class TestStructuralFaults:
    def test_link_faults_deliver_all_with_detours(self):
        topo = Mesh2D(4)
        model = FaultModel(link_failures={(1, 2), (5, 6), (9, 10)})
        routed = route_demands(topo, _reversal(16), fault_model=model)
        assert routed.stats.delivered == 16
        assert routed.stats.dropped == 0
        # Detours cost hops: the cut column forces longer paths.
        baseline = route_demands(topo, _reversal(16))
        assert routed.stats.total_hops > baseline.stats.total_hops

    def test_moves_respect_down_links(self):
        topo = Mesh2D(4)
        down = {(1, 2), (5, 6), (9, 10)}
        model = FaultModel(link_failures=down)
        routed = route_demands(topo, _reversal(16), fault_model=model)
        positions = {pid: src for pid, (src, _) in enumerate(_reversal(16))}
        for moves in routed.steps:
            for pid, nxt in moves.items():
                here = positions[pid]
                link = (here, nxt) if here < nxt else (nxt, here)
                assert link not in down, "a packet crossed a dead link"
                positions[pid] = nxt

    def test_unroutable_surfaces_from_entry_points(self):
        topo = Mesh2D(4)
        model = FaultModel(node_failures={15})
        with pytest.raises(UnroutableError, match="targets failed node 15"):
            route_demands(topo, [(0, 15)], fault_model=model)


class TestIntermittentDrops:
    def test_retries_are_counted_and_reported(self):
        model = FaultModel(seed=7, drop_prob=0.4)
        events = []
        routed = route_demands(
            Mesh2D(4),
            _reversal(16),
            fault_model=model,
            on_fault=lambda *e: events.append(e),
        )
        assert routed.stats.delivered == 16
        assert routed.stats.retried == len(events) > 0
        assert all(kind == "retry" for kind, *_ in events)

    def test_retry_limit_drops_and_accounts(self):
        model = FaultModel(seed=7, drop_prob=0.9, retry_limit=1)
        routed = route_demands(Mesh2D(4), _reversal(16), fault_model=model)
        assert routed.stats.dropped > 0
        assert routed.stats.delivered + routed.stats.dropped == 16

    def test_retry_limit_zero_drops_on_first_failure(self):
        model = FaultModel(seed=0, drop_prob=0.5, retry_limit=0)
        events = []
        route_demands(
            Mesh2D(3),
            _reversal(9),
            fault_model=model,
            on_fault=lambda *e: events.append(e),
        )
        drops = [e for e in events if e[0] == "drop"]
        assert drops and all(attempts == 1 for *_, attempts in drops)

    def test_all_drops_time_out_with_schedule_error(self):
        model = FaultModel(drop_prob=1.0)
        with pytest.raises(ScheduleError, match="undelivered after"):
            route_demands(Mesh2D(3), [(0, 8)], fault_model=model)

    def test_inflated_max_steps_absorbs_retries(self):
        # The default timeout must scale with drop_prob, or honest runs
        # with heavy intermittent loss would spuriously ScheduleError.
        model = FaultModel(seed=1, drop_prob=0.8)
        routed = route_demands(Mesh2D(3), _reversal(9), fault_model=model)
        assert routed.stats.delivered == 9


class TestDegradedNets:
    def test_degraded_net_serializes_to_one_packet_per_step(self):
        hm = Hypermesh2D(4)
        # All four members of column net 0 rotate within the column.
        demands = [(0, 4), (4, 8), (8, 12), (12, 0)]
        fault_free = route_demands(hm, demands)
        assert fault_free.stats.steps == 1  # one partial permutation
        degraded = route_demands(
            hm, demands, fault_model=FaultModel(degraded_nets={0})
        )
        assert degraded.stats.delivered == 4
        assert degraded.stats.steps == 4  # serialized: one per step
        for moves in degraded.steps:
            assert len(moves) == 1

    def test_down_net_forces_detours(self):
        hm = Hypermesh2D(4)
        demands = [(0, 4)]
        direct = route_demands(hm, demands)
        assert direct.stats.total_hops == 1
        detoured = route_demands(
            hm, demands, fault_model=FaultModel(net_failures={0})
        )
        assert detoured.stats.delivered == 1
        # With column net 0 down, 0's surviving neighbours (its row) and
        # 4's surviving neighbours (its row) are disjoint, so the minimal
        # detour is three hops: row, column, row.
        assert detoured.stats.total_hops == 3


class TestEnginePlumbing:
    def test_faulted_and_fault_free_runs_cache_separately(self):
        topo = Mesh2D(4)
        cache = PlanCache()
        model = FaultModel(seed=1, link_failures={(5, 6)})
        route_demands(topo, _reversal(16), cache=cache)
        route_demands(topo, _reversal(16), fault_model=model, cache=cache)
        assert cache.counters()["stores"] == 2
        assert cache.counters()["hits"] == 0

    def test_on_fault_hook_bypasses_cache_and_counts(self):
        topo = Mesh2D(4)
        cache = PlanCache()
        model = FaultModel(seed=1, drop_prob=0.3)
        route_demands(topo, _reversal(16), fault_model=model, cache=cache)
        route_demands(
            topo,
            _reversal(16),
            fault_model=model,
            cache=cache,
            on_fault=lambda *e: None,
        )
        counters = cache.counters()
        assert counters["fault_bypassed"] == 1
        assert counters["hits"] == 0  # the hooked run never consulted it

    def test_bad_arbitration_message_matches_fault_free_path(self):
        topo = Mesh2D(4)
        with pytest.raises(ValueError, match="unknown arbitration policy"):
            route_demands(topo, _reversal(16), arbitration="psychic")
        with pytest.raises(ValueError, match="unknown arbitration policy"):
            route_demands(
                topo,
                _reversal(16),
                arbitration="psychic",
                fault_model=FaultModel(drop_prob=0.5),
            )

    def test_fifo_arbitration_supported_under_faults(self):
        model = FaultModel(seed=2, link_failures={(5, 6)})
        routed = route_demands(
            Mesh2D(4), _reversal(16), arbitration="fifo", fault_model=model
        )
        assert routed.stats.delivered == 16

    def test_permutation_entry_point_round_trip(self):
        topo = Mesh2D(4)
        perm = Permutation(list(reversed(range(16))))
        model = FaultModel(seed=1, link_failures={(5, 6)})
        routed = route_permutation(topo, perm, fault_model=model)
        routed.schedule.validate()
        assert routed.schedule.final_positions() == list(reversed(range(16)))


#: The severity grid of the degraded-mode sweep at N = 64 and 256:
#: link-failure fractions and drop probabilities (unbounded retries) on
#: the point-to-point families, degraded-net counts on the hypermesh.
SEVERITY_GRID = [
    (topology, n, axis, amount)
    for n in (64, 256)
    for topology in ("mesh2d", "torus2d", "hypercube")
    for axis, amounts in (("link_fail_fraction", (0.0, 0.05, 0.1, 0.2)),
                          ("drop_prob", (0.2, 0.4)))
    for amount in amounts
] + [
    ("hypermesh2d", n, "degraded_nets", count)
    for n in (64, 256)
    for count in (0, 1, 2)
]


class TestSeverityGrid:
    """Every cell of the severity grid, a reversal h-relation:
    the engine and the degraded oracle route it bit-identically (or
    refuse it with the same message), a disabled model routes the fault-free
    baseline, every packet is delivered or dropped, detours and retries
    never shorten the total work, and the steps clear the fault-aware,
    drop-discounted floor."""

    @pytest.mark.parametrize("topology, n, axis, amount", SEVERITY_GRID)
    def test_cell_contracts(self, topology, n, axis, amount):
        topo = build_topology(topology, n)
        if axis == "degraded_nets":
            amount = frozenset(range(amount))
        model = FaultModel(seed=99, **{axis: amount})
        demands = _reversal(topo.num_nodes)
        baseline = route_demands(topo, demands, cache=False)
        def engine():
            routed = route_demands(topo, demands, fault_model=model,
                                   cache=False)
            return routed.steps, routed.stats

        def oracle():  # the degraded loop the engine's core must match
            return route_core_degraded(
                topo, [s for s, _ in demands], [d for _, d in demands],
                router_for(topo),
                100 * (10 * topo.diameter + 10 * topo.num_nodes), model,
            )

        runs, errors = [], set()
        for run in (engine, oracle):
            try:
                steps, stats = run()
            except UnroutableError as exc:
                errors.add(str(exc))
            else:
                runs.append(([list(s.items()) for s in steps], stats))
        if errors:
            assert not runs and len(errors) == 1, errors
            return
        steps, stats = runs[0]
        assert all(run == runs[0] for run in runs)
        if not model.enabled:
            assert stats == baseline.stats
            assert steps == [list(s.items()) for s in baseline.steps]
        assert stats.delivered + stats.dropped == len(demands)
        assert stats.total_hops >= baseline.stats.total_hops or stats.dropped
        cert = certify(topo, demands, stats.steps,
                       fault_model=model if model.enabled else None,
                       dropped=stats.dropped)
        assert 0 <= cert.bound <= stats.steps
