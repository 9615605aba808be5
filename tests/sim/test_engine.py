"""Unit tests for the adaptive routing engine."""

import numpy as np
import pytest

from repro.networks import Hypercube, Hypermesh2D, Mesh2D, Torus2D
from repro.routing import Permutation, bit_reversal, vector_reversal
from repro.sim import route_permutation
from repro.sim.schedule import ScheduleError


class TestBasicRouting:
    def test_identity_takes_zero_steps(self):
        result = route_permutation(Mesh2D(3), Permutation.identity(9))
        assert result.stats.steps == 0
        assert result.schedule.num_steps == 0
        result.schedule.validate()

    def test_neighbor_swap_mesh(self):
        perm = Permutation.from_mapping({0: 1, 1: 0}, 9)
        result = route_permutation(Mesh2D(3), perm)
        assert result.stats.steps == 1
        result.schedule.validate()

    def test_recorded_schedule_always_validates(self, rng):
        for topo in (Mesh2D(4), Torus2D(4), Hypercube(4), Hypermesh2D(4)):
            perm = Permutation.random(16, rng)
            result = route_permutation(topo, perm)
            result.schedule.validate()
            assert result.schedule.logical == perm

    def test_steps_at_least_max_distance(self, rng):
        topo = Mesh2D(4)
        perm = Permutation.random(16, rng)
        result = route_permutation(topo, perm)
        lower = max(
            topo.distance(i, perm[i]) for i in range(16)
        )
        assert result.stats.steps >= lower

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            route_permutation(Mesh2D(3), Permutation.identity(8))


class TestStats:
    def test_hops_equal_total_distance_when_uncongested(self):
        # A single moving packet accrues exactly its distance in hops.
        perm = Permutation.from_mapping({0: 8, 8: 0}, 9)
        result = route_permutation(Mesh2D(3), perm)
        assert result.stats.total_hops == 2 * Mesh2D(3).distance(0, 8)

    def test_delivered_counts_everyone(self, rng):
        perm = Permutation.random(16, rng)
        result = route_permutation(Hypercube(4), perm)
        assert result.stats.delivered == 16

    def test_average_parallelism(self):
        perm = Permutation.from_mapping({0: 1, 1: 0}, 4)
        result = route_permutation(Mesh2D(2), perm)
        assert result.stats.average_parallelism == 2.0

    def test_blocked_moves_counted_under_congestion(self):
        # Packets from (0,0) and (2,0) both turn at (1,0) and then compete
        # for the directed link (1,0) -> (1,1) in the same step: one must
        # lose arbitration.
        perm = Permutation.from_mapping({0: 4, 4: 0, 6: 5, 5: 6}, 9)
        result = route_permutation(Mesh2D(3), perm)
        assert result.stats.blocked_moves > 0
        assert result.stats.max_queue_depth > 1
        result.schedule.validate()

    def test_opposite_direction_movers_never_block(self):
        # Vector reversal on a 1D path: east- and west-bound packets use
        # opposite directed links, so greedy routing never blocks.
        from repro.networks import Mesh

        mesh = Mesh((8,))
        result = route_permutation(mesh, vector_reversal(8))
        assert result.stats.blocked_moves == 0
        assert result.stats.steps == 7  # the corner-interchange distance


class TestPaperFigures:
    def test_mesh_bitrev_steps_4x4(self):
        result = route_permutation(Mesh2D(4), bit_reversal(16))
        # Lower bound: corner interchange 2(side-1) = 6.
        assert result.stats.steps >= 6
        result.schedule.validate()

    def test_hypercube_bitrev_steps(self):
        result = route_permutation(Hypercube(4), bit_reversal(16))
        assert result.stats.steps >= 2  # distance bound for n=4 is ... >= 2
        result.schedule.validate()

    def test_hypermesh_routes_any_permutation_fast(self, rng):
        # Greedy digit routing: close to diameter + small queueing.
        result = route_permutation(Hypermesh2D(4), Permutation.random(16, rng))
        assert result.stats.steps <= 16
        result.schedule.validate()

    def test_torus_bitrev_uses_wraparound(self):
        plain = route_permutation(Mesh2D(8), bit_reversal(64))
        wrapped = route_permutation(Torus2D(8), bit_reversal(64))
        assert wrapped.stats.steps <= plain.stats.steps


class TestGuards:
    def test_max_steps_guard_fires(self):
        perm = vector_reversal(16)
        with pytest.raises(ScheduleError, match="undelivered"):
            route_permutation(Mesh2D(4), perm, max_steps=1)

    def test_shared_net_helper_rejects_point_to_point(self):
        # The seed loop's net lookup raises an explicit TypeError, not an
        # assert: ``python -O`` must not turn the misuse into silent
        # nonsense.
        from repro.sim._reference import _shared_net_id

        with pytest.raises(TypeError, match="HypergraphTopology"):
            _shared_net_id(Mesh2D(3), 0, 1)

    def test_engine_rejects_fake_hypergraph_topology(self):
        # A topology claiming the net channel model without being a
        # HypergraphTopology is a type confusion the engine names directly.
        from repro.networks.base import ChannelModel, Topology

        class FakeNets(Topology):
            """Point-to-point structure mislabeled as a net network."""

            @property
            def channel_model(self):
                return ChannelModel.HYPERGRAPH_NET

            def neighbors(self, node):
                return tuple(m for m in range(self.num_nodes) if m != node)

            def distance(self, a, b):
                return 0 if a == b else 1

            @property
            def diameter(self):
                return 1

            @property
            def node_degree(self):
                return self.num_nodes

            @property
            def num_crossbars(self):
                return 1

        class AnyRouter:
            def next_hop(self, current, dest):
                return dest if current != dest else None

        with pytest.raises(TypeError, match="HypergraphTopology"):
            route_permutation(
                FakeNets(4), Permutation([1, 0, 3, 2]), AnyRouter()
            )


def _overtaking_demands():
    """A 1D path where FIFO order and channel availability disagree.

    Node 1's queue holds three packets in order: pid 0 and pid 1 both want
    the directed link 1 -> 2, pid 2 wants 1 -> 0.  In step 0 pid 0 claims
    the eastbound link, pid 1 is denied — and pid 2, though *behind* pid 1
    in the buffer, finds the westbound link free.
    """
    from repro.networks import Mesh

    return Mesh((4,)), [(1, 3), (1, 2), (1, 0)]


class TestArbitrationPolicies:
    def test_default_policy_lets_later_packets_overtake(self):
        from repro.sim import route_demands

        mesh, demands = _overtaking_demands()
        result = route_demands(mesh, demands)
        # pid 2 moves in step 0 even though pid 1 (ahead of it) is blocked.
        assert result.steps[0] == {0: 2, 2: 0}

    def test_fifo_policy_respects_head_of_line(self):
        from repro.sim import route_demands

        mesh, demands = _overtaking_demands()
        result = route_demands(mesh, demands, arbitration="fifo")
        # pid 1's denial holds pid 2 in the buffer for the step.
        assert result.steps[0] == {0: 2}
        # Everything is still delivered, just later.
        final = {k: src for k, (src, _) in enumerate(result.demands)}
        for step in result.steps:
            final.update(step)
        assert [final[k] for k in range(3)] == [3, 2, 0]

    def test_fifo_counts_only_head_denials(self):
        from repro.sim import route_demands

        mesh, demands = _overtaking_demands()
        overtaking = route_demands(mesh, demands)
        fifo = route_demands(mesh, demands, arbitration="fifo")
        # Overtaking proposes (and denies) the whole queue; FIFO stops at
        # the first denial, so it can only record fewer blocked proposals.
        assert fifo.stats.blocked_moves <= overtaking.stats.blocked_moves
        assert fifo.stats.steps >= overtaking.stats.steps

    def test_fifo_schedule_still_validates(self, rng):
        for topo in (Mesh2D(4), Torus2D(4), Hypercube(4), Hypermesh2D(4)):
            perm = Permutation.random(16, rng)
            result = route_permutation(topo, perm, arbitration="fifo")
            result.schedule.validate()
            assert result.stats.delivered == 16

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="arbitration"):
            route_permutation(
                Mesh2D(3), Permutation.identity(9), arbitration="lifo"
            )


class TestInstrumentation:
    def test_on_step_sees_every_committed_step(self):
        seen = []

        def hook(step, moves, stats):
            seen.append((step, dict(moves), stats.delivered))

        result = route_permutation(
            Mesh2D(4), bit_reversal(16), on_step=hook
        )
        assert [s for s, _, _ in seen] == list(range(result.stats.steps))
        assert [m for _, m, _ in seen] == list(result.schedule.steps)
        # Cumulative deliveries are monotone and end at N.
        delivered = [d for _, _, d in seen]
        assert delivered == sorted(delivered)
        assert delivered[-1] == 16

    def test_per_step_timing_recorded_when_requested(self):
        result = route_permutation(Mesh2D(4), bit_reversal(16), timing=True)
        stats = result.stats
        assert len(stats.per_step_seconds) == stats.steps
        assert all(dt >= 0.0 for dt in stats.per_step_seconds)
        assert stats.elapsed_seconds == sum(stats.per_step_seconds)

    def test_timing_off_by_default(self):
        # Host timing is opt-in: the clock reads stay out of the hot loop
        # unless a consumer asks for them.
        result = route_permutation(Mesh2D(4), bit_reversal(16))
        assert result.stats.per_step_seconds == []
        assert result.stats.elapsed_seconds == 0.0

    def test_timing_excluded_from_stats_equality(self):
        from repro.sim import RoutingStats

        a = RoutingStats(steps=2, per_step_moves=[3, 1], per_step_seconds=[0.5, 0.5])
        b = RoutingStats(steps=2, per_step_moves=[3, 1], per_step_seconds=[])
        assert a == b  # host wall-clock is not part of routing behaviour
