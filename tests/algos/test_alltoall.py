"""Unit tests for the total-exchange collective."""

import pytest

from repro.algos import (
    total_exchange_demand,
    total_exchange_lower_bound,
    total_exchange_plan,
)
from repro.networks import Hypercube, Hypermesh2D, Mesh2D, Torus2D
from repro.routing import decompose_h_relation


class TestDemand:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_demand_degree(self, n):
        rel = total_exchange_demand(n)
        assert rel.h == n - 1
        assert len(rel.demands) == n * (n - 1)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_koenig_rounds(self, n):
        rel = total_exchange_demand(n)
        rounds = decompose_h_relation(rel)
        assert len(rounds) == n - 1


class TestPlan:
    def test_hypermesh_rounds_cost_at_most_three(self):
        plan = total_exchange_plan(Hypermesh2D(4))
        assert plan.rounds == 15
        assert all(s <= 3 for s in plan.steps_per_round)

    def test_hypercube_rounds_bounded_by_dimension_plus_congestion(self):
        plan = total_exchange_plan(Hypercube(4))
        assert plan.rounds == 15
        # Cyclic shifts route greedily in near-diameter steps.
        assert max(plan.steps_per_round) <= 3 * 4

    def test_plan_totals(self):
        plan = total_exchange_plan(Hypermesh2D(2))
        assert plan.total_steps == sum(plan.steps_per_round)
        assert plan.num_pes == 4

    def test_hypermesh_beats_mesh(self):
        hm = total_exchange_plan(Hypermesh2D(4)).total_steps
        mesh = total_exchange_plan(Mesh2D(4)).total_steps
        assert hm < mesh


    def test_mesh_total_exchange_grows_faster(self):
        """16 -> 64 PEs: the mesh's plan grows ~N^{3/2}, the hypermesh's ~N."""
        mesh = [total_exchange_plan(Mesh2D(s)).total_steps for s in (4, 8)]
        hm = [total_exchange_plan(Hypermesh2D(s)).total_steps for s in (4, 8)]
        assert mesh[1] / mesh[0] > hm[1] / hm[0]


class TestLowerBound:
    def test_mesh_scaling(self):
        # demand N^2/2, capacity 2 sqrt(N): Omega(N^{3/2}) steps.
        lb16 = total_exchange_lower_bound(Mesh2D(4))
        lb64 = total_exchange_lower_bound(Mesh2D(8))
        assert lb64 / lb16 == pytest.approx((64 / 16) ** 1.5, rel=0.01)

    def test_hypermesh_linear(self):
        lb16 = total_exchange_lower_bound(Hypermesh2D(4))
        lb64 = total_exchange_lower_bound(Hypermesh2D(8))
        assert lb64 / lb16 == pytest.approx(4.0, rel=0.01)

    def test_hypercube_linear(self):
        lb16 = total_exchange_lower_bound(Hypercube(4))
        lb64 = total_exchange_lower_bound(Hypercube(6))
        assert lb64 / lb16 == pytest.approx(4.0, rel=0.01)

    def test_plans_respect_bounds(self):
        for topo in (Mesh2D(4), Torus2D(4), Hypercube(4), Hypermesh2D(4)):
            plan = total_exchange_plan(topo)
            assert plan.total_steps >= total_exchange_lower_bound(topo) * 0.99
