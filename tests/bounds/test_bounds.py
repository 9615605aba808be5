"""Unit tests for the lower-bound certifier (:mod:`repro.bounds`).

Hand-computed floors on machines small enough to check by eye, the
certificate/violation contract, fault tightening and drop discounting,
staged (superstep-sum) certification, named errors for bad demand
endpoints, the per-topology capacity memo — and the acceptance-criterion
fixture: a deliberately perturbed bound must fail the certification gate
end to end (routed and staged tasks, and the ``repro certify`` CLI alike).
"""

import gc
import math

import numpy as np
import pytest

from repro.algos.hypersystolic import run_commavoiding_task
from repro.bounds import (
    BOUND_KINDS,
    BoundViolation,
    Certificate,
    certify,
    certify_program,
    certify_schedule,
    certify_stages,
    program_stage_demands,
    step_lower_bound,
)
from repro.bounds import core
from repro.cli import main
from repro.faults import FaultModel, UnroutableError, resolve_faults
from repro.fft.ape import run_ape_fft_task
from repro.networks import Hypercube, Hypermesh2D, Mesh, Mesh2D, Torus2D
from repro.networks.degraded import surviving_adjacency, surviving_distances
from repro.routing import Permutation, bit_reversal
from repro.sim.engine import route_demands, route_permutation
from repro.sim.machine import Compute, Permute
from repro.sim.task import build_workload, run_routing_task

FAMILIES = {
    "mesh2d": lambda: Mesh2D(4),
    "torus2d": lambda: Torus2D(4),
    "hypercube": lambda: Hypercube(4),
    "hypermesh2d": lambda: Hypermesh2D(4),
}


class TestCertificate:
    def test_holds_and_ratio(self):
        cert = Certificate(achieved=10, bound=5)
        assert cert.holds and cert.ratio == 2.0
        assert cert.binding == "trivial"  # no witness supplied

    def test_zero_bound_has_no_ratio(self):
        assert Certificate(achieved=3, bound=0).ratio is None

    def test_to_dict_is_the_benchmark_row_shape(self):
        cert = Certificate(
            achieved=4, bound=4, witness={"binding": "distance", "kinds": {}}
        )
        d = cert.to_dict()
        assert d["achieved"] == 4 and d["bound"] == 4
        assert d["ratio"] == 1.0 and d["binding"] == "distance"
        assert d["certified"] is True
        assert d["witness"]["kinds"] == {}

    def test_kind_registry_names_are_unique_and_documented(self):
        names = [k.name for k in BOUND_KINDS]
        assert names == ["bisection", "distance", "ports", "work"]
        assert all(k.summary for k in BOUND_KINDS)


class TestHandComputedBounds:
    def test_single_corner_packet_on_2x2_mesh(self):
        # One packet 0 -> 3 must cover Manhattan distance 2; every other
        # family evaluates to 1 on this machine.
        topo = Mesh2D(2)
        bound, witness = step_lower_bound(topo, [(0, 3)])
        assert bound == 2 and witness["binding"] == "distance"
        assert witness["kinds"] == {
            "bisection": 1, "distance": 2, "ports": 1, "work": 1
        }

    def test_empty_and_self_demands_are_free(self):
        topo = Mesh2D(2)
        assert step_lower_bound(topo, [])[0] == 0
        bound, witness = step_lower_bound(topo, [(1, 1), (2, 2)])
        assert bound == 0 and witness["binding"] == "trivial"

    def test_hotspot_forces_the_ports_floor(self):
        # Three packets into corner node 3 (2 incident channels):
        # ceil(3/2) = 2 receive steps.
        topo = Mesh2D(2)
        demands = [(0, 3), (1, 3), (2, 3)]
        bound, witness = step_lower_bound(topo, demands)
        assert witness["kinds"]["ports"] == 2
        assert witness["max_h"] == 3
        assert bound == 2

    def test_bisection_floor_on_the_halving_cut(self):
        # 4x4 mesh: the index-halving cut (rows 0-1 vs 2-3) has 4 links.
        # Send all 8 top-half nodes across: ceil(8/4) = 2 from bisection.
        topo = Mesh2D(4)
        demands = [(i, i + 8) for i in range(8)]
        bound, witness = step_lower_bound(topo, demands)
        assert witness["cut_capacity"] == 4
        assert witness["cut_demand"] == 8
        assert witness["kinds"]["bisection"] == 2

    def test_hypermesh_row_net_is_one_step(self):
        # A pure row rotation on the 2x2 hypermesh rides one net per row:
        # one step, and the certifier's floor agrees exactly.
        topo = Hypermesh2D(2)
        bound, _ = step_lower_bound(topo, [(0, 1), (1, 0)])
        assert bound == 1


class TestFaultAwareness:
    def test_killing_a_hotspot_link_tightens_ports(self):
        topo = Mesh2D(2)
        demands = [(0, 3), (1, 3), (2, 3)]
        clean, _ = step_lower_bound(topo, demands)
        model = FaultModel(seed=1, link_failures=((1, 3),))
        faulted, witness = step_lower_bound(topo, demands, fault_model=model)
        # Node 3 keeps a single surviving channel: ceil(3/1) = 3 > 2.
        assert clean == 2 and faulted == 3
        assert witness["kinds"]["ports"] == 3
        assert witness["faulted"] is True

    def test_disconnection_raises_unroutable(self):
        topo = Mesh2D(2)
        model = FaultModel(seed=1, link_failures=((0, 1), (0, 2)))
        with pytest.raises(UnroutableError):
            step_lower_bound(topo, [(0, 3)], fault_model=model)

    def test_unroutable_names_first_cut_packet_of_first_destination(self):
        # Nodes 0 and 15 are cut off.  Destinations 9 and 15 both have a
        # cut packet; 9 appears first, so its cut packet (0 -> 9) is named
        # even though (3 -> 15) comes earlier in packet order.
        topo = Mesh2D(4)
        model = FaultModel(
            seed=1, link_failures=((0, 1), (0, 4), (11, 15), (14, 15))
        )
        demands = [(5, 9), (3, 15), (0, 9), (2, 15), (7, 0)]
        with pytest.raises(
            UnroutableError, match=r"^no surviving path from 0 to 9: "
        ):
            step_lower_bound(topo, demands, fault_model=model)

    @pytest.mark.parametrize("dropped", [0, 7])
    def test_narrow_table_floors_equal_the_scalar_bfs_floors(self, dropped):
        # N=1,024 with 5 % of links down: every distance fits the int8
        # table, but their sum is far above 127, so the floors are taken
        # on int64 distances.
        topo = Mesh2D(32)
        model = FaultModel(link_fail_fraction=0.05, seed=3)
        demands = list(zip(*build_workload("dense-permutation", 1024, 5)))
        bound, witness = step_lower_bound(
            topo, demands, fault_model=model, dropped=dropped
        )
        resolved = resolve_faults(model, topo)
        assert resolved.surviving_graph(topo).table.dtype == np.int8
        moving = np.array([(s, d) for s, d in demands if s != d])
        assert core._distances(
            topo, moving[:, 0], moving[:, 1], resolved
        ).dtype == np.int64
        adjacency = surviving_adjacency(topo, resolved)
        dists = sorted(
            surviving_distances(adjacency, d)[s] for s, d in moving.tolist()
        )[: len(moving) - dropped]
        assert witness["max_distance"] == dists[-1]
        assert witness["total_distance"] == sum(dists) > 100 * 127
        kinds = witness["kinds"]
        assert kinds["distance"] == dists[-1]
        assert kinds["work"] == math.ceil(
            sum(dists) / witness["total_capacity"]
        )
        assert bound == max(kinds.values())

    def test_degrading_a_net_tightens_the_hypermesh(self):
        topo = Hypermesh2D(2)
        demands = [(0, 1), (1, 0), (2, 3), (3, 2)]
        clean, _ = step_lower_bound(topo, demands)
        model = FaultModel(seed=1, degraded_nets=(0,))
        faulted, _ = step_lower_bound(topo, demands, fault_model=model)
        assert faulted >= clean >= 1

    def test_drop_discounting_weakens_the_floor(self):
        topo = Mesh2D(2)
        assert step_lower_bound(topo, [(0, 3)], dropped=0)[0] == 2
        assert step_lower_bound(topo, [(0, 3)], dropped=1)[0] == 0
        # Dropping more packets than exist is still a (trivial) floor.
        assert step_lower_bound(topo, [(0, 3)], dropped=9)[0] == 0


class TestBadEndpoints:
    """An endpoint that is not a node id is a named ``ValueError`` — the
    same one the routing engine raises — never a truncated or wrapped
    node the floor is then computed for."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("bad", [-1, 16, 0.5])
    def test_bounds_and_engine_raise_the_same_error(self, family, bad):
        topo = FAMILIES[family]()
        demands = [(0, 3), (bad, 3)]
        with pytest.raises(ValueError) as from_engine:
            route_demands(topo, demands)
        with pytest.raises(ValueError) as from_bounds:
            step_lower_bound(topo, demands)
        assert str(from_bounds.value) == str(from_engine.value)
        assert repr(bad) in str(from_bounds.value)
        with pytest.raises(ValueError):
            certify_stages(topo, [[(0, 1)], [(3, bad)]], 10**6)

    def test_first_bad_endpoint_in_demand_order_is_named(self):
        topo = Mesh2D(4)
        with pytest.raises(ValueError, match="node 17 out of range"):
            step_lower_bound(topo, [(0, 1), (2, 17), (-1, 3)])


class TestCapacityMemo:
    """Topology-only capacities are memoized per topology (or per fault
    resolution); the memo must never hand one machine another's numbers."""

    HOTSPOT = [(0, 3), (1, 3), (2, 3)]

    def test_fault_free_then_link_kill_still_tightens(self):
        topo = Mesh2D(2)
        kill = FaultModel(seed=1, link_failures=((1, 3),))
        assert step_lower_bound(topo, self.HOTSPOT)[0] == 2
        bound, witness = step_lower_bound(
            topo, self.HOTSPOT, fault_model=kill
        )
        # Node 3 keeps one channel, the machine three links (6 slots).
        assert bound == 3 and witness["kinds"]["ports"] == 3
        assert witness["total_capacity"] == 6
        # ...and the faulted entry does not leak back into fault-free runs.
        bound, witness = step_lower_bound(topo, self.HOTSPOT)
        assert bound == 2 and witness["total_capacity"] == 8

    def test_link_kill_then_fault_free_on_one_topology(self):
        topo = Mesh2D(2)
        kill = FaultModel(seed=1, link_failures=((1, 3),))
        other = FaultModel(seed=1, link_failures=((2, 3),))
        assert step_lower_bound(topo, self.HOTSPOT, fault_model=kill)[0] == 3
        assert step_lower_bound(topo, self.HOTSPOT)[0] == 2
        _, witness = step_lower_bound(topo, [(0, 3)], fault_model=other)
        assert witness["total_capacity"] == 6  # 3 surviving links, 2 ways

    def test_distinct_instances_of_one_size_do_not_share(self):
        # Four N=16 machines (two of them of one class), certified
        # interleaved: each keeps its own halving-cut capacity.
        machines = {
            Mesh((4, 4)): 4, Mesh((2, 8)): 8, Torus2D(4): 8, Hypercube(4): 8,
        }
        demands = [(i, i + 8) for i in range(8)]
        for _ in range(2):
            for topo, cut in machines.items():
                _, witness = step_lower_bound(topo, demands)
                assert witness["cut_capacity"] == cut
        a, b = Mesh2D(4), Mesh2D(4)
        step_lower_bound(a, demands)
        step_lower_bound(b, demands)
        assert core._CAPACITIES[a] is not core._CAPACITIES[b]

    def test_entries_die_with_their_topology(self):
        topo = Mesh2D(4)
        step_lower_bound(topo, [(0, 15)])
        gc.collect()  # settle entries of topologies earlier tests dropped
        before = len(core._CAPACITIES)
        del topo
        gc.collect()
        assert len(core._CAPACITIES) == before - 1


class TestCertify:
    def test_certify_returns_a_holding_certificate(self):
        topo = Mesh2D(2)
        cert = certify(topo, [(0, 3)], 2, label="corner")
        assert cert.holds and cert.ratio == 1.0 and cert.label == "corner"

    def test_violation_is_a_hard_error_with_the_certificate(self):
        topo = Mesh2D(2)
        with pytest.raises(BoundViolation) as exc:
            certify(topo, [(0, 3)], 1, label="corner")
        assert "undercuts" in str(exc.value) and "[corner]" in str(exc.value)
        assert exc.value.certificate.bound == 2
        assert exc.value.certificate.to_dict()["certified"] is False

    def test_certify_schedule_uses_the_logical_permutation(self):
        topo = Hypercube(4)
        schedule = route_permutation(topo, bit_reversal(16)).schedule
        cert = certify_schedule(schedule, label="bitrev")
        assert cert.holds and cert.achieved == schedule.num_steps

    def test_certify_stages_sums_the_superstep_floors(self):
        topo = Mesh2D(2)
        stages = [[(0, 3)], [(3, 0)]]
        cert = certify_stages(topo, stages, 4, label="round-trip")
        assert cert.bound == 4 and cert.binding == "superstep-sum"
        assert [s["bound"] for s in cert.witness["stages"]] == [2, 2]
        with pytest.raises(BoundViolation):
            certify_stages(topo, stages, 3)

    def test_certify_program_counts_only_communication_ops(self):
        topo = Hypercube(4)
        schedule = route_permutation(topo, bit_reversal(16)).schedule
        program = [
            Compute(lambda v, r, i: v, label="noop"),
            Permute(schedule),
        ]
        stages = program_stage_demands(program)
        assert len(stages) == 1  # the Compute contributes no stage
        cert = certify_program(topo, program, schedule.num_steps)
        assert cert.bound == certify_schedule(schedule).bound


class TestRoutingTaskIntegration:
    def test_certified_payload_carries_the_bound(self):
        payload = run_routing_task(
            {"topology": "mesh2d", "n": 16, "workload": "bit-reversal",
             "seed": 99, "certify": True}
        )
        assert payload["certified"] is True
        assert payload["bound"] <= payload["steps"]
        assert payload["bound_ratio"] >= 1.0
        assert payload["bound_kind"] in {k.name for k in BOUND_KINDS}

    def test_faulted_cell_certifies_with_drop_discount(self):
        payload = run_routing_task(
            {"topology": "mesh2d", "n": 16, "workload": "dense-permutation",
             "seed": 99, "certify": True,
             "fault": {"seed": 99, "drop_prob": 0.3, "retry_limit": 1}}
        )
        assert payload["certified"] is True
        assert payload["bound"] <= payload["steps"]


class TestPerturbedBoundFailsTheGate:
    """The acceptance-criterion fixture: inflate the floor and prove the
    certification gate actually fires — task layer and CLI alike."""

    @pytest.fixture
    def inflated_bound(self, monkeypatch):
        def inflated(topology, demands, **kwargs):
            return 10**6, {"binding": "perturbed", "kinds": {}}

        monkeypatch.setattr(
            "repro.bounds.core.step_lower_bound", inflated
        )

    def test_routing_task_raises(self, inflated_bound):
        with pytest.raises(BoundViolation) as exc:
            run_routing_task(
                {"topology": "mesh2d", "n": 16, "workload": "bit-reversal",
                 "seed": 99, "certify": True}
            )
        assert exc.value.certificate.binding == "perturbed"

    def test_certify_stages_raises(self, inflated_bound):
        with pytest.raises(BoundViolation) as exc:
            certify_stages(Mesh2D(2), [[(0, 3)], [(3, 0)]], 4)
        cert = exc.value.certificate
        assert cert.binding == "superstep-sum"
        assert [s["binding"] for s in cert.witness["stages"]] == [
            "perturbed", "perturbed"
        ]

    def test_certify_program_raises(self, inflated_bound):
        topo = Hypercube(4)
        schedule = route_permutation(topo, bit_reversal(16)).schedule
        with pytest.raises(BoundViolation):
            certify_program(topo, [Permute(schedule)], schedule.num_steps)

    @pytest.mark.parametrize("method", ["systolic", "hyper-systolic"])
    def test_commavoiding_task_raises(self, inflated_bound, method):
        with pytest.raises(BoundViolation) as exc:
            run_commavoiding_task(
                {"topology": "mesh2d", "n": 16, "method": method, "seed": 99}
            )
        assert exc.value.certificate.binding == "superstep-sum"

    def test_ape_fft_task_raises(self, inflated_bound):
        with pytest.raises(BoundViolation):
            run_ape_fft_task({"topology": "hypermesh2d", "n": 16, "seed": 99})

    def test_cli_certify_exits_1_with_violation(
        self, inflated_bound, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # the campaign store is cwd-relative
        assert main(["certify"]) == 1
        captured = capsys.readouterr()
        assert "0/48 ok, 48 failed" in captured.out
        assert captured.err.startswith("error:")
        assert "-- bit-reversal-mesh2d-n16 [exception] --" in captured.err
        assert "BoundViolation" in captured.err

    @pytest.mark.parametrize("workload", ["systolic", "hyper-systolic", "ape-fft"])
    def test_cli_certify_staged_workload_exits_1(
        self, inflated_bound, capsys, tmp_path, monkeypatch, workload
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["certify"]) == 1
        captured = capsys.readouterr()
        [row] = [line for line in captured.out.splitlines()
                 if line.startswith(f"{workload}-mesh2d-n16 ")
                 and "FAILED" in line]
        assert "FAILED(exception)" in row
        assert captured.err.startswith("error:")
        trace = captured.err.split(f"-- {workload}-mesh2d-n16 [exception] --")[1]
        assert "BoundViolation" in trace.split("\n-- ")[0]
