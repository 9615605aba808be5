"""The engine's dispatch rule: the core is picked by packet count.

A job of :data:`~repro.sim.backends.NUMPY_MIN_PACKETS` packets or more
runs on the NumPy core, a smaller one on the indexed loop — fault-free or
faulted, under either arbitration policy.  The cores are bit-identical, so
the default dispatch must give exactly what the indexed loop gives: the
same steps (dict insertion order included), the same
:class:`~repro.sim.stats.RoutingStats` and the same plan-blob bytes.
"""

import pytest

import repro.sim.engine as engine_mod
from repro.faults import FaultModel
from repro.networks import Hypercube
from repro.routing import bit_reversal
from repro.sim import NUMPY_MIN_PACKETS, PlanCache, choose_backend, route_demands
from repro.sim.task import build_topology, build_workload, run_routing_task


def test_threshold_is_one_constant():
    assert NUMPY_MIN_PACKETS == 1024
    assert choose_backend(NUMPY_MIN_PACKETS - 1) == "indexed"
    assert choose_backend(NUMPY_MIN_PACKETS) == "numpy"
    assert choose_backend(1) == "indexed"


@pytest.mark.parametrize("arbitration", ["overtaking", "fifo"])
@pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "faulted"])
def test_boundary_picks_the_core(arbitration, faulted, monkeypatch):
    """1023 packets run on the indexed loop, 1024 on the NumPy core, and
    a faulted job hands its model to the core that runs it."""
    picked = []
    real = engine_mod.resolve_backend

    def spy(backend):
        core = real(backend)

        def run(*args, **kwargs):
            picked.append((backend, kwargs["fault_model"]))
            return core(*args, **kwargs)

        return run

    monkeypatch.setattr(engine_mod, "resolve_backend", spy)
    topo = Hypercube(10)
    demands = list(enumerate(bit_reversal(1024).destinations.tolist()))
    model = FaultModel(seed=3, drop_prob=0.2, retry_limit=4) if faulted else None
    for packets in (NUMPY_MIN_PACKETS - 1, NUMPY_MIN_PACKETS):
        route_demands(
            topo, demands[:packets], arbitration=arbitration,
            fault_model=model, cache=False,
        )
    assert picked == [("indexed", model), ("numpy", model)]


def _blobs(root):
    return sorted((p.name, p.read_bytes()) for p in root.rglob("*.json"))


@pytest.mark.parametrize("seed", [1, 3])
def test_default_dispatch_matches_indexed_on_route_cold_shapes(
    seed, route_cold_bodies, tmp_path
):
    for i, body in enumerate(route_cold_bodies(seed)):
        topology = build_topology(body["topology"], body["n"])
        demands = list(
            zip(*build_workload(body["workload"], body["n"], body["seed"]))
        )
        model = FaultModel.from_params(body["fault"]) if "fault" in body else None
        runs = {}
        for backend in (None, "indexed"):
            root = tmp_path / f"{i}-{backend}"
            routed = route_demands(
                topology, demands, backend=backend, cache=PlanCache(root),
                fault_model=model,
            )
            runs[backend] = (
                [list(step.items()) for step in routed.steps],
                routed.stats,
                _blobs(root),
            )
        assert runs[None][2], f"no plan blob recorded for {body}"
        assert runs[None] == runs["indexed"], body


@pytest.mark.parametrize("n, core", [(1024, "numpy"), (64, "indexed")])
def test_routing_task_reports_the_core_that_ran(n, core):
    payload = run_routing_task(
        {"topology": "hypercube", "n": n, "workload": "bit-reversal"}
    )
    assert payload["backend"] == core
    forced = run_routing_task(
        {"topology": "hypercube", "n": n, "workload": "bit-reversal",
         "backend": "indexed"}
    )
    assert forced["backend"] == "indexed"
    assert forced["steps"] == payload["steps"]
