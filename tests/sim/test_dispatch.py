"""The engine has no dispatch: every job runs the one core.

:func:`repro.sim.engine._route_core` routes every job, whatever its packet
count, fault model or arbitration policy.  On every route-cold shape of
the repository's benchmark it must give exactly what the step-loop oracle
gives — the same steps (dict insertion order included), the same
:class:`~repro.sim.stats.RoutingStats` and the same plan-blob bytes — and
no runtime path may import the oracles' module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.sim.engine as engine_mod
from repro.faults import FaultModel
from repro.networks import Hypercube
from repro.routing import bit_reversal
from repro.sim import PlanCache, route_demands
from repro.sim._reference import route_core_degraded
from repro.sim.plancache import CachedPlan, plan_key
from repro.sim.routers import router_for
from repro.sim.task import build_topology, build_workload


@pytest.mark.parametrize("arbitration", ["overtaking", "fifo"])
@pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "faulted"])
def test_boundary_picks_the_core(arbitration, faulted, monkeypatch):
    """1,023 and 1,024 packets — either side of the packet-count cut the
    engine used to dispatch on — both run the one core, which receives
    the job's fault model."""
    picked = []
    real = engine_mod._route_core

    def spy(*args, **kwargs):
        picked.append(kwargs["fault_model"])
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "_route_core", spy)
    topo = Hypercube(10)
    demands = list(enumerate(bit_reversal(1024).destinations.tolist()))
    model = FaultModel(seed=3, drop_prob=0.2, retry_limit=4) if faulted else None
    for packets in (1023, 1024):
        route_demands(
            topo, demands[:packets], arbitration=arbitration,
            fault_model=model, cache=False,
        )
    assert picked == [model, model]


def _blobs(root):
    return sorted((p.name, p.read_bytes()) for p in root.rglob("*.json"))


@pytest.mark.parametrize("seed", [1, 3])
def test_default_dispatch_matches_indexed_on_route_cold_shapes(
    seed, route_cold_bodies, tmp_path
):
    """The engine against the degraded oracle (an empty fault model on
    the fault-free shapes) on every route-cold shape: steps, stats and
    the plan blob each side records."""
    for i, body in enumerate(route_cold_bodies(seed)):
        topology = build_topology(body["topology"], body["n"])
        sources, dests = build_workload(body["workload"], body["n"], body["seed"])
        model = FaultModel.from_params(body["fault"]) if "fault" in body else None
        engine_root, oracle_root = tmp_path / f"{i}-engine", tmp_path / f"{i}-oracle"
        routed = route_demands(
            topology, list(zip(sources, dests)), cache=PlanCache(engine_root),
            fault_model=model,
        )
        router = router_for(topology)
        steps, stats = route_core_degraded(
            topology, sources, dests, router,
            100 * (10 * topology.diameter + 10 * topology.num_nodes),
            model if model is not None else FaultModel(),
        )
        key = plan_key(topology, sources, dests, router, "overtaking", model)
        PlanCache(oracle_root).put(key, CachedPlan.from_run(steps, stats))
        assert [list(s.items()) for s in routed.steps] == [
            list(s.items()) for s in steps
        ], body
        assert routed.stats == stats, body
        assert _blobs(engine_root), f"no plan blob recorded for {body}"
        assert _blobs(engine_root) == _blobs(oracle_root), body


ORACLE_FREE = """
import json, sys
from repro.faults import FaultModel
from repro.networks import Hypermesh2D, Mesh2D
from repro.routing import bit_reversal
from repro.sim import route_permutation
from repro.sim.task import run_routing_task

for arbitration in ("overtaking", "fifo"):
    route_permutation(Mesh2D(4), bit_reversal(16), arbitration=arbitration)
    route_permutation(
        Mesh2D(4), bit_reversal(16), arbitration=arbitration,
        fault_model=FaultModel(link_fail_fraction=0.1, drop_prob=0.2, seed=3),
    )
    route_permutation(
        Hypermesh2D(4), bit_reversal(16), arbitration=arbitration,
        fault_model=FaultModel(degraded_nets=(0,), seed=3), cache="memory",
    )
    run_routing_task({"topology": "hypercube", "n": 64,
                      "workload": "bit-reversal", "arbitration": arbitration,
                      "fault": {"seed": 3, "drop_prob": 0.2}})
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro."))))
"""


def test_no_runtime_path_imports_the_oracles():
    """Fault-free and faulted routes, under both policies, in a fresh
    interpreter: :mod:`repro.sim._reference` stays out of ``sys.modules``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", ORACLE_FREE],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert "repro.sim.engine" in loaded
    assert "repro.sim._reference" not in loaded
