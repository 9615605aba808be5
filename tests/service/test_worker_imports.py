"""A cold job imports no module the server had not already imported.

``repro serve`` keeps one worker per slot, forked from the server on the
slot's first cold job and again after a timeout kill or a crash, so every
module the engine imports lazily on the way is imported again by each new
worker, on its first job (NumPy's ``numpy.ma``, pulled in by ``np.unique``
on NumPy 2.x, costs ~16 ms).
The check runs in a fresh interpreter, because this test session has long
since imported everything: import the service, validate and key one job
per route-cold shape as the event loop does, snapshot ``sys.modules``,
then run each job through ``execute_route``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import json, sys
import repro.service.app
from repro.service.jobs import RouteRequest, execute_route

bodies, plan_root = json.loads(sys.argv[1]), sys.argv[2]
jobs = [RouteRequest.from_body(body) for body in bodies]
for job in jobs:
    job.keyed()
before = set(sys.modules)
for job in jobs:
    execute_route(job.to_params(plan_root))
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cold_jobs_import_nothing_new(route_cold_bodies, tmp_path):
    bodies = [b for b in route_cold_bodies(5) if b["n"] == 1024]
    bodies.append(
        {"topology": "mesh2d", "n": 4096, "workload": "dense-permutation",
         "seed": 5}
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(bodies),
         str(tmp_path / "plans")],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == []
