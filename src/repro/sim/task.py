"""Picklable campaign entry point for the word-level routing engine.

:func:`run_routing_task` is the bridge between :mod:`repro.campaign` and the
simulator: a module-level function taking one JSON-serializable ``params``
dict and returning a JSON-serializable metrics dict, so campaign workers can
import it by dotted path (``"repro.sim.task:run_routing_task"``) under any
multiprocessing start method.  Workloads are built from an explicit seed in
``params``, which is part of the task's content hash — cache hits are only
claimed for genuinely identical work.
"""

from __future__ import annotations

import math
import time

import numpy as np

__all__ = [
    "PAPER_TOPOLOGIES",
    "TOPOLOGY_BUILDERS",
    "WORKLOAD_BUILDERS",
    "build_topology",
    "build_workload",
    "run_routing_task",
]


def _square_side(n: int, topology: str) -> int:
    side = math.isqrt(n)
    if side * side != n:
        raise ValueError(f"{topology} needs a square node count, got n={n}")
    return side


def _mesh2d(n: int):
    from ..networks import Mesh2D

    return Mesh2D(_square_side(n, "mesh2d"))


def _torus2d(n: int):
    from ..networks import Torus2D

    return Torus2D(_square_side(n, "torus2d"))


def _hypercube(n: int):
    from ..networks import Hypercube

    if n & (n - 1) or n <= 0:
        raise ValueError(f"hypercube needs a power-of-two node count, got n={n}")
    return Hypercube(n.bit_length() - 1)


def _hypermesh2d(n: int):
    from ..networks import Hypermesh2D

    return Hypermesh2D(_square_side(n, "hypermesh2d"))


TOPOLOGY_BUILDERS = {
    "mesh2d": _mesh2d,
    "torus2d": _torus2d,
    "hypercube": _hypercube,
    "hypermesh2d": _hypermesh2d,
}

#: The paper's three networks, in the order its tables list them.
PAPER_TOPOLOGIES = ("mesh2d", "hypercube", "hypermesh2d")


def build_topology(name: str, n: int):
    """Instantiate a topology by grid name (``mesh2d``/``torus2d``/
    ``hypercube``/``hypermesh2d``) and node count."""
    try:
        builder = TOPOLOGY_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; known: {sorted(TOPOLOGY_BUILDERS)}"
        ) from None
    return builder(n)


def _dense_permutation(n: int, rng: np.random.Generator):
    from ..routing import Permutation

    perm = Permutation.random(n, rng)
    return list(range(n)), perm.destinations.tolist()


def _bit_reversal(n: int, rng: np.random.Generator):
    from ..routing import bit_reversal

    return list(range(n)), bit_reversal(n).destinations.tolist()


def _sparse_hrelation(n: int, rng: np.random.Generator):
    # 2*sqrt(N) random packets: the regime where per-step overhead, not
    # channel contention, dominates the engine's cost.
    k = 2 * math.isqrt(n)
    return (
        rng.integers(0, n, size=k).tolist(),
        rng.integers(0, n, size=k).tolist(),
    )


WORKLOAD_BUILDERS = {
    "dense-permutation": _dense_permutation,
    "bit-reversal": _bit_reversal,
    "sparse-hrelation": _sparse_hrelation,
}


def build_workload(name: str, n: int, seed: int) -> tuple[list[int], list[int]]:
    """Build a ``(sources, destinations)`` workload from an explicit seed.

    The per-size seed offset (``seed + n``) gives every size of a sweep its
    own draw from one seed.
    """
    try:
        builder = WORKLOAD_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {sorted(WORKLOAD_BUILDERS)}"
        ) from None
    return builder(n, np.random.default_rng(seed + n))


def run_routing_task(params: dict) -> dict:
    """Route one (topology, n, workload) cell and return flat metrics.

    Required ``params``: ``topology``, ``n``, ``workload``.  Optional:
    ``seed`` (default 99), ``arbitration`` (default ``"overtaking"``),
    ``max_steps`` (default the engine's own bound), ``trace`` — a
    directory path (or ``True`` for ``results/traces``) into which the run
    writes a JSONL observability trace — and ``plan_cache`` — a plan-cache
    mode passed to the engine's ``cache=`` keyword (``"memory"``,
    ``"disk"``, or a directory path; see :mod:`repro.sim.plancache`), so
    campaign sweeps that revisit a cell replay its schedule instead of
    re-arbitrating — and ``fault`` — a flat
    :meth:`~repro.faults.FaultModel.to_params` mapping injecting a seeded
    fault model into the run (the payload then gains ``dropped`` /
    ``retried``, and the cache key gains the model's fingerprint).  With
    ``allow_unroutable`` true, a fault set that partitions a packet's
    endpoints reports ``{"unroutable": 1, "error": ...}`` instead of
    raising, so chaos sweeps can chart the feasibility cliff.  A traced
    run's payload gains ``trace_ref`` (the trace
    path, which the campaign executor lifts onto the
    :class:`~repro.campaign.metrics.TaskRecord`) and ``top_links`` (the
    five most-congested channels, per docs/OBSERVABILITY.md); traced runs
    request per-step host timing explicitly and always route live (the
    engine bypasses the cache for instrumented runs).

    With ``certify`` true the routed step count is certified against its
    analytic floor (:mod:`repro.bounds`, fault-aware, drop-adjusted): the
    payload gains ``bound`` / ``bound_ratio`` / ``bound_kind`` /
    ``certified``, and ``achieved < bound`` raises
    :class:`~repro.bounds.BoundViolation` — a failed task, never a data
    point.  Unroutable cells return before certification (their bound is
    infinite).

    The engine has one core, so a ``backend`` parameter (an engine-core
    axis of older campaign specs) is a :class:`ValueError` rather than a
    silently ignored key.
    """
    from .engine import route_demands

    if "backend" in params:
        raise ValueError(
            "run_routing_task: 'backend' is no parameter; the engine runs "
            "every job on its one core"
        )

    topology_name = params["topology"]
    n = int(params["n"])
    workload_name = params["workload"]
    seed = int(params.get("seed", 99))
    arbitration = params.get("arbitration", "overtaking")
    trace = params.get("trace")
    plan_cache = params.get("plan_cache")

    fault_model = None
    fault_params = params.get("fault")
    if fault_params:
        from ..faults import FaultModel

        fault_model = FaultModel.from_params(fault_params)

    topology = build_topology(topology_name, n)
    sources, dests = build_workload(workload_name, n, seed)

    probe = tracer = None
    if trace:
        from pathlib import Path

        from ..obs import JsonlTraceFile, LinkUtilizationProbe, Tracer

        trace_dir = Path("results/traces" if trace is True else str(trace))
        trace_path = trace_dir / (
            f"{topology_name}-n{n}-{workload_name}-seed{seed}.jsonl"
        )
        tracer = Tracer(
            f"{topology_name}/{workload_name}/n={n}/seed={seed}",
            JsonlTraceFile(trace_path),
        )
        probe = LinkUtilizationProbe(
            topology, sources, dests=dests, tracer=tracer
        )

    t0 = time.perf_counter()
    try:
        routed = route_demands(
            topology,
            list(zip(sources, dests)),
            max_steps=params.get("max_steps"),
            arbitration=arbitration,
            on_step=probe,
            timing=probe is not None,  # traced runs opt into host timing
            cache=plan_cache if plan_cache else False,
            fault_model=fault_model,
        )
    except Exception as exc:
        from ..faults import UnroutableError

        if not (
            isinstance(exc, UnroutableError) and params.get("allow_unroutable")
        ):
            raise
        if tracer is not None:
            tracer.close()
        return {
            "topology": topology_name,
            "n": n,
            "workload": workload_name,
            "seed": seed,
            "arbitration": arbitration,
            "packets": len(sources),
            "unroutable": 1,
            "error": str(exc),
        }
    route_seconds = time.perf_counter() - t0
    stats = routed.stats
    extra = {}
    if fault_model is not None:
        extra["dropped"] = stats.dropped
        extra["retried"] = stats.retried
        extra["unroutable"] = 0
    if params.get("certify"):
        from ..bounds import certify

        cert = certify(
            topology,
            list(zip(sources, dests)),
            stats.steps,
            fault_model=fault_model,
            dropped=stats.dropped if fault_model is not None else 0,
            label=f"{topology_name}/{workload_name}/n={n}/seed={seed}",
        )
        extra |= {
            "bound": cert.bound,
            "bound_ratio": cert.ratio,
            "bound_kind": cert.binding,
            "certified": cert.holds,
        }
    if probe is not None and tracer is not None:
        top = probe.finish()[:5]
        tracer.close()
        extra |= {
            "trace_ref": str(trace_path),
            "top_links": [u.to_dict() for u in top],
        }
    return extra | {
        "topology": topology_name,
        "n": n,
        "workload": workload_name,
        "seed": seed,
        "arbitration": arbitration,
        "packets": len(sources),
        "steps": stats.steps,
        "total_hops": stats.total_hops,
        "max_queue_depth": stats.max_queue_depth,
        "delivered": stats.delivered,
        "route_seconds": round(route_seconds, 6),
    }
