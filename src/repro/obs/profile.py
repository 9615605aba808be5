"""Profiling wrappers: ``cProfile`` / ``perf_counter`` with JSON output.

The ROADMAP's "make hot paths measurably faster" needs attribution before
optimization: :func:`profile_call` runs any callable under ``cProfile`` and
returns the top-N hot functions as a JSON-serializable document, and
:func:`timed` is the one-line ``perf_counter`` wrapper used wherever a
single wall-clock number is enough.

:data:`PROFILE_BENCHMARKS` registers small, deterministic workloads that
exercise each hot path — the ``repro profile <benchmark>`` CLI verb runs
one and prints its JSON report.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from time import perf_counter
from typing import Any, Callable

__all__ = [
    "timed",
    "profile_call",
    "PROFILE_BENCHMARKS",
    "list_profile_benchmarks",
    "run_profile",
]


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
    """Call ``fn`` and return ``(result, wall_seconds)`` via ``perf_counter``.

        >>> result, seconds = timed(sum, [1, 2, 3])
        >>> result, seconds >= 0.0
        (6, True)
    """
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - t0


def profile_call(
    fn: Callable[..., Any],
    *args: Any,
    top: int = 15,
    sort: str = "cumulative",
    **kwargs: Any,
) -> dict:
    """Run ``fn`` under ``cProfile`` and summarize the ``top`` hot functions.

    Returns a JSON-serializable dict::

        {"total_seconds": float,
         "sort": "cumulative",
         "top": [{"function": "path:lineno(name)", "ncalls": int,
                  "tottime": float, "cumtime": float}, ...]}

    ``sort`` accepts any :mod:`pstats` sort key (``"cumulative"``,
    ``"tottime"``, ``"ncalls"``, ...).  The call's return value is
    discarded — profile reports describe cost, not results.
    """
    profiler = cProfile.Profile()
    t0 = perf_counter()
    profiler.enable()
    try:
        fn(*args, **kwargs)
    finally:
        profiler.disable()
    total = perf_counter() - t0

    stats = pstats.Stats(profiler, stream=io.StringIO())
    stats.sort_stats(sort)
    rows = []
    for func in stats.fcn_list[:top]:  # fcn_list is set by sort_stats
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, lineno, name = func
        rows.append(
            {
                "function": f"{filename}:{lineno}({name})",
                "ncalls": nc,
                "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
            }
        )
    return {"total_seconds": round(total, 6), "sort": sort, "top": rows}


# --------------------------------------------------------------------------
# Registered benchmark workloads.  Each entry is (description, thunk): the
# thunk imports lazily so `import repro.obs` stays cheap, builds a seeded
# deterministic workload, and runs it once.
# --------------------------------------------------------------------------


def _route_benchmark(topology_name: str, n: int) -> Callable[[], Any]:
    def run() -> Any:
        from ..sim.task import run_routing_task

        return run_routing_task(
            {"topology": topology_name, "n": n, "workload": "dense-permutation"}
        )

    return run


def _fft_benchmark() -> Any:
    import numpy as np

    from ..fft.parallel import parallel_fft
    from ..networks import Hypermesh2D

    x = np.random.default_rng(0).normal(size=64)
    return parallel_fft(Hypermesh2D(8), x, validate=True)


def _sort_benchmark() -> Any:
    import numpy as np

    from ..networks import Mesh2D
    from ..sort.bitonic import parallel_bitonic_sort

    keys = np.random.default_rng(0).normal(size=64)
    return parallel_bitonic_sort(Mesh2D(8), keys, validate=True)


def _tables_benchmark() -> Any:
    from ..models.tables import table_1a, table_1b, table_2a, table_2b

    return [table_1a(4096), table_1b(4096), table_2a(4096), table_2b(4096)]


def _service_route_benchmark() -> Any:
    """The service's request path, cold then warm, minus the network.

    Profiles exactly what a ``POST /v1/route`` pays per request: body
    validation, plan-key derivation (once, as the service's event loop
    does, which then adds the digest and key to the worker's result), one
    cold :func:`~repro.service.jobs.execute_route` (in-process here, so
    the profile sees the engine frames), then a warm replay through the
    shared cache tier.
    """
    import tempfile

    from ..service.jobs import RouteRequest, execute_route
    from ..sim.plancache import PlanCache

    body = {"topology": "hypercube", "n": 256, "workload": "dense-permutation"}
    with tempfile.TemporaryDirectory() as root:
        job = RouteRequest.from_body(body)
        key = job.plan_key()
        cold = {
            **execute_route(job.to_params(root)),
            "digest": key.digest,
            "key": key.to_dict(),
        }
        warm = PlanCache(root).get(key)
        assert warm is not None
        return cold, warm.replay_stats()


PROFILE_BENCHMARKS: dict[str, tuple[str, Callable[[], Any]]] = {
    "engine-mesh": (
        "route a dense random permutation on a 16x16 mesh",
        _route_benchmark("mesh2d", 256),
    ),
    "engine-hypercube": (
        "route a dense random permutation on a 256-node hypercube",
        _route_benchmark("hypercube", 256),
    ),
    "engine-hypermesh": (
        "route a dense random permutation on a 16x16 hypermesh",
        _route_benchmark("hypermesh2d", 256),
    ),
    "fft": (
        "64-point parallel FFT on the 8x8 hypermesh, validated",
        _fft_benchmark,
    ),
    "sort": (
        "64-key parallel bitonic sort on the 8x8 mesh, validated",
        _sort_benchmark,
    ),
    "tables": (
        "regenerate Tables 1A/1B/2A/2B at N=4096",
        _tables_benchmark,
    ),
    "service-route": (
        "the service request path: validate, key, cold route, warm replay",
        _service_route_benchmark,
    ),
}


def list_profile_benchmarks() -> list[tuple[str, str]]:
    """``(name, description)`` pairs of the registered profile workloads."""
    return [(name, desc) for name, (desc, _) in PROFILE_BENCHMARKS.items()]


def run_profile(benchmark: str, *, top: int = 15, sort: str = "cumulative") -> dict:
    """Profile one registered benchmark and return its JSON report.

    Raises ``KeyError`` with the known names when ``benchmark`` is unknown
    (the CLI turns that into exit code 2).
    """
    try:
        description, thunk = PROFILE_BENCHMARKS[benchmark]
    except KeyError:
        raise KeyError(
            f"unknown profile benchmark {benchmark!r}; "
            f"known: {sorted(PROFILE_BENCHMARKS)}"
        ) from None
    report = profile_call(thunk, top=top, sort=sort)
    report["benchmark"] = benchmark
    report["description"] = description
    return report
