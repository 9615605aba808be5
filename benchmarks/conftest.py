"""Benchmark-harness configuration.

The files in this directory are the timing recorders behind the
committed ``BENCH_*.json`` trajectories (engine cores, faults, plan
cache, serving, library timings).  Run with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` shows the recorded rows next to the timings.  The paper's own
numbers are golden-checked by ``repro paper --check`` and the tier-1
tests, not here.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2026)


def emit(title: str, body: str) -> None:
    """Print a regenerated artifact under a clear banner."""
    print()
    print(f"---- {title} ----")
    print(body)
