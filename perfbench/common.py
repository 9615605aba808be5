"""Paths, seeds, statistics and process helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_FULL = ROOT / "results" / "paper" / "golden" / "full"
#: Scratch space for one run (plan roots, campaign stores, paper output);
#: removed when the run ends.
WORK = ROOT / ".perfbench-work"
#: Where traced runs leave their span files.
TRACE_OUT = ROOT / ".perfbench-out"


class BenchError(Exception):
    """The benchmark cannot run here (no program, server never ready)."""


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``failed`` counts operations whose output was wrong; ``problems``
    also holds failed checks made outside the operations (certificates,
    counters).  Any problem makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def op_failed(self, message: str) -> None:
        self.failed += 1
        self.problem(message)

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)
        elif len(self.problems) == 20:
            self.problems.append("... further problems elided")

    @property
    def correct(self) -> bool:
        return not self.problems


def program_env() -> dict[str, str]:
    """Environment for child interpreters that import the program."""
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC),
        "PYTHONUNBUFFERED": "1",
    }


def compile_program() -> None:
    """Write the program's bytecode, so no timed launch compiles it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        check=True, capture_output=True, timeout=300, cwd=ROOT,
    )


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program under {SRC}: nothing to benchmark")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def derive_seed(seed: int, *parts) -> int:
    """A 31-bit seed for one generated input, fixed by ``--seed``."""
    text = "/".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: int) -> float:
    """The ``q``-th percentile (1..99) by the inclusive method."""
    values = sorted(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def typical_sweep(sweeps: list[list[float]]) -> float:
    """One sweep over a job cycle, made of each job's median latency.

    With a handful of sweeps per run, summing per-job medians shrugs off a
    single slow request that the median of whole-sweep times would not.
    """
    return sum(median(column) for column in zip(*sweeps))


def peak_rss_mb(who: int) -> float:
    """Peak resident set of this process or its reaped children, in MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def host_block() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """Terminate ``proc`` (SIGTERM, then SIGKILL) and reap it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def write_trace(workload: str, seed: int, payload: dict) -> Path:
    """Write a traced run's spans and counters under :data:`TRACE_OUT`."""
    TRACE_OUT.mkdir(exist_ok=True)
    path = TRACE_OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "host": host_block(), **payload}) + "\n")
    return path
