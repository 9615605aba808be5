"""APE-style distributed 1D FFT (hep-lat/9710060): the four-step
transform on a square PE layout.

The APE tower machines computed long 1D FFTs on a 2D/3D torus by the
*four-step* (transpose) decomposition: with ``N = S * S`` samples stored
one per PE in row-major order (``x[n1*S + n2]`` at PE ``(n1, n2)``),

1. a length-``S`` DIF FFT down every **column** (row-field butterflies —
   exchanges only along columns of the grid);
2. a pointwise **twiddle** scaling ``W_N^{k1*n2}`` (no communication);
3. a length-``S`` DIF FFT along every **row** (column-field butterflies);
4. a closing **matrix transpose** that converts the transposed-digit
   output placement into natural order.

This realizes the classic identity
``X[k1 + S*k2] = sum_{n2} W_N^{n2*k1} (sum_{n1} x[n1*S+n2] W_S^{n1*k1})
W_S^{n2*k2}`` — all long-range structure is confined to the single
transpose, while every butterfly travels within one grid row or column
(the communication pattern the APE papers exploit on tori).  The result
equals ``numpy.fft.fft`` of the flattened input, and the program certifies
stage-by-stage against :func:`repro.bounds.certify_program`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algos.transpose import transpose_schedule
from ..core.lowering import butterfly_exchange_schedule
from ..networks.addressing import bit_reverse, ilog2
from ..networks.base import Topology
from ..networks.hypercube import Hypercube
from ..networks.hypermesh import Hypermesh2D
from ..networks.mesh import Mesh2D
from ..networks.torus import Torus2D
from ..routing.clos import route_permutation_3step
from ..routing.permutation import Permutation
from ..sim.engine import route_permutation
from ..sim.machine import Compute, Exchange, Permute, ProgramOp, SimdMachine
from ..sim.schedule import CommSchedule, schedule_from_phases
from .twiddle import twiddle

__all__ = [
    "ApeFftResult",
    "SpectrumMismatch",
    "build_ape_fft_program",
    "check_spectrum",
    "parallel_fft_ape",
    "run_ape_fft_task",
]


def _col_bitrev_schedule(topology: Topology, side: int) -> CommSchedule:
    """Bit reversal applied independently inside every column."""
    half = ilog2(side)
    n = topology.num_nodes
    dest = np.empty(n, dtype=np.int64)
    idx = np.arange(n)
    rows, cols = idx // side, idx % side
    for i in range(n):
        dest[i] = bit_reverse(int(rows[i]), half) * side + cols[i]
    perm = Permutation(dest)
    if isinstance(topology, Hypermesh2D):
        route = route_permutation_3step(perm, topology)
        return schedule_from_phases(topology, route.phases)
    if isinstance(topology, Hypercube):
        # Column-internal bit reversal = reversing the high `half` address
        # bits: bit-pair swaps (half+k, 2*half-1-k), each 2 conflict-free
        # steps (same construction as fft2d's row variant, shifted up).
        position = list(range(n))
        steps: list[dict[int, int]] = []
        for k in range(half // 2):
            i, j = half + k, 2 * half - 1 - k
            step1: dict[int, int] = {}
            step2: dict[int, int] = {}
            for pid in range(n):
                pos = position[pid]
                if ((pos >> i) & 1) != ((pos >> j) & 1):
                    step1[pid] = pos ^ (1 << i)
                    step2[pid] = pos ^ (1 << i) ^ (1 << j)
                    position[pid] = step2[pid]
            steps.append(step1)
            steps.append(step2)
        return CommSchedule(topology=topology, logical=perm, steps=tuple(steps))
    if isinstance(topology, (Mesh2D, Torus2D)):
        return route_permutation(topology, perm).schedule
    raise TypeError(f"no column bit-reversal lowering for {type(topology).__name__}")


def _col_transform_ops(topology: Topology, side: int) -> list[ProgramOp]:
    """DIF FFT down every column (row-field bits), then column bit reversal."""
    half = ilog2(side)
    n = topology.num_nodes
    rows = np.arange(n) // side
    ops: list[ProgramOp] = []
    for bit in reversed(range(half)):
        span = 1 << bit
        tw = twiddle(2 * span, rows % span)
        upper = (rows & span) == 0

        def fn(values, received, pe_idx, tw=tw, upper=upper):
            return np.where(upper, values + received, (received - values) * tw)

        ops.append(
            Exchange(
                schedule=butterfly_exchange_schedule(topology, bit + half),
                label=f"column exchange bit {bit}",
            )
        )
        ops.append(Compute(fn=fn, label=f"column butterfly {bit}"))
    ops.append(
        Permute(schedule=_col_bitrev_schedule(topology, side), label="column bitrev")
    )
    return ops


def _row_twiddle_op(n: int, side: int) -> Compute:
    """Step 2: the ``W_N^{k1 * n2}`` scaling at PE ``(k1, n2)``."""
    idx = np.arange(n)
    factors = twiddle(n, (idx // side) * (idx % side))

    def fn(values, received, pe_idx, factors=factors):
        return values * factors

    return Compute(fn=fn, label="four-step twiddle")


def build_ape_fft_program(
    topology: Topology, *, include_transpose: bool = True
) -> list[ProgramOp]:
    """The four-step FFT program for ``topology``'s square PE layout.

    With ``include_transpose=False`` the closing transpose is elided and
    PE ``k1*S + k2`` finishes holding ``X[k1 + S*k2]`` — useful when a
    consumer (e.g. a convolution that transforms, scales, and inverts)
    can absorb the transposed placement for free.
    """
    from .fft2d import _row_transform_ops

    n = topology.num_nodes
    width = ilog2(n)
    if width % 2:
        raise ValueError(f"{n} PEs do not form a square power-of-two layout")
    side = 1 << (width // 2)

    program: list[ProgramOp] = []
    program += _col_transform_ops(topology, side)  # step 1: column FFTs
    program.append(_row_twiddle_op(n, side))  # step 2: twiddle scaling
    program += _row_transform_ops(topology, side)  # step 3: row FFTs
    if include_transpose:
        program.append(
            Permute(schedule=transpose_schedule(topology), label="four-step transpose")
        )
    return program


@dataclass(frozen=True)
class ApeFftResult:
    """Outcome of a four-step distributed FFT."""

    spectrum: np.ndarray  # (N,), equals numpy.fft.fft of the input
    data_transfer_steps: int
    computation_steps: int


class SpectrumMismatch(AssertionError):
    """A four-step FFT whose spectrum differs from ``numpy.fft.fft`` of
    its input: its step count certifies nothing.  Raised explicitly, so
    the check survives ``python -O``."""


def check_spectrum(
    spectrum: np.ndarray, samples: np.ndarray, label: str
) -> None:
    """Raise :class:`SpectrumMismatch` naming ``label`` unless
    ``spectrum`` is ``numpy.fft.fft(samples)`` (to ``np.allclose``)."""
    if not np.allclose(spectrum, np.fft.fft(samples)):
        raise SpectrumMismatch(
            f"four-step FFT diverged from numpy.fft.fft on {label}"
        )


def parallel_fft_ape(
    topology: Topology,
    samples: np.ndarray,
    *,
    validate: bool = False,
    include_transpose: bool = True,
) -> ApeFftResult:
    """Four-step 1D FFT of ``N`` samples, one per PE in row-major order.

    Returns a spectrum equal to ``numpy.fft.fft(samples)`` (natural order;
    with ``include_transpose=False`` the transposed placement
    ``spectrum[k2*S + k1] = FFT[k1 + S*k2]`` is returned instead).
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.ndim != 1 or samples.shape[0] != topology.num_nodes:
        raise ValueError(
            f"need one sample per PE: got {samples.shape}, "
            f"want ({topology.num_nodes},)"
        )
    program = build_ape_fft_program(topology, include_transpose=include_transpose)
    machine = SimdMachine(topology, validate=validate)
    result = machine.run(program, samples)
    return ApeFftResult(
        spectrum=result.values,
        data_transfer_steps=result.data_transfer_steps,
        computation_steps=result.computation_steps,
    )


def run_ape_fft_task(params: dict) -> dict:
    """Picklable campaign entry: one certified four-step FFT cell.

    Required ``params``: ``topology``, ``n``.  Optional: ``seed`` (default
    99), ``validate``.  The spectrum is checked against ``numpy.fft.fft``
    and the step count certified against the superstep-sum floor, so the
    payload is a verified, two-sided claim.
    """
    from ..bounds import certify_program
    from ..sim.task import build_topology

    topology_name = params["topology"]
    n = int(params["n"])
    seed = int(params.get("seed", 99))
    topology = build_topology(topology_name, n)
    rng = np.random.default_rng(seed + n)
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    result = parallel_fft_ape(
        topology, samples, validate=bool(params.get("validate"))
    )
    check_spectrum(result.spectrum, samples, f"{topology_name} n={n}")
    cert = certify_program(
        topology,
        build_ape_fft_program(topology),
        result.data_transfer_steps,
        label=f"ape-fft/{topology_name}/n={n}",
    )
    return {
        "topology": topology_name,
        "n": n,
        "method": "ape-fft",
        "seed": seed,
        "steps": result.data_transfer_steps,
        "compute_steps": result.computation_steps,
        "verified": 1,
        "bound": cert.bound,
        "bound_ratio": cert.ratio,
        "certified": cert.holds,
    }
