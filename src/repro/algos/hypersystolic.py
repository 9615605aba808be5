"""Hyper-systolic circular convolution / all-to-all (Galli,
hep-lat/9509011) on the simulated SIMD machines.

The systolic baseline for ``y_p = sum_d c_d * x_{(p-d) mod N}`` with a
``K``-tap compile-time kernel circulates the signal through ``K - 1``
cyclic shifts by one, accumulating one tap per shift.  The hyper-systolic
reformulation picks a base ``B ≈ sqrt(K)`` and splits the lag ``d = l2*B +
l1``:

1. **replicate** — ``B - 1`` stride-1 shifts store the lagged copies
   ``x_{p-l1}`` (``l1 = 0 .. B-1``) in PE-local memory;
2. **local partials** — with no communication, each PE folds the kernel
   over its copies: ``z^(l2)_p = sum_{l1} c_{l2*B+l1} * x_{p-l1}``;
3. **accumulate** — a Horner recurrence over ``ceil(K/B) - 1`` stride-``B``
   shifts combines the partials: ``y = z^(0) + S_B(z^(B) + S_B(...))``.

Total routed shifts: ``(B - 1) + (ceil(K/B) - 1) ≈ 2(sqrt(K) - 1)``
against the systolic ``K - 1`` — the communication-avoiding trade the
paper's step model can price per topology (a stride-``B`` shift is not one
step on a mesh).  With ``K = N`` this is Galli's all-to-all: every PE's
value reaches every other PE.

Every shift carries exactly one word per PE (the machine's value array
stays scalar; lagged copies and partial sums live in PE-local memory
modeled by closure state), so the step accounting is the honest word-level
cost.  Results verify against a direct ``numpy`` evaluation and certify
against :func:`repro.bounds.certify_stages`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..networks.hypermesh import Hypermesh2D
from ..routing.clos import route_permutation_3step
from ..routing.permutation import Permutation
from ..sim.engine import route_permutation
from ..sim.machine import Compute, Exchange, ProgramOp, SimdMachine
from ..sim.schedule import CommSchedule, schedule_from_phases

__all__ = [
    "ConvolutionRun",
    "cyclic_shift_schedule",
    "hyper_systolic_base",
    "hyper_systolic_convolution",
    "reference_convolution",
    "run_commavoiding_task",
    "systolic_convolution",
]


def cyclic_shift_schedule(topology, shift: int) -> CommSchedule:
    """Lower the cyclic shift ``p -> p + shift (mod N)`` onto ``topology``.

    On the 2D hypermesh the shift routes as a 3-step Clos exchange; on
    point-to-point networks the routing engine prices it (one step for a
    neighbor stride, more when the stride or the row wrap-around must
    travel).
    """
    n = topology.num_nodes
    shift %= n
    if not shift:
        raise ValueError("shift must be nonzero modulo the PE count")
    perm = Permutation((np.arange(n) + shift) % n)
    if isinstance(topology, Hypermesh2D):
        route = route_permutation_3step(perm, topology)
        return schedule_from_phases(topology, route.phases)
    return route_permutation(topology, perm).schedule


def hyper_systolic_base(taps: int) -> int:
    """Galli's optimal replication base ``B ≈ sqrt(K)`` for a K-tap kernel."""
    return max(1, math.isqrt(taps))


def reference_convolution(signal: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Direct evaluation of the circular convolution (the ground truth)."""
    signal = np.asarray(signal)
    kernel = np.asarray(kernel)
    out = np.zeros(signal.shape, dtype=np.result_type(signal, kernel))
    for lag, tap in enumerate(kernel):
        out += tap * np.roll(signal, lag)
    return out


@dataclass(frozen=True)
class ConvolutionRun:
    """Outcome of a staged convolution run.

    ``stage_demands`` is one demand set per routed shift, in program
    order — exactly what :func:`repro.bounds.certify_stages` consumes.
    """

    values: np.ndarray
    data_transfer_steps: int
    computation_steps: int
    routed_shifts: int
    base: int
    stage_demands: tuple[tuple[tuple[int, int], ...], ...]


def _shift_stages(
    schedules: list[CommSchedule],
) -> tuple[tuple[tuple[int, int], ...], ...]:
    stages = []
    for schedule in schedules:
        dests = schedule.logical.destinations.tolist()
        stages.append(tuple((i, d) for i, d in enumerate(dests) if i != d))
    return tuple(stages)


def _check_kernel(topology, kernel: np.ndarray) -> np.ndarray:
    kernel = np.asarray(kernel)
    if kernel.ndim != 1 or not 1 <= kernel.shape[0] <= topology.num_nodes:
        raise ValueError(
            f"kernel must be 1D with 1..{topology.num_nodes} taps, "
            f"got shape {kernel.shape}"
        )
    return kernel


def systolic_convolution(
    topology, signal: np.ndarray, kernel: np.ndarray, *, validate: bool = False
) -> ConvolutionRun:
    """The systolic baseline: ``K - 1`` stride-1 shifts, one tap each."""
    kernel = _check_kernel(topology, kernel)
    taps = kernel.shape[0]
    state: dict = {}
    program: list[ProgramOp] = []
    shifts: list[CommSchedule] = []

    def init(values, received, pe_idx):
        state["acc"] = kernel[0] * values
        return values

    program.append(Compute(fn=init, label="tap 0"))
    if taps > 1:
        shift1 = cyclic_shift_schedule(topology, 1)
        for lag in range(1, taps):
            def accumulate(values, received, pe_idx, tap=kernel[lag]):
                state["acc"] = state["acc"] + tap * received
                return received  # the register now holds x shifted by `lag`

            program.append(Exchange(schedule=shift1, label=f"shift to lag {lag}"))
            program.append(Compute(fn=accumulate, label=f"tap {lag}"))
            shifts.append(shift1)
    program.append(Compute(fn=lambda v, r, i: state["acc"], label="load result"))

    machine = SimdMachine(topology, validate=validate)
    result = machine.run(program, np.asarray(signal))
    return ConvolutionRun(
        values=result.values,
        data_transfer_steps=result.data_transfer_steps,
        computation_steps=result.computation_steps,
        routed_shifts=len(shifts),
        base=1,
        stage_demands=_shift_stages(shifts),
    )


def hyper_systolic_convolution(
    topology,
    signal: np.ndarray,
    kernel: np.ndarray,
    *,
    base: int | None = None,
    validate: bool = False,
) -> ConvolutionRun:
    """Galli's hyper-systolic convolution: ``(B-1) + (ceil(K/B)-1)`` shifts."""
    kernel = _check_kernel(topology, kernel)
    taps = kernel.shape[0]
    b = hyper_systolic_base(taps) if base is None else int(base)
    if not 1 <= b <= taps:
        raise ValueError(f"base must be in 1..{taps}, got {b}")
    groups = math.ceil(taps / b)
    state: dict = {}
    program: list[ProgramOp] = []
    shifts: list[CommSchedule] = []

    def capture_lag0(values, received, pe_idx):
        state["copies"] = [values.copy()]
        return values

    program.append(Compute(fn=capture_lag0, label="store lag 0"))
    if b > 1:
        shift1 = cyclic_shift_schedule(topology, 1)
        for lag in range(1, b):
            def capture(values, received, pe_idx):
                state["copies"].append(received.copy())
                return received

            program.append(Exchange(schedule=shift1, label=f"replicate lag {lag}"))
            program.append(Compute(fn=capture, label=f"store lag {lag}"))
            shifts.append(shift1)

    def partials(values, received, pe_idx):
        # z^(l2)_p = sum_{l1 < B} c_{l2*B + l1} * x_{p - l1}: pure local
        # arithmetic over the stored lagged copies.
        lagged = np.stack(state["copies"], axis=1)  # (N, B)
        dtype = np.result_type(lagged, kernel)
        partial_sums = []
        for group in range(groups):
            coeffs = np.zeros(b, dtype=dtype)
            window = kernel[group * b : group * b + b]
            coeffs[: window.shape[0]] = window
            partial_sums.append(lagged @ coeffs)
        state["z"] = partial_sums
        return partial_sums[-1]  # accumulator := z^(last group)

    program.append(Compute(fn=partials, label="local partial sums"))
    if groups > 1:
        shift_b = cyclic_shift_schedule(topology, b)
        for group in range(groups - 2, -1, -1):
            def horner(values, received, pe_idx, group=group):
                return received + state["z"][group]

            program.append(
                Exchange(schedule=shift_b, label=f"accumulate group {group}")
            )
            program.append(Compute(fn=horner, label=f"add z^({group * b})"))
            shifts.append(shift_b)

    machine = SimdMachine(topology, validate=validate)
    result = machine.run(program, np.asarray(signal))
    return ConvolutionRun(
        values=result.values,
        data_transfer_steps=result.data_transfer_steps,
        computation_steps=result.computation_steps,
        routed_shifts=len(shifts),
        base=b,
        stage_demands=_shift_stages(shifts),
    )


CONVOLUTION_METHODS = {
    "systolic": systolic_convolution,
    "hyper-systolic": hyper_systolic_convolution,
}


def run_commavoiding_task(params: dict) -> dict:
    """Picklable campaign entry: one certified convolution cell.

    Required ``params``: ``topology``, ``n``, ``method`` (a
    :data:`CONVOLUTION_METHODS` name).  Optional: ``taps`` (kernel length,
    default ``sqrt(n)``), ``seed`` (default 99), ``validate`` (replay every
    shift schedule through the hardware validator, default off).  The
    payload carries the achieved step count *and* its certified floor —
    every row is a two-sided claim — plus ``verified``, the exact
    agreement with the direct numpy evaluation.
    """
    from ..bounds import certify_stages
    from ..sim.task import build_topology

    topology_name = params["topology"]
    n = int(params["n"])
    method_name = params["method"]
    try:
        method = CONVOLUTION_METHODS[method_name]
    except KeyError:
        raise ValueError(
            f"unknown method {method_name!r}; known: "
            f"{sorted(CONVOLUTION_METHODS)}"
        ) from None
    taps = int(params.get("taps", max(2, math.isqrt(n))))
    seed = int(params.get("seed", 99))

    topology = build_topology(topology_name, n)
    rng = np.random.default_rng(seed + n)
    signal = rng.standard_normal(n)
    kernel = rng.standard_normal(taps)

    run = method(
        topology, signal, kernel, validate=bool(params.get("validate"))
    )
    expected = reference_convolution(signal, kernel)
    verified = bool(np.allclose(run.values, expected))
    if not verified:
        raise AssertionError(
            f"{method_name} convolution diverged from the direct evaluation "
            f"on {topology_name} n={n} taps={taps}"
        )
    cert = certify_stages(
        topology,
        run.stage_demands,
        run.data_transfer_steps,
        label=f"{method_name}/{topology_name}/n={n}/taps={taps}",
    )
    return {
        "topology": topology_name,
        "n": n,
        "method": method_name,
        "taps": taps,
        "base": run.base,
        "seed": seed,
        "routed_shifts": run.routed_shifts,
        "steps": run.data_transfer_steps,
        "compute_steps": run.computation_steps,
        "verified": 1,
        "bound": cert.bound,
        "bound_ratio": cert.ratio,
        "bound_kind": cert.binding,
        "certified": cert.holds,
    }
