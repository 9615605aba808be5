"""Closed-form FFT step counts — the paper's Table 2A.

For an ``N``-point FFT on ``N`` PEs (``log N`` butterfly stages followed by
the bit-reversal permutation):

================  ==================  ====================  =================
network           butterfly steps     bit-reversal steps    total
================  ==================  ====================  =================
2D mesh           ``2(sqrt(N)-1)``    ``>= sqrt(N)/2`` (w/  ``>= 5sqrt(N)/2``
                                      wrap-around links;
                                      ``>= 2(sqrt(N)-1)``
                                      without)
hypercube         ``log N``           ``>= log N``          ``>= 2 log N``
2D hypermesh      ``log N``           ``<= 3``              ``<= log N + 3``
================  ==================  ====================  =================

Computation steps are ``log N`` on every network and drop out of the
comparison.  All three rows are validated against executable schedules by
``tests/integration/test_sim_vs_model.py``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ..networks.addressing import ilog2

__all__ = ["NetworkKind", "FftStepCounts", "fft_step_counts", "BoundKind"]


class NetworkKind(enum.Enum):
    """The three networks of the comparison (plus the wrap-around mesh)."""

    MESH_2D = "2D mesh"
    TORUS_2D = "2D mesh (wrap-around)"
    HYPERCUBE = "hypercube"
    HYPERMESH_2D = "2D hypermesh"


class BoundKind(enum.Enum):
    """Direction of a step-count bound."""

    EXACT = "="
    LOWER = ">="
    UPPER = "<="


@dataclass(frozen=True)
class FftStepCounts:
    """Step counts for one network (one Table 2A row).

    ``bitrev_bound`` / ``total_bound`` record whether the paper states the
    count as a lower bound (mesh, hypercube) or an upper bound (hypermesh);
    butterfly counts are exact for all three.
    """

    network: NetworkKind
    num_points: int
    butterfly_steps: int
    bitrev_steps: float
    bitrev_bound: BoundKind
    computation_steps: int

    @property
    def total_steps(self) -> float:
        """Butterfly + bit-reversal data-transfer steps."""
        return self.butterfly_steps + self.bitrev_steps

    @property
    def total_bound(self) -> BoundKind:
        """Bound direction of :attr:`total_steps` (follows the bit-reversal)."""
        return self.bitrev_bound


def _square_side(num_points: int) -> int:
    side = math.isqrt(num_points)
    if side * side != num_points:
        raise ValueError(
            f"2D layouts need a square node count, got {num_points}"
        )
    return side


def fft_step_counts(network: NetworkKind, num_points: int) -> FftStepCounts:
    """Table 2A row for ``network`` at FFT size ``num_points`` (= PE count).

    For the plain ``MESH_2D`` the bit-reversal bound is the no-wrap-around
    corner-interchange distance ``2(sqrt(N)-1)``; ``TORUS_2D`` uses the
    paper's optimistic wrap-around figure ``sqrt(N)/2``, which is what
    equation (2) charges.
    """
    log_n = ilog2(num_points)
    if network is NetworkKind.HYPERCUBE:
        return FftStepCounts(
            network=network,
            num_points=num_points,
            butterfly_steps=log_n,
            bitrev_steps=log_n,
            bitrev_bound=BoundKind.LOWER,
            computation_steps=log_n,
        )
    if network is NetworkKind.HYPERMESH_2D:
        _square_side(num_points)
        return FftStepCounts(
            network=network,
            num_points=num_points,
            butterfly_steps=log_n,
            bitrev_steps=3,
            bitrev_bound=BoundKind.UPPER,
            computation_steps=log_n,
        )
    if network is NetworkKind.MESH_2D:
        side = _square_side(num_points)
        return FftStepCounts(
            network=network,
            num_points=num_points,
            butterfly_steps=2 * (side - 1),
            bitrev_steps=2 * (side - 1),
            bitrev_bound=BoundKind.LOWER,
            computation_steps=log_n,
        )
    if network is NetworkKind.TORUS_2D:
        side = _square_side(num_points)
        return FftStepCounts(
            network=network,
            num_points=num_points,
            butterfly_steps=2 * (side - 1),
            bitrev_steps=side / 2,
            bitrev_bound=BoundKind.LOWER,
            computation_steps=log_n,
        )
    raise ValueError(f"unknown network kind {network!r}")  # pragma: no cover
