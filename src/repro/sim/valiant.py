"""Valiant-style two-phase randomized routing.

The introduction leans on Valiant's universality result (any bounded-degree
network simulated by the hypercube with O(log N) slowdown) and on [13]'s
O(log N / loglog N) analogue for degree-log hypermeshes.  The engine of both
proofs is two-phase randomized routing: send every packet to a *random
intermediate* first, then on to its true destination — destroying any
adversarial correlation in the demand pattern.

This module implements the permutation-based variant (the random
intermediate assignment is itself a uniformly random permutation, so the
word-level engine's one-packet-per-PE invariant is preserved): phase one
routes the random permutation sigma, phase two routes sigma^{-1} compose
perm.  Expected cost is about twice the average-distance bound on any
vertex-symmetric network, independent of how nasty ``perm`` is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..networks.base import Topology
from ..routing.permutation import Permutation
from .engine import RoutedPermutation, route_permutation
from .routers import Router
from .schedule import ScheduleError

__all__ = ["TwoPhaseRoute", "route_two_phase"]


@dataclass(frozen=True)
class TwoPhaseRoute:
    """Result of randomized two-phase routing."""

    intermediate: Permutation
    phase1: RoutedPermutation
    phase2: RoutedPermutation

    @property
    def total_steps(self) -> int:
        """Steps of both phases run back to back."""
        return self.phase1.stats.steps + self.phase2.stats.steps

    @property
    def total_hops(self) -> int:
        """Channel traversals across both phases."""
        return self.phase1.stats.total_hops + self.phase2.stats.total_hops


def route_two_phase(
    topology: Topology,
    perm: Permutation,
    rng: np.random.Generator | None = None,
    router: Router | None = None,
) -> TwoPhaseRoute:
    """Route ``perm`` via a uniformly random intermediate permutation.

    Phase 1 routes every packet to ``sigma(src)``; phase 2 routes the
    arrangement onward, realizing ``sigma^{-1} . perm`` so the composition
    equals ``perm`` exactly.  Both phases are recorded and hardware-validated
    like any other routed permutation.
    """
    rng = rng or np.random.default_rng()
    sigma = Permutation.random(perm.n, rng)
    phase1 = route_permutation(topology, sigma, router)
    phase2 = route_permutation(topology, sigma.inverse().compose(perm), router)
    # Composition check: the two phases together must realize `perm`.
    composed = sigma.compose(phase2.schedule.logical)
    if composed != perm:
        raise ScheduleError(
            "two-phase composition does not realize the permutation: "
            "sigma then phase two differs from it"
        )
    return TwoPhaseRoute(intermediate=sigma, phase1=phase1, phase2=phase2)
