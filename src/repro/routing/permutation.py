"""Permutation algebra for communication phases.

Every communication phase of the FFT and bitonic-sort flow graphs is a
permutation of the ``N`` packets (possibly partial: some PEs idle).  The
:class:`Permutation` class wraps a validated NumPy index array with the
operations schedules need — composition, inversion, application to data
arrays — plus the structural predicates the paper's analysis leans on
(involution, fixed points, bit-permute-complement classification).

Convention: ``perm[i]`` is the **destination** of the packet currently at
position ``i`` ("where does my datum go"), so applying a permutation to a
data vector ``x`` produces ``y`` with ``y[perm[i]] = x[i]``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..networks.addressing import bit, ilog2

__all__ = ["Permutation", "is_permutation_array"]


def is_permutation_array(values: Sequence[int] | np.ndarray) -> bool:
    """True when ``values`` is a permutation of ``0..len-1``.

    Only integer dtypes qualify (bool and float arrays never do).  Once every
    value is known to lie in ``[0, n)``, ``n`` values form a permutation
    exactly when they hit all ``n`` slots, which one O(n) scatter checks.
    """
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        return False
    if not np.issubdtype(arr.dtype, np.integer):
        return False
    n = arr.size
    if arr.min() < 0 or arr.max() >= n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[arr] = True
    return bool(seen.all())


class Permutation:
    """A permutation of ``0..n-1``, stored as a destination array."""

    __slots__ = ("_dest",)

    def __init__(self, destinations: Sequence[int] | np.ndarray):
        # Validate before the int64 cast, which would truncate floats and
        # turn bools into 0/1.
        arr = np.asarray(destinations)
        if not is_permutation_array(arr):
            raise ValueError("input is not a permutation of 0..n-1")
        arr = arr.astype(np.int64)
        arr.setflags(write=False)
        self._dest = arr

    # ------------------------------------------------------- constructors
    @classmethod
    def identity(cls, n: int) -> "Permutation":
        """The identity permutation on ``n`` points."""
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int], n: int) -> "Permutation":
        """Build from a sparse ``source -> destination`` map; unmapped points
        stay put.  Raises if the completed map is not a permutation."""
        dest = np.arange(n, dtype=np.int64)
        for src, dst in mapping.items():
            if not 0 <= src < n:
                raise ValueError(f"source {src} out of range")
            dest[src] = dst
        return cls(dest)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator | None = None) -> "Permutation":
        """A uniformly random permutation (for property tests and stress)."""
        rng = rng or np.random.default_rng()
        return cls(rng.permutation(n))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], n: int) -> "Permutation":
        """Build from disjoint cycles; points not mentioned stay fixed."""
        dest = np.arange(n, dtype=np.int64)
        seen: set[int] = set()
        for cycle in cycles:
            for point in cycle:
                if point in seen:
                    raise ValueError(f"point {point} appears in two cycles")
                seen.add(point)
            for i, point in enumerate(cycle):
                dest[point] = cycle[(i + 1) % len(cycle)]
        return cls(dest)

    # ------------------------------------------------------------ algebra
    @property
    def n(self) -> int:
        """Number of points."""
        return int(self._dest.size)

    @property
    def destinations(self) -> np.ndarray:
        """Read-only destination array: ``destinations[src] = dst``."""
        return self._dest

    def __getitem__(self, source: int) -> int:
        return int(self._dest[source])

    def __len__(self) -> int:
        return self.n

    def inverse(self) -> "Permutation":
        """The inverse permutation."""
        inv = np.empty_like(self._dest)
        inv[self._dest] = np.arange(self.n, dtype=np.int64)
        return Permutation(inv)

    def compose(self, then: "Permutation") -> "Permutation":
        """``then`` applied after ``self``: result[i] = then[self[i]].

        Matches sequential routing phases: packets first move by ``self``,
        the arrangement is then moved by ``then``.
        """
        if then.n != self.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(then._dest[self._dest])

    def __mul__(self, then: "Permutation") -> "Permutation":
        return self.compose(then)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._dest, other._dest))

    def __hash__(self) -> int:
        return hash(self._dest.tobytes())

    # --------------------------------------------------------- predicates
    def is_identity(self) -> bool:
        """True when every point is fixed."""
        return bool(np.array_equal(self._dest, np.arange(self.n)))

    def is_involution(self) -> bool:
        """True when the permutation is its own inverse (e.g. bit reversal,
        every single-stage butterfly exchange)."""
        return bool(np.array_equal(self._dest[self._dest], np.arange(self.n)))

    def fixed_points(self) -> np.ndarray:
        """Indices ``i`` with ``perm[i] == i``."""
        idx = np.arange(self.n)
        return idx[self._dest == idx]

    def cycles(self) -> list[list[int]]:
        """Disjoint cycle decomposition (cycles of length >= 2 only)."""
        seen = np.zeros(self.n, dtype=bool)
        out: list[list[int]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            point = int(self._dest[start])
            while point != start:
                cycle.append(point)
                seen[point] = True
                point = int(self._dest[point])
            if len(cycle) >= 2:
                out.append(cycle)
        return out

    def is_bpc(self) -> bool:
        """True when this is a bit-permute-complement permutation.

        A BPC permutation computes each destination address by permuting the
        source address bits and complementing a fixed subset — the class
        containing bit reversal, perfect shuffles, and all butterfly
        exchanges.  Requires ``n`` to be a power of two.
        """
        return self.bpc_spec() is not None

    def bpc_spec(self) -> tuple[tuple[int, ...], int] | None:
        """Recover ``(bit_source, complement_mask)`` if this is BPC.

        ``dest bit j = source bit bit_source[j] XOR bit j of complement_mask``.
        Returns None when the permutation is not BPC (or n is not a power
        of 2).
        """
        try:
            width = ilog2(self.n)
        except ValueError:
            return None
        if width == 0:
            return (), 0
        complement = int(self._dest[0])  # image of address 0 fixes the mask
        sources: list[int] = []
        for j in range(width):
            # The source bit feeding destination bit j is identified by the
            # image of the unit address 1 << i.
            src = None
            for i in range(width):
                if bit(int(self._dest[1 << i]) ^ complement, j):
                    if src is not None:
                        return None  # two source bits influence one dest bit
                    src = i
            if src is None:
                return None
            sources.append(src)
        if len(set(sources)) != width:
            return None
        # Verify the affine-over-GF(2) reconstruction on every address.
        for addr in range(self.n):
            image = complement
            for j, src in enumerate(sources):
                if bit(addr, src):
                    image ^= 1 << j
            if image != int(self._dest[addr]):
                return None
        return tuple(sources), complement

    # -------------------------------------------------------- application
    def apply(self, data: np.ndarray, axis: int = 0) -> np.ndarray:
        """Move data: output position ``perm[i]`` receives ``data[i]``."""
        data = np.asarray(data)
        if data.shape[axis] != self.n:
            raise ValueError(
                f"data axis {axis} has length {data.shape[axis]}, expected {self.n}"
            )
        out = np.empty_like(data)
        index = [slice(None)] * data.ndim
        index[axis] = self._dest
        out[tuple(index)] = data
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.n <= 16:
            return f"Permutation({self._dest.tolist()})"
        return f"Permutation(n={self.n})"
