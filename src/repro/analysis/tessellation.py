"""Isothetic hypercube tessellations of ``Z^d`` (Section 6.3.3).

A tessellation partitions the lattice into axis-aligned cubes of side
``c`` ("isothetic hypercubes"). Two families:

* :class:`UniformTessellation` — a translate of the standard cubical
  grid. Lemma 29/30: any such stacking has *complexes* (corner points
  incident on many tiles) of degree up to ``2^d >= d + 1``, which the
  Lemma 31 adversary exploits.
* :class:`ShearedTessellation` — Lemma 28's construction: layers along
  the last dimension, each layer's (d-1)-dimensional pattern offset by
  ``i/p`` of a side in dimension ``i`` per layer (``p`` the smallest
  prime ``>= d``), so that no point is incident on more than ``d + 1``
  tiles. The exact degree bound requires ``p | side``; use
  :func:`sheared_side` to pick a compliant side for a block size.

Tile ids are opaque tuples; cells are lattice coordinates.
"""

from __future__ import annotations

import abc
import itertools
import math
from typing import Iterator

from repro.analysis.theory import smallest_prime_at_least
from repro.errors import AnalysisError
from repro.typing import Coord


class Tessellation(abc.ABC):
    """A partition of ``Z^d`` into axis-aligned cubes of equal side."""

    def __init__(self, dim: int, side: int) -> None:
        if dim < 1:
            raise AnalysisError(f"dim must be >= 1, got {dim}")
        if side < 1:
            raise AnalysisError(f"side must be >= 1, got {side}")
        self._dim = dim
        self._side = side

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def side(self) -> int:
        return self._side

    @property
    def tile_volume(self) -> int:
        return self._side ** self._dim

    @abc.abstractmethod
    def tile_of(self, coord: Coord) -> tuple:
        """The id of the tile containing ``coord``."""

    @abc.abstractmethod
    def tile_origin(self, tile_id: tuple) -> Coord:
        """The lexicographically smallest cell of the tile."""

    def cells(self, tile_id: tuple) -> Iterator[Coord]:
        """All lattice points of the tile."""
        origin = self.tile_origin(tile_id)
        ranges = [range(o, o + self._side) for o in origin]
        return itertools.product(*ranges)

    def boundary_distance(self, coord: Coord, tile_id: tuple | None = None) -> int:
        """Graph (L1 or Chebyshev — they agree on axis-aligned faces)
        distance from ``coord`` to the nearest cell *outside* the tile
        ``tile_id`` (default: the tile holding ``coord``):
        ``min_i min(x_i - lo_i, hi_i - 1 - x_i) + 1``. At most 0 when
        the tile does not hold ``coord``."""
        if tile_id is None:
            tile_id = self.tile_of(coord)
        origin = self.tile_origin(tile_id)
        slack = min(
            min(x - o, o + self._side - 1 - x) for x, o in zip(coord, origin)
        )
        return slack + 1


class UniformTessellation(Tessellation):
    """The standard cubical tessellation translated by ``offset``."""

    def __init__(self, dim: int, side: int, offset: Coord | None = None) -> None:
        super().__init__(dim, side)
        self._offset = tuple(offset) if offset is not None else (0,) * dim
        if len(self._offset) != dim:
            raise AnalysisError(
                f"offset has {len(self._offset)} components; expected {dim}"
            )

    @property
    def offset(self) -> Coord:
        return self._offset

    def tile_of(self, coord: Coord) -> tuple:
        return tuple(
            (x - o) // self._side for x, o in zip(coord, self._offset)
        )

    def tile_origin(self, tile_id: tuple) -> Coord:
        return tuple(
            t * self._side + o for t, o in zip(tile_id, self._offset)
        )


class ShearedTessellation(Tessellation):
    """Lemma 28's layered, sheared cubical tessellation, built
    recursively: the d-dimensional pattern is a stack of
    (d-1)-dimensional sheared patterns along the last axis, where the
    stack's layer ``l`` is translated by ``l * i * c / p_d`` in
    dimension ``i`` (1-indexed), with ``p_j`` the smallest prime
    ``>= j``. Each lower level applies the same rule with its own
    prime, so a layer's internal complexes of degree ``j`` always land
    in the middle of a face of the adjacent layer; the maximum complex
    degree is ``d + 1`` (verified by exhaustive scan in the tests for
    ``d <= 4``).

    In one dimension there is nothing to shear and this degenerates to
    the uniform tessellation. For the degree bound to be exact the
    side should be a multiple of ``lcm(p_2, ..., p_d)`` (use
    :func:`sheared_side`); other sides round the shear and may in
    principle create an extra incidence.
    """

    def __init__(self, dim: int, side: int) -> None:
        super().__init__(dim, side)
        # _primes[j] is the shear prime of the stacking at (1-indexed)
        # dimension j+1; index 0 is unused padding.
        self._primes = [smallest_prime_at_least(j) for j in range(dim + 1)]

    @property
    def primes(self) -> list[int]:
        """Shear primes, indexed by 1-based stacking dimension."""
        return list(self._primes)

    def tile_of(self, coord: Coord) -> tuple:
        c, d = self._side, self._dim
        shifts = [0] * d
        idx = [0] * d
        for j in range(d - 1, -1, -1):
            layer = (coord[j] - shifts[j]) // c
            idx[j] = layer
            # Stacking along (0-based) dim j shears every lower dim i
            # by (i+1)/p_{j+1} of a side per layer.
            p = self._primes[j + 1]
            for i in range(j):
                shifts[i] += layer * ((i + 1) * c // p)
        return tuple(idx)

    def tile_origin(self, tile_id: tuple) -> Coord:
        c, d = self._side, self._dim
        shifts = [0] * d
        for j in range(d - 1, -1, -1):
            layer = tile_id[j]
            p = self._primes[j + 1]
            for i in range(j):
                shifts[i] += layer * ((i + 1) * c // p)
        return tuple(tile_id[i] * c + shifts[i] for i in range(d))


def shear_lcm(dim: int) -> int:
    """``lcm(p_2, ..., p_d)`` — sides divisible by this make every
    shear offset exact."""
    value = 1
    for j in range(2, dim + 1):
        value = math.lcm(value, smallest_prime_at_least(j))
    return value


def sheared_side(block_size: int, dim: int) -> int:
    """The largest cube side usable by Lemma 28 for block size ``B``:
    at most ``floor(B^(1/d))``, rounded down to a multiple of the shear
    primes' lcm so the offsets are exact (falling back to the raw side
    when the lcm itself is too large)."""
    if block_size < 1:
        raise AnalysisError(f"block size must be >= 1, got {block_size}")
    side = _integer_root(block_size, dim)
    if dim == 1:
        return side
    lcm = shear_lcm(dim)
    if side >= lcm:
        return (side // lcm) * lcm
    return side


def _integer_root(value: int, degree: int) -> int:
    """``floor(value ** (1/degree))`` computed exactly."""
    if value < 1:
        raise AnalysisError(f"value must be >= 1, got {value}")
    if degree == 1:
        return value
    root = int(round(value ** (1.0 / degree)))
    while root ** degree > value:
        root -= 1
    while (root + 1) ** degree <= value:
        root += 1
    return max(root, 1)


def complex_degree(tess: Tessellation, corner: Coord) -> int:
    """The degree of the corner point ``corner`` (Definition 9): the
    number of distinct tiles among the ``2^d`` cells incident on it —
    the cells whose coordinates are ``corner_i - 1`` or ``corner_i``."""
    if len(corner) != tess.dim:
        raise AnalysisError(
            f"corner has {len(corner)} components; expected {tess.dim}"
        )
    tiles = {
        tess.tile_of(tuple(c + delta for c, delta in zip(corner, deltas)))
        for deltas in itertools.product((-1, 0), repeat=tess.dim)
    }
    return len(tiles)


def max_complex_degree(
    tess: Tessellation, window_lo: Coord, window_hi: Coord
) -> tuple[int, Coord]:
    """Scan all corners in the half-open box and return the largest
    complex degree found with a witnessing corner."""
    ranges = [range(lo, hi) for lo, hi in zip(window_lo, window_hi)]
    best = 0
    witness: Coord | None = None
    for corner in itertools.product(*ranges):
        degree = complex_degree(tess, corner)
        if degree > best:
            best = degree
            witness = corner
    if witness is None:
        raise AnalysisError("empty scan window")
    return best, witness


def find_complex(
    tess: Tessellation,
    min_degree: int,
    window_lo: Coord,
    window_hi: Coord,
) -> Coord | None:
    """The first corner in the box with degree >= ``min_degree``, if any."""
    ranges = [range(lo, hi) for lo, hi in zip(window_lo, window_hi)]
    for corner in itertools.product(*ranges):
        if complex_degree(tess, corner) >= min_degree:
            return corner
    return None


def corner_cells_gray_order(corner: Coord) -> list[Coord]:
    """The ``2^d`` cells incident on a corner, ordered so consecutive
    cells differ in exactly one coordinate (a Gray-code loop) — a legal
    grid-graph walk around the corner, used by the Lemma 31 adversary.
    The order is cyclic: the last cell is also one step from the first.
    """
    d = len(corner)
    cells: list[Coord] = []
    for rank in range(2 ** d):
        gray = rank ^ (rank >> 1)
        cells.append(
            tuple(corner[i] - ((gray >> i) & 1) for i in range(d))
        )
    return cells
