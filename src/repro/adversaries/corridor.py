"""Corridor adversaries for grid graphs (Lemmas 18, 21, 24, 25).

The paper's grid upper bounds all play the same game: confine the walk
to an infinite corridor of cross-section ``B^(1/d) x ... x B^(1/d)``
extending along the first axis, and always step toward the closest
uncovered cell that advances least along the corridor. A potential
argument then shows any blocking suffers a fault every ``d B^(1/d)``
steps (grids) or ``2 B^(1/d)`` steps (diagonal grids, where one move
fixes every cross coordinate at once).

These adversaries run on the infinite grids or inside a finite grid
big enough to contain the corridor (pass ``base`` to place it).
"""

from __future__ import annotations

import itertools

from repro.core.engine import Adversary, MemoryView
from repro.errors import AdversaryError
from repro.graphs.base import Graph
from repro.typing import Coord, Vertex


class _CorridorBase(Adversary):
    """Shared target-scanning machinery of both corridor adversaries."""

    def __init__(
        self,
        dim: int,
        block_size: int,
        memory_size: int,
        base: Coord | None = None,
        width: int | None = None,
    ) -> None:
        if dim < 1:
            raise AdversaryError(f"dim must be >= 1, got {dim}")
        self._dim = dim
        if width is None:
            width = _floor_root(block_size, dim)
        if width < 1:
            raise AdversaryError(f"corridor width must be >= 1, got {width}")
        self._width = width
        self._base = tuple(base) if base is not None else (0,) * dim
        if len(self._base) != dim:
            raise AdversaryError(
                f"base has {len(self._base)} components; expected {dim}"
            )
        # An uncovered cell must appear within M/width^(d-1) columns of
        # the pathfront; scan a little farther for safety.
        cross_cells = max(width ** (dim - 1), 1)
        self._horizon = memory_size // cross_cells + block_size + 4
        self._target: Coord | None = None
        self._seen_faults = -1

    @property
    def width(self) -> int:
        return self._width

    def reset(self) -> None:
        self._target = None
        self._seen_faults = -1

    def start(self, view: MemoryView) -> Vertex:
        return self._base

    def _cross_ranges(self):
        return [
            range(self._base[i], self._base[i] + self._width)
            for i in range(1, self._dim)
        ]

    def _find_target(self, pathfront: Coord, view: MemoryView) -> Coord:
        """The uncovered corridor cell with the smallest first
        coordinate >= the pathfront's (the proofs' "increase t_1 the
        minimum amount"). Within that column the tie-break is exact:
        the first cell, in the cross-section's product order, of
        minimum L1 distance from the pathfront's cross coordinates —
        so the pathfront's own cross cell whenever it lies in the
        corridor and is uncovered.

        The cross-section is ordered by that rule once per call, and
        each column costs one ``view.uncovered_among`` call; its set is
        only probed, in that order, never iterated."""
        ranges = self._cross_ranges()
        # Each cross position's L1 distance is the sum of its per-axis
        # distances, taken over the same product as the positions; the
        # stable sort keeps product order among equal distances.
        axis_distances = [
            [abs(c - p) for c in axis] for axis, p in zip(ranges, pathfront[1:])
        ]
        distances = list(map(sum, itertools.product(*axis_distances)))
        crosses = list(itertools.product(*ranges))
        nearest_first = [
            crosses[i] for i in sorted(range(len(crosses)), key=distances.__getitem__)
        ]
        x0 = pathfront[0]
        for x in range(x0, x0 + self._horizon):
            column = list(map((x,).__add__, nearest_first))
            uncovered = view.uncovered_among(column)
            if uncovered:
                return next(filter(uncovered.__contains__, column))
        raise AdversaryError(
            f"no uncovered corridor cell within {self._horizon} columns — "
            "is memory larger than the whole corridor window?"
        )

    def step(self, pathfront: Vertex, view: MemoryView) -> Vertex:
        if view.fault_count != self._seen_faults or self._target is None:
            self._seen_faults = view.fault_count
            self._target = self._find_target(pathfront, view)
        move = self._move_toward(pathfront, self._target)
        if move == self._target:
            self._target = None
        return move

    def _move_toward(self, pathfront: Coord, target: Coord) -> Coord:
        raise NotImplementedError


class GridCorridorAdversary(_CorridorBase):
    """Lemmas 18 / 21 / 24: the corridor adversary on ordinary grids.

    Routing: fix the cross coordinates one axis at a time (the
    ``t_2..t_d`` moves), then advance along the corridor (the
    amortized ``t_1`` moves). Every move changes one coordinate by 1 —
    a legal grid edge.
    """

    def _move_toward(self, pathfront: Coord, target: Coord) -> Coord:
        for axis in range(self._dim - 1, 0, -1):
            delta = target[axis] - pathfront[axis]
            if delta:
                step = 1 if delta > 0 else -1
                return (
                    pathfront[:axis]
                    + (pathfront[axis] + step,)
                    + pathfront[axis + 1 :]
                )
        if target[0] != pathfront[0]:
            step = 1 if target[0] > pathfront[0] else -1
            return (pathfront[0] + step,) + pathfront[1:]
        raise AdversaryError("already at target; planner should have reset")


class DiagonalCorridorAdversary(_CorridorBase):
    """Lemma 25: the corridor adversary on diagonal grids.

    A king move adjusts *every* coordinate simultaneously, so the walk
    reaches the target in Chebyshev distance many steps — the extra
    factor ``d`` of the grid bound disappears, matching the tighter
    ``2 B^(1/d)`` cap.
    """

    def _move_toward(self, pathfront: Coord, target: Coord) -> Coord:
        move = tuple(
            p + _sign(t - p) for p, t in zip(pathfront, target)
        )
        if move == pathfront:
            raise AdversaryError("already at target; planner should have reset")
        return move


def _sign(x: int) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _floor_root(value: int, degree: int) -> int:
    root = int(round(value ** (1.0 / degree)))
    while root ** degree > value:
        root -= 1
    while (root + 1) ** degree <= value:
        root += 1
    return max(root, 1)
