"""d-dimensional grid graphs (Section 6 of the paper).

The paper's grid graph has vertex set ``Z^d`` and an edge between
points at L1-distance exactly 1 (axis moves only). We provide:

* :class:`InfiniteGridGraph` — the paper's object itself, implicit and
  unbounded; usable by the search engine and by implicit blockings.
* :class:`GridGraph` — a finite axis-aligned box, enumerable, for the
  analysis layer (radii, ball covers) and for bounded experiments.

Coordinates are ``tuple[int, ...]`` of length ``d``.
"""

from __future__ import annotations

import itertools
from operator import sub
from typing import Iterator, Sequence

from repro.errors import GraphError
from repro.graphs.base import FiniteGraph, Graph
from repro.typing import Coord, Vertex


def _axis_moves(coord: Coord) -> list[Coord]:
    """All lattice points at L1-distance 1 from ``coord``, ordered by
    axis then by -1/+1 delta.

    Hot path (every adversary move materializes a neighbor list):
    the 1-D and 2-D cases — the bulk of the experiments — are built
    literally, higher dimensions with one slice pair per axis. The
    ordering is part of the contract: seeded adversaries index into it.
    ``InfiniteGridGraph.neighbors`` builds the same four 2-D moves in
    its own frame and calls this only for other dimensions.
    """
    if len(coord) == 2:
        x, y = coord
        return [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]
    if len(coord) == 1:
        (x,) = coord
        return [(x - 1,), (x + 1,)]
    moves = []
    append = moves.append
    for i, c in enumerate(coord):
        prefix = coord[:i]
        suffix = coord[i + 1:]
        append(prefix + (c - 1,) + suffix)
        append(prefix + (c + 1,) + suffix)
    return moves


def _is_coord(vertex: Vertex, dim: int) -> bool:
    """A ``tuple`` (namedtuples too) of ``dim`` components, each an
    ``int`` by ``isinstance`` (``bool`` too).

    One loop for every dimension; ``InfiniteGridGraph.neighbors`` and
    ``has_edge`` test a 2-D coordinate in their own frames by the same
    rules.
    """
    if not isinstance(vertex, tuple) or len(vertex) != dim:
        return False
    for c in vertex:
        if not isinstance(c, int):
            return False
    return True


def _unit_apart(u: Vertex, v: Vertex, dim: int) -> bool:
    """``_is_coord(u, dim) and _is_coord(v, dim) and l1_distance(u, v) == 1``
    in one pass over the coordinates.

    ``GridGraph.has_edge`` and ``InfiniteGridGraph.has_edge`` for
    d != 2 call it; the infinite 2-D grid writes the same test out in
    its own frame. Once a component fails its ``isinstance`` test the
    answer is ``False`` whatever the others hold, so stopping there
    gives the same answer.
    """
    if (
        not (isinstance(u, tuple) and isinstance(v, tuple))
        or len(u) != dim
        or len(v) != dim
    ):
        return False
    gap = 0
    for a, b in zip(u, v):
        if not (isinstance(a, int) and isinstance(b, int)):
            return False
        gap += abs(a - b)
    return gap == 1


class InfiniteGridGraph(Graph):
    """The infinite grid graph on ``Z^d`` with unit axis moves."""

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise GraphError(f"dimension must be >= 1, got {dim}")
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    def neighbors(self, vertex: Vertex) -> list[Coord]:
        """The ``2d`` axis moves in ``_axis_moves`` order. A 2-D
        integer tuple gets its four moves in this frame (every adversary
        step and every policy BFS vertex asks); anything else goes
        through ``_is_coord`` and, to raise ``GraphError``, ``_check``."""
        if self._dim == 2 and isinstance(vertex, tuple) and len(vertex) == 2:
            x, y = vertex
            if isinstance(x, int) and isinstance(y, int):
                return [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]
        if not _is_coord(vertex, self._dim):
            self._check(vertex)  # raises
        return _axis_moves(vertex)

    def has_vertex(self, vertex: Vertex) -> bool:
        return _is_coord(vertex, self._dim)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """O(d) arithmetic in one pass — no neighbor list is materialized.
        The engine checks every move of a validated walk here, so the
        2-D case unpacks both endpoints and tests the four components
        and the gap in this frame, by ``_unit_apart``'s rules; other
        dimensions call ``_unit_apart``."""
        if self._dim == 2:
            if (
                not (isinstance(u, tuple) and isinstance(v, tuple))
                or len(u) != 2
                or len(v) != 2
            ):
                return False
            a, b = u
            c, d = v
            return (
                isinstance(a, int)
                and isinstance(b, int)
                and isinstance(c, int)
                and isinstance(d, int)
                and abs(a - c) + abs(b - d) == 1
            )
        return _unit_apart(u, v, self._dim)

    def degree(self, vertex: Vertex) -> int:
        self._check(vertex)
        return 2 * self._dim

    def _check(self, vertex: Vertex) -> None:
        if not self.has_vertex(vertex):
            raise GraphError(
                f"{vertex!r} is not a {self._dim}-dimensional integer coordinate"
            )

    def cache_key(self) -> tuple:
        return ("infinite-grid", self._dim)

    def __repr__(self) -> str:
        return f"InfiniteGridGraph(dim={self._dim})"


class GridGraph(FiniteGraph):
    """A finite grid graph on the box ``[0, shape[0]) x ... x [0, shape[d-1])``."""

    def __init__(self, shape: Sequence[int]) -> None:
        if not shape:
            raise GraphError("shape must have at least one dimension")
        if any(extent < 1 for extent in shape):
            raise GraphError(f"all extents must be >= 1, got {tuple(shape)}")
        self._shape = tuple(int(extent) for extent in shape)
        self._dim = len(self._shape)
        self._size = 1
        for extent in self._shape:
            self._size *= extent

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def dim(self) -> int:
        return self._dim

    def neighbors(self, vertex: Vertex) -> list[Coord]:
        self._check(vertex)
        return [c for c in _axis_moves(vertex) if self._inside(c)]

    def has_vertex(self, vertex: Vertex) -> bool:
        return _is_coord(vertex, self._dim) and self._inside(vertex)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """O(d) arithmetic — no neighbor list is materialized."""
        return _unit_apart(u, v, self._dim) and self._inside(u) and self._inside(v)

    def vertices(self) -> Iterator[Coord]:
        return itertools.product(*(range(extent) for extent in self._shape))

    def __len__(self) -> int:
        return self._size

    def center(self) -> Coord:
        """The (floor-)central vertex of the box."""
        return tuple(extent // 2 for extent in self._shape)

    def _inside(self, coord: Coord) -> bool:
        return all(0 <= c < extent for c, extent in zip(coord, self._shape))

    def _check(self, vertex: Vertex) -> None:
        if not self.has_vertex(vertex):
            raise GraphError(f"{vertex!r} is not inside the grid {self._shape}")

    def cache_key(self) -> tuple:
        return ("grid", self._shape)

    def __repr__(self) -> str:
        return f"GridGraph(shape={self._shape})"


def l1_distance(u: Coord, v: Coord) -> int:
    """Manhattan distance — the graph distance in a (full-box) grid graph."""
    return sum(map(abs, map(sub, u, v)))
