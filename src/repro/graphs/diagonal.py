"""d-dimensional diagonal grid graphs (Section 6 of the paper).

A diagonal grid graph has the same vertex set as a grid graph
(``Z^d``), but two distinct points are adjacent whenever every
coordinate differs by at most 1 — king moves in two dimensions
(Figure 5). The graph distance is therefore the Chebyshev (L-infinity)
distance.
"""

from __future__ import annotations

import itertools
from operator import add
from typing import Iterator, Sequence

from repro.errors import GraphError
from repro.graphs.base import FiniteGraph, Graph
from repro.graphs.grid import _is_coord
from repro.typing import Coord, Vertex


def _king_deltas(dim: int) -> tuple[Coord, ...]:
    """The ``3^d - 1`` king moves of ``Z^d`` as offsets, in
    ``itertools.product((-1, 0, 1), repeat=d)`` order without the zero
    move. The ordering is part of the contract: seeded adversaries
    index into neighbor lists (as for the grid's axis moves)."""
    return tuple(
        delta for delta in itertools.product((-1, 0, 1), repeat=dim) if any(delta)
    )


def _king_moves(coord: Coord, deltas: tuple[Coord, ...]) -> list[Coord]:
    """All lattice points at Chebyshev distance exactly 1 from
    ``coord``: one row of the ``deltas`` table each. Hot path (a
    policy's BFS asks it for every vertex it visits), so the 2-D case
    is built literally."""
    if len(coord) == 2:
        x, y = coord
        return [(x + dx, y + dy) for dx, dy in deltas]
    return [tuple(map(add, coord, delta)) for delta in deltas]


class InfiniteDiagonalGridGraph(Graph):
    """The infinite diagonal grid graph on ``Z^d``."""

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise GraphError(f"dimension must be >= 1, got {dim}")
        self._dim = dim
        self._deltas = _king_deltas(dim)

    @property
    def dim(self) -> int:
        return self._dim

    def neighbors(self, vertex: Vertex) -> list[Coord]:
        self._check(vertex)
        return _king_moves(vertex, self._deltas)

    def has_vertex(self, vertex: Vertex) -> bool:
        return _is_coord(vertex, self._dim)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """O(d) arithmetic: adjacent iff Chebyshev distance is 1."""
        return (
            self.has_vertex(u)
            and self.has_vertex(v)
            and chebyshev_distance(u, v) == 1
        )

    def degree(self, vertex: Vertex) -> int:
        self._check(vertex)
        return 3 ** self._dim - 1

    def _check(self, vertex: Vertex) -> None:
        if not self.has_vertex(vertex):
            raise GraphError(
                f"{vertex!r} is not a {self._dim}-dimensional integer coordinate"
            )

    def cache_key(self) -> tuple:
        return ("infinite-diagonal-grid", self._dim)

    def __repr__(self) -> str:
        return f"InfiniteDiagonalGridGraph(dim={self._dim})"


class DiagonalGridGraph(FiniteGraph):
    """A finite diagonal grid graph on an axis-aligned box."""

    def __init__(self, shape: Sequence[int]) -> None:
        if not shape:
            raise GraphError("shape must have at least one dimension")
        if any(extent < 1 for extent in shape):
            raise GraphError(f"all extents must be >= 1, got {tuple(shape)}")
        self._shape = tuple(int(extent) for extent in shape)
        self._dim = len(self._shape)
        self._deltas = _king_deltas(self._dim)
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
        return [c for c in _king_moves(vertex, self._deltas) if self._inside(c)]

    def has_vertex(self, vertex: Vertex) -> bool:
        return _is_coord(vertex, self._dim) and self._inside(vertex)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """O(d) arithmetic: adjacent iff Chebyshev distance is 1."""
        return (
            self.has_vertex(u)
            and self.has_vertex(v)
            and chebyshev_distance(u, v) == 1
        )

    def vertices(self) -> Iterator[Coord]:
        return itertools.product(*(range(extent) for extent in self._shape))

    def __len__(self) -> int:
        return self._size

    def center(self) -> Coord:
        return tuple(extent // 2 for extent in self._shape)

    def _inside(self, coord: Coord) -> bool:
        return all(0 <= c < extent for c, extent in zip(coord, self._shape))

    def _check(self, vertex: Vertex) -> None:
        if not self.has_vertex(vertex):
            raise GraphError(f"{vertex!r} is not inside the grid {self._shape}")

    def cache_key(self) -> tuple:
        return ("diagonal-grid", self._shape)

    def __repr__(self) -> str:
        return f"DiagonalGridGraph(shape={self._shape})"


def chebyshev_distance(u: Coord, v: Coord) -> int:
    """L-infinity distance — the graph distance in a (full-box) diagonal grid."""
    return max(abs(a - b) for a, b in zip(u, v))
