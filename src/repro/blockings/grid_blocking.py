"""Grid-graph blockings (Section 6).

All of these are implicit — block membership is coordinate arithmetic —
so they block *infinite* grids at zero storage cost:

* :func:`contiguous_1d_blocking` — Lemma 20 / Figure 7(a): consecutive
  runs of ``B`` integers, ``s = 1``, speed-up ``B`` with ``M >= 2B``.
* :func:`offset_1d_blocking` — Section 6.1.2 remark: two copies offset
  by ``B/2``, ``s = 2``, speed-up ``B/2`` with only ``M >= B``.
* :func:`offset_grid_blocking` — Lemmas 22/26 / Figure 6: ``s`` copies
  of the cubical tessellation of side ``floor(B^(1/d))``, mutually
  offset by ``c/s`` in every dimension (``s = 2``: corners of one at
  the centers of the other), speed-up ``B^(1/d)/4`` with ``M >= 2B``.
* :func:`sheared_grid_blocking` — Lemma 28 / Figure 7(b,c): the
  sheared isothetic tessellation, ``s = 1``, speed-up
  ``B^(1/d)/(2d^2)`` with ``M >= (d+1)B``. In two dimensions this is
  the classic brick pattern of Lemma 23 (speed-up ``sqrt(B)/6`` with
  ``M >= 3B``).
* :func:`uniform_grid_blocking` — the unsheared ``s = 1`` tessellation:
  the cautionary baseline whose ``2^d``-fold corners the Lemma 31
  adversary exploits.
"""

from __future__ import annotations

from operator import add

from repro.analysis.tessellation import (
    ShearedTessellation,
    Tessellation,
    UniformTessellation,
    sheared_side,
)
from repro.analysis.theory import integer_root
from repro.core.blocking import ImplicitBlocking, Members
from repro.blockings.union import UnionBlocking
from repro.errors import BlockingError
from repro.typing import BlockId, Coord, Vertex


def _require_coord(block_id: BlockId, dim: int) -> None:
    """Refuse an id that is not a lattice point of ``Z^dim``: a tuple of
    ``dim`` ints (a bool is no int), as ``blocks_for`` lists them."""
    if (
        type(block_id) is not tuple
        or len(block_id) != dim
        or not all(type(x) is int for x in block_id)
    ):
        raise BlockingError(
            f"malformed block id {block_id!r}: not a tuple of {dim} ints"
        )


class TessellationBlocking(ImplicitBlocking):
    """One tessellation of ``Z^d`` as a blocking: block = tile.

    ``s = 1``: every lattice point lies in exactly one tile. Finite
    grids may be blocked with this too; tiles straddling the grid
    boundary simply carry some never-visited coordinates.
    """

    def __init__(self, tessellation: Tessellation, block_size: int) -> None:
        if tessellation.tile_volume > block_size:
            raise BlockingError(
                f"tile volume {tessellation.tile_volume} exceeds B={block_size}"
            )
        super().__init__(block_size, blowup=1.0)
        self._tess = tessellation

    @property
    def tessellation(self) -> Tessellation:
        return self._tess

    def blocks_for(self, vertex: Vertex) -> tuple[BlockId, ...]:
        return (self._tess.tile_of(vertex),)

    def _materialize(self, block_id: BlockId) -> frozenset[Coord]:
        _require_coord(block_id, self._tess.dim)
        return frozenset(self._tess.cells(block_id))

    def members(self, block_id: BlockId) -> Members:
        """The built tile's frozenset, or, for a tile not built yet,
        a :class:`_TileMembers` that answers without building it."""
        try:
            built = self._cache.get(block_id)
        except TypeError:
            raise BlockingError(f"unhashable block id {block_id!r}") from None
        if built is not None:
            return built.vertices
        return _TileMembers(self._tess, block_id)

    def interior_distance(self, block_id: BlockId, vertex: Vertex) -> float:
        """Steps needed to leave tile ``block_id`` from ``vertex`` (both
        L1 and Chebyshev metrics agree on axis-aligned boxes); at most
        0 when the tile does not hold ``vertex``."""
        return float(self._tess.boundary_distance(vertex, block_id))


class _TileMembers:
    """An unbuilt tile's vertices as :class:`~repro.core.blocking.Members`:
    a lattice point is in the tile when ``tile_of`` maps it there, and
    the tile holds ``tile_volume`` points. O(1) to make, one
    ``tile_of`` per probe."""

    __slots__ = ("_tile_of", "_tile", "_volume")

    def __init__(self, tessellation: Tessellation, tile: BlockId) -> None:
        self._tile_of = tessellation.tile_of
        self._tile = tile
        self._volume = tessellation.tile_volume

    def __contains__(self, vertex: object) -> bool:
        return self._tile_of(vertex) == self._tile

    def __len__(self) -> int:
        return self._volume


def contiguous_1d_blocking(block_size: int) -> TessellationBlocking:
    """Lemma 20: ``B_i = [iB, (i+1)B)``, ``s = 1``."""
    return TessellationBlocking(
        UniformTessellation(1, block_size), block_size
    )


def offset_1d_blocking(block_size: int) -> UnionBlocking:
    """Section 6.1.2: two 1-D blockings offset by ``B/2``, ``s = 2``."""
    if block_size < 2:
        raise BlockingError(f"offset blocking needs B >= 2, got {block_size}")
    return UnionBlocking(
        [
            TessellationBlocking(UniformTessellation(1, block_size), block_size),
            TessellationBlocking(
                UniformTessellation(1, block_size, offset=(block_size // 2,)),
                block_size,
            ),
        ]
    )


def grid_block_side(block_size: int, dim: int) -> int:
    """``floor(B^(1/d))`` — the cube side used by the offset blockings."""
    if block_size < 1:
        raise BlockingError(f"block size must be >= 1, got {block_size}")
    if dim < 1:
        raise BlockingError(f"dim must be >= 1, got {dim}")
    return integer_root(block_size, dim)


def offset_grid_blocking(
    dim: int, block_size: int, copies: int = 2
) -> UnionBlocking:
    """Lemmas 22/26: ``copies`` cubical tessellations of side
    ``floor(B^(1/d))``, the k-th offset by ``k*c/copies`` in every
    dimension. ``copies = 2`` is the paper's construction (``s = 2``);
    other values support the offset-ablation benchmarks."""
    if copies < 1:
        raise BlockingError(f"copies must be >= 1, got {copies}")
    side = grid_block_side(block_size, dim)
    if copies > 1 and side < copies:
        raise BlockingError(
            f"side {side} too small to offset {copies} copies"
        )
    tessellations = [
        UniformTessellation(dim, side, offset=(k * side // copies,) * dim)
        for k in range(copies)
    ]
    return UnionBlocking(
        [TessellationBlocking(t, block_size) for t in tessellations]
    )


def sheared_grid_blocking(dim: int, block_size: int) -> TessellationBlocking:
    """Lemma 28: the sheared isothetic tessellation, ``s = 1``.

    The side is rounded down so every shear offset is exact (see
    :func:`repro.analysis.tessellation.sheared_side`); this costs at
    most a constant factor in the speed-up.
    """
    side = sheared_side(block_size, dim)
    return TessellationBlocking(ShearedTessellation(dim, side), block_size)


def uniform_grid_blocking(dim: int, block_size: int) -> TessellationBlocking:
    """The unsheared cubical tessellation, ``s = 1`` — the baseline
    with ``2^d``-fold corners (Lemma 30) that the corner-loop adversary
    punishes."""
    side = grid_block_side(block_size, dim)
    return TessellationBlocking(UniformTessellation(dim, side), block_size)


class GridNeighborhoodBlocking(ImplicitBlocking):
    """Lemma 13/27 on (infinite) grid graphs, implicitly: one block per
    lattice point, holding the L1 ball of the largest radius ``r`` with
    ``k_d(r) <= B`` — a compact neighborhood of its center.

    ``blocks_for`` lists the centers whose ball contains the vertex,
    nearest first, so :class:`~repro.core.policies.FirstBlockPolicy`
    implements exactly Lemma 13's "bring in the faulting vertex's own
    block". Storage blow-up is ``k_d(r)`` (each vertex lies in that
    many balls) — the paper's ``s = B`` up to the ball/box rounding.
    """

    def __init__(self, dim: int, block_size: int) -> None:
        from repro.analysis.theory import grid_ball_volume_exact

        if dim < 1:
            raise BlockingError(f"dim must be >= 1, got {dim}")
        radius = 0
        while grid_ball_volume_exact(dim, radius + 1) <= block_size:
            radius += 1
        volume = grid_ball_volume_exact(dim, radius)
        super().__init__(block_size, blowup=float(volume))
        self._dim = dim
        self._radius = radius
        self._offsets = self._ball_offsets(dim, radius)

    @property
    def radius(self) -> int:
        """The ball radius ``r``; Lemma 13 guarantees ``sigma >= r``."""
        return self._radius

    @staticmethod
    def _ball_offsets(dim: int, radius: int) -> list[Coord]:
        """All offsets with L1 norm <= radius, sorted by norm."""
        import itertools as _it

        offsets = [
            delta
            for delta in _it.product(range(-radius, radius + 1), repeat=dim)
            if sum(abs(x) for x in delta) <= radius
        ]
        offsets.sort(key=lambda delta: sum(abs(x) for x in delta))
        return offsets

    def blocks_for(self, vertex: Vertex) -> tuple[BlockId, ...]:
        return tuple([tuple(map(add, vertex, offset)) for offset in self._offsets])

    def _materialize(self, block_id: BlockId) -> frozenset[Coord]:
        _require_coord(block_id, self._dim)
        return frozenset(
            [tuple(map(add, block_id, offset)) for offset in self._offsets]
        )

    def interior_distance(self, block_id: BlockId, vertex: Vertex) -> float:
        norm = sum(abs(v - c) for v, c in zip(vertex, block_id))
        return float(self._radius - norm + 1)


def grid_lemma13_blocking(dim: int, block_size: int) -> GridNeighborhoodBlocking:
    """Lemma 27: the per-vertex L1-ball blocking of a d-dimensional
    grid, guaranteeing ``sigma >= r_d(B) ~ (1/2e) d B^(1/d)``."""
    return GridNeighborhoodBlocking(dim, block_size)


class DiagonalNeighborhoodBlocking(ImplicitBlocking):
    """Lemma 13 on (infinite) diagonal grid graphs: one block per
    lattice point holding the Chebyshev ball of the largest radius
    ``r`` with ``(2r+1)^d <= B``.

    The diagonal analogue of :class:`GridNeighborhoodBlocking`; it
    guarantees ``sigma >= r`` against any walk, by the same Lemma 13
    argument with the L-infinity metric.
    """

    def __init__(self, dim: int, block_size: int) -> None:
        if dim < 1:
            raise BlockingError(f"dim must be >= 1, got {dim}")
        radius = 0
        while (2 * (radius + 1) + 1) ** dim <= block_size:
            radius += 1
        volume = (2 * radius + 1) ** dim
        super().__init__(block_size, blowup=float(volume))
        self._dim = dim
        self._radius = radius
        import itertools as _it

        self._offsets = sorted(
            _it.product(range(-radius, radius + 1), repeat=dim),
            key=lambda delta: max(abs(x) for x in delta),
        )

    @property
    def radius(self) -> int:
        """The Chebyshev ball radius; sigma >= radius is guaranteed."""
        return self._radius

    def blocks_for(self, vertex: Vertex) -> tuple[BlockId, ...]:
        return tuple([tuple(map(add, vertex, offset)) for offset in self._offsets])

    def _materialize(self, block_id: BlockId) -> frozenset[Coord]:
        _require_coord(block_id, self._dim)
        return frozenset(
            [tuple(map(add, block_id, offset)) for offset in self._offsets]
        )

    def interior_distance(self, block_id: BlockId, vertex: Vertex) -> float:
        norm = max(abs(v - c) for v, c in zip(vertex, block_id))
        return float(self._radius - norm + 1)


def diagonal_lemma13_blocking(dim: int, block_size: int) -> DiagonalNeighborhoodBlocking:
    """Lemma 13 for diagonal grids: per-vertex Chebyshev-ball blocks."""
    return DiagonalNeighborhoodBlocking(dim, block_size)
