"""Blockings: the assignment of vertices to disk blocks.

A *blocking* fixes, before any search begins and with no knowledge of
the path (Section 2, assumption 4), which vertices live in which
blocks. The two concrete flavours are:

* :class:`ExplicitBlocking` — blocks materialized as sets; used for
  general graphs, trees built by BFS, ball-cover blockings, etc.
  Storage blow-up is measured empirically.
* :class:`ImplicitBlocking` (abstract) — block membership computed by
  arithmetic on the vertex (grid tessellations, tree strata), so that
  blockings of *infinite* graphs cost nothing to hold. Storage blow-up
  is supplied analytically by the construction.

The paper's storage blow-up is ``s = S / (n / B)`` where ``S`` is the
number of blocks used (Section 2); intuitively the average number of
blocks containing each vertex. For implicit blockings of infinite
graphs the same quantity is the density of block copies per vertex.
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator, Mapping, Protocol

from repro.core.block import Block, make_block
from repro.errors import BlockingError
from repro.typing import BlockId, Vertex


class Members(Protocol):
    """A block's vertices as far as ranking needs them: membership and
    size. A built block's ``frozenset`` is one; an unbuilt tile answers
    both by arithmetic (see :meth:`Blocking.members`)."""

    def __contains__(self, vertex: object, /) -> bool: ...

    def __len__(self) -> int: ...


class Blocking(abc.ABC):
    """Abstract assignment of vertices to blocks."""

    @property
    @abc.abstractmethod
    def block_size(self) -> int:
        """The model's ``B``: maximum vertices per block."""

    @abc.abstractmethod
    def blocks_for(self, vertex: Vertex) -> tuple[BlockId, ...]:
        """Ids of every block containing ``vertex``.

        Must be non-empty for every vertex of the blocked graph: a
        blocking has to cover the graph or searches could never fault
        the vertex in.
        """

    @abc.abstractmethod
    def block(self, block_id: BlockId) -> Block:
        """The block with the given id."""

    @abc.abstractmethod
    def storage_blowup(self) -> float:
        """The paper's ``s``: average number of block copies per vertex."""

    def members(self, block_id: BlockId) -> Members:
        """The block's vertices, for ``in`` and ``len`` only.

        Policies rank candidate blocks through this, so a candidate
        that loses is never built when the blocking can answer without
        building it. The default builds the block and returns its
        frozenset; :class:`~repro.blockings.grid_blocking.TessellationBlocking`
        answers an unbuilt tile by arithmetic.
        """
        return self.block(block_id).vertices

    def primary_block_for(self, vertex: Vertex) -> Block:
        """The first block containing ``vertex`` (any one suffices to
        service a fault — Section 2, assumption 3)."""
        candidates = self.blocks_for(vertex)
        if not candidates:
            raise BlockingError(f"vertex {vertex!r} is not covered by the blocking")
        return self.block(candidates[0])


class ExplicitBlocking(Blocking):
    """A blocking with materialized block contents.

    Construction validates that every block respects the capacity ``B``
    and builds the reverse index ``vertex -> block ids``.
    """

    def __init__(
        self,
        block_size: int,
        blocks: Mapping[BlockId, Iterable[Vertex]],
        universe_size: int | None = None,
    ) -> None:
        """Args:
        block_size: the model's ``B``.
        blocks: mapping of block id to the vertices stored in it.
        universe_size: number of distinct vertices in the *graph*;
            defaults to the number of distinct vertices appearing in
            the blocking (they coincide when the blocking covers the
            graph exactly).
        """
        if block_size < 1:
            raise BlockingError(f"block size must be >= 1, got {block_size}")
        self._block_size = block_size
        self._blocks: dict[BlockId, Block] = {}
        self._index: dict[Vertex, list[BlockId]] = {}
        for block_id, vertices in blocks.items():
            block = make_block(block_id, vertices, block_size)
            if block_id in self._blocks:
                raise BlockingError(f"duplicate block id {block_id!r}")
            self._blocks[block_id] = block
            for vertex in block:
                self._index.setdefault(vertex, []).append(block_id)
        if not self._blocks:
            raise BlockingError("a blocking must contain at least one block")
        self._universe_size = (
            universe_size if universe_size is not None else len(self._index)
        )
        if self._universe_size < len(self._index):
            raise BlockingError(
                f"universe_size={self._universe_size} smaller than the "
                f"{len(self._index)} distinct vertices blocked"
            )

    @property
    def block_size(self) -> int:
        return self._block_size

    def blocks_for(self, vertex: Vertex) -> tuple[BlockId, ...]:
        return tuple(self._index.get(vertex, ()))

    def block(self, block_id: BlockId) -> Block:
        try:
            return self._blocks[block_id]
        except KeyError:
            raise BlockingError(f"unknown block id {block_id!r}") from None
        except TypeError:
            raise BlockingError(f"unhashable block id {block_id!r}") from None

    def block_ids(self) -> Iterator[BlockId]:
        return iter(self._blocks)

    def num_blocks(self) -> int:
        return len(self._blocks)

    def covered_vertices(self) -> Iterator[Vertex]:
        return iter(self._index)

    def covers(self, vertices: Iterable[Vertex]) -> bool:
        """Whether every vertex given appears in at least one block."""
        return all(v in self._index for v in vertices)

    def storage_blowup(self) -> float:
        """``s = S / (n / B)`` measured from the materialized blocks."""
        return self.num_blocks() * self._block_size / self._universe_size

    def copies_of(self, vertex: Vertex) -> int:
        """How many blocks contain ``vertex`` (0 if uncovered)."""
        return len(self._index.get(vertex, ()))

    def max_copies(self) -> int:
        """Maximum replication of any single vertex."""
        return max(len(ids) for ids in self._index.values())

    def __repr__(self) -> str:
        return (
            f"ExplicitBlocking(B={self._block_size}, blocks={self.num_blocks()}, "
            f"s={self.storage_blowup():.2f})"
        )


class ImplicitBlocking(Blocking):
    """A blocking whose membership is computed, not stored.

    Subclasses implement the two lookups arithmetically and report the
    analytic storage blow-up of the construction. ``block`` results are
    memoized because paging repeatedly loads the same tiles.
    """

    def __init__(self, block_size: int, blowup: float) -> None:
        if block_size < 1:
            raise BlockingError(f"block size must be >= 1, got {block_size}")
        if blowup <= 0:
            raise BlockingError(f"storage blow-up must be positive, got {blowup}")
        self._block_size = block_size
        self._blowup = blowup
        self._cache: dict[BlockId, Block] = {}

    @property
    def block_size(self) -> int:
        return self._block_size

    def storage_blowup(self) -> float:
        return self._blowup

    @abc.abstractmethod
    def _materialize(self, block_id: BlockId) -> frozenset[Vertex]:
        """Compute the vertex set of the block with the given id.

        Runs on a memo miss only, so it is where a subclass refuses an
        id it could not have listed (with :class:`BlockingError`),
        before anything is built or kept."""

    def block(self, block_id: BlockId) -> Block:
        try:
            cached = self._cache.get(block_id)
        except TypeError:
            raise BlockingError(f"unhashable block id {block_id!r}") from None
        if cached is None:
            vertices = self._materialize(block_id)
            cached = make_block(block_id, vertices, self._block_size)
            self._cache[block_id] = cached
        return cached
