"""Internal memory of the external-searching model (Section 2, item 5).

Memory holds at most ``M`` vertex *copies* (the same vertex resident in
two blocks counts twice). A vertex is *covered* while at least one copy
is resident; an uncovered pathfront triggers a page fault.

Two flushing disciplines:

* :class:`WeakMemory` — contents are tracked block-by-block and may
  only be freed a whole block at a time (the paper's weak model; all of
  its algorithms run here). Recency is tracked per block: a block is
  "used" when it is loaded and whenever the pathfront touches one of
  its resident vertices, so LRU eviction matches the proofs' "retain
  the block we are walking in" behaviour.
* :class:`StrongMemory` — copies are individually evictable (the
  paper's strong model, used by its upper bounds). Copies are tracked
  in arrival order.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Collection, Iterable

from repro.core.block import Block
from repro.core.model import ModelParams, PagingModel
from repro.errors import PagingError
from repro.typing import BlockId, Vertex


class Memory(abc.ABC):
    """Common interface of both memory models.

    The base class tracks only occupancy; each model answers the
    coverage queries from the state its flushing discipline keeps
    anyway: :class:`WeakMemory` from its few resident blocks,
    :class:`StrongMemory` from its per-vertex copy counts.
    """

    def __init__(self, params: ModelParams) -> None:
        self._params = params
        self._occupancy = 0

    @property
    def params(self) -> ModelParams:
        return self._params

    @property
    def capacity(self) -> int:
        return self._params.memory_size

    @property
    def occupancy(self) -> int:
        """Resident vertex copies (never exceeds ``capacity``)."""
        return self._occupancy

    @abc.abstractmethod
    def covers(self, vertex: Vertex) -> bool:
        """Whether at least one copy of ``vertex`` is resident."""

    def uncovered_among(self, vertices: Iterable[Vertex]) -> set[Vertex]:
        """The given vertices that are not covered, as a set to probe.

        One call answers a whole batch. :class:`WeakMemory` takes one
        set difference per resident block, and :class:`StrongMemory`
        one against its copy counts, both at C level; this default asks
        :meth:`covers` per vertex. Callers probe the result and never
        iterate it: set order depends on ``PYTHONHASHSEED``.
        """
        return {v for v in vertices if not self.covers(v)}

    @abc.abstractmethod
    def copies_of(self, vertex: Vertex) -> int:
        """Resident copies of ``vertex`` (0 when uncovered)."""

    @abc.abstractmethod
    def covered_vertices(self) -> set[Vertex]:
        """The set of distinct vertices currently covered."""

    @property
    @abc.abstractmethod
    def covered_count(self) -> int:
        """Number of distinct covered vertices. Up to O(M) (the weak
        model takes the union of its resident blocks), so callers read
        it once per fault, never per step."""

    def room_for(self, size: int) -> bool:
        return self._occupancy + size <= self.capacity

    @abc.abstractmethod
    def load(self, block: Block) -> None:
        """Bring a block's copies into memory. Requires room."""

    @abc.abstractmethod
    def touch(self, vertex: Vertex) -> None:
        """Record that the pathfront visited a covered vertex."""

    def visit(self, vertex: Vertex) -> bool:
        """Fused ``covers`` + ``touch``: record the pathfront arriving
        at ``vertex`` if it is covered, and report whether it was.

        The engine's per-step primitive — subclasses override it to
        answer in one pass instead of two.
        """
        if self.covers(vertex):
            self.touch(vertex)
            return True
        return False


class WeakMemory(Memory):
    """Block-granular memory (the paper's weak model).

    No vertex index: the resident blocks answer every coverage query,
    each probed at most once, in load order. There are at most M over
    the smallest of them: M/B with full blocks, and at most 3 in every
    Table 1 cell. A load or flush is O(1) per block, never per copy —
    the model charges one I/O per block, and so does the bookkeeping.
    """

    def __init__(self, params: ModelParams) -> None:
        super().__init__(params)
        # Resident blocks in load order, which is the order a vertex's
        # holders are probed, ticked and reported in — stable across
        # processes, unlike set iteration order, which nothing reads.
        self._resident: dict[BlockId, Block] = {}
        # LRU clock: _recency[bid] is the tick of the block's last use.
        # The dict is additionally kept in *use order* (every tick
        # reinserts its key), so LRU order is its iteration order —
        # no sort is ever needed to find an eviction victim.
        self._recency: dict[BlockId, int] = {}
        self._clock = 0

    def covers(self, vertex: Vertex) -> bool:
        for block in self._resident.values():
            if vertex in block.vertices:
                return True
        return False

    def uncovered_among(self, vertices: Iterable[Vertex]) -> set[Vertex]:
        # Each difference runs at C level on the hashes the sets
        # already hold: no vertex is hashed twice.
        uncovered = set(vertices)
        for block in self._resident.values():
            if not uncovered:
                break
            uncovered = uncovered.difference(block.vertices)
        return uncovered

    def copies_of(self, vertex: Vertex) -> int:
        return len(self.covering_blocks(vertex))

    def covered_vertices(self) -> set[Vertex]:
        return set().union(*[block.vertices for block in self._resident.values()])

    @property
    def covered_count(self) -> int:
        return len(self.covered_vertices())

    def resident_blocks(self) -> tuple[BlockId, ...]:
        return tuple(self._resident)

    def is_resident(self, block_id: BlockId) -> bool:
        return block_id in self._resident

    def load(self, block: Block) -> None:
        block_id = block.block_id
        if block_id in self._resident:
            self._tick(block_id)
            return
        size = len(block.vertices)
        if not self.room_for(size):
            raise PagingError(
                f"loading block {block_id!r} ({size} copies) would "
                f"exceed M={self.capacity} (occupancy {self.occupancy})"
            )
        self._resident[block_id] = block
        self._occupancy += size
        self._tick(block_id)

    def evict_block(self, block_id: BlockId) -> None:
        """Flush one whole resident block (the weak model's only move)."""
        block = self._resident.pop(block_id, None)
        if block is None:
            raise PagingError(f"block {block_id!r} is not resident")
        del self._recency[block_id]
        self._occupancy -= len(block.vertices)

    def covering_blocks(self, vertex: Vertex) -> tuple[BlockId, ...]:
        """Ids of the resident blocks holding a copy of ``vertex``, in
        load order (a fresh tuple per call).

        Empty when the vertex is uncovered. With a redundant blocking
        (``s > 1``) this is how many replicas of the vertex are
        currently in memory — the quantity the reliability layer's
        replica fallback ultimately feeds.
        """
        return tuple(
            [bid for bid, block in self._resident.items() if vertex in block.vertices]
        )

    def touch(self, vertex: Vertex) -> None:
        for block_id in self.covering_blocks(vertex):
            self._tick(block_id)

    def visit(self, vertex: Vertex) -> bool:
        # Hot path: one probe per resident block answers coverage and
        # finds exactly the blocks to tick — the engine calls this once
        # per path step.
        clock = start = self._clock
        recency = self._recency
        for block_id, block in self._resident.items():
            if vertex in block.vertices:
                clock += 1
                del recency[block_id]
                recency[block_id] = clock
        self._clock = clock
        return clock != start

    def lru_order(self) -> list[BlockId]:
        """Resident block ids, least recently used first.

        O(n) copy of the incrementally maintained use order (ticks
        strictly increase, so insertion order *is* recency order) —
        the former sort per call is gone.
        """
        return list(self._recency)

    def lru_block(self) -> BlockId | None:
        """The least recently used resident block id, O(1); ``None``
        when nothing is resident."""
        return next(iter(self._recency), None)

    def resident_block(self, block_id: BlockId) -> Block:
        """The resident block with the given id."""
        try:
            return self._resident[block_id]
        except KeyError:
            raise PagingError(f"block {block_id!r} is not resident") from None

    @property
    def clock(self) -> int:
        """The use-clock: increments on every load or touch."""
        return self._clock

    def last_used(self, block_id: BlockId) -> int:
        """Clock value of the block's most recent use."""
        try:
            return self._recency[block_id]
        except KeyError:
            raise PagingError(f"block {block_id!r} is not resident") from None

    def _tick(self, block_id: BlockId) -> None:
        self._clock += 1
        # Reinsert to keep the dict's iteration order = use order.
        self._recency.pop(block_id, None)
        self._recency[block_id] = self._clock


class StrongMemory(Memory):
    """Copy-granular memory (the paper's strong model).

    Copies live in an arrival-ordered deque of ``(block_id, vertex)``
    pairs; eviction may drop any subset, and the provided primitive
    drops the oldest copies first.
    """

    def __init__(self, params: ModelParams) -> None:
        super().__init__(params)
        self._copies: deque[tuple[BlockId, Vertex]] = deque()
        # Resident-copy multiplicities. Plain dict, never Counter: the
        # engine probes coverage every path step, and Counter's
        # Python-level __missing__/__delitem__ hooks tax exactly that
        # probe. Invariant: present keys always map to counts >= 1.
        self._counts: dict[Vertex, int] = {}

    def covers(self, vertex: Vertex) -> bool:
        return vertex in self._counts

    def uncovered_among(self, vertices: Iterable[Vertex]) -> set[Vertex]:
        return set(vertices).difference(self._counts)

    def copies_of(self, vertex: Vertex) -> int:
        return self._counts.get(vertex, 0)

    def covered_vertices(self) -> set[Vertex]:
        return set(self._counts)

    @property
    def covered_count(self) -> int:
        return len(self._counts)

    def load(self, block: Block) -> None:
        if not self.room_for(len(block)):
            raise PagingError(
                f"loading block {block.block_id!r} ({len(block)} copies) would "
                f"exceed M={self.capacity} (occupancy {self.occupancy})"
            )
        for v in block.vertices:
            self._copies.append((block.block_id, v))
        self._add_copies(block.vertices)

    def evict_oldest(self, count: int) -> None:
        """Flush the ``count`` oldest copies (any subset is legal in the
        strong model; oldest-first is the provided discipline)."""
        if count > len(self._copies):
            raise PagingError(
                f"cannot evict {count} copies; only {len(self._copies)} resident"
            )
        removed = [self._copies.popleft()[1] for _ in range(count)]
        self._remove_copies(removed)

    def evict_all(self) -> None:
        removed = [v for _, v in self._copies]
        self._copies.clear()
        self._remove_copies(removed)

    def _add_copies(self, vertices: Collection[Vertex]) -> None:
        counts = self._counts
        for v in vertices:
            counts[v] = counts.get(v, 0) + 1
        self._occupancy += len(vertices)

    def _remove_copies(self, vertices: Collection[Vertex]) -> None:
        counts = self._counts
        for v in vertices:
            n = counts[v]
            if n == 1:
                del counts[v]
            else:
                counts[v] = n - 1
        self._occupancy -= len(vertices)

    def touch(self, vertex: Vertex) -> None:
        # Copy-level recency is not tracked; eviction is arrival-ordered.
        pass

    def visit(self, vertex: Vertex) -> bool:
        # touch() is a no-op here, so a visit is just the coverage test.
        return vertex in self._counts


def make_memory(params: ModelParams) -> Memory:
    """The memory implementation matching ``params.paging_model``."""
    if params.paging_model is PagingModel.WEAK:
        return WeakMemory(params)
    return StrongMemory(params)
