"""Construction-specific block-choice policies.

The paper's lower-bound proofs all pick the serving block by the same
instinct: *maximize how far the pathfront is from the chosen block's
boundary*. Lemma 17 phrases it as "bring in the block of the other
stratification"; Lemmas 20/22/26 as "bring in the tile the fault is
deepest inside". :class:`MostInteriorPolicy` implements the instinct
directly for any blocking exposing ``interior_distance(block_id, v)``
(all the implicit tree/grid blockings and their unions do);
:class:`OtherCopyPolicy` implements the literal Lemma 17 rule for
:class:`~repro.blockings.union.UnionBlocking`.
"""

from __future__ import annotations

from collections import deque

from repro.blockings.union import UnionBlocking
from repro.core.blocking import Blocking
from repro.core.memory import Memory, WeakMemory
from repro.graphs.base import Graph
from repro.core.policies import BlockChoicePolicy
from repro.errors import PagingError
from repro.typing import BlockId, Vertex


class MostInteriorPolicy(BlockChoicePolicy):
    """Read the candidate block whose boundary is farthest from the
    fault vertex.

    With the Lemma 17 / 22 / 26 union blockings this reproduces the
    proofs' guarantees: the best candidate always has the fault at
    least half a block dimension from its boundary.
    """

    def choose(self, vertex: Vertex, blocking: Blocking, memory: Memory) -> BlockId:
        candidates = blocking.blocks_for(vertex)
        if not candidates:
            raise PagingError(f"vertex {vertex!r} is not covered by the blocking")
        distance = getattr(blocking, "interior_distance", None)
        if distance is None:
            raise PagingError(
                f"{type(blocking).__name__} does not expose interior_distance; "
                "MostInteriorPolicy cannot rank candidates"
            )
        return max(candidates, key=lambda bid: distance(bid, vertex))


class OtherCopyPolicy(BlockChoicePolicy):
    """Lemma 17's literal rule on a two-copy union blocking: when the
    pathfront steps out of a block of one copy, bring in the block of
    the *other* copy containing it.

    Tracks which copy served the previous fault; the first fault (and
    any fault where the alternate copy is unavailable) falls back to
    the most-interior choice.
    """

    def __init__(self) -> None:
        self._last_copy: int | None = None
        self._fallback = MostInteriorPolicy()

    def reset(self) -> None:
        self._last_copy = None
        self._fallback.reset()

    def choose(self, vertex: Vertex, blocking: Blocking, memory: Memory) -> BlockId:
        if not isinstance(blocking, UnionBlocking):
            raise PagingError("OtherCopyPolicy requires a UnionBlocking")
        candidates = blocking.blocks_for(vertex)
        if not candidates:
            raise PagingError(f"vertex {vertex!r} is not covered by the blocking")
        if self._last_copy is not None:
            others = [bid for bid in candidates if bid[0] != self._last_copy]
            if others:
                choice = others[0]
                self._last_copy = choice[0]
                return choice
        choice = self._fallback.choose(vertex, blocking, memory)
        self._last_copy = choice[0]
        return choice


class FarthestFaultPolicy(BlockChoicePolicy):
    """Read the candidate that pushes the next fault farthest away,
    *given what is already in memory*.

    This is the literal rule inside the proofs of Lemmas 20/22/26: the
    pager retains the block being stepped out of (LRU does that), and
    the incoming block is chosen so that the distance from the
    pathfront to the nearest vertex covered by neither memory nor the
    incoming block is maximal. Per-block interior distance is not
    enough at tile corners — stepping out near a corner of the old
    tile leaves both candidate tiles shallow on one side, but one of
    them combines with the *retained* old tile to buy the full
    ``side/4`` guarantee.

    Cost: one bounded BFS per candidate per fault.
    """

    def __init__(self, graph: Graph, max_radius: int | None = None) -> None:
        self._graph = graph
        self._max_radius = max_radius

    def choose(self, vertex: Vertex, blocking: Blocking, memory: Memory) -> BlockId:
        candidates = blocking.blocks_for(vertex)
        if not candidates:
            raise PagingError(f"vertex {vertex!r} is not covered by the blocking")
        if len(candidates) == 1:
            return candidates[0]
        # LRU makes room for the candidate itself, so what survives
        # depends on its size, which may be less than B. Ranking needs
        # only each candidate's membership and size, so it asks
        # ``members``: a tile that loses is never built.
        survivors: dict[int, set[Vertex]] = {}
        best_bid = None
        best_distance = -1
        for bid in candidates:
            block_vertices = blocking.members(bid)
            size = len(block_vertices)
            if size not in survivors:
                survivors[size] = self._surviving_coverage(memory, size)
            distance = self._fault_distance(vertex, block_vertices, survivors[size])
            if distance > best_distance:
                best_distance = distance
                best_bid = bid
        return best_bid

    @staticmethod
    def _surviving_coverage(memory: Memory, incoming_size: int) -> set[Vertex]:
        """The vertices that will still be covered after LRU makes room
        for the incoming block. Ranking candidates against *current*
        memory would overcount: with M = 2B the least-recently-used
        block is about to be flushed, and the proofs' guarantee rests
        only on the retained (just-exited) block."""
        if not isinstance(memory, WeakMemory):
            return memory.covered_vertices()
        # LRU flushes oldest first until the incoming block fits, so the
        # survivors are the longest most-recent run that fits the budget:
        # once a block does not fit, it and every older block go.
        budget = memory.capacity - incoming_size
        survivors: set[Vertex] = set()
        for bid in reversed(memory.lru_order()):
            block = memory.resident_block(bid)
            if len(block) > budget:
                break
            survivors.update(block.vertices)
            budget -= len(block)
        return survivors

    def _fault_distance(self, vertex: Vertex, block_vertices, covered) -> int:
        """BFS distance from ``vertex`` to the nearest vertex in neither
        ``covered`` nor ``block_vertices``; capped by ``max_radius``
        (a cap only matters for ranking ties). ``covered`` is probed
        first: it is a plain set, while an unbuilt tile answers by
        arithmetic."""
        neighbors = self._graph.neighbors
        max_radius = self._max_radius
        seen = {vertex}
        queue = deque([(vertex, 0)])
        while queue:
            u, du = queue.popleft()
            if max_radius is not None and du >= max_radius:
                return du
            for v in neighbors(u):
                if v in seen:
                    continue
                seen.add(v)
                if v not in covered and v not in block_vertices:
                    return du + 1
                queue.append((v, du + 1))
        return len(seen)  # everything reachable is covered
