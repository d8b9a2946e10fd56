"""Off-line optimal eviction (Belady's MIN) and competitive ratios.

The paper's final open question asks what competitive analysis would
say about blocking (Conclusions, question 8). This module supplies the
measurement apparatus: for a *fixed* blocking with ``s = 1`` (each
vertex in exactly one block, so the block choice is forced and only
eviction is a decision — exactly the classical paging setting), it
computes the off-line optimal fault count via Belady's
farthest-next-use rule, which is optimal for paging with uniform block
sizes. The competitive ratio of an on-line policy on a trace is then
``faults_online / faults_offline``.

For ``s > 1`` blockings the block *choice* also matters and MIN is no
longer obviously optimal; :func:`belady_trace` therefore refuses
blockings that replicate vertices rather than silently produce a
non-optimal "optimum". Once each position is resolved to its block,
MIN needs only the block ids and their sizes: :func:`belady_blocks`
pages such a block reference string directly (fault forensics feeds it
the arrival-level string of a trace).
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

from repro.core.blocking import Blocking
from repro.core.model import ModelParams
from repro.core.stats import SearchTrace
from repro.errors import PagingError
from repro.typing import BlockId, Vertex


def belady_trace(
    path: Sequence[Vertex], blocking: Blocking, params: ModelParams
) -> SearchTrace:
    """Simulate the path under Belady's MIN eviction.

    Lazy (reads only on faults), weak-model (whole blocks), off-line
    (knows the entire path). Requires an ``s = 1`` blocking: every
    vertex in exactly one block.

    Returns a :class:`SearchTrace` comparable to the on-line engine's.
    """
    # Resolve each position to its (unique) block.
    block_of: list[BlockId] = []
    for vertex in path:
        candidates = blocking.blocks_for(vertex)
        if len(candidates) != 1:
            raise s1_violation(vertex, len(candidates))
        block_of.append(candidates[0])
    return belady_blocks(
        block_of, lambda bid: len(blocking.block(bid)), params.memory_size
    )


def belady_blocks(
    block_of: Sequence[BlockId],
    size: Callable[[BlockId], int],
    memory_size: int,
) -> SearchTrace:
    """Belady's MIN over a block reference string.

    ``block_of[i]`` is the block the i-th position of a path references
    and ``size(bid)`` a block's size in vertex copies, asked once per
    fault. Memory holds whole blocks up to ``memory_size`` copies; on a
    fault, the resident blocks whose next reference is farthest away
    are evicted until the new block fits.
    """
    # next_use[i] = next position > i referencing the same block.
    infinity = len(block_of) + 1
    next_use = [infinity] * len(block_of)
    last_seen: dict[BlockId, int] = {}
    for i in range(len(block_of) - 1, -1, -1):
        bid = block_of[i]
        next_use[i] = last_seen.get(bid, infinity)
        last_seen[bid] = i

    trace = SearchTrace()
    resident: dict[BlockId, int] = {}  # block id -> size
    occupancy = 0
    # Max-heap of (-next_use, block id); entries go stale when a block
    # is referenced again, so validate against `upcoming` on pop.
    heap: list[tuple[int, BlockId]] = []
    upcoming: dict[BlockId, int] = {}
    steps_since_fault = 0
    for position, bid in enumerate(block_of):
        if position > 0:
            trace.steps += 1
            steps_since_fault += 1
        if bid in resident:
            upcoming[bid] = next_use[position]
            heapq.heappush(heap, (-next_use[position], bid))
            continue
        # Page fault.
        trace.faults += 1
        trace.fault_gaps.append(steps_since_fault)
        steps_since_fault = 0
        block_size = size(bid)
        while occupancy + block_size > memory_size:
            victim = _pop_farthest(heap, upcoming, resident)
            occupancy -= resident.pop(victim)
            del upcoming[victim]
        resident[bid] = block_size
        occupancy += block_size
        upcoming[bid] = next_use[position]
        heapq.heappush(heap, (-next_use[position], bid))
        trace.blocks_read += 1
        trace.block_reads.append(bid)
    return trace


def s1_violation(vertex: Vertex, blocks: int) -> PagingError:
    """The error MIN gives a path vertex that lives in ``blocks`` != 1
    blocks."""
    return PagingError(
        "belady_trace requires an s=1 blocking (vertex "
        f"{vertex!r} lives in {blocks} blocks)"
    )


def _pop_farthest(heap, upcoming, resident) -> BlockId:
    """The resident block whose next use is farthest away."""
    while heap:
        neg_use, bid = heapq.heappop(heap)
        if bid in resident and upcoming.get(bid) == -neg_use:
            return bid
    raise PagingError("nothing evictable (memory smaller than one block?)")


def competitive_ratio(online: SearchTrace, offline: SearchTrace) -> float:
    """``faults_online / faults_offline`` on the same path/blocking.

    Infinity when the off-line run never faults but the on-line one
    does; 1.0 when neither faults.
    """
    if offline.faults == 0:
        return 1.0 if online.faults == 0 else float("inf")
    return online.faults / offline.faults
