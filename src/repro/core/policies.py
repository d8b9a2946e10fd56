"""Block-choice policies.

When the pathfront faults on vertex ``v``, the paging algorithm must
choose *which* block containing ``v`` to read — the only decision an
on-line lazy pager makes (Theorem 1 shows lazy pagers are optimal in
the weak model, so the engine is lazy by construction: it reads exactly
one block per fault, and only on faults).

Construction-specific policies (the rules used inside the paper's
proofs — "bring in the block of the *other* tessellation", "bring in
the block centered nearest the fault") live in
:mod:`repro.blockings.policies`; this module holds the interface and
the generic defaults.
"""

from __future__ import annotations

import abc

from repro.core.blocking import Blocking
from repro.core.memory import Memory
from repro.errors import PagingError
from repro.typing import BlockId, Vertex


class BlockChoicePolicy(abc.ABC):
    """Chooses the block that services a page fault."""

    @abc.abstractmethod
    def choose(self, vertex: Vertex, blocking: Blocking, memory: Memory) -> BlockId:
        """Return the id of a block containing ``vertex`` to read."""

    def reset(self) -> None:
        """Clear any per-search state (default: stateless)."""


class FirstBlockPolicy(BlockChoicePolicy):
    """Always read the first candidate block.

    The right (and only) choice for ``s = 1`` blockings, where every
    vertex lives in exactly one block — there is no decision to make
    (Section 3: on-line equals off-line when ``s = 1``).
    """

    def choose(self, vertex: Vertex, blocking: Blocking, memory: Memory) -> BlockId:
        candidates = blocking.blocks_for(vertex)
        if not candidates:
            raise PagingError(f"vertex {vertex!r} is not covered by the blocking")
        return candidates[0]


class LargestBlockPolicy(BlockChoicePolicy):
    """Read the candidate holding the most vertices.

    A crude but blocking-agnostic heuristic: more vertices per read can
    only increase coverage. Useful as a baseline against the
    construction-specific policies.
    """

    def choose(self, vertex: Vertex, blocking: Blocking, memory: Memory) -> BlockId:
        candidates = blocking.blocks_for(vertex)
        if not candidates:
            raise PagingError(f"vertex {vertex!r} is not covered by the blocking")
        return max(candidates, key=lambda bid: len(blocking.members(bid)))


class MostUncoveredPolicy(BlockChoicePolicy):
    """Read the candidate contributing the most *new* covered vertices.

    A natural greedy rule: maximize the marginal coverage of the read.
    """

    def choose(self, vertex: Vertex, blocking: Blocking, memory: Memory) -> BlockId:
        candidates = blocking.blocks_for(vertex)
        if not candidates:
            raise PagingError(f"vertex {vertex!r} is not covered by the blocking")
        return max(
            candidates,
            key=lambda bid: len(memory.uncovered_among(blocking.block(bid).vertices)),
        )
