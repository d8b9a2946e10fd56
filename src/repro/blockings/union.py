"""Union of blockings — the paper's overlapped-copies trick.

Several of the paper's constructions store the graph more than once,
each copy blocked differently, and let the pager pick whichever copy
serves a fault best: the two offset tree stratifications of Lemma 17,
the two offset grid tessellations of Lemmas 22/26, the two offset 1-D
blockings of Section 6.1.2. :class:`UnionBlocking` composes any list
of blockings into one, namespacing block ids by copy index; its
storage blow-up is the sum of the copies' blow-ups.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.block import Block, make_block
from repro.core.blocking import Blocking, Members
from repro.errors import BlockingError
from repro.typing import BlockId, Vertex


class UnionBlocking(Blocking):
    """The union of several blockings of the same graph.

    Block ids are ``(copy_index, inner_id)``. All copies must share
    one block size. Each block re-wrapped under its union id is built
    once and kept, as the copies keep theirs.
    """

    def __init__(self, copies: Sequence[Blocking]) -> None:
        if not copies:
            raise BlockingError("a union needs at least one blocking")
        sizes = {b.block_size for b in copies}
        if len(sizes) != 1:
            raise BlockingError(f"mismatched block sizes in union: {sorted(sizes)}")
        self._copies = list(copies)
        self._block_size = sizes.pop()
        self._distances = [
            getattr(copy, "interior_distance", None) for copy in self._copies
        ]
        self._blocks: dict[BlockId, Block] = {}

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def copies(self) -> list[Blocking]:
        return list(self._copies)

    def blocks_for(self, vertex: Vertex) -> tuple[BlockId, ...]:
        result: list[BlockId] = []
        for index, copy in enumerate(self._copies):
            result.extend((index, bid) for bid in copy.blocks_for(vertex))
        return tuple(result)

    def block(self, block_id: BlockId) -> Block:
        try:
            built = self._blocks.get(block_id)
        except TypeError:  # unhashable: _unpack names the bad id
            built = None
        if built is None:
            index, inner = self._unpack(block_id)
            inner_block = self._copies[index].block(inner)
            # Re-wrap so the block's id matches the union's namespace.
            built = make_block(block_id, inner_block.vertices, self._block_size)
            self._blocks[block_id] = built
        return built

    def members(self, block_id: BlockId) -> Members:
        index, inner = self._unpack(block_id)
        return self._copies[index].members(inner)

    def storage_blowup(self) -> float:
        return sum(copy.storage_blowup() for copy in self._copies)

    def interior_distance(self, block_id: BlockId, vertex: Vertex) -> float:
        """Delegated interior distance (see
        :class:`repro.blockings.policies.MostInteriorPolicy`); requires
        every copy to expose ``interior_distance``."""
        index, inner = self._unpack(block_id)
        distance = self._distances[index]
        if distance is None:
            raise BlockingError(
                f"blocking copy {index} does not expose interior_distance"
            )
        return distance(inner, vertex)

    def _unpack(self, block_id: BlockId) -> tuple[int, BlockId]:
        if (
            not isinstance(block_id, tuple)
            or len(block_id) != 2
            or not isinstance(block_id[0], int)
            or not 0 <= block_id[0] < len(self._copies)
        ):
            raise BlockingError(f"malformed union block id {block_id!r}")
        return block_id[0], block_id[1]
