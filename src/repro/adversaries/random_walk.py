"""Random-walk path generator — the benign, average-case reference.

The paper's guarantees are worst case; the benchmarks also report a
uniform random walk so the gap between worst-case and typical
behaviour of each blocking is visible.

A step is one ``graph.neighbors`` call and ``Random.choice``'s own
draw, written out in the step's frame: ``k = n.bit_length()``, then
the seeded generator's ``getrandbits(k)`` until the draw is below
``n``. Those are the calls ``random.Random(seed).choice`` makes, in
the same order, so a seed walks the same vertices as ``choice`` over
:func:`~repro.adversaries._order.canonical_order`'s answer. A list
answer (the grids' and the trees') is indexed as returned without the
call, since ``canonical_order`` returns a list unchanged.
"""

from __future__ import annotations

import random

from repro.adversaries._order import canonical_order
from repro.core.engine import Adversary, MemoryView
from repro.errors import AdversaryError
from repro.graphs.base import Graph
from repro.typing import Vertex


class RandomWalkAdversary(Adversary):
    """Uniformly random neighbor at every step (seeded)."""

    def __init__(self, graph: Graph, start: Vertex, seed: int = 0) -> None:
        self._graph = graph
        self._start = start
        self._seed = seed
        self._getrandbits = random.Random(seed).getrandbits

    def reset(self) -> None:
        self._getrandbits = random.Random(self._seed).getrandbits

    def start(self, view: MemoryView) -> Vertex:
        return self._start

    def step(self, pathfront: Vertex, view: MemoryView) -> Vertex:
        # ``neighbors`` is looked up on the graph at every step, so a
        # wrapper installed on the graph's class after set-up sees it.
        neighbors = self._graph.neighbors(pathfront)
        if type(neighbors) is not list:  # canonical_order keeps a list as is
            neighbors = canonical_order(neighbors)
        n = len(neighbors)
        if not n:
            raise AdversaryError(f"{pathfront!r} has no neighbors")
        getrandbits = self._getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return neighbors[r]
