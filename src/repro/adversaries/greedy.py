"""The greedy nearest-uncovered adversary (Lemmas 7 and 8).

The generic worst-case walker: from the pathfront, BFS to the nearest
uncovered vertex and walk there; repeat. By the definition of the
M-radius there is always an uncovered vertex within ``r^+(M)`` of the
pathfront, so this adversary caps any blocking at ``sigma <= r^+(M)``
— and on the Section 2 counterexamples it is maximally vicious
(``K_{M+1}``: a fault every step; the star: a fault every other step).
"""

from __future__ import annotations

from repro.adversaries._order import first_neighbor
from repro.core.engine import Adversary, MemoryView
from repro.graphs.base import Graph
from repro.graphs.traversal import BreadthFirstSearch
from repro.typing import Vertex


class GreedyUncoveredAdversary(Adversary):
    """Walk a shortest path to the nearest uncovered vertex, replanning
    whenever a page fault changes the coverage.

    The graph is fixed for a run, so one :class:`BreadthFirstSearch` per
    replan source is kept until :meth:`reset`; a replan rescans its
    discovery order against the current coverage and grows it only
    when no kept vertex is uncovered.

    Args:
        graph: the searched graph.
        start: the path's first vertex.
        max_radius: optional BFS cap (needed on infinite graphs, where
            an unlimited search could diverge if everything nearby is
            covered; pick something comfortably above ``r^+(M)``).
    """

    def __init__(
        self, graph: Graph, start: Vertex, max_radius: int | None = None
    ) -> None:
        self._graph = graph
        self._start = start
        self._max_radius = max_radius
        self._plan: list[Vertex] = []
        self._seen_faults = -1
        self._searches: dict[Vertex, BreadthFirstSearch] = {}

    def reset(self) -> None:
        self._plan = []
        self._seen_faults = -1
        self._searches = {}

    def start(self, view: MemoryView) -> Vertex:
        return self._start

    def step(self, pathfront: Vertex, view: MemoryView) -> Vertex:
        if view.fault_count != self._seen_faults:
            # Coverage changed: the cached plan may no longer lead to
            # an uncovered vertex.
            self._plan = []
            self._seen_faults = view.fault_count
        if not self._plan:
            search = self._searches.get(pathfront)
            if search is None:
                search = BreadthFirstSearch(self._graph, pathfront)
                self._searches[pathfront] = search
            path = search.nearest(view.uncovered, self._max_radius)
            if path is None or len(path) < 2:
                # Everything in reach is covered (or we stand on the
                # only uncovered vertex): stall by pacing to the
                # canonical first neighbor (deterministic tie-break).
                return first_neighbor(self._graph, pathfront)
            self._plan = path[1:]
        return self._plan.pop(0)
