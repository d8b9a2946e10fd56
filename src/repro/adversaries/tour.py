"""Tour adversaries (Lemma 9, the Section 4.1 remark, Lemmas 11-12).

* :class:`SpanningTreeCircuitAdversary` — Lemma 9: cycle a depth-first
  circuit of a spanning tree; every ``2n`` steps at least
  ``(n - M)/B`` faults occur, capping ``sigma <= 2 rho/(rho-1) B``.
* :class:`CycleAdversary` — the Hamiltonian remark: follow a given
  closed walk (e.g. a Hamiltonian cycle) forever; caps ``sigma <= B``.
* :class:`SteinerTourAdversary` — Lemma 12: repeatedly visit the
  lowest-numbered uncovered vertex in the skeletal-Steiner-tree
  numbering, forcing ``(n - M)/B`` faults per ``8 r^+(B) n/B`` steps,
  i.e. ``sigma <= 8 r^+(B)``.
"""

from __future__ import annotations

from repro.adversaries._order import first_neighbor
from repro.analysis.steiner import SkeletalSteinerTree, build_skeletal_steiner_tree
from repro.core.engine import Adversary, MemoryView
from repro.errors import AdversaryError
from repro.graphs.base import FiniteGraph
from repro.graphs.traversal import (
    BreadthFirstSearch,
    bfs_spanning_tree,
    depth_first_circuit,
)
from repro.typing import Vertex


class CycleAdversary(Adversary):
    """Follow a fixed closed walk (first vertex == last, or treated as
    cyclically adjacent) forever."""

    def __init__(self, walk: list[Vertex]) -> None:
        if len(walk) < 2:
            raise AdversaryError("a cycle walk needs at least two vertices")
        # Normalize: drop a duplicated endpoint.
        self._walk = walk[:-1] if walk[0] == walk[-1] else list(walk)
        self._position = 0

    def reset(self) -> None:
        self._position = 0

    def start(self, view: MemoryView) -> Vertex:
        return self._walk[0]

    def step(self, pathfront: Vertex, view: MemoryView) -> Vertex:
        self._position = (self._position + 1) % len(self._walk)
        return self._walk[self._position]


class SpanningTreeCircuitAdversary(CycleAdversary):
    """Lemma 9: cycle the depth-first circuit of a BFS spanning tree."""

    def __init__(self, graph: FiniteGraph, root: Vertex | None = None) -> None:
        if root is None:
            root = next(iter(graph.vertices()))
        circuit = depth_first_circuit(bfs_spanning_tree(graph, root), root)
        if len(circuit) < 2:
            raise AdversaryError("graph must have at least one edge")
        super().__init__(circuit)


class SteinerTourAdversary(Adversary):
    """Lemma 12's dynamic must-visit walker.

    At each (re)plan, the target is the lowest-numbered vertex (in the
    skeletal-tree numbering) currently uncovered; the walk takes a
    shortest path there. The numbering guarantees successive targets
    trace the augmented Steiner tree, whose total length is at most
    ``8 r^+(B) ceil(n/B)`` per sweep. One :class:`BreadthFirstSearch`
    per replan source is kept until :meth:`reset`.
    """

    def __init__(
        self,
        graph: FiniteGraph,
        skeleton: SkeletalSteinerTree | None = None,
        packing_radius: int | None = None,
    ) -> None:
        """Provide a prebuilt skeleton, or a packing radius (the proofs
        use ``r^+(B)``) to build one here."""
        if skeleton is None:
            if packing_radius is None:
                raise AdversaryError(
                    "need either a skeleton or a packing radius"
                )
            skeleton = build_skeletal_steiner_tree(graph, packing_radius)
        self._graph = graph
        self._skeleton = skeleton
        self._plan: list[Vertex] = []
        self._seen_faults = -1
        self._searches: dict[Vertex, BreadthFirstSearch] = {}

    @property
    def skeleton(self) -> SkeletalSteinerTree:
        return self._skeleton

    def reset(self) -> None:
        self._plan = []
        self._seen_faults = -1
        self._searches = {}

    def start(self, view: MemoryView) -> Vertex:
        return self._skeleton.order[0]

    def step(self, pathfront: Vertex, view: MemoryView) -> Vertex:
        if view.fault_count != self._seen_faults:
            self._plan = []
            self._seen_faults = view.fault_count
        if not self._plan:
            target = self._next_must_visit(view)
            if target is None or target == pathfront:
                # Everything is covered: pace to the canonical first
                # neighbor (deterministic tie-break).
                return first_neighbor(self._graph, pathfront)
            search = self._searches.get(pathfront)
            if search is None:
                search = BreadthFirstSearch(self._graph, pathfront)
                self._searches[pathfront] = search
            self._plan = search.path_to(target)[1:]
        return self._plan.pop(0)

    def _next_must_visit(self, view: MemoryView) -> Vertex | None:
        for vertex in self._skeleton.order:
            if not view.covers(vertex):
                return vertex
        return None
