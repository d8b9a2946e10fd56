"""Graph traversal algorithms used throughout the library.

Breadth-first machinery (distances, balls, and one resumable search
behind the shortest-path and nearest-target queries), spanning trees,
and the paper's *depth-first circuit* (Definition 6): a closed walk
traversing every tree edge exactly twice, the backbone of the Lemma 9
and Lemma 11/12 adversary tours.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import islice
from typing import Callable, Iterable, Mapping

from repro.errors import GraphError
from repro.graphs.base import FiniteGraph, Graph
from repro.typing import Vertex


def bfs_distances(
    graph: Graph,
    source: Vertex,
    max_radius: int | None = None,
    max_vertices: int | None = None,
) -> dict[Vertex, int]:
    """Distances from ``source`` by breadth-first search.

    Args:
        graph: the graph to search (may be infinite if bounds are given).
        source: start vertex.
        max_radius: stop expanding past this distance (inclusive).
        max_vertices: stop after this many vertices have been settled.
            At least one bound is required for infinite graphs.

    Returns:
        Mapping of reached vertices to their distance from ``source``,
        in nondecreasing distance order (dicts preserve insertion
        order, which callers rely on for compact-neighborhood cuts).
    """
    if not graph.has_vertex(source):
        raise GraphError(f"source {source!r} is not in the graph")
    distances: dict[Vertex, int] = {source: 0}
    queue: deque[Vertex] = deque([source])
    while queue:
        if max_vertices is not None and len(distances) >= max_vertices:
            break
        u = queue.popleft()
        du = distances[u]
        if max_radius is not None and du >= max_radius:
            continue
        for v in graph.neighbors(u):
            if v not in distances:
                distances[v] = du + 1
                queue.append(v)
    return distances


class BreadthFirstSearch:
    """A breadth-first search from one source, grown only as far as its
    queries need and kept for the next query.

    It holds the source's discovery order, each discovered vertex's
    BFS parent and depth, and how many discovered vertices it has
    expanded; the rest are its frontier. It grows one frontier vertex at
    a time and always by the whole vertex: every neighbor not yet
    discovered joins the order. BFS discovery order from a source is
    fixed by the graph's neighbor order, so each query answers exactly
    as a fresh search would, however far earlier queries grew this one.
    The graph must not change while a search is kept.
    """

    __slots__ = ("_graph", "_source", "_order", "_parents", "_depths", "_expanded")

    def __init__(self, graph: Graph, source: Vertex) -> None:
        self._graph = graph
        self._source = source
        self._order: list[Vertex] = [source]
        self._parents: dict[Vertex, Vertex] = {source: source}
        # Parallel to _order, so nondecreasing.
        self._depths: list[int] = [0]
        self._expanded = 0

    def nearest(
        self, predicate: Callable[[Vertex], bool], max_radius: int | None = None
    ) -> list[Vertex] | None:
        """:func:`nearest_matching` from the source: the kept order is
        rescanned (one ``predicate`` call per vertex, source first) and
        the search grows only when no kept vertex matches."""
        order = self._order
        if max_radius is None:
            end = len(order)
        else:
            max_radius = max(max_radius, 0)
            end = bisect_right(self._depths, max_radius)
        for vertex in filter(predicate, islice(order, end)):
            return self._path(vertex)
        if end < len(order):
            # A vertex past the radius was discovered, so every vertex
            # within it was, and none matched.
            return None
        while self._grow(max_radius):
            for vertex in filter(predicate, order[end:]):
                return self._path(vertex)
            end = len(order)
        return None

    def path_to(self, target: Vertex) -> list[Vertex]:
        """:func:`shortest_path` from the source to ``target``."""
        if not self._graph.has_vertex(target):
            raise GraphError(f"target {target!r} is not in the graph")
        parents = self._parents
        while target not in parents:
            if not self._grow(None):
                raise GraphError(f"no path from {self._source!r} to {target!r}")
        return self._path(target)

    def _grow(self, max_radius: int | None) -> bool:
        """Expand the next frontier vertex; ``False`` (and nothing
        expanded) when the frontier is empty or its next vertex lies at
        ``max_radius`` or deeper."""
        expanded = self._expanded
        order = self._order
        if expanded == len(order):
            return False
        depths = self._depths
        depth = depths[expanded] + 1
        if max_radius is not None and depth > max_radius:
            return False
        u = order[expanded]
        parents = self._parents
        for v in self._graph.neighbors(u):
            if v not in parents:
                parents[v] = u
                order.append(v)
                depths.append(depth)
        # Only now: a neighbors() that raises leaves u on the frontier.
        self._expanded = expanded + 1
        return True

    def _path(self, vertex: Vertex) -> list[Vertex]:
        """The BFS-tree path from the source to a discovered vertex."""
        parents = self._parents
        source = self._source
        path = [vertex]
        while vertex != source:
            vertex = parents[vertex]
            path.append(vertex)
        path.reverse()
        return path


def shortest_path(graph: Graph, source: Vertex, target: Vertex) -> list[Vertex]:
    """A shortest path between two vertices (inclusive of both ends)."""
    return BreadthFirstSearch(graph, source).path_to(target)


def nearest_matching(
    graph: Graph,
    source: Vertex,
    predicate: Callable[[Vertex], bool],
    max_radius: int | None = None,
) -> list[Vertex] | None:
    """Shortest path from ``source`` to the nearest vertex satisfying
    ``predicate`` (the path includes both endpoints; a length-1 path
    means the source itself matches). The nearest is the first match in
    BFS discovery order, and ``predicate`` is asked of each vertex in
    that order until it holds.

    Returns ``None`` if no matching vertex exists within ``max_radius``
    (or at all, for finite graphs).
    """
    return BreadthFirstSearch(graph, source).nearest(predicate, max_radius)


def is_connected(graph: FiniteGraph) -> bool:
    """Whether a finite graph is connected (vacuously true when empty)."""
    n = len(graph)
    if n == 0:
        return True
    start = next(iter(graph.vertices()))
    return len(bfs_distances(graph, start)) == n


def bfs_spanning_tree(graph: FiniteGraph, root: Vertex) -> dict[Vertex, list[Vertex]]:
    """A BFS spanning tree of the component of ``root``.

    Returns children lists: ``tree[u]`` are the children of ``u``. Every
    reached vertex appears as a key (leaves map to empty lists).
    """
    if not graph.has_vertex(root):
        raise GraphError(f"root {root!r} is not in the graph")
    tree: dict[Vertex, list[Vertex]] = {root: []}
    queue: deque[Vertex] = deque([root])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in tree:
                tree[v] = []
                tree[u].append(v)
                queue.append(v)
    return tree


def depth_first_circuit(
    tree: Mapping[Vertex, Iterable[Vertex]], root: Vertex
) -> list[Vertex]:
    """The paper's depth-first circuit of a tree (Definition 6).

    A closed walk starting and ending at ``root`` that traverses every
    tree edge exactly twice (once in each direction). For a tree with
    ``n`` vertices the walk has ``2(n - 1)`` steps, i.e. ``2n - 1``
    vertices including the repeated visits.

    Args:
        tree: children lists as produced by :func:`bfs_spanning_tree`.
        root: the start vertex.
    """
    if root not in tree:
        raise GraphError(f"root {root!r} is not in the tree")
    circuit: list[Vertex] = []
    # Iterative Euler tour: (vertex, iterator over children, parent).
    stack: list[tuple[Vertex, object, Vertex | None]] = [
        (root, iter(tree[root]), None)
    ]
    circuit.append(root)
    while stack:
        vertex, children, parent = stack[-1]
        advanced = False
        for child in children:
            circuit.append(child)
            stack.append((child, iter(tree.get(child, ())), vertex))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if parent is not None:
                circuit.append(parent)
    return circuit


def eccentricity(graph: FiniteGraph, vertex: Vertex) -> int:
    """Maximum distance from ``vertex`` to any vertex in its component."""
    return max(bfs_distances(graph, vertex).values())
