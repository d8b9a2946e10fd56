"""Traversal algorithms: BFS, spanning trees, depth-first circuits."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphError
from repro.graphs import (
    BreadthFirstSearch,
    CompleteTree,
    DirectedAdjacencyGraph,
    GridGraph,
    InfiniteGridGraph,
    bfs_distances,
    bfs_spanning_tree,
    cycle_graph,
    depth_first_circuit,
    eccentricity,
    is_connected,
    nearest_matching,
    path_graph,
    shortest_path,
    star_graph,
)
from repro.graphs.adjacency import AdjacencyGraph


class TestBfsDistances:
    def test_path_distances(self):
        dist = bfs_distances(path_graph(6), 0)
        assert dist == {i: i for i in range(6)}

    def test_max_radius_cuts(self):
        dist = bfs_distances(path_graph(10), 0, max_radius=3)
        assert max(dist.values()) == 3
        assert len(dist) == 4

    def test_max_vertices_cuts(self):
        dist = bfs_distances(path_graph(100), 0, max_vertices=5)
        assert len(dist) >= 5
        assert len(dist) <= 7  # may overshoot by one expansion

    def test_insertion_order_is_distance_order(self):
        dist = bfs_distances(GridGraph((5, 5)), (2, 2))
        values = list(dist.values())
        assert values == sorted(values)

    def test_missing_source(self):
        with pytest.raises(GraphError):
            bfs_distances(path_graph(3), 99)


class TestShortestPath:
    def test_endpoints_included(self):
        path = shortest_path(path_graph(6), 1, 4)
        assert path == [1, 2, 3, 4]

    def test_trivial(self):
        assert shortest_path(path_graph(3), 2, 2) == [2]

    def test_is_shortest_on_grid(self):
        g = GridGraph((6, 6))
        path = shortest_path(g, (0, 0), (3, 2))
        assert len(path) - 1 == 5

    def test_disconnected_raises(self):
        g = AdjacencyGraph.from_edges([(0, 1)], vertices=[2])
        with pytest.raises(GraphError):
            shortest_path(g, 0, 2)

    def test_missing_target(self):
        with pytest.raises(GraphError):
            shortest_path(path_graph(3), 0, 99)


class TestNearestMatching:
    def test_finds_nearest(self):
        path = nearest_matching(path_graph(10), 3, lambda v: v >= 6)
        assert path == [3, 4, 5, 6]

    def test_source_matches(self):
        assert nearest_matching(path_graph(5), 2, lambda v: v == 2) == [2]

    def test_radius_cap(self):
        assert nearest_matching(path_graph(10), 0, lambda v: v == 9, max_radius=3) is None

    def test_no_match(self):
        assert nearest_matching(path_graph(5), 0, lambda v: False) is None


def reference_nearest(graph, source, predicate, max_radius=None):
    """A fresh BFS to the first vertex ``predicate`` holds for, stopping
    mid-neighbor-list at the match: the loop ``nearest_matching`` ran
    before it was a query of :class:`BreadthFirstSearch`."""
    if predicate(source):
        return [source]
    parents = {source: source}
    depths = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if max_radius is not None and depths[u] >= max_radius:
            continue
        for v in graph.neighbors(u):
            if v in parents:
                continue
            parents[v] = u
            depths[v] = depths[u] + 1
            if predicate(v):
                path = [v]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                return path[::-1]
            queue.append(v)
    return None


def reference_shortest_path(graph, source, target):
    """A fresh BFS from ``source`` that stops when it discovers
    ``target``: the loop ``shortest_path`` ran before."""
    if not graph.has_vertex(target):
        raise GraphError(f"target {target!r} is not in the graph")
    if source == target:
        return [source]
    parents = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in parents:
                parents[v] = u
                if v == target:
                    path = [v]
                    while path[-1] != source:
                        path.append(parents[path[-1]])
                    return path[::-1]
                queue.append(v)
    raise GraphError(f"no path from {source!r} to {target!r}")


class Asked:
    """A predicate true on ``matches``, recording every vertex asked."""

    def __init__(self, matches):
        self.matches = matches
        self.asked = []

    def __call__(self, vertex):
        self.asked.append(vertex)
        return vertex in self.matches


def answer(query, *args):
    """``query(*args)``, or the ``GraphError`` message it raised."""
    try:
        return query(*args)
    except GraphError as exc:
        return ("GraphError", str(exc))


class TestKeptSearch:
    """A kept :class:`BreadthFirstSearch` answers every query exactly as
    a fresh search would, and asks the predicate of the same vertices in
    the same order, however far earlier queries grew it."""

    def check_nearest(self, search, graph, source, matches, max_radius=None):
        kept, fresh = Asked(matches), Asked(matches)
        got = search.nearest(kept, max_radius)
        assert got == reference_nearest(graph, source, fresh, max_radius)
        assert kept.asked == fresh.asked
        assert nearest_matching(graph, source, Asked(matches), max_radius) == got
        return got

    def check_path(self, search, graph, source, target):
        got = answer(search.path_to, target)
        assert got == answer(reference_shortest_path, graph, source, target)
        assert answer(shortest_path, graph, source, target) == got
        return got

    def test_match_mid_neighbor_list_keeps_the_rest(self):
        """The first query matches 2, the middle child of the root, so
        a search stopped at the match would hold 1 and 2 but not 3; the
        next queries need 3 and then the children of 1 and 3."""
        tree = CompleteTree(3, 2)
        search = BreadthFirstSearch(tree, 0)
        assert self.check_nearest(search, tree, 0, {2}) == [0, 2]
        assert self.check_nearest(search, tree, 0, {3}) == [0, 3]
        assert self.check_nearest(search, tree, 0, {5, 12}) == [0, 1, 5]
        assert self.check_nearest(search, tree, 0, {12}) == [0, 3, 12]
        assert self.check_nearest(search, tree, 0, set()) is None

    def test_path_mid_neighbor_list_keeps_the_rest(self):
        tree = CompleteTree(3, 2)
        search = BreadthFirstSearch(tree, 0)
        assert self.check_path(search, tree, 0, 2) == [0, 2]
        assert self.check_path(search, tree, 0, 3) == [0, 3]
        assert self.check_path(search, tree, 0, 11) == [0, 3, 11]
        assert self.check_path(search, tree, 0, 0) == [0]

    def test_radius_grows_and_shrinks_between_queries(self):
        grid = InfiniteGridGraph(2)
        search = BreadthFirstSearch(grid, (0, 0))
        far = {(3, 1)}
        assert self.check_nearest(search, grid, (0, 0), far, 2) is None
        assert self.check_nearest(search, grid, (0, 0), far, 4) is not None
        assert self.check_nearest(search, grid, (0, 0), far, 3) is None
        assert self.check_nearest(search, grid, (0, 0), {(0, 0)}, -1) == [(0, 0)]
        assert self.check_nearest(search, grid, (0, 0), far, -1) is None

    def test_queries_of_both_kinds_share_one_search(self):
        graph = GridGraph((4, 4))
        search = BreadthFirstSearch(graph, (0, 0))
        self.check_path(search, graph, (0, 0), (1, 2))
        self.check_nearest(search, graph, (0, 0), {(3, 0), (2, 1)})
        self.check_path(search, graph, (0, 0), (3, 3))
        self.check_path(search, graph, (0, 0), (9, 9))
        self.check_nearest(search, graph, (0, 0), {(0, 1)}, 1)

    def test_a_vertex_whose_expansion_raised_stays_on_the_frontier(self):
        search = BreadthFirstSearch(path_graph(3), 99)
        for _ in range(2):
            with pytest.raises(GraphError):
                search.nearest(lambda v: False)
            with pytest.raises(GraphError):
                search.path_to(1)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_kept_search_answers_as_a_fresh_one(self, data):
        kind = data.draw(st.sampled_from(["adjacency", "directed", "tree", "grid"]))
        if kind == "tree":
            graph = CompleteTree(
                data.draw(st.integers(2, 4)), data.draw(st.integers(0, 4))
            )
            vertices = list(graph.vertices())
        elif kind == "grid":
            graph = InfiniteGridGraph(data.draw(st.integers(1, 3)))
            vertices = [
                tuple(data.draw(st.integers(-3, 3)) for _ in range(graph.dim))
                for _ in range(12)
            ]
        else:
            n = data.draw(st.integers(1, 16))
            cls = DirectedAdjacencyGraph if kind == "directed" else AdjacencyGraph
            graph = cls(range(n))
            for u, v in data.draw(
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n)
            ):
                if u != v and not graph.has_edge(u, v):
                    graph.add_edge(u, v)
            vertices = list(range(n))
        source = data.draw(st.sampled_from(vertices))
        search = BreadthFirstSearch(graph, source)
        # Infinite grids take radius-capped nearest queries only.
        bounded = kind == "grid"
        for _ in range(data.draw(st.integers(1, 8))):
            if not bounded and data.draw(st.booleans()):
                target = data.draw(st.sampled_from(vertices))
                self.check_path(search, graph, source, target)
                continue
            # The coverage changes between queries: a fresh match set.
            matches = set(data.draw(st.lists(st.sampled_from(vertices), max_size=4)))
            radius = data.draw(
                st.integers(-1, 6) if bounded else st.none() | st.integers(-1, 6)
            )
            self.check_nearest(search, graph, source, matches, radius)


class TestSpanningTree:
    def test_covers_component(self):
        g = cycle_graph(8)
        tree = bfs_spanning_tree(g, 0)
        assert set(tree) == set(g.vertices())

    def test_edge_count(self):
        g = cycle_graph(8)
        tree = bfs_spanning_tree(g, 0)
        assert sum(len(ch) for ch in tree.values()) == len(g) - 1

    def test_children_are_neighbors(self):
        g = GridGraph((4, 4))
        tree = bfs_spanning_tree(g, (0, 0))
        for parent, children in tree.items():
            for child in children:
                assert child in g.neighbors(parent)

    def test_missing_root(self):
        with pytest.raises(GraphError):
            bfs_spanning_tree(path_graph(3), 99)


class TestDepthFirstCircuit:
    def test_length_is_2n_minus_1(self):
        g = GridGraph((4, 4))
        tree = bfs_spanning_tree(g, (0, 0))
        circuit = depth_first_circuit(tree, (0, 0))
        assert len(circuit) == 2 * len(g) - 1

    def test_starts_and_ends_at_root(self):
        tree = bfs_spanning_tree(path_graph(5), 0)
        circuit = depth_first_circuit(tree, 0)
        assert circuit[0] == 0
        assert circuit[-1] == 0

    def test_every_edge_twice(self):
        g = star_graph(4)
        tree = bfs_spanning_tree(g, 0)
        circuit = depth_first_circuit(tree, 0)
        # Star from center: 0,1,0,2,0,3,0,4,0 — each edge twice.
        edge_uses = {}
        for a, b in zip(circuit, circuit[1:]):
            key = frozenset((a, b))
            edge_uses[key] = edge_uses.get(key, 0) + 1
        assert all(count == 2 for count in edge_uses.values())

    def test_consecutive_vertices_adjacent_in_graph(self):
        g = GridGraph((3, 5))
        tree = bfs_spanning_tree(g, (0, 0))
        circuit = depth_first_circuit(tree, (0, 0))
        for a, b in zip(circuit, circuit[1:]):
            assert b in g.neighbors(a)

    def test_single_vertex(self):
        assert depth_first_circuit({0: []}, 0) == [0]

    def test_missing_root(self):
        with pytest.raises(GraphError):
            depth_first_circuit({0: []}, 1)


class TestMisc:
    def test_is_connected(self):
        assert is_connected(cycle_graph(5))
        assert not is_connected(AdjacencyGraph.from_edges([(0, 1)], vertices=[2]))

    def test_empty_graph_connected(self):
        assert is_connected(AdjacencyGraph())

    def test_eccentricity(self):
        assert eccentricity(path_graph(7), 0) == 6
        assert eccentricity(path_graph(7), 3) == 3
