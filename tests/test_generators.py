"""Graph generators."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import GraphError
from repro.graphs import (
    AdjacencyGraph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    is_connected,
    lollipop_graph,
    path_graph,
    random_regular_graph,
    random_tree,
    star_graph,
    torus_graph,
)


class TestDeterministicFamilies:
    def test_complete_graph(self):
        g = complete_graph(5)
        assert g.num_edges() == 10
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_complete_graph_single(self):
        assert len(complete_graph(1)) == 1

    def test_star(self):
        g = star_graph(6)
        assert g.degree(0) == 6
        assert all(g.degree(v) == 1 for v in range(1, 7))

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges() == 4
        assert g.degree(0) == 1
        assert g.degree(2) == 2

    def test_cycle(self):
        g = cycle_graph(5)
        assert all(g.degree(v) == 2 for v in g.vertices())
        assert g.has_edge(4, 0)

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_torus_regular(self):
        g = torus_graph((4, 5))
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert g.num_edges() == 40

    def test_torus_wraps(self):
        g = torus_graph((4, 4))
        assert g.has_edge((0, 0), (3, 0))
        assert g.has_edge((0, 0), (0, 3))

    def test_torus_extent_too_small(self):
        with pytest.raises(GraphError):
            torus_graph((2, 4))

    def test_lollipop(self):
        g = lollipop_graph(5, 3)
        assert len(g) == 8
        assert g.degree(7) == 1            # path end
        assert g.degree(1) == 4            # clique interior
        assert g.degree(0) == 5            # clique + path attachment
        assert is_connected(g)

    def test_hypercube(self):
        g = hypercube_graph(4)
        assert len(g) == 16
        assert all(g.degree(v) == 4 for v in g.vertices())


class TestRandomFamilies:
    def test_regular_graph_is_regular_and_connected(self):
        g = random_regular_graph(30, 4, seed=5)
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert is_connected(g)

    def test_regular_graph_deterministic_by_seed(self):
        a = random_regular_graph(20, 3, seed=9)
        b = random_regular_graph(20, 3, seed=9)
        assert sorted(map(sorted, a.edges())) == sorted(map(sorted, b.edges()))

    def test_regular_graph_parity_check(self):
        with pytest.raises(GraphError):
            random_regular_graph(5, 3, seed=0)

    def test_regular_graph_degree_bound(self):
        with pytest.raises(GraphError):
            random_regular_graph(4, 4, seed=0)

    def test_regular_graph_keeps_the_general_cells_graph(self):
        # Table 1's general cell: 58 shuffles before a simple graph.
        graph, shuffles = _loop_random_regular_graph(512, 4, 7)
        assert shuffles == 58
        assert _adjacency(random_regular_graph(512, 4, seed=7)) == _adjacency(graph)

    @pytest.mark.parametrize(
        "n, degree, seed",
        [
            (n, degree, seed)
            for n in (6, 9, 12, 31)
            for degree in (2, 3, 4, 5)
            for seed in (0, 1, 2)
            if degree < n and n * degree % 2 == 0
        ]
        + [(512, 4, 7)],
    )
    def test_regular_graph_draws_what_random_shuffle_draws(self, n, degree, seed):
        # The shuffle is written out in the generator; the reference
        # shuffles with ``random.Random(seed).shuffle``.
        graph, _ = _loop_random_regular_graph(n, degree, seed)
        if graph is None:
            with pytest.raises(GraphError):
                random_regular_graph(n, degree, seed=seed)
        else:
            assert _adjacency(random_regular_graph(n, degree, seed=seed)) == _adjacency(graph)

    @settings(max_examples=200, deadline=None)
    @given(
        params=st.integers(2, 5).flatmap(
            lambda degree: st.tuples(st.integers(degree + 1, 16), st.just(degree))
        ),
        seed=st.integers(0, 2**32),
    )
    @example(params=(10, 4), seed=0)  # 6 shuffles
    @example(params=(16, 2), seed=1)  # 7 shuffles
    @example(params=(6, 5), seed=0)  # K6 only: 1000 shuffles, then GraphError
    def test_regular_graph_matches_loop_generator(self, params, seed):
        # Most draws need several shuffles (for degree >= 3 nearly all).
        n, degree = params
        if n * degree % 2:
            n += 1
        graph, _ = _loop_random_regular_graph(n, degree, seed)
        if graph is None:
            with pytest.raises(GraphError):
                random_regular_graph(n, degree, seed=seed)
        else:
            assert _adjacency(random_regular_graph(n, degree, seed=seed)) == _adjacency(graph)

    def test_random_tree_is_tree(self):
        g = random_tree(40, seed=2)
        assert g.num_edges() == 39
        assert is_connected(g)

    def test_random_tree_tiny(self):
        assert len(random_tree(1, seed=0)) == 1
        assert random_tree(2, seed=0).num_edges() == 1

    def test_random_tree_deterministic(self):
        a = random_tree(25, seed=4)
        b = random_tree(25, seed=4)
        assert sorted(map(sorted, a.edges())) == sorted(map(sorted, b.edges()))


def _adjacency(graph):
    """Every vertex's neighbor list, in the graph's own order."""
    return [(v, list(graph.neighbors(v))) for v in graph.vertices()]


def _loop_random_regular_graph(n, degree, seed):
    """``random_regular_graph``'s pairing loop as it was before the stub
    list was prebuilt and the shuffle written out, kept as the
    reference with ``random.Random(seed).shuffle``: the graph (``None``
    after 1000 failed shuffles) and the number of shuffles it took."""
    rng = random.Random(seed)
    for attempt in range(1, 1001):
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if not ok:
            continue
        graph = AdjacencyGraph.from_edges(edges, vertices=range(n))
        if is_connected(graph):
            return graph, attempt
    return None, 1000
