"""Grid graphs, finite and infinite."""

from collections import namedtuple

import pytest

from repro import GraphError, GridGraph, InfiniteGridGraph
from repro.graphs import bfs_distances, l1_distance


class TestInfiniteGrid:
    def test_neighbors_2d(self):
        g = InfiniteGridGraph(2)
        assert set(g.neighbors((0, 0))) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_degree(self):
        assert InfiniteGridGraph(3).degree((5, -2, 7)) == 6

    def test_has_vertex_checks_shape(self):
        g = InfiniteGridGraph(2)
        assert g.has_vertex((3, -4))
        assert not g.has_vertex((3,))
        assert not g.has_vertex((3, 4, 5))
        assert not g.has_vertex((3.5, 1))
        assert not g.has_vertex("x")

    def test_bad_dim(self):
        with pytest.raises(GraphError):
            InfiniteGridGraph(0)

    def test_neighbors_of_invalid_vertex(self):
        with pytest.raises(GraphError):
            InfiniteGridGraph(2).neighbors((1,))


class TestFiniteGrid:
    def test_size(self):
        assert len(GridGraph((3, 4))) == 12

    def test_corner_degree(self):
        g = GridGraph((5, 5))
        assert g.degree((0, 0)) == 2
        assert g.degree((0, 2)) == 3
        assert g.degree((2, 2)) == 4

    def test_boundary_clipping(self):
        g = GridGraph((3, 3))
        assert set(g.neighbors((0, 0))) == {(1, 0), (0, 1)}

    def test_vertices_enumeration(self):
        g = GridGraph((2, 3))
        assert len(list(g.vertices())) == 6

    def test_center(self):
        assert GridGraph((5, 7)).center() == (2, 3)

    def test_one_dimensional(self):
        g = GridGraph((6,))
        assert g.degree((0,)) == 1
        assert g.degree((3,)) == 2

    def test_single_cell(self):
        g = GridGraph((1, 1))
        assert g.neighbors((0, 0)) == []

    def test_bad_shape(self):
        with pytest.raises(GraphError):
            GridGraph(())
        with pytest.raises(GraphError):
            GridGraph((3, 0))

    def test_distances_are_l1(self):
        g = GridGraph((7, 7))
        dist = bfs_distances(g, (3, 3))
        for v, d in dist.items():
            assert d == l1_distance((3, 3), v)

    def test_l1_distance(self):
        assert l1_distance((0, 0, 0), (1, -2, 3)) == 6

    def test_3d_grid(self):
        g = GridGraph((3, 3, 3))
        assert len(g) == 27
        assert g.degree((1, 1, 1)) == 6


class TestHasEdgeFastPath:
    """has_edge is L1 arithmetic on grids — it must agree with the
    neighbor sets the engine's move validation used to scan."""

    def test_matches_neighbor_sets(self):
        from repro.graphs import GridGraph, InfiniteGridGraph

        finite = GridGraph((5, 5))
        for u in finite.vertices():
            for v in finite.vertices():
                assert finite.has_edge(u, v) == (v in set(finite.neighbors(u)))

        infinite = InfiniteGridGraph(2)
        assert infinite.has_edge((3, 4), (3, 5))
        assert not infinite.has_edge((3, 4), (4, 5))
        assert not infinite.has_edge((3, 4), (3, 4))

    def test_boundary_and_foreign_vertices(self):
        from repro.graphs import GridGraph

        g = GridGraph((3, 3))
        assert not g.has_edge((2, 2), (3, 2))  # off the edge
        assert not g.has_edge((9, 9), (9, 8))  # both outside


Point = namedtuple("Point", "x y")

#: What a move check may be handed: coordinates of each tested
#: dimension, inputs ``isinstance`` accepts (a bool component, a
#: namedtuple), inputs it rejects, and components far beyond a machine
#: word. (2, 2) and (3, 2) sit on and just off the edge of the 3x3 box.
MOVE_INPUTS = [
    (0,), (1,), (10**30,),
    (0, 0), (0, 1), (1, 1), (2, 2), (3, 2), (True, 0), Point(0, 1),
    (10**30, 0), (10**30 + 1, 0),
    (0, 1, 2), (0, 1, 3),
    (1.0, 1), [0, 1], "ab", None,
]

MOVE_GRAPHS = [
    InfiniteGridGraph(1), InfiniteGridGraph(2), InfiniteGridGraph(3),
    GridGraph((3, 3)),
]


class TestMoveCheckInputs:
    """has_edge checks both endpoints and their L1 gap in one pass; it
    must answer exactly as the three separate checks compose."""

    @pytest.mark.parametrize("graph", MOVE_GRAPHS, ids=repr)
    def test_has_edge_equals_composed_checks(self, graph):
        for u in MOVE_INPUTS:
            for v in MOVE_INPUTS:
                want = (
                    graph.has_vertex(u)
                    and graph.has_vertex(v)
                    and l1_distance(u, v) == 1
                )
                assert graph.has_edge(u, v) == want, (u, v)

    @pytest.mark.parametrize("graph", MOVE_GRAPHS, ids=repr)
    def test_neighbors_raises_exactly_off_the_graph(self, graph):
        for u in MOVE_INPUTS:
            if graph.has_vertex(u):
                assert all(graph.has_edge(u, v) for v in graph.neighbors(u))
            else:
                with pytest.raises(GraphError):
                    graph.neighbors(u)

    def test_isinstance_accepted_inputs_are_edges(self):
        g = InfiniteGridGraph(2)
        assert g.has_edge((True, 0), (0, 0))
        assert g.has_edge(Point(0, 1), (0, 0))
        assert g.has_edge((10**30, 0), (10**30 + 1, 0))
        assert not g.has_edge((1.0, 1), (0, 1))
        assert GridGraph((3, 3)).has_edge((True, 0), (0, 0))
        assert not GridGraph((3, 3)).has_edge((2, 2), (3, 2))
