"""Diagonal (king-move) grid graphs."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiagonalGridGraph, GraphError, InfiniteDiagonalGridGraph
from repro.graphs import bfs_distances, chebyshev_distance


class TestInfiniteDiagonal:
    def test_degree_2d(self):
        assert InfiniteDiagonalGridGraph(2).degree((0, 0)) == 8

    def test_degree_3d(self):
        assert InfiniteDiagonalGridGraph(3).degree((1, 2, 3)) == 26

    def test_neighbors_include_diagonals(self):
        g = InfiniteDiagonalGridGraph(2)
        assert (1, 1) in g.neighbors((0, 0))
        assert (-1, 1) in g.neighbors((0, 0))

    def test_no_self_neighbor(self):
        g = InfiniteDiagonalGridGraph(2)
        assert (0, 0) not in g.neighbors((0, 0))

    def test_bad_dim(self):
        with pytest.raises(GraphError):
            InfiniteDiagonalGridGraph(0)

    def test_1d_degenerates_to_grid(self):
        # In one dimension a diagonal grid IS a grid (Section 6.1).
        g = InfiniteDiagonalGridGraph(1)
        assert set(g.neighbors((0,))) == {(-1,), (1,)}


class TestFiniteDiagonal:
    def test_corner_degree(self):
        g = DiagonalGridGraph((4, 4))
        assert g.degree((0, 0)) == 3
        assert g.degree((1, 1)) == 8

    def test_distances_are_chebyshev(self):
        g = DiagonalGridGraph((7, 7))
        dist = bfs_distances(g, (3, 3))
        for v, d in dist.items():
            assert d == chebyshev_distance((3, 3), v)

    def test_chebyshev_distance(self):
        assert chebyshev_distance((0, 0), (3, -5)) == 5

    def test_size_and_center(self):
        g = DiagonalGridGraph((3, 5))
        assert len(g) == 15
        assert g.center() == (1, 2)

    def test_bad_shape(self):
        with pytest.raises(GraphError):
            DiagonalGridGraph((0, 2))

    def test_ball_growth_beats_grid(self):
        """Chebyshev balls: (2r+1)^d vertices — strictly more than the
        L1 diamonds of the ordinary grid for d >= 2."""
        g = DiagonalGridGraph((9, 9))
        ball = bfs_distances(g, (4, 4), max_radius=2)
        assert len(ball) == 25  # (2*2+1)^2


class TestHasEdgeFastPath:
    def test_matches_neighbor_sets(self):
        from repro.graphs import DiagonalGridGraph, InfiniteDiagonalGridGraph

        finite = DiagonalGridGraph((4, 4))
        for u in finite.vertices():
            for v in finite.vertices():
                assert finite.has_edge(u, v) == (v in set(finite.neighbors(u)))

        infinite = InfiniteDiagonalGridGraph(2)
        assert infinite.has_edge((0, 0), (1, 1))  # the diagonal move
        assert not infinite.has_edge((0, 0), (2, 1))
        assert not infinite.has_edge((0, 0), (0, 0))


def _product_king_moves(point):
    """The generator the delta table replaced, kept as the reference:
    ``product((-1, 0, 1), repeat=d)`` order without the zero move."""
    return [
        tuple(c + d for c, d in zip(point, delta))
        for delta in itertools.product((-1, 0, 1), repeat=len(point))
        if any(delta)
    ]


class TestKingMoveTable:
    """Neighbor lists come from a per-dimension delta table in the
    order seeded adversaries index into."""

    @settings(max_examples=100, deadline=None)
    @given(
        point=st.integers(1, 4).flatmap(
            lambda d: st.tuples(*[st.integers(-10**6, 10**6)] * d)
        )
    )
    def test_infinite_matches_product_order(self, point):
        graph = InfiniteDiagonalGridGraph(len(point))
        assert graph.neighbors(point) == _product_king_moves(point)

    @pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 4, 2), (2, 3, 2, 3)])
    def test_finite_matches_product_order_everywhere(self, shape):
        # Every cell, so interior, face, edge and corner cells all count.
        graph = DiagonalGridGraph(shape)
        for point in graph.vertices():
            expected = [
                q for q in _product_king_moves(point) if graph.has_vertex(q)
            ]
            assert graph.neighbors(point) == expected

    @pytest.mark.parametrize(
        "bad", [(0,), (0, 0, 0), (0, 1.0), (0, "a"), [0, 0], "ab", 3, None]
    )
    def test_checks_still_fire(self, bad):
        for graph in (InfiniteDiagonalGridGraph(2), DiagonalGridGraph((3, 3))):
            assert not graph.has_vertex(bad)
            with pytest.raises(GraphError):
                graph.neighbors(bad)
