"""Grid graphs, finite and infinite."""

import itertools
from collections import namedtuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import GraphError, GridGraph, InfiniteDiagonalGridGraph, InfiniteGridGraph
from repro.graphs import bfs_distances, chebyshev_distance, l1_distance


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


# The loop-based coordinate checks, kept as the references for
# TestTwoDimensionalBranches: the 2-D case written out literally must
# answer as they do.


def _loop_is_coord(vertex, dim):
    if not isinstance(vertex, tuple) or len(vertex) != dim:
        return False
    for c in vertex:
        if not isinstance(c, int):
            return False
    return True


def _loop_unit_apart(u, v, dim):
    if (
        not (isinstance(u, tuple) and isinstance(v, tuple))
        or len(u) != dim
        or len(v) != dim
    ):
        return False
    gap = 0
    for a, b in zip(u, v):
        if not (isinstance(a, int) and isinstance(b, int)):
            return False
        gap += abs(a - b)
    return gap == 1


def _loop_axis_moves(coord):
    if len(coord) == 2:
        x, y = coord
        return [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]
    if len(coord) == 1:
        (x,) = coord
        return [(x - 1,), (x + 1,)]
    moves = []
    for i, c in enumerate(coord):
        moves.append(coord[:i] + (c - 1,) + coord[i + 1:])
        moves.append(coord[:i] + (c + 1,) + coord[i + 1:])
    return moves


def _loop_king_moves(coord):
    x, y = coord
    return [
        (x + dx, y + dy)
        for dx, dy in itertools.product((-1, 0, 1), repeat=2)
        if dx or dy
    ]


class _LoopGrid:
    """``InfiniteGridGraph`` (no ``shape``) or ``GridGraph`` answering
    through the loop-based checks."""

    def __init__(self, dim, shape=None):
        self.dim = dim
        self.shape = shape

    def _inside(self, coord):
        return self.shape is None or all(
            0 <= c < extent for c, extent in zip(coord, self.shape)
        )

    def has_vertex(self, v):
        return _loop_is_coord(v, self.dim) and self._inside(v)

    def has_edge(self, u, v):
        return _loop_unit_apart(u, v, self.dim) and self._inside(u) and self._inside(v)

    def neighbors(self, v):
        if not self.has_vertex(v):
            raise GraphError(v)
        return [c for c in _loop_axis_moves(v) if self._inside(c)]


class _LoopDiagonal:
    """``InfiniteDiagonalGridGraph(2)`` answering through the loop-based
    ``_is_coord``."""

    def has_vertex(self, v):
        return _loop_is_coord(v, 2)

    def has_edge(self, u, v):
        return self.has_vertex(u) and self.has_vertex(v) and chebyshev_distance(u, v) == 1

    def neighbors(self, v):
        if not self.has_vertex(v):
            raise GraphError(v)
        return _loop_king_moves(v)


class _Int(int):
    """An ``int`` subclass, which ``isinstance`` accepts as a component."""

    def __repr__(self):
        return f"_Int({int(self)})"


#: A namedtuple type per coordinate length.
_NAMED = [namedtuple(f"Named{n}", [f"c{i}" for i in range(n)]) for n in range(5)]

_COMPONENTS = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.sampled_from([10**30, 10**30 + 1, -(10**30)]),
    st.integers(-3, 3).map(_Int),
    st.floats(-3, 3),
    st.text(max_size=1),
    st.none(),
)

#: What a moved component becomes: an ``int``, an ``int`` subclass, or
#: a look-alike of the same value that is not an ``int``.
_MOVED = st.sampled_from([int, float, _Int, str])

_CONTAINERS = st.sampled_from(["tuple", "named", "list"])


def _build(components, container):
    if container == "tuple":
        return tuple(components)
    if container == "named":
        return _NAMED[len(components)](*components)
    return list(components)


@st.composite
def _vertex_pairs(draw):
    """Two coordinates of length 0-4, the first often all small ints;
    half the time the second is the first with one integer component
    moved by -1..2 (and perhaps turned into a float, a string or an
    ``int`` subclass), so unit moves, equal points and near misses all
    come up."""
    first = draw(
        st.one_of(
            st.lists(st.integers(-3, 3), min_size=1, max_size=4),
            st.lists(_COMPONENTS, max_size=4),
        )
    )
    second = draw(st.lists(_COMPONENTS, max_size=4))
    if first and draw(st.booleans()):
        second = list(first)
        axis = draw(st.integers(0, len(first) - 1))
        if isinstance(second[axis], int):
            second[axis] = draw(_MOVED)(second[axis] + draw(st.integers(-1, 2)))
    return (
        _build(first, draw(_CONTAINERS)),
        _build(second, draw(_CONTAINERS)),
    )


def _answer(method, vertex):
    """``neighbors``' list and its ``repr`` (component types show), or
    that it raised ``GraphError``."""
    try:
        moves = method(vertex)
    except GraphError:
        return "GraphError"
    return moves, repr(moves)


_BRANCH_GRAPHS = [
    (InfiniteGridGraph(1), _LoopGrid(1)),
    (InfiniteGridGraph(2), _LoopGrid(2)),
    (InfiniteGridGraph(3), _LoopGrid(3)),
    (GridGraph((3, 3)), _LoopGrid(2, (3, 3))),
    (InfiniteDiagonalGridGraph(2), _LoopDiagonal()),
]


class TestTwoDimensionalBranches:
    """The 2-D literal branches of ``InfiniteGridGraph``'s ``neighbors``
    and ``has_edge`` answer every input exactly as the loops they stand
    in for: the same booleans, the same neighbor lists in the same order
    (component types included), ``GraphError`` for the same inputs. The
    other dimensions, ``GridGraph`` and the diagonal grid, which reach
    the helpers' loops, are held to the same references."""

    @pytest.mark.parametrize(
        "graph, reference", _BRANCH_GRAPHS, ids=[repr(g) for g, _ in _BRANCH_GRAPHS]
    )
    @settings(max_examples=200, deadline=None)
    @given(pair=_vertex_pairs())
    @example(pair=((0, 0), (0, 0)))
    @example(pair=((True, 0), (0, 0)))
    @example(pair=(Point(0, 1), (0, 0)))
    @example(pair=((10**30, 0), (10**30 + 1, 0)))
    @example(pair=([0, 1], (0, 0)))
    @example(pair=((1.0, 1), (0, 1)))
    @example(pair=((0, 0), (0, 1.0)))
    @example(pair=((_Int(2), 2), (2, _Int(1))))
    def test_matches_loop_checks(self, graph, reference, pair):
        u, v = pair
        for w in pair:
            assert graph.has_vertex(w) == reference.has_vertex(w), w
            assert _answer(graph.neighbors, w) == _answer(reference.neighbors, w), w
        assert graph.has_edge(u, v) == reference.has_edge(u, v)
        assert graph.has_edge(v, u) == reference.has_edge(v, u)
