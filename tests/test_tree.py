"""CompleteTree: heap-index arithmetic and graph structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompleteTree, GraphError
from repro.graphs import bfs_distances, tree_size


class TestTreeSize:
    def test_binary(self):
        assert tree_size(2, 0) == 1
        assert tree_size(2, 3) == 15

    def test_ternary(self):
        assert tree_size(3, 2) == 13

    def test_invalid_arity(self):
        with pytest.raises(GraphError):
            tree_size(1, 3)

    def test_invalid_height(self):
        with pytest.raises(GraphError):
            tree_size(2, -1)


class TestStructure:
    def test_root_children(self, binary_tree4):
        assert binary_tree4.children(0) == [1, 2]

    def test_parent_inverse_of_children(self, ternary_tree3):
        for v in ternary_tree3.vertices():
            for c in ternary_tree3.children(v):
                assert ternary_tree3.parent(c) == v

    def test_root_has_no_parent(self, binary_tree4):
        with pytest.raises(GraphError):
            binary_tree4.parent(0)

    def test_leaf_detection(self, binary_tree4):
        # Height 4 binary tree: 31 vertices, leaves are 15..30.
        assert not binary_tree4.is_leaf(14)
        assert binary_tree4.is_leaf(15)
        assert binary_tree4.is_leaf(30)

    def test_leaves_iterator(self, binary_tree4):
        leaves = list(binary_tree4.leaves())
        assert len(leaves) == 16
        assert all(binary_tree4.is_leaf(v) for v in leaves)

    def test_depth(self, binary_tree4):
        assert binary_tree4.depth(0) == 0
        assert binary_tree4.depth(1) == 1
        assert binary_tree4.depth(15) == 4

    def test_ancestor_at_depth(self, binary_tree4):
        leaf = 15
        assert binary_tree4.ancestor_at_depth(leaf, 0) == 0
        assert binary_tree4.ancestor_at_depth(leaf, 4) == leaf

    def test_ancestor_below_vertex_rejected(self, binary_tree4):
        with pytest.raises(GraphError):
            binary_tree4.ancestor_at_depth(0, 3)

    def test_path_to_root(self, binary_tree4):
        path = binary_tree4.path_to_root(15)
        assert path[0] == 15
        assert path[-1] == 0
        assert len(path) == 5

    def test_height_zero_tree(self):
        t = CompleteTree(2, 0)
        assert len(t) == 1
        assert t.is_leaf(0)
        assert t.neighbors(0) == []
        assert t.degree(0) == 0


class TestDistance:
    def test_distance_matches_bfs(self, ternary_tree3):
        source = 5
        bfs = bfs_distances(ternary_tree3, source)
        for v in ternary_tree3.vertices():
            assert ternary_tree3.distance(source, v) == bfs[v]

    def test_distance_symmetric(self, binary_tree4):
        assert binary_tree4.distance(3, 22) == binary_tree4.distance(22, 3)

    def test_distance_self(self, binary_tree4):
        assert binary_tree4.distance(7, 7) == 0


class TestGraphInterface:
    def test_degrees(self, binary_tree4):
        assert binary_tree4.degree(0) == 2       # root
        assert binary_tree4.degree(1) == 3       # internal
        assert binary_tree4.degree(30) == 1      # leaf

    def test_neighbors_of_internal(self, binary_tree4):
        assert set(binary_tree4.neighbors(1)) == {0, 3, 4}

    def test_vertex_count(self, ternary_tree3):
        assert len(ternary_tree3) == 40
        assert len(list(ternary_tree3.vertices())) == 40

    def test_edge_count_is_n_minus_1(self, ternary_tree3):
        assert ternary_tree3.num_edges() == len(ternary_tree3) - 1

    def test_out_of_range_vertex(self, binary_tree4):
        assert not binary_tree4.has_vertex(31)
        assert not binary_tree4.has_vertex(-1)
        assert not binary_tree4.has_vertex("x")
        with pytest.raises(GraphError):
            binary_tree4.neighbors(31)

    def test_huge_tree_is_lazy(self):
        # Height 200: ~2^201 vertices; only arithmetic, no storage.
        # (len() would overflow ssize_t; .size is the big-int count.)
        t = CompleteTree(2, 200)
        assert t.size == 2 ** 201 - 1
        deep = t.size - 1
        assert t.is_leaf(deep)
        assert t.depth(deep) == 200
        assert t.degree(deep) == 1


class TestHasEdgeFastPath:
    def test_matches_neighbor_sets(self):
        t = CompleteTree(3, 3)
        vertices = list(t.vertices())
        for u in vertices:
            for v in vertices:
                assert t.has_edge(u, v) == (v in set(t.neighbors(u)))

    def test_arithmetic_parent_check_is_lazy(self):
        # Height 200: neighbor sets are unbuildable; arithmetic is not.
        t = CompleteTree(2, 200)
        deep = t.size - 1
        parent = (deep - 1) // 2
        assert t.has_edge(deep, parent)
        assert t.has_edge(parent, deep)
        assert not t.has_edge(deep, deep - 1)
        assert not t.has_edge(0, 0)


# The walks the arithmetic replaced, kept as the reference.


def _walk_depth(tree, vertex):
    depth = 0
    while vertex != 0:
        vertex = (vertex - 1) // tree.arity
        depth += 1
    return depth


def _walk_ancestor_at_depth(tree, vertex, depth):
    for _ in range(_walk_depth(tree, vertex) - depth):
        vertex = (vertex - 1) // tree.arity
    return vertex


def _level_bounds(tree):
    """(first, last) index of every level, root first."""
    bounds = []
    first = 0
    for depth in range(tree.height + 1):
        width = tree.arity ** depth
        bounds.append((first, first + width - 1))
        first += width
    return bounds


_trees = st.builds(
    CompleteTree, st.integers(min_value=2, max_value=7), st.integers(0, 300)
)


class TestArithmeticMatchesWalk:
    """``depth``, ``ancestor_at_depth``, ``ancestor`` and
    ``level_range`` are closed forms of the heap layout; each must
    equal the walk it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(tree=_trees, data=st.data())
    def test_depth_at_random_vertices_and_every_level_edge(self, tree, data):
        vertex = data.draw(st.integers(0, tree.size - 1))
        assert tree.depth(vertex) == _walk_depth(tree, vertex)
        for depth, (first, last) in enumerate(_level_bounds(tree)):
            assert tree.depth(first) == depth == _walk_depth(tree, first)
            assert tree.depth(last) == depth == _walk_depth(tree, last)

    @settings(max_examples=60, deadline=None)
    @given(tree=_trees, data=st.data())
    def test_ancestor_at_every_target_depth(self, tree, data):
        first, last = data.draw(st.sampled_from(_level_bounds(tree)))
        for vertex in (data.draw(st.integers(0, tree.size - 1)), first, last):
            depth = _walk_depth(tree, vertex)
            for target in range(depth + 1):
                expected = _walk_ancestor_at_depth(tree, vertex, target)
                assert tree.ancestor_at_depth(vertex, target) == expected
                assert tree.ancestor(vertex, depth - target) == expected
            with pytest.raises(GraphError):
                tree.ancestor_at_depth(vertex, depth + 1)
            with pytest.raises(GraphError):
                tree.ancestor_at_depth(vertex, -1)
            with pytest.raises(GraphError):
                tree.ancestor(vertex, depth + 1)
            with pytest.raises(GraphError):
                tree.ancestor(vertex, -1)

    @settings(max_examples=60, deadline=None)
    @given(
        tree=st.builds(
            CompleteTree, st.integers(min_value=2, max_value=7), st.integers(0, 7)
        ),
        data=st.data(),
    )
    def test_level_range_is_the_children_bfs(self, tree, data):
        vertex = data.draw(st.integers(0, tree.size - 1))
        frontier = [vertex]
        for levels in range(tree.height + 2):
            assert list(tree.level_range(vertex, levels)) == frontier
            frontier = [c for v in frontier for c in tree.children(v)]
        with pytest.raises(GraphError):
            tree.level_range(vertex, -1)

    def test_depth_exact_at_powers_of_the_arity(self):
        # (d - 1) v + 1 = d^j exactly at each level's first index, where
        # a float logarithm alone can land just below j.
        for arity in range(2, 8):
            tree = CompleteTree(arity, 300)
            for depth, (first, last) in enumerate(_level_bounds(tree)):
                assert tree.depth(first) == depth
                assert tree.depth(last) == depth


class _CountingTree(CompleteTree):
    """Counts ``has_vertex`` calls, which every validation goes through."""

    def __init__(self, arity, height):
        super().__init__(arity, height)
        self.checks = 0

    def has_vertex(self, vertex):
        self.checks += 1
        return super().has_vertex(vertex)


class TestOneValidationPerCall:
    @pytest.mark.parametrize("vertex", [0, 1, 14, 15, 30])
    @pytest.mark.parametrize("method", ["neighbors", "children", "is_leaf", "depth"])
    def test_validates_once(self, method, vertex):
        tree = _CountingTree(2, 4)
        getattr(tree, method)(vertex)
        assert tree.checks == 1

    @pytest.mark.parametrize("bad", [-1, "size", 1.0, "a"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda tree, v: tree.neighbors(v),
            lambda tree, v: tree.children(v),
            lambda tree, v: tree.is_leaf(v),
            lambda tree, v: tree.depth(v),
            lambda tree, v: tree.parent(v),
            lambda tree, v: tree.ancestor(v, 0),
            lambda tree, v: tree.ancestor_at_depth(v, 0),
            lambda tree, v: tree.level_range(v, 0),
            lambda tree, v: tree.distance(v, 0),
            lambda tree, v: tree.distance(0, v),
        ],
        ids=[
            "neighbors",
            "children",
            "is_leaf",
            "depth",
            "parent",
            "ancestor",
            "ancestor_at_depth",
            "level_range",
            "distance-from",
            "distance-to",
        ],
    )
    def test_checks_still_fire(self, call, bad):
        tree = CompleteTree(2, 4)
        vertex = tree.size if bad == "size" else bad
        with pytest.raises(GraphError):
            call(tree, vertex)
