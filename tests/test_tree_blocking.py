"""Tree blockings: the naive stratification and Lemma 17's overlap."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BlockingError, CompleteTree
from repro.blockings import (
    TreeStrataBlocking,
    naive_subtree_blocking,
    overlapped_tree_blocking,
    tree_block_levels,
)


class TestTreeBlockLevels:
    def test_binary(self):
        assert tree_block_levels(15, 2) == 4   # 2^4-1 = 15
        assert tree_block_levels(14, 2) == 3
        assert tree_block_levels(1, 2) == 1

    def test_ternary(self):
        assert tree_block_levels(13, 3) == 3   # 1+3+9

    def test_invalid(self):
        with pytest.raises(BlockingError):
            tree_block_levels(0, 2)


class TestStrataBlocking:
    def test_every_vertex_in_one_block(self):
        tree = CompleteTree(2, 6)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        for v in tree.vertices():
            bids = blocking.blocks_for(v)
            assert len(bids) == 1
            assert v in blocking.block(bids[0])

    def test_partition_is_exact(self):
        tree = CompleteTree(2, 5)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        seen = set()
        for v in tree.vertices():
            block = blocking.block(blocking.blocks_for(v)[0])
            seen.update(block.vertices)
        assert seen == set(tree.vertices())

    def test_block_is_subtree(self):
        tree = CompleteTree(2, 6)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        root = 1  # depth 1? no: stratum roots at depths 0,3,6
        block = blocking.block(0)
        # Root block: depths 0..2 = 7 vertices.
        assert len(block) == 7

    def test_offset_creates_partial_top_block(self):
        tree = CompleteTree(2, 6)
        blocking = TreeStrataBlocking(tree, 15, levels=4, offset=2)
        top = blocking.block(0)
        assert len(top) == 3  # depths 0..1

    def test_offset_strata_boundaries(self):
        tree = CompleteTree(2, 6)
        blocking = TreeStrataBlocking(tree, 15, levels=4, offset=2)
        v = next(iter(tree.leaves()))  # depth 6
        root = blocking.blocks_for(v)[0]
        assert tree.depth(root) == 6  # strata at 2, 6

    def test_truncated_bottom_block(self):
        tree = CompleteTree(2, 4)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        leaf = next(iter(tree.leaves()))  # depth 4: stratum 3..4 only
        block = blocking.block(blocking.blocks_for(leaf)[0])
        assert len(block) == 3  # 1 + 2 (two levels)

    def test_levels_exceeding_b_rejected(self):
        tree = CompleteTree(2, 6)
        with pytest.raises(BlockingError):
            TreeStrataBlocking(tree, 10, levels=4)  # needs 15

    def test_bad_offset(self):
        tree = CompleteTree(2, 6)
        with pytest.raises(BlockingError):
            TreeStrataBlocking(tree, 15, levels=3, offset=3)

    def test_interior_distance_root_block(self):
        tree = CompleteTree(2, 6)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        # Vertex at depth 0 in the root block: no exit upward; exit
        # downward at depth 3, i.e. distance 3.
        assert blocking.interior_distance(0, 0) == 3
        # Vertex at depth 2 (block bottom): one step down leaves.
        assert blocking.interior_distance(0, 4) == 1

    def test_interior_distance_leaf_block_infinite_down(self):
        tree = CompleteTree(2, 5)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        leaf = next(iter(tree.leaves()))  # depth 5, block depths 3..5
        stratum_root = blocking.blocks_for(leaf)[0]
        # Leaf's only exit is upward through the stratum root.
        expected_up = (tree.depth(leaf) - 3) + 1
        assert blocking.interior_distance(stratum_root, leaf) == expected_up

    def test_materialize_rejects_non_root(self):
        tree = CompleteTree(2, 6)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        with pytest.raises(BlockingError):
            blocking.block(1)  # depth 1 is not a stratum root


class TestNaive:
    def test_blowup_1(self):
        tree = CompleteTree(2, 8)
        assert naive_subtree_blocking(tree, 15).storage_blowup() == 1.0


class TestOverlapped:
    def test_blowup_2(self):
        tree = CompleteTree(2, 8)
        assert overlapped_tree_blocking(tree, 15).storage_blowup() == 2.0

    def test_every_vertex_in_two_blocks(self):
        tree = CompleteTree(2, 8)
        blocking = overlapped_tree_blocking(tree, 15)
        for v in [0, 5, 100, 500]:
            assert len(blocking.blocks_for(v)) == 2

    def test_lemma17_half_stratum_guarantee(self):
        """Every vertex is at least k/2 from the boundary of one of its
        two blocks (or the block has no boundary there at all)."""
        tree = CompleteTree(2, 12)
        blocking = overlapped_tree_blocking(tree, 15)  # k = 4
        for v in range(0, 5000, 37):
            best = max(
                blocking.interior_distance(bid, v)
                for bid in blocking.blocks_for(v)
            )
            assert best >= 2  # k/2

    def test_needs_two_levels(self):
        tree = CompleteTree(2, 4)
        with pytest.raises(BlockingError):
            overlapped_tree_blocking(tree, 1)


def _reference_levels(blocking, start):
    """How many levels the block starting at depth ``start`` spans."""
    if start == 0 and blocking.offset > 0:
        return blocking.offset
    return min(blocking.levels, blocking.tree.height - start + 1)


def _bfs_block(blocking, root):
    """The level-by-level ``children`` BFS that built a stratum block
    before the level ranges did, kept as the reference."""
    tree = blocking.tree
    members = [root]
    frontier = [root]
    for _ in range(_reference_levels(blocking, tree.depth(root)) - 1):
        nxt = []
        for v in frontier:
            nxt.extend(tree.children(v))
        members.extend(nxt)
        frontier = nxt
    return frozenset(members)


def _depth_only_interior_distance(blocking, root, vertex):
    """The interior distance before it asked whether the block holds
    the vertex, kept as the reference for vertices it does hold."""
    tree = blocking.tree
    start = tree.depth(root)
    depth = tree.depth(vertex)
    bottom = start + _reference_levels(blocking, start) - 1
    up = float("inf") if start == 0 else (depth - start) + 1
    down = float("inf") if bottom >= tree.height else (bottom - depth) + 1
    return min(up, down)


@st.composite
def _strata(draw):
    """A tree stratification: arity 2..4, a few levels per block, any
    offset (0 or a partial top block), trees as short as one level
    (every block clipped at the leaves) or many blocks tall."""
    arity = draw(st.integers(2, 4))
    levels = draw(st.integers(1, 4))
    offset = draw(st.integers(0, levels - 1))
    height = draw(st.integers(0, 12 if arity == 2 else 6))
    tree = CompleteTree(arity, height)
    block_size = (arity ** levels - 1) // (arity - 1)
    return TreeStrataBlocking(tree, block_size, levels, offset)


class TestLevelRangeBlocks:
    """A stratum block is its ``levels`` index runs, chained: the same
    frozenset as the ``children`` BFS it replaced, iterating in the
    same order, so traces and sigma stay byte-identical."""

    @settings(max_examples=200, deadline=None)
    @given(blocking=_strata(), data=st.data())
    def test_equals_the_bfs_in_iteration_order(self, blocking, data):
        tree = blocking.tree
        vertex = data.draw(st.integers(0, tree.size - 1))
        leaf = tree.size - 1
        for v in (0, vertex, leaf):
            (root,) = blocking.blocks_for(v)
            new = blocking.block(root).vertices
            reference = _bfs_block(blocking, root)
            assert new == reference
            assert list(new) == list(reference)
            assert v in new

    @pytest.mark.parametrize("copy", [0, 1])
    def test_sweep_shape_both_strata_copies(self, copy):
        # The Table 1 tree cell: B = 1023 on a binary tree of height 300.
        tree = CompleteTree(2, 300)
        strata = overlapped_tree_blocking(tree, 1023).copies[copy]
        deep = tree.size // 3
        for v in (0, 1, deep, tree.size - 1):
            (root,) = strata.blocks_for(v)
            new = strata.block(root).vertices
            reference = _bfs_block(strata, root)
            assert list(new) == list(reference)

    def test_partial_top_and_clipped_blocks(self):
        tree = CompleteTree(3, 4)
        blocking = TreeStrataBlocking(tree, 40, levels=4, offset=2)
        top = blocking.block(0).vertices
        assert list(top) == list(_bfs_block(blocking, 0))
        assert len(top) == 1 + 3  # the offset's two levels
        # The leaves' stratum starts at depth 2: 4 levels, clipped to 3.
        (root,) = blocking.blocks_for(tree.size - 1)
        clipped = blocking.block(root).vertices
        assert len(clipped) == 1 + 3 + 9
        assert list(clipped) == list(_bfs_block(blocking, root))

    def test_builds_without_children(self):
        class NoChildren(CompleteTree):
            def children(self, vertex):
                raise AssertionError("children called while building a block")

        tree = NoChildren(2, 12)
        blocking = overlapped_tree_blocking(tree, 15)
        for v in (0, 5, 100, tree.size - 1):
            for bid in blocking.blocks_for(v):
                assert v in blocking.block(bid)

    @pytest.mark.parametrize("bad", [-1, "size", 1.0, "a", 1, 2])
    def test_rejects_unknown_and_non_root_ids(self, bad):
        tree = CompleteTree(2, 6)
        blocking = TreeStrataBlocking(tree, 15, levels=3, offset=0)
        block_id = tree.size if bad == "size" else bad
        with pytest.raises(BlockingError):
            blocking.block(block_id)
        with pytest.raises(BlockingError):
            blocking.interior_distance(block_id, 0)


class TestInteriorDistanceAsksTheBlock:
    def test_sibling_subtree_is_outside(self):
        tree = CompleteTree(2, 10)
        blocking = naive_subtree_blocking(tree, 15)  # 4 levels
        assert blocking.blocks_for(16) == (16,)
        assert 16 not in blocking.block(15)
        assert blocking.interior_distance(15, 16) <= 0

    @settings(max_examples=100, deadline=None)
    @given(blocking=_strata(), data=st.data())
    def test_held_unchanged_and_others_at_most_zero(self, blocking, data):
        tree = blocking.tree
        vertex = data.draw(st.integers(0, tree.size - 1))
        roots = {blocking.blocks_for(v)[0] for v in (0, vertex, tree.size - 1)}
        for root in roots:
            block = blocking.block(root)
            for v in (0, vertex, tree.size - 1, *block):
                distance = blocking.interior_distance(root, v)
                if v in block:
                    assert distance == _depth_only_interior_distance(
                        blocking, root, v
                    )
                    assert distance >= 1
                else:
                    assert distance <= 0
