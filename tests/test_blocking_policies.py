"""Construction-specific block-choice policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ExplicitBlocking,
    FirstBlockPolicy,
    ModelParams,
    PagingError,
    simulate_adversary,
    simulate_path,
)
from repro.adversaries import GreedyUncoveredAdversary
from repro.blockings import (
    FarthestFaultPolicy,
    MostInteriorPolicy,
    NearestCenterPolicy,
    OtherCopyPolicy,
    offset_1d_blocking,
    offset_grid_blocking,
    overlapped_tree_blocking,
)
from repro.core.block import make_block
from repro.core.memory import WeakMemory
from repro.graphs import CompleteTree, InfiniteGridGraph, path_graph
from repro.paging import LruEviction


class TestMostInterior:
    def test_prefers_deeper_block_1d(self):
        blocking = offset_1d_blocking(8)  # copies offset by 4
        memory = WeakMemory(ModelParams(8, 16))
        policy = MostInteriorPolicy()
        # Vertex 0 is on the boundary of copy 0 but centered in copy 1.
        choice = policy.choose((0,), blocking, memory)
        assert choice[0] == 1

    def test_prefers_deeper_block_center(self):
        blocking = offset_1d_blocking(8)
        memory = WeakMemory(ModelParams(8, 16))
        # Vertex 4 is centered in copy 0 ([0,8)), boundary of copy 1.
        choice = MostInteriorPolicy().choose((4,), blocking, memory)
        assert choice[0] == 0

    def test_requires_interior_distance(self):
        blocking = ExplicitBlocking(2, {"a": {1, 2}})
        memory = WeakMemory(ModelParams(2, 4))
        with pytest.raises(PagingError):
            MostInteriorPolicy().choose(1, blocking, memory)

    def test_uncovered_vertex_raises(self):
        # An explicit blocking reports no candidates for unknown
        # vertices; the policy must turn that into a PagingError.
        blocking = ExplicitBlocking(2, {"a": {1, 2}})
        memory = WeakMemory(ModelParams(2, 4))
        with pytest.raises(PagingError):
            MostInteriorPolicy().choose(99, blocking, memory)


class TestOtherCopy:
    def test_alternates_copies_on_tree(self):
        tree = CompleteTree(2, 10)
        blocking = overlapped_tree_blocking(tree, 15)
        policy = OtherCopyPolicy()
        memory = WeakMemory(ModelParams(15, 30))
        first = policy.choose(0, blocking, memory)
        # Next fault must come from the other copy.
        deep = 100
        second = policy.choose(deep, blocking, memory)
        assert second[0] != first[0]

    def test_requires_union_blocking(self):
        blocking = ExplicitBlocking(2, {"a": {1, 2}})
        memory = WeakMemory(ModelParams(2, 4))
        with pytest.raises(PagingError):
            OtherCopyPolicy().choose(1, blocking, memory)

    def test_reset_clears_history(self):
        tree = CompleteTree(2, 6)
        blocking = overlapped_tree_blocking(tree, 15)
        policy = OtherCopyPolicy()
        memory = WeakMemory(ModelParams(15, 30))
        a = policy.choose(0, blocking, memory)
        policy.reset()
        b = policy.choose(0, blocking, memory)
        assert a == b  # same first decision after reset

    def test_achieves_lemma17_gap(self):
        """The literal other-copy rule also delivers k/2 fault gaps."""
        tree = CompleteTree(2, 40)
        blocking = overlapped_tree_blocking(tree, 15)  # k = 4
        leaf = tree.size - 1
        down = list(reversed(tree.path_to_root(leaf)))
        trace = simulate_path(
            tree, blocking, OtherCopyPolicy(), ModelParams(15, 30), down
        )
        assert trace.min_gap >= 2


class TestFarthestFault:
    def test_corner_exit_uses_retained_block(self):
        """At a diagonal-corner exit, per-block interior distance is 1
        for both candidates, but combined with the retained old block
        one candidate still buys side/4 — the Lemma 22 case analysis."""
        graph = InfiniteGridGraph(2)
        blocking = offset_grid_blocking(2, 64)  # side 8
        adversary = GreedyUncoveredAdversary(graph, (0, 0), max_radius=40)
        trace = simulate_adversary(
            graph,
            blocking,
            FarthestFaultPolicy(graph),
            ModelParams(64, 128),
            adversary,
            2_000,
        )
        assert trace.min_gap >= 2  # side/4

    def test_interior_policy_loses_at_corners(self):
        """Contrast: the naive per-block interior rule gives up the
        guarantee (gap 1 events appear)."""
        graph = InfiniteGridGraph(2)
        blocking = offset_grid_blocking(2, 64)
        adversary = GreedyUncoveredAdversary(graph, (0, 0), max_radius=40)
        trace = simulate_adversary(
            graph,
            blocking,
            MostInteriorPolicy(),
            ModelParams(64, 128),
            adversary,
            2_000,
        )
        assert trace.min_gap == 1

    def test_single_candidate_shortcut(self):
        graph = path_graph(10)
        blocking = ExplicitBlocking(5, {0: {0, 1, 2, 3, 4}, 1: {5, 6, 7, 8, 9}})
        trace = simulate_path(
            graph,
            blocking,
            FarthestFaultPolicy(graph),
            ModelParams(5, 10),
            range(10),
        )
        assert trace.faults == 2

    def test_uncovered_vertex_raises(self):
        graph = path_graph(10)
        blocking = ExplicitBlocking(5, {0: {0, 1, 2, 3, 4}})
        memory = WeakMemory(ModelParams(5, 10))
        with pytest.raises(PagingError):
            FarthestFaultPolicy(graph).choose(7, blocking, memory)


class TestSurvivingCoverage:
    """``FarthestFaultPolicy`` ranks candidates against the coverage LRU
    will leave once it has made room; the prediction must be exactly
    what ``LruEviction`` leaves, whatever the block sizes."""

    def test_stops_at_the_first_block_that_does_not_fit(self):
        # Load order A, C, D; room for 4 more flushes A, then C — A is
        # older than C, so it cannot survive C's flush.
        loaded = [
            make_block("A", {1, 2}, 5),
            make_block("C", {10, 11, 12, 13, 14}, 5),
            make_block("D", {20, 21}, 5),
        ]
        memory = WeakMemory(ModelParams(5, 10))
        for blk in loaded:
            memory.load(blk)
        predicted = FarthestFaultPolicy._surviving_coverage(memory, 4)
        LruEviction().make_room(memory, make_block("in", range(30, 34), 5))
        assert predicted == memory.covered_vertices() == {20, 21}

    def test_choose_predicts_survivors_for_each_candidate_size(self):
        # Fault at 10 with O, then P resident, M = 8. Reading the
        # one-vertex X keeps O, so 10 is 4 steps from the nearest fault;
        # reading the full Y flushes O, and 11 faults at once. Survivors
        # predicted for a block of size B drop O for X too, tying the
        # two at 1, and the tie goes to the first candidate, Y.
        graph = path_graph(30)
        blocking = ExplicitBlocking(
            4, {"Y": {1, 2, 3, 10}, "X": {10}, "O": {11, 12, 13}, "P": {6, 7, 8, 9}}
        )
        memory = WeakMemory(ModelParams(4, 8))
        memory.load(blocking.block("O"))
        memory.load(blocking.block("P"))
        assert FarthestFaultPolicy(graph).choose(10, blocking, memory) == "X"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), memory_size=st.integers(5, 15))
    def test_matches_lru_over_mixed_block_sizes(self, data, memory_size):
        sizes = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=6))
        # Block k starts at 3k, so blocks longer than 3 share vertices.
        pool = [
            make_block(k, range(3 * k, 3 * k + size), 5)
            for k, size in enumerate(sizes)
        ]
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["load", "visit"]),
                    st.integers(0, len(pool) - 1),
                ),
                max_size=20,
            )
        )
        incoming_size = data.draw(st.integers(1, 5))
        incoming = make_block("in", range(100, 100 + incoming_size), 5)
        predicted_memory, lru_memory = (
            WeakMemory(ModelParams(5, memory_size)) for _ in range(2)
        )
        for memory in (predicted_memory, lru_memory):
            for op, k in ops:
                blk = pool[k]
                if op == "visit":
                    memory.visit(3 * k)
                elif not memory.is_resident(blk.block_id):
                    LruEviction().make_room(memory, blk)
                    memory.load(blk)
        predicted = FarthestFaultPolicy._surviving_coverage(
            predicted_memory, incoming_size
        )
        LruEviction().make_room(lru_memory, incoming)
        assert predicted == lru_memory.covered_vertices()


class TestNearestCenter:
    def test_prefers_assigned_center(self):
        blocking = ExplicitBlocking(
            3, {("nbhd", 0): {0, 1, 2}, ("nbhd", 4): {2, 3, 4}}
        )
        policy = NearestCenterPolicy({2: 4})
        memory = WeakMemory(ModelParams(3, 6))
        assert policy.choose(2, blocking, memory) == ("nbhd", 4)

    def test_falls_back_when_center_block_misses(self):
        blocking = ExplicitBlocking(3, {("nbhd", 0): {0, 1, 2}})
        policy = NearestCenterPolicy({1: 99})  # no such block
        memory = WeakMemory(ModelParams(3, 6))
        assert policy.choose(1, blocking, memory) == ("nbhd", 0)

    def test_unassigned_vertex_raises(self):
        blocking = ExplicitBlocking(3, {("nbhd", 0): {0, 1, 2}})
        policy = NearestCenterPolicy({0: 0})
        memory = WeakMemory(ModelParams(3, 6))
        with pytest.raises(PagingError):
            policy.choose(5, blocking, memory)

    def test_empty_assignment_rejected(self):
        from repro import BlockingError

        with pytest.raises(BlockingError):
            NearestCenterPolicy({})
