"""Weak and strong memory models (Section 2, item 5)."""

from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import ModelParams, PagingError, PagingModel, StrongMemory, WeakMemory
from repro.core.block import Block, make_block
from repro.core.memory import make_memory


def block(bid, vertices, B=4):
    return make_block(bid, vertices, B)


class TestWeakMemory:
    def make(self, B=4, M=8) -> WeakMemory:
        return WeakMemory(ModelParams(B, M))

    def test_load_covers(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        assert mem.covers(1)
        assert not mem.covers(3)

    def test_occupancy_counts_copies(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        mem.load(block("b", {2, 3}))
        assert mem.occupancy == 4
        assert mem.copies_of(2) == 2

    def test_capacity_enforced(self):
        mem = self.make(B=4, M=4)
        mem.load(block("a", {1, 2, 3, 4}))
        with pytest.raises(PagingError):
            mem.load(block("b", {5}))

    def test_reload_resident_block_is_noop(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        mem.load(block("a", {1, 2}))
        assert mem.occupancy == 2

    def test_evict_block_removes_copies(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        mem.load(block("b", {2, 3}))
        mem.evict_block("a")
        assert not mem.covers(1)
        assert mem.covers(2)  # still held by b
        assert mem.occupancy == 2

    def test_evict_non_resident_raises(self):
        with pytest.raises(PagingError):
            self.make().evict_block("ghost")

    def test_lru_order_tracks_loads(self):
        mem = self.make(M=12)
        mem.load(block("a", {1}))
        mem.load(block("b", {2}))
        mem.load(block("c", {3}))
        assert mem.lru_order() == ["a", "b", "c"]

    def test_touch_refreshes_recency(self):
        mem = self.make(M=12)
        mem.load(block("a", {1}))
        mem.load(block("b", {2}))
        mem.touch(1)  # block a used again
        assert mem.lru_order() == ["b", "a"]

    def test_touch_uncovered_vertex_noop(self):
        mem = self.make()
        mem.load(block("a", {1}))
        mem.touch(42)
        assert mem.lru_order() == ["a"]

    def test_covered_vertices(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        assert mem.covered_vertices() == {1, 2}

    def test_is_resident(self):
        mem = self.make()
        mem.load(block("a", {1}))
        assert mem.is_resident("a")
        assert not mem.is_resident("b")

    def test_visit_is_covers_plus_touch(self):
        mem = self.make(M=12)
        mem.load(block("a", {1}))
        mem.load(block("b", {2}))
        assert mem.visit(1)  # covered: refreshes a's recency
        assert mem.lru_order() == ["b", "a"]
        assert not mem.visit(42)  # uncovered: no recency change
        assert mem.lru_order() == ["b", "a"]

    def test_visit_ticks_every_holder(self):
        mem = self.make(M=12)
        mem.load(block("a", {1, 2}))
        mem.load(block("b", {2}))
        mem.load(block("c", {3}))
        clock = mem.clock
        assert mem.visit(2)  # held by a and b: both tick
        assert mem.clock == clock + 2
        assert mem.lru_order() == ["c", "a", "b"]

    def test_lru_block_is_order_head(self):
        mem = self.make(M=12)
        assert mem.lru_block() is None
        mem.load(block("a", {1}))
        mem.load(block("b", {2}))
        assert mem.lru_block() == "a"
        mem.visit(1)
        assert mem.lru_block() == "b"


class CountingSet(frozenset):
    """A block's vertex set that counts how often memory iterates it
    and how often it is asked whether it holds a vertex."""

    def __init__(self, vertices):
        self.iterations = 0
        self.probes = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()

    def __contains__(self, vertex):
        self.probes += 1
        return super().__contains__(vertex)


class TestWeakMemoryCost:
    """Clock-free complexity pin. A load or flush does O(1) work per
    block and never walks its vertices; a coverage query costs at most
    one probe per resident block. Blocks are built directly, because
    ``make_block`` would copy the counting set into a plain one."""

    def loaded(self):
        blocks = [
            Block(bid, CountingSet(vs))
            for bid, vs in (("a", {1, 2}), ("b", {2, 3}), ("c", {4}))
        ]
        mem = WeakMemory(ModelParams(4, 12))
        for blk in blocks:
            mem.load(blk)
        return mem, [blk.vertices for blk in blocks]

    def test_load_and_evict_never_iterate_vertices(self):
        a = Block("a", CountingSet({1, 2, 3}))
        b = Block("b", CountingSet({3, 4}))
        mem = WeakMemory(ModelParams(4, 8))
        mem.load(a)
        mem.load(b)
        mem.evict_block("a")
        assert mem.occupancy == 2 and mem.covers(3) and not mem.covers(1)
        assert a.vertices.iterations + b.vertices.iterations == 0

    @pytest.mark.parametrize("vertex", [1, 2, 4, 42])
    def test_visit_and_touch_probe_each_resident_block_once(self, vertex):
        mem, sets = self.loaded()
        mem.visit(vertex)
        assert [vs.probes for vs in sets] == [1, 1, 1]
        mem.touch(vertex)
        assert [vs.probes for vs in sets] == [2, 2, 2]
        assert sum(vs.iterations for vs in sets) == 0

    @pytest.mark.parametrize("vertex", [1, 2, 4, 42])
    def test_covers_probes_each_resident_block_at_most_once(self, vertex):
        mem, sets = self.loaded()
        assert mem.covers(vertex) == (vertex != 42)
        assert all(vs.probes <= 1 for vs in sets)
        assert sum(vs.iterations for vs in sets) == 0


class TestStrongMemory:
    def make(self, B=4, M=8) -> StrongMemory:
        return StrongMemory(ModelParams(B, M, PagingModel.STRONG))

    def test_load_covers(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        assert mem.covers(1)

    def test_evict_oldest_partial(self):
        # The strong model's distinguishing power: flush part of a block.
        mem = self.make()
        mem.load(block("a", {1, 2, 3, 4}))
        before = mem.covered_vertices()
        mem.evict_oldest(2)
        after = mem.covered_vertices()
        assert mem.occupancy == 2
        assert len(before - after) == 2

    def test_evict_more_than_resident_raises(self):
        mem = self.make()
        mem.load(block("a", {1}))
        with pytest.raises(PagingError):
            mem.evict_oldest(5)

    def test_evict_all(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        mem.evict_all()
        assert mem.occupancy == 0
        assert not mem.covers(1)

    def test_duplicate_copies_counted(self):
        mem = self.make()
        mem.load(block("a", {1, 2}))
        mem.load(block("b", {1, 3}))
        assert mem.copies_of(1) == 2
        assert mem.occupancy == 4

    def test_capacity_enforced(self):
        mem = self.make(B=4, M=4)
        mem.load(block("a", {1, 2, 3}))
        with pytest.raises(PagingError):
            mem.load(block("b", {4, 5}))

    def test_visit_is_coverage_only(self):
        # Copy-level recency is untracked, so visit is just the test.
        mem = self.make()
        mem.load(block("a", {1, 2}))
        assert mem.visit(1)
        assert not mem.visit(42)
        mem.evict_all()
        assert not mem.visit(1)


class TestMakeMemory:
    def test_weak(self):
        assert isinstance(make_memory(ModelParams(2, 4)), WeakMemory)

    def test_strong(self):
        params = ModelParams(2, 4, PagingModel.STRONG)
        assert isinstance(make_memory(params), StrongMemory)


# -- model-based checks ------------------------------------------------------
#
# Random operation sequences over a small pool of overlapping blocks
# (some vertex always lies in two or more of them, so s >= 2), checked
# after every operation against a brute-force model. WeakMemory answers
# from its resident blocks and StrongMemory from per-vertex copy counts;
# these tests pin every answer to what the block-level state says it
# must be.

UNIVERSE = range(7)
OUTSIDE = 99  # never in any block


@st.composite
def block_pools(draw):
    """4-6 blocks of at most B=4 vertices over a 7-vertex universe,
    at least one vertex held by two of them."""
    sets = draw(
        st.lists(
            st.frozensets(st.sampled_from(UNIVERSE), min_size=1, max_size=4),
            min_size=4,
            max_size=6,
        )
    )
    assume(any(sum(v in s for s in sets) >= 2 for v in UNIVERSE))
    return [block(f"b{k}", vs) for k, vs in enumerate(sets)]


def weak_ops(n_blocks):
    return st.lists(
        st.one_of(
            st.tuples(st.just("load"), st.integers(0, n_blocks - 1)),
            st.tuples(st.just("evict"), st.integers(0, n_blocks - 1)),
            st.tuples(st.just("visit"), st.sampled_from([*UNIVERSE, OUTSIDE])),
            st.tuples(st.just("touch"), st.sampled_from([*UNIVERSE, OUTSIDE])),
        ),
        max_size=40,
    )


def check_weak_against_model(mem: WeakMemory, lru: list) -> None:
    # Holders of every vertex, rebuilt from the resident blocks alone;
    # resident_blocks() lists them in load order.
    holders: dict = {}
    for bid in mem.resident_blocks():
        for v in mem.resident_block(bid).vertices:
            holders.setdefault(v, []).append(bid)
    for v in [*UNIVERSE, OUTSIDE]:
        expected = tuple(holders.get(v, ()))
        assert mem.covers(v) == bool(expected)
        assert mem.copies_of(v) == len(expected)
        assert mem.covering_blocks(v) == expected
    assert mem.covered_vertices() == set(holders)
    assert mem.covered_count == len(mem.covered_vertices()) == len(holders)
    assert mem.occupancy == sum(
        len(mem.resident_block(bid)) for bid in mem.resident_blocks()
    )
    assert mem.lru_order() == lru
    assert mem.lru_block() == (lru[0] if lru else None)


class TestWeakMemoryModel:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), memory_size=st.integers(4, 12))
    def test_index_matches_resident_blocks(self, data, memory_size):
        pool = data.draw(block_pools())
        ops = data.draw(weak_ops(len(pool)))
        mem = WeakMemory(ModelParams(4, memory_size))
        lru: list = []  # model recency: least recently used first

        def use(bid):
            if bid in lru:
                lru.remove(bid)
            lru.append(bid)

        for op, arg in ops:
            if op == "load":
                blk = pool[arg]
                if not mem.is_resident(blk.block_id):
                    while not mem.room_for(len(blk)):
                        victim = mem.lru_block()
                        assert victim == lru.pop(0)
                        mem.evict_block(victim)
                        check_weak_against_model(mem, lru)
                mem.load(blk)
                use(blk.block_id)
            elif op == "evict":
                bid = pool[arg].block_id
                if mem.is_resident(bid):
                    mem.evict_block(bid)
                    lru.remove(bid)
                else:
                    with pytest.raises(PagingError):
                        mem.evict_block(bid)
            else:
                # visit and touch tick every holder, in load order.
                ticked = [
                    bid
                    for bid in mem.resident_blocks()
                    if arg in mem.resident_block(bid)
                ]
                if op == "visit":
                    assert mem.visit(arg) == bool(ticked)
                else:
                    mem.touch(arg)
                for bid in ticked:
                    use(bid)
            check_weak_against_model(mem, lru)


class TestStrongMemoryModel:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), memory_size=st.integers(4, 12))
    def test_counts_match_resident_copies(self, data, memory_size):
        pool = data.draw(block_pools())
        ops = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("load"), st.integers(0, len(pool) - 1)),
                    st.tuples(st.just("evict_oldest"), st.integers(0, 12)),
                    st.tuples(st.just("evict_all"), st.just(0)),
                ),
                max_size=40,
            )
        )
        mem = StrongMemory(ModelParams(4, memory_size, PagingModel.STRONG))
        copies: deque = deque()  # model: resident vertex copies, oldest first
        for op, arg in ops:
            if op == "load":
                blk = pool[arg]
                deficit = mem.occupancy + len(blk) - mem.capacity
                if deficit > 0:
                    mem.evict_oldest(deficit)
                    for _ in range(deficit):
                        copies.popleft()
                mem.load(blk)
                copies.extend(blk.vertices)
            elif op == "evict_oldest":
                if arg > len(copies):
                    with pytest.raises(PagingError):
                        mem.evict_oldest(arg)
                else:
                    mem.evict_oldest(arg)
                    for _ in range(arg):
                        copies.popleft()
            else:
                mem.evict_all()
                copies.clear()
            for v in [*UNIVERSE, OUTSIDE]:
                n = sum(1 for c in copies if c == v)
                assert mem.copies_of(v) == n
                assert mem.covers(v) == mem.visit(v) == (n > 0)
            assert mem.covered_vertices() == set(copies)
            assert mem.covered_count == len(mem.covered_vertices())
            assert mem.occupancy == len(copies)


class TestUncoveredAmong:
    """``uncovered_among`` answers a batch exactly as ``covers`` answers
    each vertex, in both models, for any residency and any batch."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        memory_size=st.integers(4, 12),
        model=st.sampled_from([PagingModel.WEAK, PagingModel.STRONG]),
    )
    def test_matches_covers(self, data, memory_size, model):
        pool = data.draw(block_pools())
        mem = make_memory(ModelParams(4, memory_size, model))
        for k in data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=6)):
            blk = pool[k]
            if isinstance(mem, WeakMemory):
                if mem.is_resident(blk.block_id):
                    continue
                while not mem.room_for(len(blk)):
                    mem.evict_block(mem.lru_block())
            else:
                deficit = mem.occupancy + len(blk) - mem.capacity
                if deficit > 0:
                    mem.evict_oldest(deficit)
            mem.load(blk)
        vs = data.draw(st.lists(st.sampled_from([*UNIVERSE, OUTSIDE]), max_size=10))
        assert mem.uncovered_among(vs) == {v for v in vs if not mem.covers(v)}
        assert mem.uncovered_among(iter(vs)) == {v for v in vs if not mem.covers(v)}

    @pytest.mark.parametrize("model", [PagingModel.WEAK, PagingModel.STRONG])
    def test_empty_memory_and_empty_input(self, model):
        mem = make_memory(ModelParams(4, 8, model))
        assert mem.uncovered_among([]) == set()
        assert mem.uncovered_among([1, 2, 2]) == {1, 2}
        mem.load(block("a", {1, 3}))
        assert mem.uncovered_among([]) == set()
        assert mem.uncovered_among([1, 2, 3, OUTSIDE]) == {2, OUTSIDE}
