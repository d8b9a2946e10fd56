"""``Blocking.members``: a block's membership and size without building it.

Ranking policies ask ``members`` instead of ``block``. These tests pin
that the answer is the block's own (before and after the block is
built, on every kind of blocking), that asking never counts as a read
of the service's shared cache, and that ranking builds no tile: a
tessellation answers an unbuilt tile by arithmetic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExplicitBlocking, ModelParams, simulate_adversary
from repro.adversaries import GridCorridorAdversary
from repro.analysis.tessellation import UniformTessellation
from repro.blockings import (
    FarthestFaultPolicy,
    TessellationBlocking,
    UnionBlocking,
    grid_lemma13_blocking,
    naive_subtree_blocking,
    offset_1d_blocking,
    offset_grid_blocking,
    sheared_grid_blocking,
)
from repro.core.memory import WeakMemory
from repro.core.policies import LargestBlockPolicy
from repro.graphs import CompleteTree, InfiniteGridGraph
from repro.service import CachedBlocking, SharedBlockCache


def grid_vertices(dim, reach):
    """Lattice points within ``reach`` of the origin on every axis:
    several tile corners on each side of it, negative coordinates too."""
    return st.tuples(*[st.integers(-reach, reach)] * dim)


#: name -> (fresh blocking, vertex strategy). Each example builds a
#: fresh blocking, so "before" really is before any block is built.
BLOCKINGS = {
    "explicit": (
        lambda: ExplicitBlocking(
            4, {"a": {1, 2, 3}, "b": {3, 4}, "c": {5, 6, 7, 8}}
        ),
        st.integers(0, 9),
    ),
    "uniform-offset": (
        lambda: TessellationBlocking(
            UniformTessellation(2, 4, offset=(1, -2)), 16
        ),
        grid_vertices(2, 10),
    ),
    "sheared": (lambda: sheared_grid_blocking(3, 216), grid_vertices(3, 14)),
    "union-1d": (lambda: offset_1d_blocking(8), grid_vertices(1, 20)),
    "union-2d": (lambda: offset_grid_blocking(2, 64), grid_vertices(2, 18)),
    "union-5d": (lambda: offset_grid_blocking(5, 1024), grid_vertices(5, 6)),
    "grid-balls": (lambda: grid_lemma13_blocking(2, 13), grid_vertices(2, 5)),
    "tree-strata": (
        lambda: naive_subtree_blocking(CompleteTree(2, 6), 7),
        st.integers(0, 126),
    ),
}


class TestMembersAgreeWithBlock:
    @pytest.mark.parametrize("name", sorted(BLOCKINGS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_membership_and_size(self, name, data):
        make, vertices = BLOCKINGS[name]
        blocking = make()
        anchor = data.draw(vertices, label="anchor")
        probes = data.draw(st.lists(vertices, min_size=1, max_size=12), label="probes")
        for bid in blocking.blocks_for(anchor):
            before = blocking.members(bid)
            answers = [v in before for v in probes]
            size = len(before)
            built = blocking.block(bid)
            assert answers == [v in built for v in probes]
            assert size == len(built)
            after = blocking.members(bid)
            assert [v in after for v in probes] == answers
            assert len(after) == size
            assert anchor in before and anchor in after


class TestMembersCostNothing:
    def test_cached_blocking_members_is_not_a_cache_read(self):
        inner = offset_grid_blocking(2, 16)
        cache = SharedBlockCache(64)
        cache.register_tenant("t", 64)
        facade = CachedBlocking(inner, cache, "t")
        facade.block((0, (0, 0)))  # one miss, so the counts are not all 0
        before = cache.stats()
        for bid in facade.blocks_for((3, 5)):
            members = facade.members(bid)
            assert (3, 5) in members and len(members) == 16
        assert cache.stats() == before
        assert (facade.hits, facade.misses, facade.coalesced) == (0, 1, 0)

    @staticmethod
    def count_builds(monkeypatch):
        """Record every tile a TessellationBlocking builds, as
        ``(blocking, tile)`` pairs."""
        built = []
        materialize = TessellationBlocking._materialize

        def recording(self, block_id):
            built.append((self, block_id))
            return materialize(self, block_id)

        monkeypatch.setattr(TessellationBlocking, "_materialize", recording)
        return built

    @pytest.mark.parametrize(
        "policy",
        [FarthestFaultPolicy(InfiniteGridGraph(2)), LargestBlockPolicy()],
        ids=["farthest", "largest"],
    )
    def test_ranking_builds_no_tile(self, monkeypatch, policy):
        built = self.count_builds(monkeypatch)
        blocking = offset_grid_blocking(2, 64)
        memory = WeakMemory(ModelParams(64, 128))
        choice = policy.choose((3, 5), blocking, memory)
        assert choice in blocking.blocks_for((3, 5))
        assert built == []

    def test_s2_corridor_game_builds_exactly_the_tiles_it_loads(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        graph = InfiniteGridGraph(3)
        blocking = offset_grid_blocking(3, 64)
        trace = simulate_adversary(
            graph,
            blocking,
            FarthestFaultPolicy(graph),
            ModelParams(64, 128),
            GridCorridorAdversary(3, 64, 128),
            300,
        )
        assert trace.faults > 10
        copies = blocking.copies
        built_ids = [
            (next(i for i, c in enumerate(copies) if c is copy), tile)
            for copy, tile in built
        ]
        assert len(built_ids) == len(set(built_ids))  # each built once
        assert set(built_ids) == set(trace.block_reads)


def test_union_delegates_members_to_its_copies():
    inner = ExplicitBlocking(3, {"x": {1, 2, 3}})
    union = UnionBlocking([inner])
    assert union.members((0, "x")) is inner.block("x").vertices
