"""UnionBlocking: composition of overlapped copies."""

import pytest

from repro import BlockingError, ExplicitBlocking
from repro.blockings import UnionBlocking


def copy_a():
    return ExplicitBlocking(3, {"x": {1, 2, 3}, "y": {4, 5, 6}})


def copy_b():
    return ExplicitBlocking(3, {"x": {2, 3, 4}, "z": {5, 6, 1}})


class TestUnionBlocking:
    def test_ids_are_namespaced(self):
        union = UnionBlocking([copy_a(), copy_b()])
        assert set(union.blocks_for(2)) == {(0, "x"), (1, "x")}

    def test_block_contents_preserved(self):
        union = UnionBlocking([copy_a(), copy_b()])
        assert union.block((1, "z")).vertices == frozenset({5, 6, 1})

    def test_block_id_rewrapped(self):
        union = UnionBlocking([copy_a(), copy_b()])
        assert union.block((0, "y")).block_id == (0, "y")

    def test_blowup_sums(self):
        union = UnionBlocking([copy_a(), copy_b()])
        assert union.storage_blowup() == pytest.approx(
            copy_a().storage_blowup() + copy_b().storage_blowup()
        )

    def test_vertex_only_in_one_copy(self):
        union = UnionBlocking([copy_a(), copy_b()])
        # Vertex 4 appears in copy 0 block y and copy 1 block x.
        assert len(union.blocks_for(4)) == 2

    def test_block_size_must_match(self):
        other = ExplicitBlocking(4, {"w": {1, 2, 3, 4}})
        with pytest.raises(BlockingError):
            UnionBlocking([copy_a(), other])

    def test_empty_union_rejected(self):
        with pytest.raises(BlockingError):
            UnionBlocking([])

    def test_malformed_id_rejected(self):
        union = UnionBlocking([copy_a()])
        with pytest.raises(BlockingError):
            union.block("x")
        with pytest.raises(BlockingError):
            union.block((5, "x"))

    def test_repeat_read_returns_the_same_block(self):
        union = UnionBlocking([copy_a(), copy_b()])
        first = union.block((1, "x"))
        assert union.block((1, "x")) is first
        assert first.block_id == (1, "x")
        assert first.vertices == frozenset({2, 3, 4})

    @pytest.mark.parametrize(
        "bad", [["x"], [0, "x"], ({}, "x"), (0, "x", 1), ("x",), (-1, "x")]
    )
    def test_malformed_or_unhashable_id_rejected(self, bad):
        union = UnionBlocking([copy_a(), copy_b()])
        union.block((0, "x"))  # the memo holds a block
        with pytest.raises(BlockingError):
            union.block(bad)

    def test_interior_distance_requires_support(self):
        union = UnionBlocking([copy_a()])
        with pytest.raises(BlockingError):
            union.interior_distance((0, "x"), 1)

    def test_interior_distance_delegates(self):
        from repro.blockings import contiguous_1d_blocking

        union = UnionBlocking(
            [contiguous_1d_blocking(4), contiguous_1d_blocking(4)]
        )
        inner = contiguous_1d_blocking(4)
        bid = inner.blocks_for((1,))[0]
        assert union.interior_distance((0, bid), (1,)) == inner.interior_distance(
            bid, (1,)
        )
