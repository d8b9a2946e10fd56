"""Grid blockings: Lemmas 20, 22, 23, 26, 27, 28."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BlockingError, ExplicitBlocking
from repro.blockings import (
    GridNeighborhoodBlocking,
    UnionBlocking,
    contiguous_1d_blocking,
    diagonal_lemma13_blocking,
    grid_block_side,
    grid_lemma13_blocking,
    offset_1d_blocking,
    offset_grid_blocking,
    sheared_grid_blocking,
    uniform_grid_blocking,
)
from repro.analysis.theory import grid_ball_volume_exact
from repro.core.blocking import ImplicitBlocking


class TestGridBlockSide:
    def test_exact_cubes(self):
        assert grid_block_side(64, 2) == 8
        assert grid_block_side(64, 3) == 4

    def test_rounds_down(self):
        assert grid_block_side(65, 2) == 8
        assert grid_block_side(63, 2) == 7

    def test_too_small(self):
        with pytest.raises(BlockingError):
            grid_block_side(0, 2)


class TestContiguous1d:
    def test_block_contents(self):
        b = contiguous_1d_blocking(4)
        bid = b.blocks_for((5,))[0]
        assert b.block(bid).vertices == frozenset({(4,), (5,), (6,), (7,)})

    def test_s_is_1(self):
        assert contiguous_1d_blocking(4).storage_blowup() == 1.0

    def test_negative_coordinates(self):
        b = contiguous_1d_blocking(4)
        bid = b.blocks_for((-1,))[0]
        assert (-4,) in b.block(bid).vertices


class TestTessellationInteriorDistance:
    """``interior_distance`` measures from the tile it is given: a
    tile that does not hold the vertex gives it no depth (<= 0), the
    convention of the ball blockings."""

    def test_outside_vertex_has_no_depth(self):
        assert contiguous_1d_blocking(64).interior_distance((5,), (0,)) <= 0
        assert offset_grid_blocking(2, 64).interior_distance((0, (3, 3)), (1, 1)) <= 0

    @settings(max_examples=200, deadline=None)
    @given(
        vertex=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
        tile=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    def test_depth_is_positive_exactly_inside_the_tile(self, vertex, tile):
        b = offset_grid_blocking(2, 64)  # side 8, copy 1 offset by 4
        for copy in (0, 1):
            bid = (copy, tile)
            depth = b.interior_distance(bid, vertex)
            assert (depth > 0) == (vertex in b.block(bid))
            if bid in b.blocks_for(vertex):
                assert depth == b.copies[copy].tessellation.boundary_distance(vertex)


class TestOffset1d:
    def test_every_vertex_in_two_blocks(self):
        b = offset_1d_blocking(8)
        for x in range(-20, 20):
            assert len(b.blocks_for((x,))) == 2

    def test_blowup_is_2(self):
        assert offset_1d_blocking(8).storage_blowup() == 2.0

    def test_needs_b_at_least_2(self):
        with pytest.raises(BlockingError):
            offset_1d_blocking(1)

    def test_some_block_centers_vertex(self):
        """The s=2 point: every vertex is at least B/4 from the
        boundary of one of its two blocks."""
        b = offset_1d_blocking(8)
        for x in range(-16, 16):
            best = max(
                b.interior_distance(bid, (x,)) for bid in b.blocks_for((x,))
            )
            assert best >= 8 // 4


class TestOffsetGrid:
    def test_two_copies_cover_everything(self):
        b = offset_grid_blocking(2, 64)
        for v in [(0, 0), (3, -5), (100, 17)]:
            assert len(b.blocks_for(v)) == 2

    def test_one_copy_deep_in_some_axis_combination(self):
        """Per-axis, one of the two copies always keeps the vertex at
        least side/4 from that axis' tile faces. (The full Lemma 22
        guarantee additionally leans on the retained old block at
        corner exits — see FarthestFaultPolicy's tests.)"""
        b = offset_grid_blocking(2, 64)  # side 8, offsets 0 and 4
        for x in range(-8, 8):
            slack0 = min(x % 8, 7 - x % 8)
            slack1 = min((x - 4) % 8, 7 - (x - 4) % 8)
            assert max(slack0, slack1) + 1 >= 2

    def test_copies_parameter(self):
        b = offset_grid_blocking(1, 9, copies=3)
        assert b.storage_blowup() == 3.0
        assert len(b.blocks_for((4,))) == 3

    def test_side_too_small_for_copies(self):
        with pytest.raises(BlockingError):
            offset_grid_blocking(2, 4, copies=3)  # side 2 < 3

    def test_invalid_copies(self):
        with pytest.raises(BlockingError):
            offset_grid_blocking(2, 64, copies=0)


class TestShearedGrid:
    def test_s_is_1(self):
        assert sheared_grid_blocking(2, 64).storage_blowup() == 1.0

    def test_every_vertex_in_exactly_one_block(self):
        b = sheared_grid_blocking(2, 64)
        for v in [(0, 0), (7, 13), (-3, 9)]:
            assert len(b.blocks_for(v)) == 1
            assert v in b.block(b.blocks_for(v)[0])

    def test_block_fits_b(self):
        for B in (16, 64, 100):
            b = sheared_grid_blocking(2, B)
            bid = b.blocks_for((0, 0))[0]
            assert len(b.block(bid)) <= B


class TestUniformGrid:
    def test_tiles_partition(self):
        b = uniform_grid_blocking(3, 64)  # side 4
        bid = b.blocks_for((1, 2, 3))[0]
        block = b.block(bid)
        assert len(block) == 64
        for cell in block:
            assert b.blocks_for(cell) == (bid,)


class TestGridNeighborhood:
    def test_radius_maximal_for_b(self):
        b = grid_lemma13_blocking(2, 64)
        assert grid_ball_volume_exact(2, b.radius) <= 64
        assert grid_ball_volume_exact(2, b.radius + 1) > 64

    def test_block_is_ball_of_center(self):
        b = grid_lemma13_blocking(2, 64)
        block = b.block((0, 0))
        assert all(abs(x) + abs(y) <= b.radius for x, y in block.vertices)
        assert len(block) == grid_ball_volume_exact(2, b.radius)

    def test_own_block_listed_first(self):
        b = grid_lemma13_blocking(2, 64)
        assert b.blocks_for((3, 4))[0] == (3, 4)

    def test_blowup_is_ball_volume(self):
        b = grid_lemma13_blocking(2, 64)
        assert b.storage_blowup() == grid_ball_volume_exact(2, b.radius)

    def test_interior_distance(self):
        b = grid_lemma13_blocking(2, 64)  # radius 5
        assert b.interior_distance((0, 0), (0, 0)) == b.radius + 1
        assert b.interior_distance((0, 0), (b.radius, 0)) == 1

    def test_1d_matches_interval(self):
        b = GridNeighborhoodBlocking(1, 9)
        assert b.radius == 4  # 2r+1 <= 9
        assert len(b.block((0,))) == 9


@pytest.mark.parametrize("dim, block_size", [(1, 9), (2, 64), (3, 216), (4, 100)])
@pytest.mark.parametrize("kind", ["l1", "chebyshev"])
def test_neighborhood_ids_and_cells_in_offset_order(kind, dim, block_size):
    """A center's ids and a block's cells are the vertex plus each
    offset, in the offsets' order; the frozenset is built in that order
    too, so it iterates as a set built cell by cell does."""
    from repro.blockings import DiagonalNeighborhoodBlocking

    cls = GridNeighborhoodBlocking if kind == "l1" else DiagonalNeighborhoodBlocking
    blocking = cls(dim, block_size)
    for vertex in [(0,) * dim, tuple(range(-2, dim - 2)), (7,) * dim]:
        shifted = [
            tuple(v + o for v, o in zip(vertex, offset))
            for offset in blocking._offsets
        ]
        assert blocking.blocks_for(vertex) == tuple(shifted)
        cells = blocking.block(vertex).vertices
        assert list(cells) == list(frozenset(shifted))


#: Malformed block ids, each with the blocking that is asked for it:
#: unhashable ones fail at the memo lookup, hashable ones that are no
#: lattice point of the grid fail before anything is built.
MALFORMED_IDS = {
    "explicit-unhashable": (
        lambda: ExplicitBlocking(3, {"x": {1, 2, 3}}), "block", ["x"]
    ),
    "tile-unhashable": (lambda: contiguous_1d_blocking(4), "block", [0]),
    "tile-members-unhashable": (lambda: contiguous_1d_blocking(4), "members", [0]),
    "union-inner-unhashable": (lambda: offset_1d_blocking(4), "block", (0, ["x"])),
    "tile-int": (lambda: contiguous_1d_blocking(4), "block", 0),
    "ball-str": (lambda: grid_lemma13_blocking(2, 13), "block", "ab"),
    "ball-short": (lambda: grid_lemma13_blocking(2, 13), "block", (0,)),
    "chebyshev-short": (lambda: diagonal_lemma13_blocking(2, 9), "block", (0,)),
    "sheared-short": (lambda: sheared_grid_blocking(2, 16), "block", (0,)),
    "uniform-short": (lambda: uniform_grid_blocking(2, 16), "block", (0,)),
    "uniform-long": (lambda: uniform_grid_blocking(2, 16), "block", (0, 0, 7)),
    "uniform-float": (lambda: uniform_grid_blocking(2, 16), "block", (0.5, 0)),
    "uniform-bool": (lambda: uniform_grid_blocking(2, 16), "block", (True, 0)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_IDS))
def test_malformed_block_id_is_a_blocking_error(case):
    """A block id that no ``blocks_for`` could list raises
    :class:`BlockingError`, and no block is built or kept for it."""
    make, method, block_id = MALFORMED_IDS[case]
    blocking = make()
    with pytest.raises(BlockingError, match="block id"):
        getattr(blocking, method)(block_id)
    if isinstance(blocking, UnionBlocking):
        assert blocking._blocks == {}
        assert [copy._cache for copy in blocking.copies] == [{}, {}]
    elif isinstance(blocking, ImplicitBlocking):
        assert blocking._cache == {}


class TestDiagonalNeighborhood:
    def test_radius_maximal_for_b(self):
        from repro.blockings import DiagonalNeighborhoodBlocking

        b = DiagonalNeighborhoodBlocking(2, 64)
        assert (2 * b.radius + 1) ** 2 <= 64
        assert (2 * (b.radius + 1) + 1) ** 2 > 64

    def test_block_is_chebyshev_ball(self):
        from repro.blockings import diagonal_lemma13_blocking

        b = diagonal_lemma13_blocking(2, 64)
        block = b.block((0, 0))
        assert all(max(abs(x), abs(y)) <= b.radius for x, y in block.vertices)
        assert len(block) == (2 * b.radius + 1) ** 2

    def test_guarantee_against_diagonal_corridor(self):
        from repro import FirstBlockPolicy, ModelParams, simulate_adversary
        from repro.adversaries import DiagonalCorridorAdversary
        from repro.blockings import diagonal_lemma13_blocking
        from repro.graphs import InfiniteDiagonalGridGraph

        B = 64
        graph = InfiniteDiagonalGridGraph(2)
        blocking = diagonal_lemma13_blocking(2, B)
        trace = simulate_adversary(
            graph,
            blocking,
            FirstBlockPolicy(),
            ModelParams(B, B),
            DiagonalCorridorAdversary(2, B, B),
            2_000,
        )
        assert trace.min_gap >= blocking.radius

    def test_interior_distance(self):
        from repro.blockings import diagonal_lemma13_blocking

        b = diagonal_lemma13_blocking(2, 25)  # radius 2
        assert b.interior_distance((0, 0), (0, 0)) == 3
        assert b.interior_distance((0, 0), (2, 2)) == 1


class TestClipBlocking:
    def test_clipped_contents_inside_graph(self):
        from repro.blockings import clip_blocking, uniform_grid_blocking
        from repro.graphs import GridGraph

        grid = GridGraph((10, 10))  # does not divide the 8-tile evenly
        clipped = clip_blocking(uniform_grid_blocking(2, 64), grid)
        for bid in clipped.block_ids():
            for v in clipped.block(bid):
                assert grid.has_vertex(v)

    def test_block_ids_preserved(self):
        from repro.blockings import clip_blocking, uniform_grid_blocking
        from repro.graphs import GridGraph

        grid = GridGraph((16, 16))
        original = uniform_grid_blocking(2, 64)
        clipped = clip_blocking(original, grid)
        assert clipped.blocks_for((3, 3)) == original.blocks_for((3, 3))

    def test_honest_blowup_on_boundary(self):
        """The implicit s=2 blocking declares s=2; clipping a small box
        reveals the true slot cost of boundary tiles."""
        from repro.blockings import clip_blocking, offset_grid_blocking
        from repro.graphs import GridGraph

        grid = GridGraph((12, 12))
        clipped = clip_blocking(offset_grid_blocking(2, 64), grid)
        # Per-vertex replication is exactly 2; slot-based blow-up is
        # larger because boundary tiles are mostly empty.
        assert clipped.max_copies() == 2
        assert clipped.storage_blowup() > 2.0

    def test_search_equivalence(self):
        """Clipping never changes fault behaviour on in-graph walks."""
        from repro import FirstBlockPolicy, ModelParams, Searcher
        from repro.blockings import clip_blocking, uniform_grid_blocking
        from repro.graphs import GridGraph
        from repro.workloads import boustrophedon_scan

        grid = GridGraph((16, 16))
        walk = boustrophedon_scan((16, 16))
        traces = []
        for blocking in (
            uniform_grid_blocking(2, 64),
            clip_blocking(uniform_grid_blocking(2, 64), grid),
        ):
            searcher = Searcher(
                grid, blocking, FirstBlockPolicy(), ModelParams(64, 128),
                validate_moves=False,
            )
            traces.append(searcher.run_path(walk))
        assert traces[0].faults == traces[1].faults
        assert traces[0].block_reads == traces[1].block_reads

    def test_uncovered_vertex_rejected(self):
        import pytest

        from repro import BlockingError, ExplicitBlocking
        from repro.blockings import clip_blocking
        from repro.graphs import path_graph

        partial = ExplicitBlocking(4, {"a": {0, 1, 2, 3}})
        with pytest.raises(BlockingError):
            clip_blocking(partial, path_graph(10))
