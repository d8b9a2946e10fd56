"""k-radii and their structural lemmas (Lemmas 3-6, Definitions 4-5, 7)."""

import collections
import contextlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.radii as radii_module
import repro.blockings.neighborhood_blocking as neighborhood_blocking
import repro.cache as cache_module
from repro import AnalysisError, BlockingError
from repro.analysis import (
    max_ball_volume,
    max_radius,
    min_ball_volume,
    min_radius,
    radius_extrema,
    uniformity_ratio,
    vertex_radius,
)
from repro.analysis.neighborhoods import compact_neighborhood
from repro.analysis.theory import grid_radius_exact
from repro.blockings import compact_neighborhood_blocking
from repro.experiments.table1 import general_rows
from repro.graphs import (
    AdjacencyGraph,
    CompleteTree,
    GridGraph,
    lollipop_graph,
    path_graph,
    star_graph,
    torus_graph,
)


class TestVertexRadius:
    def test_path_interior(self):
        assert vertex_radius(path_graph(20), 10, 5) == 3

    def test_path_end_larger(self):
        # An endpoint sees fewer vertices nearby: larger radius.
        assert vertex_radius(path_graph(20), 0, 5) == 5

    def test_star_center(self):
        assert vertex_radius(star_graph(10), 0, 5) == 1

    def test_torus_matches_infinite_grid(self):
        g = torus_graph((11, 11))
        for k in (4, 12, 24):
            assert vertex_radius(g, (5, 5), k) == grid_radius_exact(2, k)


class TestExtrema:
    def test_path_extrema(self):
        lo, hi = radius_extrema(path_graph(20), 5)
        assert lo == 3      # interior vertices
        assert hi == 5      # endpoints

    def test_extrema_match_individual_functions(self):
        g = lollipop_graph(8, 10)
        k = 4
        assert min_radius(g, k) == radius_extrema(g, k)[0]
        assert max_radius(g, k) == radius_extrema(g, k)[1]

    def test_torus_is_perfectly_uniform(self):
        g = torus_graph((9, 9))
        assert uniformity_ratio(g, 10) == 1.0

    def test_lollipop_is_nonuniform(self):
        # Clique vertices have radius 1 at k=6; path vertices ~3.
        assert uniformity_ratio(lollipop_graph(16, 32), 6) >= 2.0

    def test_sampled_extrema_bound_exact(self):
        g = torus_graph((8, 8))
        lo_exact, hi_exact = radius_extrema(g, 6)
        lo_sample, hi_sample = radius_extrema(g, 6, sample=10, seed=1)
        assert lo_sample >= lo_exact
        assert hi_sample <= hi_exact

    def test_empty_graph(self):
        with pytest.raises(AnalysisError):
            min_radius(AdjacencyGraph(), 3)


class TestLemma3:
    def test_tree_radii_within_factor(self):
        """Lemma 3: complete d-ary trees are uniform — min and max
        radii within about a factor of 2 (allow slack for small k)."""
        tree = CompleteTree(2, 10)
        for k in (7, 31, 127):
            lo, hi = radius_extrema(tree, k)
            assert hi <= 2 * lo + 2


class TestLemma4:
    """Monotonicity of radii in k."""

    @pytest.mark.parametrize("graph_name", ["path", "tree", "lollipop"])
    def test_vertex_radius_monotone(self, graph_name):
        graph = {
            "path": path_graph(30),
            "tree": CompleteTree(3, 4),
            "lollipop": lollipop_graph(6, 12),
        }[graph_name]
        v = next(iter(graph.vertices()))
        radii_seq = [vertex_radius(graph, v, k) for k in range(1, 12)]
        assert radii_seq == sorted(radii_seq)

    def test_extrema_monotone(self):
        g = torus_graph((7, 7))
        lo_prev, hi_prev = 0.0, 0.0
        for k in (2, 5, 9, 14, 20):
            lo, hi = radius_extrema(g, k)
            assert lo >= lo_prev
            assert hi >= hi_prev
            lo_prev, hi_prev = lo, hi


class TestLemma5:
    def test_radius_growth_bounded(self):
        """Lemma 5: r_v(j+k) <= r_v(j) + 2 r^+(k)."""
        g = torus_graph((9, 9))
        r_plus = {k: max_radius(g, k) for k in (3, 6, 9)}
        for v in [(0, 0), (4, 4), (2, 7)]:
            for j in (3, 6, 9):
                for k in (3, 6, 9):
                    lhs = vertex_radius(g, v, j + k)
                    rhs = vertex_radius(g, v, j) + 2 * r_plus[k]
                    assert lhs <= rhs


class TestLemma6:
    def test_max_radius_growth_bounded(self):
        """Lemma 6: r^+(k') <= (2 k'/k + 3) r^+(k) for k <= k'."""
        g = CompleteTree(2, 8)
        pairs = [(3, 9), (3, 30), (9, 30), (5, 50)]
        for k, kp in pairs:
            assert max_radius(g, kp) <= (2 * kp / k + 3) * max_radius(g, k)


class TestBallVolumes:
    def test_min_max_on_grid(self):
        g = GridGraph((9, 9))
        assert min_ball_volume(g, 1) == 3    # corners
        assert max_ball_volume(g, 1) == 5    # interior

    def test_volumes_on_torus_uniform(self):
        g = torus_graph((9, 9))
        assert min_ball_volume(g, 2) == max_ball_volume(g, 2) == 13

    def test_radius_volume_duality(self):
        """k_v(r_v(k) - 1) <= k: the ball strictly inside the k-radius
        cannot exceed k vertices."""
        g = torus_graph((9, 9))
        from repro.analysis import ball_volume

        for k in (5, 10, 20):
            r = int(vertex_radius(g, (4, 4), k))
            assert ball_volume(g, (4, 4), r - 1) <= k


@contextlib.contextmanager
def construction_cache():
    """A fresh global construction cache for one block."""
    old = cache_module._cache
    cache_module._cache = cache_module.ConstructionCache()
    try:
        yield cache_module._cache
    finally:
        cache_module._cache = old


@st.composite
def small_graphs(draw):
    """A graph on 1-9 vertices in a drawn order with drawn edges; either
    tagged with a cache key stating all of that, or hand-built without
    one."""
    n = draw(st.integers(1, 9), label="n")
    order = draw(st.permutations(range(n)), label="vertex order")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True), label="edges")
    graph = AdjacencyGraph(order)
    for u, v in edges:
        graph.add_edge(u, v)
    if draw(st.booleans(), label="tagged"):
        graph.tag_cache_key(("drawn", tuple(order), tuple(edges)))
    return graph


def reference_extrema(graph, k, sample=None, seed=0):
    """``(r^-(k), r^+(k))`` by the per-vertex loop: one BFS per
    (sampled) vertex, nothing cached."""
    vertices = list(graph.vertices())
    if sample is not None and sample < len(vertices):
        vertices = random.Random(seed).sample(vertices, sample)
    values = [compact_neighborhood(graph, v, k).radius for v in vertices]
    return min(values), max(values)


class TestOneNeighborhoodTable:
    """The k-radii and the compact-neighborhood blocks read one cached
    table of neighborhoods, and equal what one BFS per vertex gives,
    on a graph with or without a cache key, exact or sampled, in
    either call order."""

    @settings(max_examples=300, deadline=None)
    @given(graph=small_graphs(), data=st.data())
    def test_radii_and_blocks_equal_the_per_vertex_loop(self, graph, data):
        n = len(graph)
        k = data.draw(st.integers(1, n + 1), label="k")
        sample = data.draw(st.one_of(st.none(), st.integers(1, n + 1)), label="sample")
        seed = data.draw(st.integers(0, 3), label="seed")
        centers = data.draw(
            st.one_of(st.none(), st.lists(st.sampled_from(list(graph.vertices())),
                                          min_size=1, unique=True)),
            label="centers",
        )
        blocks_first = data.draw(st.booleans(), label="blocks first")

        extrema = reference_extrema(graph, k, sample, seed)
        center_list = list(graph.vertices()) if centers is None else centers
        blocks = {
            ("nbhd", c): compact_neighborhood(graph, c, k).vertices for c in center_list
        }
        covering = set().union(*blocks.values()) == set(graph.vertices())

        def check_radii():
            assert radius_extrema(graph, k, sample=sample, seed=seed) == extrema
            assert min_radius(graph, k, sample=sample, seed=seed) == extrema[0]
            assert max_radius(graph, k, sample=sample, seed=seed) == extrema[1]

        def check_blocks():
            if not covering:
                with pytest.raises(BlockingError):
                    compact_neighborhood_blocking(graph, k, centers)
                return
            blocking = compact_neighborhood_blocking(graph, k, centers)
            got = {bid: blocking.block(bid).vertices for bid in blocking.block_ids()}
            assert list(got) == list(blocks)
            assert got == blocks

        checks = [check_radii, check_blocks]
        if blocks_first:
            checks.reverse()
        with construction_cache() as cache:
            for _ in range(2):  # the second round reads what the first cached
                for check in checks:
                    check()
            key = (graph.cache_key(), k)
            cacheable = graph.cache_key() is not None
            assert (("radii.neighborhoods", key) in cache) == cacheable
            assert (("radii.extrema", key) in cache) == (cacheable and sample is None)

    def test_general_cell_computes_each_neighborhood_once(self, monkeypatch):
        """One ``general_rows`` run: the r^-/r^+ at k = B and k = M, the
        Lemma 13 blocks and the Theorem 4 centers' blocks take one BFS
        per (graph, vertex, k) between them."""
        calls = collections.Counter()

        def counting(graph, center, k):
            calls[(graph.cache_key(), center, k)] += 1
            return compact_neighborhood(graph, center, k)

        monkeypatch.setattr(radii_module, "compact_neighborhood", counting)
        monkeypatch.setattr(neighborhood_blocking, "compact_neighborhood", counting)
        with construction_cache():
            general_rows(num_steps=200)
        assert len(calls) == 2 * 512  # k = B and k = M, 512 vertices each
        assert set(calls.values()) == {1}
