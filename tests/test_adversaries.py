"""Adversarial walkers: each realizes its lemma's upper bound."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AdversaryError,
    FirstBlockPolicy,
    MemoryView,
    ModelParams,
    PagingModel,
    simulate_adversary,
)
from repro.adversaries import (
    CornerLoopAdversary,
    CycleAdversary,
    DiagonalCorridorAdversary,
    GreedyUncoveredAdversary,
    GridCorridorAdversary,
    RandomWalkAdversary,
    RootLeafAdversary,
    SpanningTreeCircuitAdversary,
    SteinerTourAdversary,
    UniformCornerAdversary,
)
from repro.adversaries._order import canonical_neighbors
from repro.analysis import theory
from repro.blockings import (
    FarthestFaultPolicy,
    MostInteriorPolicy,
    contiguous_1d_blocking,
    grid_lemma13_blocking,
    lemma13_blocking,
    naive_subtree_blocking,
    offset_grid_blocking,
    overlapped_tree_blocking,
    sheared_grid_blocking,
    uniform_grid_blocking,
)
from repro.core.block import make_block
from repro.core.memory import WeakMemory, make_memory
from repro.core.stats import SearchTrace
from repro.graphs import (
    AdjacencyGraph,
    CompleteTree,
    Graph,
    InfiniteDiagonalGridGraph,
    InfiniteGridGraph,
    complete_graph,
    cycle_graph,
    star_graph,
    torus_graph,
)


class TestGreedy:
    def test_clique_forces_fault_per_step(self):
        """Section 2: K_{M+1} pins sigma <= 1."""
        M = 8
        graph = complete_graph(M + 1)
        blocking, policy = lemma13_blocking(graph, 4)
        trace = simulate_adversary(
            graph,
            blocking,
            policy,
            ModelParams(4, M),
            GreedyUncoveredAdversary(graph, 0),
            500,
        )
        assert trace.speedup <= 1.0 + 1e-9

    def test_star_forces_fault_every_other_step(self):
        """Section 2: the planar M-star pins sigma <= 2."""
        M = 8
        graph = star_graph(4 * M)
        blocking, policy = lemma13_blocking(graph, 4)
        trace = simulate_adversary(
            graph,
            blocking,
            policy,
            ModelParams(4, M),
            GreedyUncoveredAdversary(graph, 0),
            500,
        )
        assert trace.speedup <= 2.0 + 1e-9

    def test_caps_at_r_plus_m(self):
        """Lemma 7: no blocking beats r^+(M) against greedy."""
        from repro.analysis import max_radius

        graph = torus_graph((8, 8))
        M = 16
        blocking, policy = lemma13_blocking(graph, 8)
        trace = simulate_adversary(
            graph,
            blocking,
            policy,
            ModelParams(8, M),
            GreedyUncoveredAdversary(graph, (0, 0)),
            2_000,
        )
        assert trace.speedup <= max_radius(graph, M) + 1e-9

    def test_stalls_gracefully_when_all_covered(self):
        graph = cycle_graph(6)
        blocking, policy = lemma13_blocking(graph, 6)
        # Memory big enough to hold the whole graph.
        trace = simulate_adversary(
            graph,
            blocking,
            policy,
            ModelParams(6, 36),
            GreedyUncoveredAdversary(graph, 0),
            100,
        )
        assert trace.steps == 100  # keeps pacing, no crash


class TestCorridor:
    def test_1d_caps_at_b(self):
        """Lemma 18: sigma <= B on the 1-D grid."""
        B = 32
        graph = InfiniteGridGraph(1)
        trace = simulate_adversary(
            graph,
            contiguous_1d_blocking(B),
            FirstBlockPolicy(),
            ModelParams(B, 2 * B),
            GridCorridorAdversary(1, B, 2 * B),
            5_000,
        )
        assert trace.speedup <= B + 1e-9
        # And Lemma 20's lower bound is met simultaneously.
        assert trace.min_gap >= B

    def test_2d_caps_at_2_sqrt_b(self):
        """Lemma 21: sigma <= 2 sqrt(B) on the 2-D grid."""
        B = 64
        graph = InfiniteGridGraph(2)
        trace = simulate_adversary(
            graph,
            offset_grid_blocking(2, B),
            FarthestFaultPolicy(graph),
            ModelParams(B, 2 * B),
            GridCorridorAdversary(2, B, 2 * B),
            5_000,
        )
        assert trace.speedup <= theory.grid_upper(B, 2) + 1e-9

    def test_3d_caps_at_d_b_third(self):
        """Lemma 24: sigma <= d B^(1/d)."""
        B = 64
        graph = InfiniteGridGraph(3)
        trace = simulate_adversary(
            graph,
            offset_grid_blocking(3, B),
            FarthestFaultPolicy(graph),
            ModelParams(B, 2 * B),
            GridCorridorAdversary(3, B, 2 * B),
            5_000,
        )
        assert trace.speedup <= theory.grid_upper(B, 3) + 1e-9

    def test_diagonal_caps_at_2_b_root(self):
        """Lemma 25: sigma <= 2 B^(1/d) on diagonal grids."""
        B = 64
        graph = InfiniteDiagonalGridGraph(2)
        trace = simulate_adversary(
            graph,
            offset_grid_blocking(2, B),
            FarthestFaultPolicy(graph),
            ModelParams(B, 2 * B),
            DiagonalCorridorAdversary(2, B, 2 * B),
            5_000,
        )
        assert trace.speedup <= theory.diagonal_upper(B, 2) + 1e-9

    def test_moves_are_legal(self):
        """The engine validates every corridor move against the graph."""
        B = 16
        graph = InfiniteGridGraph(2)
        trace = simulate_adversary(
            graph,
            offset_grid_blocking(2, B),
            MostInteriorPolicy(),
            ModelParams(B, 2 * B),
            GridCorridorAdversary(2, B, 2 * B),
            500,
            validate_moves=True,
        )
        assert trace.steps == 500

    def test_base_placement(self):
        adv = GridCorridorAdversary(2, 16, 32, base=(100, 50))
        assert adv.start(None) == (100, 50)

    def test_invalid_width(self):
        with pytest.raises(AdversaryError):
            GridCorridorAdversary(2, 16, 32, width=0)

    @pytest.mark.parametrize("block_size", [0, -4])
    def test_block_size_below_one_rejected(self, block_size):
        """floor(0^(1/d)) is 0: no corridor, not a width-1 one."""
        with pytest.raises(AdversaryError):
            GridCorridorAdversary(2, block_size, 128)


def reference_target(adversary, pathfront, view):
    """The corridor target by the per-cell scan: every cell of every
    column asked with ``view.covers``; within a column the first cell,
    in product order, of strictly smaller L1 distance wins."""
    x0 = pathfront[0]
    for x in range(x0, x0 + adversary._horizon):
        best = None
        best_key = None
        for cross in itertools.product(*adversary._cross_ranges()):
            cell = (x,) + cross
            if not view.covers(cell):
                key = tuple(abs(c - p) for c, p in zip(cross, pathfront[1:]))
                if best_key is None or sum(key) < sum(best_key):
                    best = cell
                    best_key = key
        if best is not None:
            return best
    raise AdversaryError("no uncovered corridor cell")


@st.composite
def corridor_positions(draw):
    """A corridor adversary, a memory holding one to three blocks near
    its corridor, and a pathfront inside or outside the cross-section."""
    dim = draw(st.integers(1, 3), label="dim")
    block_size = {1: 8, 2: 16, 3: 27}[dim]
    kind = draw(st.sampled_from(["tiles", "balls"]), label="blocking")
    if kind == "tiles":
        blocking = offset_grid_blocking(dim, block_size)
    else:
        blocking = grid_lemma13_blocking(dim, block_size)
    memory_size = 3 * block_size
    model = draw(st.sampled_from([PagingModel.WEAK, PagingModel.STRONG]))
    base = draw(st.tuples(*[st.integers(-3, 3)] * dim), label="base")
    cls = draw(st.sampled_from([GridCorridorAdversary, DiagonalCorridorAdversary]))
    adversary = cls(dim, block_size, memory_size, base=base)
    horizon = draw(st.one_of(st.none(), st.integers(1, 4)), label="horizon")
    if horizon is not None:
        adversary._horizon = horizon  # small enough that a scan can fail
    width = adversary.width
    near = st.tuples(
        st.integers(base[0] - 2, base[0] + 6),
        *[st.integers(b - 2, b + width + 1) for b in base[1:]],
    )
    pathfront = draw(near, label="pathfront")
    memory = make_memory(ModelParams(block_size, memory_size, model))
    for cell in draw(st.lists(near, min_size=1, max_size=3), label="blocks at"):
        candidates = blocking.blocks_for(cell)
        bid = candidates[draw(st.integers(0, len(candidates) - 1))]
        block = blocking.block(bid)
        if isinstance(memory, WeakMemory) and memory.is_resident(bid):
            continue
        memory.load(block)
    return adversary, pathfront, MemoryView(memory, SearchTrace())


class TestCorridorTarget:
    """One ``uncovered_among`` call per column finds the very cell the
    per-cell scan finds, tie-break included."""

    @settings(max_examples=300, deadline=None)
    @given(position=corridor_positions())
    def test_matches_the_per_cell_scan(self, position):
        adversary, pathfront, view = position
        try:
            expected = reference_target(adversary, pathfront, view)
        except AdversaryError:
            with pytest.raises(AdversaryError):
                adversary._find_target(pathfront, view)
        else:
            assert adversary._find_target(pathfront, view) == expected

    def test_own_cross_cell_wins_when_uncovered(self):
        adversary = GridCorridorAdversary(3, 27, 81)  # width 3
        memory = make_memory(ModelParams(27, 81))
        view = MemoryView(memory, SearchTrace())
        assert adversary._find_target((5, 2, 1), view) == (5, 2, 1)
        # Outside the cross-section: the nearest cell, first in
        # product order among the nearest.
        assert adversary._find_target((5, 4, 4), view) == (5, 2, 2)
        assert adversary._find_target((5, 1, -1), view) == (5, 1, 0)
        # Own cell covered: four cells tie at distance 1, and the first
        # in product order wins.
        memory.load(make_block("own", {(5, 1, 1)}, 27))
        assert adversary._find_target((5, 1, 1), view) == (5, 0, 1)


@st.composite
def corridor_games(draw):
    """One corridor adversary and a sequence of (pathfront, memory)
    states for it. Pathfronts draw their cross coordinates from a pool
    of at most three positions, so later states reuse the orders the
    earlier ones cached; ``reset()`` may fall between states."""
    dim = draw(st.integers(1, 3), label="dim")
    block_size = {1: 8, 2: 16, 3: 27}[dim]
    kind = draw(st.sampled_from(["tiles", "balls"]), label="blocking")
    if kind == "tiles":
        blocking = offset_grid_blocking(dim, block_size)
    else:
        blocking = grid_lemma13_blocking(dim, block_size)
    memory_size = 3 * block_size
    model = draw(st.sampled_from([PagingModel.WEAK, PagingModel.STRONG]))
    base = draw(st.tuples(*[st.integers(-3, 3)] * dim), label="base")
    cls = draw(st.sampled_from([GridCorridorAdversary, DiagonalCorridorAdversary]))
    adversary = cls(dim, block_size, memory_size, base=base)
    horizon = draw(st.one_of(st.none(), st.integers(1, 4)), label="horizon")
    if horizon is not None:
        adversary._horizon = horizon  # small enough that a scan can fail
    width = adversary.width
    crosses = st.tuples(*[st.integers(b - 2, b + width + 1) for b in base[1:]])
    pool = draw(st.lists(crosses, min_size=1, max_size=3), label="cross pool")
    near = st.tuples(
        st.integers(base[0] - 2, base[0] + 6),
        *[st.integers(b - 2, b + width + 1) for b in base[1:]],
    )
    states = []
    for _ in range(draw(st.integers(2, 6), label="states")):
        x = draw(st.integers(base[0] - 2, base[0] + 6), label="x")
        pathfront = (x,) + draw(st.sampled_from(pool), label="cross")
        memory = make_memory(ModelParams(block_size, memory_size, model))
        for cell in draw(st.lists(near, max_size=3), label="blocks at"):
            candidates = blocking.blocks_for(cell)
            bid = candidates[draw(st.integers(0, len(candidates) - 1))]
            if isinstance(memory, WeakMemory) and memory.is_resident(bid):
                continue
            memory.load(blocking.block(bid))
        reset = draw(st.booleans(), label="reset before")
        states.append((reset, pathfront, MemoryView(memory, SearchTrace())))
    return adversary, states


class TestCorridorOrderReuse:
    """An adversary kept across searches orders each cross position
    once and still finds the per-cell scan's target every time."""

    @settings(max_examples=200, deadline=None)
    @given(game=corridor_games())
    def test_every_search_matches_the_per_cell_scan(self, game):
        adversary, states = game
        for reset, pathfront, view in states:
            if reset:
                adversary.reset()
            try:
                expected = reference_target(adversary, pathfront, view)
            except AdversaryError:
                with pytest.raises(AdversaryError):
                    adversary._find_target(pathfront, view)
            else:
                assert adversary._find_target(pathfront, view) == expected
        searched = {pathfront[1:] for _, pathfront, _ in states}
        assert set(adversary._orders) == searched


class TestRootLeaf:
    def test_collapses_naive_blocking(self):
        """Against the naive s=1 subtree blocking on a tall tree, the
        greedy descent forces a fault every ~log_d B steps down, and
        the Theorem 7 bound caps the measured speed-up."""
        tree = CompleteTree(2, 120)
        B = 15  # 4 levels per block
        blocking = naive_subtree_blocking(tree, B)
        trace = simulate_adversary(
            tree,
            blocking,
            FirstBlockPolicy(),
            ModelParams(B, 2 * B),
            RootLeafAdversary(tree),
            4_000,
        )
        cap = theory.tree_upper_finite(B, 2, 2 * B, 120)
        assert trace.speedup <= cap + 1e-9

    def test_overlapped_blocking_survives(self):
        """Lemma 17's blocking keeps sigma >= lg B/(2 lg d)."""
        tree = CompleteTree(2, 60)
        B = 255  # 8 levels
        blocking = overlapped_tree_blocking(tree, B)
        trace = simulate_adversary(
            tree,
            blocking,
            MostInteriorPolicy(),
            ModelParams(B, 2 * B),
            RootLeafAdversary(tree),
            4_000,
        )
        assert trace.steady_speedup >= theory.tree_lower_s2(B, 2) - 1e-9
        assert trace.min_gap >= 4  # k/2 with k = 8

    def test_moves_are_legal(self):
        tree = CompleteTree(3, 8)
        blocking = naive_subtree_blocking(tree, 13)
        trace = simulate_adversary(
            tree,
            blocking,
            FirstBlockPolicy(),
            ModelParams(13, 26),
            RootLeafAdversary(tree),
            300,
            validate_moves=True,
        )
        assert trace.steps == 300


class TestCornerLoop:
    def test_uniform_blocking_crushed(self):
        """Lemma 31: the corner walker holds any s=1 isothetic
        tessellation blocking to (B^(1/d)+d)/(d+1)."""
        B = 64
        graph = InfiniteGridGraph(2)
        blocking = uniform_grid_blocking(2, B)
        adv = UniformCornerAdversary(side=8, dim=2)
        trace = simulate_adversary(
            graph,
            blocking,
            FirstBlockPolicy(),
            ModelParams(B, 3 * B),
            adv,
            4_000,
        )
        assert trace.speedup <= theory.isothetic_s1_upper(B, 2) + 1e-9

    def test_scanning_variant_also_works(self):
        B = 64
        graph = InfiniteGridGraph(2)
        blocking = uniform_grid_blocking(2, B)
        adv = CornerLoopAdversary(
            blocking.tessellation, memory_size=3 * B, min_uncovered=3
        )
        trace = simulate_adversary(
            graph,
            blocking,
            FirstBlockPolicy(),
            ModelParams(B, 3 * B),
            adv,
            2_000,
        )
        assert trace.speedup <= theory.isothetic_s1_upper(B, 2) + 0.5

    def test_sheared_blocking_resists(self):
        """The sheared s=1 blocking has no 4-corners; the same attack
        yields a strictly better speed-up than on the uniform one."""
        B = 64
        graph = InfiniteGridGraph(2)
        uniform = uniform_grid_blocking(2, B)
        sheared = sheared_grid_blocking(2, B)
        adv_u = UniformCornerAdversary(side=8, dim=2)
        trace_u = simulate_adversary(
            graph, uniform, FirstBlockPolicy(), ModelParams(B, 3 * B), adv_u, 3_000
        )
        adv_s = CornerLoopAdversary(
            sheared.tessellation, memory_size=3 * B, min_uncovered=3
        )
        trace_s = simulate_adversary(
            graph, sheared, FirstBlockPolicy(), ModelParams(B, 3 * B), adv_s, 3_000
        )
        assert trace_s.speedup > trace_u.speedup

    def test_gray_moves_are_legal(self):
        B = 16
        graph = InfiniteGridGraph(2)
        blocking = uniform_grid_blocking(2, B)
        trace = simulate_adversary(
            graph,
            blocking,
            FirstBlockPolicy(),
            ModelParams(B, 3 * B),
            UniformCornerAdversary(side=4, dim=2),
            500,
            validate_moves=True,
        )
        assert trace.steps == 500


class TestTours:
    def test_cycle_adversary_caps_hamiltonian_at_b(self):
        """Section 4.1: following a Hamiltonian cycle caps sigma <= B."""
        graph = cycle_graph(60)
        B = 6
        blocking, policy = lemma13_blocking(graph, B)
        adv = CycleAdversary(list(range(60)))
        trace = simulate_adversary(
            graph, blocking, policy, ModelParams(B, 2 * B), adv, 3_000
        )
        assert trace.speedup <= B + 1e-9

    def test_spanning_tree_circuit_caps(self):
        """Lemma 9: sigma <= 2 rho/(rho-1) B."""
        graph = torus_graph((8, 8))
        B, M = 8, 16
        blocking, policy = lemma13_blocking(graph, B)
        adv = SpanningTreeCircuitAdversary(graph)
        trace = simulate_adversary(
            graph, blocking, policy, ModelParams(B, M), adv, 4_000
        )
        assert trace.speedup <= theory.dfs_circuit_upper(B, M, len(graph)) + 1e-9

    def test_steiner_tour_caps(self):
        """Lemma 12: sigma <= 8 r^+(B)."""
        from repro.analysis import max_radius

        graph = torus_graph((8, 8))
        B = 8
        blocking, policy = lemma13_blocking(graph, B)
        r_plus = max_radius(graph, B)
        adv = SteinerTourAdversary(graph, packing_radius=int(r_plus))
        trace = simulate_adversary(
            graph, blocking, policy, ModelParams(B, 2 * B), adv, 4_000
        )
        assert trace.speedup <= theory.steiner_upper(r_plus) + 1e-9

    def test_steiner_requires_radius_or_skeleton(self):
        with pytest.raises(AdversaryError):
            SteinerTourAdversary(cycle_graph(8))

    def test_cycle_needs_two_vertices(self):
        with pytest.raises(AdversaryError):
            CycleAdversary([0])

    def test_cycle_normalizes_closed_walk(self):
        adv = CycleAdversary([0, 1, 2, 0])
        assert adv.start(None) == 0
        assert adv.step(0, None) == 1


class _FixedNeighbors(Graph):
    """Every vertex has the same neighbor collection, returned as is."""

    def __init__(self, neighbors):
        self._neighbors = neighbors

    def neighbors(self, vertex):
        return self._neighbors

    def has_vertex(self, vertex):
        return True


class TestRandomWalk:
    @pytest.mark.parametrize(
        "graph, start",
        [(InfiniteGridGraph(2), (0, 0)), (CompleteTree(2, 12), 0)],
        ids=["grid2d", "tree"],
    )
    def test_walk_draws_the_reference_vertices(self, graph, start):
        adversary = RandomWalkAdversary(graph, start, seed=11)
        walk = [start]
        for _ in range(2_000):
            walk.append(adversary.step(walk[-1], None))
        rng = random.Random(11)
        reference = [start]
        for _ in range(2_000):
            reference.append(rng.choice(list(graph.neighbors(reference[-1]))))
        assert walk == reference

    def test_canonical_neighbors_passes_lists_and_orders_the_rest(self):
        listed = [(0, 1), (0, -1)]
        assert canonical_neighbors(_FixedNeighbors(listed), (0, 0)) is listed
        graph = AdjacencyGraph.from_edges([(0, 2), (0, 1)])
        assert graph.neighbors(0) == (2, 1)
        ordered = canonical_neighbors(graph, 0)
        assert type(ordered) is list and ordered == [2, 1]
        unordered = {"b", 3, (1, 2), "a"}
        for collection in (unordered, frozenset(unordered)):
            ordered = canonical_neighbors(_FixedNeighbors(collection), 0)
            assert ordered == ["a", "b", (1, 2), 3]  # by repr

    def test_deterministic_given_seed(self):
        graph = torus_graph((6, 6))
        blocking, policy = lemma13_blocking(graph, 8)
        results = []
        for _ in range(2):
            adv = RandomWalkAdversary(graph, (0, 0), seed=5)
            trace = simulate_adversary(
                graph, blocking, policy, ModelParams(8, 16), adv, 500
            )
            results.append(trace.faults)
        assert results[0] == results[1]

    def test_reset_restores_stream(self):
        graph = cycle_graph(10)
        adv = RandomWalkAdversary(graph, 0, seed=1)
        first = [adv.step(0, None) for _ in range(5)]
        adv.reset()
        second = [adv.step(0, None) for _ in range(5)]
        assert first == second

    def test_random_walk_beats_worst_case(self):
        """Benign walks fault far less than adversarial ones."""
        graph = torus_graph((8, 8))
        B = 13
        blocking, policy = lemma13_blocking(graph, B)
        benign = simulate_adversary(
            graph,
            blocking,
            policy,
            ModelParams(B, 2 * B),
            RandomWalkAdversary(graph, (0, 0), seed=2),
            2_000,
        )
        hostile = simulate_adversary(
            graph,
            blocking,
            policy,
            ModelParams(B, 2 * B),
            GreedyUncoveredAdversary(graph, (0, 0)),
            2_000,
        )
        assert benign.speedup > hostile.speedup
