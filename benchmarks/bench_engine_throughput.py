"""Engine micro-benchmarks: simulation throughput.

Not a paper artifact — these track the simulator's own speed so
regressions in the hot path (coverage checks, fault servicing, LRU
bookkeeping) are visible. Timed over multiple rounds, unlike the
one-shot Table 1 games.
"""

from repro import FirstBlockPolicy, ModelParams, Searcher
from repro.adversaries import (
    DiagonalCorridorAdversary,
    GridCorridorAdversary,
    RandomWalkAdversary,
    RootLeafAdversary,
    UniformCornerAdversary,
)
from repro.blockings import (
    FarthestFaultPolicy,
    MostInteriorPolicy,
    offset_grid_blocking,
    overlapped_tree_blocking,
    uniform_grid_blocking,
)
from repro.graphs import CompleteTree, InfiniteDiagonalGridGraph, InfiniteGridGraph
from repro.obs import Instrumentation, JsonlSink
from repro.obs.replay import replay_file, verify_run


def test_throughput_s1_random_walk(benchmark):
    graph = InfiniteGridGraph(2)
    searcher = Searcher(
        graph,
        uniform_grid_blocking(2, 64),
        FirstBlockPolicy(),
        ModelParams(64, 256),
        validate_moves=False,
    )
    adversary = RandomWalkAdversary(graph, (0, 0), seed=1)
    trace = benchmark(searcher.run_adversary, adversary, 5_000)
    assert trace.steps == 5_000


def test_throughput_s1_random_walk_validated(benchmark):
    """The same walk with ``Searcher``'s default move validation: each
    step also pays one ``has_edge`` check, the path perfbench's ``walk``
    workload runs."""
    graph = InfiniteGridGraph(2)
    searcher = Searcher(
        graph, uniform_grid_blocking(2, 64), FirstBlockPolicy(), ModelParams(64, 256)
    )
    adversary = RandomWalkAdversary(graph, (0, 0), seed=1)
    trace = benchmark(searcher.run_adversary, adversary, 5_000)
    assert trace.steps == 5_000


def test_throughput_s1_random_walk_traced(benchmark, tmp_path):
    """The same walk under a JSONL-writing hook: its time over the plain
    walk's is the instrumented/uninstrumented ratio. Each round rewrites
    the trace through its own sink and searcher (a closed sink takes no
    more events); the blocking and the adversary are shared."""
    graph = InfiniteGridGraph(2)
    path = tmp_path / "walk.jsonl"
    blocking = uniform_grid_blocking(2, 64)
    adversary = RandomWalkAdversary(graph, (0, 0), seed=1)

    def traced_walk():
        instrumentation = Instrumentation(sink=JsonlSink(path))
        searcher = Searcher(
            graph,
            blocking,
            FirstBlockPolicy(),
            ModelParams(64, 256),
            validate_moves=False,
            instrumentation=instrumentation,
        )
        try:
            return searcher.run_adversary(adversary, 5_000)
        finally:
            instrumentation.close()

    trace = benchmark(traced_walk)
    assert trace.steps == 5_000
    (run,) = replay_file(path)
    assert verify_run(run) == []
    assert run.trace.faults == trace.faults


def test_throughput_s2_farthest_policy(benchmark):
    """The expensive configuration: coverage-aware policy BFS per fault."""
    graph = InfiniteGridGraph(2)
    searcher = Searcher(
        graph,
        offset_grid_blocking(2, 64),
        FarthestFaultPolicy(graph),
        ModelParams(64, 256),
        validate_moves=False,
    )
    adversary = RandomWalkAdversary(graph, (0, 0), seed=1)
    trace = benchmark(searcher.run_adversary, adversary, 5_000)
    assert trace.steps == 5_000


def test_throughput_large_block_faults(benchmark):
    """The fault path the B=64 walks above barely use: the s=1 game of
    the redundancy-gap cell (5-D grid, B=1024, M=3B, corner adversary),
    which faults on most steps. One Searcher serves every round, so
    tiles materialized in the first round are reused after it."""
    graph = InfiniteGridGraph(5)
    searcher = Searcher(
        graph,
        uniform_grid_blocking(5, 1024),
        FirstBlockPolicy(),
        ModelParams(1024, 3072),
        validate_moves=False,
    )
    adversary = UniformCornerAdversary(side=4, dim=5)
    trace = benchmark(searcher.run_adversary, adversary, 2_000)
    assert trace.steps == 2_000
    assert trace.faults == 1_836


def test_throughput_s2_corridor_5d(benchmark):
    """The s=2 game of the redundancy-gap cell (5-D grid, B=1024,
    M=2B, corridor adversary): a candidate-ranking BFS per fault and a
    corridor scan per fault. Each round builds a fresh blocking, as
    each sweep pass does, so every round pays for the tiles it builds."""
    graph = InfiniteGridGraph(5)

    def game():
        searcher = Searcher(
            graph,
            offset_grid_blocking(5, 1024),
            FarthestFaultPolicy(graph),
            ModelParams(1024, 2048),
            validate_moves=False,
        )
        return searcher.run_adversary(GridCorridorAdversary(5, 1024, 2048), 2_000)

    trace = benchmark(game)
    assert trace.steps == 2_000
    assert trace.faults == 502


def test_throughput_tree_overlapped(benchmark):
    """The s=2 game of the tree cell (binary tree of height 300,
    B=1023, M=2B, Lemma 17 blocking, Theorem 7 root-leaf adversary):
    stratum blocks of up to 1,023 deep heap indices built as the walk
    reaches them, and a depth and an ancestor per candidate at every
    fault. A fresh blocking each round, as each sweep pass builds."""
    tree = CompleteTree(2, 300)

    def game():
        searcher = Searcher(
            tree,
            overlapped_tree_blocking(tree, 1023),
            MostInteriorPolicy(),
            ModelParams(1023, 2046),
            validate_moves=False,
        )
        return searcher.run_adversary(RootLeafAdversary(tree), 2_000)

    trace = benchmark(game)
    assert trace.steps == 2_000
    assert trace.faults == 391


def test_throughput_diagonal_corridor(benchmark):
    """The diagonal cell (2-D diagonal grid, offset s=2 tiles, B=64,
    M=2B, Lemma 25 corridor adversary): a king-move BFS per candidate
    per fault. A fresh blocking each round, as each sweep pass builds."""
    graph = InfiniteDiagonalGridGraph(2)

    def game():
        searcher = Searcher(
            graph,
            offset_grid_blocking(2, 64),
            FarthestFaultPolicy(graph),
            ModelParams(64, 128),
            validate_moves=False,
        )
        return searcher.run_adversary(DiagonalCorridorAdversary(2, 64, 128), 2_000)

    trace = benchmark(game)
    assert trace.steps == 2_000
    assert trace.faults == 252


def test_throughput_move_validation_cost(benchmark):
    """Validation on: measures the overhead of checking each edge."""
    graph = InfiniteGridGraph(2)
    searcher = Searcher(
        graph,
        uniform_grid_blocking(2, 64),
        FirstBlockPolicy(),
        ModelParams(64, 256),
        validate_moves=True,
    )
    adversary = RandomWalkAdversary(graph, (0, 0), seed=1)
    trace = benchmark(searcher.run_adversary, adversary, 5_000)
    assert trace.steps == 5_000
