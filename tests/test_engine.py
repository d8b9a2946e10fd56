"""Search-engine semantics: fault accounting, laziness, move checking."""

import pytest

from repro import (
    AdversaryError,
    ExplicitBlocking,
    FirstBlockPolicy,
    GraphError,
    ModelParams,
    PagingError,
    Searcher,
    simulate_adversary,
    simulate_path,
)
from repro.core.engine import Adversary
from repro.core.policies import BlockChoicePolicy
from repro.graphs import AdjacencyGraph, path_graph
from repro.paging.eviction import EvictAllPolicy


def path_blocking(n=20, B=5) -> ExplicitBlocking:
    return ExplicitBlocking(
        B, {i: set(range(B * i, B * (i + 1))) for i in range(n // B)}
    )


class TestRunPath:
    def test_fault_count_on_linear_scan(self, small_params):
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        trace = simulate_path(
            graph, blocking, FirstBlockPolicy(), ModelParams(5, 10), range(20)
        )
        assert trace.faults == 4
        assert trace.steps == 19
        assert trace.blocks_read == 4

    def test_no_fault_when_covered(self):
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        # Walk inside one block only: a single start-up fault.
        trace = simulate_path(
            graph, blocking, FirstBlockPolicy(), ModelParams(5, 10), [0, 1, 2, 1, 0]
        )
        assert trace.faults == 1
        assert trace.fault_gaps == [0]

    def test_lazy_one_read_per_fault(self):
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        trace = simulate_path(
            graph, blocking, FirstBlockPolicy(), ModelParams(5, 10), range(20)
        )
        assert trace.blocks_read == trace.faults

    def test_gap_structure(self):
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        trace = simulate_path(
            graph, blocking, FirstBlockPolicy(), ModelParams(5, 10), range(20)
        )
        # First fault at start (gap 0), then every 5 steps.
        assert trace.fault_gaps == [0, 5, 5, 5]
        assert trace.min_gap == 5

    def test_illegal_move_detected(self):
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        with pytest.raises(AdversaryError):
            simulate_path(
                graph, blocking, FirstBlockPolicy(), ModelParams(5, 10), [0, 7]
            )

    def test_self_loop_move_rejected(self):
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        with pytest.raises(AdversaryError):
            simulate_path(
                graph, blocking, FirstBlockPolicy(), ModelParams(5, 10), [0, 0]
            )

    def test_none_vertex_does_not_restart_the_path(self):
        # AdjacencyGraph takes any hashable vertex, None included: only
        # the path's first vertex starts it, so a None later on is one
        # more step whose move is checked like any other.
        graph = AdjacencyGraph.from_edges([(1, None), (None, 2), (2, 3)])
        blocking = ExplicitBlocking(1, {i: {v} for i, v in enumerate([1, None, 2, 3])})
        trace = simulate_path(
            graph, blocking, FirstBlockPolicy(), ModelParams(1, 4), [1, None, 2, 3]
        )
        assert trace.steps == 3
        assert trace.fault_gaps == [0, 1, 1, 1]
        with pytest.raises(AdversaryError, match=r"None -> 3 is not an edge"):
            simulate_path(
                graph, blocking, FirstBlockPolicy(), ModelParams(1, 4), [1, None, 3]
            )

    def test_validation_can_be_disabled(self):
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        trace = simulate_path(
            graph,
            blocking,
            FirstBlockPolicy(),
            ModelParams(5, 10),
            [0, 7],
            validate_moves=False,
        )
        assert trace.steps == 1

    def test_path_start_must_be_in_graph(self):
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        with pytest.raises(GraphError, match=r"start vertex 99 is not in the graph"):
            simulate_path(
                graph, blocking, FirstBlockPolicy(), ModelParams(5, 10), [99, 98]
            )

    def test_path_start_checked_even_without_move_validation(self):
        # Move validation is optional; the start-vertex check is not —
        # an unknown start would otherwise surface as an opaque fault
        # deep in the paging layer.
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        with pytest.raises(GraphError, match=r"start vertex 'x'"):
            simulate_path(
                graph,
                blocking,
                FirstBlockPolicy(),
                ModelParams(5, 10),
                ["x"],
                validate_moves=False,
            )

    def test_empty_path(self):
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        trace = simulate_path(
            graph, blocking, FirstBlockPolicy(), ModelParams(5, 10), []
        )
        assert trace.steps == 0
        assert trace.faults == 0
        assert trace.speedup == float("inf")

    def test_block_too_big_for_memory_rejected(self):
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        with pytest.raises(PagingError):
            Searcher(graph, blocking, FirstBlockPolicy(), ModelParams(4, 4))


class _BadPolicy(BlockChoicePolicy):
    """Returns a block that does not contain the faulting vertex."""

    def choose(self, vertex, blocking, memory):
        for bid in blocking.block_ids():
            if vertex not in blocking.block(bid):
                return bid
        raise AssertionError


class TestPolicyContract:
    def test_policy_must_cover_fault(self):
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        with pytest.raises(PagingError):
            simulate_path(
                graph, blocking, _BadPolicy(), ModelParams(5, 10), range(20)
            )


class _PingPong(Adversary):
    """Bounces between vertices 0 and 1 forever."""

    def start(self, view):
        return 0

    def step(self, pathfront, view):
        return 1 if pathfront == 0 else 0


class TestRunAdversary:
    def test_adversary_game_counts_steps(self):
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        trace = simulate_adversary(
            graph, blocking, FirstBlockPolicy(), ModelParams(5, 10), _PingPong(), 10
        )
        assert trace.steps == 10
        assert trace.faults == 1  # both vertices in one block

    def test_adversary_start_must_exist(self):
        graph = path_graph(20)
        blocking = path_blocking(20, 5)

        class BadStart(_PingPong):
            def start(self, view):
                return 999

        with pytest.raises(AdversaryError):
            simulate_adversary(
                graph, blocking, FirstBlockPolicy(), ModelParams(5, 10), BadStart(), 5
            )

    def test_run_is_repeatable(self):
        # The Searcher resets state between runs: same trace twice.
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        searcher = Searcher(graph, blocking, FirstBlockPolicy(), ModelParams(5, 10))
        t1 = searcher.run_adversary(_PingPong(), 10)
        t2 = searcher.run_adversary(_PingPong(), 10)
        assert t1.faults == t2.faults
        assert t1.block_reads == t2.block_reads

    def test_evict_all_still_services(self):
        graph = path_graph(20)
        blocking = path_blocking(20, 5)
        trace = simulate_path(
            graph,
            blocking,
            FirstBlockPolicy(),
            ModelParams(5, 5),
            range(20),
            eviction=EvictAllPolicy(),
        )
        assert trace.faults == 4
