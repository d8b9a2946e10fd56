"""Search-engine semantics: fault accounting, laziness, move checking."""

import dataclasses

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
from repro.adversaries import GridCorridorAdversary, RandomWalkAdversary
from repro.blockings import offset_grid_blocking, uniform_grid_blocking
from repro.blockings.policies import FarthestFaultPolicy
from repro.core.engine import Adversary
from repro.core.model import PagingModel
from repro.core.policies import BlockChoicePolicy
from repro.core.stats import SearchTrace
from repro.errors import BlockReadError, ReproError
from repro.graphs import AdjacencyGraph, InfiniteGridGraph, path_graph
from repro.obs import Instrumentation, RingBufferSink
from repro.paging.eviction import EvictAllPolicy
from repro.reliability import ReliabilityConfig
from repro.reliability.faults import ProbabilisticFaults
from repro.reliability.retry import ExponentialBackoff


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


class _Recorder(Adversary):
    """Plays ``inner`` and keeps every vertex it played, start first."""

    def __init__(self, inner):
        self.inner = inner
        self.played = []

    def reset(self):
        self.inner.reset()
        self.played = []

    def start(self, view):
        self.played.append(self.inner.start(view))
        return self.played[-1]

    def step(self, pathfront, view):
        self.played.append(self.inner.step(pathfront, view))
        return self.played[-1]


GRID2 = InfiniteGridGraph(2)


def _grid_setup(blocking, policy, params, adversary, reliability=None):
    def searcher(instrumentation=None):
        return Searcher(
            GRID2, blocking, policy, params,
            reliability=reliability, instrumentation=instrumentation,
        )

    return searcher, adversary


#: Each setup: a factory of fresh Searchers, and the adversary to play.
PARITY_SETUPS = {
    "offset-s2-farthest": lambda: _grid_setup(
        offset_grid_blocking(2, 16), FarthestFaultPolicy(GRID2),
        ModelParams(16, 32), GridCorridorAdversary(2, 16, 32),
    ),
    "uniform-s1": lambda: _grid_setup(
        uniform_grid_blocking(2, 16), FirstBlockPolicy(),
        ModelParams(16, 48), RandomWalkAdversary(GRID2, (0, 0), seed=5),
    ),
    "strong-model": lambda: _grid_setup(
        uniform_grid_blocking(2, 16), FirstBlockPolicy(),
        ModelParams(16, 48, PagingModel.STRONG), GridCorridorAdversary(2, 16, 48),
    ),
    # Injected read faults: retries, replica fallbacks, and a run that
    # ends in a typed error partway through.
    "faulty-disk": lambda: _grid_setup(
        offset_grid_blocking(2, 16), FarthestFaultPolicy(GRID2),
        ModelParams(16, 32), GridCorridorAdversary(2, 16, 32),
        reliability=ReliabilityConfig(
            injector=ProbabilisticFaults(transient_rate=0.2, loss_rate=0.05, seed=3),
            retry=ExponentialBackoff(max_attempts=3, seed=3),
        ),
    ),
}


def _outcome(run, instrumented=True):
    """A run's trace snapshot, the type of the error that ended it (or
    ``None``), and its event stream; ``run`` takes the hook to use."""
    sink = RingBufferSink(capacity=1 << 16)
    try:
        trace = run(Instrumentation(sink=sink) if instrumented else None)
        error = None
    except ReproError as exc:
        trace, error = exc.trace, type(exc)
    return trace.snapshot(), error, sink.events


class TestOneGameLoop:
    """A fixed path and an adversary are one game: replaying through
    ``run_path`` the vertices an adversary played through
    ``run_adversary`` gives the same trace, the same error and the same
    events, apart from ``run_start.driver``."""

    @pytest.mark.parametrize("setup", sorted(PARITY_SETUPS))
    def test_path_replay_of_an_adversary_game_matches(self, setup):
        searcher, adversary = PARITY_SETUPS[setup]()
        recorder = _Recorder(adversary)

        def play(instr):
            return searcher(instr).run_adversary(recorder, 600)

        played = _outcome(play)
        path = list(recorder.played)

        def replay(instr):
            return searcher(instr).run_path(path)

        replayed = _outcome(replay)
        assert replayed[:2] == played[:2]
        first, *rest = played[2]
        assert first.driver == "adversary" and len(rest) > len(path)
        assert replayed[2] == [dataclasses.replace(first, driver="path"), *rest]
        # Uninstrumented, both drivers make the same trace and error too.
        for run in (play, replay):
            assert _outcome(run, instrumented=False)[:2] == played[:2]

    def test_the_faulty_setup_ends_in_a_typed_error(self):
        """The parity above covers retries, fallbacks and a run ended
        by an error only while this setup still produces them."""
        searcher, adversary = PARITY_SETUPS["faulty-disk"]()
        with pytest.raises(BlockReadError) as excinfo:
            searcher().run_adversary(adversary, 600)
        trace = excinfo.value.trace
        assert trace.steps < 600 and trace.retries > 0 and trace.fallback_reads > 0

    def test_an_empty_path_is_only_the_bracket(self):
        sink = RingBufferSink()
        searcher = Searcher(
            path_graph(20), path_blocking(20, 5), FirstBlockPolicy(),
            ModelParams(5, 10), instrumentation=Instrumentation(sink=sink),
        )
        assert searcher.run_path([]).snapshot() == SearchTrace().snapshot()
        assert [event.kind for event in sink.events] == ["run_start", "run_end"]
