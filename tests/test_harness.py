"""Experiment harness and reports."""

import math

import pytest

from repro import FirstBlockPolicy, ModelParams, PagingError
from repro.adversaries import GridCorridorAdversary
from repro.blockings import contiguous_1d_blocking
from repro.experiments import (
    CheckResult,
    ExperimentResult,
    failures,
    format_checks,
    format_games,
    run_game,
)
from repro.graphs import InfiniteGridGraph


def make_result(**kwargs) -> ExperimentResult:
    defaults = dict(
        experiment="X",
        description="test",
        sigma=5.0,
        steady_sigma=5.0,
        min_gap=4.0,
        faults=10,
        steps=50,
    )
    defaults.update(kwargs)
    return ExperimentResult(**defaults)


class TestExperimentResult:
    def test_holds_when_bracketed(self):
        r = make_result(lower_bound=4.0, upper_bound=6.0)
        assert r.lower_holds and r.upper_holds and r.holds

    def test_lower_violation(self):
        r = make_result(steady_sigma=3.0, lower_bound=4.0)
        assert r.lower_holds is False
        assert not r.holds

    def test_upper_violation(self):
        r = make_result(sigma=7.0, upper_bound=6.0)
        assert r.upper_holds is False
        assert not r.holds

    def test_missing_bounds_are_none(self):
        r = make_result()
        assert r.lower_holds is None
        assert r.upper_holds is None
        assert r.holds

    def test_lower_uses_steady_sigma(self):
        """The compulsory start-up fault must not fail a tight bound."""
        r = make_result(sigma=3.9, steady_sigma=4.0, lower_bound=4.0)
        assert r.lower_holds


class TestRunGame:
    def test_produces_populated_result(self):
        graph = InfiniteGridGraph(1)
        result = run_game(
            "T",
            "demo",
            graph,
            contiguous_1d_blocking(8),
            FirstBlockPolicy(),
            ModelParams(8, 16),
            GridCorridorAdversary(1, 8, 16),
            400,
            lower_bound=8.0,
            upper_bound=8.0,
        )
        assert result.steps == 400
        assert result.faults > 0
        assert result.storage_blowup == 1.0
        assert result.holds
        assert result.trace is not None


class _ExplodingAdversary:
    """Raises a non-ReproError mid-game (a genuine bug, not disk loss)."""

    def reset(self):
        pass

    def start(self, view):
        return (0,)

    def step(self, pathfront, view):
        raise RuntimeError("adversary bug")


class TestDegradationPath:
    """RL006's semantic contract: the harness degrades on typed
    ReproErrors only — programming errors must propagate, never be
    swallowed into a quietly-empty cell."""

    def _run(self, **kwargs):
        return run_game(
            "T",
            "demo",
            InfiniteGridGraph(1),
            contiguous_1d_blocking(8),
            FirstBlockPolicy(),
            ModelParams(8, 16),
            _ExplodingAdversary(),
            100,
            **kwargs,
        )

    def test_non_repro_errors_propagate(self):
        with pytest.raises(RuntimeError, match="adversary bug"):
            self._run()

    def test_repro_error_degrades_with_error_field(self):
        from repro.errors import BudgetExceededError

        class Budgeted(_ExplodingAdversary):
            def step(self, pathfront, view):
                raise BudgetExceededError("over budget")

        result = run_game(
            "T",
            "demo",
            InfiniteGridGraph(1),
            contiguous_1d_blocking(8),
            FirstBlockPolicy(),
            ModelParams(8, 16),
            Budgeted(),
            100,
        )
        assert result.error is not None
        assert "BudgetExceededError" in result.error
        assert math.isnan(result.sigma)  # no partial trace attached

    def test_a_configuration_the_searcher_rejects_degrades(self):
        """The :class:`Searcher` is built inside the guard, so a block
        larger than memory is an errored cell, not a dead sweep."""
        result = run_game(
            "T",
            "demo",
            InfiniteGridGraph(1),
            contiguous_1d_blocking(16),
            FirstBlockPolicy(),
            ModelParams(8, 8),
            GridCorridorAdversary(1, 8, 8),
            100,
        )
        assert result.error == "PagingError: blocking block size 16 exceeds M=8"
        assert math.isnan(result.sigma) and result.trace is None
        with pytest.raises(PagingError):
            run_game(
                "T",
                "demo",
                InfiniteGridGraph(1),
                contiguous_1d_blocking(16),
                FirstBlockPolicy(),
                ModelParams(8, 8),
                GridCorridorAdversary(1, 8, 8),
                100,
                catch_errors=False,
            )


class TestCheckResult:
    def test_holds_within_tolerance(self):
        assert CheckResult("E", "x", expected=5.0, measured=6.0, tolerance=1.0).holds

    def test_fails_outside_tolerance(self):
        assert not CheckResult("E", "x", expected=5.0, measured=7.0, tolerance=1.0).holds

    def test_error(self):
        assert CheckResult("E", "x", expected=5.0, measured=7.0).error == 2.0


class TestReports:
    def test_format_games_flags_failures(self):
        good = make_result(lower_bound=1.0)
        bad = make_result(sigma=9.0, upper_bound=6.0, description="broken row")
        text = format_games([good, bad])
        assert "yes" in text
        assert "NO" in text
        assert "broken row" in text

    def test_format_games_handles_missing_bounds(self):
        text = format_games([make_result()])
        assert "-" in text

    def test_format_checks(self):
        text = format_checks(
            [CheckResult("E", "radius", expected=2.0, measured=2.0)]
        )
        assert "radius" in text
        assert "yes" in text

    def test_failures_lists_descriptions(self):
        bad_game = make_result(sigma=9.0, upper_bound=6.0, description="game")
        bad_check = CheckResult("E", "check", expected=1.0, measured=3.0)
        assert failures([bad_game], [bad_check]) == ["game", "check"]

    def test_failures_empty_when_all_hold(self):
        assert failures([make_result()], []) == []


class TestRepeatGame:
    def test_statistics(self):
        from repro import ModelParams, Searcher, FirstBlockPolicy
        from repro.adversaries import RandomWalkAdversary
        from repro.blockings import uniform_grid_blocking
        from repro.experiments import repeat_game
        from repro.graphs import InfiniteGridGraph

        graph = InfiniteGridGraph(2)
        searcher = Searcher(
            graph,
            uniform_grid_blocking(2, 16),
            FirstBlockPolicy(),
            ModelParams(16, 64),
            validate_moves=False,
        )

        def run(seed):
            return searcher.run_adversary(
                RandomWalkAdversary(graph, (0, 0), seed=seed), 500
            )

        stats = repeat_game(run, seeds=range(5))
        assert stats.count == 5
        assert stats.minimum <= stats.mean <= stats.maximum
        assert stats.stdev >= 0
        assert stats.spread >= 1.0
        assert stats.min_gap >= 0

    def test_empty_seeds_rejected(self):
        import pytest

        from repro.experiments import repeat_game

        with pytest.raises(ValueError):
            repeat_game(lambda seed: None, seeds=[])

    def test_single_seed(self):
        from repro.core.stats import SearchTrace
        from repro.experiments import repeat_game

        stats = repeat_game(
            lambda seed: SearchTrace(steps=10, faults=2, fault_gaps=[0, 5]),
            seeds=[0],
        )
        assert stats.mean == 5.0
        assert stats.stdev == 0.0


class TestOnFaultHook:
    def test_hook_fires_per_fault(self):
        from repro import ExplicitBlocking, FirstBlockPolicy, ModelParams, Searcher
        from repro.graphs import path_graph
        from repro.obs import InstrumentationHook

        events = []

        class FaultRecorder(InstrumentationHook):
            def block_read(self, block, vertex, memory, trace):
                events.append((vertex, block.block_id))

        blocking = ExplicitBlocking(
            5, {i: set(range(5 * i, 5 * i + 5)) for i in range(4)}
        )
        searcher = Searcher(
            path_graph(20),
            blocking,
            FirstBlockPolicy(),
            ModelParams(5, 10),
            instrumentation=FaultRecorder(),
        )
        trace = searcher.run_path(range(20))
        assert len(events) == trace.faults
        assert events[0] == (0, 0)
        assert events[-1] == (15, 3)
