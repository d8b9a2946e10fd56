"""Experiment harness.

Wraps one game against a blocking (an adversary's, or a fixed path's)
into a record carrying the measured speed-up next to the paper's
predicted envelope, so the Table 1 reproduction is a list of these
records and "does the paper hold" is a pair of boolean columns.

The harness is *hardened*: a per-run :class:`~repro.errors.ReproError`
(a lost block that no replica covers, an exhausted step budget, a bad
configuration) is caught into :attr:`ExperimentResult.error` instead of
killing the sweep, so a full Table 1 run over an unreliable disk always
completes and reports its degraded cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.blocking import Blocking
from repro.core.engine import Adversary, Searcher
from repro.core.model import ModelParams
from repro.core.policies import BlockChoicePolicy
from repro.core.stats import SearchTrace
from repro.errors import ReproError
from repro.graphs.base import Graph
from repro.paging.eviction import EvictionPolicy
from repro.reliability import ReliabilityConfig


@dataclass
class ExperimentResult:
    """One measured row of the reproduction.

    ``lower_bound`` is the guarantee of the blocking construction (the
    paper's lower bound on sigma); ``upper_bound`` is the adversary's
    cap (the paper's upper bound). ``sigma`` is measured from the run;
    both bounds should bracket it.

    ``error`` is set when the run died on a :class:`ReproError` (e.g. a
    permanently lost block with no surviving replica, or the watchdog's
    step budget). Such a cell is *degraded*, not failed: its statistics
    come from the partial trace when one was recoverable, and the bound
    columns report "not applicable".
    """

    experiment: str
    description: str
    params: dict = field(default_factory=dict)
    sigma: float = math.nan
    steady_sigma: float = math.nan
    min_gap: float = math.nan
    faults: int = 0
    steps: int = 0
    lower_bound: float | None = None
    upper_bound: float | None = None
    storage_blowup: float | None = None
    trace: SearchTrace | None = field(default=None, repr=False)
    error: str | None = None

    @property
    def lower_holds(self) -> bool | None:
        """Whether the measured sigma respects the construction's
        guarantee (None when no lower bound applies, or when the run
        errored and the bound is unverifiable). Uses the steady
        speed-up: the compulsory start-up fault is not the blocking's
        fault."""
        if self.lower_bound is None or self.error is not None:
            return None
        return self.steady_sigma >= self.lower_bound - 1e-9

    @property
    def upper_holds(self) -> bool | None:
        """Whether the adversary kept sigma under the paper's cap."""
        if self.upper_bound is None or self.error is not None:
            return None
        return self.sigma <= self.upper_bound + 1e-9

    @property
    def holds(self) -> bool:
        """Both applicable bounds respected."""
        return (self.lower_holds is not False) and (self.upper_holds is not False)


def measure(
    result: ExperimentResult,
    blocking: Blocking,
    game: Callable[[], SearchTrace],
    catch_errors: bool = True,
) -> ExperimentResult:
    """Play ``game`` and fill ``result``'s measured columns from its
    trace.

    With ``catch_errors`` (the default) a :class:`ReproError` raised by
    ``game`` — a reliability-layer block loss, the step-budget watchdog,
    a bad configuration — sets :attr:`ExperimentResult.error` instead,
    and the columns come from the partial trace the error carries, if
    any.
    """
    try:
        trace = game()
    except ReproError as exc:
        if not catch_errors:
            raise
        result.error = f"{type(exc).__name__}: {exc}"
        trace = getattr(exc, "trace", None)
        if trace is None:
            return result
    result.sigma = trace.speedup
    result.steady_sigma = trace.steady_speedup
    result.min_gap = float(trace.min_gap)
    result.faults = trace.faults
    result.steps = trace.steps
    result.storage_blowup = blocking.storage_blowup()
    result.trace = trace
    return result


def run_game(
    experiment: str,
    description: str,
    graph: Graph,
    blocking: Blocking,
    policy: BlockChoicePolicy,
    model: ModelParams,
    adversary: Adversary,
    num_steps: int,
    lower_bound: float | None = None,
    upper_bound: float | None = None,
    params: Mapping | None = None,
    eviction: EvictionPolicy | None = None,
    validate_moves: bool = False,
    reliability: ReliabilityConfig | None = None,
    catch_errors: bool = True,
) -> ExperimentResult:
    """Play the adversary game and package the outcome (:func:`measure`;
    the :class:`Searcher` is built inside its guard, so a configuration
    it rejects is a degraded cell too).

    Move validation defaults off here (the harness runs long traces
    against trusted adversaries; unit tests run with validation on).
    """
    result = ExperimentResult(
        experiment=experiment,
        description=description,
        params=dict(params or {}),
        lower_bound=lower_bound,
        upper_bound=upper_bound,
    )

    def game() -> SearchTrace:
        searcher = Searcher(
            graph,
            blocking,
            policy,
            model,
            eviction=eviction,
            validate_moves=validate_moves,
            reliability=reliability,
        )
        return searcher.run_adversary(adversary, num_steps)

    return measure(result, blocking, game, catch_errors)


@dataclass
class CheckResult:
    """A closed-form check (Example 1/2 radii, ball-cover cardinality):
    a measured quantity against the paper's predicted value with an
    allowed deviation."""

    experiment: str
    description: str
    expected: float
    measured: float
    tolerance: float = 0.0

    @property
    def holds(self) -> bool:
        return abs(self.measured - self.expected) <= self.tolerance + 1e-9

    @property
    def error(self) -> float:
        return self.measured - self.expected


def run_worst_case(
    experiment: str,
    description: str,
    graph: Graph,
    blocking: Blocking,
    policy: BlockChoicePolicy,
    model: ModelParams,
    adversaries: Mapping[str, Adversary],
    num_steps: int,
    lower_bound: float | None = None,
    upper_bound: float | None = None,
    params: Mapping | None = None,
    eviction: EvictionPolicy | None = None,
    validate_moves: bool = False,
    reliability: ReliabilityConfig | None = None,
    catch_errors: bool = True,
) -> ExperimentResult:
    """Play several adversaries and keep the *worst* outcome (smallest
    sigma) — a stronger check of a construction's lower bound than any
    single adversary, since the guarantee must hold against all walks.

    The winning adversary's name is recorded in ``params['adversary']``.
    Eviction policy, move validation and the reliability model are
    forwarded to every game. A completed game always beats a degraded
    one for "worst"; among degraded games the first is kept.
    """
    worst: ExperimentResult | None = None
    for name, adversary in adversaries.items():
        result = run_game(
            experiment,
            description,
            graph,
            blocking,
            policy,
            model,
            adversary,
            num_steps,
            lower_bound=lower_bound,
            upper_bound=upper_bound,
            params=dict(params or {}, adversary=name),
            eviction=eviction,
            validate_moves=validate_moves,
            reliability=reliability,
            catch_errors=catch_errors,
        )
        if (
            worst is None
            or (worst.error is not None and result.error is None)
            or (result.error is None and result.sigma < worst.sigma)
        ):
            worst = result
    assert worst is not None, "no adversaries given"
    return worst
