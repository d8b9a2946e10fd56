"""Parameter sweeps: the series a plotted version of Table 1 would show.

The paper has no measurement figures (it is pure theory), but each of
its laws is a curve — ``sigma ~ lg B`` for trees, ``sigma ~ B^(1/d)``
for grids, the ``d/4`` redundancy-gap line. These sweeps produce those
series as data, and the benchmarks assert their *shape* (monotonicity
and growth rate), which is what "reproducing the figure" means for a
bounds paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.experiments.harness import ExperimentResult
from repro.experiments.table1 import (
    grid1d_row,
    grid2d_rows,
    gridd_rows,
    isothetic_rows,
    tree_row,
)


@dataclass
class SweepSeries:
    """One measured curve with its predicted envelope."""

    name: str
    parameter: str
    values: list[float] = field(default_factory=list)
    sigmas: list[float] = field(default_factory=list)
    lower_bounds: list[float] = field(default_factory=list)
    upper_bounds: list[float] = field(default_factory=list)

    def append(self, value: float, result: ExperimentResult) -> None:
        self.values.append(value)
        self.sigmas.append(result.sigma)
        self.lower_bounds.append(
            result.lower_bound if result.lower_bound is not None else math.nan
        )
        self.upper_bounds.append(
            result.upper_bound if result.upper_bound is not None else math.nan
        )

    @property
    def is_monotone_increasing(self) -> bool:
        return all(a <= b + 1e-9 for a, b in zip(self.sigmas, self.sigmas[1:]))

    def growth_factor(self) -> float:
        """Last sigma over first sigma — the measured growth across the
        sweep."""
        if not self.sigmas or self.sigmas[0] == 0:
            return math.nan
        return self.sigmas[-1] / self.sigmas[0]

    def rows(self) -> list[tuple[float, float, float, float]]:
        return list(
            zip(self.values, self.sigmas, self.lower_bounds, self.upper_bounds)
        )


def tree_sigma_vs_lgB(
    block_sizes: Sequence[int] = (63, 255, 1023, 4095),
    arity: int = 2,
    num_steps: int = 6_000,
) -> SweepSeries:
    """sigma of the Lemma 17 blocking vs lg B — the tree law."""
    series = SweepSeries("tree Lemma 17 blocking", "lg B")
    for B in block_sizes:
        levels = int(math.log2(B + 1))
        height = max(30 * levels, 120)  # tall enough for Theorem 7's bound
        rows = tree_row(
            block_size=B, arity=arity, height=height, num_steps=num_steps
        )
        series.append(math.log2(B), rows[0])
    return series


def grid_sigma_vs_B(
    dim: int,
    block_sizes: Sequence[int] = (16, 64, 256),
    num_steps: int = 8_000,
) -> SweepSeries:
    """sigma of the s=2 offset blocking vs B^(1/d) — the grid law."""
    series = SweepSeries(f"{dim}-D grid offset s=2 blocking", "B^(1/d)")
    for B in block_sizes:
        if dim == 1:
            rows = grid1d_row(block_size=B, num_steps=num_steps)
            row = next(r for r in rows if r.params["s"] == 1)
        elif dim == 2:
            rows = grid2d_rows(block_size=B, num_steps=num_steps)
            row = next(r for r in rows if r.params["s"] == 2)
        else:
            row = gridd_rows(dim=dim, block_size=B, num_steps=num_steps)[0]
        series.append(B ** (1.0 / dim), row)
    return series


def isothetic_gap_vs_dimension(
    dims: Sequence[int] = (2, 3),
    num_steps: int = 6_000,
) -> dict[int, tuple[float, float]]:
    """Measured (s=2 sigma, s=1-uniform sigma) per dimension — the
    empirical side of the redundancy-gap curve. Block sizes chosen so
    the tile side stays 8."""
    out: dict[int, tuple[float, float]] = {}
    for d in dims:
        rows = isothetic_rows(dim=d, block_size=8 ** d, num_steps=num_steps)
        s2 = next(r for r in rows if r.params["s"] == 2)
        s1_uniform = next(
            r for r in rows if "uniform" in r.description
        )
        out[d] = (s2.sigma, s1_uniform.sigma)
    return out


def _failure_rate_cell(
    s: int,
    rate: float,
    block_size: int,
    num_steps: int,
    seed: int,
    retry_attempts: int,
) -> ExperimentResult:
    """One (blow-up, failure-rate) point of the reliability sweep."""
    from repro.adversaries import RandomWalkAdversary
    from repro.blockings import (
        FarthestFaultPolicy,
        offset_grid_blocking,
        uniform_grid_blocking,
    )
    from repro.core.model import ModelParams
    from repro.core.policies import FirstBlockPolicy
    from repro.experiments.harness import run_game
    from repro.graphs import InfiniteGridGraph
    from repro.reliability import (
        ExponentialBackoff,
        ProbabilisticFaults,
        ReliabilityConfig,
    )

    graph = InfiniteGridGraph(2)
    if s == 1:
        blocking = uniform_grid_blocking(2, block_size)
        policy = FirstBlockPolicy()
    else:
        blocking = offset_grid_blocking(2, block_size, copies=s)
        policy = FarthestFaultPolicy(graph)
    reliability = ReliabilityConfig(
        injector=ProbabilisticFaults(
            transient_rate=0.75 * rate,
            loss_rate=0.25 * rate,
            seed=seed,
        ),
        retry=ExponentialBackoff(
            max_attempts=retry_attempts, jitter=0.5, seed=seed
        ),
        step_budget=20 * num_steps,
    )
    return run_game(
        "REL",
        f"2-D grid s={s} blocking, failure rate {rate:.2f}",
        graph,
        blocking,
        policy,
        ModelParams(block_size, 4 * block_size),
        RandomWalkAdversary(graph, (0, 0), seed=seed),
        num_steps,
        params={"B": block_size, "s": s, "failure_rate": rate},
        reliability=reliability,
    )


def sigma_vs_failure_rate(
    rates: Sequence[float] = (0.0, 0.02, 0.05, 0.1, 0.2),
    s_values: Sequence[int] = (1, 2, 4),
    block_size: int = 64,
    num_steps: int = 4_000,
    seed: int = 17,
    retry_attempts: int = 3,
) -> dict[int, SweepSeries]:
    """The reliability axis the paper never measured: blocking speed-up
    under an unreliable disk, per storage blow-up.

    For each ``s`` in ``s_values`` the 2-D grid blocking with ``s``
    mutually offset tessellations plays a seeded random walk while
    every block read fails transiently *or is permanently lost* at the
    given rate (split 3:1 transient:loss). Lost blocks exercise replica
    fallback: with ``s = 1`` a lost block on the walk kills the run (a
    degraded cell, ``sigma = nan``), while ``s >= 2`` keeps searching
    from the surviving copies — redundancy bought by the blow-up.

    Returns one series per ``s``, indexed by failure rate.
    """
    out: dict[int, SweepSeries] = {}
    for s in s_values:
        series = SweepSeries(
            f"2-D grid s={s} blocking vs failure rate", "failure rate"
        )
        for rate in rates:
            series.append(
                rate,
                _failure_rate_cell(
                    s, rate, block_size, num_steps, seed, retry_attempts
                ),
            )
        out[s] = series
    return out


def memory_tradeoff_sweep(
    ratios: Sequence[int] = (1, 2, 4, 8),
    block_size: int = 64,
    num_steps: int = 6_000,
) -> SweepSeries:
    """Open question 7: does more memory (M/B) buy speed-up?

    Measures the 2-D s=2 blocking under the greedy adversary at
    M = ratio * B. The paper's guarantees only need M = 2B; the sweep
    shows what the extra capacity is worth against a hostile walk.
    """
    from repro.adversaries import GreedyUncoveredAdversary
    from repro.blockings import FarthestFaultPolicy, offset_grid_blocking
    from repro.core.model import ModelParams
    from repro.experiments.harness import run_game
    from repro.graphs import InfiniteGridGraph

    graph = InfiniteGridGraph(2)
    series = SweepSeries("2-D offset s=2 vs greedy, growing memory", "M/B")
    for ratio in ratios:
        result = run_game(
            "OQ7",
            f"2-D grid s=2, M = {ratio}B, greedy adversary",
            graph,
            offset_grid_blocking(2, block_size),
            FarthestFaultPolicy(graph),
            ModelParams(block_size, ratio * block_size),
            GreedyUncoveredAdversary(graph, (0, 0), max_radius=40),
            num_steps,
        )
        series.append(float(ratio), result)
    return series
