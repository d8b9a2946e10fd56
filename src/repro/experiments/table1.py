"""Table 1 reproduction: one runner per row of the paper's summary.

Each function plays the paper's blocking against the paper's adversary
(and, where instructive, against stronger/weaker ones) and returns
:class:`~repro.experiments.harness.ExperimentResult` records whose
``lower_bound``/``upper_bound`` columns carry the paper's predicted
envelope. Default parameters are sized so the full sweep runs on a
laptop in minutes; benchmarks shrink them further.

Experiment ids match DESIGN.md: ``T1-R1`` .. ``T1-R10``, ``K-LB``,
``L9``, ``EX1``, ``EX2``, ``BC``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from repro.obs.profiling import PhaseProfiler

from repro.adversaries import (
    DiagonalCorridorAdversary,
    GreedyUncoveredAdversary,
    GridCorridorAdversary,
    RandomWalkAdversary,
    RootLeafAdversary,
    SpanningTreeCircuitAdversary,
    SteinerTourAdversary,
    UniformCornerAdversary,
)
from repro.analysis import radii, theory
from repro.analysis.ballcover import (
    ball_cover_corollary2,
    ball_cover_matching,
    ball_cover_packing,
    is_ball_cover,
    vertex_cover_2approx,
)
from repro.analysis.neighborhoods import ball_volume
from repro.blockings import (
    FarthestFaultPolicy,
    MostInteriorPolicy,
    contiguous_1d_blocking,
    grid_lemma13_blocking,
    lemma13_blocking,
    naive_subtree_blocking,
    offset_1d_blocking,
    offset_grid_blocking,
    overlapped_tree_blocking,
    sheared_grid_blocking,
    theorem4_blocking,
    theorem6_blocking,
    uniform_grid_blocking,
)
from repro.core.blocking import ExplicitBlocking
from repro.core.engine import Searcher
from repro.core.model import ModelParams
from repro.core.policies import FirstBlockPolicy
from repro.errors import ReproError
from repro.experiments.harness import CheckResult, ExperimentResult, measure, run_game
from repro.reliability import ReliabilityConfig
from repro.graphs import (
    CompleteTree,
    GridGraph,
    InfiniteDiagonalGridGraph,
    InfiniteGridGraph,
    complete_graph,
    lollipop_graph,
    path_graph,
    random_geometric_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
)


# ---------------------------------------------------------------------------
# T1-R1: complete d-ary trees.
# ---------------------------------------------------------------------------


def tree_row(
    block_size: int = 1023,
    arity: int = 2,
    height: int = 300,
    num_steps: int = 20_000,
    reliability: ReliabilityConfig | None = None,
) -> list[ExperimentResult]:
    """Row 1: trees. The Lemma 17 overlapped blocking (s=2) against the
    Theorem 7 root-leaf adversary must land between ``lg B/(2 lg d)``
    and the finite-height Theorem 7 cap; the naive s=1 subtree blocking
    against the greedy adversary collapses to ``sigma ~ 2``."""
    tree = CompleteTree(arity, height)
    model = ModelParams(block_size, 2 * block_size)
    lower = theory.tree_lower_s2(block_size, arity)
    upper = theory.tree_upper_finite(
        block_size, arity, model.memory_size, height
    )
    results = [
        run_game(
            "T1-R1",
            "tree: Lemma 17 overlapped blocking vs Theorem 7 adversary",
            tree,
            overlapped_tree_blocking(tree, block_size),
            MostInteriorPolicy(),
            model,
            RootLeafAdversary(tree),
            num_steps,
            reliability=reliability,
            lower_bound=lower,
            upper_bound=upper,
            params={"B": block_size, "d": arity, "h": height, "s": 2},
        ),
        run_game(
            "T1-R1",
            "tree: naive s=1 subtree blocking vs greedy adversary (collapse)",
            tree,
            naive_subtree_blocking(tree, block_size),
            FirstBlockPolicy(),
            model,
            GreedyUncoveredAdversary(tree, tree.root),
            min(num_steps, 4_000),
            reliability=reliability,
            lower_bound=None,
            upper_bound=upper,
            params={"B": block_size, "d": arity, "h": height, "s": 1},
        ),
        run_game(
            "T1-R1",
            "tree: Lemma 17 overlapped blocking vs greedy adversary",
            tree,
            overlapped_tree_blocking(tree, block_size),
            MostInteriorPolicy(),
            model,
            GreedyUncoveredAdversary(tree, tree.root),
            min(num_steps, 4_000),
            reliability=reliability,
            lower_bound=lower,
            upper_bound=upper,
            params={"B": block_size, "d": arity, "h": height, "s": 2},
        ),
    ]
    return results


# ---------------------------------------------------------------------------
# T1-R2: one-dimensional grids.
# ---------------------------------------------------------------------------


def grid1d_row(
    block_size: int = 64, num_steps: int = 20_000,
    reliability: ReliabilityConfig | None = None,
) -> list[ExperimentResult]:
    """Row 2: the 1-D grid. Contiguous s=1 blocking achieves exactly
    ``B`` (Lemmas 18/20); the offset s=2 blocking achieves ``B/2``
    with only ``M >= B``."""
    graph = InfiniteGridGraph(1)
    results = [
        run_game(
            "T1-R2",
            "1-D grid: contiguous s=1 blocking vs corridor adversary",
            graph,
            contiguous_1d_blocking(block_size),
            FirstBlockPolicy(),
            ModelParams(block_size, 2 * block_size),
            GridCorridorAdversary(1, block_size, 2 * block_size),
            num_steps,
            reliability=reliability,
            lower_bound=theory.grid1d_lower_s1(block_size),
            upper_bound=theory.grid_upper(block_size, 1),
            params={"B": block_size, "d": 1, "s": 1},
        ),
        run_game(
            "T1-R2",
            "1-D grid: offset s=2 blocking (M = B) vs corridor adversary",
            graph,
            offset_1d_blocking(block_size),
            MostInteriorPolicy(),
            ModelParams(block_size, block_size),
            GridCorridorAdversary(1, block_size, block_size),
            num_steps,
            reliability=reliability,
            lower_bound=theory.grid1d_lower_s2(block_size),
            upper_bound=theory.grid_upper(block_size, 1),
            params={"B": block_size, "d": 1, "s": 2},
        ),
    ]
    return results


def grid1d_finite_row(
    block_size: int = 32,
    rho: int = 4,
    num_steps: int = 6_000,
    reliability: ReliabilityConfig | None = None,
) -> list[ExperimentResult]:
    """Lemma 19: on a *finite* path of n = rho*M vertices the cap
    tightens to ``rho/(rho-1) B - B/((rho-1)M)`` — boundary effects,
    measured. The adversary sweeps the path end to end repeatedly."""
    memory = 2 * block_size
    n = rho * memory
    graph = path_graph(n)
    # An end-to-end sweep repeated: the Lemma 19 walk.
    sweep = list(range(n)) + list(range(n - 2, 0, -1))
    path = []
    while len(path) <= num_steps:
        path.extend(sweep)
    path = path[: num_steps + 1]
    blocking = ExplicitBlocking(
        block_size,
        {
            i: set(range(i * block_size, (i + 1) * block_size))
            for i in range(n // block_size)
        },
    )
    description = f"finite 1-D path (n={n}): contiguous s=1 vs end-to-end sweeps"
    result = ExperimentResult(
        experiment="T1-R2-FIN",
        description=description,
        params={"B": block_size, "n": n, "rho": n / memory},
        lower_bound=None,
        upper_bound=theory.grid1d_upper_finite(block_size, memory, n),
    )
    searcher = Searcher(
        graph,
        blocking,
        FirstBlockPolicy(),
        ModelParams(block_size, memory),
        validate_moves=False,
        reliability=reliability,
    )
    return [measure(result, blocking, lambda: searcher.run_path(path))]


# ---------------------------------------------------------------------------
# T1-R3 / T1-R4: two-dimensional grids.
# ---------------------------------------------------------------------------


def grid2d_rows(
    block_size: int = 64, num_steps: int = 20_000,
    reliability: ReliabilityConfig | None = None,
) -> list[ExperimentResult]:
    """Rows 3-4: the 2-D grid, s=1 brick (Lemma 23) and s=2 offset
    (Lemma 22) blockings against the Lemma 21 corridor adversary."""
    graph = InfiniteGridGraph(2)
    upper = theory.grid_upper(block_size, 2)
    return [
        run_game(
            "T1-R3",
            "2-D grid: brick s=1 blocking (Lemma 23) vs corridor adversary",
            graph,
            sheared_grid_blocking(2, block_size),
            FirstBlockPolicy(),
            ModelParams(block_size, 3 * block_size),
            GridCorridorAdversary(2, block_size, 3 * block_size),
            num_steps,
            reliability=reliability,
            lower_bound=theory.grid2d_lower_s1(block_size),
            upper_bound=upper,
            params={"B": block_size, "d": 2, "s": 1},
        ),
        run_game(
            "T1-R4",
            "2-D grid: offset s=2 blocking (Lemma 22) vs corridor adversary",
            graph,
            offset_grid_blocking(2, block_size),
            FarthestFaultPolicy(graph),
            ModelParams(block_size, 2 * block_size),
            GridCorridorAdversary(2, block_size, 2 * block_size),
            num_steps,
            reliability=reliability,
            lower_bound=theory.grid2d_lower_s2(block_size),
            upper_bound=upper,
            params={"B": block_size, "d": 2, "s": 2},
        ),
    ]


# ---------------------------------------------------------------------------
# T1-R5 / T1-R6: d-dimensional grids.
# ---------------------------------------------------------------------------


def gridd_rows(
    dim: int = 3, block_size: int = 216, num_steps: int = 15_000,
    reliability: ReliabilityConfig | None = None,
) -> list[ExperimentResult]:
    """Row 5: the s=B compact-neighborhood blocking (Lemma 27) on a
    d-dimensional grid against the Lemma 24 corridor adversary."""
    graph = InfiniteGridGraph(dim)
    blocking = grid_lemma13_blocking(dim, block_size)
    return [
        run_game(
            "T1-R5",
            f"{dim}-D grid: s=B ball blocking (Lemma 27) vs corridor adversary",
            graph,
            blocking,
            FirstBlockPolicy(),
            ModelParams(block_size, block_size),
            GridCorridorAdversary(dim, block_size, block_size),
            num_steps,
            reliability=reliability,
            # The construction guarantees exactly its ball radius; the
            # paper's asymptotic form of that radius is (1/2e) d B^(1/d).
            lower_bound=float(blocking.radius),
            upper_bound=theory.grid_upper(block_size, dim),
            params={"B": block_size, "d": dim, "s": blocking.storage_blowup()},
        ),
    ]


def gridd_reduced_rows(
    dim: int = 3,
    extent: int = 9,
    block_size: int = 63,
    num_steps: int = 8_000,
    reliability: ReliabilityConfig | None = None,
) -> list[ExperimentResult]:
    """Row 6: the reduced-blow-up blockings (Theorems 4 and 6) on a
    d-dimensional torus (finite, boundaryless, perfectly uniform),
    against the greedy adversary. The paper's guarantees: speed-up
    ``>= ceil(r^-(B)/2)`` with blow-up ``<= min{3B/r^-(B) (Thm 4),
    B/k^-(r^-(B)/4) (Thm 6)}``."""
    graph = torus_graph((extent,) * dim)
    r_minus = radii.min_radius(graph, block_size)
    lower = theory.general_lower_ballcover(r_minus)
    r_plus = radii.max_radius(graph, block_size)
    upper = theory.steiner_upper(r_plus)
    results = []
    for name, builder, blowup_bound in (
        (
            "Theorem 4 (Corollary 2 cover)",
            theorem4_blocking,
            theory.thm4_blowup(block_size, r_minus),
        ),
        (
            "Theorem 6 (ball-packing cover)",
            theorem6_blocking,
            theory.thm6_blowup(
                block_size,
                radii.min_ball_volume(graph, max(int(r_minus) // 4, 0)),
            ),
        ),
    ):
        blocking, policy = builder(graph, block_size)
        result = run_game(
            "T1-R6",
            f"{dim}-D torus: {name} vs greedy adversary",
            graph,
            blocking,
            policy,
            ModelParams(block_size, block_size),
            GreedyUncoveredAdversary(graph, next(iter(graph.vertices()))),
            num_steps,
            reliability=reliability,
            lower_bound=lower,
            upper_bound=upper,
            params={
                "B": block_size,
                "d": dim,
                "n": len(graph),
                "r_minus": r_minus,
                "blowup_bound": blowup_bound,
            },
        )
        results.append(result)
    return results


# ---------------------------------------------------------------------------
# T1-R7 / T1-R8: isothetic hypercube blockings and the redundancy gap.
# ---------------------------------------------------------------------------


def isothetic_rows(
    dim: int = 2, block_size: int = 64, num_steps: int = 15_000,
    reliability: ReliabilityConfig | None = None,
) -> list[ExperimentResult]:
    """Rows 7-8: isothetic hypercube blockings.

    * s=2 offset blocking vs the corridor adversary: sigma in
      ``[B^(1/d)/4, d B^(1/d)]`` (Lemma 26).
    * sheared s=1 blocking vs the corridor adversary: sigma >=
      ``B^(1/d)/(2 d^2)`` (Lemma 28).
    * *uniform* s=1 blocking vs the corner-loop adversary: sigma <=
      ``(B^(1/d) + d)/(d + 1)`` — Lemma 31's cap, realized on the
      tessellation with the worst (degree ``2^d``) complexes.
    """
    graph = InfiniteGridGraph(dim)
    side = uniform_grid_blocking(dim, block_size).tessellation.side
    return [
        run_game(
            "T1-R7",
            f"{dim}-D grid: offset s=2 hypercubes vs corridor adversary",
            graph,
            offset_grid_blocking(dim, block_size),
            FarthestFaultPolicy(graph),
            ModelParams(block_size, 2 * block_size),
            GridCorridorAdversary(dim, block_size, 2 * block_size),
            num_steps,
            reliability=reliability,
            lower_bound=theory.isothetic_s2_lower(block_size, dim),
            upper_bound=theory.grid_upper(block_size, dim),
            params={"B": block_size, "d": dim, "s": 2},
        ),
        run_game(
            "T1-R8",
            f"{dim}-D grid: sheared s=1 hypercubes vs corridor adversary",
            graph,
            sheared_grid_blocking(dim, block_size),
            FirstBlockPolicy(),
            ModelParams(block_size, (dim + 1) * block_size),
            GridCorridorAdversary(dim, block_size, (dim + 1) * block_size),
            num_steps,
            reliability=reliability,
            lower_bound=theory.isothetic_s1_lower(block_size, dim),
            upper_bound=theory.grid_upper(block_size, dim),
            params={"B": block_size, "d": dim, "s": 1},
        ),
        run_game(
            "T1-R8",
            f"{dim}-D grid: uniform s=1 hypercubes vs corner-loop adversary",
            graph,
            uniform_grid_blocking(dim, block_size),
            FirstBlockPolicy(),
            ModelParams(block_size, (dim + 1) * block_size),
            UniformCornerAdversary(side=side, dim=dim),
            num_steps,
            reliability=reliability,
            lower_bound=None,
            upper_bound=theory.isothetic_s1_upper(block_size, dim),
            params={"B": block_size, "d": dim, "s": 1},
        ),
    ]


def redundancy_gap_rows(
    dim: int = 5, block_size: int = 1024, num_steps: int = 6_000,
    reliability: ReliabilityConfig | None = None,
) -> list[ExperimentResult]:
    """The headline comparison: at ``d > 4`` the s=2 lower bound beats
    the s=1 isothetic upper bound, so the measured s=2 speed-up should
    strictly exceed anything the s=1 uniform blocking manages against
    its corner adversary."""
    graph = InfiniteGridGraph(dim)
    side = uniform_grid_blocking(dim, block_size).tessellation.side
    return [
        run_game(
            "T1-R8-GAP",
            f"{dim}-D grid: s=2 offset blocking vs corridor adversary",
            graph,
            offset_grid_blocking(dim, block_size),
            FarthestFaultPolicy(graph),
            ModelParams(block_size, 2 * block_size),
            GridCorridorAdversary(dim, block_size, 2 * block_size),
            num_steps,
            reliability=reliability,
            lower_bound=theory.isothetic_s2_lower(block_size, dim),
            upper_bound=theory.grid_upper(block_size, dim),
            params={"B": block_size, "d": dim, "s": 2},
        ),
        run_game(
            "T1-R8-GAP",
            f"{dim}-D grid: s=1 uniform blocking vs corner-loop adversary",
            graph,
            uniform_grid_blocking(dim, block_size),
            FirstBlockPolicy(),
            ModelParams(block_size, 3 * block_size),
            UniformCornerAdversary(side=side, dim=dim),
            num_steps,
            reliability=reliability,
            lower_bound=None,
            upper_bound=theory.isothetic_s1_upper(block_size, dim),
            params={"B": block_size, "d": dim, "s": 1},
        ),
    ]


# ---------------------------------------------------------------------------
# T1-R9: diagonal grids.
# ---------------------------------------------------------------------------


def diagonal_row(
    dim: int = 2, block_size: int = 64, num_steps: int = 15_000,
    reliability: ReliabilityConfig | None = None,
) -> list[ExperimentResult]:
    """Row 9: diagonal grids. The offset s=2 blocking against the
    Lemma 25 diagonal corridor adversary: sigma in
    ``[B^(1/d)/4, 2 B^(1/d)]``."""
    graph = InfiniteDiagonalGridGraph(dim)
    return [
        run_game(
            "T1-R9",
            f"{dim}-D diagonal grid: offset s=2 blocking vs corridor adversary",
            graph,
            offset_grid_blocking(dim, block_size),
            FarthestFaultPolicy(graph),
            ModelParams(block_size, 2 * block_size),
            DiagonalCorridorAdversary(dim, block_size, 2 * block_size),
            num_steps,
            reliability=reliability,
            lower_bound=theory.diagonal_lower_s2(block_size, dim),
            upper_bound=theory.diagonal_upper(block_size, dim),
            params={"B": block_size, "d": dim, "s": 2},
        ),
    ]


# ---------------------------------------------------------------------------
# T1-R10 + K-LB + L9: general graphs.
# ---------------------------------------------------------------------------


def general_rows(
    block_size: int = 16,
    num_steps: int = 8_000,
    seed: int = 7,
    reliability: ReliabilityConfig | None = None,
) -> list[ExperimentResult]:
    """Row 10: general graphs — the Lemma 13 / Theorem 4 blockings on a
    uniform graph (random regular) against the greedy, Steiner-tour,
    and DFS-circuit adversaries, with the Theorem 2 envelope."""
    graph = random_regular_graph(512, 4, seed=seed)
    n = len(graph)
    memory = 2 * block_size
    r_minus_B = radii.min_radius(graph, block_size)
    r_plus_B = radii.max_radius(graph, block_size)
    r_minus_M = radii.min_radius(graph, memory)
    r_plus_M = radii.max_radius(graph, memory)
    upper = theory.general_upper(
        block_size, memory, n, r_plus_B, r_plus_M, r_minus_M
    )
    start = next(iter(graph.vertices()))
    results = []

    blocking13, policy13 = lemma13_blocking(graph, block_size)
    results.append(
        run_game(
            "T1-R10",
            "random 4-regular: Lemma 13 blocking (s~B) vs greedy adversary",
            graph,
            blocking13,
            policy13,
            ModelParams(block_size, memory),
            GreedyUncoveredAdversary(graph, start),
            num_steps,
            reliability=reliability,
            lower_bound=theory.general_lower_sB(r_minus_B),
            upper_bound=upper,
            params={"B": block_size, "n": n, "r-": r_minus_B, "r+": r_plus_B},
        )
    )

    blocking4, policy4 = theorem4_blocking(graph, block_size)
    results.append(
        run_game(
            "T1-R10",
            "random 4-regular: Theorem 4 blocking vs greedy adversary",
            graph,
            blocking4,
            policy4,
            ModelParams(block_size, memory),
            GreedyUncoveredAdversary(graph, start),
            num_steps,
            reliability=reliability,
            lower_bound=theory.general_lower_ballcover(r_minus_B),
            upper_bound=upper,
            params={
                "B": block_size,
                "n": n,
                "blowup_bound": theory.thm4_blowup(block_size, r_minus_B),
            },
        )
    )

    results.append(
        run_game(
            "L9",
            "random 4-regular: Lemma 13 blocking vs DFS-circuit adversary",
            graph,
            blocking13,
            policy13,
            ModelParams(block_size, memory),
            SpanningTreeCircuitAdversary(graph),
            num_steps,
            reliability=reliability,
            lower_bound=theory.general_lower_sB(r_minus_B),
            upper_bound=theory.dfs_circuit_upper(block_size, memory, n),
            params={"B": block_size, "n": n},
        )
    )

    results.append(
        run_game(
            "T1-R10",
            "random 4-regular: Lemma 13 blocking vs Steiner-tour adversary",
            graph,
            blocking13,
            policy13,
            ModelParams(block_size, memory),
            SteinerTourAdversary(graph, packing_radius=max(int(r_plus_B), 1)),
            num_steps,
            reliability=reliability,
            lower_bound=theory.general_lower_sB(r_minus_B),
            upper_bound=theory.steiner_upper(r_plus_B),
            params={"B": block_size, "n": n},
        )
    )
    return results


def geometric_rows(
    n: int = 400,
    radius: float = 0.07,
    block_size: int = 12,
    num_steps: int = 6_000,
    seed: int = 31,
    reliability: ReliabilityConfig | None = None,
) -> list[ExperimentResult]:
    """Row 10 on the other natural uniform class: random geometric
    graphs (locally grid-like). Lemma 13's guarantee and the Theorem 2
    envelope, measured."""
    graph = random_geometric_graph(n, radius, seed=seed)
    memory = 2 * block_size
    r_minus_B = radii.min_radius(graph, block_size)
    r_plus_B = radii.max_radius(graph, block_size)
    r_minus_M = radii.min_radius(graph, memory)
    r_plus_M = radii.max_radius(graph, memory)
    upper = theory.general_upper(
        block_size, memory, len(graph), r_plus_B, r_plus_M, r_minus_M
    )
    blocking, policy = lemma13_blocking(graph, block_size)
    return [
        run_game(
            "T1-R10",
            "random geometric: Lemma 13 blocking (s~B) vs greedy adversary",
            graph,
            blocking,
            policy,
            ModelParams(block_size, memory),
            GreedyUncoveredAdversary(graph, 0),
            num_steps,
            reliability=reliability,
            lower_bound=theory.general_lower_sB(r_minus_B),
            upper_bound=upper,
            params={
                "B": block_size,
                "n": len(graph),
                "r-": r_minus_B,
                "r+": r_plus_B,
            },
        )
    ]


def pathological_rows(
    memory_size: int = 16, num_steps: int = 2_000,
    reliability: ReliabilityConfig | None = None,
) -> list[ExperimentResult]:
    """The Section 2 counterexamples: ``K_{M+1}`` pins sigma <= 1 and
    the (planar) M-star pins sigma <= 2, regardless of the blocking."""
    block_size = memory_size // 2
    clique = complete_graph(memory_size + 1)
    cb, cp = lemma13_blocking(clique, block_size)
    star = star_graph(4 * memory_size)
    sb, sp = lemma13_blocking(star, block_size)
    return [
        run_game(
            "K-LB",
            "K_{M+1}: any blocking vs greedy adversary (sigma <= 1)",
            clique,
            cb,
            cp,
            ModelParams(block_size, memory_size),
            GreedyUncoveredAdversary(clique, 0),
            num_steps,
            reliability=reliability,
            upper_bound=1.0,
            params={"M": memory_size, "n": memory_size + 1},
        ),
        run_game(
            "K-LB",
            "M-star: any blocking vs greedy adversary (sigma <= 2)",
            star,
            sb,
            sp,
            ModelParams(block_size, memory_size),
            GreedyUncoveredAdversary(star, 0),
            num_steps,
            reliability=reliability,
            upper_bound=2.0,
            params={"M": memory_size, "n": 4 * memory_size + 1},
        ),
    ]


def nonuniform_row(
    block_size: int = 16, num_steps: int = 4_000,
    reliability: ReliabilityConfig | None = None,
) -> list[ExperimentResult]:
    """A deliberately non-uniform graph (lollipop): the Lemma 13
    guarantee still holds at ``r^-(B)`` but the measured sigma on a
    random walk is far higher — the r^+/r^- gap in action."""
    graph = lollipop_graph(64, 256)
    r_minus = radii.min_radius(graph, block_size)
    blocking, policy = lemma13_blocking(graph, block_size)
    model = ModelParams(block_size, 2 * block_size)
    return [
        run_game(
            "T1-R10",
            "lollipop: Lemma 13 blocking vs greedy adversary (non-uniform)",
            graph,
            blocking,
            policy,
            model,
            GreedyUncoveredAdversary(graph, 0),
            num_steps,
            reliability=reliability,
            lower_bound=theory.general_lower_sB(r_minus),
            params={"B": block_size, "n": len(graph), "r-": r_minus},
        ),
        run_game(
            "T1-R10",
            "lollipop: Lemma 13 blocking vs random walk (benign)",
            graph,
            blocking,
            policy,
            model,
            RandomWalkAdversary(graph, 0, seed=3),
            num_steps,
            reliability=reliability,
            lower_bound=theory.general_lower_sB(r_minus),
            params={"B": block_size, "n": len(graph)},
        ),
    ]


# ---------------------------------------------------------------------------
# EX1 / EX2: the closed-form radius examples.
# ---------------------------------------------------------------------------


def example1_checks(
    arity: int = 2, height: int = 14, ks: Sequence[int] = (7, 15, 31, 63, 127)
) -> list[CheckResult]:
    """Example 1: measured k-radii of complete d-ary tree vertices vs
    the paper's closed forms (continuous approximations — allow +-2)."""
    tree = CompleteTree(arity, height)
    deep_internal = tree.ancestor_at_depth(next(iter(tree.leaves())), height // 2)
    leaf = next(iter(tree.leaves()))
    checks = []
    for k in ks:
        checks.append(
            CheckResult(
                "EX1",
                f"tree root radius, k={k}",
                expected=theory.tree_radius_root(k, arity),
                measured=radii.vertex_radius(tree, tree.root, k),
                tolerance=2.0,
            )
        )
        checks.append(
            CheckResult(
                "EX1",
                f"tree internal radius, k={k}",
                expected=theory.tree_radius_internal(k, arity),
                measured=radii.vertex_radius(tree, deep_internal, k),
                tolerance=2.0,
            )
        )
        checks.append(
            CheckResult(
                "EX1",
                f"tree leaf radius, k={k}",
                expected=theory.tree_radius_leaf(k, arity),
                measured=radii.vertex_radius(tree, leaf, k),
                tolerance=2.0,
            )
        )
    return checks


def example2_checks(
    dims: Sequence[int] = (1, 2, 3), rs: Sequence[int] = (1, 2, 4, 8)
) -> list[CheckResult]:
    """Example 2: measured grid ball volumes vs the exact recurrence,
    and exact grid radii vs the paper's asymptotic coefficient."""
    checks = []
    for dim in dims:
        extent = 4 * max(rs) + 1
        graph = GridGraph((extent,) * dim)
        center = graph.center()
        for r in rs:
            checks.append(
                CheckResult(
                    "EX2",
                    f"grid ball volume, d={dim}, r={r}",
                    expected=float(theory.grid_ball_volume_exact(dim, r)),
                    measured=float(ball_volume(graph, center, r)),
                    tolerance=0.0,
                )
            )
        # Radii: exact integer vs the leading-term inversion.
        for k in (10, 100, 1000):
            checks.append(
                CheckResult(
                    "EX2",
                    f"grid radius, d={dim}, k={k}",
                    expected=theory.grid_radius_leading(dim, k),
                    measured=float(theory.grid_radius_exact(dim, k)),
                    tolerance=max(2.0, 0.5 * theory.grid_radius_leading(dim, k)),
                )
            )
    return checks


# ---------------------------------------------------------------------------
# BC: the Section 4.2 ball-cover cardinality table.
# ---------------------------------------------------------------------------


def ballcover_checks(seed: int = 11) -> list[CheckResult]:
    """The BALL COVER constructions' cardinality guarantees on a few
    graph families. Measured cardinality must be <= the bound (encoded
    as expected=bound, measured<=bound => tolerance test on the
    difference)."""
    graphs = {
        "path(60)": path_graph(60),
        "torus(8x8)": torus_graph((8, 8)),
        "random-regular(64,3)": random_regular_graph(64, 3, seed=seed),
    }
    checks = []
    for name, graph in graphs.items():
        n = len(graph)
        cover1 = vertex_cover_2approx(graph)
        assert is_ball_cover(graph, cover1, 1)
        checks.append(
            CheckResult(
                "BC",
                f"{name}: BALL COVER(1) via vertex cover, |V'| <= n",
                expected=float(n),
                measured=float(len(cover1)),
                tolerance=float(n),  # any size <= n passes
            )
        )
        cover2 = ball_cover_matching(graph)
        assert is_ball_cover(graph, cover2, 2)
        checks.append(
            CheckResult(
                "BC",
                f"{name}: BALL COVER(2) via matching, |V'| <= n/2",
                expected=float(n // 2),
                measured=float(len(cover2)),
                tolerance=float(n // 2),
            )
        )
        for r in (3, 6):
            cover = ball_cover_corollary2(graph, r)
            assert is_ball_cover(graph, cover, r)
            bound = theory.ballcover_cardinality_bound(n, r)
            checks.append(
                CheckResult(
                    "BC",
                    f"{name}: BALL COVER({r}) via Corollary 2, |V'| <= {bound:.1f}",
                    expected=bound,
                    measured=float(len(cover)),
                    tolerance=bound,
                )
            )
            packing_cover = ball_cover_packing(graph, r)
            assert is_ball_cover(graph, packing_cover, r)
            k_min = radii.min_ball_volume(graph, r // 2)
            bound5 = n / k_min
            checks.append(
                CheckResult(
                    "BC",
                    f"{name}: BALL COVER({r}) via Theorem 5, |V'| <= {bound5:.1f}",
                    expected=bound5,
                    measured=float(len(packing_cover)),
                    tolerance=bound5,
                )
            )
    return checks


# ---------------------------------------------------------------------------
# Everything.
# ---------------------------------------------------------------------------

# The named cells of the sweep, in report order. Registries of plain
# module-level functions (not lambdas) keep every cell *picklable*, so
# the campaign runner (repro.experiments.campaign) can ship the same
# cells to worker processes that run_all executes inline.
_GAME_CELL_FUNCS: dict[str, Callable[..., list[ExperimentResult]]] = {
    "tree": tree_row,
    "grid1d": grid1d_row,
    "grid1d-finite": grid1d_finite_row,
    "grid2d": grid2d_rows,
    "gridd": gridd_rows,
    "gridd-reduced": gridd_reduced_rows,
    "isothetic": isothetic_rows,
    "redundancy-gap": redundancy_gap_rows,
    "diagonal": diagonal_row,
    "general": general_rows,
    "geometric": geometric_rows,
    "pathological": pathological_rows,
    "nonuniform": nonuniform_row,
}

_CHECK_CELL_FUNCS: dict[str, Callable[..., list[CheckResult]]] = {
    "example1": example1_checks,
    "example2": example2_checks,
    "ballcover": ballcover_checks,
}

# Cells whose traces are capped below the full-sweep step count.
_STEP_CAPS: dict[str, int] = {
    "grid1d-finite": 6_000,
    "gridd-reduced": 6_000,
    "redundancy-gap": 6_000,
    "general": 8_000,
    "geometric": 6_000,
    "pathological": 2_000,
    "nonuniform": 4_000,
}


@dataclass(frozen=True)
class CellSpec:
    """One runnable cell of the Table 1 sweep, as picklable data.

    ``func`` names an entry in the cell registries (never a callable),
    and ``kwargs`` holds only picklable values, so a spec can cross a
    process boundary and produce the same cell the serial path runs.
    """

    name: str
    kind: str  # "game" or "check"
    func: str
    kwargs: dict = dataclasses.field(default_factory=dict)


def cell_specs(
    quick: bool = False,
    reliability: ReliabilityConfig | None = None,
    names: Sequence[str] | None = None,
) -> list[CellSpec]:
    """The sweep's cells in report order (the serial and campaign
    runners both execute exactly this list).

    ``names`` restricts to a subset of cells, preserving order —
    unknown names raise :class:`ReproError`.
    """
    steps = 2_000 if quick else 15_000
    specs: list[CellSpec] = []
    for name in _GAME_CELL_FUNCS:
        num_steps = min(steps, _STEP_CAPS.get(name, steps))
        specs.append(
            CellSpec(
                name,
                "game",
                name,
                {"num_steps": num_steps, "reliability": reliability},
            )
        )
    for name in _CHECK_CELL_FUNCS:
        specs.append(CellSpec(name, "check", name, {}))
    if names is not None:
        known = {spec.name for spec in specs}
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ReproError(
                f"unknown sweep cell(s) {unknown!r}; known: {sorted(known)}"
            )
        wanted = set(names)
        specs = [spec for spec in specs if spec.name in wanted]
    return specs


def run_cell(spec: CellSpec) -> list[ExperimentResult] | list[CheckResult]:
    """Execute one cell. This is the single execution path shared by
    the serial sweep and the campaign runner's workers.

    A :class:`ReproError` escaping a *game* cell (e.g. a construction
    that cannot survive the configured fault injection) degrades into a
    single errored :class:`ExperimentResult` instead of killing the
    sweep — sibling cells are unaffected, and serial and campaign runs
    degrade identically. Check cells have no error column, so their
    failures propagate in both.
    """
    if spec.kind == "game":
        func = _GAME_CELL_FUNCS[spec.func]
    elif spec.kind == "check":
        func = _CHECK_CELL_FUNCS[spec.func]
    else:
        raise ReproError(f"unknown cell kind {spec.kind!r}")
    try:
        return func(**spec.kwargs)
    except ReproError as exc:
        if spec.kind != "game":
            raise
        return [
            ExperimentResult(
                experiment=f"cell:{spec.name}",
                description=f"cell {spec.name!r} failed to run",
                error=f"{type(exc).__name__}: {exc}",
            )
        ]


def run_all(
    quick: bool = False,
    reliability: ReliabilityConfig | None = None,
    profiler: "PhaseProfiler | None" = None,
    progress: "Callable[[int, int, str], None] | None" = None,
    names: Sequence[str] | None = None,
) -> tuple[list[ExperimentResult], list[CheckResult]]:
    """Run the whole Table 1 sweep. ``quick`` shrinks the traces for
    smoke runs (used by tests). ``reliability`` runs every game against
    the configured unreliable disk; per-run failures become degraded
    cells (``ExperimentResult.error``) and the sweep still completes.
    ``names`` restricts the sweep to those cells, as
    :func:`cell_specs` takes them.

    ``profiler`` times each named cell under the phase
    ``table1.<cell>`` (see :class:`repro.obs.PhaseProfiler`).
    ``progress`` is called as ``progress(done, total, label)`` after
    every cell — :class:`repro.obs.SweepProgress` prints these with
    elapsed time and an ETA.

    This is the serial reference: ``--jobs N`` runs the same cells in
    worker processes through
    :func:`repro.experiments.campaign.run_campaign`.
    """
    specs = cell_specs(quick=quick, reliability=reliability, names=names)
    total = len(specs)
    games: list[ExperimentResult] = []
    checks: list[CheckResult] = []
    for done, spec in enumerate(specs, start=1):
        if profiler is not None:
            with profiler.phase(f"table1.{spec.name}"):
                out = run_cell(spec)
        else:
            out = run_cell(spec)
        if spec.kind == "game":
            games += out
        else:
            checks += out
        if progress is not None:
            progress(done, total, spec.name)
    return games, checks
