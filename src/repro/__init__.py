"""Blocking for external graph searching.

A faithful, executable reproduction of M. H. Nodine, M. T. Goodrich,
and J. S. Vitter, "Blocking for External Graph Searching" (PODS 1993;
Algorithmica 16:181-214, 1996): redundant disk blockings, weak/strong
paging models, the paper's blocking constructions, and the adversarial
walks behind its upper bounds — plus an experiment harness regenerating
every row of the paper's Table 1.

Quickstart::

    from repro import InfiniteGridGraph, ModelParams, Searcher
    from repro.adversaries import GridCorridorAdversary
    from repro.blockings import FarthestFaultPolicy, offset_grid_blocking

    B, M = 64, 128
    grid = InfiniteGridGraph(2)                           # the paper's Z^2
    blocking = offset_grid_blocking(dim=2, block_size=B)  # Lemma 22, s = 2
    searcher = Searcher(grid, blocking, FarthestFaultPolicy(grid),
                        ModelParams(block_size=B, memory_size=M))

    hostile = searcher.run_adversary(
        GridCorridorAdversary(dim=2, block_size=B, memory_size=M), 20_000)
    print(hostile.speedup)   # ~8: inside [sqrt(B)/4, 2 sqrt(B)] = [2, 16]
    print(hostile.min_gap)   # >= 2: the per-fault guarantee of Lemma 22
"""

from repro.core import (
    Adversary,
    Block,
    BlockChoicePolicy,
    Blocking,
    ExplicitBlocking,
    FirstBlockPolicy,
    ImplicitBlocking,
    LargestBlockPolicy,
    Memory,
    MemoryView,
    ModelParams,
    MostUncoveredPolicy,
    PagingModel,
    SearchTrace,
    Searcher,
    StrongMemory,
    WeakMemory,
    make_memory,
    simulate_adversary,
    simulate_path,
)
from repro.errors import (
    AdversaryError,
    AnalysisError,
    BlockingError,
    BlockReadError,
    BudgetExceededError,
    GraphError,
    ModelError,
    PagingError,
    ReproError,
)
from repro.reliability import ReliabilityConfig
from repro.obs import (
    Instrumentation,
    JsonlSink,
    MetricsRegistry,
    PhaseProfiler,
    RingBufferSink,
    use_instrumentation,
)
from repro.graphs import (
    AdjacencyGraph,
    CompleteTree,
    DiagonalGridGraph,
    FiniteGraph,
    Graph,
    GridGraph,
    InfiniteDiagonalGridGraph,
    InfiniteGridGraph,
)

__version__ = "1.0.0"

__all__ = [
    "Adversary",
    "AdversaryError",
    "AdjacencyGraph",
    "AnalysisError",
    "Block",
    "BlockChoicePolicy",
    "Blocking",
    "BlockingError",
    "BlockReadError",
    "BudgetExceededError",
    "CompleteTree",
    "DiagonalGridGraph",
    "ExplicitBlocking",
    "FiniteGraph",
    "FirstBlockPolicy",
    "Graph",
    "GraphError",
    "GridGraph",
    "ImplicitBlocking",
    "InfiniteDiagonalGridGraph",
    "InfiniteGridGraph",
    "Instrumentation",
    "JsonlSink",
    "LargestBlockPolicy",
    "Memory",
    "MemoryView",
    "MetricsRegistry",
    "ModelError",
    "ModelParams",
    "MostUncoveredPolicy",
    "PagingError",
    "PagingModel",
    "PhaseProfiler",
    "ReliabilityConfig",
    "RingBufferSink",
    "ReproError",
    "SearchTrace",
    "Searcher",
    "StrongMemory",
    "WeakMemory",
    "make_memory",
    "simulate_adversary",
    "simulate_path",
    "use_instrumentation",
]
