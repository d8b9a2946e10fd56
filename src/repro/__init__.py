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

from __future__ import annotations

from typing import TYPE_CHECKING


def _facade(
    namespace: dict[str, object], exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """The PEP 562 hooks ``(__getattr__, __dir__, __all__)`` of the
    package whose globals are ``namespace``.

    ``exports`` maps each defining module to the public names it gives
    the package. Importing the package imports none of them: a name's
    module is imported on the name's first lookup, and the value is
    stored in ``namespace``, so every later lookup is a plain attribute
    read. A name not in the table raises ``AttributeError``, which also
    lets ``from package import submodule`` import the submodule.
    """
    from importlib import import_module

    package = namespace["__name__"]
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    return __getattr__, __dir__, list(owners)


__version__ = "1.0.0"

#: The public names, by defining module; each is imported on its first
#: lookup (:func:`repro._facade`).
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.core.block": ("Block",),
    "repro.core.blocking": ("Blocking", "ExplicitBlocking", "ImplicitBlocking"),
    "repro.core.engine": (
        "Adversary", "MemoryView", "Searcher", "simulate_adversary", "simulate_path",
    ),
    "repro.core.memory": ("Memory", "StrongMemory", "WeakMemory", "make_memory"),
    "repro.core.model": ("ModelParams", "PagingModel"),
    "repro.core.policies": (
        "BlockChoicePolicy", "FirstBlockPolicy", "LargestBlockPolicy",
        "MostUncoveredPolicy",
    ),
    "repro.core.stats": ("SearchTrace",),
    "repro.errors": (
        "AdversaryError", "AnalysisError", "BlockingError", "BlockReadError",
        "BudgetExceededError", "GraphError", "ModelError", "PagingError", "ReproError",
    ),
    "repro.graphs.adjacency": ("AdjacencyGraph",),
    "repro.graphs.base": ("FiniteGraph", "Graph"),
    "repro.graphs.diagonal": ("DiagonalGridGraph", "InfiniteDiagonalGridGraph"),
    "repro.graphs.grid": ("GridGraph", "InfiniteGridGraph"),
    "repro.graphs.tree": ("CompleteTree",),
    "repro.obs.context": ("use_instrumentation",),
    "repro.obs.instrument": ("Instrumentation",),
    "repro.obs.metrics": ("MetricsRegistry",),
    "repro.obs.profiling": ("PhaseProfiler",),
    "repro.obs.sinks": ("JsonlSink", "RingBufferSink"),
    "repro.reliability.store": ("ReliabilityConfig",),
}

if TYPE_CHECKING:
    from collections.abc import Callable

    from repro.core.block import Block as Block
    from repro.core.blocking import (
        Blocking as Blocking,
        ExplicitBlocking as ExplicitBlocking,
        ImplicitBlocking as ImplicitBlocking,
    )
    from repro.core.engine import (
        Adversary as Adversary,
        MemoryView as MemoryView,
        Searcher as Searcher,
        simulate_adversary as simulate_adversary,
        simulate_path as simulate_path,
    )
    from repro.core.memory import (
        Memory as Memory,
        StrongMemory as StrongMemory,
        WeakMemory as WeakMemory,
        make_memory as make_memory,
    )
    from repro.core.model import ModelParams as ModelParams, PagingModel as PagingModel
    from repro.core.policies import (
        BlockChoicePolicy as BlockChoicePolicy,
        FirstBlockPolicy as FirstBlockPolicy,
        LargestBlockPolicy as LargestBlockPolicy,
        MostUncoveredPolicy as MostUncoveredPolicy,
    )
    from repro.core.stats import SearchTrace as SearchTrace
    from repro.errors import (
        AdversaryError as AdversaryError,
        AnalysisError as AnalysisError,
        BlockingError as BlockingError,
        BlockReadError as BlockReadError,
        BudgetExceededError as BudgetExceededError,
        GraphError as GraphError,
        ModelError as ModelError,
        PagingError as PagingError,
        ReproError as ReproError,
    )
    from repro.graphs.adjacency import AdjacencyGraph as AdjacencyGraph
    from repro.graphs.base import FiniteGraph as FiniteGraph, Graph as Graph
    from repro.graphs.diagonal import (
        DiagonalGridGraph as DiagonalGridGraph,
        InfiniteDiagonalGridGraph as InfiniteDiagonalGridGraph,
    )
    from repro.graphs.grid import (
        GridGraph as GridGraph,
        InfiniteGridGraph as InfiniteGridGraph,
    )
    from repro.graphs.tree import CompleteTree as CompleteTree
    from repro.obs.context import use_instrumentation as use_instrumentation
    from repro.obs.instrument import Instrumentation as Instrumentation
    from repro.obs.metrics import MetricsRegistry as MetricsRegistry
    from repro.obs.profiling import PhaseProfiler as PhaseProfiler
    from repro.obs.sinks import JsonlSink as JsonlSink, RingBufferSink as RingBufferSink
    from repro.reliability.store import ReliabilityConfig as ReliabilityConfig
else:
    __getattr__, __dir__, __all__ = _facade(globals(), _EXPORTS)
