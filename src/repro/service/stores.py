"""Named blocked stores the service can serve searches against.

A *store* is a (graph, blocking, block-choice policy, model params)
bundle built once and shared read-only by every worker thread — the
"one shared blocked store" of the service. Families reuse the repo's
known-good constructions:

* ``path`` — a finite 1-D path with the contiguous s=1 blocking
  (the Lemma 19 substrate);
* ``tree`` — a complete binary tree with the Lemma 17 overlapped
  (s=2) blocking and the most-interior choice rule;
* ``regular`` — a random 4-regular graph with the Lemma 13
  neighborhood blocking and its nearest-center policy (Row 10).

:class:`StoreSpec` is primitive frozen data (the ``CellSpec`` idiom:
the family name indexes a registry, never a callable), so specs travel
through CLIs, load-generator configs, and benchmark rollups untouched.
Builders are memoized per process — two services over the same spec
share one graph and blocking.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, cast

from repro.blockings import (
    MostInteriorPolicy,
    lemma13_blocking,
    overlapped_tree_blocking,
)
from repro.core.blocking import Blocking, ExplicitBlocking
from repro.core.model import ModelParams
from repro.core.policies import BlockChoicePolicy, FirstBlockPolicy
from repro.errors import ServiceError
from repro.graphs import CompleteTree, FiniteGraph, path_graph, random_regular_graph
from repro.typing import Vertex


@dataclass(frozen=True)
class StoreSpec:
    """A buildable store, as primitive picklable data.

    ``size`` scales the substrate (path length, tree height, regular
    graph order — see the family builders); ``memory_blocks`` is the
    per-run private memory in blocks (the model's ``M / B``).
    """

    family: str = "path"
    block_size: int = 16
    memory_blocks: int = 2
    size: int = 1024
    seed: int = 7


@dataclass
class ServiceStore:
    """A built store: shared, read-only during serving."""

    spec: StoreSpec
    graph: FiniteGraph
    blocking: Blocking
    params: ModelParams
    policy_factory: Callable[[], BlockChoicePolicy]
    #: Every vertex in canonical (sorted) order — rank ``k`` in the load
    #: generator's Zipf distribution maps to ``vertices[k]``.
    vertices: tuple[Vertex, ...] = field(default_factory=tuple)


def _params(spec: StoreSpec) -> ModelParams:
    return ModelParams(spec.block_size, spec.memory_blocks * spec.block_size)


def _canonical_vertices(graph: FiniteGraph) -> tuple[Vertex, ...]:
    # ``Vertex`` is only ``Hashable`` to the checker; every concrete
    # substrate the families build uses orderable vertices.
    return tuple(sorted(cast(Iterable[Any], graph.vertices())))


def _build_path(spec: StoreSpec) -> ServiceStore:
    n = spec.size - spec.size % spec.block_size or spec.block_size
    graph = path_graph(n)
    blocking = ExplicitBlocking(
        spec.block_size,
        {
            i: set(range(i * spec.block_size, (i + 1) * spec.block_size))
            for i in range(n // spec.block_size)
        },
    )
    return ServiceStore(
        spec, graph, blocking, _params(spec), FirstBlockPolicy,
        _canonical_vertices(graph),
    )


def _build_tree(spec: StoreSpec) -> ServiceStore:
    # ``size`` is a vertex-count target; pick the smallest complete
    # binary tree at least that big.
    height = 1
    while 2 ** (height + 1) - 1 < spec.size:
        height += 1
    tree = CompleteTree(2, height)
    blocking = overlapped_tree_blocking(tree, spec.block_size)
    return ServiceStore(
        spec, tree, blocking, _params(spec), MostInteriorPolicy,
        _canonical_vertices(tree),
    )


def _build_regular(spec: StoreSpec) -> ServiceStore:
    graph = random_regular_graph(spec.size, 4, seed=spec.seed)
    blocking, policy = lemma13_blocking(graph, spec.block_size)
    # The nearest-center policy is stateless; hand the shared instance
    # out of the factory.
    return ServiceStore(
        spec, graph, blocking, _params(spec), lambda: policy,
        _canonical_vertices(graph),
    )


STORE_FAMILIES: Mapping[str, Callable[[StoreSpec], ServiceStore]] = {
    "path": _build_path,
    "tree": _build_tree,
    "regular": _build_regular,
}

_memo: dict[StoreSpec, ServiceStore] = {}
_memo_lock = threading.Lock()


def build_store(spec: StoreSpec) -> ServiceStore:
    """Build (or reuse) the store a spec describes."""
    builder = STORE_FAMILIES.get(spec.family)
    if builder is None:
        raise ServiceError(
            f"unknown store family {spec.family!r}; "
            f"known: {sorted(STORE_FAMILIES)}"
        )
    # ModelParams rejects a block size below 1 before a builder divides by it.
    _params(spec)
    with _memo_lock:
        store = _memo.get(spec)
        if store is None:
            store = builder(spec)
            _memo[spec] = store
        return store
