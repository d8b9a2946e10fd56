"""Deterministic neighbor ordering for adversaries.

Every in-repo graph returns neighbors as an ordered sequence
(edge-insertion or coordinate order), so adversary plans are already
independent of ``PYTHONHASHSEED``. A third-party :class:`Graph` may
still hand back a bare ``set``, whose iteration order tracks the hash
seed — :func:`canonical_order` canonicalizes that case (sort by
``repr``) so a tie-break like "pace to some neighbor" or a random
walk's draw never leaks hash order into a
:class:`~repro.core.stats.SearchTrace`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import AdversaryError
from repro.graphs.base import Graph
from repro.typing import Vertex


def canonical_order(neighbors: Iterable[Vertex]) -> Sequence[Vertex]:
    """A ``neighbors`` answer in a hash-seed-independent order.

    A ``list`` or ``tuple`` is returned as is, not copied (the grids and
    trees build a fresh list per call, an adjacency graph a fresh tuple,
    and a random walk asks once per step), so callers read the result
    and never mutate it. Unordered collections (``set``/``frozenset``)
    are sorted by ``repr``, which is total over the mixed
    int/str/tuple vertex types this repository uses; any other iterable
    is listed in its order.
    """
    if isinstance(neighbors, (list, tuple)):
        return neighbors
    if isinstance(neighbors, (set, frozenset)):
        return sorted(neighbors, key=repr)
    return list(neighbors)


def canonical_neighbors(graph: Graph, vertex: Vertex) -> Sequence[Vertex]:
    """Neighbors of ``vertex`` in a hash-seed-independent order
    (:func:`canonical_order` of ``graph.neighbors(vertex)``)."""
    return canonical_order(graph.neighbors(vertex))


def first_neighbor(graph: Graph, vertex: Vertex) -> Vertex:
    """The canonical first neighbor of ``vertex``.

    Raises :class:`AdversaryError` when ``vertex`` is isolated.
    """
    for neighbor in canonical_neighbors(graph, vertex):
        return neighbor
    raise AdversaryError(f"{vertex!r} has no neighbors")
