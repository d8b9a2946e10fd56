"""Deterministic neighbor ordering for adversaries.

Every in-repo graph returns neighbors as an ordered sequence
(edge-insertion or coordinate order), so adversary plans are already
independent of ``PYTHONHASHSEED``. A third-party :class:`Graph` may
still hand back a bare ``set``, whose iteration order tracks the hash
seed — these helpers canonicalize that case (sort by ``repr``) so a
tie-break like "pace to some neighbor" never leaks hash order into a
:class:`~repro.core.stats.SearchTrace`.
"""

from __future__ import annotations

from repro.errors import AdversaryError
from repro.graphs.base import Graph
from repro.typing import Vertex


def canonical_neighbors(graph: Graph, vertex: Vertex) -> list[Vertex]:
    """Neighbors of ``vertex`` in a hash-seed-independent order.

    A ``list`` is returned as is, not copied (the grids and trees build
    a fresh one per call, and a random walk asks once per step), so
    callers read the result and never mutate it. Other ordered
    sequences are copied to a list in their order; unordered
    collections (``set``/``frozenset``) are sorted by ``repr``, which is
    total over the mixed int/str/tuple vertex types this repository
    uses.
    """
    neighbors = graph.neighbors(vertex)
    if isinstance(neighbors, list):
        return neighbors
    if isinstance(neighbors, (set, frozenset)):
        return sorted(neighbors, key=repr)
    return list(neighbors)


def first_neighbor(graph: Graph, vertex: Vertex) -> Vertex:
    """The canonical first neighbor of ``vertex``.

    Raises :class:`AdversaryError` when ``vertex`` is isolated.
    """
    for neighbor in canonical_neighbors(graph, vertex):
        return neighbor
    raise AdversaryError(f"{vertex!r} has no neighbors")
