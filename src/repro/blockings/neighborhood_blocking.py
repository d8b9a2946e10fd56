"""Compact-neighborhood blockings for general graphs (Section 4.2).

The paper's general lower bounds are all of one shape: pick a set of
*centers*, store a compact B-neighborhood of each center as a block,
and on a fault read the block of a nearby center. The variants differ
only in the center set, trading storage blow-up against the guarantee:

* :func:`lemma13_blocking` — a block around *every* vertex: speed-up
  ``r^-(B)``, blow-up ``s = B``.
* :func:`theorem4_blocking` — centers solving
  BALL COVER(floor(r^-(B)/2)) via Corollary 2: speed-up
  ``ceil(r^-(B)/2)``, blow-up ``~ 3B/r^-(B)``.
* :func:`theorem6_blocking` — centers from the Theorem 5 ball-packing
  cover: same speed-up, blow-up ``<= B / k^-(floor(r^-(B)/4))``
  (better for grid-like graphs: ``4^d`` for d-dimensional grids).

Each builder returns the blocking together with the
:class:`NearestCenterPolicy` the proof prescribes ("bring in the block
of the center within ``r/2`` of the fault").
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.analysis.ballcover import (
    ball_cover_corollary2,
    ball_cover_matching,
    ball_cover_packing,
    nearest_center_map,
    vertex_cover_2approx,
)
from repro.analysis.neighborhoods import compact_neighborhood
from repro.analysis.radii import min_radius, neighborhood_table
from repro.cache import cached
from repro.core.blocking import Blocking, ExplicitBlocking
from repro.core.memory import Memory
from repro.core.policies import BlockChoicePolicy
from repro.errors import BlockingError, PagingError
from repro.graphs.base import FiniteGraph
from repro.typing import BlockId, Vertex


def compact_neighborhood_blocking(
    graph: FiniteGraph, block_size: int, centers: Iterable[Vertex] | None = None
) -> ExplicitBlocking:
    """Blocks are compact B-neighborhoods of the given centers
    (default: every vertex — the Lemma 13 blocking).

    Block ids are ``("nbhd", center)``. Each neighborhood comes from
    the cached :func:`~repro.analysis.radii.neighborhood_table` at
    ``k = B`` (the table ``r^-(B)`` is read from) when there is one;
    otherwise the center takes its own BFS.
    """
    center_list = list(centers) if centers is not None else list(graph.vertices())
    if not center_list:
        raise BlockingError("no centers given")
    table = neighborhood_table(graph, block_size) or {}
    blocks: dict[BlockId, frozenset[Vertex]] = {}
    for c in center_list:
        nbhd = table.get(c)
        if nbhd is None:
            nbhd = compact_neighborhood(graph, c, block_size)
        blocks[("nbhd", c)] = nbhd.vertices
    blocking = ExplicitBlocking(block_size, blocks, universe_size=len(graph))
    if not blocking.covers(graph.vertices()):
        raise BlockingError(
            "compact-neighborhood blocks do not cover the graph; "
            "centers are too sparse for this block size"
        )
    return blocking


class NearestCenterPolicy(BlockChoicePolicy):
    """On a fault at ``v``, read the block centered nearest to ``v``
    (the Theorem 4 proof's choice rule).

    Requires the nearest-center assignment up front; build one with
    :func:`repro.analysis.ballcover.nearest_center_map`.
    """

    def __init__(self, assignment: dict[Vertex, Vertex]) -> None:
        if not assignment:
            raise BlockingError("empty center assignment")
        self._assignment = assignment

    def choose(self, vertex: Vertex, blocking: Blocking, memory: Memory) -> BlockId:
        center = self._assignment.get(vertex)
        if center is None:
            raise PagingError(f"vertex {vertex!r} has no assigned center")
        block_id = ("nbhd", center)
        candidates = blocking.blocks_for(vertex)
        if block_id in candidates:
            return block_id
        # The fault vertex may not itself lie inside its nearest
        # center's block (only guaranteed when the cover radius is at
        # most the block radius); fall back to any covering block.
        if not candidates:
            raise PagingError(f"vertex {vertex!r} is not covered by the blocking")
        return candidates[0]


def _blocking_key(graph: FiniteGraph, block_size: int) -> tuple | None:
    """Cache key for a blocking construction, or ``None`` (uncached).

    The cached value is the ``(blocking, policy)`` pair: both are
    read-only during searches (the engine never mutates a blocking,
    and the nearest-center policy is stateless), so sharing one
    instance across games is safe — the harness already does exactly
    that within a cell.
    """
    graph_key = graph.cache_key()
    if graph_key is None:
        return None
    return (graph_key, block_size)


def lemma13_blocking(
    graph: FiniteGraph, block_size: int
) -> tuple[ExplicitBlocking, NearestCenterPolicy]:
    """Lemma 13: one compact B-neighborhood per vertex (``s = B``)."""

    def build() -> tuple[ExplicitBlocking, NearestCenterPolicy]:
        blocking = compact_neighborhood_blocking(graph, block_size)
        assignment = {v: v for v in graph.vertices()}
        return blocking, NearestCenterPolicy(assignment)

    return cached("blocking.lemma13", _blocking_key(graph, block_size), build)


def _cover_centers(graph: FiniteGraph, radius: int, method: str) -> list[Vertex]:
    """Centers solving BALL COVER(radius) by the requested construction."""
    if method == "packing":
        return ball_cover_packing(graph, radius)
    if method == "corollary2":
        if radius >= 3:
            return ball_cover_corollary2(graph, radius)
        if radius == 2:
            return ball_cover_matching(graph)
        return vertex_cover_2approx(graph)
    raise BlockingError(f"unknown ball-cover method {method!r}")


def _reduced_blocking(
    graph: FiniteGraph, block_size: int, method: str
) -> tuple[ExplicitBlocking, NearestCenterPolicy, list[Vertex]]:
    r_minus = min_radius(graph, block_size)
    if math.isinf(r_minus):
        raise BlockingError(
            f"graph has at most B={block_size} vertices; nothing to block"
        )
    cover_radius = max(int(r_minus) // 2, 0)
    if cover_radius == 0:
        # Degenerate radius: every vertex must be a center.
        centers: list[Vertex] = list(graph.vertices())
    else:
        centers = _cover_centers(graph, cover_radius, method)
    blocking = compact_neighborhood_blocking(graph, block_size, centers)
    policy = NearestCenterPolicy(nearest_center_map(graph, centers))
    return blocking, policy, centers


def theorem4_blocking(
    graph: FiniteGraph, block_size: int
) -> tuple[ExplicitBlocking, NearestCenterPolicy]:
    """Theorem 4: centers from the Corollary 2 ball cover at radius
    ``floor(r^-(B)/2)``; asymptotic blow-up ``3B/r^-(B)``."""

    def build() -> tuple[ExplicitBlocking, NearestCenterPolicy]:
        blocking, policy, _ = _reduced_blocking(graph, block_size, "corollary2")
        return blocking, policy

    return cached("blocking.theorem4", _blocking_key(graph, block_size), build)


def theorem6_blocking(
    graph: FiniteGraph, block_size: int
) -> tuple[ExplicitBlocking, NearestCenterPolicy]:
    """Theorem 6: centers from the Theorem 5 ball-packing cover;
    blow-up ``<= B / k^-(floor(r^-(B)/4))``."""

    def build() -> tuple[ExplicitBlocking, NearestCenterPolicy]:
        blocking, policy, _ = _reduced_blocking(graph, block_size, "packing")
        return blocking, policy

    return cached("blocking.theorem6", _blocking_key(graph, block_size), build)
