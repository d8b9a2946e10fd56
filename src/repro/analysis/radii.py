"""Graph k-radii (Definitions 3-5) and ball-volume extrema (Definition 7).

``r_v(k)`` — the k-radius of a vertex — is the break-out distance of a
compact k-neighborhood. The graph-level extrema

* ``r^-(k) = min_v r_v(k)``   (minimum k-radius)
* ``r^+(k) = max_v r_v(k)``   (maximum k-radius)

drive the paper's general-graph bounds (Theorem 2 upper bounds are in
terms of ``r^+``, the Lemma 13 / Theorem 4 blockings deliver ``r^-``).
A class of graphs with ``r^+(k)/r^-(k)`` bounded is *k-uniform*
(Definition 5); for those, upper and lower bounds match to constants.

Also provided: ``k^-(r)`` and ``k^+(r)``, the minimum and maximum ball
volumes (Definition 7), used by the Theorem 5/6 ball-cover bound.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

from repro.analysis.neighborhoods import (
    CompactNeighborhood,
    ball_volume,
    compact_neighborhood,
)
from repro.cache import cached
from repro.errors import AnalysisError
from repro.graphs.base import FiniteGraph, Graph
from repro.typing import Vertex


def vertex_radius(graph: Graph, vertex: Vertex, k: int) -> float:
    """The k-radius ``r_v(k)`` of one vertex (exact, via BFS)."""
    return compact_neighborhood(graph, vertex, k).radius


def _extremum_key(graph: FiniteGraph, k: int, sample: int | None) -> tuple | None:
    """Cache key for a graph-level extremum, or ``None`` if uncacheable.

    Exact (unsampled) extrema are pure functions of the graph identity
    and ``k``; sampled estimates additionally depend on the sampling
    seed, which callers vary, so they are not memoized.
    """
    if sample is not None:
        return None
    graph_key = graph.cache_key()
    if graph_key is None:
        return None
    return (graph_key, k)


def _resolve_vertices(
    graph: FiniteGraph, sample: int | None, seed: int
) -> Iterable[Vertex]:
    if sample is None:
        return graph.vertices()
    population = list(graph.vertices())
    if sample >= len(population):
        return population
    return random.Random(seed).sample(population, sample)


def neighborhood_table(
    graph: FiniteGraph, k: int
) -> dict[Vertex, CompactNeighborhood] | None:
    """Every vertex's compact k-neighborhood, keyed in
    ``graph.vertices()`` order — or ``None`` when the table cannot be
    cached (the graph has no :meth:`cache_key`).

    The table is memoized per ``(graph.cache_key(), k)`` in the
    construction cache, so the k-radii below and the Lemma 13 /
    Theorem 4 / Theorem 6 blocks
    (:func:`~repro.blockings.neighborhood_blocking.compact_neighborhood_blocking`)
    share one BFS per (graph, vertex, k). Like every cached value the
    table is shared by reference: read it, never mutate it. Callers
    that get ``None`` compute the neighborhoods they need one vertex
    at a time.
    """
    key = _extremum_key(graph, k, None)
    if key is None:
        return None
    return cached(
        "radii.neighborhoods",
        key,
        lambda: {v: compact_neighborhood(graph, v, k) for v in graph.vertices()},
    )


def min_radius(
    graph: FiniteGraph, k: int, sample: int | None = None, seed: int = 0
) -> float:
    """``r^-(k)``: the smallest k-radius over the graph.

    Args:
        sample: evaluate only this many randomly chosen vertices (an
            estimate for large graphs); ``None`` means exact.
        seed: sampling seed.

    One view of :func:`radius_extrema`, which memoizes exact values.
    """
    return radius_extrema(graph, k, sample=sample, seed=seed)[0]


def max_radius(
    graph: FiniteGraph, k: int, sample: int | None = None, seed: int = 0
) -> float:
    """``r^+(k)``: the largest k-radius over the graph (the other view
    of :func:`radius_extrema`)."""
    return radius_extrema(graph, k, sample=sample, seed=seed)[1]


def radius_extrema(
    graph: FiniteGraph, k: int, sample: int | None = None, seed: int = 0
) -> tuple[float, float]:
    """``(r^-(k), r^+(k))`` in one pass.

    Exact values on graphs with a :meth:`cache_key` read the radii from
    :func:`neighborhood_table` and are memoized in the construction
    cache (one BFS per vertex is the sweep's dominant analysis cost).
    Sampled estimates and graphs without a key take one BFS per
    evaluated vertex and are never cached.
    """

    def build() -> tuple[float, float]:
        table = neighborhood_table(graph, k) if sample is None else None
        if table is not None:
            radii = [nbhd.radius for nbhd in table.values()]
        else:
            radii = [
                vertex_radius(graph, v, k)
                for v in _resolve_vertices(graph, sample, seed)
            ]
        if not radii:
            raise AnalysisError("graph has no vertices")
        return min(radii), max(radii)

    return cached("radii.extrema", _extremum_key(graph, k, sample), build)


def uniformity_ratio(
    graph: FiniteGraph, k: int, sample: int | None = None, seed: int = 0
) -> float:
    """``r^+(k) / r^-(k)`` — the Definition 5 uniformity measure.

    For an infinite *class* of graphs, boundedness of this ratio over
    the class is what makes the general bounds tight; for one graph it
    quantifies how uniform the neighborhood structure is.
    """
    lo, hi = radius_extrema(graph, k, sample=sample, seed=seed)
    if lo == 0:
        raise AnalysisError("r^-(k) is zero; ratio undefined")
    if math.isinf(lo):
        return 1.0  # every vertex sees the whole graph inside k
    return hi / lo


def min_ball_volume(
    graph: FiniteGraph, radius: int, sample: int | None = None, seed: int = 0
) -> int:
    """``k^-(r)``: the smallest ball volume over the graph."""

    def build() -> int:
        values = (
            ball_volume(graph, v, radius)
            for v in _resolve_vertices(graph, sample, seed)
        )
        try:
            return min(values)
        except ValueError:
            raise AnalysisError("graph has no vertices") from None

    return cached("ballvol.min", _extremum_key(graph, radius, sample), build)


def max_ball_volume(
    graph: FiniteGraph, radius: int, sample: int | None = None, seed: int = 0
) -> int:
    """``k^+(r)``: the largest ball volume over the graph."""

    def build() -> int:
        values = (
            ball_volume(graph, v, radius)
            for v in _resolve_vertices(graph, sample, seed)
        )
        try:
            return max(values)
        except ValueError:
            raise AnalysisError("graph has no vertices") from None

    return cached("ballvol.max", _extremum_key(graph, radius, sample), build)
