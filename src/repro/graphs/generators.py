"""Generators for the graph families the paper reasons about.

These supply the substrates for the general-graph experiments
(Section 4) and the counterexamples of Section 2:

* ``complete_graph`` — the ``K_{M+1}`` adversary example (sigma <= 1),
* ``star_graph`` — the planar "vertex joined to M others" example
  (sigma <= 2),
* ``path_graph`` / ``cycle_graph`` — one-dimensional references; cycles
  are Hamiltonian so the Section 4.1 remark (sigma <= B) applies,
* ``random_regular_graph`` — the paper's "close to uniform number of
  neighbors around each vertex" class (k-uniform graphs),
* ``torus_graph`` — grid graphs with wraparound: finite, boundaryless,
  all vertices share one radius function (perfectly uniform),
* ``lollipop_graph`` — a deliberately *non*-uniform class (clique +
  path) exercising the gap between r^-(k) and r^+(k),
* ``random_tree`` — sparse non-uniform reference.

All randomized generators take an explicit ``seed`` and are
deterministic given it.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from repro.errors import GraphError
from repro.graphs.adjacency import AdjacencyGraph
from repro.graphs.traversal import is_connected


def complete_graph(n: int) -> AdjacencyGraph:
    """``K_n``: every pair of distinct vertices adjacent."""
    if n < 1:
        raise GraphError(f"n must be >= 1, got {n}")
    graph = AdjacencyGraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v)
    return graph.tag_cache_key(("complete", n))


def star_graph(leaves: int) -> AdjacencyGraph:
    """A center vertex ``0`` joined to ``leaves`` leaf vertices ``1..leaves``."""
    if leaves < 1:
        raise GraphError(f"leaves must be >= 1, got {leaves}")
    graph = AdjacencyGraph()
    for leaf in range(1, leaves + 1):
        graph.add_edge(0, leaf)
    return graph.tag_cache_key(("star", leaves))


def path_graph(n: int) -> AdjacencyGraph:
    """The path ``0 - 1 - ... - (n-1)``."""
    if n < 1:
        raise GraphError(f"n must be >= 1, got {n}")
    graph = AdjacencyGraph(range(n))
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph.tag_cache_key(("path", n))


def cycle_graph(n: int) -> AdjacencyGraph:
    """The cycle on ``n >= 3`` vertices (a Hamiltonian graph)."""
    if n < 3:
        raise GraphError(f"a cycle needs n >= 3, got {n}")
    graph = path_graph(n)
    graph.add_edge(n - 1, 0)
    return graph.tag_cache_key(("cycle", n))


def torus_graph(shape: Sequence[int]) -> AdjacencyGraph:
    """A grid graph with wraparound in every dimension.

    Every extent must be >= 3 so that wrap edges are distinct from grid
    edges. The result is vertex-transitive, hence perfectly uniform:
    ``r^-(k) == r^+(k)`` for every ``k``.
    """
    extents = tuple(int(extent) for extent in shape)
    if any(extent < 3 for extent in extents):
        raise GraphError(f"all torus extents must be >= 3, got {extents}")
    graph = AdjacencyGraph(itertools.product(*(range(extent) for extent in extents)))
    for coord in itertools.product(*(range(extent) for extent in extents)):
        for axis, extent in enumerate(extents):
            neighbor = (
                coord[:axis] + ((coord[axis] + 1) % extent,) + coord[axis + 1 :]
            )
            graph.add_edge(coord, neighbor)
    return graph.tag_cache_key(("torus", extents))


def lollipop_graph(clique_size: int, path_length: int) -> AdjacencyGraph:
    """A clique on ``clique_size`` vertices with a path of ``path_length``
    extra vertices attached to clique vertex 0.

    Clique vertices are ``0..clique_size-1``; path vertices continue
    the numbering. Deliberately non-uniform: path vertices have tiny
    ball volumes, clique vertices huge ones.
    """
    if clique_size < 2:
        raise GraphError(f"clique_size must be >= 2, got {clique_size}")
    if path_length < 1:
        raise GraphError(f"path_length must be >= 1, got {path_length}")
    graph = complete_graph(clique_size)
    previous = 0
    for i in range(clique_size, clique_size + path_length):
        graph.add_edge(previous, i)
        previous = i
    return graph.tag_cache_key(("lollipop", clique_size, path_length))


def random_regular_graph(n: int, degree: int, seed: int) -> AdjacencyGraph:
    """A random ``degree``-regular simple connected graph on ``n`` vertices.

    Uses the pairing model with restarts until the multigraph is simple
    and connected. ``n * degree`` must be even and ``degree < n``. Each
    restart shuffles a fresh copy of the same sorted stub list, so the
    graph is a function of ``(n, degree, seed)``; the restarts are part
    of that function (``(512, 4, 7)`` takes 58 shuffles). The shuffle
    is ``Random.shuffle``'s own swap loop, run in this frame: each
    ``j`` below ``i + 1`` is drawn the way ``Random._randbelow`` draws
    it, with the same ``getrandbits(k)`` calls in the same order, so
    the graph is the one ``random.Random(seed).shuffle`` would give.
    """
    if degree < 2:
        raise GraphError(f"degree must be >= 2, got {degree}")
    if degree >= n:
        raise GraphError(f"degree {degree} must be < n {n}")
    if (n * degree) % 2:
        raise GraphError(f"n*degree must be even, got n={n}, degree={degree}")
    getrandbits = random.Random(seed).getrandbits
    all_stubs = [v for v in range(n) for _ in range(degree)]
    for _ in range(1000):
        stubs = all_stubs[:]
        for i in range(len(stubs) - 1, 0, -1):
            below = i + 1
            k = below.bit_length()
            j = getrandbits(k)
            while j >= below:
                j = getrandbits(k)
            stubs[i], stubs[j] = stubs[j], stubs[i]
        edges = set()
        pairs = iter(stubs)
        for u, v in zip(pairs, pairs):
            key = (u, v) if u < v else (v, u)
            if u == v or key in edges:
                break
            edges.add(key)
        else:  # no loop and no repeated pair: a simple graph
            graph = AdjacencyGraph.from_edges(edges, vertices=range(n))
            if is_connected(graph):
                return graph.tag_cache_key(("random-regular", n, degree, seed))
    raise GraphError(
        f"failed to sample a connected {degree}-regular graph on {n} vertices"
    )


def random_tree(n: int, seed: int) -> AdjacencyGraph:
    """A uniformly random labelled tree on ``n`` vertices (Pruefer sequence)."""
    if n < 1:
        raise GraphError(f"n must be >= 1, got {n}")
    if n == 1:
        return AdjacencyGraph([0]).tag_cache_key(("random-tree", n, seed))
    if n == 2:
        graph = AdjacencyGraph.from_edges([(0, 1)])
        return graph.tag_cache_key(("random-tree", n, seed))
    rng = random.Random(seed)
    pruefer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in pruefer:
        degree[v] += 1
    graph = AdjacencyGraph(range(n))
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in pruefer:
        leaf = heapq.heappop(leaves)
        graph.add_edge(leaf, v)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    graph.add_edge(u, v)
    return graph.tag_cache_key(("random-tree", n, seed))


def hypercube_graph(dim: int) -> AdjacencyGraph:
    """The ``dim``-dimensional boolean hypercube (vertex-transitive)."""
    if dim < 1:
        raise GraphError(f"dim must be >= 1, got {dim}")
    graph = AdjacencyGraph(itertools.product((0, 1), repeat=dim))
    for coord in itertools.product((0, 1), repeat=dim):
        for axis in range(dim):
            neighbor = coord[:axis] + (1 - coord[axis],) + coord[axis + 1 :]
            graph.add_edge(coord, neighbor)
    return graph.tag_cache_key(("hypercube", dim))


def random_geometric_graph(
    n: int, radius: float, seed: int, connect: bool = True
) -> AdjacencyGraph:
    """A random geometric graph: ``n`` points uniform in the unit
    square, edges between pairs within Euclidean ``radius``.

    Geometric graphs are the paper's "close to uniform number of
    neighbors around each vertex" class in the wild: locally grid-like,
    so the general-graph bounds (Theorem 2, Lemma 13, Theorems 4/6) are
    near-tight on them. With ``connect=True`` (default), a nearest-
    neighbor chain is added between components so the result is
    connected (the searching game needs reachability).
    """
    if n < 1:
        raise GraphError(f"n must be >= 1, got {n}")
    if radius <= 0:
        raise GraphError(f"radius must be positive, got {radius}")
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    graph = AdjacencyGraph(range(n))
    r2 = radius * radius
    for i in range(n):
        xi, yi = points[i]
        for j in range(i + 1, n):
            xj, yj = points[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= r2:
                graph.add_edge(i, j)
    if connect:
        _connect_components(graph, points)
    return graph.tag_cache_key(("random-geometric", n, radius, seed, connect))


def _connect_components(graph: AdjacencyGraph, points) -> None:
    """Chain components together via their geometrically nearest pair."""
    from repro.graphs.traversal import bfs_distances

    while True:
        start = next(iter(graph.vertices()))
        # BFS-settlement order, not a set (RL003): the strict-< scan
        # below tie-breaks on iteration order.
        component = list(bfs_distances(graph, start))
        component_set = set(component)
        outside = [v for v in graph.vertices() if v not in component_set]
        if not outside:
            return
        best = None
        for u in component:
            xu, yu = points[u]
            for v in outside:
                xv, yv = points[v]
                d2 = (xu - xv) ** 2 + (yu - yv) ** 2
                if best is None or d2 < best[0]:
                    best = (d2, u, v)
        graph.add_edge(best[1], best[2])
