"""Complete d-ary trees (Section 5 of the paper).

A complete d-ary tree of height ``h`` has every internal vertex with
exactly ``d`` children and every leaf at depth ``h``; it contains
``(d^(h+1) - 1) / (d - 1)`` vertices. Vertices are represented by
level-order integer indices (the classic heap layout generalized to
arity ``d``):

* root is ``0``,
* children of ``v`` are ``d*v + 1 .. d*v + d``,
* parent of ``v`` is ``(v - 1) // d``,
* depth ``j`` starts at ``start(j) = (d^j - 1) / (d - 1)``, so the
  depth of ``v`` is ``floor(log_d((d - 1) v + 1))``.

Unrolling the child rule ``j`` times gives the *level-range identity*:
the descendants of ``v`` exactly ``j`` levels below it are the one
contiguous index run ``[d^j v + start(j), d^j (v + 1) + start(j))``,
listed left to right. Unrolling the parent rule gives its inverse: the
ancestor ``n`` levels above ``v`` is ``(v - start(n)) // d^n``. A depth,
an ancestor, or a whole subtree level is therefore O(1) big-int
arithmetic, never a walk.

The representation is implicit — neighbors are computed arithmetically
— so trees far larger than memory cost nothing to "store", exactly
matching the external-searching setting.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.errors import GraphError
from repro.graphs.base import FiniteGraph
from repro.typing import Vertex


def tree_size(arity: int, height: int) -> int:
    """Number of vertices in a complete ``arity``-ary tree of ``height``."""
    if arity < 2:
        raise GraphError(f"arity must be >= 2, got {arity}")
    if height < 0:
        raise GraphError(f"height must be >= 0, got {height}")
    return (arity ** (height + 1) - 1) // (arity - 1)


class CompleteTree(FiniteGraph):
    """A complete d-ary tree of the given height, as an undirected graph."""

    def __init__(self, arity: int, height: int) -> None:
        self._arity = arity
        self._height = height
        self._size = tree_size(arity, height)
        # Index of the first leaf; every v >= this is a leaf.
        self._first_leaf = tree_size(arity, height - 1) if height > 0 else 0
        # log2(d) when d is a power of two (depth is then a bit length),
        # else 0.
        self._log2_arity = (
            arity.bit_length() - 1 if arity & (arity - 1) == 0 else 0
        )

    # -- tree structure ----------------------------------------------------

    @property
    def arity(self) -> int:
        """Branching factor ``d``."""
        return self._arity

    @property
    def height(self) -> int:
        """Height ``h`` (root has depth 0, leaves depth ``h``)."""
        return self._height

    @property
    def root(self) -> int:
        return 0

    @property
    def size(self) -> int:
        """Vertex count as a plain int.

        Unlike ``len()``, this works for trees whose size exceeds the
        platform ``ssize_t`` (implicit trees of height in the hundreds
        are perfectly usable — only enumeration is off the table).
        """
        return self._size

    def parent(self, vertex: int) -> int:
        """The parent of ``vertex``; raises on the root."""
        self._check(vertex)
        if vertex == 0:
            raise GraphError("the root has no parent")
        return (vertex - 1) // self._arity

    def children(self, vertex: int) -> list[int]:
        """The children of ``vertex`` (empty for leaves)."""
        self._check(vertex)
        if vertex >= self._first_leaf:
            return []
        first = self._arity * vertex + 1
        return list(range(first, first + self._arity))

    def is_leaf(self, vertex: int) -> bool:
        self._check(vertex)
        return vertex >= self._first_leaf

    def depth(self, vertex: int) -> int:
        """Distance from the root to ``vertex``: the exact integer
        ``floor(log_d((d - 1) v + 1))``."""
        if not self.has_vertex(vertex):
            raise GraphError(f"vertex {vertex!r} is not in the tree")
        x = (self._arity - 1) * vertex + 1
        if self._log2_arity:
            return (x.bit_length() - 1) // self._log2_arity
        # A float estimate, corrected with exact integer powers: the
        # float alone is off by one near exact powers of d.
        d = self._arity
        j = int(math.log(x, d))
        while d ** j > x:
            j -= 1
        while d ** (j + 1) <= x:
            j += 1
        return j

    def ancestor(self, vertex: int, levels: int) -> int:
        """The ancestor ``levels`` steps above ``vertex`` (``vertex``
        itself for 0): ``(v - start(levels)) // d^levels``. It exists
        exactly when ``v >= start(levels)``, so no depth is needed."""
        self._check(vertex)
        if not 0 <= levels <= self._height:
            raise GraphError(f"vertex {vertex} has no ancestor {levels} levels up")
        first = self._level_start(levels)
        if vertex < first:
            raise GraphError(f"vertex {vertex} has no ancestor {levels} levels up")
        return (vertex - first) // self._arity ** levels

    def ancestor_at_depth(self, vertex: int, depth: int) -> int:
        """The ancestor of ``vertex`` at the given (smaller) depth: for
        ``v`` at depth ``k``, the ancestor ``k - a`` levels up, which
        is ``start(a) + (v - start(k)) // d^(k - a)``."""
        current = self.depth(vertex)
        if depth > current or depth < 0:
            raise GraphError(
                f"vertex {vertex} has depth {current}; no ancestor at depth {depth}"
            )
        return self.ancestor(vertex, current - depth)

    def level_range(self, vertex: int, levels: int) -> range:
        """The descendants of ``vertex`` exactly ``levels`` below it,
        in index order: ``[d^j v + start(j), d^j (v + 1) + start(j))``
        for ``j = levels``, empty below the leaves."""
        self._check(vertex)
        if levels < 0:
            raise GraphError(f"levels must be >= 0, got {levels}")
        span = self._arity ** levels
        first = span * vertex + self._level_start(levels)
        return range(first, min(first + span, self._size))

    def leaves(self) -> Iterator[int]:
        """Iterate over all leaves in index order."""
        return iter(range(self._first_leaf, self._size))

    def path_to_root(self, vertex: int) -> list[int]:
        """The vertex sequence from ``vertex`` up to and including the root."""
        self._check(vertex)
        path = [vertex]
        v = vertex
        while v != 0:
            v = (v - 1) // self._arity
            path.append(v)
        return path

    def distance(self, u: int, v: int) -> int:
        """Tree distance between two vertices (via their LCA)."""
        du, dv = self.depth(u), self.depth(v)
        dist = 0
        while du > dv:
            u = (u - 1) // self._arity
            du -= 1
            dist += 1
        while dv > du:
            v = (v - 1) // self._arity
            dv -= 1
            dist += 1
        while u != v:
            u = (u - 1) // self._arity
            v = (v - 1) // self._arity
            dist += 2
        return dist

    # -- Graph interface -----------------------------------------------------

    def neighbors(self, vertex: Vertex) -> list[int]:
        """The children (left to right), then the parent."""
        if not self.has_vertex(vertex):
            raise GraphError(f"vertex {vertex!r} is not in the tree")
        arity = self._arity
        if vertex >= self._first_leaf:
            nbrs = []
        else:
            first = arity * vertex + 1
            nbrs = list(range(first, first + arity))
        if vertex != 0:
            nbrs.append((vertex - 1) // arity)
        return nbrs

    def has_vertex(self, vertex: Vertex) -> bool:
        return isinstance(vertex, int) and 0 <= vertex < self._size

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """O(1) arithmetic: adjacent iff one is the other's parent."""
        if not (self.has_vertex(u) and self.has_vertex(v)):
            return False
        if u > v:
            u, v = v, u
        return v != 0 and (v - 1) // self._arity == u

    def vertices(self) -> Iterator[int]:
        return iter(range(self._size))

    def __len__(self) -> int:
        return self._size

    def cache_key(self) -> tuple:
        return ("complete-tree", self._arity, self._height)

    def __repr__(self) -> str:
        return f"CompleteTree(arity={self._arity}, height={self._height}, n={self._size})"

    def _check(self, vertex: Vertex) -> None:
        if not self.has_vertex(vertex):
            raise GraphError(f"vertex {vertex!r} is not in the tree")

    def _level_start(self, depth: int) -> int:
        """``start(depth)``: the index of the first vertex at ``depth``."""
        return (self._arity ** depth - 1) // (self._arity - 1)
