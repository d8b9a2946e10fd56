"""Graph substrates: interfaces, concrete families, and traversal."""

from typing import TYPE_CHECKING

from repro import _facade

#: The public names, by defining module; each is imported on its first
#: lookup (:func:`repro._facade`).
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.graphs.adjacency": ("AdjacencyGraph", "subgraph"),
    "repro.graphs.base": ("FiniteGraph", "Graph"),
    "repro.graphs.diagonal": (
        "DiagonalGridGraph", "InfiniteDiagonalGridGraph", "chebyshev_distance",
    ),
    "repro.graphs.directed": ("DirectedAdjacencyGraph", "random_hyperlink_graph"),
    "repro.graphs.generators": (
        "complete_graph", "cycle_graph", "hypercube_graph", "lollipop_graph",
        "path_graph", "random_geometric_graph", "random_regular_graph", "random_tree",
        "star_graph", "torus_graph",
    ),
    "repro.graphs.grid": ("GridGraph", "InfiniteGridGraph", "l1_distance"),
    "repro.graphs.traversal": (
        "BreadthFirstSearch", "bfs_distances", "bfs_spanning_tree",
        "depth_first_circuit", "eccentricity", "is_connected", "nearest_matching",
        "shortest_path",
    ),
    "repro.graphs.tree": ("CompleteTree", "tree_size"),
}

if TYPE_CHECKING:
    from repro.graphs.adjacency import (
        AdjacencyGraph as AdjacencyGraph,
        subgraph as subgraph,
    )
    from repro.graphs.base import FiniteGraph as FiniteGraph, Graph as Graph
    from repro.graphs.diagonal import (
        DiagonalGridGraph as DiagonalGridGraph,
        InfiniteDiagonalGridGraph as InfiniteDiagonalGridGraph,
        chebyshev_distance as chebyshev_distance,
    )
    from repro.graphs.directed import (
        DirectedAdjacencyGraph as DirectedAdjacencyGraph,
        random_hyperlink_graph as random_hyperlink_graph,
    )
    from repro.graphs.generators import (
        complete_graph as complete_graph,
        cycle_graph as cycle_graph,
        hypercube_graph as hypercube_graph,
        lollipop_graph as lollipop_graph,
        path_graph as path_graph,
        random_geometric_graph as random_geometric_graph,
        random_regular_graph as random_regular_graph,
        random_tree as random_tree,
        star_graph as star_graph,
        torus_graph as torus_graph,
    )
    from repro.graphs.grid import (
        GridGraph as GridGraph,
        InfiniteGridGraph as InfiniteGridGraph,
        l1_distance as l1_distance,
    )
    from repro.graphs.traversal import (
        BreadthFirstSearch as BreadthFirstSearch,
        bfs_distances as bfs_distances,
        bfs_spanning_tree as bfs_spanning_tree,
        depth_first_circuit as depth_first_circuit,
        eccentricity as eccentricity,
        is_connected as is_connected,
        nearest_matching as nearest_matching,
        shortest_path as shortest_path,
    )
    from repro.graphs.tree import CompleteTree as CompleteTree, tree_size as tree_size
else:
    __getattr__, __dir__, __all__ = _facade(globals(), _EXPORTS)
