"""Analysis layer: radii, ball covers, Steiner trees, tessellations,
and the paper's closed-form bounds."""

from typing import TYPE_CHECKING

from repro import _facade

#: The public names, by defining module; each is imported on its first
#: lookup (:func:`repro._facade`).
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.analysis.ballcover": (
        "ball_cover_corollary2", "ball_cover_greedy", "ball_cover_matching",
        "ball_cover_packing", "ball_cover_path_packing", "is_ball_cover",
        "maximal_ball_packing", "nearest_center_map", "vertex_cover_2approx",
    ),
    "repro.analysis.embedding": (
        "average_proximity", "boustrophedon_linearization", "hilbert_linearization",
        "linearization_blocking", "proximity_blowup", "row_major_linearization",
        "stretch_profile", "tile_major_linearization",
    ),
    "repro.analysis.matching": (
        "find_simple_path", "matching_is_maximal", "maximal_matching",
        "maximal_path_packing",
    ),
    "repro.analysis.neighborhoods": (
        "CompactNeighborhood", "ball", "ball_volume", "breakout_distance",
        "compact_neighborhood",
    ),
    "repro.analysis.radii": (
        "max_ball_volume", "max_radius", "min_ball_volume", "min_radius",
        "radius_extrema", "uniformity_ratio", "vertex_radius",
    ),
    "repro.analysis.steiner": ("SkeletalSteinerTree", "build_skeletal_steiner_tree"),
    "repro.analysis.tessellation": (
        "ShearedTessellation", "Tessellation", "UniformTessellation", "complex_degree",
        "corner_cells_gray_order", "find_complex", "max_complex_degree", "sheared_side",
    ),
    "repro.analysis.validation": (
        "BlockingReport", "validate_against_graph", "validate_blocking",
    ),
}

if TYPE_CHECKING:
    from repro.analysis.ballcover import (
        ball_cover_corollary2 as ball_cover_corollary2,
        ball_cover_greedy as ball_cover_greedy,
        ball_cover_matching as ball_cover_matching,
        ball_cover_packing as ball_cover_packing,
        ball_cover_path_packing as ball_cover_path_packing,
        is_ball_cover as is_ball_cover,
        maximal_ball_packing as maximal_ball_packing,
        nearest_center_map as nearest_center_map,
        vertex_cover_2approx as vertex_cover_2approx,
    )
    from repro.analysis.embedding import (
        average_proximity as average_proximity,
        boustrophedon_linearization as boustrophedon_linearization,
        hilbert_linearization as hilbert_linearization,
        linearization_blocking as linearization_blocking,
        proximity_blowup as proximity_blowup,
        row_major_linearization as row_major_linearization,
        stretch_profile as stretch_profile,
        tile_major_linearization as tile_major_linearization,
    )
    from repro.analysis.matching import (
        find_simple_path as find_simple_path,
        matching_is_maximal as matching_is_maximal,
        maximal_matching as maximal_matching,
        maximal_path_packing as maximal_path_packing,
    )
    from repro.analysis.neighborhoods import (
        CompactNeighborhood as CompactNeighborhood,
        ball as ball,
        ball_volume as ball_volume,
        breakout_distance as breakout_distance,
        compact_neighborhood as compact_neighborhood,
    )
    from repro.analysis.radii import (
        max_ball_volume as max_ball_volume,
        max_radius as max_radius,
        min_ball_volume as min_ball_volume,
        min_radius as min_radius,
        radius_extrema as radius_extrema,
        uniformity_ratio as uniformity_ratio,
        vertex_radius as vertex_radius,
    )
    from repro.analysis.steiner import (
        SkeletalSteinerTree as SkeletalSteinerTree,
        build_skeletal_steiner_tree as build_skeletal_steiner_tree,
    )
    from repro.analysis.tessellation import (
        ShearedTessellation as ShearedTessellation,
        Tessellation as Tessellation,
        UniformTessellation as UniformTessellation,
        complex_degree as complex_degree,
        corner_cells_gray_order as corner_cells_gray_order,
        find_complex as find_complex,
        max_complex_degree as max_complex_degree,
        sheared_side as sheared_side,
    )
    from repro.analysis.validation import (
        BlockingReport as BlockingReport,
        validate_against_graph as validate_against_graph,
        validate_blocking as validate_blocking,
    )
else:
    __getattr__, __dir__, __all__ = _facade(globals(), _EXPORTS)
