"""The paper's blocking constructions."""

from typing import TYPE_CHECKING

from repro import _facade

#: The public names, by defining module; each is imported on its first
#: lookup (:func:`repro._facade`).
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.blockings.clip": ("clip_blocking",),
    "repro.blockings.grid_blocking": (
        "DiagonalNeighborhoodBlocking", "GridNeighborhoodBlocking",
        "diagonal_lemma13_blocking", "grid_lemma13_blocking", "TessellationBlocking",
        "contiguous_1d_blocking", "grid_block_side", "offset_1d_blocking",
        "offset_grid_blocking", "sheared_grid_blocking", "uniform_grid_blocking",
    ),
    "repro.blockings.neighborhood_blocking": (
        "NearestCenterPolicy", "compact_neighborhood_blocking", "lemma13_blocking",
        "theorem4_blocking", "theorem6_blocking",
    ),
    "repro.blockings.paths_blocking": ("OfflineWalkPolicy", "all_walks_blocking"),
    "repro.blockings.policies": (
        "FarthestFaultPolicy", "MostInteriorPolicy", "OtherCopyPolicy",
    ),
    "repro.blockings.tree_blocking": (
        "TreeStrataBlocking", "naive_subtree_blocking", "overlapped_tree_blocking",
        "tree_block_levels",
    ),
    "repro.blockings.union": ("UnionBlocking",),
}

if TYPE_CHECKING:
    from repro.blockings.clip import clip_blocking as clip_blocking
    from repro.blockings.grid_blocking import (
        DiagonalNeighborhoodBlocking as DiagonalNeighborhoodBlocking,
        GridNeighborhoodBlocking as GridNeighborhoodBlocking,
        diagonal_lemma13_blocking as diagonal_lemma13_blocking,
        grid_lemma13_blocking as grid_lemma13_blocking,
        TessellationBlocking as TessellationBlocking,
        contiguous_1d_blocking as contiguous_1d_blocking,
        grid_block_side as grid_block_side,
        offset_1d_blocking as offset_1d_blocking,
        offset_grid_blocking as offset_grid_blocking,
        sheared_grid_blocking as sheared_grid_blocking,
        uniform_grid_blocking as uniform_grid_blocking,
    )
    from repro.blockings.neighborhood_blocking import (
        NearestCenterPolicy as NearestCenterPolicy,
        compact_neighborhood_blocking as compact_neighborhood_blocking,
        lemma13_blocking as lemma13_blocking,
        theorem4_blocking as theorem4_blocking,
        theorem6_blocking as theorem6_blocking,
    )
    from repro.blockings.paths_blocking import (
        OfflineWalkPolicy as OfflineWalkPolicy,
        all_walks_blocking as all_walks_blocking,
    )
    from repro.blockings.policies import (
        FarthestFaultPolicy as FarthestFaultPolicy,
        MostInteriorPolicy as MostInteriorPolicy,
        OtherCopyPolicy as OtherCopyPolicy,
    )
    from repro.blockings.tree_blocking import (
        TreeStrataBlocking as TreeStrataBlocking,
        naive_subtree_blocking as naive_subtree_blocking,
        overlapped_tree_blocking as overlapped_tree_blocking,
        tree_block_levels as tree_block_levels,
    )
    from repro.blockings.union import UnionBlocking as UnionBlocking
else:
    __getattr__, __dir__, __all__ = _facade(globals(), _EXPORTS)
