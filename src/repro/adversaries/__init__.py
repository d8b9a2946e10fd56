"""Adversarial path generators — the paper's upper-bound constructions."""

from typing import TYPE_CHECKING

from repro import _facade

#: The public names, by defining module; each is imported on its first
#: lookup (:func:`repro._facade`).
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.adversaries.complex_adversary": (
        "CornerLoopAdversary", "UniformCornerAdversary",
    ),
    "repro.adversaries.corridor": (
        "DiagonalCorridorAdversary", "GridCorridorAdversary",
    ),
    "repro.adversaries.greedy": ("GreedyUncoveredAdversary",),
    "repro.adversaries.random_walk": ("RandomWalkAdversary",),
    "repro.adversaries.tour": (
        "CycleAdversary", "SpanningTreeCircuitAdversary", "SteinerTourAdversary",
    ),
    "repro.adversaries.tree_adversary": ("RootLeafAdversary",),
}

if TYPE_CHECKING:
    from repro.adversaries.complex_adversary import (
        CornerLoopAdversary as CornerLoopAdversary,
        UniformCornerAdversary as UniformCornerAdversary,
    )
    from repro.adversaries.corridor import (
        DiagonalCorridorAdversary as DiagonalCorridorAdversary,
        GridCorridorAdversary as GridCorridorAdversary,
    )
    from repro.adversaries.greedy import (
        GreedyUncoveredAdversary as GreedyUncoveredAdversary,
    )
    from repro.adversaries.random_walk import RandomWalkAdversary as RandomWalkAdversary
    from repro.adversaries.tour import (
        CycleAdversary as CycleAdversary,
        SpanningTreeCircuitAdversary as SpanningTreeCircuitAdversary,
        SteinerTourAdversary as SteinerTourAdversary,
    )
    from repro.adversaries.tree_adversary import RootLeafAdversary as RootLeafAdversary
else:
    __getattr__, __dir__, __all__ = _facade(globals(), _EXPORTS)
