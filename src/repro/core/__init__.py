"""Core external-memory machinery: model, blocks, memory, engine."""

from typing import TYPE_CHECKING

from repro import _facade

#: The public names, by defining module; each is imported on its first
#: lookup (:func:`repro._facade`).
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.core.block": ("Block", "make_block"),
    "repro.core.blocking": ("Blocking", "ExplicitBlocking", "ImplicitBlocking"),
    "repro.core.engine": (
        "Adversary", "MemoryView", "Searcher", "simulate_adversary", "simulate_path",
    ),
    "repro.core.memory": ("Memory", "StrongMemory", "WeakMemory", "make_memory"),
    "repro.core.model": ("ModelParams", "PagingModel"),
    "repro.core.policies": (
        "BlockChoicePolicy", "FirstBlockPolicy", "LargestBlockPolicy",
        "MostUncoveredPolicy",
    ),
    "repro.core.stats": ("SearchTrace",),
}

if TYPE_CHECKING:
    from repro.core.block import Block as Block, make_block as make_block
    from repro.core.blocking import (
        Blocking as Blocking,
        ExplicitBlocking as ExplicitBlocking,
        ImplicitBlocking as ImplicitBlocking,
    )
    from repro.core.engine import (
        Adversary as Adversary,
        MemoryView as MemoryView,
        Searcher as Searcher,
        simulate_adversary as simulate_adversary,
        simulate_path as simulate_path,
    )
    from repro.core.memory import (
        Memory as Memory,
        StrongMemory as StrongMemory,
        WeakMemory as WeakMemory,
        make_memory as make_memory,
    )
    from repro.core.model import ModelParams as ModelParams, PagingModel as PagingModel
    from repro.core.policies import (
        BlockChoicePolicy as BlockChoicePolicy,
        FirstBlockPolicy as FirstBlockPolicy,
        LargestBlockPolicy as LargestBlockPolicy,
        MostUncoveredPolicy as MostUncoveredPolicy,
    )
    from repro.core.stats import SearchTrace as SearchTrace
else:
    __getattr__, __dir__, __all__ = _facade(globals(), _EXPORTS)
