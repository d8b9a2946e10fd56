"""Paging strategies: eviction disciplines, off-line paging, laziness."""

from typing import TYPE_CHECKING

from repro import _facade

#: The public names, by defining module; each is imported on its first
#: lookup (:func:`repro._facade`).
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.paging.belady": ("belady_trace", "competitive_ratio"),
    "repro.paging.eviction": (
        "EvictAllPolicy", "EvictionPolicy", "FifoCopiesEviction", "LruEviction",
        "default_eviction",
    ),
    "repro.paging.lazy": (
        "Op", "OpKind", "count_reads", "flush", "is_lazy", "lazify", "read",
        "schedule_from_trace", "validate_schedule",
    ),
    "repro.paging.marking": ("MarkingEviction",),
    "repro.paging.offline": ("OfflineWindowPolicy", "path_windows_blocking"),
    "repro.paging.optimal": ("optimal_offline_faults", "policy_optimality_gap"),
}

if TYPE_CHECKING:
    from repro.paging.belady import (
        belady_trace as belady_trace,
        competitive_ratio as competitive_ratio,
    )
    from repro.paging.eviction import (
        EvictAllPolicy as EvictAllPolicy,
        EvictionPolicy as EvictionPolicy,
        FifoCopiesEviction as FifoCopiesEviction,
        LruEviction as LruEviction,
        default_eviction as default_eviction,
    )
    from repro.paging.lazy import (
        Op as Op,
        OpKind as OpKind,
        count_reads as count_reads,
        flush as flush,
        is_lazy as is_lazy,
        lazify as lazify,
        read as read,
        schedule_from_trace as schedule_from_trace,
        validate_schedule as validate_schedule,
    )
    from repro.paging.marking import MarkingEviction as MarkingEviction
    from repro.paging.offline import (
        OfflineWindowPolicy as OfflineWindowPolicy,
        path_windows_blocking as path_windows_blocking,
    )
    from repro.paging.optimal import (
        optimal_offline_faults as optimal_offline_faults,
        policy_optimality_gap as policy_optimality_gap,
    )
else:
    __getattr__, __dir__, __all__ = _facade(globals(), _EXPORTS)
