"""Blocking-as-a-service: a concurrent search server over one store.

The ROADMAP's north star is the paper's blocked store serving heavy
traffic. This package is that serving stack in miniature, stdlib-only:

* :mod:`repro.service.stores` — named (graph, blocking, policy,
  params) bundles built once and shared read-only;
* :mod:`repro.service.cache` — the shared block cache: global LRU,
  per-tenant admission/eviction budgets, single-flight fault
  coalescing;
* :mod:`repro.service.requests` — the served unit (a ``CellSpec``-style
  frozen spec naming a workload registry entry) and its single
  execution path;
* :mod:`repro.service.server` — the thread pool, bounded queues with
  typed backpressure, graceful drain, and ``repro.obs`` wiring
  (latency and hit-ratio metrics; the service writes no trace).

Run a seeded load burst from the command line::

    python -m repro.service --store path --clients 4 --requests 8
"""

from typing import TYPE_CHECKING

from repro import _facade

#: The public names, by defining module; each is imported on its first
#: lookup (:func:`repro._facade`).
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.service.cache": (
        "COALESCED", "HIT", "MISS", "CachedBlocking", "CacheStats", "SharedBlockCache",
    ),
    "repro.service.requests": ("WORKLOADS", "RequestSpec", "run_request"),
    "repro.service.server": (
        "RequestOutcome", "SearchService", "ServiceConfig", "TenantConfig",
    ),
    "repro.service.stores": (
        "STORE_FAMILIES", "ServiceStore", "StoreSpec", "build_store",
    ),
}

if TYPE_CHECKING:
    from repro.service.cache import (
        COALESCED as COALESCED,
        HIT as HIT,
        MISS as MISS,
        CachedBlocking as CachedBlocking,
        CacheStats as CacheStats,
        SharedBlockCache as SharedBlockCache,
    )
    from repro.service.requests import (
        WORKLOADS as WORKLOADS,
        RequestSpec as RequestSpec,
        run_request as run_request,
    )
    from repro.service.server import (
        RequestOutcome as RequestOutcome,
        SearchService as SearchService,
        ServiceConfig as ServiceConfig,
        TenantConfig as TenantConfig,
    )
    from repro.service.stores import (
        STORE_FAMILIES as STORE_FAMILIES,
        ServiceStore as ServiceStore,
        StoreSpec as StoreSpec,
        build_store as build_store,
    )
else:
    __getattr__, __dir__, __all__ = _facade(globals(), _EXPORTS)
