"""The shared block cache: one resident block pool for many searches.

The paper's model gives every searcher a private memory of ``M`` vertex
copies; the service keeps that per-run model intact (each request still
plays the Section 2 game against a fresh
:class:`~repro.core.memory.WeakMemory`) and adds **one more level of
the hierarchy** behind it: a process-wide block cache shared by every
request and tenant. A per-run fault that misses the private memory no
longer always costs a disk read — if any other request recently pulled
the block, it is served from the shared pool. The governing statistic
shifts from per-run fault counts to the shared cache's *hit ratio*,
exactly the lens of the semi-external-BFS and hierarchy-layout lines of
work cited in PAPERS.md.

Three mechanisms live here, all under one lock:

* **Global LRU over block copies.** Residency is charged in vertex
  copies (``len(block)``, the same unit as the model's ``M``);
  ``capacity`` bounds the total and the least-recently-used block is
  evicted when a new one does not fit.
* **Per-tenant charging and budgets.** Every tenant that touches a
  block is *charged* its full size (a copy shared by two tenants costs
  both — admission is per-tenant, so one tenant cannot squat on
  capacity another paid for). A tenant over budget sheds its own
  least-recently-used charge; a block nobody charges any more leaves
  the cache. A single block larger than the tenant's whole budget can
  never be admitted — that raises the typed
  :class:`~repro.errors.TenantBudgetError` instead of thrashing.
* **Single-flight fault coalescing.** A miss installs an in-flight
  marker before releasing the lock to read; concurrent requests
  faulting on the same block wait on the marker and share the one read
  instead of issuing their own. ``stats().coalesced`` counts the waits
  that were spared a disk read.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.core.block import Block
from repro.core.blocking import Blocking, Members
from repro.errors import ServiceError, TenantBudgetError
from repro.typing import BlockId, Vertex

#: Outcomes of one :meth:`SharedBlockCache.fetch`.
HIT = "hit"
MISS = "miss"
COALESCED = "coalesced"


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of the shared cache's counters.

    ``accesses = hits + misses + coalesced``; ``disk_reads == misses``
    (every non-coalesced miss costs exactly one loader call).
    """

    accesses: int
    hits: int
    misses: int
    coalesced: int
    disk_reads: int
    evictions: int
    resident_blocks: int
    resident_copies: int

    @property
    def hit_ratio(self) -> float | None:
        """Hits per access, counting coalesced waits as hits (they cost
        no disk read); ``None`` before any access."""
        if self.accesses == 0:
            return None
        return (self.hits + self.coalesced) / self.accesses


class SharedBlockCache:
    """A thread-safe LRU block cache with tenant budgets and
    single-flight coalescing. See the module docstring for semantics."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1 copy, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        # Insertion order doubles as the global LRU order (refreshed by
        # delete + reinsert); dicts-as-ordered-sets keep per-tenant and
        # per-block charge books in use order without hash-order leaks.
        self._resident: dict[BlockId, Block] = {}
        self._chargers: dict[BlockId, dict[str, None]] = {}
        self._tenant_blocks: dict[str, dict[BlockId, None]] = {}
        self._tenant_used: dict[str, int] = {}
        self._budgets: dict[str, int] = {}
        self._inflight: dict[BlockId, threading.Event] = {}
        self._used = 0
        self._hits = 0
        self._misses = 0
        self._coalesced = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def register_tenant(self, tenant: str, budget: int) -> None:
        """Declare a tenant and its cache budget (in vertex copies)."""
        if budget < 1:
            raise ServiceError(
                f"tenant {tenant!r} budget must be >= 1 copy, got {budget}"
            )
        with self._lock:
            self._budgets[tenant] = budget
            self._tenant_blocks.setdefault(tenant, {})
            self._tenant_used.setdefault(tenant, 0)

    def fetch(
        self, block_id: BlockId, tenant: str, loader: Callable[[], Block]
    ) -> tuple[Block, str]:
        """The block, plus how it was obtained (hit/miss/coalesced).

        On a miss this thread performs the read itself (outside the
        lock); concurrent fetches of the same block wait on the
        in-flight marker and re-check residency — they never issue a
        second read unless the block was evicted again in between.
        """
        waited = False
        while True:
            with self._lock:
                if tenant not in self._budgets:
                    raise ServiceError(f"unknown tenant {tenant!r}")
                block = self._resident.get(block_id)
                if block is not None:
                    self._touch(block_id, tenant, block)
                    if waited:
                        self._coalesced += 1
                        return block, COALESCED
                    self._hits += 1
                    return block, HIT
                marker = self._inflight.get(block_id)
                if marker is None:
                    marker = threading.Event()
                    self._inflight[block_id] = marker
                    loading = True
                else:
                    loading = False
            if not loading:
                marker.wait()
                waited = True
                continue
            try:
                block = loader()
            except BaseException:
                with self._lock:
                    del self._inflight[block_id]
                marker.set()
                raise
            with self._lock:
                try:
                    self._misses += 1
                    self._admit(block_id, tenant, block)
                finally:
                    del self._inflight[block_id]
                    marker.set()
            return block, MISS

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                accesses=self._hits + self._misses + self._coalesced,
                hits=self._hits,
                misses=self._misses,
                coalesced=self._coalesced,
                disk_reads=self._misses,
                evictions=self._evictions,
                resident_blocks=len(self._resident),
                resident_copies=self._used,
            )

    # -- internals (caller holds the lock) --------------------------------

    def _touch(self, block_id: BlockId, tenant: str, block: Block) -> None:
        """Refresh global and tenant LRU orders; charge the tenant if
        this is its first touch of the block."""
        del self._resident[block_id]
        self._resident[block_id] = block
        charged = self._chargers.setdefault(block_id, {})
        mine = self._tenant_blocks[tenant]
        if tenant not in charged:
            self._charge(block_id, tenant, len(block), protect=block_id)
        else:
            del mine[block_id]
            mine[block_id] = None

    def _admit(self, block_id: BlockId, tenant: str, block: Block) -> None:
        size = len(block)
        if size > self._capacity:
            raise ServiceError(
                f"block {block_id!r} holds {size} copies, more than the "
                f"whole cache capacity {self._capacity}"
            )
        self._resident[block_id] = block
        self._used += size
        self._chargers[block_id] = {}
        try:
            self._charge(block_id, tenant, size, protect=block_id)
        except TenantBudgetError:
            # Nobody pays for the block, so it does not stay resident.
            self._evict(block_id)
            raise
        while self._used > self._capacity:
            victim = self._lru_victim(exclude=block_id)
            if victim is None:
                break
            self._evict(victim)

    def _charge(
        self, block_id: BlockId, tenant: str, size: int, protect: BlockId
    ) -> None:
        budget = self._budgets[tenant]
        if size > budget:
            raise TenantBudgetError(
                f"block {block_id!r} holds {size} copies but tenant "
                f"{tenant!r} has a budget of {budget}; it can never be "
                f"admitted",
                tenant=tenant,
            )
        self._chargers[block_id][tenant] = None
        mine = self._tenant_blocks[tenant]
        mine[block_id] = None
        self._tenant_used[tenant] += size
        while self._tenant_used[tenant] > budget:
            victim = next((bid for bid in mine if bid != protect), None)
            if victim is None:
                break
            self._discharge(victim, tenant)

    def _discharge(self, block_id: BlockId, tenant: str) -> None:
        """Drop one tenant's charge; evict the block entirely once no
        tenant is paying for it."""
        del self._tenant_blocks[tenant][block_id]
        self._tenant_used[tenant] -= len(self._resident[block_id])
        chargers = self._chargers[block_id]
        del chargers[tenant]
        if not chargers:
            self._evict(block_id)

    def _evict(self, block_id: BlockId) -> None:
        block = self._resident.pop(block_id)
        size = len(block)
        self._used -= size
        for tenant in list(self._chargers.pop(block_id, {})):
            del self._tenant_blocks[tenant][block_id]
            self._tenant_used[tenant] -= size
        self._evictions += 1

    def _lru_victim(self, exclude: BlockId) -> BlockId | None:
        return next((bid for bid in self._resident if bid != exclude), None)


class CachedBlocking(Blocking):
    """A :class:`~repro.core.blocking.Blocking` façade routing block
    reads through a :class:`SharedBlockCache` on behalf of one tenant.

    One instance per request: the engine needs no changes (``_fault``
    already calls ``blocking.block``), and the per-instance counters
    give the request's own hit/miss/coalesced tally for latency
    accounting and the per-request trace event.
    """

    def __init__(
        self, inner: Blocking, cache: SharedBlockCache, tenant: str
    ) -> None:
        self._inner = inner
        self._cache = cache
        self._tenant = tenant
        self.hits = 0
        self.misses = 0
        self.coalesced = 0

    @property
    def block_size(self) -> int:
        return self._inner.block_size

    def blocks_for(self, vertex: Vertex) -> tuple[BlockId, ...]:
        return self._inner.blocks_for(vertex)

    def block(self, block_id: BlockId) -> Block:
        block, outcome = self._cache.fetch(
            block_id, self._tenant, lambda: self._inner.block(block_id)
        )
        if outcome == HIT:
            self.hits += 1
        elif outcome == MISS:
            self.misses += 1
        else:
            self.coalesced += 1
        return block

    def members(self, block_id: BlockId) -> Members:
        # Ranking a candidate is not a block read: it bypasses the
        # shared cache and leaves the tenant's tally alone.
        return self._inner.members(block_id)

    def storage_blowup(self) -> float:
        return self._inner.storage_blowup()

    def __getattr__(self, name: str) -> object:
        # Construction-specific extras (``interior_distance``, stratum
        # queries, ...) pass through to the wrapped blocking so choice
        # policies written against a concrete blocking keep working.
        return getattr(self._inner, name)
