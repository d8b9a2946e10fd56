"""The thread-pool search service.

``SearchService`` runs many client searches against one shared blocked
store: a fixed pool of worker threads drains a bounded queue of
:class:`~repro.service.requests.RequestSpec`s, every request plays the
paper's game with a fresh private memory, and all block reads funnel
through one :class:`~repro.service.cache.SharedBlockCache` (per-tenant
budgets, single-flight fault coalescing).

Backpressure is typed and synchronous — ``submit`` never blocks and
never silently drops:

* the global queue is full → :class:`~repro.errors.ServiceOverloadError`
  (``scope="global"``);
* the tenant already has ``max_pending`` requests in the system →
  :class:`~repro.errors.ServiceOverloadError` (``scope="tenant"``);
* the service is draining → :class:`~repro.errors.ServiceClosedError`;
* a block can never fit the tenant's cache budget →
  :class:`~repro.errors.TenantBudgetError` (delivered through the
  request's future, since it surfaces mid-search).

Latency is accounted in *modeled work units* — steps plus a configured
cost per disk read (hits are near-free) — so percentiles are
deterministic for a deterministic schedule and machine-independent,
like every other statistic in this repository. Wall-clock throughput
belongs to the benchmarks.
"""

from __future__ import annotations

import math
import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Sequence

from repro.errors import (
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
    TenantBudgetError,
)
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import CacheStats, SharedBlockCache
from repro.service.requests import RequestSpec, run_request
from repro.service.stores import ServiceStore


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's bounds.

    ``cache_blocks`` is the cache budget in blocks of the store's
    ``B`` (``cache_copies`` overrides it with an exact copy count —
    mainly for tests that force a budget smaller than one block);
    ``max_pending`` bounds the tenant's queued + running requests.
    """

    name: str
    cache_blocks: int = 4
    cache_copies: int | None = None
    max_pending: int = 8

    def budget_copies(self, block_size: int) -> int:
        if self.cache_copies is not None:
            return self.cache_copies
        return self.cache_blocks * block_size


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide knobs (all bounds, no wall-clock)."""

    workers: int = 2
    queue_bound: int = 32
    cache_blocks: int = 8
    read_cost: float = 10.0
    hit_cost: float = 1.0


@dataclass(frozen=True)
class RequestOutcome:
    """What one completed request cost."""

    spec: RequestSpec
    steps: int
    faults: int
    hits: int
    misses: int
    coalesced: int
    latency: float


class SearchService:
    """See the module docstring. Construction starts the worker pool;
    call :meth:`drain` exactly once to stop it."""

    def __init__(
        self,
        store: ServiceStore,
        tenants: Sequence[TenantConfig],
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.config = config if config is not None else ServiceConfig()
        if self.config.workers < 1:
            raise ServiceError(f"need >= 1 worker, got {self.config.workers}")
        # queue.Queue reads a bound below 1 as "unbounded", which would
        # leave the global shed unreachable.
        if self.config.queue_bound < 1:
            raise ServiceError(
                f"need a queue bound >= 1, got {self.config.queue_bound}"
            )
        # A latency is a sum of these costs: a negative one would order
        # requests wrongly, and NaN or infinity would leave the summary
        # with no valid JSON number.
        for name in ("read_cost", "hit_cost"):
            cost = getattr(self.config, name)
            if not (math.isfinite(cost) and cost >= 0):
                raise ServiceError(f"need a finite {name} >= 0, got {cost}")
        if not tenants:
            raise ServiceError("need at least one tenant")
        block_size = store.params.block_size
        self.cache = SharedBlockCache(self.config.cache_blocks * block_size)
        self.tenants: dict[str, TenantConfig] = {}
        for tenant in tenants:
            if tenant.name in self.tenants:
                raise ServiceError(f"duplicate tenant {tenant.name!r}")
            self.tenants[tenant.name] = tenant
            self.cache.register_tenant(
                tenant.name, tenant.budget_copies(block_size)
            )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queue: "queue.Queue[tuple[RequestSpec, Future[RequestOutcome]] | None]" = (
            queue.Queue(maxsize=self.config.queue_bound)
        )
        self._state_lock = threading.Lock()
        self._pending: dict[str, int] = {name: 0 for name in self.tenants}
        self._closed = False
        self._drained = False
        # Instruments exist from the start so two identical bursts
        # produce byte-identical snapshots even when a family (sheds,
        # errors) never fires.
        for name in (
            "service_submitted",
            "service_completed",
            "service_errors",
            "service_cache_hits",
            "service_cache_misses",
            "service_cache_coalesced",
            "service_cache_evictions",
        ):
            self.metrics.counter(name)
        self.metrics.labeled_counter("service_requests_by_tenant")
        self.metrics.labeled_counter("service_shed")
        for name in ("service_latency", "service_steps", "service_faults"):
            self.metrics.histogram(name)
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"search-worker-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- client API --------------------------------------------------------

    def submit(self, spec: RequestSpec) -> "Future[RequestOutcome]":
        """Enqueue a request; returns its future.

        Raises (synchronously, without enqueueing) when the service is
        draining or a queue bound is hit — see the module docstring.
        """
        tenant = self.tenants.get(spec.tenant)
        if tenant is None:
            raise ServiceError(f"unknown tenant {spec.tenant!r}")
        # Admission is decided entirely under the state lock (so a
        # drain cannot slip between the closed check and the pending
        # bump), but shedding — a metrics update, i.e. another lock —
        # happens strictly after release.
        shed_reason: str | None = None
        with self._state_lock:
            if self._closed:
                shed_reason = "closed"
            elif self._pending[spec.tenant] >= tenant.max_pending:
                shed_reason = "tenant-queue-full"
            else:
                self._pending[spec.tenant] += 1
        if shed_reason == "closed":
            self._shed(shed_reason)
            raise ServiceClosedError(
                f"service is draining; request {spec.name!r} rejected"
            )
        if shed_reason is not None:
            self._shed(shed_reason)
            raise ServiceOverloadError(
                f"tenant {spec.tenant!r} already has "
                f"{tenant.max_pending} requests pending",
                tenant=spec.tenant,
                scope="tenant",
            )
        future: "Future[RequestOutcome]" = Future()
        try:
            self._queue.put_nowait((spec, future))
        except queue.Full:
            with self._state_lock:
                self._pending[spec.tenant] -= 1
            self._shed("queue-full")
            raise ServiceOverloadError(
                f"service queue is full ({self.config.queue_bound}); "
                f"request {spec.name!r} rejected",
                tenant=spec.tenant,
                scope="global",
            ) from None
        self.metrics.counter("service_submitted").inc()
        return future

    def drain(self) -> CacheStats:
        """Graceful shutdown: stop admitting, finish everything queued,
        stop the workers, and fold the cache's final counters into the
        metrics registry. Idempotent; returns the final cache stats."""
        # Check-and-set under the lock so exactly one caller posts the
        # worker sentinels (two racing drains used to both enqueue N
        # Nones, leaving stale sentinels in the queue); the blocking
        # puts and joins run after release. Every caller joins, so a
        # second drain also returns only once the pool has stopped.
        with self._state_lock:
            self._closed = True
            first_drain = not self._drained
            self._drained = True
        if first_drain:
            for _ in self._workers:
                self._queue.put(None)
        for worker in self._workers:
            worker.join()
        stats = self.cache.stats()
        gauge = self.metrics.gauge
        gauge("service_cache_resident_blocks").set(stats.resident_blocks)
        gauge("service_cache_resident_copies").set(stats.resident_copies)
        gauge("service_cache_disk_reads").set(stats.disk_reads)
        counter = self.metrics.counter("service_cache_evictions")
        counter.inc(stats.evictions - counter.snapshot())
        hit_ratio = stats.hit_ratio
        if hit_ratio is not None:
            gauge("service_cache_hit_ratio").set(hit_ratio)
        return stats

    def summary(self) -> dict[str, object]:
        """A JSON-ready operational summary (latency percentiles, hit
        ratio, sheds). Most useful after :meth:`drain`."""
        stats = self.cache.stats()
        latency = self.metrics.histogram("service_latency")
        shed = self.metrics.labeled_counter("service_shed")
        return {
            "store": self.store.spec.family,
            "requests_completed": self.metrics.counter(
                "service_completed"
            ).snapshot(),
            "requests_errored": self.metrics.counter(
                "service_errors"
            ).snapshot(),
            "shed": dict(sorted(shed.snapshot().items())),
            "cache": {
                "accesses": stats.accesses,
                "hits": stats.hits,
                "misses": stats.misses,
                "coalesced": stats.coalesced,
                "disk_reads": stats.disk_reads,
                "evictions": stats.evictions,
                "hit_ratio": stats.hit_ratio,
            },
            "latency": latency.percentiles((50.0, 90.0, 99.0)),
            "steps": self.metrics.histogram("service_steps").percentiles(
                (50.0, 90.0, 99.0)
            ),
        }

    # -- internals ---------------------------------------------------------

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                spec, future = item
                self._serve(spec, future)
            finally:
                self._queue.task_done()

    def _serve(self, spec: RequestSpec, future: "Future[RequestOutcome]") -> None:
        try:
            trace, facade = run_request(self.store, spec, self.cache)
        except TenantBudgetError as exc:
            self._shed("budget")
            self._finish_error(spec, exc, future)
            return
        except ReproError as exc:
            self._finish_error(spec, exc, future)
            return
        # Propagated to the submitter through the future, not swallowed:
        # a worker thread must never die and strand its queue slot.
        except BaseException as exc:  # lint: ignore[RL006] # pragma: no cover
            self.metrics.counter("service_errors").inc()
            future.set_exception(exc)
            self._release(spec)
            return
        assert facade is not None
        cfg = self.config
        latency = (
            trace.steps
            + cfg.read_cost * (facade.misses + facade.coalesced)
            + cfg.hit_cost * facade.hits
        )
        self.metrics.counter("service_completed").inc()
        self.metrics.labeled_counter("service_requests_by_tenant").inc(
            spec.tenant
        )
        self.metrics.counter("service_cache_hits").inc(facade.hits)
        self.metrics.counter("service_cache_misses").inc(facade.misses)
        self.metrics.counter("service_cache_coalesced").inc(facade.coalesced)
        self.metrics.histogram("service_latency").observe(latency)
        self.metrics.histogram("service_steps").observe(trace.steps)
        self.metrics.histogram("service_faults").observe(trace.faults)
        self._release(spec)
        future.set_result(
            RequestOutcome(
                spec=spec,
                steps=trace.steps,
                faults=trace.faults,
                hits=facade.hits,
                misses=facade.misses,
                coalesced=facade.coalesced,
                latency=latency,
            )
        )

    def _finish_error(
        self,
        spec: RequestSpec,
        exc: ReproError,
        future: "Future[RequestOutcome]",
    ) -> None:
        self.metrics.counter("service_errors").inc()
        self._release(spec)
        future.set_exception(exc)

    def _release(self, spec: RequestSpec) -> None:
        with self._state_lock:
            self._pending[spec.tenant] -= 1

    def _shed(self, reason: str) -> None:
        self.metrics.labeled_counter("service_shed").inc(reason)
