"""Blocking-as-a-service: the concurrent search server.

The acceptance criteria under test, straight from the issue:

* a seeded closed-loop burst of N concurrent clients over one shared
  cache performs measurably fewer total block reads than the same N
  streams run serially in isolation (sharing + coalescing);
* p50/p90/p99 request latency and the cache hit ratio are reported
  through ``repro.obs`` instruments;
* when a tenant budget or queue bound is hit the service sheds load
  with a *typed* error — never a deadlock, never a silent drop;
* the lockstep closed loop is deterministic: two identical bursts
  produce identical metrics snapshots (the CI smoke's byte-diff).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.block import Block
from repro.core.blocking import Blocking
from repro.errors import (
    ModelError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
    TenantBudgetError,
)
from repro.experiments.loadgen import (
    LoadSpec,
    closed_loop,
    closed_loop_threaded,
    generate_requests,
    isolated_block_reads,
    open_loop,
    zipf_sampler,
)
from repro.obs import MetricsRegistry
from repro.obs.report import service_summary
from repro.service import (
    COALESCED,
    HIT,
    MISS,
    CachedBlocking,
    RequestSpec,
    SearchService,
    ServiceConfig,
    SharedBlockCache,
    StoreSpec,
    TenantConfig,
    build_store,
    run_request,
)

import random


SMALL_STORE = StoreSpec(family="path", block_size=8, memory_blocks=2, size=64, seed=1)


def wait_until(predicate, timeout=10.0):
    """Poll a condition with a hard deadline — test-only scaffolding."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("timed out waiting for condition")
        time.sleep(0.001)


# -- the shared cache ---------------------------------------------------


class TestSharedBlockCache:
    def make(self, capacity=64, tenants=(("t", 64),)):
        cache = SharedBlockCache(capacity)
        for name, budget in tenants:
            cache.register_tenant(name, budget)
        return cache

    def loader_for(self, store, block_id):
        return lambda: store.blocking.block(block_id)

    def test_hit_after_miss(self):
        store = build_store(SMALL_STORE)
        cache = self.make()
        bid = store.blocking.blocks_for(store.vertices[0])[0]
        block, outcome = cache.fetch(bid, "t", self.loader_for(store, bid))
        assert outcome == MISS
        again, outcome2 = cache.fetch(bid, "t", self.loader_for(store, bid))
        assert outcome2 == HIT
        assert again is block
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.disk_reads) == (1, 1, 1)
        assert stats.hit_ratio == 0.5

    def test_global_lru_eviction(self):
        store = build_store(SMALL_STORE)
        # Room for exactly two 8-copy blocks.
        cache = self.make(capacity=16, tenants=(("t", 16),))
        bids = [
            store.blocking.blocks_for(store.vertices[rank * 8])[0]
            for rank in range(3)
        ]
        for bid in bids:
            cache.fetch(bid, "t", self.loader_for(store, bid))
        stats = cache.stats()
        assert stats.evictions >= 1
        assert stats.resident_copies <= 16
        # The most recent block must still be resident.
        _, outcome = cache.fetch(bids[-1], "t", self.loader_for(store, bids[-1]))
        assert outcome == HIT

    def test_tenant_budget_sheds_own_lru_not_others(self):
        store = build_store(SMALL_STORE)
        cache = self.make(capacity=64, tenants=(("a", 8), ("b", 64)))
        bids = [
            store.blocking.blocks_for(store.vertices[rank * 8])[0]
            for rank in range(3)
        ]
        cache.fetch(bids[0], "b", self.loader_for(store, bids[0]))
        cache.fetch(bids[1], "a", self.loader_for(store, bids[1]))
        # Tenant a's budget holds one block; its second block evicts its
        # first, while b's untouched block stays resident.
        cache.fetch(bids[2], "a", self.loader_for(store, bids[2]))
        _, outcome_b = cache.fetch(bids[0], "b", self.loader_for(store, bids[0]))
        assert outcome_b == HIT
        _, outcome_a = cache.fetch(bids[1], "a", self.loader_for(store, bids[1]))
        assert outcome_a == MISS

    def test_block_bigger_than_tenant_budget_is_typed(self):
        store = build_store(SMALL_STORE)
        cache = self.make(capacity=64, tenants=(("tiny", 4),))
        bid = store.blocking.blocks_for(store.vertices[0])[0]
        with pytest.raises(TenantBudgetError) as exc_info:
            cache.fetch(bid, "tiny", self.loader_for(store, bid))
        assert exc_info.value.tenant == "tiny"
        # The unpaid-for block must not squat in the cache.
        assert cache.stats().resident_blocks == 0

    def test_unknown_tenant_is_typed(self):
        cache = self.make()
        with pytest.raises(ServiceError):
            cache.fetch((0,), "ghost", lambda: Block((0,), ((0,),)))

    def test_single_flight_coalescing(self):
        store = build_store(SMALL_STORE)
        cache = self.make()
        bid = store.blocking.blocks_for(store.vertices[0])[0]
        started, release = threading.Event(), threading.Event()

        def slow_loader():
            started.set()
            assert release.wait(timeout=10)
            return store.blocking.block(bid)

        def forbidden_loader():
            raise AssertionError("a waiter must never issue its own read")

        outcomes, outcomes_lock = [], threading.Lock()

        def fetch(loader):
            _, outcome = cache.fetch(bid, "t", loader)
            with outcomes_lock:
                outcomes.append(outcome)

        leader = threading.Thread(target=fetch, args=(slow_loader,))
        leader.start()
        wait_until(started.is_set)
        marker = cache._inflight[bid]
        waiters = [
            threading.Thread(target=fetch, args=(forbidden_loader,))
            for _ in range(4)
        ]
        for waiter in waiters:
            waiter.start()
        # Every waiter parked on the in-flight marker before the read
        # completes -> all four are coalesced, deterministically.
        wait_until(lambda: len(marker._cond._waiters) == 4)
        release.set()
        leader.join()
        for waiter in waiters:
            waiter.join()
        assert sorted(outcomes) == [COALESCED] * 4 + [MISS]
        stats = cache.stats()
        assert stats.disk_reads == 1
        assert stats.coalesced == 4

    def test_failed_load_releases_the_marker(self):
        store = build_store(SMALL_STORE)
        cache = self.make()
        bid = store.blocking.blocks_for(store.vertices[0])[0]

        def broken_loader():
            raise ServiceError("disk said no")

        with pytest.raises(ServiceError):
            cache.fetch(bid, "t", broken_loader)
        # The marker is gone, so the retry loads fresh instead of
        # waiting forever on a dead read.
        _, outcome = cache.fetch(bid, "t", self.loader_for(store, bid))
        assert outcome == MISS

    def test_cached_blocking_delegates_extras(self):
        store = build_store(SMALL_STORE)
        cache = self.make()
        facade = CachedBlocking(store.blocking, cache, "t")
        assert facade.block_size == store.blocking.block_size
        assert facade.storage_blowup() == store.blocking.storage_blowup()
        # Attributes the facade does not define fall through to the
        # wrapped blocking (policies probe for construction extras).
        assert facade.num_blocks == store.blocking.num_blocks


# -- backpressure, sheds, drain ----------------------------------------


class GatedBlocking(Blocking):
    """A blocking whose reads park until released — lets a test hold a
    worker mid-request and probe the queue bounds deterministically."""

    def __init__(self, inner: Blocking) -> None:
        self._inner = inner
        self.started = threading.Event()
        self.release = threading.Event()

    @property
    def block_size(self) -> int:
        return self._inner.block_size

    def blocks_for(self, vertex):
        return self._inner.blocks_for(vertex)

    def block(self, block_id):
        self.started.set()
        assert self.release.wait(timeout=10)
        return self._inner.block(block_id)

    def storage_blowup(self) -> float:
        return self._inner.storage_blowup()


class TestBackpressure:
    def gated_service(self):
        store = build_store(SMALL_STORE)
        gated = GatedBlocking(store.blocking)
        service = SearchService(
            dataclasses.replace(store, blocking=gated),
            [
                TenantConfig("alpha", max_pending=2),
                TenantConfig("beta", max_pending=8),
            ],
            ServiceConfig(workers=1, queue_bound=1),
        )
        return service, gated

    def spec(self, name, tenant):
        return RequestSpec(name=name, tenant=tenant, num_steps=16, seed=5)

    def test_typed_sheds_then_graceful_drain(self):
        service, gated = self.gated_service()
        first = service.submit(self.spec("a1", "alpha"))
        # The lone worker is now parked inside a1's first block read,
        # so the queue and pending counts below cannot move under us.
        wait_until(gated.started.is_set)
        second = service.submit(self.spec("a2", "alpha"))

        with pytest.raises(ServiceOverloadError) as tenant_full:
            service.submit(self.spec("a3", "alpha"))
        assert tenant_full.value.scope == "tenant"
        assert tenant_full.value.tenant == "alpha"

        with pytest.raises(ServiceOverloadError) as queue_full:
            service.submit(self.spec("b1", "beta"))
        assert queue_full.value.scope == "global"
        assert queue_full.value.tenant == "beta"

        gated.release.set()
        service.drain()
        # Everything accepted completed; nothing was silently dropped.
        assert first.result(timeout=10).steps == 16
        assert second.result(timeout=10).steps == 16

        with pytest.raises(ServiceClosedError):
            service.submit(self.spec("a4", "alpha"))
        shed = service.summary()["shed"]
        assert shed == {"closed": 1, "queue-full": 1, "tenant-queue-full": 1}
        # drain is idempotent.
        service.drain()

    def test_concurrent_drains_leave_no_stale_sentinels(self):
        # Regression: two racing drains used to both observe
        # `_drained == False` and each enqueue a full set of worker
        # sentinels; the extra Nones sat in the queue forever. The
        # check-and-set now happens under the state lock, so exactly
        # one caller posts sentinels — and both callers join, so both
        # return only after the pool has stopped.
        store = build_store(SMALL_STORE)
        service = SearchService(
            store,
            [TenantConfig("alpha")],
            ServiceConfig(workers=2, queue_bound=8),
        )
        barrier = threading.Barrier(2)

        def drain():
            barrier.wait()
            service.drain()

        racers = [threading.Thread(target=drain) for _ in range(2)]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join()
        assert service._queue.qsize() == 0
        for worker in service._workers:
            assert not worker.is_alive()
        with pytest.raises(ServiceClosedError):
            service.submit(self.spec("late", "alpha"))

    def test_shed_reports_outside_the_state_lock(self):
        # Regression (RL011 discipline): the tenant-queue-full shed —
        # a metrics update, i.e. another lock — used to run while
        # `_state_lock` was held.
        service_box = []
        lock_states = []

        class ProbeRegistry(MetricsRegistry):
            def labeled_counter(self, name):
                if name == "service_shed" and service_box:
                    lock_states.append(service_box[0]._state_lock.locked())
                return super().labeled_counter(name)

        store = build_store(SMALL_STORE)
        service = SearchService(
            store,
            [TenantConfig("alpha", max_pending=1)],
            ServiceConfig(workers=1, queue_bound=1),
            metrics=ProbeRegistry(),
        )
        service_box.append(service)
        # Force the tenant to its pending bound without needing a
        # parked worker: the admission path only consults the count.
        with service._state_lock:
            service._pending["alpha"] = 1
        with pytest.raises(ServiceOverloadError):
            service.submit(self.spec("a1", "alpha"))
        assert lock_states == [False]
        with service._state_lock:
            service._pending["alpha"] = 0
        service.drain()

    def test_tenant_budget_error_arrives_through_the_future(self):
        store = build_store(SMALL_STORE)
        service = SearchService(
            store,
            [
                # One copy short of a block: no request of cramped's can
                # ever admit anything.
                TenantConfig("cramped", cache_copies=SMALL_STORE.block_size - 1),
                TenantConfig("roomy", cache_blocks=4),
            ],
            ServiceConfig(workers=1, queue_bound=8),
        )
        try:
            doomed = service.submit(self.spec("c1", "cramped"))
            with pytest.raises(TenantBudgetError) as exc_info:
                doomed.result(timeout=10)
            assert exc_info.value.tenant == "cramped"
            # The shed is accounted and the service keeps serving others.
            ok = service.submit(self.spec("r1", "roomy"))
            assert ok.result(timeout=10).steps == 16
        finally:
            service.drain()
        summary = service.summary()
        assert summary["shed"].get("budget") == 1
        assert summary["requests_errored"] == 1
        assert summary["requests_completed"] == 1


# -- the headline acceptance -------------------------------------------


ACCEPTANCE_STORE = StoreSpec(
    family="path", block_size=16, memory_blocks=2, size=512, seed=7
)
ACCEPTANCE_LOAD = LoadSpec(
    clients=4,
    requests_per_client=6,
    num_steps=128,
    tenants=("alpha", "beta"),
    zipf_s=1.2,
    zipf_ranks=16,
    seed=3,
)


class TestAcceptance:
    def run_burst(self, driver, workers=3):
        store = build_store(ACCEPTANCE_STORE)
        metrics = MetricsRegistry()
        service = SearchService(
            store,
            [TenantConfig("alpha"), TenantConfig("beta")],
            ServiceConfig(workers=workers, queue_bound=64),
            metrics=metrics,
        )
        try:
            outcomes = driver(service, ACCEPTANCE_LOAD)
        finally:
            stats = service.drain()
        return store, service, metrics, outcomes, stats

    def test_shared_cache_beats_isolated_serial_runs(self):
        store, _, _, outcomes, stats = self.run_burst(closed_loop_threaded)
        expected = ACCEPTANCE_LOAD.clients * ACCEPTANCE_LOAD.requests_per_client
        assert len(outcomes) == expected
        isolated = isolated_block_reads(ACCEPTANCE_LOAD, store)
        # The criterion: N concurrent clients over one shared cache
        # read measurably fewer blocks than N isolated serial runs.
        assert stats.disk_reads < isolated
        assert stats.hit_ratio is not None and stats.hit_ratio > 0.0

    def test_percentiles_and_hit_ratio_through_obs(self):
        _, service, metrics, _, stats = self.run_burst(closed_loop, workers=2)
        latency = metrics.histogram("service_latency").percentiles(
            (50.0, 90.0, 99.0)
        )
        assert set(latency) == {"p50", "p90", "p99"}
        assert all(value is not None for value in latency.values())
        assert latency["p50"] <= latency["p90"] <= latency["p99"]
        ratio = metrics.gauge("service_cache_hit_ratio").snapshot()
        assert ratio == pytest.approx(stats.hit_ratio)
        summary = service.summary()
        assert summary["latency"]["p50"] is not None
        assert summary["cache"]["hit_ratio"] == pytest.approx(stats.hit_ratio)
        # The ops report renders a Service section from the same snapshot.
        section = service_summary(metrics.snapshot())
        assert section is not None
        assert section["completed"] == summary["requests_completed"]
        assert section["latency"]["p50"] is not None
        assert section["hit_ratio"] == f"{stats.hit_ratio:.4f}"

    def test_lockstep_closed_loop_is_deterministic(self):
        _, _, first, _, _ = self.run_burst(closed_loop, workers=2)
        _, _, second, _, _ = self.run_burst(closed_loop, workers=4)
        one = json.dumps(first.snapshot(), indent=2, sort_keys=True)
        two = json.dumps(second.snapshot(), indent=2, sort_keys=True)
        assert one == two

    def test_open_loop_accounts_every_request(self):
        store = build_store(ACCEPTANCE_STORE)
        service = SearchService(
            store,
            [
                TenantConfig("alpha", max_pending=2),
                TenantConfig("beta", max_pending=2),
            ],
            ServiceConfig(workers=2, queue_bound=4),
        )
        try:
            outcomes, sheds = open_loop(service, ACCEPTANCE_LOAD)
        finally:
            service.drain()
        submitted = (
            ACCEPTANCE_LOAD.clients * ACCEPTANCE_LOAD.requests_per_client
        )
        # Typed sheds, never silent drops: completions + rejections
        # account for the whole burst.
        assert len(outcomes) + len(sheds) == submitted
        assert all(isinstance(shed, ServiceError) for shed in sheds)


# -- load generation ----------------------------------------------------


class TestLoadgen:
    def test_streams_are_seed_deterministic(self):
        store = build_store(SMALL_STORE)
        spec = LoadSpec(clients=3, requests_per_client=4, seed=11)
        assert generate_requests(spec, store) == generate_requests(spec, store)
        other = dataclasses.replace(spec, seed=12)
        assert generate_requests(other, store) != generate_requests(spec, store)

    def test_tenants_round_robin_and_ranks_in_range(self):
        store = build_store(SMALL_STORE)
        spec = LoadSpec(clients=4, requests_per_client=8, zipf_ranks=4, seed=2)
        streams = generate_requests(spec, store)
        assert [stream[0].tenant for stream in streams] == [
            "alpha", "beta", "alpha", "beta",
        ]
        for stream in streams:
            for request in stream:
                assert 0 <= request.start_rank < 4

    def test_zipf_sampler_skews_toward_rank_zero(self):
        sample = zipf_sampler(random.Random(0), 16, 1.2)
        draws = [sample() for _ in range(2000)]
        assert all(0 <= draw < 16 for draw in draws)
        head = sum(1 for draw in draws if draw == 0)
        tail = sum(1 for draw in draws if draw == 15)
        assert head > tail

    def test_unknown_workload_is_typed(self):
        store = build_store(SMALL_STORE)
        with pytest.raises(ServiceError):
            run_request(store, RequestSpec(name="x", tenant="t", workload="no"))


class TestBadConfiguration:
    """A configuration value the service cannot honour is a typed error,
    and ``python -m repro.service`` prints it as one ``error:`` line and
    exits 2."""

    @pytest.mark.parametrize("bound", [0, -3])
    def test_queue_bound_below_one(self, bound):
        # queue.Queue would read the bound as "unbounded", and the
        # global shed could never fire.
        with pytest.raises(ServiceError, match=rf"queue bound >= 1, got {bound}$"):
            SearchService(
                build_store(SMALL_STORE), [TenantConfig("alpha")],
                ServiceConfig(queue_bound=bound),
            )

    @pytest.mark.parametrize("field", ["read_cost", "hit_cost"])
    @pytest.mark.parametrize("cost", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_cost(self, field, cost):
        # A latency sums these costs; NaN or infinity would print a
        # summary that is not valid JSON.
        with pytest.raises(ServiceError, match=rf"finite {field} >= 0, got {cost}$"):
            SearchService(
                build_store(SMALL_STORE), [TenantConfig("alpha")],
                ServiceConfig(**{field: cost}),
            )

    def test_zero_block_size(self):
        with pytest.raises(ModelError, match=r"block size B must be >= 1, got 0$"):
            build_store(dataclasses.replace(SMALL_STORE, block_size=0))

    @pytest.mark.parametrize("field, message", [
        ("num_steps", r">= 0 steps per request, got -5$"),
        ("requests_per_client", r">= 0 requests per client, got -5$"),
    ])
    def test_negative_load(self, field, message):
        spec = dataclasses.replace(LoadSpec(), **{field: -5})
        with pytest.raises(ServiceError, match=message):
            generate_requests(spec, build_store(SMALL_STORE))

    @pytest.mark.parametrize("argv, message", [
        (["--queue-bound", "0"], "need a queue bound >= 1, got 0"),
        (["--queue-bound", "-3"], "need a queue bound >= 1, got -3"),
        (["--block-size", "0"], "block size B must be >= 1, got 0"),
        (["--steps", "-5"], "need >= 0 steps per request, got -5"),
        (["--requests", "-1"], "need >= 0 requests per client, got -1"),
        (["--read-cost", "-1"], "need a finite read_cost >= 0, got -1.0"),
        (["--read-cost", "nan"], "need a finite read_cost >= 0, got nan"),
        (["--read-cost", "inf"], "need a finite read_cost >= 0, got inf"),
    ])
    def test_cli_exits_2_with_one_line(self, argv, message):
        done = subprocess.run(
            [sys.executable, "-m", "repro.service", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: {message}\n"
