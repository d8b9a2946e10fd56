"""Seeded load generation for the search service.

A :class:`LoadSpec` describes a burst the way a ``CellSpec`` describes
a sweep cell: primitive frozen data, fully reproducible from its seed.
:func:`generate_requests` expands it into the per-client
:class:`~repro.service.requests.RequestSpec` streams (start vertices
drawn Zipfian over the store's canonical vertex order — rank 0 is the
hottest start, the contention the shared cache exists to absorb).

Three drivers:

* :func:`closed_loop` — deterministic lockstep: one driver thread
  round-robins the logical clients, submitting each next request only
  after the previous completes. Execution is fully serialized no
  matter how many workers the service runs, so metrics snapshots are
  byte-identical across re-runs — the CI smoke's determinism check.
* :func:`closed_loop_threaded` — real closed-loop concurrency: one
  thread per client, each with at most one request in flight. Totals
  (reads saved by sharing) remain meaningful; schedules do not.
* :func:`open_loop` — submit everything as fast as the queue accepts,
  collecting typed sheds instead of blocking; exercises backpressure.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import threading
from dataclasses import dataclass

from repro.errors import ReproError, ServiceError
from repro.service.requests import RequestSpec, run_request
from repro.service.server import RequestOutcome, SearchService
from repro.service.stores import ServiceStore


@dataclass(frozen=True)
class LoadSpec:
    """One reproducible load burst, as primitive picklable data.

    ``tenants`` are assigned to clients round-robin; ``zipf_s`` is the
    skew of the start-vertex distribution (larger = hotter head).
    """

    clients: int = 4
    requests_per_client: int = 8
    num_steps: int = 256
    workload: str = "walk"
    tenants: tuple = ("alpha", "beta")
    zipf_s: float = 1.1
    zipf_ranks: int = 64
    seed: int = 0


def zipf_sampler(
    rng: random.Random, num_ranks: int, s: float
) -> "_ZipfSampler":
    """A callable drawing ranks ``0..num_ranks-1`` with ``P(k) ∝
    1/(k+1)^s`` from the given seeded RNG.

    Raises :class:`ServiceError` for a skew that is not finite, or
    whose weights or their total do not fit a float.
    """
    return _ZipfSampler(rng, num_ranks, s)


class _ZipfSampler:
    def __init__(self, rng: random.Random, num_ranks: int, s: float) -> None:
        if num_ranks < 1:
            raise ReproError(f"need >= 1 rank, got {num_ranks}")
        if not math.isfinite(s):
            raise ServiceError(f"need a finite Zipf skew, got {s}")
        self._rng = rng
        try:
            weights = [1.0 / (k + 1) ** s for k in range(num_ranks)]
            self._cumulative = list(itertools.accumulate(weights))
            if not math.isfinite(self._cumulative[-1]):
                raise OverflowError("the weights' total is not finite")
        except (OverflowError, ZeroDivisionError):
            raise ServiceError(
                f"Zipf skew {s} over {num_ranks} ranks: the rank weights "
                f"do not fit a float"
            ) from None

    def __call__(self) -> int:
        point = self._rng.random() * self._cumulative[-1]
        return bisect.bisect_left(self._cumulative, point)


def generate_requests(
    spec: LoadSpec, store: ServiceStore
) -> list[list[RequestSpec]]:
    """The burst's request streams, one list per client, all derived
    deterministically from ``spec.seed``."""
    if spec.clients < 1:
        raise ServiceError(f"need >= 1 client, got {spec.clients}")
    if not spec.tenants:
        raise ServiceError("need at least one tenant")
    if spec.requests_per_client < 0:
        raise ServiceError(
            f"need >= 0 requests per client, got {spec.requests_per_client}"
        )
    if spec.num_steps < 0:
        raise ServiceError(f"need >= 0 steps per request, got {spec.num_steps}")
    ranks = min(spec.zipf_ranks, len(store.vertices))
    streams: list[list[RequestSpec]] = []
    for client in range(spec.clients):
        tenant = str(spec.tenants[client % len(spec.tenants)])
        rng = random.Random(spec.seed * 1_000_003 + client)
        sample = zipf_sampler(rng, ranks, spec.zipf_s)
        streams.append(
            [
                RequestSpec(
                    name=f"c{client}r{index}",
                    tenant=tenant,
                    workload=spec.workload,
                    start_rank=sample(),
                    num_steps=spec.num_steps,
                    seed=rng.randrange(2**31),
                )
                for index in range(spec.requests_per_client)
            ]
        )
    return streams


def closed_loop(
    service: SearchService, spec: LoadSpec
) -> list[RequestOutcome]:
    """Deterministic lockstep closed loop (see the module docstring).

    Clients advance round-robin; each waits for its request before the
    next client submits, so the whole burst is one serialized schedule.
    """
    streams = generate_requests(spec, service.store)
    outcomes: list[RequestOutcome] = []
    for index in range(spec.requests_per_client):
        for stream in streams:
            outcomes.append(service.submit(stream[index]).result())
    return outcomes


def closed_loop_threaded(
    service: SearchService, spec: LoadSpec
) -> list[RequestOutcome]:
    """Real closed-loop concurrency: one thread per client, one request
    in flight each. Outcomes are returned in (client, request) order;
    the interleaving itself is up to the scheduler."""
    streams = generate_requests(spec, service.store)
    results: list[list[RequestOutcome]] = [[] for _ in streams]
    errors: list[BaseException] = []
    errors_lock = threading.Lock()

    def drive(client: int) -> None:
        try:
            for request in streams[client]:
                results[client].append(service.submit(request).result())
        # Collected for a cross-thread re-raise below, not swallowed.
        except BaseException as exc:  # lint: ignore[RL006]
            with errors_lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(client,), name=f"client-{client}")
        for client in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [outcome for stream in results for outcome in stream]


def open_loop(
    service: SearchService, spec: LoadSpec
) -> tuple[list[RequestOutcome], list[ServiceError]]:
    """Submit the whole burst without waiting; typed rejections are
    collected, never raised — the backpressure experiment."""
    streams = generate_requests(spec, service.store)
    futures = []
    sheds: list[ServiceError] = []
    for index in range(spec.requests_per_client):
        for stream in streams:
            try:
                futures.append(service.submit(stream[index]))
            except ServiceError as exc:
                sheds.append(exc)
    outcomes = []
    for future in futures:
        try:
            outcomes.append(future.result())
        except ServiceError as exc:
            sheds.append(exc)
    return outcomes, sheds


def isolated_block_reads(spec: LoadSpec, store: ServiceStore) -> int:
    """The baseline the tentpole is measured against: every client's
    stream run serially with *no* shared cache — each fault is a disk
    read. Returns the total blocks read across all clients."""
    total = 0
    for stream in generate_requests(spec, store):
        for request in stream:
            trace, _ = run_request(store, request, cache=None)
            total += trace.blocks_read
    return total
