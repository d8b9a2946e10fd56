"""The benchmark's four workloads, driven through the program's public API.

A workload is set up once (``setup``) and then run pass after pass
(``run_pass``); every pass checks its own outputs against
``expected.json`` and the paper's bounds. A pass reports when it started
and ended, the path steps it completed, when each *request* was sent and
answered, and a count of block reads. Instants are ``perf_counter``
stamps, turned into durations by the caller (``run.py`` uses a
``HostClock``). A request is the unit of client work: a Table 1 cell
(``sweep``, ``traced``), one walk (``walk``) or one service request
(``service``). README.md says why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager

from hostclock import HostClock
from tracer import Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

#: Cells of the traced workload. The two large-block cells (B=1023
#: tree, B=1024 5-D grid) are left to ``sweep``: under the hook they
#: would triple the pass, mostly in forensics. The rest keep one cell
#: per kind of run: both drivers (adversary, fixed path), 1-D to 3-D
#: and diagonal grids, a random graph, a fault on every step, and the
#: closed-form checks.
TRACED_CELLS = (
    "grid1d", "grid1d-finite", "grid2d", "gridd", "diagonal", "geometric",
    "pathological", "example1", "example2", "ballcover",
)

#: Walk workload: corpus walks with tabulated fault counts; a seed picks
#: which of them a run plays (the first S2_WALKS picks also run at s=2).
WALK_STEPS = 10_000
WALK_CORPUS = 256
S1_WALKS = 24
S2_WALKS = 16

#: Service workload: the tree store, and a cache smaller than the
#: working set (hit ratio about 0.3).
STORE = {"family": "tree", "block_size": 15, "memory_blocks": 2, "size": 4095, "seed": 7}
CLIENTS = 2
REQUESTS_PER_CLIENT = 200
REQUEST_STEPS = 128
CACHE_BLOCKS = 16
TENANT_CACHE_BLOCKS = 8


#: A (start, end) pair of ``perf_counter`` instants.
Interval = tuple[float, float]


@dataclass
class PassResult:
    """One pass of a workload."""

    start: float
    end: float
    steps: int
    attempted: int
    #: (sent, answered) instants per completed request, keyed by
    #: request: every pass replays the same requests.
    requests: dict[str, Interval]
    reads: int  # block reads over the completed requests
    failed: int  # requests that errored or whose output check failed
    problems: list[str] = field(default_factory=list)
    #: Named parts of the pass (``traced``: hooked cells, replay, forensics).
    stages: dict[str, Interval] = field(default_factory=dict)
    trace_bytes: int = 0


def load_expected() -> dict[str, Any]:
    return json.loads(EXPECTED.read_text())


def _span(tracer: Tracer | None, name: str) -> ContextManager[None]:
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def cell_rows(out: list[Any]) -> list[list[float]]:
    """The checked outputs of one cell: per game row sigma, steady
    sigma, min gap and faults; per closed-form check its measured value."""
    from repro.experiments import ExperimentResult

    return [
        [r.sigma, r.steady_sigma, r.min_gap, r.faults]
        if isinstance(r, ExperimentResult)
        else [r.measured]
        for r in out
    ]


def cell_problems(name: str, out: list[Any], expected: list[list[float]]) -> list[str]:
    from repro.experiments import ExperimentResult

    problems = []
    # Compared as JSON text so NaN and infinities match exactly too.
    if json.dumps(cell_rows(out)) != json.dumps(expected):
        problems.append(f"{name}: outputs differ from expected.json")
    for r in out:
        if isinstance(r, ExperimentResult) and r.error is not None:
            problems.append(f"{name}: {r.description}: {r.error}")
        elif not r.holds:
            problems.append(f"{name}: {r.description}: bound violated")
    return problems


class Workload:
    """Defaults shared by the workloads."""

    name: str
    min_passes: int
    #: Typical pass time on the reference host; a run of S seconds makes
    #: max(min_passes, S / nominal_pass_s) passes whatever the speed,
    #: so runs of one workload always compare the same number of samples.
    nominal_pass_s: float
    #: The tail percentile reported: the highest of p75, p90, p95, p99
    #: with at least ten samples beyond it in a run of ``min_passes``.
    tail_percentile: float

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks that need the whole run; returns problems found."""
        return []

    def derived(self, passes: list[PassResult], seconds: Callable[[float, float], float]) -> list[str]:
        """Informational lines computed after the measured passes;
        ``seconds`` turns their instants into durations."""
        return []

    def close(self) -> None:
        pass


class Sweep(Workload):
    """Every Table 1 cell, serially, move validation off, no hook —
    ``python -m repro.experiments --quick`` without the printing."""

    name = "sweep"
    cells: tuple[str, ...] | None = None
    min_passes = 3
    nominal_pass_s = 7.0
    tail_percentile = 75.0

    def setup(self, seed: int) -> None:
        import repro.cache
        import repro.experiments.table1 as table1

        self._table1 = table1
        self._cache = repro.cache.get_cache()
        self.specs = table1.cell_specs(quick=True, names=self.cells)
        self.expected = load_expected()["sweep"]

    def run_cells(self, tracer: Tracer | None) -> tuple[dict[str, Interval], list[tuple[str, list]]]:
        # A fresh CLI run starts with an empty construction cache, so
        # every pass pays for its constructions.
        self._cache.clear()
        requests = {}
        outputs = []
        for spec in self.specs:
            start = time.perf_counter()
            with _span(tracer, f"table1.{spec.name}"):
                out = self._table1.run_cell(spec)
            end = time.perf_counter()
            requests[spec.name] = (start, end)
            outputs.append((spec.name, out))
            if tracer is not None:
                # A cell's own code is only glue between layer calls, so
                # cells report their whole time, not their self time.
                tracer.values[f"table1.{spec.name}.s"] = end - start
        return requests, outputs

    def result(self, start: float, end: float, requests: dict[str, Interval], outputs: list[tuple[str, list]]) -> PassResult:
        from repro.experiments import ExperimentResult

        problems: list[str] = []
        failed = 0
        steps = reads = 0
        for name, out in outputs:
            cell = cell_problems(name, out, self.expected[name])
            problems += cell
            failed += bool(cell)
            for r in out:
                if isinstance(r, ExperimentResult):
                    steps += r.steps
                    reads += r.faults
        return PassResult(start, end, steps, len(outputs), requests, reads, failed, problems)

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        start = time.perf_counter()
        requests, outputs = self.run_cells(tracer)
        return self.result(start, time.perf_counter(), requests, outputs)


class Traced(Sweep):
    """The sweep's cells under a JSONL-writing ``Instrumentation`` hook
    (the ``--trace-out`` path), then replay with the exact-reconstruction
    check and forensics with its self-check over the trace."""

    name = "traced"
    cells = TRACED_CELLS
    min_passes = 4
    nominal_pass_s = 3.0

    def setup(self, seed: int) -> None:
        super().setup(seed)
        import repro.obs
        import repro.obs.forensics
        import repro.obs.replay

        self._obs = repro.obs
        self._replay = repro.obs.replay
        self._forensics = repro.obs.forensics
        OUT.mkdir(exist_ok=True)
        self.trace_path = OUT / "traced.jsonl"

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        obs, replay, forensics = self._obs, self._replay, self._forensics
        start = time.perf_counter()
        instr = obs.Instrumentation(sink=obs.JsonlSink(self.trace_path))
        with obs.use_instrumentation(instr):
            requests, outputs = self.run_cells(tracer)
        instr.close()
        hooked = time.perf_counter()
        runs = replay.replay_file(self.trace_path)
        mismatches = [m for run in runs for m in replay.verify_run(run)]
        replayed = time.perf_counter()
        with _span(tracer, "obs.forensics"):
            doc = forensics.analyze_trace(self.trace_path)
            self_check = forensics.self_check_failures(doc)
        end = time.perf_counter()

        from repro.experiments import ExperimentResult

        result = self.result(start, end, requests, outputs)
        games = sum(isinstance(r, ExperimentResult) for _, out in outputs for r in out)
        if len(runs) != games:
            result.problems.append(f"replay: {len(runs)} runs in the trace, {games} games played")
        result.problems += [f"replay: {m}" for m in mismatches]
        result.problems += [f"forensics: {m}" for m in self_check]
        result.trace_bytes = self.trace_path.stat().st_size
        result.stages = {
            "hooked": (start, hooked),
            "replay": (hooked, replayed),
            "forensics": (replayed, end),
        }
        if tracer is not None:
            tracer.values["obs.sink.bytes"] = result.trace_bytes
        return result

    def derived(self, passes: list[PassResult], seconds: Callable[[float, float], float]) -> list[str]:
        """Hook overhead: the hooked cells against the same cells
        unhooked, timed once here. Not gated — as a ratio of two clocks
        it would "worsen" whenever the engine alone got faster."""
        with HostClock() as clock:
            start = time.perf_counter()
            self.run_cells(None)
            end = time.perf_counter()
        unhooked = clock.seconds(start, end)
        hooked = statistics.median(seconds(*p.stages["hooked"]) for p in passes)
        return [
            f"hook overhead (derived, not gated): {hooked / unhooked:.2f}x "
            f"= hooked cells {hooked:.3f} s / same cells unhooked {unhooked:.3f} s"
        ]


def walk_searchers() -> tuple[Any, dict[str, Any]]:
    """The infinite 2-D grid, B=64, M=256, and the two configurations
    with ``Searcher`` defaults (move validation on, LRU)."""
    from repro import FirstBlockPolicy, ModelParams, Searcher
    from repro.blockings import FarthestFaultPolicy, offset_grid_blocking, uniform_grid_blocking
    from repro.graphs import InfiniteGridGraph

    graph = InfiniteGridGraph(2)
    params = ModelParams(64, 256)
    return graph, {
        "s1": Searcher(graph, uniform_grid_blocking(2, 64), FirstBlockPolicy(), params),
        "s2": Searcher(graph, offset_grid_blocking(2, 64), FarthestFaultPolicy(graph), params),
    }


def corpus_walk(graph: Any, index: int) -> Any:
    """Corpus walk ``index``: a seeded random walk from the origin."""
    from repro.adversaries import RandomWalkAdversary

    return RandomWalkAdversary(graph, (0, 0), seed=index)


class Walk(Workload):
    """Long seeded random walks through ``Searcher``: s=1 uniform tiles
    with ``FirstBlockPolicy`` and s=2 offset tiles with
    ``FarthestFaultPolicy``."""

    name = "walk"
    min_passes = 5
    nominal_pass_s = 2.5
    tail_percentile = 95.0

    def setup(self, seed: int) -> None:
        graph, self.searchers = walk_searchers()
        picks = random.Random(seed).sample(range(WALK_CORPUS), S1_WALKS)
        self.plan = [("s1", k, corpus_walk(graph, k)) for k in picks] + [
            ("s2", k, corpus_walk(graph, k)) for k in picks[:S2_WALKS]
        ]
        self.expected = load_expected()["walk"]

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        requests = {}
        problems = []
        reads = failed = 0
        start = time.perf_counter()
        for config, index, adversary in self.plan:
            walk_start = time.perf_counter()
            trace = self.searchers[config].run_adversary(adversary, WALK_STEPS)
            requests[f"{config}:{index}"] = (walk_start, time.perf_counter())
            reads += trace.faults
            want = self.expected[config][index]
            if trace.steps != WALK_STEPS or trace.faults != want:
                failed += 1
                problems.append(
                    f"walk {index} at {config}: {trace.steps} steps, "
                    f"{trace.faults} faults (expected {WALK_STEPS}, {want})"
                )
        return PassResult(
            start, time.perf_counter(), WALK_STEPS * len(self.plan), len(self.plan),
            requests, reads, failed, problems,
        )


class Service(Workload):
    """A threaded closed loop: two client threads, one request in flight
    each, against ``SearchService`` with two workers over the tree store
    (B=15, Lemma 17 s=2 blocking, ``MostInteriorPolicy``). Starts are
    Zipf-skewed; each request is a 128-step walk."""

    name = "service"
    min_passes = 3
    nominal_pass_s = 0.45
    tail_percentile = 99.0

    def setup(self, seed: int) -> None:
        from repro.experiments.loadgen import LoadSpec, generate_requests
        from repro.service import SearchService, ServiceConfig, StoreSpec, TenantConfig, build_store

        self.store = build_store(StoreSpec(**STORE))
        self.load = LoadSpec(
            clients=CLIENTS,
            requests_per_client=REQUESTS_PER_CLIENT,
            num_steps=REQUEST_STEPS,
            tenants=("alpha", "beta"),
            zipf_s=1.1,
            zipf_ranks=64,
            seed=seed,
        )
        self.streams = generate_requests(self.load, self.store)
        self.service = SearchService(
            self.store,
            [TenantConfig(t, cache_blocks=TENANT_CACHE_BLOCKS) for t in self.load.tenants],
            ServiceConfig(workers=2, queue_bound=32, cache_blocks=CACHE_BLOCKS),
        )
        self.bursts = 0
        self.shared_reads = 0

    def _counts(self) -> tuple[int, int, int]:
        metrics = self.service.metrics
        return (
            metrics.counter("service_completed").snapshot(),
            metrics.counter("service_errors").snapshot(),
            sum(metrics.labeled_counter("service_shed").snapshot().values()),
        )

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        from repro.errors import ReproError

        service = self.service
        requests: dict[str, Interval] = {}
        steps = [0] * len(self.streams)
        refused = [0] * len(self.streams)

        def client(index: int) -> None:
            for spec in self.streams[index]:
                sent = time.perf_counter()
                try:
                    outcome = service.submit(spec).result()
                except ReproError:
                    refused[index] += 1
                    continue
                requests[spec.name] = (sent, time.perf_counter())
                steps[index] += outcome.steps

        stats_before = service.cache.stats()
        completed0, errors0, shed0 = self._counts()
        threads = [
            threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
            for i in range(len(self.streams))
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        stats = service.cache.stats()
        completed1, errors1, shed1 = self._counts()

        submitted = sum(len(stream) for stream in self.streams)
        completed, errors, shed = completed1 - completed0, errors1 - errors0, shed1 - shed0
        problems = []
        if completed + errors + shed != submitted:
            problems.append(
                f"service: completed {completed} + errored {errors} + shed {shed} "
                f"!= submitted {submitted}"
            )
        if completed != len(requests):
            problems.append(f"service: {completed} completed, clients saw {len(requests)}")
        reads = stats.misses - stats_before.misses
        self.bursts += 1
        self.shared_reads += reads
        if tracer is not None:
            accesses = stats.accesses - stats_before.accesses
            hits = stats.hits + stats.coalesced - stats_before.hits - stats_before.coalesced
            tracer.values.update({
                "service.shed": shed,
                "service.errors": errors,
                "service.cache.hit_ratio": hits / accesses if accesses else 0.0,
                "service.cache.evictions": stats.evictions - stats_before.evictions,
                "service.cache.coalesced": stats.coalesced - stats_before.coalesced,
            })
        return PassResult(
            start, end, sum(steps), submitted, requests, reads, submitted - len(requests), problems
        )

    def finish(self) -> list[str]:
        """Drain, then check that sharing the cache saved disk reads:
        the same requests run serially with no shared cache read more."""
        from repro.experiments.loadgen import isolated_block_reads

        self.service.drain()
        isolated = isolated_block_reads(self.load, self.store) * self.bursts
        if self.shared_reads >= isolated:
            return [f"service: {self.shared_reads} shared disk reads, not below isolated {isolated}"]
        return []

    def close(self) -> None:
        self.service.drain()


WORKLOADS = {cls.name: cls for cls in (Sweep, Walk, Service, Traced)}
