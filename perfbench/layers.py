"""The program's layers, as the traced run sees them.

:func:`install` wraps each layer's public functions at their class or
module attribute (see :mod:`tracer`); :data:`PER_LAYER` lists every
per-layer metric the traced run reports, in ``BENCHMARK.json`` order.
A layer idle on a workload reports 0.
"""

from __future__ import annotations

import inspect
import time
import weakref
from typing import Any, Iterator

from tracer import ThreadSpans, Tracer

#: Span names, each reported as ``<name>.calls`` and ``<name>.s``.
SPANS = (
    "engine.run",
    "adversaries.step",
    "graphs.has_edge",
    "graphs.neighbors",
    "memory.visit",
    "memory.load",
    "memory.evict_block",
    "policies.choose",
    "blockings.blocks_for",
    "blockings.block",
    "eviction.make_room",
    "construction",
    "service.queue_wait",
    "service.run_request",
    "service.cache.fetch",
    "obs.hook",
    "obs.sink.emit",
    "obs.replay",
    "obs.forensics",
    "obs.forensics.scan_trace",
    "obs.forensics.stack_distances",
    "obs.forensics.taxonomy",
)

#: Table 1 cells, each reported as ``table1.<cell>.s``.
CELLS = (
    "tree",
    "grid1d",
    "grid1d-finite",
    "grid2d",
    "gridd",
    "gridd-reduced",
    "isothetic",
    "redundancy-gap",
    "diagonal",
    "general",
    "geometric",
    "pathological",
    "nonuniform",
    "example1",
    "example2",
    "ballcover",
)

#: Counters taken at the span boundaries, and values set by workloads.
EXTRAS = (
    ("engine.steps", "count"),
    ("engine.faults", "count"),
    ("memory.visit.hit_ratio", "ratio"),
    ("memory.load.copies", "count"),
    ("memory.evict_block.copies", "count"),
    ("policies.choose.candidates", "blocks/fault"),
    ("blockings.block.distinct", "count"),
    ("eviction.make_room.blocks", "count"),
    ("service.shed", "count"),
    ("service.errors", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.evictions", "count"),
    ("service.cache.coalesced", "count"),
    ("obs.sink.bytes", "bytes"),
    ("obs.replay.events", "count"),
)

PER_LAYER: tuple[tuple[str, str], ...] = (
    tuple((f"{span}.{kind}", unit) for span in SPANS
          for kind, unit in (("calls", "count"), ("s", "s")))
    + tuple((f"table1.{cell}.s", "s") for cell in CELLS)
    + EXTRAS
)

# Counters the observers add; turned into the EXTRAS by layer_metrics.
_VISIT_HITS = "memory.visit.hits"
_CANDIDATES = "policies.choose.candidates.total"


def _classes_defining(base: type, attr: str) -> Iterator[type]:
    """``base`` and its loaded subclasses whose own body defines a
    concrete ``attr``."""
    seen: set[type] = set()
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        func = vars(cls).get(attr)
        if inspect.isfunction(func) and not getattr(func, "__isabstractmethod__", False):
            yield cls


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions (see the table in README.md)."""
    import repro.adversaries  # noqa: F401  (loads every Adversary subclass)
    import repro.analysis.radii as radii
    import repro.blockings  # noqa: F401  (loads every Blocking and policy)
    import repro.experiments.table1 as table1
    import repro.graphs  # noqa: F401  (loads every Graph subclass)
    import repro.obs.forensics as forensics
    import repro.obs.replay as replay
    import repro.service.server as server
    import repro.service.stores as stores
    from repro.core.blocking import Blocking
    from repro.core.engine import Adversary, Searcher
    from repro.core.memory import Memory, WeakMemory
    from repro.core.policies import BlockChoicePolicy
    from repro.graphs.base import Graph
    from repro.obs.instrument import InstrumentationHook
    from repro.obs.sinks import JsonlSink
    from repro.paging.eviction import EvictionPolicy
    from repro.service.cache import SharedBlockCache
    from repro.service.server import SearchService

    ids = {name: tracer.name_id(name) for name in SPANS}
    for cell in CELLS:
        tracer.name_id(f"table1.{cell}")

    def each(base: type, attr: str, name: str, **observers: Any) -> None:
        for cls in list(_classes_defining(base, attr)):
            tracer.wrap(cls, attr, name, **observers)

    # core.engine: totals from the returned SearchTrace.
    def engine_totals(spans: ThreadSpans, args: tuple, trace: Any) -> None:
        spans.add("engine.steps", trace.steps)
        spans.add("engine.faults", trace.faults)

    for attr in ("run_adversary", "run_path"):
        tracer.wrap(Searcher, attr, "engine.run", after=engine_totals)

    each(Adversary, "step", "adversaries.step")
    each(Graph, "has_edge", "graphs.has_edge")
    each(Graph, "neighbors", "graphs.neighbors")

    # core.memory
    def visit_hit(spans: ThreadSpans, args: tuple, covered: bool) -> None:
        if covered:
            spans.add(_VISIT_HITS)

    def load_copies(spans: ThreadSpans, args: tuple, result: Any) -> None:
        spans.add("memory.load.copies", len(args[1]))

    make_room = ids["eviction.make_room"]

    def evict_copies(spans: ThreadSpans, args: tuple) -> None:
        memory, block_id = args[0], args[1]
        spans.add("memory.evict_block.copies", len(memory.resident_block(block_id)))
        if spans.parent_name_id() == make_room:
            spans.add("eviction.make_room.blocks")

    each(Memory, "visit", "memory.visit", after=visit_hit)
    each(Memory, "load", "memory.load", after=load_copies)
    tracer.wrap(WeakMemory, "evict_block", "memory.evict_block", before=evict_copies)

    # policies + blockings: candidates are the blocks_for answer a
    # policy asks for; distinct counts first requests of each block.
    choose = ids["policies.choose"]

    def candidates(spans: ThreadSpans, args: tuple, result: Any) -> None:
        if spans.parent_name_id() == choose:
            spans.add(_CANDIDATES, len(result))

    # Weak keys: holding every blocking of a sweep alive would keep all
    # of their materialized blocks in memory.
    requested: weakref.WeakKeyDictionary[Any, set] = weakref.WeakKeyDictionary()

    def distinct(spans: ThreadSpans, args: tuple, result: Any) -> None:
        blocking, block_id = args[0], args[1]
        seen = requested.get(blocking)
        if seen is None:
            seen = requested[blocking] = set()
        if block_id not in seen:
            seen.add(block_id)
            spans.add("blockings.block.distinct")

    each(BlockChoicePolicy, "choose", "policies.choose")
    each(Blocking, "blocks_for", "blockings.blocks_for", after=candidates)
    each(Blocking, "block", "blockings.block", after=distinct)
    each(EvictionPolicy, "make_room", "eviction.make_room")

    # construction: the graph, blocking and radius builders that the
    # sweep cells and the service stores call, at the names they call.
    for module, attrs in (
        (table1, (
            "CompleteTree", "GridGraph", "InfiniteDiagonalGridGraph",
            "InfiniteGridGraph", "complete_graph", "lollipop_graph",
            "path_graph", "random_geometric_graph", "random_regular_graph",
            "star_graph", "torus_graph", "ExplicitBlocking",
            "contiguous_1d_blocking", "grid_lemma13_blocking",
            "lemma13_blocking", "naive_subtree_blocking", "offset_1d_blocking",
            "offset_grid_blocking", "overlapped_tree_blocking",
            "sheared_grid_blocking", "theorem4_blocking", "theorem6_blocking",
            "uniform_grid_blocking", "ball_cover_corollary2",
            "ball_cover_matching", "ball_cover_packing",
            "vertex_cover_2approx", "ball_volume",
        )),
        (stores, (
            "CompleteTree", "ExplicitBlocking", "lemma13_blocking",
            "overlapped_tree_blocking", "path_graph", "random_regular_graph",
        )),
        (radii, ("min_radius", "max_radius", "min_ball_volume", "vertex_radius")),
    ):
        for attr in attrs:
            tracer.wrap(module, attr, "construction")

    # service.server + service.cache: queue wait runs from submit on the
    # client thread to pickup (the run_request call) on a worker thread.
    submitted: dict[Any, float] = {}

    def stamp_submit(spans: ThreadSpans, args: tuple) -> None:
        submitted[args[1]] = time.perf_counter()

    def queue_wait(spans: ThreadSpans, args: tuple) -> None:
        start = submitted.pop(args[1], None)
        if start is not None:
            tracer.record("service.queue_wait", start, time.perf_counter())

    tracer.wrap(SearchService, "submit", None, before=stamp_submit)
    tracer.wrap(server, "run_request", "service.run_request", before=queue_wait)
    tracer.wrap(SharedBlockCache, "fetch", "service.cache.fetch")

    # obs: hook, sink, replay fold, forensics.
    for event in (
        "run_start", "step", "fault", "block_read", "retry", "fallback",
        "eviction", "run_end",
    ):
        each(InstrumentationHook, event, "obs.hook")
    tracer.wrap(JsonlSink, "emit", "obs.sink.emit")

    def replay_events(spans: ThreadSpans, args: tuple, runs: Any) -> None:
        spans.add("obs.replay.events", sum(run.events for run in runs))

    tracer.wrap(replay, "replay_file", "obs.replay", after=replay_events)
    tracer.wrap(replay, "verify_run", "obs.replay")
    for attr in ("scan_trace", "stack_distances", "taxonomy"):
        tracer.wrap(forensics, attr, f"obs.forensics.{attr}")


def layer_metrics(ledger: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a tracer ledger (0 when the
    layer did no work)."""
    derived = dict(ledger)
    visits = ledger.get("memory.visit.calls", 0)
    derived["memory.visit.hit_ratio"] = (
        ledger.get(_VISIT_HITS, 0) / visits if visits else 0.0
    )
    chooses = ledger.get("policies.choose.calls", 0)
    derived["policies.choose.candidates"] = (
        ledger.get(_CANDIDATES, 0) / chooses if chooses else 0.0
    )
    return {name: derived.get(name, 0) for name, _unit in PER_LAYER}
