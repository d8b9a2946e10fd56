"""Observability: event tracing, metrics, profiling, and replay.

The instrumentation layer the ROADMAP's performance work stands on.
Four pieces, all opt-in and zero-overhead when unconfigured:

* **events + sinks** (`repro.obs.events`, `repro.obs.sinks`) — the
  engine's life as eight typed events (run/step/fault/block_read/
  retry/fallback/eviction/run_end) flowing into ring buffers, JSONL
  files, or composites;
* **instrumentation** (`repro.obs.instrument`) — the hook protocol the
  engine emits into, either passed to ``Searcher(...)`` explicitly or
  made ambient with :func:`use_instrumentation`;
* **metrics** (`repro.obs.metrics`) — counters/gauges/histograms with
  dict/JSON snapshots (per-block read counts, fault-gap distribution,
  working-set trajectory, eviction churn, retry/fallback rates);
* **profiling + replay** (`repro.obs.profiling`, `repro.obs.replay`) —
  ``perf_counter`` phase rollups feeding the ``BENCH_*.json``
  trajectory, and ``python -m repro.obs.replay`` to reconstruct,
  verify, visualize, and diff JSONL traces.

The command-line modules (replay, forensics, report, benchwatch) are
not imported here, so ``python -m`` runs each of them once: import
their names from the module itself.

Quickstart::

    from repro.obs import Instrumentation, JsonlSink, MetricsRegistry

    metrics = MetricsRegistry()
    instr = Instrumentation(sink=JsonlSink("trace.jsonl"), metrics=metrics)
    searcher = Searcher(graph, blocking, policy, params, instrumentation=instr)
    trace = searcher.run_adversary(adversary, 20_000)
    instr.close()
    print(metrics.to_json())
"""

from repro.obs.context import current_instrumentation, use_instrumentation
from repro.obs.events import (
    EVENT_TYPES,
    BlockReadEvent,
    CampaignEvent,
    EvictionEvent,
    FallbackEvent,
    FaultEvent,
    RetryEvent,
    RunEndEvent,
    RunStartEvent,
    ShardMergedEvent,
    StepEvent,
    TraceEvent,
    TraceFooterEvent,
    event_from_dict,
)
from repro.obs.instrument import Instrumentation, InstrumentationHook
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabeledCounter,
    MetricsRegistry,
)
from repro.obs.profiling import (
    PhaseProfiler,
    SweepProgress,
    bench_rollup,
    write_bench_json,
)
from repro.obs.sinks import (
    CompositeSink,
    JsonlSink,
    NullSink,
    RingBufferSink,
    TraceSink,
    read_jsonl,
)
from repro.obs.spans import (
    MergeReport,
    ShardRecorder,
    ShardRef,
    merge_shard_metrics,
    merge_shards,
    read_shard,
    shard_paths,
    span_id,
)

__all__ = [
    "EVENT_TYPES",
    "BlockReadEvent",
    "CampaignEvent",
    "CompositeSink",
    "Counter",
    "EvictionEvent",
    "FallbackEvent",
    "FaultEvent",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "InstrumentationHook",
    "JsonlSink",
    "LabeledCounter",
    "MergeReport",
    "MetricsRegistry",
    "NullSink",
    "PhaseProfiler",
    "RetryEvent",
    "RingBufferSink",
    "RunEndEvent",
    "RunStartEvent",
    "ShardMergedEvent",
    "ShardRecorder",
    "ShardRef",
    "StepEvent",
    "SweepProgress",
    "TraceEvent",
    "TraceFooterEvent",
    "TraceSink",
    "bench_rollup",
    "current_instrumentation",
    "event_from_dict",
    "merge_shard_metrics",
    "merge_shards",
    "read_jsonl",
    "read_shard",
    "shard_paths",
    "span_id",
    "use_instrumentation",
    "write_bench_json",
]
