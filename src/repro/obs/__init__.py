"""Observability: event tracing, metrics, bench rollups, and replay.

The instrumentation layer the ROADMAP's performance work stands on.
Four pieces, all opt-in and zero-overhead when unconfigured:

* **events + sinks** (`repro.obs.events`, `repro.obs.sinks`) — the
  engine's life as eight typed events (run/step/fault/block_read/
  retry/fallback/eviction/run_end) flowing into ring buffers or JSONL
  files;
* **instrumentation** (`repro.obs.instrument`) — the hook protocol the
  engine emits into, either passed to ``Searcher(...)`` explicitly or
  made ambient with :func:`use_instrumentation`;
* **metrics** (`repro.obs.metrics`) — counters/gauges/histograms with
  dict/JSON snapshots (per-block read counts, fault-gap distribution,
  working-set trajectory, eviction churn, retry/fallback rates);
* **progress + rollups + replay** (`repro.obs.profiling`,
  `repro.obs.replay`) — the sweep's ``elapsed/ETA`` lines, the
  ``BENCH_*.json`` trajectory, and ``python -m repro.obs.replay`` to
  reconstruct, verify, visualize, and diff JSONL traces.

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

from typing import TYPE_CHECKING

from repro import _facade

#: The public names, by defining module; each is imported on its first
#: lookup (:func:`repro._facade`).
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.obs.context": ("current_instrumentation", "use_instrumentation"),
    "repro.obs.events": (
        "EVENT_TYPES", "BlockReadEvent", "CampaignEvent", "EvictionEvent",
        "FallbackEvent", "FaultEvent", "RetryEvent", "RunEndEvent", "RunStartEvent",
        "ShardMergedEvent", "StepEvent", "TraceEvent", "TraceFooterEvent",
        "event_from_dict",
    ),
    "repro.obs.instrument": ("Instrumentation", "InstrumentationHook"),
    "repro.obs.metrics": (
        "Counter", "Gauge", "Histogram", "LabeledCounter", "MetricsRegistry",
    ),
    "repro.obs.profiling": ("SweepProgress", "bench_rollup", "write_bench_json"),
    "repro.obs.sinks": (
        "JsonlSink", "NullSink", "RingBufferSink", "TraceSink", "read_jsonl",
    ),
    "repro.obs.spans": (
        "MergeReport", "ShardRecorder", "ShardRef", "merge_shard_metrics",
        "merge_shards", "read_shard", "shard_paths", "span_id",
    ),
}

if TYPE_CHECKING:
    from repro.obs.context import (
        current_instrumentation as current_instrumentation,
        use_instrumentation as use_instrumentation,
    )
    from repro.obs.events import (
        EVENT_TYPES as EVENT_TYPES,
        BlockReadEvent as BlockReadEvent,
        CampaignEvent as CampaignEvent,
        EvictionEvent as EvictionEvent,
        FallbackEvent as FallbackEvent,
        FaultEvent as FaultEvent,
        RetryEvent as RetryEvent,
        RunEndEvent as RunEndEvent,
        RunStartEvent as RunStartEvent,
        ShardMergedEvent as ShardMergedEvent,
        StepEvent as StepEvent,
        TraceEvent as TraceEvent,
        TraceFooterEvent as TraceFooterEvent,
        event_from_dict as event_from_dict,
    )
    from repro.obs.instrument import (
        Instrumentation as Instrumentation,
        InstrumentationHook as InstrumentationHook,
    )
    from repro.obs.metrics import (
        Counter as Counter,
        Gauge as Gauge,
        Histogram as Histogram,
        LabeledCounter as LabeledCounter,
        MetricsRegistry as MetricsRegistry,
    )
    from repro.obs.profiling import (
        SweepProgress as SweepProgress,
        bench_rollup as bench_rollup,
        write_bench_json as write_bench_json,
    )
    from repro.obs.sinks import (
        JsonlSink as JsonlSink,
        NullSink as NullSink,
        RingBufferSink as RingBufferSink,
        TraceSink as TraceSink,
        read_jsonl as read_jsonl,
    )
    from repro.obs.spans import (
        MergeReport as MergeReport,
        ShardRecorder as ShardRecorder,
        ShardRef as ShardRef,
        merge_shard_metrics as merge_shard_metrics,
        merge_shards as merge_shards,
        read_shard as read_shard,
        shard_paths as shard_paths,
        span_id as span_id,
    )
else:
    __getattr__, __dir__, __all__ = _facade(globals(), _EXPORTS)
