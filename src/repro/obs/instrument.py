"""The instrumentation hook layer the engine emits into.

:class:`InstrumentationHook` is the protocol: one no-op method per
event kind, called by :class:`~repro.core.engine.Searcher`, the
eviction wrapper, and the resilient block store at the corresponding
moments of the Section 2 game. The engine holds ``None`` when nothing
is configured and skips every call site — the uninstrumented fast path
is untouched and produces bit-identical traces.

:class:`Instrumentation` is the standard concrete hook: it assigns run
ids, forwards typed events to a :class:`~repro.obs.sinks.TraceSink`,
and (optionally) folds them into a
:class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.events import (
    BlockReadEvent,
    EvictionEvent,
    FallbackEvent,
    FaultEvent,
    RetryEvent,
    RunEndEvent,
    RunStartEvent,
    StepEvent,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import NullSink, TraceSink

if TYPE_CHECKING:  # imports would cycle through repro.core at runtime
    from repro.core.memory import Memory
    from repro.core.model import ModelParams
    from repro.core.stats import SearchTrace


class InstrumentationHook:
    """Base hook: every engine event, as a no-op method.

    Subclass and override what you need; all methods are called
    synchronously on the engine's thread, in event order. Hooks must
    not mutate the trace, the memory, or the blocking — they observe.
    """

    def run_start(
        self,
        driver: str,
        params: "ModelParams",
        read_cost: float | None = None,
        eviction: str | None = None,
    ) -> None:
        """A run began (before the start vertex is visited).

        ``eviction`` names the unwrapped eviction policy class driving
        the run, so offline analytics know which replacement discipline
        produced the trace.
        """

    def step(self, vertex: Any, blocks: tuple[Any, ...] | None = None) -> None:
        """The pathfront crossed an edge onto ``vertex``; ``blocks``
        are the resident holder blocks at arrival (weak model), ``None``
        when holders are untracked."""

    def fault(self, vertex: Any, gap: int, index: int) -> None:
        """The pathfront hit an uncovered vertex (fault ``index``,
        ``gap`` steps after the previous fault)."""

    def block_read(
        self, block: Any, vertex: Any, memory: "Memory", trace: "SearchTrace"
    ) -> None:
        """A block was read and loaded, servicing the current fault."""

    def retry(
        self, block_id: Any, attempt: int, outcome: str, delay: float | None
    ) -> None:
        """A physical read attempt failed (``outcome`` in
        transient/corrupt/lost; ``delay`` set iff a retry was granted)."""

    def fallback(self, vertex: Any, failed_block: Any, block_id: Any) -> None:
        """A fault was serviced from an alternate replica."""

    def eviction(
        self, block_ids: tuple[Any, ...] | None, copies: int, occupancy: int
    ) -> None:
        """Memory flushed ``copies`` vertex copies (whole blocks
        ``block_ids`` in the weak model) to make room."""

    def run_end(self, trace: "SearchTrace", error: str | None = None) -> None:
        """The run finished; ``error`` set when it died mid-flight."""


class Instrumentation(InstrumentationHook):
    """Sink + metrics in one hook — the standard configuration.

    >>> instr = Instrumentation(sink=JsonlSink("trace.jsonl"),
    ...                         metrics=MetricsRegistry())
    >>> searcher = Searcher(..., instrumentation=instr)
    """

    def __init__(
        self,
        sink: TraceSink | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.metrics = metrics
        self._run = -1

    def close(self) -> None:
        self.sink.close()

    # -- hook implementations ---------------------------------------------

    def run_start(
        self,
        driver: str,
        params: "ModelParams",
        read_cost: float | None = None,
        eviction: str | None = None,
    ) -> None:
        self._run += 1
        self.sink.emit(
            RunStartEvent(
                run=self._run,
                driver=driver,
                block_size=params.block_size,
                memory_size=params.memory_size,
                model=params.paging_model.name.lower(),
                read_cost=read_cost,
                eviction=eviction,
            )
        )
        if self.metrics is not None:
            self.metrics.counter("runs").inc()

    def step(self, vertex: Any, blocks: tuple[Any, ...] | None = None) -> None:
        self.sink.emit(StepEvent(run=self._run, vertex=vertex, blocks=blocks))
        if self.metrics is not None:
            self.metrics.counter("steps").inc()

    def fault(self, vertex: Any, gap: int, index: int) -> None:
        self.sink.emit(FaultEvent(run=self._run, vertex=vertex, gap=gap, index=index))
        if self.metrics is not None:
            self.metrics.counter("faults").inc()
            self.metrics.histogram("fault_gap").observe(gap)

    def block_read(
        self, block: Any, vertex: Any, memory: "Memory", trace: "SearchTrace"
    ) -> None:
        covered = memory.covered_count  # up to O(M): read it once
        self.sink.emit(
            BlockReadEvent(
                run=self._run,
                block_id=block.block_id,
                vertex=vertex,
                size=len(block),
                occupancy=memory.occupancy,
                covered=covered,
            )
        )
        if self.metrics is not None:
            self.metrics.counter("block_reads").inc()
            self.metrics.labeled_counter("reads_per_block").inc(block.block_id)
            self.metrics.histogram("working_set").observe(covered)
            self.metrics.gauge("working_set_size").set(covered)
            self.metrics.gauge("occupancy").set(memory.occupancy)

    def retry(
        self, block_id: Any, attempt: int, outcome: str, delay: float | None
    ) -> None:
        self.sink.emit(
            RetryEvent(
                run=self._run,
                block_id=block_id,
                attempt=attempt,
                outcome=outcome,
                delay=delay,
            )
        )
        if self.metrics is not None:
            self.metrics.counter("failed_reads").inc()
            if outcome == "corrupt":
                self.metrics.counter("corrupt_reads").inc()
            if delay is not None:
                self.metrics.counter("retries").inc()

    def fallback(self, vertex: Any, failed_block: Any, block_id: Any) -> None:
        self.sink.emit(
            FallbackEvent(
                run=self._run,
                vertex=vertex,
                failed_block=failed_block,
                block_id=block_id,
            )
        )
        if self.metrics is not None:
            self.metrics.counter("fallback_reads").inc()

    def eviction(
        self, block_ids: tuple[Any, ...] | None, copies: int, occupancy: int
    ) -> None:
        self.sink.emit(
            EvictionEvent(
                run=self._run,
                block_ids=block_ids,
                copies=copies,
                occupancy=occupancy,
            )
        )
        if self.metrics is not None:
            self.metrics.counter("evictions").inc()
            self.metrics.counter("evicted_copies").inc(copies)
            if block_ids is not None:
                self.metrics.counter("evicted_blocks").inc(len(block_ids))

    def run_end(self, trace: "SearchTrace", error: str | None = None) -> None:
        self.sink.emit(
            RunEndEvent(run=self._run, trace=trace.snapshot(), error=error)
        )
        if self.metrics is not None and error is not None:
            self.metrics.counter("errored_runs").inc()
