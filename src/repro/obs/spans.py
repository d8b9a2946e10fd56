"""Trace spans: per-worker telemetry shards and deterministic merging.

PR 3 gave a *single process* typed traces and metrics; campaigns
(``--jobs N`` included) run their cells in worker processes, where
ambient hooks cannot reach. The telemetry plane closes that gap with a
spool-and-merge design, mirroring how external-memory algorithms
themselves aggregate per-run I/O counters:

* **worker side** — a :class:`ShardRecorder` gives the cell its own
  :class:`~repro.obs.instrument.Instrumentation`: engine events stream
  to a per-cell JSONL *shard* (closed with a ``trace_footer`` stating
  the event count and any sink drops), and metrics land in a
  :class:`~repro.obs.metrics.MetricsRegistry` whose lossless wire form
  is committed next to the result spill;
* **parent side** — :func:`merge_shards` folds the committed shards
  into one campaign-wide trace, strictly ordered by ``(cell_index,
  attempt, seq)``: cells in sweep order, one committed attempt per
  cell, events in emission order. Each cell contributes a
  ``shard_merged`` causality record (campaign → cell → engine run-id
  range) followed by its engine events with run ids renumbered to be
  globally unique, and the merged trace closes with its own footer.

Because cells are deterministic and the merge is a pure function of
the committed shards, the merged trace is **byte-identical** across
re-runs, across ``--jobs`` counts, and across chaos-induced retries
(the committed attempt of a killed-then-retried cell produces the same
engine events an undisturbed run would). ``python -m repro.obs.replay
--check`` passes on merged traces: the campaign-level records are
skipped and every renumbered engine run reconstructs exactly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ReproError
from repro.obs.events import (
    CampaignEvent,
    RunStartEvent,
    ShardMergedEvent,
    TraceEvent,
    TraceFooterEvent,
)
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import JsonlSink, read_jsonl


def span_id(sweep: str, index: int, attempt: int) -> str:
    """The deterministic causality id of one cell attempt.

    ``sweep`` is a content digest of the sweep's cell fingerprints
    (:func:`repro.experiments.manifest.sweep_digest`) — *not* a
    campaign id, which embeds run-time entropy — so the same sweep
    yields the same span ids on every run.
    """
    return f"{sweep}/{index}/{attempt}"


def shard_paths(directory: str | Path, index: int, attempt: int) -> tuple[Path, Path]:
    """The ``(trace, metrics)`` shard paths for one cell attempt,
    keyed exactly like the campaign's result spills."""
    stem = f"cell-{index:03d}-a{attempt}"
    directory = Path(directory)
    return directory / f"{stem}.trace.jsonl", directory / f"{stem}.metrics.json"


class ShardRecorder:
    """Worker-side telemetry for one cell attempt.

    Wraps a JSONL sink and a fresh metrics registry in an
    :class:`~repro.obs.instrument.Instrumentation` the worker makes
    ambient around ``run_cell``. :meth:`close` seals the shard: a
    ``trace_footer`` is appended (event count + sink drops, so the
    merger can tell torn from short) and the metrics registry's wire
    form is committed atomically. Callers must commit their *result*
    only after ``close()`` returns — a committed result then implies
    complete telemetry, the same happens-before the campaign journal
    relies on.
    """

    def __init__(self, trace_path: str | Path, metrics_path: str | Path) -> None:
        self.trace_path = Path(trace_path)
        self.metrics_path = Path(metrics_path)
        self.sink = JsonlSink(self.trace_path)
        self.metrics = MetricsRegistry()
        self.instrumentation = Instrumentation(sink=self.sink, metrics=self.metrics)

    def close(self) -> None:
        from repro.cache import atomic_write_text

        self.sink.emit(
            TraceFooterEvent(
                run=-1,
                events_emitted=self.sink.events_written,
                events_dropped=self.sink.events_dropped,
            )
        )
        self.sink.close()
        atomic_write_text(
            self.metrics_path,
            json.dumps(self.metrics.to_wire(), sort_keys=True) + "\n",
        )

    def __enter__(self) -> "ShardRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass(frozen=True)
class ShardRef:
    """One committed cell attempt's telemetry, as the merger sees it."""

    index: int
    name: str
    attempt: int
    trace_path: Path | None
    metrics_path: Path | None

    @classmethod
    def locate(
        cls, directory: str | Path, index: int, name: str, attempt: int
    ) -> "ShardRef":
        """The shard ref for a cell attempt, tolerating missing files
        (e.g. a resumed campaign whose earlier run shipped no
        telemetry): absent paths become ``None`` and the merge marks
        the cell incomplete instead of failing."""
        trace, metrics = shard_paths(directory, index, attempt)
        return cls(
            index=index,
            name=name,
            attempt=attempt,
            trace_path=trace if trace.exists() else None,
            metrics_path=metrics if metrics.exists() else None,
        )


def read_shard(
    path: str | Path,
) -> tuple[list[TraceEvent], TraceFooterEvent | None]:
    """Parse one shard: its events (footer excluded) and the footer.

    Lines are read as :func:`~repro.obs.sinks.read_jsonl` reads them,
    but a line it cannot read ends the shard quietly instead of
    raising: a torn shard — killed worker, unreadable tail — yields the
    events before it and ``footer=None``, as does a missing file; the
    caller decides what incomplete means (the merger records it in the
    ``shard_merged`` event).
    """
    events: list[TraceEvent] = []
    try:
        for event in read_jsonl(path):
            if isinstance(event, TraceFooterEvent):
                return events, event
            events.append(event)
    except (OSError, ReproError):
        pass  # a killed worker's last partial append, or no shard at all
    return events, None


@dataclass(frozen=True)
class MergeReport:
    """What one merge produced (and what it could not recover)."""

    cells: int
    runs: int
    events: int
    dropped: int
    incomplete: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.incomplete and self.dropped == 0


def merge_shards(
    out_path: str | Path,
    shards: Sequence[ShardRef],
    sweep: str,
) -> MergeReport:
    """Merge per-cell trace shards into one campaign-wide JSONL trace.

    Deterministic by construction: shards are taken in cell-index
    order, each contributes its ``shard_merged`` causality record and
    then its engine events in emission order, with run ids renumbered
    onto one global sequence (``run_base`` accumulates across cells).
    Records that join no run (a shard holds none but its footer) are
    skipped so the merge is idempotent. The output ends with a
    ``trace_footer`` totalling events and drops — the merged trace
    carries its own completeness statement.
    """
    ordered = sorted(shards, key=lambda ref: ref.index)
    sink = JsonlSink(out_path)
    run_base = 0
    total_events = 0
    total_dropped = 0
    incomplete: list[str] = []
    for ref in ordered:
        if ref.trace_path is None:
            events, footer = [], None
        else:
            events, footer = read_shard(ref.trace_path)
        engine = [e for e in events if not isinstance(e, CampaignEvent)]
        runs = sum(1 for e in engine if isinstance(e, RunStartEvent))
        dropped = footer.events_dropped if footer is not None else 0
        complete = footer is not None and footer.events_emitted == len(events)
        if not complete:
            incomplete.append(ref.name)
        sink.emit(
            ShardMergedEvent(
                run=ref.index,
                cell=ref.name,
                attempt=ref.attempt,
                span=span_id(sweep, ref.index, ref.attempt),
                run_base=run_base,
                runs=runs,
                events=len(engine),
                dropped=dropped,
                complete=complete,
            )
        )
        for event in engine:
            sink.emit(dataclasses.replace(event, run=run_base + event.run))
        run_base += runs
        total_events += len(engine)
        total_dropped += dropped
    sink.emit(
        TraceFooterEvent(
            run=-1,
            events_emitted=total_events + len(ordered),
            events_dropped=total_dropped,
        )
    )
    sink.close()
    return MergeReport(
        cells=len(ordered),
        runs=run_base,
        events=total_events,
        dropped=total_dropped,
        incomplete=tuple(incomplete),
    )


def merge_shard_metrics(
    registry: MetricsRegistry, shards: Sequence[ShardRef]
) -> int:
    """Fold every shard's committed metrics wire file into ``registry``
    (cell-index order, so gauge last-write-wins is deterministic).
    Returns the number of shards merged; absent files are skipped."""
    merged = 0
    for ref in sorted(shards, key=lambda r: r.index):
        if ref.metrics_path is None:
            continue
        try:
            payload: dict[str, Any] = json.loads(
                ref.metrics_path.read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            continue  # torn metrics shard: trace footer already says so
        registry.merge_wire(payload)
        merged += 1
    return merged


__all__ = [
    "MergeReport",
    "ShardRecorder",
    "ShardRef",
    "merge_shard_metrics",
    "merge_shards",
    "read_shard",
    "shard_paths",
    "span_id",
]
