"""The campaign ops report: one merged campaign, rendered for humans.

A finished campaign leaves three artifacts — the journaled manifest
(``--campaign PATH``), the merged engine trace (``--trace-out``), and
the merged metrics snapshot (``--metrics-out``). ``python -m
repro.obs.report`` folds whichever of them exist into one markdown (or
HTML) ops report:

* **cell table** — per cell: terminal status, committed attempt, runs,
  engine events, faults, and the fault-gap latency percentiles
  (p50/p90/p99 steps between faults — the modeled-time latency
  distribution of the search itself);
* **supervision breakdown** — retry reasons the parent journaled
  (killed / crashed / timeout / corrupt-result) next to the *engine*
  retry outcomes recorded inside the runs (transient / corrupt /
  lost), so simulated disk faults and aggregated process faults stay
  visibly distinct accountings (see ``docs/paper_map``);
* **block heat** — fault-serviced reads per block id, the heatmap data
  (hottest blocks first; full data embedded as JSON in the HTML form);
* **metrics summary** — counters and histogram percentiles from the
  merged registry snapshot.

The manifest is read with the shared JSONL reader
(:func:`repro.obs.sinks.read_journal`), in the wire form
``repro.experiments.manifest`` writes, and the trace with the shared
event fold (:func:`repro.obs.replay.fold_runs`) in one pass that also
feeds forensics. ``repro.obs`` stays a layer below
``repro.experiments`` and imports nothing from it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ReproError
from repro.obs.events import (
    BlockReadEvent,
    FaultEvent,
    RetryEvent,
    RunStartEvent,
    ShardMergedEvent,
    TraceEvent,
    TraceFooterEvent,
)
from repro.obs.forensics import RunRecord
from repro.obs.forensics import document as forensics_document
from repro.obs.forensics import render_markdown as render_forensics_markdown
from repro.obs.metrics import Histogram
from repro.obs.replay import fold_runs
from repro.obs.sinks import manifest_decoder, read_journal, read_jsonl


class ReportError(ReproError):
    """Unreadable or inconsistent campaign artifacts."""


# ---------------------------------------------------------------------------
# Artifact loading.
# ---------------------------------------------------------------------------


@dataclass
class CellSummary:
    """Everything the report knows about one campaign cell."""

    index: int
    name: str
    kind: str = "game"
    status: str = "unknown"
    attempt: int = 0
    error: str | None = None
    retry_reasons: dict[str, int] = field(default_factory=dict)
    # From the merged trace:
    runs: int = 0
    events: int = 0
    dropped: int = 0
    complete: bool | None = None
    span: str | None = None
    faults: int = 0
    gap_hist: Histogram = field(default_factory=Histogram)
    retry_outcomes: dict[str, int] = field(default_factory=dict)
    block_reads: dict[str, int] = field(default_factory=dict)

    def add(self, event: TraceEvent) -> None:
        """Tally one engine event of one of the cell's runs."""
        if isinstance(event, FaultEvent):
            self.faults += 1
            self.gap_hist.observe(float(event.gap))
        elif isinstance(event, BlockReadEvent):
            key = str(event.block_id)
            self.block_reads[key] = self.block_reads.get(key, 0) + 1
        elif isinstance(event, RetryEvent):
            self.retry_outcomes[event.outcome] = (
                self.retry_outcomes.get(event.outcome, 0) + 1
            )


@dataclass
class CampaignReport:
    """The folded view of manifest + merged trace + metrics."""

    campaign_id: str = ""
    meta: dict[str, Any] = field(default_factory=dict)
    cells: dict[int, CellSummary] = field(default_factory=dict)
    resumes: int = 0
    footer: TraceFooterEvent | None = None
    metrics: dict[str, Any] = field(default_factory=dict)
    forensics: dict[str, Any] | None = None

    def cell(self, index: int, name: str = "?") -> CellSummary:
        summary = self.cells.get(index)
        if summary is None:
            summary = self.cells[index] = CellSummary(index=index, name=name)
        return summary

    def ordered_cells(self) -> list[CellSummary]:
        return [self.cells[i] for i in sorted(self.cells)]


def fold_manifest(report: CampaignReport, path: str | Path) -> None:
    """Fold a campaign manifest journal into the report.

    Reads the wire form ``repro.experiments.manifest`` commits with the
    shared reader (:func:`~repro.obs.sinks.read_journal`); the report
    lives in the observability layer and must not import the
    experiments package. Header cells are keyed by their position, as
    :func:`~repro.experiments.manifest.load_manifest` keys them.
    """
    records = read_journal(path, manifest_decoder("name"), ReportError)
    if not records or records[0].get("record") != "campaign":
        raise ReportError(f"{path} does not start with a campaign header")
    header = records[0]
    report.campaign_id = str(header.get("campaign_id", ""))
    report.meta = dict(header.get("meta", {}))
    for index, spec in enumerate(header.get("cells", [])):
        summary = report.cell(index, str(spec["name"]))
        summary.name = str(spec["name"])
        summary.kind = str(spec.get("kind", "game"))
        summary.status = "pending"
    for record in records[1:]:
        kind = record.get("record")
        if kind == "resume":
            report.resumes += 1
            continue
        if kind != "cell":
            continue
        summary = report.cell(record["index"], str(record.get("name", "?")))
        status = str(record["status"])
        summary.attempt = record.get("attempt", summary.attempt)
        if status == "retrying":
            reason = str(record.get("error", "unknown"))
            summary.retry_reasons[reason] = summary.retry_reasons.get(reason, 0) + 1
        else:
            summary.status = status
            summary.error = record.get("error")


def fold_trace(report: CampaignReport, path: str | Path) -> None:
    """Fold a merged campaign trace into the report in one pass: the
    per-cell engine activity, keyed by the ``shard_merged`` causality
    records, and the forensics document of its runs."""

    def start(
        event: RunStartEvent, shard: ShardMergedEvent | None
    ) -> tuple[RunRecord, CellSummary]:
        # A run outside every shard (a plain trace) tallies into no cell.
        cell = (
            CellSummary(-1, "?") if shard is None else report.cell(shard.run, shard.cell)
        )
        return RunRecord.start(event, shard), cell

    def add(run: tuple[RunRecord, CellSummary], event: TraceEvent) -> None:
        run[0].add(event)
        run[1].add(event)

    folded = fold_runs(read_jsonl(path), start, add)
    for shard in folded.shards:
        summary = report.cell(shard.run, shard.cell)
        summary.runs = shard.runs
        summary.events = shard.events
        summary.dropped = shard.dropped
        summary.complete = shard.complete
        summary.span = shard.span
        if summary.attempt == 0:
            summary.attempt = shard.attempt
    report.footer = folded.footer
    report.forensics = forensics_document([record for record, _ in folded.runs])


#: The counters the Service section reads, by their row in it.
_SERVICE_COUNTERS = {
    "completed": "service_completed",
    "errored": "service_errors",
    "hits": "service_cache_hits",
    "misses": "service_cache_misses",
    "coalesced": "service_cache_coalesced",
}


def fold_metrics(report: CampaignReport, path: str | Path) -> None:
    """Attach a merged metrics snapshot (``--metrics-out`` JSON).

    What the renderers read is checked here: a histogram's ``values``
    map to integer counts and its ``mean`` is null or a number, and
    each service counter is a number. A bool is no number.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReportError(f"cannot read metrics snapshot {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ReportError(f"{path}: metrics snapshot is not an object")
    numbers = (int, float)
    for name, value in payload.items():
        if not (isinstance(value, dict) and "count" in value and "values" in value):
            continue  # not a histogram snapshot
        counts = value["values"]
        if not isinstance(counts, dict) or any(
            type(count) is not int for count in counts.values()
        ):
            raise ReportError(
                f"{path}: histogram {name!r}: values must map to integer "
                f"counts, got {json.dumps(counts)}"
            )
        mean = value.get("mean")
        if mean is not None and type(mean) not in numbers:
            raise ReportError(
                f"{path}: histogram {name!r}: mean is not a number: "
                f"{json.dumps(mean)}"
            )
    for name in _SERVICE_COUNTERS.values():
        if name in payload and type(payload[name]) not in numbers:
            raise ReportError(
                f"{path}: metric {name!r} is not a number: "
                f"{json.dumps(payload[name])}"
            )
    report.metrics = payload


def load_report(
    manifest: str | Path | None = None,
    trace: str | Path | None = None,
    metrics: str | Path | None = None,
) -> CampaignReport:
    """Fold whichever campaign artifacts exist into one report."""
    if manifest is None and trace is None and metrics is None:
        raise ReportError("nothing to report: no manifest, trace, or metrics")
    report = CampaignReport()
    if manifest is not None:
        fold_manifest(report, manifest)
    if trace is not None:
        fold_trace(report, trace)
    if metrics is not None:
        fold_metrics(report, metrics)
    return report


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def _pct(hist: Histogram, q: float) -> str:
    value = hist.percentile(q)
    return "—" if value is None else f"{value:g}"


def render_markdown(report: CampaignReport, top_blocks: int = 10) -> str:
    """The full ops report as GitHub markdown."""
    out: list[str] = ["# Campaign ops report", ""]
    if report.campaign_id:
        out.append(f"Campaign `{report.campaign_id}`")
        if report.resumes:
            out.append(f"(resumed {report.resumes}x)")
        if report.meta:
            out.append(
                "— flags: `"
                + json.dumps(report.meta, sort_keys=True)
                + "`"
            )
        out.append("")
    cells = report.ordered_cells()

    if cells:
        out += [
            "## Cells",
            "",
            "Fault-gap percentiles are steps between faults — the modeled",
            "latency distribution of the search (higher is better).",
            "",
            "| # | cell | status | attempt | runs | events | faults "
            "| gap p50 | gap p90 | gap p99 | complete |",
            "|---|---|---|---|---|---|---|---|---|---|---|",
        ]
        for c in cells:
            complete = "—" if c.complete is None else ("yes" if c.complete else "no")
            out.append(
                f"| {c.index} | {c.name} | {c.status} | {c.attempt} "
                f"| {c.runs} | {c.events} | {c.faults} "
                f"| {_pct(c.gap_hist, 50)} | {_pct(c.gap_hist, 90)} "
                f"| {_pct(c.gap_hist, 99)} | {complete} |"
            )
        out.append("")

    retry_reasons: dict[str, int] = {}
    retry_outcomes: dict[str, int] = {}
    for c in cells:
        for reason, n in c.retry_reasons.items():
            retry_reasons[reason] = retry_reasons.get(reason, 0) + n
        for outcome, n in c.retry_outcomes.items():
            retry_outcomes[outcome] = retry_outcomes.get(outcome, 0) + n
    if retry_reasons or retry_outcomes:
        out += [
            "## Retries and faults",
            "",
            "Two distinct accountings: *supervision retries* are process-",
            "level failures the campaign parent recovered from; *engine",
            "read outcomes* are simulated disk faults inside the runs.",
            "",
        ]
        if retry_reasons:
            out += ["| supervision retry reason | cells × count |", "|---|---|"]
            out += [
                f"| {reason} | {n} |"
                for reason, n in sorted(retry_reasons.items())
            ]
            out.append("")
        if retry_outcomes:
            out += ["| engine read outcome | count |", "|---|---|"]
            out += [
                f"| {outcome} | {n} |"
                for outcome, n in sorted(retry_outcomes.items())
            ]
            out.append("")

    heat = block_heat(report)
    if heat:
        out += [
            "## Block heat (fault-serviced reads per block)",
            "",
            f"Top {min(top_blocks, len(heat))} of {len(heat)} blocks; "
            "full data in the HTML report's JSON island.",
            "",
            "| block | cell | reads |",
            "|---|---|---|",
        ]
        for cell_name, block, reads in heat[:top_blocks]:
            out.append(f"| `{block}` | {cell_name} | {reads} |")
        out.append("")

    if report.forensics is not None and report.forensics["runs"]:
        out.append(render_forensics_markdown(report.forensics, top_blocks))

    service = service_summary(report.metrics)
    if service is not None:
        out += [
            "## Service",
            "",
            "The search service's serving-stack view: many concurrent",
            "requests over one shared block cache. The shared-cache *hit",
            "ratio* (coalesced waits count as hits — they cost no disk",
            "read) is the governing statistic here, not per-run fault",
            "counts; latency is in modeled work units (steps + read cost).",
            "",
            "| statistic | value |",
            "|---|---|",
            f"| requests completed | {service['completed']} |",
            f"| requests errored | {service['errored']} |",
            f"| cache hits / misses / coalesced | {service['hits']} / "
            f"{service['misses']} / {service['coalesced']} |",
            f"| cache hit ratio | {service['hit_ratio']} |",
            f"| latency p50 / p90 / p99 | {service['latency']['p50']} / "
            f"{service['latency']['p90']} / {service['latency']['p99']} |",
        ]
        for reason, count in sorted(service["shed"].items()):
            out.append(f"| shed ({reason}) | {count} |")
        out.append("")

    if report.metrics:
        out += ["## Merged metrics", "", "| metric | value |", "|---|---|"]
        for name, value in sorted(report.metrics.items()):
            out.append(f"| {name} | {_metric_cell(value)} |")
        out.append("")

    if report.footer is not None:
        out += [
            "## Trace completeness",
            "",
            f"Merged trace declares {report.footer.events_emitted} events, "
            f"{report.footer.events_dropped} dropped by bounded sinks."
            + (
                ""
                if report.footer.events_dropped == 0
                else " **Drops mean the flight recorder wrapped: re-run "
                "with a larger ring or a JSONL sink for full fidelity.**"
            ),
            "",
        ]
    return "\n".join(out)


def _metric_cell(value: Any) -> str:
    """One metrics-snapshot value rendered for a table cell."""
    if isinstance(value, Mapping):
        if "count" in value and "values" in value:  # histogram snapshot
            hist = _hist_from_snapshot(value)
            pcts = ", ".join(
                f"p{q:g}={_pct(hist, q)}" for q in (50.0, 90.0, 99.0)
            )
            return (
                f"n={value.get('count')}, mean={value.get('mean'):.3g}, {pcts}"
                if value.get("mean") is not None
                else f"n={value.get('count')}"
            )
        keys = len(value)
        return f"{keys} labeled value(s)"
    return str(value)


def _hist_from_snapshot(snapshot: Mapping[str, Any]) -> Histogram:
    """Rebuild an exact histogram from its ``snapshot()`` form (keys
    were stringified on the way out)."""
    counts: list[tuple[float, Any]] = []
    values = snapshot.get("values", {})
    if isinstance(values, Mapping):
        for key, occurrences in values.items():
            try:
                counts.append((float(key), occurrences))
            except ValueError:
                continue
    hist = Histogram()
    hist.merge_wire({"counts": counts})
    return hist


def service_summary(metrics: Mapping[str, Any]) -> dict[str, Any] | None:
    """The service section's data, from a merged metrics snapshot —
    ``None`` when the snapshot carries no ``service_*`` instruments
    (the report predates, or never ran, a service burst)."""
    if not any(name.startswith("service_") for name in metrics):
        return None

    def _int(name: str) -> int:
        value = metrics.get(name)
        return int(value) if isinstance(value, (int, float)) else 0

    latency: dict[str, Any] = {"p50": "—", "p90": "—", "p99": "—"}
    snapshot = metrics.get("service_latency")
    if isinstance(snapshot, Mapping) and "values" in snapshot:
        hist = _hist_from_snapshot(snapshot)
        latency = {f"p{q:g}": _pct(hist, q) for q in (50.0, 90.0, 99.0)}
    hit_ratio = metrics.get("service_cache_hit_ratio")
    shed = metrics.get("service_shed")
    return {
        **{row: _int(name) for row, name in _SERVICE_COUNTERS.items()},
        "hit_ratio": (
            f"{hit_ratio:.4f}" if isinstance(hit_ratio, float) else "—"
        ),
        "latency": latency,
        "shed": dict(shed) if isinstance(shed, Mapping) else {},
    }


def block_heat(report: CampaignReport) -> list[tuple[str, str, int]]:
    """``(cell, block, reads)`` rows, hottest first — the heatmap data."""
    rows = [
        (c.name, block, reads)
        for c in report.ordered_cells()
        for block, reads in c.block_reads.items()
    ]
    return sorted(rows, key=lambda r: (-r[2], r[0], r[1]))


def report_data(report: CampaignReport) -> dict[str, Any]:
    """The machine-readable report: the same structure the HTML JSON
    island embeds and ``--format json`` prints."""
    cells: list[dict[str, Any]] = []
    for c in report.ordered_cells():
        cells.append(
            {
                "index": c.index,
                "name": c.name,
                "kind": c.kind,
                "status": c.status,
                "attempt": c.attempt,
                "error": c.error,
                "retry_reasons": dict(sorted(c.retry_reasons.items())),
                "retry_outcomes": dict(sorted(c.retry_outcomes.items())),
                "runs": c.runs,
                "events": c.events,
                "dropped": c.dropped,
                "complete": c.complete,
                "span": c.span,
                "faults": c.faults,
                "fault_gaps": c.gap_hist.percentiles(),
            }
        )
    heat = [
        {"cell": cell, "block": block, "reads": reads}
        for cell, block, reads in block_heat(report)
    ]
    footer = None
    if report.footer is not None:
        footer = {
            "events_emitted": report.footer.events_emitted,
            "events_dropped": report.footer.events_dropped,
        }
    return {
        "campaign": report.campaign_id,
        "meta": report.meta,
        "resumes": report.resumes,
        "cells": cells,
        "block_heat": heat,
        "metrics": report.metrics,
        "service": service_summary(report.metrics),
        "footer": footer,
        "forensics": report.forensics,
    }


def render_json(report: CampaignReport) -> str:
    """The ``--format json`` report: :func:`report_data`, canonically
    serialized (sorted keys, compact separators, trailing newline)."""
    return (
        json.dumps(report_data(report), sort_keys=True, separators=(",", ":"))
        + "\n"
    )


def render_html(report: CampaignReport, top_blocks: int = 10) -> str:
    """A self-contained HTML page: the markdown report plus the full
    report data (cells, block heat, metrics, forensics) as an embedded
    JSON island for plotting."""
    markdown = render_markdown(report, top_blocks=top_blocks)
    data = json.dumps(report_data(report), sort_keys=True)
    escaped = (
        markdown.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
    return "\n".join(
        [
            "<!DOCTYPE html>",
            "<html><head><meta charset=\"utf-8\">",
            "<title>Campaign ops report</title>",
            "<style>body{font-family:monospace;max-width:72em;margin:2em auto;"
            "white-space:pre-wrap}</style>",
            "</head><body>",
            escaped,
            f'<script type="application/json" id="campaign-data">{data}</script>',
            "</body></html>",
        ]
    )


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description=(
            "Render a merged campaign (manifest + trace + metrics) into a "
            "markdown or HTML ops report."
        ),
    )
    parser.add_argument(
        "manifest",
        nargs="?",
        default=None,
        metavar="MANIFEST.jsonl",
        help="the campaign manifest journal (--campaign PATH)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="TRACE.jsonl",
        help="the merged engine trace (--trace-out PATH)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="METRICS.json",
        help="the merged metrics snapshot (--metrics-out PATH)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the report here (default: print markdown to stdout)",
    )
    parser.add_argument(
        "--format",
        choices=("markdown", "html", "json"),
        default="markdown",
        help=(
            "output form: markdown (default), html (markdown plus the "
            "report-data JSON island), or json (the machine-readable "
            "report-data structure itself)"
        ),
    )
    parser.add_argument(
        "--top-blocks",
        type=int,
        default=10,
        metavar="N",
        help="rows in the block-heat table (default 10)",
    )
    args = parser.parse_args(argv)
    if args.top_blocks < 1:
        parser.error(f"--top-blocks must be >= 1, got {args.top_blocks}")
    try:
        report = load_report(
            manifest=args.manifest, trace=args.trace, metrics=args.metrics
        )
    except ReproError as exc:  # unreadable artifacts: one line, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "html":
        rendered = render_html(report, top_blocks=args.top_blocks)
    elif args.format == "json":
        rendered = render_json(report).rstrip("\n")
    else:
        rendered = render_markdown(report, top_blocks=args.top_blocks)
    if args.out:
        from repro.cache import atomic_write_text

        atomic_write_text(args.out, rendered + "\n")
        print(f"ops report written to {args.out}")
    else:
        print(rendered)
    return 0


__all__ = [
    "CampaignReport",
    "CellSummary",
    "ReportError",
    "block_heat",
    "fold_manifest",
    "fold_metrics",
    "fold_trace",
    "load_report",
    "main",
    "render_html",
    "render_json",
    "render_markdown",
    "report_data",
]


if __name__ == "__main__":
    sys.exit(main())
