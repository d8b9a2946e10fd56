"""Trace replay: reconstruct, verify, visualize, and diff JSONL traces.

A JSONL trace (written by :class:`~repro.obs.sinks.JsonlSink`) is a
complete record of the Section 2 game: replaying its events rebuilds
every :class:`~repro.core.stats.SearchTrace` counter — steps, faults,
fault gaps, the block-read sequence, retry/fallback accounting, and
modeled I/O time — without re-running the search. Each run's
``run_end`` event carries the engine's own final snapshot, so replay
doubles as an end-to-end integrity check of the instrumentation layer
(:func:`verify_run`; CI runs it after every traced sweep).

Command line::

    python -m repro.obs.replay trace.jsonl            # per-run summaries
    python -m repro.obs.replay trace.jsonl --check    # verify reconstruction
    python -m repro.obs.replay trace.jsonl --timeline # ASCII fault timelines
    python -m repro.obs.replay a.jsonl --diff b.jsonl # compare two traces

Exit status: 1 when ``--check`` finds a reconstruction mismatch or no
run to check, or ``--diff`` finds differing runs; 2 when a trace cannot
be read (the one-line error names the file, and the line at fault) or
``--run`` names no run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Generic, Iterable, Sequence, TypeVar

from repro.core.stats import SearchTrace
from repro.errors import ReproError
from repro.obs.events import (
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
    jsonable,
)
from repro.obs.sinks import read_jsonl

_TIMELINE_CHARS = " .:-=+*#%@"


@dataclass
class ReplayedRun:
    """One run reconstructed from its events."""

    run: int
    driver: str
    block_size: int
    memory_size: int
    model: str
    read_cost: float | None
    trace: SearchTrace = field(default_factory=SearchTrace)
    events: int = 0
    evictions: int = 0
    evicted_copies: int = 0
    declared: dict[str, Any] | None = None  # the run_end snapshot, wire form
    error: str | None = None

    @property
    def complete(self) -> bool:
        """Whether the trace contained this run's ``run_end`` event."""
        return self.declared is not None

    def describe(self) -> str:
        head = (
            f"run {self.run} [{self.driver} {self.model} "
            f"B={self.block_size} M={self.memory_size}]"
        )
        tail = f" ERROR={self.error}" if self.error else ""
        if not self.complete:
            tail += " (truncated: no run_end)"
        return f"{head}: {self.trace.summary()}{tail}"

    @classmethod
    def start(
        cls, event: RunStartEvent, shard: ShardMergedEvent | None
    ) -> "ReplayedRun":
        return cls(
            run=event.run,
            driver=event.driver,
            block_size=event.block_size,
            memory_size=event.memory_size,
            model=event.model,
            read_cost=event.read_cost,
        )

    def add(self, event: TraceEvent) -> None:
        """Fold one of the run's events into its counters, as the engine
        counts: a ``step`` per path step, a ``fault`` per uncovered
        arrival, a ``block_read`` per successful read (``read_cost`` of
        I/O time), a ``retry`` per *failed* attempt (``read_cost`` plus
        any granted backoff delay, in that order: float-exact against
        the engine), a ``fallback`` per replica rescue."""
        self.events += 1
        trace = self.trace
        if isinstance(event, StepEvent):
            trace.steps += 1
        elif isinstance(event, FaultEvent):
            trace.faults += 1
            trace.fault_gaps.append(event.gap)
        elif isinstance(event, BlockReadEvent):
            trace.blocks_read += 1
            trace.block_reads.append(event.block_id)
            if self.read_cost is not None:
                trace.io_time += self.read_cost
        elif isinstance(event, RetryEvent):
            trace.failed_reads += 1
            if event.outcome == "corrupt":
                trace.corrupt_reads += 1
            if self.read_cost is not None:
                trace.io_time += self.read_cost
            if event.delay is not None:
                trace.retries += 1
                trace.io_time += event.delay
        elif isinstance(event, FallbackEvent):
            trace.fallback_reads += 1
        elif isinstance(event, EvictionEvent):
            self.evictions += 1
            self.evicted_copies += event.copies
        elif isinstance(event, RunEndEvent):
            self.declared = dict(event.trace)
            self.error = event.error


R = TypeVar("R")


@dataclass
class FoldedTrace(Generic[R]):
    """What one pass over a trace gathered."""

    runs: list[R]  # one state per run_start, in run-id order
    shards: list[ShardMergedEvent]  # a merged trace's cells, in order
    footer: TraceFooterEvent | None


def fold_runs(
    events: Iterable[TraceEvent],
    start: Callable[[RunStartEvent, ShardMergedEvent | None], R],
    add: Callable[[R, TraceEvent], None],
) -> FoldedTrace[R]:
    """The one event fold: ``start`` builds a run's state from its
    ``run_start`` and the cell it belongs to — the latest
    ``shard_merged`` record, if its ``[run_base, run_base + runs)``
    range holds the run — and ``add`` takes each later event of the run.

    The records that frame a trace (``shard_merged`` and
    ``trace_footer``) carry cell indices, not run ids, and join no run.
    An engine event whose run id is not an ``int``, one before its
    run's ``run_start``, or a second ``run_start`` for one run raises
    :class:`ReproError` naming the run.
    """
    runs: dict[int, R] = {}
    shards: list[ShardMergedEvent] = []
    footer: TraceFooterEvent | None = None
    for event in events:
        if isinstance(event, CampaignEvent):
            if isinstance(event, ShardMergedEvent):
                shards.append(event)
            elif isinstance(event, TraceFooterEvent):
                footer = event
            continue
        run = event.run
        if type(run) is not int:  # run ids key, sort and range-test runs
            raise ReproError(f"{event.kind} for run {run!r}: not an integer run id")
        if isinstance(event, RunStartEvent):
            if run in runs:
                raise ReproError(f"duplicate run_start for run {run}")
            shard = shards[-1] if shards else None
            if shard is not None and not (
                shard.run_base <= run < shard.run_base + shard.runs
            ):
                shard = None
            runs[run] = start(event, shard)
            continue
        state = runs.get(run)
        if state is None:
            raise ReproError(f"event for run {run} before its run_start: {event}")
        add(state, event)
    return FoldedTrace([runs[k] for k in sorted(runs)], shards, footer)


def replay_events(events: Iterable[TraceEvent]) -> list[ReplayedRun]:
    """Fold an event stream back into per-run search traces."""
    return fold_runs(events, ReplayedRun.start, ReplayedRun.add).runs


def replay_file(path: str | Path) -> list[ReplayedRun]:
    """Replay a JSONL trace file."""
    return replay_events(read_jsonl(path))


def verify_run(run: ReplayedRun) -> list[str]:
    """Field-by-field mismatches between the reconstructed trace and
    the engine's declared ``run_end`` snapshot (empty = exact match).

    Comparison happens in wire (JSON) form, so tuple/list identifier
    spelling cannot cause false alarms.
    """
    if run.declared is None:
        return [f"run {run.run}: trace is truncated (no run_end event)"]
    reconstructed = jsonable(run.trace.snapshot())
    mismatches = []
    for key in sorted(set(reconstructed) | set(run.declared)):
        got = reconstructed.get(key)
        want = run.declared.get(key)
        if got != want:
            mismatches.append(
                f"run {run.run}: {key} reconstructed={got!r} declared={want!r}"
            )
    return mismatches


# ---------------------------------------------------------------------------
# ASCII rendering.
# ---------------------------------------------------------------------------


def fault_timeline(trace: SearchTrace, width: int = 60) -> str:
    """The run's faults, bucketed along its step axis as a density
    strip — where in the walk the blocking was hurting."""
    width = max(width, 1)
    steps = max(trace.steps, 1)
    bins = [0] * width
    position = 0
    for gap in trace.fault_gaps:
        position += gap
        index = min(position * width // steps, width - 1)
        bins[index] += 1
    peak = max(bins) if any(bins) else 1
    strip = "".join(
        _TIMELINE_CHARS[0]
        if count == 0
        else _TIMELINE_CHARS[1 + count * (len(_TIMELINE_CHARS) - 2) // peak]
        for count in bins
    )
    return (
        f"faults over {trace.steps} steps "
        f"({trace.faults} faults, peak {peak}/bin)\n|{strip}|"
    )


def gap_histogram_ascii(trace: SearchTrace, width: int = 40) -> str:
    """The fault-gap distribution as horizontal bars: how often the
    blocking was pushed to each spacing (its worst case is the top
    row)."""
    histogram = trace.gap_histogram()
    if not histogram:
        return "no faults recorded"
    peak = max(histogram.values())
    lines = ["gap      count"]
    for gap, count in histogram.items():
        bar = "#" * max(1, count * width // peak)
        lines.append(f"{gap:>6} {count:>6} {bar}")
    return "\n".join(lines)


def diff_traces(a: SearchTrace, b: SearchTrace) -> list[str]:
    """Human-readable differences between two traces (empty = equal)."""
    differences = []
    for name in (
        "steps",
        "faults",
        "blocks_read",
        "retries",
        "failed_reads",
        "corrupt_reads",
        "fallback_reads",
        "io_time",
    ):
        left, right = getattr(a, name), getattr(b, name)
        if left != right:
            differences.append(f"{name}: {left} != {right}")
    for name in ("fault_gaps", "block_reads"):
        left, right = getattr(a, name), getattr(b, name)
        if left != right:
            index = next(
                (
                    i
                    for i, (x, y) in enumerate(zip(left, right))
                    if x != y
                ),
                min(len(left), len(right)),
            )
            at_left = repr(left[index]) if index < len(left) else "<end>"
            at_right = repr(right[index]) if index < len(right) else "<end>"
            differences.append(
                f"{name}: first divergence at index {index} "
                f"({at_left} != {at_right}), "
                f"lengths {len(left)}/{len(right)}"
            )
    return differences


def diff_runs(
    left: Sequence[ReplayedRun], right: Sequence[ReplayedRun]
) -> list[str]:
    """Pair runs by position and report every difference."""
    differences = []
    if len(left) != len(right):
        differences.append(f"run counts differ: {len(left)} != {len(right)}")
    for a, b in zip(left, right):
        for line in diff_traces(a.trace, b.trace):
            differences.append(f"run {a.run}: {line}")
    return differences


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.replay",
        description="Replay, verify, and diff JSONL search traces.",
    )
    parser.add_argument("trace", help="JSONL trace file to replay")
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify each run's reconstruction against its run_end "
        "snapshot; exit 1 on any mismatch, or if the trace holds no run",
    )
    parser.add_argument(
        "--timeline",
        action="store_true",
        help="render each run's ASCII fault timeline and gap histogram",
    )
    parser.add_argument(
        "--diff",
        metavar="OTHER",
        help="compare against a second trace file; exit 1 if they differ",
    )
    parser.add_argument(
        "--run",
        type=int,
        metavar="N",
        help="restrict output to one run id",
    )
    args = parser.parse_args(argv)

    try:
        runs = replay_file(args.trace)
        other = replay_file(args.diff) if args.diff else []
    except ReproError as exc:  # an unreadable trace: one line, not a traceback
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    if args.run is not None:
        runs = [r for r in runs if r.run == args.run]
        if not runs:
            print(f"no run {args.run} in {args.trace}", file=sys.stderr)
            return 2
    print(f"{args.trace}: {len(runs)} run(s)")
    exit_code = 0

    for run in runs:
        print(run.describe())
        if args.timeline:
            print(fault_timeline(run.trace))
            print(gap_histogram_ascii(run.trace))
            print()

    if args.check:
        mismatches = [line for run in runs for line in verify_run(run)]
        if not runs:
            print(f"\nnothing to check: {args.trace} holds no run")
            exit_code = 1
        elif mismatches:
            print(f"\n{len(mismatches)} reconstruction mismatch(es):")
            for line in mismatches:
                print(f"  - {line}")
            exit_code = 1
        else:
            print(f"\nall {len(runs)} run(s) reconstruct exactly")

    if args.diff:
        if args.run is not None:
            other = [r for r in other if r.run == args.run]
        differences = diff_runs(runs, other)
        if differences:
            print(f"\n{len(differences)} difference(s) vs {args.diff}:")
            for line in differences:
                print(f"  - {line}")
            exit_code = 1
        else:
            print(f"\ntraces match {args.diff} exactly")

    return exit_code


if __name__ == "__main__":
    sys.exit(main())
