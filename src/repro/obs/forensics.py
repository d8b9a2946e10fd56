"""Fault forensics: stack-distance analytics over JSONL traces.

The engine observes faults; this module *explains* them. It consumes a
trace (plain or campaign-merged) and produces, per run:

* **Stack-distance analysis** (generalized Mattson). Weak-model LRU
  refreshes *every* resident holder block on every path step
  (``WeakMemory.visit``), so the miss-only block-read sequence is not
  the true reference string — instrumented step events therefore carry
  the holder blocks (:attr:`~repro.obs.events.StepEvent.blocks`), and
  the pass runs over the arrival-level block-reference string with
  cumulative-*size* distances. Under LRU-evict-until-fit the residents
  always form the maximal recency-stack prefix fitting M (evictions
  take the least-recent resident, and non-residents cannot be ticked),
  so one pass yields the exact fault count at *every* memory size m:
  an arrival faults at m iff its distance exceeds m. The predicted
  fault-vs-m curve is the paper's σ measured across the whole memory
  axis from a single traced run.
* **A fault taxonomy**: compulsory (first reference to a block) /
  capacity (would also fault under Belady MIN at the same m, paged by
  :func:`repro.paging.belady.belady_blocks` over the arrival-level
  block reference string, one step per reference) / policy-induced
  (the rest). Where s>1 makes MIN ill-defined — a recorded arrival
  touching several holder blocks — the taxonomy degrades to "MIN
  unavailable" instead of raising.
* **A per-block ledger**: heat (references), eviction churn
  (load→evict→reload cycles), and inter-reference-gap percentiles.

Everything is deterministic and clock-free: output depends only on the
trace bytes, so a campaign trace that is byte-identical across
``--jobs``, chaos retries, and re-runs yields byte-identical forensics.

The **self-check** is replay-grade: for every clean weak-model LRU run
the stack-distance prediction evaluated at the run's actual m must
equal the engine's observed fault count *exactly* (``--check`` exits
nonzero on any mismatch). A disagreement means the instrumentation,
the engine's paging, or this analysis is wrong — there is no noise to
hide behind.

CLI::

    python -m repro.obs.forensics TRACE [--out forensics.json]
        [--format markdown|json] [--check] [--top-blocks N]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.cache import atomic_write_text
from repro.errors import PagingError, ReproError
from repro.obs.events import (
    BlockReadEvent,
    EvictionEvent,
    RunEndEvent,
    RunStartEvent,
    ShardMergedEvent,
    StepEvent,
    TraceEvent,
    jsonable,
)
from repro.obs.metrics import MetricsRegistry, nearest_rank
from repro.obs.replay import fold_runs
from repro.obs.sinks import read_jsonl

FORENSICS_SCHEMA = 1
"""Wire-form version of the forensics JSON document."""

LRU_EVICTION = "LruEviction"
"""The eviction class name whose runs the self-check binds exactly."""


# -- trace scanning -----------------------------------------------------


@dataclass
class Arrival:
    """One pathfront arrival, as a set of block references.

    ``refs`` lists the blocks the arrival referenced, in recency-tick
    order: the resident holder blocks for a covered arrival, or the
    single block read to service the fault for an uncovered one.
    """

    refs: tuple[Any, ...]
    fault: bool


@dataclass
class RunRecord:
    """Everything forensics needs about one engine run."""

    run: int
    driver: str
    model: str
    block_size: int
    memory_size: int
    eviction: str | None
    cell: str | None = None
    arrivals: list[Arrival] = field(default_factory=list)
    block_sizes: dict[Any, int] = field(default_factory=dict)
    read_sequence: list[Any] = field(default_factory=list)
    eviction_counts: dict[Any, int] = field(default_factory=dict)
    observed_faults: int | None = None
    observed_steps: int | None = None
    error: str | None = None
    touch_tracked: bool = True
    ended: bool = False

    @property
    def complete(self) -> bool:
        """The run ended cleanly with its final counter snapshot."""
        return self.ended and self.error is None

    @classmethod
    def start(
        cls, event: RunStartEvent, shard: ShardMergedEvent | None
    ) -> "RunRecord":
        return cls(
            run=event.run,
            driver=event.driver,
            model=event.model,
            block_size=event.block_size,
            memory_size=event.memory_size,
            eviction=event.eviction,
            cell=None if shard is None else shard.cell,
        )

    def add(self, event: TraceEvent) -> None:
        """Fold one of the run's events into its arrivals and tallies.
        An uncovered arrival is recorded at its ``block_read``, so a
        fault never serviced (the run died, or the trace is torn)
        leaves no arrival."""
        if isinstance(event, StepEvent):
            if event.blocks is None:
                self.touch_tracked = False
            elif event.blocks:
                self.arrivals.append(Arrival(refs=tuple(event.blocks), fault=False))
        elif isinstance(event, BlockReadEvent):
            self.block_sizes.setdefault(event.block_id, event.size)
            self.read_sequence.append(event.block_id)
            self.arrivals.append(Arrival(refs=(event.block_id,), fault=True))
        elif isinstance(event, EvictionEvent):
            if event.block_ids is not None:
                for block_id in event.block_ids:
                    self.eviction_counts[block_id] = (
                        self.eviction_counts.get(block_id, 0) + 1
                    )
        elif isinstance(event, RunEndEvent):
            self.observed_faults = int(event.trace.get("faults", 0))
            self.observed_steps = int(event.trace.get("steps", 0))
            self.error = event.error
            self.ended = True


def scan_trace(path: str | Path) -> list[RunRecord]:
    """Fold a JSONL trace into per-run records, in run-id order
    (:func:`~repro.obs.replay.fold_runs`, which attributes the runs of a
    merged trace to their cells). Torn runs (no ``run_end``) are kept
    but marked incomplete."""
    return fold_runs(read_jsonl(path), RunRecord.start, RunRecord.add).runs


# -- stack-distance analysis --------------------------------------------

#: The top of an empty recency stack: equal to no block id.
_NO_BLOCK: Any = object()


class _Fenwick:
    """Binary indexed tree over reference positions, holding block
    sizes at each block's most recent reference."""

    __slots__ = ("_tree",)

    def __init__(self, size: int) -> None:
        self._tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        while i < len(self._tree):
            self._tree[i] += delta
            i += i & (-i)

    def prefix(self, index: int) -> int:
        """Sum of entries at positions ``<= index``."""
        i = index + 1
        total = 0
        while i > 0:
            total += self._tree[i]
            i -= i & (-i)
        return total


@dataclass
class StackResult:
    """One-pass Mattson analysis of a run's block-reference string."""

    references: int
    compulsory: int
    distances: dict[int, int]  # finite cumulative-size distance -> arrivals
    exact: bool
    note: str | None = None

    def predicted_faults(self, memory_size: int) -> int:
        """LRU faults this run would take at memory size ``m`` — the
        Mattson inclusion property: an arrival faults iff its stack
        distance exceeds m."""
        return self.compulsory + sum(
            count for d, count in self.distances.items() if d > memory_size
        )

    def curve(self, arrivals: int) -> list[list[float]]:
        """The predicted fault-vs-m miss-ratio curve, as
        ``[m, faults, miss_ratio]`` rows at every knee of the step
        function (the distinct finite stack distances)."""
        rows: list[list[float]] = []
        for d in sorted(self.distances):
            faults = self.predicted_faults(d)
            ratio = faults / arrivals if arrivals else 0.0
            rows.append([d, faults, ratio])
        return rows


def stack_distances(rec: RunRecord) -> StackResult | None:
    """Run the generalized Mattson pass over a run's arrivals.

    Returns ``None`` when the run carries no touch-level reference
    string (strong model, or a pre-forensics trace). A covered arrival
    hits at memory size m iff its *nearest* holder is within m
    cumulative copies of the stack top, so multi-holder arrivals take
    the minimum distance over their refs — exact at the run's actual m,
    a projection elsewhere (s=1 runs are exact at every m).

    An arrival whose one reference is the block on top of the stack
    (the last sized block moved there) is at distance that block's
    size, since every other block's latest position lies below the
    top's, and it leaves the stack as it was: it is counted without
    touching the tree.
    """
    if not rec.touch_tracked or rec.model != "weak":
        return None
    positions = sum(len(a.refs) for a in rec.arrivals)
    fenwick = _Fenwick(positions)
    last_pos: dict[Any, int] = {}
    total_size = 0
    pos = 0
    compulsory = 0
    distances: dict[int, int] = {}
    exact = True
    note: str | None = None
    sizes = rec.block_sizes
    top: Any = _NO_BLOCK
    top_size = 0
    for arrival in rec.arrivals:
        refs = arrival.refs
        if len(refs) == 1 and refs[0] == top:
            distances[top_size] = distances.get(top_size, 0) + 1
            pos += 1
            continue
        best: int | None = None
        unseen = 0
        for block_id in refs:
            # Only sized blocks enter the stack, so a holder never seen
            # loaded (a torn trace) counts as unseen.
            at = last_pos.get(block_id)
            if at is None:
                unseen += 1
                continue
            d = total_size - fenwick.prefix(at) + sizes[block_id]
            if best is None or d < best:
                best = d
        if best is None:
            compulsory += 1
            if unseen and not arrival.fault:
                exact = False
                note = "covered arrival references an unseen block"
        else:
            distances[best] = distances.get(best, 0) + 1
        for block_id in refs:
            size = sizes.get(block_id)
            if size is None:
                continue
            at = last_pos.get(block_id)
            if at is None:
                total_size += size
            else:
                fenwick.add(at, -size)
            fenwick.add(pos, size)
            last_pos[block_id] = pos
            top, top_size = block_id, size
            pos += 1
    return StackResult(
        references=pos,
        compulsory=compulsory,
        distances=distances,
        exact=exact,
        note=note,
    )


# -- fault taxonomy -----------------------------------------------------


def taxonomy(rec: RunRecord) -> dict[str, Any]:
    """Split a run's observed faults into compulsory / capacity /
    policy-induced, by replaying the reference string under Belady MIN
    at the same m.

    Compulsory faults are the distinct block ids read, told apart by
    Python equality, as the stack pass and the ledger key their blocks.
    MIN pages the arrival-level block reference string directly
    (:func:`repro.paging.belady.belady_blocks`), one step per
    reference, with each block's recorded size. MIN is defined only
    when every arrival names one block of known size: an arrival that
    touched several holder blocks (an s>1 run, where the block choice
    is free) or a holder never seen loaded makes the taxonomy report
    "MIN unavailable" instead of raising.
    """
    compulsory = len(set(rec.read_sequence))
    out: dict[str, Any] = {
        "compulsory": compulsory,
        "capacity": None,
        "policy_induced": None,
        "min_faults": None,
        "min_status": "",
    }
    if not rec.complete or rec.observed_faults is None:
        out["min_status"] = "unavailable: run incomplete"
        return out
    if rec.model != "weak":
        out["min_status"] = (
            "unavailable: strong-model run (weak-model MIN not comparable)"
        )
        return out
    observed = rec.observed_faults
    if not rec.read_sequence:
        out.update(capacity=0, policy_induced=0, min_faults=0, min_status="exact")
        return out
    if rec.touch_tracked:
        refs: list[tuple[Any, ...]] = [a.refs for a in rec.arrivals]
        basis = "exact"
    else:
        refs = [(block_id,) for block_id in rec.read_sequence]
        basis = "approximate: reads-only reference string"

    from repro.paging.belady import belady_blocks

    sizes = rec.block_sizes
    block_of: list[Any] = []
    try:
        for ref in refs:
            if len(ref) != 1 or ref[0] not in sizes:
                raise _not_one_block(ref)
            block_of.append(ref[0])
        min_faults = belady_blocks(
            block_of, sizes.__getitem__, rec.memory_size
        ).faults
    except PagingError as exc:
        out["min_status"] = f"MIN unavailable: {exc}"
        return out
    capacity = max(0, min(min_faults, observed) - compulsory)
    out.update(
        capacity=capacity,
        policy_induced=observed - compulsory - capacity,
        min_faults=min_faults,
        min_status=basis,
    )
    return out


def _not_one_block(ref: tuple[Any, ...]) -> PagingError:
    """MIN's s=1 error for the first arrival that names no single block
    of known size.

    Forensics once ran MIN on a blocking of pseudo-vertices, and the
    error keeps the vertex that blocking gave the arrival, so forensics
    documents keep their bytes: ``(block, 0)`` for a holder with no
    recorded size (a vertex in no block), and ``("__shared__", 0)`` for
    the run's first arrival with several holders or none (a vertex in
    each of them).
    """
    from repro.paging.belady import s1_violation

    if len(ref) == 1:
        return s1_violation((ref[0], 0), 0)
    return s1_violation(("__shared__", 0), len(ref))


# -- per-block ledger ---------------------------------------------------


def _block_key(block_id: Any) -> str:
    """Deterministic sort/identity key for an arbitrary block id."""
    return json.dumps(jsonable(block_id), sort_keys=True, separators=(",", ":"))


def block_ledger(rec: RunRecord) -> list[dict[str, Any]]:
    """Per-block heat, churn, and inter-reference-gap percentiles.

    References are arrival-indexed: touch-tracked runs count every
    holder refresh, others only the block reads. ``reloads`` counts
    load→evict→reload cycles (every re-read implies an intervening
    eviction under demand paging). A block's gap percentiles are
    ranked in one sorted list of its gaps by
    :func:`~repro.obs.metrics.nearest_rank`, the rule of
    :meth:`~repro.obs.metrics.Histogram.percentile`.
    """
    positions: dict[Any, list[int]] = {}
    if rec.touch_tracked and rec.model == "weak":
        for index, arrival in enumerate(rec.arrivals):
            for block_id in arrival.refs:
                positions.setdefault(block_id, []).append(index)
    else:
        for index, block_id in enumerate(rec.read_sequence):
            positions.setdefault(block_id, []).append(index)
    reads: dict[Any, int] = {}
    for block_id in rec.read_sequence:
        reads[block_id] = reads.get(block_id, 0) + 1
    rows: list[dict[str, Any]] = []
    for block_id in sorted(positions, key=_block_key):
        refs = positions[block_id]
        gaps = sorted([later - earlier for earlier, later in zip(refs, refs[1:])])
        p50, p90, p99 = [
            gaps[nearest_rank(q, len(gaps)) - 1] if gaps else None
            for q in (50, 90, 99)
        ]
        read_count = reads.get(block_id, 0)
        rows.append(
            {
                "run": rec.run,
                "cell": rec.cell,
                "block": jsonable(block_id),
                "references": len(refs),
                "reads": read_count,
                "reloads": max(0, read_count - 1),
                "evictions": rec.eviction_counts.get(block_id, 0),
                "gap_p50": p50,
                "gap_p90": p90,
                "gap_p99": p99,
            }
        )
    return rows


# -- the full document --------------------------------------------------


def run_report(rec: RunRecord) -> dict[str, Any]:
    """The per-run forensics record: stack analysis, taxonomy, and the
    replay-grade self-check."""
    stack = stack_distances(rec)
    tax = taxonomy(rec)
    applicable = (
        stack is not None
        and stack.exact
        and rec.complete
        and rec.observed_faults is not None
        and rec.model == "weak"
        and rec.eviction == LRU_EVICTION
    )
    predicted = (
        stack.predicted_faults(rec.memory_size) if stack is not None else None
    )
    self_check: dict[str, Any] = {
        "applicable": applicable,
        "predicted": predicted if applicable else None,
        "observed": rec.observed_faults if applicable else None,
        "ok": (predicted == rec.observed_faults) if applicable else None,
    }
    stack_doc: dict[str, Any] | None = None
    if stack is not None:
        stack_doc = {
            "references": stack.references,
            "compulsory": stack.compulsory,
            "exact": stack.exact,
            "note": stack.note,
            "predicted_at_m": predicted,
            "distance_histogram": [
                [d, stack.distances[d]] for d in sorted(stack.distances)
            ],
            "miss_ratio_curve": stack.curve(len(rec.arrivals)),
        }
    return {
        "run": rec.run,
        "cell": rec.cell,
        "driver": rec.driver,
        "model": rec.model,
        "eviction": rec.eviction,
        "block_size": rec.block_size,
        "memory_size": rec.memory_size,
        "arrivals": len(rec.arrivals),
        "observed_faults": rec.observed_faults,
        "observed_steps": rec.observed_steps,
        "error": rec.error,
        "touch_tracked": rec.touch_tracked,
        "stack": stack_doc,
        "taxonomy": tax,
        "self_check": self_check,
    }


def analyze_trace(path: str | Path) -> dict[str, Any]:
    """Analyze a whole trace file into the forensics document.

    The document is pure data (no paths, no clocks): serializing it
    with :func:`to_json` is byte-stable for byte-identical traces.
    """
    return document(scan_trace(path))


def document(records: Sequence[RunRecord]) -> dict[str, Any]:
    """The forensics document of a trace's scanned run records."""
    runs = [run_report(rec) for rec in records]
    ledger = [row for rec in records for row in block_ledger(rec)]
    totals: dict[str, Any] = {
        "runs": len(runs),
        "observed_faults": sum(r["observed_faults"] or 0 for r in runs),
        "compulsory": 0,
        "capacity": 0,
        "policy_induced": 0,
        "min_unavailable": 0,
        "self_check": {"applicable": 0, "passed": 0, "failed": 0},
    }
    for run in runs:
        tax = run["taxonomy"]
        if tax["capacity"] is None:
            if tax["min_status"].startswith("MIN unavailable"):
                totals["min_unavailable"] += 1
        else:
            totals["compulsory"] += tax["compulsory"]
            totals["capacity"] += tax["capacity"]
            totals["policy_induced"] += tax["policy_induced"]
        check = run["self_check"]
        if check["applicable"]:
            totals["self_check"]["applicable"] += 1
            totals["self_check"]["passed" if check["ok"] else "failed"] += 1
    return {
        "schema": FORENSICS_SCHEMA,
        "runs": runs,
        "ledger": ledger,
        "totals": totals,
    }


def to_json(doc: Mapping[str, Any]) -> str:
    """The canonical byte-stable serialization of a forensics doc."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def fold_forensics_metrics(
    metrics: MetricsRegistry, doc: Mapping[str, Any]
) -> None:
    """Fold a forensics document into a metrics registry: taxonomy
    counters, self-check outcomes, and the pooled stack-distance
    histogram."""
    runs: Sequence[Mapping[str, Any]] = doc["runs"]
    metrics.counter("forensics_runs").inc(len(runs))
    hist = metrics.histogram("forensics_stack_distance")
    for run in runs:
        stack = run["stack"]
        if stack is not None:
            for distance, count in stack["distance_histogram"]:
                for _ in range(count):
                    hist.observe(distance)
        tax = run["taxonomy"]
        if tax["capacity"] is not None:
            metrics.counter("forensics_compulsory_faults").inc(tax["compulsory"])
            metrics.counter("forensics_capacity_faults").inc(tax["capacity"])
            metrics.counter("forensics_policy_faults").inc(tax["policy_induced"])
        elif tax["min_status"].startswith("MIN unavailable"):
            metrics.counter("forensics_min_unavailable").inc()
        check = run["self_check"]
        if check["applicable"]:
            metrics.counter("forensics_selfcheck_runs").inc()
            if not check["ok"]:
                metrics.counter("forensics_selfcheck_failures").inc()


# -- rendering ----------------------------------------------------------


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_markdown(doc: Mapping[str, Any], top_blocks: int = 10) -> str:
    """Human-readable forensics sections (also embedded by the ops
    report)."""
    lines: list[str] = ["## Fault forensics", ""]
    totals = doc["totals"]
    check = totals["self_check"]
    lines.append(
        f"{totals['runs']} runs, {totals['observed_faults']} observed faults "
        f"— taxonomy: {totals['compulsory']} compulsory, "
        f"{totals['capacity']} capacity, {totals['policy_induced']} "
        f"policy-induced ({totals['min_unavailable']} runs MIN-unavailable). "
        f"Self-check: {check['passed']}/{check['applicable']} exact"
        + (f", **{check['failed']} FAILED**" if check["failed"] else "")
        + "."
    )
    lines.append("")
    lines.append(
        "| run | cell | driver | m | faults | predicted@m | self-check "
        "| compulsory | capacity | policy | MIN |"
    )
    lines.append("|---|---|---|---|---|---|---|---|---|---|---|")
    for run in doc["runs"]:
        tax = run["taxonomy"]
        sc = run["self_check"]
        verdict = "-"
        if sc["applicable"]:
            verdict = "ok" if sc["ok"] else "**MISMATCH**"
        stack = run["stack"]
        predicted = stack["predicted_at_m"] if stack is not None else None
        lines.append(
            f"| {run['run']} | {_fmt(run['cell'])} | {run['driver']} "
            f"| {run['memory_size']} | {_fmt(run['observed_faults'])} "
            f"| {_fmt(predicted)} | {verdict} | {tax['compulsory']} "
            f"| {_fmt(tax['capacity'])} | {_fmt(tax['policy_induced'])} "
            f"| {tax['min_status'] or '-'} |"
        )
    lines.append("")
    lines.append("### Miss-ratio curves")
    lines.append("")
    lines.append(
        "| run | refs | compulsory | distinct d | faults@B | faults@m | "
        "faults@2m |"
    )
    lines.append("|---|---|---|---|---|---|---|")
    for run in doc["runs"]:
        stack = run["stack"]
        if stack is None:
            continue
        counts: dict[int, int] = {
            int(d): int(c) for d, c in stack["distance_histogram"]
        }
        inf = int(stack["compulsory"])

        def _at(m: int) -> int:
            return inf + sum(c for d, c in counts.items() if d > m)

        lines.append(
            f"| {run['run']} | {stack['references']} | {inf} "
            f"| {len(counts)} | {_at(run['block_size'])} "
            f"| {_at(run['memory_size'])} | {_at(2 * run['memory_size'])} |"
        )
    churn = sorted(
        doc["ledger"],
        key=lambda row: (-row["reloads"], -row["references"], row["run"],
                         _block_key(row["block"])),
    )[:top_blocks]
    lines.append("")
    lines.append(f"### Block churn (top {top_blocks} by reloads)")
    lines.append("")
    lines.append(
        "| run | cell | block | refs | reads | reloads | evictions "
        "| gap p50 | p90 | p99 |"
    )
    lines.append("|---|---|---|---|---|---|---|---|---|---|")
    for row in churn:
        lines.append(
            f"| {row['run']} | {_fmt(row['cell'])} | `{row['block']}` "
            f"| {row['references']} | {row['reads']} | {row['reloads']} "
            f"| {row['evictions']} | {_fmt(row['gap_p50'])} "
            f"| {_fmt(row['gap_p90'])} | {_fmt(row['gap_p99'])} |"
        )
    lines.append("")
    return "\n".join(lines)


def self_check_failures(doc: Mapping[str, Any]) -> list[str]:
    """Human-readable mismatch descriptions, empty when all exact."""
    failures: list[str] = []
    for run in doc["runs"]:
        check = run["self_check"]
        if check["applicable"] and not check["ok"]:
            failures.append(
                f"run {run['run']} (cell {run['cell']}, m="
                f"{run['memory_size']}): predicted {check['predicted']} "
                f"!= observed {check['observed']}"
            )
    return failures


# -- CLI ----------------------------------------------------------------


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.forensics",
        description=(
            "Stack-distance analytics, miss-ratio curves, and a fault "
            "taxonomy over a JSONL trace."
        ),
    )
    parser.add_argument("trace", help="trace file (plain or campaign-merged)")
    parser.add_argument(
        "--out", help="write the canonical forensics JSON document here"
    )
    parser.add_argument(
        "--format",
        choices=("markdown", "json"),
        default="markdown",
        help="stdout format (default markdown)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit 1 unless every applicable LRU run's prediction at its "
            "actual m equals the observed fault count (and at least one "
            "run was checkable)"
        ),
    )
    parser.add_argument(
        "--top-blocks", type=int, default=10,
        help="ledger rows in the markdown churn table",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        doc = analyze_trace(args.trace)
    except ReproError as exc:  # an unreadable trace: one line, not a traceback
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        atomic_write_text(args.out, to_json(doc))
    if args.format == "json":
        sys.stdout.write(to_json(doc))
    else:
        print(render_markdown(doc, top_blocks=args.top_blocks))
    if args.check:
        failures = self_check_failures(doc)
        for failure in failures:
            print(f"SELF-CHECK FAILED: {failure}", file=sys.stderr)
        applicable = doc["totals"]["self_check"]["applicable"]
        if applicable == 0:
            print(
                "SELF-CHECK FAILED: no checkable LRU run in the trace",
                file=sys.stderr,
            )
            return 1
        if failures:
            return 1
        print(
            f"self-check ok: {applicable} LRU runs predicted exactly",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
