"""Regenerate the paper's Table 1 from the command line.

Usage::

    python -m repro.experiments            # full sweep (a few minutes)
    python -m repro.experiments --quick    # shortened traces (~1 minute)
    python -m repro.experiments --jobs 4   # cells in 4 worker processes
    python -m repro.experiments --quick --fault-rate 0.05
                                           # same sweep on an unreliable disk
    python -m repro.experiments --quick --trace-out trace.jsonl --metrics
                                           # record a structured event trace
                                           # and print aggregate metrics
    python -m repro.experiments --quick --campaign sweep.jsonl --jobs 4
                                           # crash-safe supervised campaign
    python -m repro.experiments --resume sweep.jsonl
                                           # resume it: completed cells are
                                           # skipped, the rest re-run

Prints the measured table (sigma per row with the paper's envelope),
the closed-form checks, and a verdict line; exits nonzero if any bound
failed. With ``--fault-rate`` every block read runs through the
reliability layer (seeded fault injection, exponential-backoff retries,
replica fallback); runs that die anyway are reported as degraded cells
and do not abort the sweep or fail the verdict. Game bounds are only
*gating* on a reliable disk — a fallback read services a fault from a
worse replica, so an injected-fault run can legitimately land under a
lower bound; such misses are reported but informational. Closed-form
checks are disk-independent and always gate.

Observability flags (see ``repro.obs``):

* ``--trace-out PATH`` records every engine event (faults, block
  reads, retries, fallbacks, evictions) to a JSONL file that
  ``python -m repro.obs.replay`` can reconstruct and verify. Serial
  runs stream it live; with ``--jobs`` or ``--campaign`` each worker
  spools a per-cell shard and the parent merges them into one
  deterministic trace (byte-identical across re-runs and job counts).
* ``--forensics`` analyzes the recorded trace after the sweep
  (``python -m repro.obs.forensics`` inline): per-run stack-distance
  miss-ratio curves, a compulsory/capacity/policy fault taxonomy, the
  per-block churn ledger, and the exact LRU self-check — a prediction
  that misses the observed fault count fails the run.
* ``--metrics`` prints the aggregated metrics registry as JSON;
  worker registries merge losslessly into the printed snapshot. With
  ``--jobs`` or ``--campaign`` the snapshot also holds the campaign's
  own counters (``campaign_cells_started``, ``campaign_cells_done``,
  and with ``--trace-out`` ``campaign_trace_cells`` and
  ``campaign_trace_events``); every other key equals the serial one.
* ``--metrics-out PATH`` writes that merged snapshot to a JSON file.
* ``--progress`` prints one line per sweep cell with elapsed time/ETA:
  in sweep order serially, in completion order with ``--jobs`` or
  ``--campaign``.
* ``--profile`` prints per-cell wall-clock timings as JSON (serial
  runs only; ``--cells`` picks the cells it times).

Performance flags:

* ``--jobs N`` runs the sweep as a campaign (below) with ``N``
  supervised worker processes, journaled to a throw-away manifest in a
  temporary directory that is removed even if the sweep raises.
  Results and merged traces are byte-identical to serial; the profiler
  times cells in this process only, so ``--profile`` excludes it.
* ``--no-cache`` disables the construction cache (every graph,
  blocking, and radius is rebuilt from scratch).
* ``--cache-dir PATH`` persists cached constructions to disk so
  repeated sweeps skip the expensive builds.

Campaign flags (see ``repro.experiments.campaign``):

* ``--campaign PATH`` runs the sweep as a crash-safe campaign: every
  cell is a supervised worker process, and every transition is
  journaled to the JSONL manifest at PATH with atomic commits. Worker
  death (kill/crash), hangs (with ``--cell-timeout``), and corrupted
  result handoffs are retried with backoff; a cell that exhausts
  ``--max-attempts`` degrades into an errored row without aborting
  the sweep. ``--trace-out``/``--metrics`` ride the telemetry plane:
  workers ship per-cell shards sealed before their result commits, and
  the parent merges them into one replay-checkable trace and one
  metrics registry (chaos retries included — only committed attempts
  count).
* ``--resume PATH`` picks a manifest back up after any interruption
  (even SIGKILL of the whole tree): completed cells are loaded from
  the journal, the rest re-run, and the merged output is
  byte-identical to an uninterrupted serial run. Sweep shape flags
  (``--quick``, ``--fault-rate``, ``--fault-seed``, ``--cells``) are
  restored from the manifest header.
* ``--cells A,B,...`` restricts the sweep to named cells (with or
  without a campaign).
* ``--cell-timeout S`` arms a per-attempt wall-clock watchdog.
* ``--max-attempts N`` caps attempts per cell (default 3).
* ``--chaos-kill-every N`` / ``--chaos-corrupt-every N`` /
  ``--chaos-delay S`` / ``--chaos-seed N`` inject deterministic
  worker kills, spill corruption, and straggler delays (testing the
  recovery machinery itself; see ``repro.experiments.chaos``).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile

from repro.errors import ReproError
from repro.experiments.report import degraded, failures, format_checks, format_games
from repro.experiments.table1 import cell_specs, run_all


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce Table 1 of 'Blocking for External Graph Searching'.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run shortened traces (smoke-test scale)",
    )
    parser.add_argument(
        "--figures",
        action="store_true",
        help="print ASCII renderings of Figures 4, 6, and 7 and exit",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the results to a JSON file",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="inject block-read faults at this per-attempt rate "
        "(3:1 transient:permanent-loss; default 0 = reliable disk)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the fault injector and retry jitter",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="stream structured engine events (JSONL) to this file; "
        "replay with: python -m repro.obs.replay PATH",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="aggregate engine metrics across the sweep and print them as JSON",
    )
    parser.add_argument(
        "--forensics",
        action="store_true",
        help="after the sweep, run stack-distance forensics over the "
        "recorded trace (requires --trace-out; works serially, with "
        "--jobs, and on campaign merged traces): miss-ratio curves, "
        "fault taxonomy, block ledger, and the exact LRU self-check "
        "(any prediction mismatch fails the run)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the merged metrics registry snapshot to this JSON file "
        "(works serially, with --jobs, and with --campaign: worker "
        "registries are merged losslessly into one)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one progress line per sweep cell (elapsed/ETA)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-cell wall-clock timings as JSON",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run sweep cells in N worker processes, as a campaign on a "
        "throw-away journal (default 1 = serial; results are identical "
        "either way)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the construction cache (rebuild every graph/blocking)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="persist cached constructions (graphs, blockings, radii) "
        "to this directory across runs",
    )
    parser.add_argument(
        "--campaign",
        metavar="PATH",
        help="run as a crash-safe campaign journaled to this JSONL manifest "
        "(supervised workers, per-cell retries, resumable)",
    )
    parser.add_argument(
        "--resume",
        metavar="PATH",
        help="resume a campaign manifest: skip completed cells, re-run the rest",
    )
    parser.add_argument(
        "--cells",
        metavar="A,B,...",
        help="restrict the sweep to these named cells (comma-separated)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="S",
        help="campaign watchdog: SIGKILL any cell attempt running longer "
        "than S seconds (counts as a retryable failure)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="campaign retry cap per cell (default 3); an exhausted game "
        "cell degrades to an errored row instead of aborting",
    )
    parser.add_argument(
        "--chaos-kill-every",
        type=int,
        default=0,
        metavar="N",
        help="chaos: SIGKILL the worker of every Nth cell (first attempt)",
    )
    parser.add_argument(
        "--chaos-corrupt-every",
        type=int,
        default=0,
        metavar="N",
        help="chaos: corrupt the committed result spill of every Nth cell",
    )
    parser.add_argument(
        "--chaos-delay",
        type=float,
        default=0.0,
        metavar="S",
        help="chaos: delay every cell by ~S seconds (seeded jitter)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the chaos plan's jitter streams",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.fault_rate <= 1.0:
        parser.error(f"--fault-rate must be in [0, 1], got {args.fault_rate}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.max_attempts is not None and args.max_attempts < 1:
        parser.error(f"--max-attempts must be >= 1, got {args.max_attempts}")
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        parser.error(f"--cell-timeout must be > 0, got {args.cell_timeout}")
    for flag, value in (
        ("--chaos-kill-every", args.chaos_kill_every),
        ("--chaos-corrupt-every", args.chaos_corrupt_every),
        ("--chaos-delay", args.chaos_delay),
    ):
        if value < 0:
            parser.error(f"{flag} must be >= 0, got {value}")
    cells = args.cells.split(",") if args.cells else None
    if cells is not None:
        try:
            cell_specs(names=cells)
        except ReproError as exc:
            parser.error(f"--cells: {exc}")
    if args.campaign and args.resume:
        parser.error("--campaign and --resume are mutually exclusive")
    campaign_path = args.campaign or args.resume
    # Campaigns, and --jobs N as a campaign on a throw-away journal, run
    # their cells in supervised worker processes.
    supervised = bool(campaign_path) or args.jobs > 1
    if campaign_path:
        if args.figures:
            parser.error("--figures does not run a sweep; drop --campaign/--resume")
    else:
        for flag, value in (
            ("--cell-timeout", args.cell_timeout is not None),
            ("--max-attempts", args.max_attempts is not None),
            ("--chaos-kill-every", args.chaos_kill_every),
            ("--chaos-corrupt-every", args.chaos_corrupt_every),
            ("--chaos-delay", args.chaos_delay),
        ):
            if value:
                parser.error(f"{flag} requires --campaign or --resume")
    if args.profile and supervised:
        parser.error(
            "--profile times cells in this process, but --campaign, --resume "
            "and --jobs > 1 run them in workers; drop --profile or run serially"
        )
    if args.resume:
        # The manifest header pins the sweep shape; restore it so a bare
        # `--resume PATH` continues exactly the campaign that started.
        from repro.experiments.manifest import ManifestError, load_manifest

        try:
            meta = load_manifest(args.resume).meta
        except ManifestError as exc:
            parser.error(f"--resume: {exc}")
        args.quick = bool(meta.get("quick", args.quick))
        args.fault_rate = float(meta.get("fault_rate", args.fault_rate))
        args.fault_seed = int(meta.get("fault_seed", args.fault_seed))
        if meta.get("cells") is not None:
            cells = list(meta["cells"])
    if args.forensics and not args.trace_out:
        parser.error("--forensics needs the recorded trace; add --trace-out PATH")
    if args.no_cache and args.cache_dir:
        parser.error("--no-cache and --cache-dir are mutually exclusive")
    if args.no_cache or args.cache_dir:
        from repro.cache import configure_cache

        configure_cache(
            enabled=not args.no_cache,
            disk_dir=args.cache_dir,
        )

    if args.figures:
        from repro.experiments.figures import all_figures

        print(all_figures())
        return 0

    reliability = None
    if args.fault_rate > 0:
        from repro.reliability import (
            ExponentialBackoff,
            ProbabilisticFaults,
            ReliabilityConfig,
        )

        reliability = ReliabilityConfig(
            injector=ProbabilisticFaults(
                transient_rate=0.75 * args.fault_rate,
                loss_rate=0.25 * args.fault_rate,
                seed=args.fault_seed,
            ),
            retry=ExponentialBackoff(
                max_attempts=4, jitter=0.5, seed=args.fault_seed
            ),
            step_budget=1_000_000,
        )

    instr = None
    profiler = None
    progress = None
    ambient = contextlib.nullcontext()
    # The telemetry plane (worker shards merged by the parent) carries
    # --trace-out for supervised runs; a live ambient sink serves the
    # serial path. Metrics always aggregate into one ambient registry —
    # worker registries merge into it.
    spooled_trace = bool(args.trace_out) and supervised
    if args.trace_out or args.metrics or args.metrics_out:
        from repro.obs import (
            Instrumentation,
            JsonlSink,
            MetricsRegistry,
            use_instrumentation,
        )

        sink = (
            JsonlSink(args.trace_out)
            if args.trace_out and not spooled_trace
            else None
        )
        metrics = (
            MetricsRegistry() if args.metrics or args.metrics_out else None
        )
        if sink is not None or metrics is not None:
            instr = Instrumentation(sink=sink, metrics=metrics)
            ambient = use_instrumentation(instr)
    if args.profile:
        from repro.obs import PhaseProfiler

        profiler = PhaseProfiler()
    if args.progress:
        from repro.obs import SweepProgress

        progress = SweepProgress()

    with ambient, contextlib.ExitStack() as cleanup:
        if supervised:
            from repro.experiments.campaign import run_campaign
            from repro.experiments.chaos import ChaosConfig

            if not campaign_path:
                # --jobs N alone: the throw-away journal's directory is
                # removed on the way out, even if the sweep raises.
                scratch = cleanup.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-jobs-")
                )
                campaign_path = os.path.join(scratch, "manifest.jsonl")
            chaos = None
            if args.chaos_kill_every or args.chaos_corrupt_every or args.chaos_delay:
                chaos = ChaosConfig(
                    seed=args.chaos_seed,
                    kill_every=args.chaos_kill_every,
                    corrupt_every=args.chaos_corrupt_every,
                    delay_every=1 if args.chaos_delay else 0,
                    delay_seconds=args.chaos_delay,
                )
            games, checks = run_campaign(
                campaign_path,
                quick=args.quick,
                jobs=args.jobs,
                reliability=reliability,
                names=cells,
                resume=bool(args.resume),
                max_attempts=3 if args.max_attempts is None else args.max_attempts,
                cell_timeout=args.cell_timeout,
                chaos=chaos,
                progress=progress,
                meta={
                    "quick": args.quick,
                    "fault_rate": args.fault_rate,
                    "fault_seed": args.fault_seed,
                    "cells": cells,
                },
                trace_out=args.trace_out if spooled_trace else None,
            )
        else:
            games, checks = run_all(
                quick=args.quick,
                reliability=reliability,
                profiler=profiler,
                progress=progress,
                names=cells,
            )
    if instr is not None:
        instr.close()
    if args.trace_out:
        print(f"event trace written to {args.trace_out}\n")
    forensics_failures: list[str] = []
    if args.forensics:
        from repro.obs.forensics import analyze_trace, fold_forensics_metrics
        from repro.obs.forensics import render_markdown as forensics_markdown
        from repro.obs.forensics import self_check_failures

        forensics_doc = analyze_trace(args.trace_out)
        if instr is not None and instr.metrics is not None:
            fold_forensics_metrics(instr.metrics, forensics_doc)
        print(forensics_markdown(forensics_doc))
        forensics_failures = self_check_failures(forensics_doc)
    if args.metrics:
        print("== Metrics ==\n")
        print(instr.metrics.to_json())
        print()
    if args.metrics_out:
        from repro.cache import atomic_write_text

        atomic_write_text(args.metrics_out, instr.metrics.to_json() + "\n")
        print(f"metrics snapshot written to {args.metrics_out}\n")
    if profiler is not None:
        print("== Phase timings ==\n")
        print(profiler.to_json())
        print()
    if args.json:
        from repro.experiments.io import dump_results

        dump_results(args.json, games, checks)
        print(f"results written to {args.json}\n")
    print("== Table 1: adversary games ==\n")
    print(format_games(games))
    print("\n== Closed-form checks (Examples 1-2, BALL COVER) ==\n")
    print(format_checks(checks))
    dead = degraded(games)
    if dead:
        print(f"\n{len(dead)} degraded cell(s) (unreadable under injected faults):")
        for description in dead:
            print(f"  - {description}")
    bad = failures(games, checks)
    if reliability is not None:
        # The paper's game bounds assume a reliable disk; under fault
        # injection a fallback read may service a fault from a worse
        # replica, so bound misses are informational, not failures.
        # Closed-form checks are disk-independent and still gate.
        bad_checks = [c.description for c in checks if not c.holds]
        soft = [d for d in bad if d not in bad_checks]
        if soft:
            print(
                f"\n{len(soft)} bound(s) not met under injected faults "
                f"(informational; bounds assume a reliable disk):"
            )
            for description in soft:
                print(f"  - {description}")
        bad = bad_checks
    if bad:
        print(f"\n{len(bad)} bound(s) violated:")
        for description in bad:
            print(f"  - {description}")
    if forensics_failures:
        print(f"\n{len(forensics_failures)} forensics self-check mismatch(es):")
        for description in forensics_failures:
            print(f"  - {description}")
    if bad or forensics_failures:
        return 1
    print(f"\nAll {len(games)} games and {len(checks)} checks hold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
