"""The crash-safe campaign runner: supervised, journaled, resumable sweeps.

:func:`run_campaign` executes the same
:class:`~repro.experiments.table1.CellSpec` list as the serial
``run_all``, but treats every cell as a *supervised job*. It is the
sweep's only multi-process runner: the CLI's ``--jobs N`` without
``--campaign`` runs it on a manifest in a throw-away directory.

* each cell attempt runs in its own forked worker process, which
  commits its results to a crash-atomic pickle spill (tempfile +
  ``os.replace``) and exits — the parent never trusts a worker that
  died before the rename;
* the parent journals every transition (started / retrying / done /
  failed) to an append-only JSONL manifest
  (:mod:`repro.experiments.manifest`), committed atomically, so a
  campaign killed at *any* instant — including mid-commit — leaves a
  parseable journal that ``resume=True`` (CLI ``--resume``) picks up,
  skipping completed cells and re-running only pending or failed ones;
* a per-cell wall-clock watchdog (``cell_timeout``) SIGKILLs hung
  workers — the process-level sibling of the reliability layer's
  step-budget watchdog;
* worker death mid-cell (SIGKILL, OOM, crash) is a *per-cell* event:
  the attempt is retried under a :class:`~repro.reliability.retry`
  backoff policy, and a cell that exhausts its attempts degrades into
  an errored :class:`~repro.experiments.harness.ExperimentResult` —
  exactly the harness's existing degradation contract — while its
  siblings run to completion;
* campaign transitions are counted in the ambient :mod:`repro.obs`
  metrics registry (the ``campaign_*`` counters and the retry-delay
  histogram); the manifest is their only record, and the parent emits
  no trace events. The :mod:`~repro.experiments.chaos` harness injects
  worker kills, straggler delays, and spill corruption so all of the
  above is itself tested;
* with ``trace_out=`` (CLI ``--trace-out``) or an ambient metrics
  registry installed, the telemetry plane (:mod:`repro.obs.spans`)
  ships per-worker shards: each attempt records its engine events and
  metrics next to its result spill, sealed *before* the result is
  committed, and the parent folds the committed shards into one
  deterministic merged trace (``replay --check``-clean,
  byte-identical across re-runs and ``jobs`` counts) and one merged
  metrics registry.

Because cells are deterministic and results are journaled in the
stable wire form of :mod:`repro.experiments.io`, a campaign's merged
``(games, checks)`` — interrupted, chaos-ridden, resumed, or not — is
byte-identical (via ``dump_results``) to an uninterrupted serial
``run_all`` over the same cells, except for cells that exhausted their
retries and degraded.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _sentinel_wait
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.cache import atomic_write_bytes
from repro.errors import ReproError
from repro.experiments.chaos import ChaosConfig, ChaosController
from repro.experiments.harness import CheckResult, ExperimentResult
from repro.experiments.manifest import (
    ManifestWriter,
    load_manifest,
    sweep_digest,
)
from repro.experiments.table1 import CellSpec, cell_specs, run_cell
from repro.obs import (
    ShardRef,
    current_instrumentation,
    merge_shard_metrics,
    merge_shards,
)
from repro.reliability import ExponentialBackoff, ReliabilityConfig, RetryPolicy


class CampaignError(ReproError):
    """A campaign-level failure the runner cannot degrade around."""


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork if available (cheap, inherits caches and the hash seed);
    otherwise the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


# ---------------------------------------------------------------------------
# Worker side.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _WorkerTask:
    """Everything one cell attempt needs, as picklable data."""

    spec: CellSpec
    index: int
    attempt: int
    result_path: str
    chaos: ChaosConfig | None
    telemetry: bool = False


def _cell_worker(task: _WorkerTask) -> None:
    """Run one cell attempt and commit its results atomically.

    Runs in a (usually forked) child process. The parent's ambient
    instrumentation is never reused here: its trace sink owns an open
    file handle that must not receive interleaved writes from many
    children. Without telemetry the worker runs silent (the original
    contract); with it, the worker records into its *own* per-attempt
    shard (:class:`~repro.obs.spans.ShardRecorder`) next to the result
    spill. The shard is sealed — footer appended, metrics committed —
    *before* the result spill is renamed into place, so a committed
    result implies complete telemetry: the same happens-before edge the
    campaign journal relies on.
    """
    from repro.obs import ShardRecorder, shard_paths, use_instrumentation

    recorder = None
    if task.telemetry:
        trace_path, metrics_path = shard_paths(
            Path(task.result_path).parent, task.index, task.attempt
        )
        recorder = ShardRecorder(trace_path, metrics_path)
    with use_instrumentation(
        recorder.instrumentation if recorder is not None else None
    ):
        chaos = ChaosController(task.chaos) if task.chaos is not None else None
        if chaos is not None:
            chaos.before_cell(task.index, task.attempt)
        out = run_cell(task.spec)
        if recorder is not None:
            recorder.close()  # telemetry commits strictly before the result
        atomic_write_bytes(
            task.result_path, pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL)
        )
        if chaos is not None:
            chaos.after_spill(task.index, task.attempt, task.result_path)


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


@dataclass
class _Active:
    """One in-flight worker under supervision."""

    proc: Any  # multiprocessing.Process (context-specific class)
    index: int
    spec: CellSpec
    attempt: int
    result_path: Path
    deadline: float | None  # monotonic seconds; None = no watchdog


def _metrics() -> Any:
    """The ambient metrics registry, or None."""
    return getattr(current_instrumentation(), "metrics", None)


def _count(name: str, amount: int = 1) -> None:
    metrics = _metrics()
    if metrics is not None:
        metrics.counter(name).inc(amount)


def _observe(name: str, value: float) -> None:
    metrics = _metrics()
    if metrics is not None:
        metrics.histogram(name).observe(value)


def run_campaign(
    manifest_path: str | Path,
    quick: bool = False,
    jobs: int = 1,
    reliability: ReliabilityConfig | None = None,
    names: Sequence[str] | None = None,
    resume: bool = False,
    retry: RetryPolicy | None = None,
    max_attempts: int = 3,
    cell_timeout: float | None = None,
    chaos: ChaosConfig | None = None,
    progress: "Callable[[int, int, str], None] | None" = None,
    meta: Mapping[str, Any] | None = None,
    trace_out: str | Path | None = None,
) -> tuple[list[ExperimentResult], list[CheckResult]]:
    """Run (or resume) the Table 1 sweep as a crash-safe campaign.

    Args:
        manifest_path: the JSONL journal. Fresh campaigns overwrite it;
            ``resume=True`` loads it, verifies the cell fingerprints
            match the requested sweep, skips completed cells, and
            re-runs pending/failed ones.
        quick, reliability, names: the sweep shape, exactly as
            :func:`~repro.experiments.table1.cell_specs` takes them.
        jobs: maximum concurrently supervised workers (>= 1).
        retry: backoff policy granting re-attempts after a worker
            failure; defaults to seeded-jitter exponential backoff with
            ``max_attempts`` total attempts per cell. Delays are the
            policy's modeled units, recorded in the journal and the
            metrics, never slept: a granted retry launches at once.
        cell_timeout: per-attempt wall-clock watchdog in seconds; a
            worker past it is SIGKILLed and the attempt counts as a
            ``timeout`` failure. ``None`` disables the watchdog.
        chaos: a :class:`~repro.experiments.chaos.ChaosConfig` injected
            into every worker (tests the recovery paths themselves).
        progress: ``progress(done, total, name)`` after each terminal
            cell, completed-on-resume cells included.
        meta: extra JSON-able data stored in a fresh manifest's header
            (the CLI records its flags here for ``--resume``).
        trace_out: write the campaign's *merged engine trace* here. Each
            worker records its cell into a per-attempt shard next to its
            result spill; after the last cell the shards of committed
            attempts are folded — in cell-index order, engine run ids
            renumbered globally — into one JSONL trace that ``python -m
            repro.obs.replay --check`` verifies and that is
            byte-identical across re-runs, ``jobs`` counts, and
            chaos-induced retries. Metrics shards are merged the same
            way into the ambient registry (shard shipping also turns on
            when an ambient registry is installed without ``trace_out``).

    Returns:
        ``(games, checks)`` merged in spec order. Cells that exhausted
        their retries appear as errored ``ExperimentResult`` rows (the
        same shape :func:`~repro.experiments.table1.run_cell` degrades
        to); an exhausted *check* cell raises :class:`CampaignError`
        after journaling, since checks have no error column.
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    if max_attempts < 1:
        raise ReproError(f"max_attempts must be >= 1, got {max_attempts}")
    if cell_timeout is not None and cell_timeout <= 0:
        raise ReproError(f"cell_timeout must be > 0, got {cell_timeout}")
    manifest_path = Path(manifest_path)
    specs = cell_specs(quick=quick, reliability=reliability, names=names)
    total = len(specs)
    results: dict[int, list[ExperimentResult] | list[CheckResult]] = {}
    # Queue entries: (cell index, attempts already made).
    pending: deque[tuple[int, int]] = deque()

    if resume:
        manifest = load_manifest(manifest_path)
        manifest.verify_specs(specs)
        for index in manifest.completed_indices():
            results[index] = manifest.cell(index).load_results()
        for index in manifest.pending_indices():
            pending.append((index, 0))
        writer = ManifestWriter.resume(manifest)
        writer.append(
            {
                "record": "resume",
                "campaign_id": manifest.campaign_id,
                "completed": len(results),
                "pending": len(pending),
            }
        )
        _count("campaign_resumes")
    else:
        writer = ManifestWriter.create(manifest_path, specs, meta=meta)
        for index in range(total):
            pending.append((index, 0))

    if retry is None:
        retry = ExponentialBackoff(
            max_attempts=max_attempts, base_delay=1.0, jitter=0.5, seed=0
        )
    retry.reset()

    workdir = manifest_path.with_name(manifest_path.name + ".cells")
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = _pool_context()
    active: list[_Active] = []
    done = len(results)
    # Shard shipping: on when the caller wants a merged trace, or when
    # an ambient metrics registry is installed (the workers' registries
    # fold back into it). Cells completed on a previous run — resumed
    # from the journal, their shards long gone — stay as placeholder
    # refs the merge marks incomplete rather than failing.
    ambient_metrics = _metrics()
    telemetry = trace_out is not None or ambient_metrics is not None
    shards: dict[int, ShardRef] = {}

    def finish(index: int, name: str) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total, name)

    def fail_attempt(job: _Active, reason: str) -> None:
        """One attempt failed; retry if granted, else degrade."""
        delay = retry.grant(job.attempt)
        spec = job.spec
        if delay is not None:
            writer.cell_retrying(job.index, spec.name, job.attempt, reason, delay)
            _count("campaign_retries")
            _observe("campaign_retry_delay", delay)
            pending.append((job.index, job.attempt))
            return
        error = (
            f"cell {spec.name!r} exhausted {job.attempt} attempt(s); "
            f"last failure: {reason}"
        )
        writer.cell_failed(job.index, spec.name, job.attempt, error)
        _count("campaign_cells_failed")
        if spec.kind != "game":
            raise CampaignError(
                f"check {error} — check cells have no error column to "
                f"degrade into; resume the manifest to retry it"
            )
        # The same degraded shape run_cell produces for a dead game
        # cell: the campaign completes and reports, never aborts.
        results[job.index] = [
            ExperimentResult(
                experiment=f"cell:{spec.name}",
                description=f"cell {spec.name!r} failed to run",
                error=f"CampaignError: {error}",
            )
        ]
        finish(job.index, spec.name)

    def reap(job: _Active) -> None:
        """A worker exited (or was killed): classify and dispatch."""
        exitcode = job.proc.exitcode
        spec = job.spec
        if exitcode == 0:
            try:
                out = pickle.loads(job.result_path.read_bytes())
                if not isinstance(out, list):
                    raise ReproError(
                        f"result spill holds {type(out).__name__}, not a list"
                    )
            except (OSError, pickle.PickleError, EOFError, ReproError,
                    AttributeError, IndexError, ValueError):
                # Clean exit but torn/garbled spill: the transport
                # failed, not the cell — retry it.
                fail_attempt(job, "corrupt-result")
                return
            finally:
                try:
                    os.unlink(job.result_path)
                except OSError:
                    pass
            results[job.index] = out
            if telemetry:
                # Only the committed attempt's shard is merged; earlier
                # (killed, corrupted) attempts left torn files behind
                # that are swept with the workdir.
                shards[job.index] = ShardRef.locate(
                    workdir, job.index, spec.name, job.attempt
                )
            writer.cell_done(job.index, spec.name, job.attempt, out, spec.kind)
            _count("campaign_cells_done")
            finish(job.index, spec.name)
            return
        reason = "killed" if (exitcode is not None and exitcode < 0) else "crashed"
        _count("campaign_worker_deaths")
        fail_attempt(job, reason)

    try:
        while pending or active:
            # Launch as many pending cells as the job cap allows.
            now = time.monotonic()
            while pending and len(active) < jobs:
                index, attempts_made = pending.popleft()
                attempt = attempts_made + 1
                spec = specs[index]
                result_path = workdir / f"cell-{index:03d}-a{attempt}.pkl"
                try:
                    os.unlink(result_path)
                except OSError:
                    pass
                task = _WorkerTask(
                    spec=spec,
                    index=index,
                    attempt=attempt,
                    result_path=str(result_path),
                    chaos=chaos,
                    telemetry=telemetry,
                )
                proc = ctx.Process(target=_cell_worker, args=(task,), daemon=True)
                proc.start()
                writer.cell_started(index, spec.name, attempt)
                _count("campaign_cells_started")
                deadline = now + cell_timeout if cell_timeout is not None else None
                active.append(
                    _Active(proc, index, spec, attempt, result_path, deadline)
                )

            # Block until a worker exits or a watchdog deadline passes.
            now = time.monotonic()
            horizon = 0.5
            for job in active:
                if job.deadline is not None:
                    horizon = min(horizon, job.deadline - now)
            _sentinel_wait(
                [job.proc.sentinel for job in active], timeout=max(horizon, 0.0)
            )

            now = time.monotonic()
            still_active: list[_Active] = []
            for job in active:
                if job.proc.exitcode is not None or not job.proc.is_alive():
                    job.proc.join()
                    reap(job)
                elif job.deadline is not None and now >= job.deadline:
                    # The per-cell watchdog: a hung worker is reaped by
                    # force, exactly like the step-budget watchdog reaps a
                    # runaway trace — but at the process level.
                    job.proc.kill()
                    job.proc.join()
                    _count("campaign_watchdog_kills")
                    fail_attempt(job, "timeout")
                else:
                    still_active.append(job)
            active = still_active
    finally:
        # A sweep that raises (an exhausted check cell, an interrupt)
        # takes its in-flight workers down with it, so none outlives
        # the call writing into the workdir.
        for job in active:
            job.proc.kill()
            job.proc.join()

    if telemetry:
        refs = [
            shards.get(
                index,
                ShardRef(
                    index=index,
                    name=spec.name,
                    attempt=0,
                    trace_path=None,
                    metrics_path=None,
                ),
            )
            for index, spec in enumerate(specs)
        ]
        sweep = sweep_digest(specs)
        if trace_out is not None:
            report = merge_shards(trace_out, refs, sweep)
            _count("campaign_trace_cells", report.cells)
            _count("campaign_trace_events", report.events)
            if report.dropped:
                _count("campaign_trace_events_dropped", report.dropped)
        if ambient_metrics is not None:
            merge_shard_metrics(ambient_metrics, refs)
        # Sweep every shard file — committed and torn alike — so the
        # workdir can be removed like any fully-reaped campaign's.
        for pattern in ("cell-*.trace.jsonl", "cell-*.metrics.json"):
            for stale in workdir.glob(pattern):
                try:
                    os.unlink(stale)
                except OSError:
                    pass

    try:
        os.rmdir(workdir)  # only if no spills remain
    except OSError:
        pass

    games: list[ExperimentResult] = []
    checks: list[CheckResult] = []
    for index, spec in enumerate(specs):
        out = results.get(index)
        if out is None:  # pragma: no cover - loop invariant
            raise CampaignError(
                f"cell {spec.name!r} (index {index}) never reached a "
                f"terminal state"
            )
        if spec.kind == "game":
            games += out  # type: ignore[arg-type]
        else:
            checks += out  # type: ignore[arg-type]
    return games, checks

