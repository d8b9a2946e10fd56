"""The cross-process telemetry plane and its consumers.

Three layers under test:

* **shards** (`repro.obs.spans`) — per-worker recorders seal a trace
  shard with a footer and a lossless metrics wire file; the parent's
  merge renumbers run ids onto one global sequence and is a pure
  function of the committed shards;
* **campaign wiring** — a chaos-killed campaign's merged trace
  passes ``replay --check``, is byte-identical across same-seed
  re-runs and ``--jobs`` counts, and carries exactly the engine events
  an undisturbed run produces (the committed attempt of a retried cell
  is indistinguishable from a clean one);
* **sentinel + report** (`repro.obs.benchwatch`, `repro.obs.report`) —
  the bench history gate flags an injected 2x slowdown but passes an
  unmodified run, and the ops report renders every section from the
  campaign artifacts without importing the experiments layer.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import ChaosConfig, run_campaign
from repro.experiments.__main__ import main as experiments_main
from repro.obs import (
    Instrumentation,
    MetricsRegistry,
    ShardRecorder,
    ShardRef,
    merge_shard_metrics,
    merge_shards,
    read_jsonl,
    read_shard,
    shard_paths,
    span_id,
    use_instrumentation,
)
from repro.obs.replay import replay_file, verify_run
from repro.obs.events import (
    RunStartEvent,
    ShardMergedEvent,
    StepEvent,
    TraceFooterEvent,
)
from repro.obs.replay import main as replay_main

SUBSET = ["grid1d", "pathological", "example2"]
GAMES_ONLY = ["grid1d", "pathological"]


def _run_events(run: int = 0):
    return [
        RunStartEvent(
            run=run, driver="path", block_size=8, memory_size=16,
            model="weak", read_cost=1.0,
        ),
        StepEvent(run=run, vertex=(run,)),
    ]


def _make_shard(directory, index, name, runs=1, attempt=1):
    trace, metrics_path = shard_paths(directory, index, attempt)
    with ShardRecorder(trace, metrics_path) as rec:
        for run in range(runs):
            for event in _run_events(run):
                rec.sink.emit(event)
        rec.metrics.counter("faults").inc(runs)
        rec.metrics.gauge("covered").set(float(index))
    return ShardRef.locate(directory, index, name, attempt)


def _engine_events(path):
    """A merged trace with its campaign-level records stripped."""
    return [
        e
        for e in read_jsonl(path)
        if not isinstance(e, (ShardMergedEvent, TraceFooterEvent))
    ]


# -- worker-side recording ----------------------------------------------


class TestShardRecorder:
    def test_span_and_paths_are_deterministic(self, tmp_path):
        assert span_id("abc123", 4, 2) == "abc123/4/2"
        trace, metrics = shard_paths(tmp_path, 7, 2)
        assert trace.name == "cell-007-a2.trace.jsonl"
        assert metrics.name == "cell-007-a2.metrics.json"

    def test_close_seals_footer_and_metrics(self, tmp_path):
        ref = _make_shard(tmp_path, 0, "grid1d", runs=2)
        events, footer = read_shard(ref.trace_path)
        assert len(events) == 4
        assert footer is not None
        assert footer.events_emitted == 4
        assert footer.events_dropped == 0
        wire = json.loads(ref.metrics_path.read_text())
        rebuilt = MetricsRegistry.from_wire(wire)
        assert rebuilt.snapshot()["faults"] == 2

    def test_torn_shard_yields_prefix_without_footer(self, tmp_path):
        """A killed worker's half-written tail is dropped, not fatal —
        the merger sees the parsed prefix and no footer."""
        ref = _make_shard(tmp_path, 0, "grid1d", runs=1)
        raw = ref.trace_path.read_bytes()
        ref.trace_path.write_bytes(raw[:-10])  # tear into the footer line
        events, footer = read_shard(ref.trace_path)
        assert len(events) == 2
        assert footer is None

    def test_missing_shard_reads_empty(self, tmp_path):
        events, footer = read_shard(tmp_path / "nope.jsonl")
        assert events == [] and footer is None

    def test_locate_tolerates_absent_files(self, tmp_path):
        ref = ShardRef.locate(tmp_path, 3, "grid1d", 1)
        assert ref.trace_path is None and ref.metrics_path is None


# -- parent-side merging ------------------------------------------------


class TestMergeShards:
    def test_renumbers_runs_onto_one_sequence(self, tmp_path):
        shards = [
            _make_shard(tmp_path, 0, "grid1d", runs=2),
            _make_shard(tmp_path, 1, "pathological", runs=1),
        ]
        out = tmp_path / "merged.jsonl"
        report = merge_shards(out, shards, sweep="s")
        assert report.cells == 2 and report.runs == 3
        assert report.events == 6 and report.complete
        merged = list(read_jsonl(out))
        headers = [e for e in merged if isinstance(e, ShardMergedEvent)]
        assert [(h.cell, h.run_base, h.runs) for h in headers] == [
            ("grid1d", 0, 2),
            ("pathological", 2, 1),
        ]
        assert headers[0].span == span_id("s", 0, 1)
        starts = [e for e in merged if isinstance(e, RunStartEvent)]
        assert [e.run for e in starts] == [0, 1, 2]  # globally unique
        footer = merged[-1]
        assert isinstance(footer, TraceFooterEvent)
        assert footer.events_emitted == 6 + 2  # engine events + headers

    def test_merge_is_a_pure_function_of_the_shards(self, tmp_path):
        shards = [
            _make_shard(tmp_path, 1, "pathological"),
            _make_shard(tmp_path, 0, "grid1d"),
        ]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        merge_shards(a, shards, sweep="s")
        merge_shards(b, list(reversed(shards)), sweep="s")
        assert a.read_bytes() == b.read_bytes()

    def test_missing_shard_marks_cell_incomplete(self, tmp_path):
        shards = [
            _make_shard(tmp_path, 0, "grid1d"),
            ShardRef(1, "pathological", 1, None, None),
        ]
        report = merge_shards(tmp_path / "m.jsonl", shards, sweep="s")
        assert report.incomplete == ("pathological",)
        assert not report.complete
        headers = [
            e
            for e in read_jsonl(tmp_path / "m.jsonl")
            if isinstance(e, ShardMergedEvent)
        ]
        assert [h.complete for h in headers] == [True, False]

    def test_declared_ring_drops_surface_in_merge(self, tmp_path):
        """A shard whose footer admits sink drops poisons the merged
        trace's completeness claim."""
        trace, _ = shard_paths(tmp_path, 0, 1)
        events = _run_events()
        lines = [json.dumps(e.to_dict()) for e in events]
        lines.append(
            json.dumps(
                TraceFooterEvent(
                    run=-1, events_emitted=len(events), events_dropped=2
                ).to_dict()
            )
        )
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = merge_shards(
            tmp_path / "m.jsonl",
            [ShardRef.locate(tmp_path, 0, "grid1d", 1)],
            sweep="s",
        )
        assert report.dropped == 2
        assert not report.complete
        footer = list(read_jsonl(tmp_path / "m.jsonl"))[-1]
        assert footer.events_dropped == 2

    def test_shard_metrics_fold_in_index_order(self, tmp_path):
        shards = [
            _make_shard(tmp_path, 1, "pathological", runs=3),
            _make_shard(tmp_path, 0, "grid1d", runs=2),
        ]
        registry = MetricsRegistry()
        merged = merge_shard_metrics(registry, shards)
        assert merged == 2
        snap = registry.snapshot()
        assert snap["faults"] == 5
        assert snap["covered"] == 1.0  # highest index merged last
        # Absent metrics files are skipped, not fatal.
        registry2 = MetricsRegistry()
        assert merge_shard_metrics(
            registry2, [ShardRef(9, "x", 1, None, None)]
        ) == 0


# -- campaign wiring ----------------------------------------------------


class TestCampaignTelemetry:
    def _campaign(self, tmp_path, tag, chaos=None, jobs=2):
        trace = tmp_path / f"{tag}.trace.jsonl"
        metrics = MetricsRegistry()
        with use_instrumentation(Instrumentation(metrics=metrics)):
            games, checks = run_campaign(
                tmp_path / f"{tag}.manifest.jsonl",
                quick=True,
                jobs=jobs,
                names=SUBSET,
                chaos=chaos,
                trace_out=trace,
            )
        return trace, metrics, games

    def test_chaos_merged_trace_replays_and_matches_clean(self, tmp_path):
        """The ISSUE's acceptance: a kill-every-N campaign's merged
        trace passes ``replay --check`` and its engine events equal the
        no-chaos trace — committed attempts hide the chaos entirely."""
        chaos = ChaosConfig(kill_every=3, seed=7)
        chaotic, metrics, games = self._campaign(
            tmp_path, "chaos", chaos=chaos
        )
        assert not any(g.error for g in games)
        assert metrics.counter("campaign_worker_deaths").value >= 1

        assert replay_main([str(chaotic), "--check"]) == 0
        runs = replay_file(chaotic)
        assert runs and all(verify_run(r) == [] for r in runs)

        clean, _, _ = self._campaign(tmp_path, "clean")
        assert _engine_events(chaotic) == _engine_events(clean)
        # Only the committed attempt number betrays the retry.
        headers = {
            e.cell: e.attempt
            for e in read_jsonl(chaotic)
            if isinstance(e, ShardMergedEvent)
        }
        assert set(headers) == set(SUBSET)
        assert max(headers.values()) >= 2

    def test_merged_trace_is_byte_identical_across_runs_and_jobs(
        self, tmp_path
    ):
        serial, _, _ = self._campaign(tmp_path, "j1", jobs=1)
        pooled, _, _ = self._campaign(tmp_path, "j2", jobs=2)
        again, _, _ = self._campaign(tmp_path, "j2b", jobs=2)
        assert serial.read_bytes() == pooled.read_bytes()
        assert pooled.read_bytes() == again.read_bytes()

    def test_campaign_metrics_shards_merge_back(self, tmp_path):
        _, metrics, _ = self._campaign(
            tmp_path, "m", chaos=ChaosConfig(kill_every=3, seed=7)
        )
        snap = metrics.snapshot()
        # Engine-side counters crossed the process boundary...
        assert snap["faults"] > 0
        assert snap["runs"] > 0
        # ...and the merge accounted for itself.
        assert snap["campaign_trace_cells"] == len(SUBSET)
        assert snap["campaign_trace_events"] > 0
        # The drop counter only materializes when something dropped.
        assert snap.get("campaign_trace_events_dropped", 0) == 0

    def _cli_jobs_trace(self, tmp_path, names, capsys):
        """``--jobs 2 --trace-out`` through the CLI: a campaign on a
        throw-away journal."""
        trace = tmp_path / "cli.trace.jsonl"
        code = experiments_main(
            ["--quick", "--jobs", "2", "--cells", ",".join(names),
             "--trace-out", str(trace)]
        )
        capsys.readouterr()
        assert code == 0
        return trace

    def test_pool_trace_matches_campaign_trace(self, tmp_path, capsys):
        campaign, _, _ = self._campaign(tmp_path, "c", jobs=1)
        cli = self._cli_jobs_trace(tmp_path, SUBSET, capsys)
        assert cli.read_bytes() == campaign.read_bytes()
        assert replay_main([str(cli), "--check"]) == 0

    def test_inline_pool_also_spools(self, tmp_path, capsys):
        """A one-worker campaign and ``--jobs 2`` spool and merge the
        same shards into the same bytes."""
        trace = tmp_path / "inline.trace.jsonl"
        run_campaign(
            tmp_path / "inline.manifest.jsonl",
            quick=True,
            jobs=1,
            names=GAMES_ONLY,
            trace_out=trace,
        )
        cli = self._cli_jobs_trace(tmp_path, GAMES_ONLY, capsys)
        assert cli.read_bytes() == trace.read_bytes()
        assert replay_main([str(cli), "--check"]) == 0


# -- the continuous-bench sentinel --------------------------------------


def _rollup(mean, bench="demo", test="test_x"):
    return {
        "bench": bench,
        "total_s": mean,
        "timings": [{"test": test, "mean_s": mean}],
    }


class TestBenchwatch:
    def _seed_history(self, path, means=(0.1, 0.1, 0.1)):
        from repro.obs.benchwatch import append_run

        for i, mean in enumerate(means):
            append_run(path, _rollup(mean), label=f"seed-{i}")

    def test_builds_baseline_before_judging(self, tmp_path):
        from repro.obs.benchwatch import check_runs, load_history

        history = tmp_path / "h.jsonl"
        self._seed_history(history, means=(0.1, 0.1))
        verdicts = check_runs(load_history(history), _rollup(9.9))
        assert len(verdicts) == 1
        assert verdicts[0].baseline_s is None  # still building
        assert not verdicts[0].regressed

    def test_flags_injected_2x_slowdown(self, tmp_path):
        from repro.obs.benchwatch import check_runs, load_history, main

        history = tmp_path / "h.jsonl"
        self._seed_history(history)
        (v,) = check_runs(load_history(history), _rollup(0.2))
        assert v.regressed and v.baseline_s == pytest.approx(0.1)
        assert v.allowed_s < 0.2  # tolerance + noise cap stays below 2x
        rollup_path = tmp_path / "BENCH_demo.json"
        rollup_path.write_text(json.dumps(_rollup(0.2)))
        assert (
            main([str(rollup_path), "--history", str(history), "--label", "slow"])
            == 1
        )

    def test_unmodified_run_passes_and_appends(self, tmp_path):
        from repro.obs.benchwatch import load_history, main

        history = tmp_path / "h.jsonl"
        self._seed_history(history)
        rollup_path = tmp_path / "BENCH_demo.json"
        rollup_path.write_text(json.dumps(_rollup(0.1)))
        assert (
            main(
                [str(rollup_path), "--history", str(history), "--label", "sha"]
            )
            == 0
        )
        records = load_history(history)
        assert len(records) == 4
        assert records[-1]["label"] == "sha"

    def test_noise_widens_the_envelope_but_is_capped(self):
        from repro.obs.benchwatch import judge

        # Zero-noise history: the bare tolerance applies.
        quiet = judge("b", "t", 0.18, [0.1, 0.1, 0.1])
        assert quiet.regressed
        # Jittery history widens the envelope (0.18 < 0.1 * 1.95)...
        noisy = judge("b", "t", 0.18, [0.08, 0.1, 0.12])
        assert not noisy.regressed
        # ...but the cap keeps any true 2x slowdown out.
        assert judge("b", "t", 0.2, [0.08, 0.1, 0.12]).regressed

    def test_render_is_idempotent(self, tmp_path):
        from repro.obs.benchwatch import main

        history = tmp_path / "h.jsonl"
        self._seed_history(history)
        rollup_path = tmp_path / "BENCH_demo.json"
        rollup_path.write_text(json.dumps(_rollup(0.1)))
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text("# Doc\n\nprose stays\n")
        args = [
            str(rollup_path),
            "--history",
            str(history),
            "--no-append",
            "--render",
            str(doc),
        ]
        assert main(args) == 0
        first = doc.read_text()
        assert "prose stays" in first
        assert "benchwatch:begin" in first and "| demo | test_x |" in first
        assert main(args) == 0
        assert doc.read_text() == first

    def test_torn_history_tail_is_dropped(self, tmp_path):
        from repro.obs.benchwatch import (
            BenchWatchError,
            history_record,
            load_history,
        )

        history = tmp_path / "h.jsonl"
        good = json.dumps(history_record(_rollup(0.1)))
        history.write_text(good + "\n" + good + "\n" + good[: len(good) // 2])
        assert len(load_history(history)) == 2
        # A final append cut inside a multi-byte character is dropped too.
        history.write_bytes((good + "\n" + good + "\n" + good[:20] + "é").encode()[:-1])
        assert len(load_history(history)) == 2
        # A line that is not UTF-8 before the tail is corruption.
        history.write_bytes(b"\xff" + (good + "\n" + good + "\n").encode())
        with pytest.raises(BenchWatchError, match=r"h\.jsonl:1: undecodable UTF-8"):
            load_history(history)
        # A torn *middle* line is corruption, not a crash artifact.
        history.write_text(good[: len(good) // 2] + "\n" + good + "\n")
        with pytest.raises(BenchWatchError, match=r"h\.jsonl:1: undecodable JSON"):
            load_history(history)
        # So is a bad final line that ends in a newline: it was written whole.
        history.write_text(good + "\n" + good[: len(good) // 2] + "\n")
        with pytest.raises(BenchWatchError, match=r"h\.jsonl:2: undecodable JSON"):
            load_history(history)
        # A line that is JSON but not an object fails typed.
        history.write_text(good + "\n[1, 2]\n" + good + "\n")
        with pytest.raises(BenchWatchError, match=r"h\.jsonl:2: not a JSON object"):
            load_history(history)
        # Unknown schema versions refuse loudly.
        history.write_text(json.dumps({"schema": 99, "bench": "d"}) + "\n")
        with pytest.raises(BenchWatchError, match="schema"):
            load_history(history)

    def test_prune_keeps_the_trailing_window_per_bench(self, tmp_path):
        from repro.obs.benchwatch import append_run, load_history, prune_history

        history = tmp_path / "h.jsonl"
        for i in range(5):
            append_run(history, _rollup(0.1, bench="a"), label=f"a-{i}")
        for i in range(2):
            append_run(history, _rollup(0.2, bench="b"), label=f"b-{i}")
        assert prune_history(history, keep=3) == 2
        records = load_history(history)
        # The cap is per bench: "a" lost its two oldest records, "b"
        # (already under the window) kept both, journal order intact.
        assert [r["label"] for r in records if r["bench"] == "a"] == [
            "a-2", "a-3", "a-4",
        ]
        assert [r["label"] for r in records if r["bench"] == "b"] == [
            "b-0", "b-1",
        ]
        assert prune_history(history, keep=3) == 0  # idempotent

    def test_prune_rides_the_cli_after_the_append(self, tmp_path):
        from repro.obs.benchwatch import load_history, main

        history = tmp_path / "h.jsonl"
        self._seed_history(history, means=(0.1,) * 5)
        rollup_path = tmp_path / "BENCH_demo.json"
        rollup_path.write_text(json.dumps(_rollup(0.1)))
        assert (
            main(
                [
                    str(rollup_path),
                    "--history",
                    str(history),
                    "--label",
                    "sha",
                    "--prune",
                    "4",
                ]
            )
            == 0
        )
        # 5 seeds + this run's append, then capped at the trailing 4.
        assert len(load_history(history)) == 4
        with pytest.raises(SystemExit):
            main([str(rollup_path), "--history", str(history), "--prune", "0"])

    def test_cli_rejects_unsafe_tolerance(self, tmp_path):
        from repro.obs.benchwatch import main

        rollup_path = tmp_path / "BENCH_demo.json"
        rollup_path.write_text(json.dumps(_rollup(0.1)))
        with pytest.raises(SystemExit):
            main([str(rollup_path), "--tolerance", "0.9"])  # could hide 2x

    def test_append_refuses_missing_or_duplicate_label(self, tmp_path):
        from repro.obs.benchwatch import BenchWatchError, append_run, load_history

        history = tmp_path / "h.jsonl"
        for label in (None, ""):
            with pytest.raises(BenchWatchError, match="unlabeled"):
                append_run(history, _rollup(0.1), label=label)
        assert not history.exists()
        self._seed_history(history)
        with pytest.raises(BenchWatchError, match="already holds"):
            append_run(history, _rollup(0.1), label="seed-1")
        assert len(load_history(history)) == 3
        # Labels are unique per bench, not across benches.
        append_run(history, _rollup(0.1, bench="other"), label="seed-1")
        assert len(load_history(history)) == 4

    def test_cli_refuses_unlabeled_or_duplicate_append(self, tmp_path, capsys):
        from repro.obs.benchwatch import load_history, main

        history = tmp_path / "h.jsonl"
        self._seed_history(history)
        before = history.read_bytes()
        demo = tmp_path / "BENCH_demo.json"
        demo.write_text(json.dumps(_rollup(0.1)))
        other = tmp_path / "BENCH_other.json"
        other.write_text(json.dumps(_rollup(0.1, bench="other")))
        # Exit 1 means "regressed", so an input that cannot be judged
        # exits 2 too.
        malformed = tmp_path / "BENCH_malformed.json"
        malformed.write_text("{not json")
        untimed = tmp_path / "BENCH_untimed.json"
        untimed.write_text(json.dumps(
            {"bench": "demo", "timings": [{"test": "test_x"}, 7]}
        ))
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\n")
        refused = (
            [str(other), str(demo)],  # no label
            [str(other), str(demo), "--label", "seed-2"],  # demo holds seed-2
            [str(demo), str(demo), "--label", "fresh"],  # twice in one call
            [str(tmp_path / "BENCH_gone.json"), "--label", "fresh"],
            [str(malformed), "--label", "fresh"],
            [str(untimed), "--label", "fresh"],  # judged on nothing
            [str(demo), "--label", "fresh", "--history", str(garbage)],
        )
        for args in refused:
            with pytest.raises(SystemExit) as exc:
                main(["--history", str(history), *args])
            assert exc.value.code == 2
        # Refused before anything was written, not even the good rollup.
        assert history.read_bytes() == before
        assert "--label" in capsys.readouterr().err
        # Judging alone needs no label.
        assert main([str(demo), "--history", str(history), "--no-append"]) == 0
        assert len(load_history(history)) == 3

    def test_bench_session_refuses_history_without_label(self, monkeypatch):
        import importlib.util

        path = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("_bench_conftest", path)
        assert spec is not None and spec.loader is not None
        conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(conftest)
        monkeypatch.setenv("BENCH_HISTORY", "h.jsonl")
        monkeypatch.delenv("BENCH_LABEL", raising=False)
        with pytest.raises(pytest.UsageError, match="BENCH_LABEL"):
            conftest.pytest_configure(None)
        monkeypatch.setenv("BENCH_LABEL", "seed-1")
        conftest.pytest_configure(None)
        monkeypatch.delenv("BENCH_HISTORY")
        monkeypatch.delenv("BENCH_LABEL")
        conftest.pytest_configure(None)

    def test_committed_history_is_labeled_and_unique(self):
        from repro.obs.benchwatch import load_history

        path = Path(__file__).resolve().parents[1] / "BENCH_history.jsonl"
        keys = [(r["bench"], r.get("label")) for r in load_history(path)]
        assert keys and all(label for _, label in keys)
        assert len(set(keys)) == len(keys)


# -- the campaign ops report --------------------------------------------


def report_cells(report):
    """The cell table of a loaded report, as plain data."""
    from repro.obs.report import report_data

    return report_data(report)["cells"]


class TestOpsReport:
    def _manifest(self, tmp_path):
        path = tmp_path / "m.jsonl"
        records = [
            {
                "record": "campaign",
                "campaign_id": "campaign-abc-123",
                "meta": {"quick": True},
                "cells": [
                    {"index": 0, "name": "grid1d", "kind": "game"},
                    {"index": 1, "name": "example2", "kind": "check"},
                ],
            },
            {"record": "cell", "index": 0, "name": "grid1d",
             "status": "retrying", "attempt": 1, "error": "killed"},
            {"record": "cell", "index": 0, "name": "grid1d",
             "status": "done", "attempt": 2},
            {"record": "cell", "index": 1, "name": "example2",
             "status": "done", "attempt": 1},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def _trace(self, tmp_path):
        from repro.obs.events import BlockReadEvent, FaultEvent, RetryEvent

        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        trace, metrics_path = shard_paths(shard_dir, 0, 2)
        with ShardRecorder(trace, metrics_path) as rec:
            rec.sink.emit(_run_events(0)[0])
            for gap in (4, 4, 16):
                rec.sink.emit(FaultEvent(run=0, vertex=(gap,), gap=gap, index=0))
            rec.sink.emit(
                BlockReadEvent(run=0, block_id=(1, (0,)), vertex=(4,),
                               size=8, occupancy=16, covered=12)
            )
            rec.sink.emit(
                RetryEvent(run=0, block_id=(1, (0,)), attempt=2,
                           outcome="transient", delay=0.25)
            )
            rec.metrics.counter("faults").inc(3)
            rec.metrics.histogram("gap").observe(4)
        out = tmp_path / "trace.jsonl"
        merge_shards(
            out, [ShardRef.locate(shard_dir, 0, "grid1d", 2)], sweep="s"
        )
        return out

    def _metrics(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("faults").inc(3)
        for gap in (4, 4, 16):
            registry.histogram("gap").observe(gap)
        path = tmp_path / "metrics.json"
        path.write_text(registry.to_json() + "\n")
        return path

    def test_markdown_renders_every_section(self, tmp_path):
        from repro.obs.report import load_report, render_markdown

        report = load_report(
            manifest=self._manifest(tmp_path),
            trace=self._trace(tmp_path),
            metrics=self._metrics(tmp_path),
        )
        text = render_markdown(report)
        assert "# Campaign ops report" in text
        assert "campaign-abc-123" in text
        # Cell table: status + attempt from the manifest, gap
        # percentiles from the trace.
        assert "| 0 | grid1d | done | 2 | 1 |" in text
        assert "| 4 | 16 | 16 |" in text  # gap p50/p90/p99 of (4, 4, 16)
        # The two fault accountings stay visibly distinct.
        assert "| killed | 1 |" in text
        assert "| transient | 1 |" in text
        # Block heat and merged metrics.
        assert "| `(1, (0,))` | grid1d | 1 |" in text
        assert "p50=4" in text

    def test_html_embeds_the_heatmap_island(self, tmp_path):
        from repro.obs.report import load_report, render_html

        report = load_report(trace=self._trace(tmp_path))
        html = render_html(report)
        assert '<script type="application/json" id="campaign-data">' in html
        island = html.split('id="campaign-data">')[1].split("</script>")[0]
        heat = json.loads(island)["block_heat"]
        assert heat == [{"block": "(1, (0,))", "cell": "grid1d", "reads": 1}]

    def test_json_format_shares_structure_with_the_html_island(
        self, tmp_path
    ):
        """``--format json`` prints exactly the structure the HTML JSON
        island embeds, and the CLI round-trips it to disk."""
        from repro.obs.report import load_report, main, render_html, render_json

        manifest = self._manifest(tmp_path)
        trace = self._trace(tmp_path)
        report = load_report(manifest=manifest, trace=trace)
        doc = json.loads(render_json(report))
        island = (
            render_html(report)
            .split('id="campaign-data">')[1]
            .split("</script>")[0]
        )
        assert json.loads(island) == doc
        out = tmp_path / "report.json"
        assert (
            main(
                [
                    str(manifest), "--trace", str(trace),
                    "--format", "json", "--out", str(out),
                ]
            )
            == 0
        )
        assert json.loads(out.read_text()) == doc

    def test_report_embeds_forensics(self, tmp_path):
        """A report loaded with a trace renders the forensics sections
        in markdown and carries the document in the machine form."""
        from repro.obs.report import load_report, render_markdown, report_data

        report = load_report(trace=self._trace(tmp_path))
        assert report.forensics is not None and report.forensics["runs"]
        assert "## Fault forensics" in render_markdown(report)
        assert report_data(report)["forensics"] == report.forensics

    def test_block_heat_orders_hottest_first(self, tmp_path):
        from repro.obs.report import CampaignReport, block_heat

        report = CampaignReport()
        report.cell(0, "a").block_reads.update({"x": 1, "y": 5})
        report.cell(1, "b").block_reads.update({"z": 5})
        assert block_heat(report) == [("a", "y", 5), ("b", "z", 5), ("a", "x", 1)]

    def test_nothing_to_report_is_an_error(self, tmp_path):
        from repro.obs.report import ReportError, load_report, main

        with pytest.raises(ReportError):
            load_report()
        assert main([]) == 2
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"record": "cell"}\n')
        assert main([str(bad)]) == 2  # no campaign header

    def test_unreadable_manifest_line_exits_2(self, tmp_path, capsys):
        """A manifest line that is not one JSON object fails typed,
        naming the line; a torn final append keeps the records before
        it."""
        from repro.obs.report import ReportError, load_report, main

        manifest = self._manifest(tmp_path)
        lines = manifest.read_text().splitlines()
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join([lines[0], "[1, 2]", *lines[1:]]) + "\n")
        with pytest.raises(ReportError, match=r"broken\.jsonl:2: not a JSON object"):
            load_report(manifest=broken)
        assert main([str(broken)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "broken.jsonl:2: " in err
        # A cell record without a key the fold reads, or whose index is
        # not an int naming a header cell, fails the same way.
        for record, message in (
            ('{"record": "cell", "status": "done"}', "has no 'index'"),
            ('{"record": "cell", "index": 0}', "has no 'status'"),
            ('{"record": "cell", "index": "0", "status": "done"}',
             'index "0" is not an integer'),
            ('{"record": "cell", "index": 7, "status": "done"}',
             r"index 7 names no cell of the header \(it lists 2\)"),
            ('{"record": "cell", "index": 2, "status": "done"}',
             r"index 2 names no cell of the header \(it lists 2\)"),
            ('{"record": "cell", "index": -1, "status": "done"}',
             r"index -1 names no cell of the header \(it lists 2\)"),
            ('{"record": "cell", "index": true, "status": "done"}',
             "index true is not an integer"),
            ('{"record": "cell", "index": 0, "status": "done", "attempt": "x"}',
             'attempt "x" is not an integer'),
            ('{"record": "cell", "index": 0, "status": "done", "attempt": true}',
             "attempt true is not an integer"),
        ):
            broken.write_text("\n".join([lines[0], record, *lines[1:]]) + "\n")
            with pytest.raises(
                ReportError, match=rf"broken\.jsonl:2: cell record {message}"
            ):
                load_report(manifest=broken)
            assert main([str(broken)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "broken.jsonl:2: " in err
        torn = tmp_path / "torn.jsonl"
        torn.write_text("\n".join(lines) + "\n" + lines[-1][:20])
        assert report_cells(load_report(manifest=torn)) == report_cells(
            load_report(manifest=manifest)
        )

    @pytest.mark.parametrize(
        "snapshot, message",
        [
            pytest.param(
                {"fault_gap": {"count": 2, "mean": 1.5, "values": {"1": "x", "2": 1}}},
                "histogram 'fault_gap': values must map to integer counts",
                id="string-histogram-count",
            ),
            pytest.param(
                {"fault_gap": {"count": 2, "mean": "x", "values": {"1": 2}}},
                "histogram 'fault_gap': mean is not a number",
                id="string-histogram-mean",
            ),
            pytest.param(
                {"fault_gap": {"count": 3, "mean": 2.0, "values": {"abc": 3}}},
                "histogram 'fault_gap': value \"abc\" is not a number",
                id="string-histogram-value",
            ),
            pytest.param(
                {"service_completed": "many"},
                "metric 'service_completed' is not a number",
                id="string-service-counter",
            ),
            pytest.param(
                {"service_errors": True},
                "metric 'service_errors' is not a number",
                id="bool-service-counter",
            ),
        ],
    )
    def test_malformed_metrics_snapshot_exits_2(
        self, tmp_path, capsys, snapshot, message
    ):
        """A snapshot value the renderers cannot read fails typed,
        naming the metric, instead of a traceback or a silent zero."""
        from repro.obs.report import ReportError, load_report, main

        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(snapshot))
        with pytest.raises(ReportError, match=re.escape(message)):
            load_report(metrics=path)
        assert main(["--metrics", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_header_cells_are_keyed_by_position(self, tmp_path):
        """The report keys header cells by position, as ``load_manifest``
        does, and never reads a header cell's ``index``: a wrong one
        changes nothing."""
        from repro.obs.report import load_report, main

        manifest = self._manifest(tmp_path)
        expected = report_cells(load_report(manifest=manifest))
        assert [cell["index"] for cell in expected] == [0, 1]
        records = [json.loads(line) for line in manifest.read_text().splitlines()]
        for index in ("x", True, 7):
            records[0]["cells"][0]["index"] = index
            skewed = tmp_path / "skewed.jsonl"
            skewed.write_text("".join(json.dumps(r) + "\n" for r in records))
            assert report_cells(load_report(manifest=skewed)) == expected
            assert main([str(skewed), "--out", str(tmp_path / "r.md")]) == 0

    def test_cli_writes_report_on_real_campaign(self, tmp_path):
        """End to end on real artifacts: chaos campaign -> manifest +
        merged trace + metrics snapshot -> rendered ops report."""
        from repro.obs.report import main

        manifest = tmp_path / "m.jsonl"
        trace = tmp_path / "t.jsonl"
        metrics = MetricsRegistry()
        with use_instrumentation(Instrumentation(metrics=metrics)):
            run_campaign(
                manifest,
                quick=True,
                jobs=1,
                names=GAMES_ONLY,
                chaos=ChaosConfig(kill_every=2, seed=7),
                trace_out=trace,
            )
        snapshot = tmp_path / "metrics.json"
        snapshot.write_text(metrics.to_json() + "\n")
        out = tmp_path / "report.md"
        assert (
            main(
                [
                    str(manifest),
                    "--trace",
                    str(trace),
                    "--metrics",
                    str(snapshot),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        text = out.read_text()
        assert "grid1d" in text and "pathological" in text
        assert "## Merged metrics" in text
        assert "## Trace completeness" in text
        assert "0 dropped" in text


# -- layering ------------------------------------------------------------


class TestLayering:
    def test_obs_report_does_not_import_experiments(self):
        """`repro.obs` stays a layer below `repro.experiments`: the ops
        report reads the manifest wire form with the reader in
        `repro.obs`."""
        code = (
            "import sys\n"
            "import repro.obs.report\n"
            "import repro.obs.benchwatch\n"
            "bad = [m for m in sys.modules if m.startswith('repro.experiments')]\n"
            "assert not bad, bad\n"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            cwd=str(Path(__file__).resolve().parents[1] / "src"),
        )

    @staticmethod
    def loaded_after(code):
        """The ``repro`` modules a fresh interpreter holds after ``code``,
        as (packages, other modules)."""
        done = subprocess.run(
            [sys.executable, "-c", code + (
                "\nimport sys\n"
                "for name, module in sorted(sys.modules.items()):\n"
                "    if name == 'repro' or name.startswith('repro.'):\n"
                "        print(name, hasattr(module, '__path__'))\n"
            )],
            check=True, capture_output=True, text=True,
            cwd=str(Path(__file__).resolve().parents[1] / "src"),
        )
        rows = [line.split() for line in done.stdout.splitlines()]
        return (
            {name for name, package in rows if package == "True"},
            {name for name, package in rows if package == "False"},
        )

    def test_import_repro_loads_nothing_below_it(self):
        """The facades resolve their names on first use, so importing
        the package executes no module under it."""
        assert self.loaded_after("import repro") == ({"repro"}, set())

    #: The names the ``walk`` benchmark workload imports.
    WALK_IMPORTS = (
        "from repro import FirstBlockPolicy, ModelParams, Searcher\n"
        "from repro.blockings import (\n"
        "    FarthestFaultPolicy, offset_grid_blocking, uniform_grid_blocking)\n"
        "from repro.graphs import InfiniteGridGraph\n"
        "from repro.adversaries import RandomWalkAdversary\n"
    )

    def test_the_walk_imports_load_only_the_engine_leaves(self):
        """The engine's names load the engine, the blockings and the
        adversary they come from, and from every other package only the
        leaves those import: no experiment, service, lint or reliability
        code."""
        packages, modules = self.loaded_after(self.WALK_IMPORTS)
        layers = {name.split(".")[1] for name in packages | modules if "." in name}
        assert not layers & {"experiments", "service", "lint", "reliability"}
        named = ("repro.core.", "repro.blockings.", "repro.adversaries.")
        assert {name for name in modules if not name.startswith(named)} == {
            "repro.errors",
            "repro.typing",
            "repro.analysis.tessellation",
            "repro.analysis.theory",
            "repro.graphs.base",
            "repro.graphs.grid",
            "repro.obs.context",
            "repro.paging.eviction",
        }
