"""Crash-safe campaign runner: manifest journaling, resume, supervised
workers, watchdogs, chaos recovery, and byte-identity with serial runs.

The equality checks run on the same small ``SUBSET`` as
``tests/test_parallel.py``; the CI chaos job does the interrupted-vs-serial byte comparison on
a larger sweep through the real CLI.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.errors import ReproError
from repro.experiments import (
    CampaignError,
    ChaosConfig,
    ManifestError,
    ManifestWriter,
    cell_specs,
    corrupt_file,
    dump_results,
    load_manifest,
    run_all,
    run_campaign,
    spec_fingerprint,
)
from repro.obs import (
    Instrumentation,
    JsonlSink,
    MetricsRegistry,
    use_instrumentation,
)

SUBSET = ["grid1d", "pathological", "example2"]
GAMES_ONLY = ["grid1d", "pathological"]


def _dump_bytes(tmp_path, tag, games, checks):
    path = tmp_path / f"{tag}.json"
    dump_results(str(path), games, checks)
    return path.read_bytes()


def _serial_bytes(tmp_path, names=SUBSET):
    games, checks = run_all(quick=True, names=names)
    return _dump_bytes(tmp_path, "serial", games, checks)


def _retry_reasons(path):
    """The reason of every ``retrying`` record the manifest journaled."""
    return [
        record["error"]
        for record in map(json.loads, load_manifest(path).lines)
        if record.get("status") == "retrying"
    ]


class TestManifest:
    def test_fingerprint_is_stable_and_discriminating(self):
        a, b = cell_specs(quick=True, names=["grid1d", "pathological"])
        assert spec_fingerprint(a) == spec_fingerprint(a)
        assert spec_fingerprint(a) != spec_fingerprint(b)
        # Quick vs full changes the step caps, hence the fingerprint.
        full = cell_specs(quick=False, names=["grid1d"])[0]
        assert spec_fingerprint(a) != spec_fingerprint(full)

    def test_fingerprint_covers_reliability_config(self):
        from repro.reliability import (
            ExponentialBackoff,
            ProbabilisticFaults,
            ReliabilityConfig,
        )

        lossy = ReliabilityConfig(
            injector=ProbabilisticFaults(transient_rate=0.1, seed=0),
            retry=ExponentialBackoff(max_attempts=2, seed=0),
        )
        plain = cell_specs(quick=True, names=["grid1d"])[0]
        faulty = cell_specs(quick=True, names=["grid1d"], reliability=lossy)[0]
        assert spec_fingerprint(plain) != spec_fingerprint(faulty)

    def test_round_trip(self, tmp_path):
        specs = cell_specs(quick=True, names=SUBSET)
        path = tmp_path / "m.jsonl"
        writer = ManifestWriter.create(path, specs, meta={"quick": True})
        writer.cell_started(0, "grid1d", 1)
        manifest = load_manifest(path)
        assert manifest.meta == {"quick": True}
        assert manifest.names == SUBSET
        assert manifest.kinds == ["game", "game", "check"]
        assert manifest.cell(0).status == "started"
        assert manifest.cell(1).status == "pending"
        assert manifest.pending_indices() == [0, 1, 2]
        manifest.verify_specs(specs)

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        specs = cell_specs(quick=True, names=SUBSET)
        path = tmp_path / "m.jsonl"
        writer = ManifestWriter.create(path, specs)
        writer.cell_started(0, "grid1d", 1)
        before_tear = path.read_bytes()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"record": "cell", "index": 1, "sta')  # torn append
        manifest = load_manifest(path)
        assert manifest.cell(0).status == "started"
        assert manifest.cell(1).status == "pending"
        # Resuming the writer drops the torn tail and keeps journaling:
        # the pre-tear lines byte for byte, then the new record.
        resumed = ManifestWriter.resume(manifest)
        resumed.cell_started(1, "pathological", 1)
        assert load_manifest(path).cell(1).status == "started"
        new_record = json.dumps(
            {
                "attempt": 1,
                "index": 1,
                "name": "pathological",
                "record": "cell",
                "status": "started",
            },
            sort_keys=True,
        )
        assert path.read_bytes() == before_tear + new_record.encode() + b"\n"
        # An append cut inside a multi-byte character is torn the same way.
        with open(path, "ab") as fh:
            fh.write('{"record": "cell", "index": 0, "error": "é'.encode()[:-1])
        manifest = load_manifest(path)
        assert len(manifest.lines) == 3  # the header and two cell records
        assert manifest.cell(1).status == "started"

    def test_corruption_before_the_tail_raises(self, tmp_path):
        specs = cell_specs(quick=True, names=SUBSET)
        path = tmp_path / "m.jsonl"
        writer = ManifestWriter.create(path, specs)
        writer.cell_started(0, "grid1d", 1)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0][: len(lines[0]) // 2], lines[1]]) + "\n")
        with pytest.raises(ManifestError, match=r"m\.jsonl:1: undecodable JSON"):
            load_manifest(path)
        # A line that is JSON but not an object is corruption too.
        path.write_text("\n".join([lines[0], "[1, 2]", lines[1]]) + "\n")
        with pytest.raises(ManifestError, match=r"m\.jsonl:2: not a JSON object"):
            load_manifest(path)
        # Only a final line with no newline is a torn append: a bad final
        # line that ends in one was written whole, so it is corruption.
        path.write_text("\n".join([lines[0], lines[1][:20]]) + "\n")
        with pytest.raises(ManifestError, match=r"m\.jsonl:2: undecodable JSON"):
            load_manifest(path)
        # Only JSON's whitespace may surround a record: a trailing
        # ``\xa0`` is extra data, as ``json.loads`` says.
        path.write_text(f"{lines[0]}\xa0\n{lines[1]}\n", encoding="utf-8")
        with pytest.raises(ManifestError, match=r"m\.jsonl:1: undecodable JSON \(Extra"):
            load_manifest(path)
        # A cell record without a key the fold reads, or whose index is
        # not an int naming a header cell, is corruption too.
        for record, message in (
            ('{"record": "cell", "status": "done"}', "has no 'index'"),
            ('{"record": "cell", "index": 0}', "has no 'status'"),
            ('{"record": "cell", "index": "0", "status": "done"}',
             'index "0" is not an integer'),
            ('{"record": "cell", "index": 7, "status": "done"}',
             r"index 7 names no cell of the header \(it lists 3\)"),
            ('{"record": "cell", "index": 3, "status": "done"}',
             r"index 3 names no cell of the header \(it lists 3\)"),
            ('{"record": "cell", "index": -1, "status": "done"}',
             r"index -1 names no cell of the header \(it lists 3\)"),
            ('{"record": "cell", "index": true, "status": "done"}',
             "index true is not an integer"),
            ('{"record": "cell", "index": 0, "status": "done", "attempt": "x"}',
             'attempt "x" is not an integer'),
            ('{"record": "cell", "index": 0, "status": "done", "attempt": true}',
             "attempt true is not an integer"),
        ):
            path.write_text("\n".join([lines[0], record, lines[1]]) + "\n")
            with pytest.raises(
                ManifestError, match=rf"m\.jsonl:2: cell record {message}"
            ):
                load_manifest(path)

    def test_mismatched_sweep_refuses_to_resume(self, tmp_path):
        path = tmp_path / "m.jsonl"
        ManifestWriter.create(path, cell_specs(quick=True, names=SUBSET))
        manifest = load_manifest(path)
        with pytest.raises(ManifestError, match="different sweep"):
            manifest.verify_specs(cell_specs(quick=False, names=SUBSET))

    def test_done_cells_reload_their_results(self, tmp_path):
        games, checks = run_all(quick=True, names=["grid1d"])
        specs = cell_specs(quick=True, names=["grid1d"])
        path = tmp_path / "m.jsonl"
        writer = ManifestWriter.create(path, specs)
        writer.cell_done(0, "grid1d", 1, games, "game")
        state = load_manifest(path).cell(0)
        assert state.completed
        reloaded = state.load_results()
        assert [r.sigma for r in reloaded] == [r.sigma for r in games]


class TestCampaignRuns:
    def test_campaign_matches_serial_bytes(self, tmp_path):
        games, checks = run_campaign(
            tmp_path / "m.jsonl", quick=True, jobs=2, names=SUBSET
        )
        assert _dump_bytes(tmp_path, "campaign", games, checks) == _serial_bytes(
            tmp_path
        )

    def test_resume_of_completed_campaign_runs_nothing(self, tmp_path):
        path = tmp_path / "m.jsonl"
        run_campaign(path, quick=True, jobs=1, names=SUBSET)
        before = load_manifest(path).lines
        games, checks = run_campaign(
            path, quick=True, jobs=1, names=SUBSET, resume=True
        )
        after = load_manifest(path).lines
        # One resume record and no cell record: no cell ever started.
        assert after[: len(before)] == before
        (appended,) = map(json.loads, after[len(before):])
        assert appended["record"] == "resume"
        assert (appended["completed"], appended["pending"]) == (3, 0)
        assert _dump_bytes(tmp_path, "resumed", games, checks) == _serial_bytes(
            tmp_path
        )

    def test_resume_requires_matching_sweep(self, tmp_path):
        path = tmp_path / "m.jsonl"
        run_campaign(path, quick=True, jobs=1, names=["grid1d"])
        with pytest.raises(ManifestError, match="different sweep"):
            run_campaign(path, quick=False, jobs=1, names=["grid1d"], resume=True)

    def test_progress_counts_every_cell(self, tmp_path):
        seen = []
        run_campaign(
            tmp_path / "m.jsonl",
            quick=True,
            jobs=2,
            names=SUBSET,
            progress=lambda done, total, name: seen.append((done, total)),
        )
        assert [d for d, _ in seen] == [1, 2, 3]
        assert all(t == 3 for _, t in seen)

    def test_rejects_bad_arguments(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with pytest.raises(ReproError, match="jobs"):
            run_campaign(path, quick=True, jobs=0)
        with pytest.raises(ReproError, match="max_attempts"):
            run_campaign(path, quick=True, max_attempts=0)
        with pytest.raises(ReproError, match="cell_timeout"):
            run_campaign(path, quick=True, cell_timeout=0.0)


class TestChaosRecovery:
    def test_worker_kill_is_retried_and_byte_identical(self, tmp_path):
        metrics = MetricsRegistry()
        with use_instrumentation(Instrumentation(metrics=metrics)):
            games, checks = run_campaign(
                tmp_path / "m.jsonl",
                quick=True,
                jobs=2,
                names=SUBSET,
                chaos=ChaosConfig(kill_every=2, seed=7),
            )
        assert _dump_bytes(tmp_path, "chaos", games, checks) == _serial_bytes(
            tmp_path
        )
        # A negative exit code (the SIGKILL) is journaled as "killed".
        assert _retry_reasons(tmp_path / "m.jsonl") == ["killed"]
        assert metrics.counter("campaign_worker_deaths").value == 1

    def test_corrupt_spill_is_rejected_and_retried(self, tmp_path):
        games, checks = run_campaign(
            tmp_path / "m.jsonl",
            quick=True,
            jobs=1,
            names=SUBSET,
            chaos=ChaosConfig(corrupt_every=1, seed=3),
        )
        assert _dump_bytes(tmp_path, "chaos", games, checks) == _serial_bytes(
            tmp_path
        )
        reasons = _retry_reasons(tmp_path / "m.jsonl")
        assert reasons and set(reasons) == {"corrupt-result"}

    def test_watchdog_reaps_stragglers(self, tmp_path):
        games, checks = run_campaign(
            tmp_path / "m.jsonl",
            quick=True,
            jobs=2,
            names=SUBSET,
            chaos=ChaosConfig(delay_every=1, delay_seconds=30.0, seed=2),
            cell_timeout=0.75,
        )
        assert _dump_bytes(tmp_path, "slow", games, checks) == _serial_bytes(
            tmp_path
        )
        reasons = _retry_reasons(tmp_path / "m.jsonl")
        assert reasons and set(reasons) == {"timeout"}

    def test_exhausted_game_cell_degrades_without_aborting(self, tmp_path):
        games, checks = run_campaign(
            tmp_path / "m.jsonl",
            quick=True,
            jobs=1,
            names=GAMES_ONLY,
            chaos=ChaosConfig(kill_every=2, attempts=99, seed=1),
            max_attempts=2,
        )
        errored = [g for g in games if g.error]
        healthy = [g for g in games if not g.error]
        assert len(errored) == 1
        assert errored[0].experiment == "cell:pathological"
        assert "exhausted 2 attempt(s)" in errored[0].error
        assert "killed" in errored[0].error
        assert healthy  # the sibling cell ran to completion
        manifest = load_manifest(tmp_path / "m.jsonl")
        assert [manifest.cell(i).status for i in range(2)] == ["done", "failed"]

    def test_exhausted_check_cell_raises_after_journaling(self, tmp_path):
        with pytest.raises(CampaignError, match="example2"):
            run_campaign(
                tmp_path / "m.jsonl",
                quick=True,
                jobs=1,
                names=["example2"],
                chaos=ChaosConfig(kill_every=1, attempts=99, seed=1),
                max_attempts=2,
            )
        assert load_manifest(tmp_path / "m.jsonl").cell(0).status == "failed"

    def test_failed_cells_rerun_on_resume(self, tmp_path):
        path = tmp_path / "m.jsonl"
        run_campaign(
            path,
            quick=True,
            jobs=1,
            names=GAMES_ONLY,
            chaos=ChaosConfig(kill_every=2, attempts=99, seed=1),
            max_attempts=2,
        )
        # Resume without chaos: the failed cell runs clean this time.
        games, checks = run_campaign(
            path, quick=True, jobs=1, names=GAMES_ONLY, resume=True
        )
        assert not any(g.error for g in games)
        assert _dump_bytes(tmp_path, "resumed", games, checks) == _serial_bytes(
            tmp_path, names=GAMES_ONLY
        )

    def test_chaos_plan_is_deterministic(self):
        config = ChaosConfig(kill_every=3, delay_every=2, delay_seconds=1.0, seed=5)
        assert [config.should_kill(i, 1) for i in range(6)] == [
            False, False, True, False, False, True,
        ]
        assert not config.should_kill(2, 2)  # attempts=1: retry recovers
        assert config.delay(1, 1) == config.delay(1, 1)
        assert config.delay(1, 1) != config.delay(3, 1)
        assert 1.0 <= config.delay(1, 1) <= 2.0

    def test_corrupt_file_damages_pickles(self, tmp_path):
        path = tmp_path / "spill.pkl"
        path.write_bytes(pickle.dumps(list(range(1000))))
        corrupt_file(path, seed=1)
        with pytest.raises((pickle.PickleError, EOFError, ValueError, OSError)):
            pickle.loads(path.read_bytes())


class TestParentCrash:
    """SIGKILL of the whole campaign process tree, then resume."""

    def test_killed_campaign_resumes_byte_identical(self, tmp_path):
        path = tmp_path / "m.jsonl"
        # The child campaign SIGKILLs *itself* (parent and workers) the
        # moment the first cell completes — a deterministic stand-in
        # for pulling the plug mid-sweep.
        script = textwrap.dedent(
            f"""
            import os, signal
            from repro.experiments import run_campaign

            def plug(done, total, name):
                os.kill(os.getpid(), signal.SIGKILL)

            run_campaign(
                {str(path)!r}, quick=True, jobs=1,
                names={SUBSET!r}, progress=plug,
            )
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL
        # The journal survived the kill in a parseable state with at
        # least the first cell committed.
        manifest = load_manifest(path)
        assert manifest.completed_indices() == [0]
        assert len(manifest.pending_indices()) == 2
        games, checks = run_campaign(
            path, quick=True, jobs=1, names=SUBSET, resume=True
        )
        assert _dump_bytes(tmp_path, "resumed", games, checks) == _serial_bytes(
            tmp_path
        )


class TestAtomicDump:
    """``dump_results`` commits via tempfile + rename: a writer killed
    mid-write can never leave a torn JSON file behind."""

    def test_round_trip(self, tmp_path):
        from repro.experiments import load_results

        games, checks = run_all(quick=True, names=SUBSET)
        path = tmp_path / "out.json"
        dump_results(str(path), games, checks)
        games2, checks2 = load_results(str(path))
        # Round-tripped results re-dump byte-identically (the property
        # manifest journaling and --resume lean on).
        dump_results(str(tmp_path / "again.json"), games2, checks2)
        assert path.read_bytes() == (tmp_path / "again.json").read_bytes()

    def test_writer_killed_mid_write_leaves_old_dump_intact(self, tmp_path):
        from repro.experiments import load_results

        path = tmp_path / "out.json"
        games, checks = run_all(quick=True, names=["example2"])
        dump_results(str(path), games, checks)
        before = path.read_bytes()
        # A subprocess re-dumps to the same path but SIGKILLs itself at
        # the rename boundary — the worst possible instant: the new
        # content is fully staged yet the commit never happens.
        script = textwrap.dedent(
            f"""
            import os, signal
            os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)
            from repro.experiments import dump_results, load_results
            games, checks = load_results({str(path)!r})
            dump_results({str(path)!r}, games, checks)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        # The committed dump is untouched and still loads.
        assert path.read_bytes() == before
        reloaded = load_results(str(path))
        assert len(reloaded[1]) == len(checks)


class TestCampaignObservability:
    def test_events_round_trip_the_wire_format(self, tmp_path):
        """A chaos campaign's merged trace holds engine events and the
        two framing records only, each line exactly its event's wire
        form; the retry shows only as the committed attempt number."""
        from repro.obs import ShardMergedEvent, event_from_dict

        trace = tmp_path / "trace.jsonl"
        run_campaign(
            tmp_path / "m.jsonl",
            quick=True,
            jobs=2,
            names=SUBSET,
            chaos=ChaosConfig(kill_every=2, seed=7),
            trace_out=trace,
        )
        lines = trace.read_text(encoding="utf-8").splitlines()
        events = [event_from_dict(json.loads(line)) for line in lines]
        assert [e.to_json() for e in events] == lines
        assert {"run_start", "run_end", "shard_merged"} <= {e.kind for e in events}
        assert events[-1].kind == "trace_footer"
        attempts = {
            e.cell: e.attempt for e in events if isinstance(e, ShardMergedEvent)
        }
        assert set(attempts) == set(SUBSET)
        assert sorted(attempts.values()) == [1, 1, 2]
        assert _retry_reasons(tmp_path / "m.jsonl") == ["killed"]

    def test_replay_check_passes_on_chaos_traces(self, tmp_path, capsys):
        from repro.obs.replay import main as replay_main
        from repro.obs.replay import replay_file, verify_run

        trace = tmp_path / "trace.jsonl"
        run_campaign(
            tmp_path / "m.jsonl",
            quick=True,
            jobs=1,
            names=SUBSET,
            chaos=ChaosConfig(kill_every=2, seed=7),
            trace_out=trace,
        )
        # The killed attempt's shard is never merged: every run in the
        # trace reconstructs exactly.
        runs = replay_file(trace)
        assert runs and all(verify_run(run) == [] for run in runs)
        assert replay_main([str(trace), "--check"]) == 0
        assert "reconstruct exactly" in capsys.readouterr().out

    def test_chaos_campaign_leaves_the_ambient_trace_empty(self, tmp_path):
        """A campaign's supervision is journaled, not traced: the parent
        emits no event into an ambient sink, and its workers never
        reuse it (they record into their own shards, or nothing)."""
        trace = tmp_path / "trace.jsonl"
        with trace.open("w", encoding="utf-8") as stream:
            sink = JsonlSink(stream=stream)
            with use_instrumentation(Instrumentation(sink=sink)):
                run_campaign(
                    tmp_path / "m.jsonl",
                    quick=True,
                    jobs=2,
                    names=SUBSET,
                    chaos=ChaosConfig(kill_every=2, seed=7),
                )
            sink.close()
        assert _retry_reasons(tmp_path / "m.jsonl") == ["killed"]
        assert trace.read_text(encoding="utf-8") == ""
