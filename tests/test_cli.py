"""The `python -m repro.experiments` entry point."""

import io
import json
import tempfile
from contextlib import redirect_stdout

import pytest

from repro.errors import ReproError
from repro.experiments import table1
from repro.experiments.__main__ import main
from repro.experiments.campaign import CampaignError


class TestCli:
    @pytest.mark.slow
    def test_quick_run_exits_zero(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["--quick"])
        output = buffer.getvalue()
        assert code == 0
        assert "Table 1" in output
        assert "All" in output and "hold" in output
        # Every experiment family appears.
        for token in ("T1-R1", "T1-R5", "T1-R8-GAP", "K-LB", "EX1", "BC"):
            assert token in output

    @pytest.mark.slow
    def test_quick_run_with_trace_and_metrics(self, tmp_path):
        """--trace-out writes a replayable JSONL event stream and
        --metrics prints the aggregate registry; the replay tool must
        reconstruct every run exactly."""
        trace_path = tmp_path / "trace.jsonl"
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(
                ["--quick", "--trace-out", str(trace_path), "--metrics",
                 "--progress", "--profile"]
            )
        output = buffer.getvalue()
        assert code == 0
        assert trace_path.exists()
        assert "== Metrics ==" in output
        assert "== Phase timings ==" in output
        assert "[1/" in output  # progress lines
        import json

        metrics = json.loads(
            output.split("== Metrics ==")[1].split("== Phase timings ==")[0]
        )
        assert metrics["runs"] > 10
        assert metrics["faults"] > 0

        from repro.obs.replay import main as replay_main

        replay_buffer = io.StringIO()
        with redirect_stdout(replay_buffer):
            replay_code = replay_main([str(trace_path), "--check"])
        assert replay_code == 0
        assert "reconstruct exactly" in replay_buffer.getvalue()

    @pytest.mark.slow
    def test_chaos_campaign_ships_telemetry(self, tmp_path):
        """The telemetry-plane acceptance path, end to end through the
        CLI: a chaos-killed multi-process campaign still produces a
        merged trace that replays exactly and a merged metrics
        snapshot (--metrics-out)."""
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(
                ["--quick", "--jobs", "2",
                 "--campaign", str(tmp_path / "m.jsonl"),
                 "--chaos-kill-every", "3", "--chaos-seed", "7",
                 "--trace-out", str(trace_path),
                 "--metrics-out", str(metrics_path)]
            )
        assert code == 0
        assert trace_path.exists()
        import json

        metrics = json.loads(metrics_path.read_text())
        assert metrics["runs"] > 10
        assert metrics["faults"] > 0
        assert metrics["campaign_worker_deaths"] >= 1
        assert metrics["campaign_trace_cells"] > 0

        from repro.obs.replay import main as replay_main

        replay_buffer = io.StringIO()
        with redirect_stdout(replay_buffer):
            replay_code = replay_main([str(trace_path), "--check"])
        assert replay_code == 0
        assert "reconstruct exactly" in replay_buffer.getvalue()

    def test_help_mentions_quick(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--quick" in out
        assert "--trace-out" in out
        assert "--metrics" in out


class TestFlagValues:
    """A bad flag value ends as one usage error and exit 2: never a
    traceback, never a silently substituted value, and no work done."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(
                ["--campaign", "m.jsonl", "--max-attempts", "0"],
                "--max-attempts",
                id="max-attempts-0",
            ),
            pytest.param(
                ["--campaign", "m.jsonl", "--cell-timeout", "0"],
                "--cell-timeout",
                id="cell-timeout-0",
            ),
            pytest.param(
                ["--campaign", "m.jsonl", "--cell-timeout", "-1"],
                "--cell-timeout",
                id="cell-timeout-negative",
            ),
            pytest.param(
                ["--campaign", "m.jsonl", "--chaos-kill-every", "-2"],
                "--chaos-kill-every",
                id="chaos-kill-every-negative",
            ),
            pytest.param(
                ["--campaign", "m.jsonl", "--chaos-corrupt-every", "-1"],
                "--chaos-corrupt-every",
                id="chaos-corrupt-every-negative",
            ),
            pytest.param(
                ["--campaign", "m.jsonl", "--chaos-delay", "-1"],
                "--chaos-delay",
                id="chaos-delay-negative",
            ),
            pytest.param(["--cells", "nosuch"], "--cells", id="cells-unknown"),
            pytest.param(
                ["--resume", "missing.jsonl"], "--resume", id="resume-missing"
            ),
        ],
    )
    def test_bad_value_is_a_usage_error(
        self, argv, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["--quick", "--cells", "example2", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: {flag}" in err.splitlines()[-1]
        assert not (tmp_path / "m.jsonl").exists()


class TestOneCellRunner:
    """``--cells`` runs serially (so ``--profile`` can time it) and
    ``--jobs N`` runs a campaign on a throw-away journal."""

    def test_cells_with_profile_times_exactly_those_cells(self, capsys):
        code = main(["--quick", "--cells", "grid1d,example2", "--profile"])
        out = capsys.readouterr().out
        assert code == 0
        timings = json.loads(
            out.split("== Phase timings ==")[1].split("== Table 1")[0]
        )
        assert [phase["phase"] for phase in timings["phases"]] == [
            "table1.grid1d",
            "table1.example2",
        ]

    @pytest.fixture
    def tempdir(self, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        return scratch

    def test_jobs_leaves_nothing_in_the_temp_directory(self, tempdir, capsys):
        code = main(["--quick", "--jobs", "2", "--cells", "grid1d,example2"])
        capsys.readouterr()
        assert code == 0
        assert list(tempdir.iterdir()) == []

    def test_jobs_cleans_up_when_the_sweep_raises(
        self, tempdir, monkeypatch, capsys
    ):
        def broken(**kwargs):
            raise ReproError("broken check cell")

        # Forked workers inherit the patched registry: every attempt of
        # the check cell crashes, and the exhausted cell raises.
        monkeypatch.setitem(table1._CHECK_CELL_FUNCS, "example2", broken)
        with pytest.raises(CampaignError, match="example2"):
            main(["--quick", "--jobs", "2", "--cells", "grid1d,example2"])
        capsys.readouterr()
        assert list(tempdir.iterdir()) == []

    def test_jobs_metrics_are_serial_plus_campaign_counters(
        self, tmp_path, capsys
    ):
        cells = "grid1d,pathological,example2"
        serial_path = tmp_path / "serial.json"
        jobs_path = tmp_path / "jobs.json"
        assert main(
            ["--quick", "--cells", cells, "--metrics-out", str(serial_path)]
        ) == 0
        assert main(
            ["--quick", "--cells", cells, "--jobs", "2",
             "--metrics-out", str(jobs_path)]
        ) == 0
        capsys.readouterr()
        serial = json.loads(serial_path.read_text())
        jobs = json.loads(jobs_path.read_text())
        extra = {name: jobs.pop(name) for name in set(jobs) - set(serial)}
        assert extra == {"campaign_cells_started": 3, "campaign_cells_done": 3}
        assert jobs == serial

    def test_figures_with_jobs_still_prints_the_figures(self, capsys):
        assert main(["--figures", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        for figure in ("Figure 4", "Figure 6", "Figure 7"):
            assert figure in out


class TestResultsIo:
    def test_roundtrip(self, tmp_path):
        from repro.experiments import dump_results, load_results
        from repro.experiments.harness import CheckResult, ExperimentResult

        games = [
            ExperimentResult(
                "T1-R2",
                "demo game",
                params={"B": 64, "s": 1},
                sigma=63.8,
                steady_sigma=64.0,
                min_gap=64.0,
                faults=100,
                steps=6400,
                lower_bound=64.0,
                upper_bound=64.0,
                storage_blowup=1.0,
            )
        ]
        checks = [CheckResult("EX2", "demo check", expected=5.0, measured=5.0)]
        path = tmp_path / "results.json"
        dump_results(path, games, checks)
        loaded_games, loaded_checks = load_results(path)
        assert loaded_games[0].experiment == "T1-R2"
        assert loaded_games[0].sigma == 63.8
        assert loaded_games[0].holds
        assert loaded_games[0].params["B"] == 64
        assert loaded_checks[0].holds

    def test_rejects_unknown_schema(self, tmp_path):
        import json

        import pytest

        from repro.experiments import load_results

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "games": [], "checks": []}))
        with pytest.raises(ValueError):
            load_results(path)

    def test_non_jsonable_params_stringified(self, tmp_path):
        from repro.experiments import dump_results, load_results
        from repro.experiments.harness import ExperimentResult

        games = [
            ExperimentResult(
                "X", "d", params={"shape": (3, 4)}, sigma=1.0, steady_sigma=1.0
            )
        ]
        path = tmp_path / "r.json"
        dump_results(path, games, [])
        loaded, _ = load_results(path)
        assert loaded[0].params["shape"] == "(3, 4)"
